"""Property test of the inbound frame parser (``repro.net.asyncio_transport``).

However TCP cuts a byte stream into ``data_received`` chunks, the
connection hands the handler the same messages in the same order — or,
when the stream holds a frame that cannot be trusted (undecodable, not
an ``Envelope``, or announcing more than the frame limit), every message
before it, one rejection, and a closed connection.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.asyncio_transport import _MAX_FRAME, Envelope, _frame
from repro.net.codec import encode_packed
from tests.net.test_asyncio_transport import _Echo, feed

BAD_FRAMES = {
    "undecodable": b"\x00\x00\x00\x07garbage",
    "not an envelope": _frame(encode_packed(_Echo(text="naked"))),
    "oversized": (_MAX_FRAME + 1).to_bytes(4, "big") + b"\x00" * 16,
}


@st.composite
def streams(draw):
    """``(texts expected, chunks, rejected?)`` for a random frame stream,
    possibly with one bad frame, cut at random points."""
    texts = draw(st.lists(st.text(max_size=40), max_size=12))
    frames = [_frame(encode_packed(Envelope(src="a", payload=_Echo(text=t)))) for t in texts]
    bad = draw(st.none() | st.sampled_from(sorted(BAD_FRAMES)))
    expected = texts
    if bad is not None:
        at = draw(st.integers(0, len(frames)))
        frames.insert(at, BAD_FRAMES[bad])
        expected = texts[:at]
    stream = b"".join(frames)
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(stream) - 1)), max_size=20)))
    bounds = [0, *[c for c in cuts if c < len(stream)], len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    return expected, chunks, bad is not None


@settings(max_examples=200, deadline=None)
@given(streams())
def test_any_chunking_delivers_the_same_messages_or_one_rejection(case):
    expected, chunks, rejected = case
    transport, conn, seen = feed(chunks)
    assert seen == expected
    assert transport.frames_rejected == int(rejected)
    assert conn.closed == rejected
    assert transport.handler_errors == 0
