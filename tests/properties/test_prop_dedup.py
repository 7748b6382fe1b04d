"""The dedup tables remember what a bounded ``OrderedDict`` would have.

``SdurServer._completed`` (``client -> {seq: outcome}``) and
``VoteLedger._applied`` (``client -> {partition -> {seq: None}}``) keep
two generations of at most ``limit`` entries each (docs/PROTOCOL.md
§15).  Over completion sequences from a few clients, with a small
``history_window`` so the tables roll over many times:

* every tid among the last ``limit`` recorded is found, with its
  outcome: the memory of the ``OrderedDict`` trimmed to ``limit`` that
  the tables replaced, run alongside as the oracle.  Both owners record
  a tid only when their table does not remember it (the server after
  its duplicate check, the ledger likewise), and the tests drive them
  through those checks;
* nothing is found once ``2 * limit`` other tids were recorded after it;
* a duplicate delivery of a remembered tid is dropped, by the server
  (``on_adeliver`` -> ``_deliver_txn``) and by the ledger
  (``VoteLedger.deliver``);
* the rows of seqs hold only atoms, so the collector does not track
  them: what it tracks is one container per client at most.
"""

import gc
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import OutcomeNotice
from repro.core.transaction import ReadsetDigest, TxnId, TxnProjection
from repro.termination.messages import VoteRecord
from tests.properties.test_batch_differential import KEYS, build_server, completed_of

#: ``history_window`` 2 makes ``limit`` 8 (the server keeps four windows).
HISTORY_WINDOW = 2
LIMIT = 8
CLIENTS = ("c0", "c1", "c2")
PARTITIONS = ("p0", "p1")

deliveries = st.lists(
    st.tuples(
        st.sampled_from(CLIENTS),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=3),  # how far the snapshot lags
    ),
    min_size=30,
    max_size=100,
)
vote_records = st.lists(
    st.tuples(
        st.sampled_from(CLIENTS),
        st.integers(min_value=0, max_value=20),
        st.sampled_from(PARTITIONS),
    ),
    min_size=30,
    max_size=100,
)


def forgotten(last_seen: dict, key) -> bool:
    """Were ``2 * limit`` other keys recorded after ``key`` last was?"""
    return sum(when > last_seen[key] for when in last_seen.values()) >= 2 * LIMIT


def remember(oracle: OrderedDict, last_seen: dict, key, value) -> None:
    """Record ``key`` in the ``OrderedDict`` the tables replaced."""
    oracle[key] = value
    while len(oracle) > LIMIT:
        oracle.popitem(last=False)
    last_seen[key] = len(last_seen) and max(last_seen.values()) + 1


@settings(max_examples=100, deadline=None)
@given(deliveries)
def test_completed_outcomes_are_remembered_and_forgotten(steps):
    server = build_server(0, history_window=HISTORY_WINDOW)
    assert server._completed_limit == LIMIT
    oracle: OrderedDict[tuple[str, int], str] = OrderedDict()
    last_seen: dict[tuple[str, int], int] = {}
    for client, seq, lag in steps:
        key = (client, seq)
        sent = len(server.runtime.sent)
        server.on_adeliver(
            server.dc,
            TxnProjection(
                tid=TxnId(client, seq),
                partition="p0",
                readset=ReadsetDigest.exact([KEYS[seq % 3]]),
                writeset={KEYS[seq % 3]: seq},
                snapshot=max(0, server.sc - lag),
                partitions=("p0",),
                coordinator="s0",
                client=client,
            ),
        )
        replies = [m for _, m in server.runtime.sent[sent:] if isinstance(m, OutcomeNotice)]
        if key in oracle:
            assert not replies, key  # a resent tid is dropped, not certified again
        elif key in last_seen and forgotten(last_seen, key):
            assert replies, key  # long forgotten: certified like a new one
        if replies:
            remember(oracle, last_seen, key, replies[0].outcome)
        for (c, s), outcome in oracle.items():
            assert server._completed_outcome(TxnId(c, s)) == outcome
        for c, s in last_seen:
            if forgotten(last_seen, (c, s)):
                assert server._completed_outcome(TxnId(c, s)) is None
        assert len(completed_of(server)) <= 2 * LIMIT
    for generation in (server._completed, server._completed_old):
        assert not any(map(gc.is_tracked, generation.values()))


@settings(max_examples=100, deadline=None)
@given(vote_records)
def test_a_delivered_vote_record_is_remembered_and_forgotten(steps):
    ledger = build_server(0, history_window=HISTORY_WINDOW).ledger
    assert ledger.limit == LIMIT
    oracle: OrderedDict[tuple[str, int, str], None] = OrderedDict()
    last_seen: dict[tuple[str, int, str], int] = {}
    for client, seq, partition in steps:
        key = (client, seq, partition)
        before = ledger.stats.votes_ordered
        ledger.deliver(VoteRecord(tid=TxnId(client, seq), partition=partition, vote="commit"))
        took_effect = ledger.stats.votes_ordered > before
        if key in oracle:
            assert not took_effect, key  # a duplicate record is dropped
        elif key in last_seen and forgotten(last_seen, key):
            assert took_effect, key  # long forgotten: it counts again
        if took_effect:
            remember(oracle, last_seen, key, None)
        held = sum(
            len(seqs)
            for generation in (ledger._applied, ledger._applied_old)
            for rows in generation.values()
            for seqs in rows.values()
        )
        assert held <= 2 * LIMIT
    for generation in (ledger._applied, ledger._applied_old):
        for rows in generation.values():
            assert not any(map(gc.is_tracked, rows.values()))
