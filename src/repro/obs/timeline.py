"""ASCII per-transaction timeline: a span ladder for terminals.

``render_timeline(trace)`` prints the span tree indented by depth with a
proportional bar per span, so a single commit's protocol schedule can be
read without leaving the shell::

    txn c~1a2b#4 — 140.0 ms
      0.0 .. 140.0 ms  |################################|  txn
      0.0 ..  10.0 ms  |##                              |  execute @client
     10.0 .. 140.0 ms  |  ##############################|  commit @client
     15.0 ..  25.0 ms  |   ##                           |    abcast:p0 @s0
     ...
"""

from __future__ import annotations

from repro.obs.spans import Span, TxnTrace


#: Characters in each span's bar.
BAR_WIDTH = 48


def render_timeline(trace: TxnTrace) -> str:
    """A human-readable ladder of ``trace``'s spans."""
    origin = trace.start
    total = max(trace.duration, 1e-9)
    lines = [f"txn {trace.tid} — {trace.duration * 1000:.1f} ms"]

    def emit(span: Span, depth: int) -> None:
        rel_start = (span.start - origin) * 1000
        rel_end = (span.end - origin) * 1000
        left = int(round((span.start - origin) / total * (BAR_WIDTH - 1)))
        right = int(round((span.end - origin) / total * (BAR_WIDTH - 1)))
        bar = [" "] * BAR_WIDTH
        for col in range(left, max(right, left) + 1):
            bar[col] = "#"
        label = f"{'  ' * depth}{span.name} @{span.node}"
        lines.append(
            f"{rel_start:8.1f} ..{rel_end:8.1f} ms  |{''.join(bar)}|  {label}"
        )
        for child in sorted(span.children, key=lambda s: (s.start, s.end)):
            emit(child, depth + 1)

    emit(trace.root, 0)
    return "\n".join(lines)
