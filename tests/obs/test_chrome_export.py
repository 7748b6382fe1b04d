"""Chrome trace export: valid JSON, monotonic timestamps, well-formed nesting."""

import json

import pytest

from repro.obs.chrome import chrome_trace_events, chrome_trace_json, write_chrome_trace
from repro.obs.spans import build_traces
from repro.obs.timeline import render_timeline
from tests.obs.conftest import traced_commit


@pytest.fixture(scope="module")
def ledger_world():
    """One traced global commit (the richest event set)."""
    return traced_commit(is_global=True)


@pytest.fixture(scope="module")
def traces(ledger_world):
    _, _, world = ledger_world
    return build_traces(world.obs.events)


class TestChromeExport:
    def test_round_trips_through_json(self, traces):
        doc = json.loads(chrome_trace_json(traces))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_timestamps_monotonic(self, traces):
        events = chrome_trace_events(traces)
        body = [e for e in events if e["ph"] != "M"]
        assert all(a["ts"] <= b["ts"] for a, b in zip(body, body[1:]))

    def test_metadata_names_every_node(self, traces):
        events = chrome_trace_events(traces)
        named = {e["args"]["name"] for e in events if e["ph"] == "M"}
        touched = {
            event.node for trace in traces.values() for event in trace.events
        }
        assert touched <= named

    def test_instant_milestones_exported(self, traces):
        events = chrome_trace_events(traces)
        instants = {e["name"] for e in events if e["ph"] == "i"}
        assert {"client.commit", "client.done", "server.certify"} <= instants

    def test_parent_child_nesting(self, ledger_world):
        _, trace, _ = ledger_world
        root = trace.root
        for span in trace.spans[1:]:
            assert span.parent is not None
            assert span.parent.encloses(span)
            # Walking up always terminates at the root (no cycles).
            seen, cursor = 0, span
            while cursor.parent is not None:
                cursor = cursor.parent
                seen += 1
                assert seen <= len(trace.spans)
            assert cursor is root

    def test_span_lanes_cover_protocol_structure(self, ledger_world):
        _, trace, _ = ledger_world
        names = {span.name for span in trace.spans}
        assert {"txn", "execute", "commit"} <= names
        assert any(name.startswith("abcast:") for name in names)
        assert any(name.startswith("vote:") for name in names)
        assert any(name.startswith("ledger:") for name in names)
        assert any(name.startswith("hop:") for name in names)

    def test_write_chrome_trace_to_path(self, traces, tmp_path):
        path = tmp_path / "run.trace.json"
        write_chrome_trace(str(path), traces)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestTimeline:
    def test_renders_span_ladder(self, ledger_world):
        _, trace, _ = ledger_world
        rendered = render_timeline(trace)
        lines = rendered.splitlines()
        assert lines[0].startswith(f"txn {trace.tid}")
        assert len(lines) == len(trace.spans) + 1
        assert any("commit @" in line for line in lines)
        assert all("|" in line for line in lines[1:])
