"""Unit tests for the Paxos instance log."""

import pytest

from repro.consensus.log import PaxosLog
from repro.errors import ConsensusError


class TestChoosing:
    def test_votes_accumulate_to_quorum(self):
        log = PaxosLog()
        assert not log.record_vote(0, (1, 0), "v", "a", quorum=2)
        assert log.record_vote(0, (1, 0), "v", "b", quorum=2)
        assert log.is_chosen(0)

    def test_duplicate_votes_do_not_count_twice(self):
        log = PaxosLog()
        assert not log.record_vote(0, (1, 0), "v", "a", quorum=2)
        assert not log.record_vote(0, (1, 0), "v", "a", quorum=2)
        assert not log.is_chosen(0)

    def test_votes_at_different_ballots_kept_separate(self):
        log = PaxosLog()
        log.record_vote(0, (1, 0), "v1", "a", quorum=2)
        assert not log.record_vote(0, (2, 1), "v2", "b", quorum=2)
        assert log.record_vote(0, (2, 1), "v2", "c", quorum=2)
        assert log.state(0).chosen_value == "v2"

    def test_votes_after_chosen_are_ignored(self):
        log = PaxosLog()
        log.mark_chosen(0, "v")
        assert not log.record_vote(0, (9, 9), "other", "x", quorum=1)
        assert log.state(0).chosen_value == "v"

    def test_conflicting_chosen_values_detected(self):
        log = PaxosLog()
        log.mark_chosen(0, "v1")
        with pytest.raises(ConsensusError):
            log.mark_chosen(0, "v2")
        log.mark_chosen(0, "v1")  # idempotent re-choice is fine

    def test_duplicate_choice_is_checked_by_identity_then_equality(self):
        class Value:
            """Equal by payload; counts comparisons; ``repr`` must not be used."""

            compared = 0

            def __init__(self, payload):
                self.payload = payload

            def __eq__(self, other):
                Value.compared += 1
                return isinstance(other, Value) and self.payload == other.payload

            def __repr__(self):
                raise AssertionError("mark_chosen rendered a whole value to compare it")

        log = PaxosLog()
        value = Value("v")
        log.mark_chosen(0, value)
        log.mark_chosen(0, value)  # the same object: not even compared
        assert Value.compared == 0
        log.mark_chosen(0, Value("v"))  # an equal copy (a decoded re-send)
        assert Value.compared == 1
        with pytest.raises(ConsensusError):
            log.mark_chosen(0, Value("other"))
        assert log.state(0).chosen_value is value

    def test_negative_instance_rejected(self):
        with pytest.raises(ConsensusError):
            PaxosLog().state(-1)


class TestDelivery:
    def test_in_order_delivery(self):
        log = PaxosLog()
        log.mark_chosen(0, "a")
        log.mark_chosen(1, "b")
        assert log.pop_deliverable() == [(0, "a"), (1, "b")]
        assert log.next_to_deliver == 2

    def test_gap_blocks_delivery(self):
        log = PaxosLog()
        log.mark_chosen(1, "b")
        assert log.pop_deliverable() == []
        log.mark_chosen(0, "a")
        assert log.pop_deliverable() == [(0, "a"), (1, "b")]

    def test_pop_is_incremental(self):
        log = PaxosLog()
        log.mark_chosen(0, "a")
        assert log.pop_deliverable() == [(0, "a")]
        assert log.pop_deliverable() == []
        log.mark_chosen(1, "b")
        assert log.pop_deliverable() == [(1, "b")]

    def test_undelivered_gaps(self):
        log = PaxosLog()
        log.mark_chosen(1, "b")
        log.mark_chosen(3, "d")
        assert [i for i in range(4) if not log.is_chosen(i)] == [0, 2]

    def test_max_seen_instance(self):
        log = PaxosLog()
        assert log.max_seen_instance == -1
        log.state(5)
        assert log.max_seen_instance == 5


class TestAcceptorSnapshot:
    def test_accepted_at_or_above(self):
        log = PaxosLog()
        for instance in (0, 1, 3):
            entry = log.state(instance)
            entry.accepted_ballot = (1, 0)
            entry.accepted_value = f"v{instance}"
            entry.has_accepted = True
        snapshot = log.accepted_at_or_above(1)
        assert set(snapshot) == {1, 3}
        assert snapshot[3] == ((1, 0), "v3")

    def test_unaccepted_instances_excluded(self):
        log = PaxosLog()
        log.state(0)  # touched but never accepted
        assert log.accepted_at_or_above(0) == {}


class TestAdvanceTo:
    def test_advance_skips_compacted_instances(self):
        log = PaxosLog()
        log.advance_to(5)
        assert log.next_to_deliver == 5
        assert log.max_seen_instance == 4
        log.mark_chosen(5, "v5")
        assert log.pop_deliverable() == [(5, "v5")]

    def test_advance_drops_stale_state(self):
        log = PaxosLog()
        log.mark_chosen(0, "v0")
        log.state(1).has_accepted = True
        log.advance_to(3)
        assert log.accepted_at_or_above(0) == {}
        # Covered by the checkpoint: forgotten, so chosen with no value here.
        assert log.is_forgotten(0) and log.is_chosen(0) and log.chosen_value(0) is None

    def test_cannot_move_backwards(self):
        log = PaxosLog()
        log.advance_to(4)
        with pytest.raises(ConsensusError):
            log.advance_to(2)

    def test_advance_to_current_is_noop(self):
        log = PaxosLog()
        log.mark_chosen(0, "a")
        log.pop_deliverable()
        log.advance_to(1)
        assert log.next_to_deliver == 1
