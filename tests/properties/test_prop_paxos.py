"""Paxos safety under chaos: crashes, loss, and leader churn.

The two properties that may never break, whatever the schedule:

* **Agreement** — no two replicas deliver different values at the same
  instance (equivalently: delivered sequences are prefixes of one
  another).
* **Integrity** — only proposed values are delivered, each at most once
  per replica.

Liveness is NOT asserted when a majority is crashed (Paxos cannot and
must not make progress then).
"""

from unittest.mock import patch

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consensus import replica as replica_module
from repro.consensus.replica import PaxosConfig, PaxosReplica
from repro.runtime.sim import SimWorld

MEMBERS = ["a", "b", "c"]

chaos_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "loss": st.sampled_from([0.0, 0.05, 0.15]),
        "crash_member": st.sampled_from([None, "a", "b"]),
        "crash_after": st.floats(0.5, 3.0),
        "num_values": st.integers(1, 15),
        "static_leader": st.booleans(),
    }
)


LINKS = [("a", "b"), ("a", "c"), ("b", "c")]
_link = st.sampled_from(LINKS)
cut_heal_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "steps": st.lists(
            st.one_of(
                st.tuples(st.just("cut"), _link),
                st.tuples(st.just("heal"), _link),
                st.tuples(st.just("propose"), st.integers(1, 4)),
            ),
            min_size=1,
            max_size=12,
        ),
    }
)


def run_chaos(params):
    """Every retry and catch-up timer at 0.3 s, faster than production's."""
    with patch.multiple(
        replica_module,
        PHASE1_RETRY=0.3,
        ACCEPT_RETRY=0.3,
        PROPOSE_RETRY=0.3,
        CATCHUP_INTERVAL=0.3,
    ):
        return _run_chaos(params)


def _run_chaos(params):
    world = SimWorld(seed=params["seed"], loss_probability=params["loss"])
    delivered = {member: [] for member in MEMBERS}
    replicas = {}
    for member in MEMBERS:
        runtime = world.runtime_for(member)
        config = PaxosConfig(
            static_leader="a" if params["static_leader"] else None,
            heartbeat_interval=0.05,
            suspect_timeout=0.25,
        )
        replica = PaxosReplica(
            runtime,
            "g",
            MEMBERS,
            config,
            on_deliver=lambda i, v, m=member: delivered[m].append((i, v)),
        )
        runtime.listen(lambda src, msg, r=replica: r.handle(src, msg))
        replicas[member] = replica
    for replica in replicas.values():
        replica.start()
    world.run(until=0.5)
    proposed = []
    rng = world.rng.stream("chaos")
    for index in range(params["num_values"]):
        value = f"value-{index}"
        proposed.append(value)
        proposer = MEMBERS[rng.randrange(3)]
        replicas[proposer].propose(value)
        world.run(until=world.now + rng.random() * 0.2)
    if params["crash_member"] is not None:
        world.crash(params["crash_member"])
    world.run(until=world.now + 15.0)
    return delivered, proposed, params


class TestPaxosSafety:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(params=chaos_strategy)
    def test_agreement_and_integrity(self, params):
        delivered, proposed, params = run_chaos(params)
        sequences = list(delivered.values())
        # Agreement: pairwise prefix consistency on (instance, value).
        for seq_a in sequences:
            for seq_b in sequences:
                shared = min(len(seq_a), len(seq_b))
                assert seq_a[:shared] == seq_b[:shared], (
                    f"divergent delivery under {params}: {seq_a} vs {seq_b}"
                )
        # Integrity: delivered values were proposed; no duplicates.
        for seq in sequences:
            values = [value for _, value in seq]
            assert len(set(values)) == len(values), f"duplicate delivery: {values}"
            assert set(values) <= set(proposed)
            instances = [instance for instance, _ in seq]
            assert instances == sorted(instances)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16))
    def test_liveness_on_reliable_links(self, seed):
        """On quasi-reliable links (the paper's model) everything
        proposed is delivered everywhere.  Order across *different*
        proposers is whatever the leader saw (a forwarded proposal takes
        one extra hop), but all members agree on it exactly."""
        params = {
            "seed": seed,
            "loss": 0.0,
            "crash_member": None,
            "crash_after": 1.0,
            "num_values": 6,
            "static_leader": True,
        }
        delivered, proposed, _ = run_chaos(params)
        reference = [value for _, value in delivered["a"]]
        assert sorted(reference) == sorted(proposed)
        for member in MEMBERS:
            assert [value for _, value in delivered[member]] == reference

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(params=cut_heal_strategy)
    def test_forgetting_under_cut_and_heal(self, params):
        """No replica forgets an instance some member has not delivered
        (checked at every ``forget_below``), whatever links are cut; once
        all heal, every value is delivered everywhere in one order and
        every log is back to a short suffix (PROTOCOL.md §4)."""
        with patch.multiple(
            replica_module, ACCEPT_RETRY=0.3, CATCHUP_INTERVAL=0.3, COMMIT_INDEX_INTERVAL=0.3
        ):
            self._forgetting_under_cut_and_heal(params)

    @staticmethod
    def _forgetting_under_cut_and_heal(params):
        world = SimWorld(seed=params["seed"])
        delivered = {member: [] for member in MEMBERS}
        replicas = {}
        config = PaxosConfig(static_leader="a")
        for member in MEMBERS:
            runtime = world.runtime_for(member)
            replica = PaxosReplica(
                runtime, "g", MEMBERS, config,
                on_deliver=lambda i, v, m=member: delivered[m].append((i, v)),
            )
            runtime.listen(lambda src, msg, r=replica: r.handle(src, msg))
            replicas[member] = replica

        def checked(floor, log, inner):
            lowest = min(r.log.next_to_deliver for r in replicas.values())
            assert min(floor, log.next_to_deliver) <= lowest, (floor, lowest, params)
            inner(floor)

        for replica in replicas.values():
            log = replica.log
            log.forget_below = lambda floor, log=log, inner=log.forget_below: checked(
                floor, log, inner
            )
            replica.start()
        world.run(until=0.5)
        proposed = []
        for kind, arg in params["steps"]:
            if kind == "cut":
                world.network.cut_link(*arg)
            elif kind == "heal":
                world.network.heal_link(*arg)
            else:
                for _ in range(arg):
                    proposed.append(f"v{len(proposed)}")
                    replicas["a"].propose(proposed[-1])
                    world.run_for(0.0)
            world.run(until=world.now + 0.2)
        for a, b in LINKS:
            world.network.heal_link(a, b)
        world.run(until=world.now + 3.0)
        for _ in range(3):  # fresh reports from every member
            proposed.append(f"v{len(proposed)}")
            replicas["a"].propose(proposed[-1])
            world.run(until=world.now + 0.1)
        world.run(until=world.now + 3.0)
        expected = [value for _, value in delivered["a"]]
        assert sorted(expected) == sorted(proposed), params
        assert all(delivered[m] == delivered["a"] for m in MEMBERS), params
        assert all(len(r.log._instances) <= 4 for r in replicas.values()), params

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16))
    def test_lossy_links_lose_only_unforwardable_proposals(self, seed):
        """Under loss, leader-side retries recover everything the leader
        itself accepted; forwarded proposals are at-most-once (the
        documented contract — SDUR's client retries above this layer)."""
        with patch.multiple(
            replica_module, PHASE1_RETRY=0.3, ACCEPT_RETRY=0.3, CATCHUP_INTERVAL=0.3
        ):
            self._lossy_links(seed)

    @staticmethod
    def _lossy_links(seed):
        world = SimWorld(seed=seed, loss_probability=0.15)
        delivered = {member: [] for member in MEMBERS}
        replicas = {}
        for member in MEMBERS:
            runtime = world.runtime_for(member)
            config = PaxosConfig(static_leader="a")
            replica = PaxosReplica(
                runtime, "g", MEMBERS, config,
                on_deliver=lambda i, v, m=member: delivered[m].append(v),
            )
            runtime.listen(lambda src, msg, r=replica: r.handle(src, msg))
            replicas[member] = replica
        for replica in replicas.values():
            replica.start()
        world.run(until=1.0)
        for index in range(8):
            replicas["a"].propose(f"v{index}")  # proposed AT the leader
        world.run(until=20.0)
        assert delivered["a"] == [f"v{index}" for index in range(8)]
        assert delivered["b"] == delivered["a"] == delivered["c"]
