"""Regression: parallel ReadMany must see one snapshot per partition.

The paper's Algorithm 1 reads sequentially, so the first read pins the
partition's snapshot before any other read is issued.  A ``ReadMany``
reads its partitions in parallel for latency.  When each key was its own
request, sibling reads of one partition could be served at different
snapshot counters if a commit landed between them (a torn batch), and
certification, which starts from the pinned ``st``, missed the
interleaved writer: non-serializable executions slipped through (found
by the end-to-end property test; see DESIGN.md).  A partition's keys now
share one request, read at one snapshot, so the tear cannot happen;
these tests keep the property.
"""

from repro.core.client import ReadMany
from tests.conftest import make_cluster, update_program


class TestTornBatchReads:
    def test_batch_reads_are_atomic_under_racing_commits(self):
        """Writer increments (x, y) together; a reader batching both must
        never observe x != y, at any jittered interleaving."""
        cluster = make_cluster(num_partitions=1, seed=31, jitter_fraction=0.5)
        cluster.seed({"0/x": 0, "0/y": 0})
        writer = cluster.add_client()
        reader = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)

        observations = []
        writes_done = [0]

        def keep_writing(result=None):
            if writes_done[0] < 60:
                writes_done[0] += 1
                writer.execute(update_program(["0/x", "0/y"]), keep_writing)

        def audit(txn):
            values = yield ReadMany(("0/x", "0/y"))
            observations.append((values["0/x"] or 0, values["0/y"] or 0))

        def keep_reading(result=None):
            if len(observations) < 80:
                reader.execute(audit, keep_reading, read_only=True)

        keep_writing()
        keep_reading()
        cluster.world.run_for(30.0)
        assert len(observations) >= 40
        torn = [(x, y) for x, y in observations if x != y]
        assert not torn, f"torn batch reads observed: {torn[:5]}"

    def test_same_snapshot_versions_within_partition(self):
        """Every committed transaction's recorded reads from one partition
        must be mutually consistent: no read may return a version above
        another read's snapshot of the same partition."""
        cluster = make_cluster(num_partitions=2, seed=32, jitter_fraction=0.5)
        clients = [cluster.add_client() for _ in range(3)]
        cluster.start()
        recorder = cluster.attach_recorder()
        cluster.world.run_for(0.5)
        rng = cluster.world.rng.stream("torn")
        done = []
        issued = [0]

        def issue(client):
            issued[0] += 1
            home = rng.randrange(2)
            keys = sorted({f"{home}/k{rng.randrange(3)}", f"{home}/k{rng.randrange(3)}"})

            def on_done(result):
                done.append(result)
                if issued[0] < 45:
                    issue(client)

            client.execute(update_program(keys), on_done)

        for client in clients:
            issue(client)
        cluster.world.run_for(60.0)
        for result in done:
            recorder.record_result(result)
        from repro.checker.serializability import check_serializability

        check_serializability(recorder).raise_if_failed()
