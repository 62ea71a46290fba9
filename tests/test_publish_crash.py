"""Crash injection at every step of ``wirefs.publish`` (the ALICE method:
Pillai et al., "All File Systems Are Not Created Equal", OSDI 2014).

A child process runs one engine write — a sink write
(``atomic_write_parquet`` through ``write_sinks``), a checkpointed
partition (``run_partitioned``) or a durable receiver export — and
SIGKILLs itself at one step boundary of a publish. The steps are
found by wrapping ``os.rename`` and ``os.fsync`` inside the child
only, for paths under the test directory:

- ``staged``: the stage is fsynced, nothing is renamed yet;
- ``aside``: the live directory has moved to ``.old-`` (sink only, the
  one publish that replaces a directory);
- ``renamed``: the stage is renamed into place, the parent is not yet
  fsynced;
- ``synced``: the parent is fsynced; the old copy (if any) is not yet
  deleted and the caller has not yet acked or ledgered.

The parent process then checks what a restart sees: a sink holds the
old or the new output, never a mix; every ledgered partition is
complete and a resume equals an uninterrupted run; acked rows are
drained exactly once.
"""

import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from opentelemetry_collector_ray.sinks.writers import landed_counts, write_sinks
from opentelemetry_collector_ray.sources import wirefs
from opentelemetry_collector_ray.state.checkpoint import PartitionLedger, run_partitioned
from opentelemetry_collector_ray.state.receiver import SpoolReceiverActor

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# argv: scenario, kill point, nth publish to kill in, work dir, GCS address
CHILD = r'''
import os, signal, sys

scenario, point, nth, work, gcs = sys.argv[1:]
nth = int(nth)
published = 0
real_rename, real_fsync = os.rename, os.fsync


def die():
    os.kill(os.getpid(), signal.SIGKILL)


def rename(src, dst):
    global published
    if not dst.startswith(work):
        return real_rename(src, dst)
    if point == "staged" and published + 1 == nth:
        die()
    real_rename(src, dst)
    if point == "aside" and os.path.basename(dst).startswith(".old-"):
        die()
    if os.path.basename(src).startswith(".tmp-"):
        published += 1
        if point == "renamed" and published == nth:
            die()


def fsync(fd):
    real_fsync(fd)
    if point == "synced" and published == nth:
        die()


if scenario != "receiver":
    import ray
    import ray.data

    ray.init(address=gcs, logging_level="ERROR", log_to_driver=False)
    ray.data.DataContext.get_current().enable_progress_bars = False
os.rename, os.fsync = rename, fsync

if scenario == "sink":
    import pyarrow as pa
    from opentelemetry_collector_ray.sinks.writers import write_sinks

    names = ["a"] * 5 + ["c"] * 6
    table = pa.table({"x": list(range(len(names))), "sink": names})
    write_sinks(ray.data.from_arrow(table), os.path.join(work, "sink"))
elif scenario == "checkpoint":
    import glob
    from opentelemetry_collector_ray.state.checkpoint import run_partitioned

    inputs = sorted(glob.glob(os.path.join(work, "in", "*.parquet")))
    run_partitioned(inputs, os.path.join(work, "out"), ray.data.read_parquet,
                    num_partitions=3)
elif scenario == "receiver":
    import pyarrow as pa
    from opentelemetry_collector_ray.state.receiver import SpoolReceiverActor

    rec = SpoolReceiverActor.__ray_actor_class__(os.path.join(work, "spool"))
    for req in range(5):
        rec.export_table(pa.table({"id": [req * 10 + i for i in range(10)]}),
                         durable=True)
        print("acked", req, flush=True)
print("finished", flush=True)
'''


def _crash(scenario: str, point: str, nth: int, work) -> list[str]:
    """Run ``scenario`` in a child that kills itself at ``point`` of its
    ``nth`` publish; returns the lines it printed before dying."""
    env = {**os.environ, "PYTHONPATH": REPO}
    gcs = ray.get_runtime_context().gcs_address
    r = subprocess.run(
        [sys.executable, "-c", CHILD, scenario, point, str(nth), str(work), gcs],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r.returncode == -9, r.stderr[-2000:]
    return r.stdout.split("\n")


def _debris(d) -> list[str]:
    return [n for n in os.listdir(d) if n.startswith((".tmp-", ".old-"))]


def _sinks(names: str):
    t = pa.table({"x": list(range(len(names))), "sink": list(names)})
    return ray.data.from_arrow(t)


@pytest.mark.parametrize(
    "point, survivor",
    [("staged", "old"), ("aside", "old"), ("renamed", "new"), ("synced", "new")],
)
def test_sink_write_killed_mid_publish(tmp_path, point, survivor):
    out = str(tmp_path / "sink")
    old = write_sinks(_sinks("aaabbbb"), out)
    new = {"a": 5, "c": 6}
    _crash("sink", point, 1, tmp_path)
    if os.path.exists(out):
        assert landed_counts(out, key="sink") == (old if survivor == "old" else new)
    else:
        assert point == "aside"
    wirefs.recover(out)
    assert landed_counts(out, key="sink") == (old if survivor == "old" else new)
    assert _debris(tmp_path) == []
    # the next attempt publishes over whatever survived
    assert write_sinks(_sinks("aaaaacccccc"), out) == new
    assert _debris(tmp_path) == []


def _partition_inputs(d) -> list[str]:
    """At least six input files, spread so that each of the three
    partitions gets some (the plan hashes absolute paths)."""
    from opentelemetry_collector_ray.state.checkpoint import plan_partitions

    os.makedirs(d / "in")
    inputs: list[str] = []
    while len(inputs) < 6 or not all(plan_partitions(inputs, 3)):
        k = len(inputs)
        inputs.append(str(d / "in" / f"f{k}.parquet"))
        pq.write_table(pa.table({"id": list(range(k * 50, k * 50 + 50))}), inputs[-1])
    return inputs


def _partition_ids(out: str) -> dict[str, list[int]]:
    return {
        name: sorted(pq.read_table(os.path.join(out, name))["id"].to_pylist())
        for name in sorted(os.listdir(out))
        if name.startswith("part-")
    }


@pytest.mark.parametrize("point", ["staged", "renamed", "synced"])
def test_checkpoint_partition_killed_mid_publish(tmp_path, point):
    inputs = _partition_inputs(tmp_path)
    ref, out = str(tmp_path / "ref"), str(tmp_path / "out")
    run_partitioned(inputs, ref, ray.data.read_parquet, num_partitions=3)
    _crash("checkpoint", point, 2, tmp_path)
    done = PartitionLedger(out).completed()
    assert len(done) == 1  # the kill came inside the second publish
    for pid, entry in done.items():
        assert landed_counts(os.path.join(out, f"part-{pid}")) == entry.rows > 0
    res = run_partitioned(inputs, out, ray.data.read_parquet, num_partitions=3)
    assert res["skipped"] == 1 and res["processed"] == 2
    assert _partition_ids(out) == _partition_ids(ref)
    assert _debris(out) == []


@pytest.mark.parametrize("point", ["staged", "renamed", "synced"])
def test_receiver_killed_mid_durable_export(tmp_path, point):
    spool = str(tmp_path / "spool")
    lines = _crash("receiver", point, 3, tmp_path)
    acked = [int(ln.split()[1]) for ln in lines if ln.startswith("acked")]
    assert acked == [0, 1]  # the third export died before its ack
    # restart: the new incarnation cleans the torn stage and lands in a
    # new segment
    rec = SpoolReceiverActor.__ray_actor_class__(spool)
    assert _debris(spool) == []
    rec.export_table(pa.table({"id": list(range(100, 110))}), durable=True)
    acked_ids = list(range(20)) + list(range(100, 110))
    out = str(tmp_path / "drained")
    inputs = sorted(os.path.join(spool, n) for n in os.listdir(spool))
    run_partitioned(inputs, out, ray.data.read_parquet, num_partitions=2)
    ids = [i for part in _partition_ids(out).values() for i in part]
    assert sorted(ids) == sorted(set(ids))  # nothing lands twice
    assert set(acked_ids) <= set(ids)
    # the unacked third export is on disk only once its rename ran
    unacked = set(range(20, 30))
    assert set(ids) - set(acked_ids) == (set() if point == "staged" else unacked)
