"""Push-ingest bridge: spool receiver actor → checkpointed processing.
The receiver-semantics gap test: rows pushed to the actor appear
EXACTLY ONCE in sinks across a simulated crash/resume."""

import glob
import os

import pyarrow as pa
import pytest
import ray
import ray.data

from opentelemetry_collector_ray.state.checkpoint import run_partitioned
from opentelemetry_collector_ray.state.receiver import (
    SpoolReceiverActor,
    ipc_bytes,
    push_dataset,
)
from tests.conftest import heavy_modules


def _rows(lo, hi):
    return [{"event_id": i, "val": f"v{i}"} for i in range(lo, hi)]


def test_exactly_once_across_crash_resume(tmp_path):
    spool = str(tmp_path / "spool")
    out = str(tmp_path / "out")
    actor = SpoolReceiverActor.remote(spool, max_buffer_rows=10_000)
    # three pushes, two spool files (explicit flush per micro-batch tick)
    ray.get(actor.export.remote(_rows(0, 100)))
    ray.get(actor.flush.remote())
    ray.get(actor.export.remote(_rows(100, 250)))
    ray.get(actor.export.remote(_rows(250, 300)))
    ray.get(actor.flush.remote())
    files = sorted(glob.glob(spool + "/*.parquet"))
    assert len(files) == 2

    def pipeline(paths):
        return ray.data.read_parquet(paths)

    # crash after the first newly-processed partition
    with pytest.raises(RuntimeError, match="injected crash"):
        run_partitioned(files, out, pipeline, num_partitions=4, fail_after=1)
    # resume: remaining partitions complete, no duplicates
    rep = run_partitioned(files, out, pipeline, num_partitions=4)
    assert rep["skipped"] >= 1  # the pre-crash partition was not redone
    got = sorted(
        ray.data.read_parquet(glob.glob(out + "/part-*/*.parquet")).to_pandas()["event_id"]
    )
    assert got == list(range(300))  # exactly once, nothing lost


def test_incremental_ticks_only_process_new_spool_files(tmp_path):
    spool = str(tmp_path / "spool")
    out = str(tmp_path / "out")
    actor = SpoolReceiverActor.remote(spool, max_buffer_rows=10_000)
    ray.get(actor.export.remote(_rows(0, 50)))
    ray.get(actor.flush.remote())

    def pipeline(paths):
        return ray.data.read_parquet(paths)

    run_partitioned(sorted(glob.glob(spool + "/*.parquet")), out, pipeline,
                    num_partitions=4)
    # second tick: new rows arrive
    ray.get(actor.export.remote(_rows(50, 80)))
    ray.get(actor.flush.remote())
    rep = run_partitioned(sorted(glob.glob(spool + "/*.parquet")), out,
                          pipeline, num_partitions=4)
    # only the partitions whose input set changed were reprocessed
    assert rep["processed"] <= 2 and rep["skipped"] >= 2
    got = sorted(
        ray.data.read_parquet(glob.glob(out + "/part-*/*.parquet")).to_pandas()["event_id"]
    )
    assert got == list(range(80))


def test_buffer_threshold_lands_automatically(tmp_path):
    spool = str(tmp_path / "spool")
    actor = SpoolReceiverActor.remote(spool, max_buffer_rows=100)
    ray.get(actor.export.remote(_rows(0, 60)))
    assert glob.glob(spool + "/*.parquet") == []  # below threshold
    ray.get(actor.export.remote(_rows(60, 130)))  # crosses threshold
    files = glob.glob(spool + "/*.parquet")
    assert len(files) == 1
    st = ray.get(actor.stats.remote())
    assert st["accepted"] == 130 and st["buffered_rows"] == 0


def test_receiver_restart_continues_sequence(tmp_path):
    spool = str(tmp_path / "spool")
    a1 = SpoolReceiverActor.remote(spool, max_buffer_rows=10_000)
    ray.get(a1.export.remote(_rows(0, 10)))
    ray.get(a1.flush.remote())
    ray.kill(a1)
    # torn tmp from a crashed incarnation must be cleaned on restart
    open(os.path.join(spool, ".tmp-r0-99"), "w").write("torn")
    a2 = SpoolReceiverActor.remote(spool, max_buffer_rows=10_000)
    ray.get(a2.export.remote(_rows(10, 20)))
    ray.get(a2.flush.remote())
    files = sorted(os.path.basename(f) for f in glob.glob(spool + "/*.parquet"))
    assert files == ["r0-00000000.parquet", "r0-00000001.parquet"]
    assert not glob.glob(spool + "/.tmp-*")


def test_push_dataset_streams_batches(tmp_path):
    spool = str(tmp_path / "spool")
    actor = SpoolReceiverActor.remote(spool, max_buffer_rows=500)
    ds = ray.data.from_arrow(
        pa.table({"event_id": list(range(2000)), "v": ["x"] * 2000})
    )
    n = push_dataset(ds, actor, rows_per_push=256)
    assert n == 2000
    ray.get(actor.flush.remote())
    got = ray.data.read_parquet(glob.glob(spool + "/*.parquet")).count()
    assert got == 2000


def test_durable_export_acks_after_landing(tmp_path):
    """durable=True = the reference's ack-after-acceptance contract:
    the spool file exists the moment the ack returns, even far below
    the buffer threshold — a crash right after the ack loses nothing."""
    spool = str(tmp_path / "spool")
    actor = SpoolReceiverActor.remote(spool, max_buffer_rows=10_000)
    ray.get(actor.export.remote(_rows(0, 5), True))
    files = glob.glob(spool + "/*.parquet")
    assert len(files) == 1
    got = ray.data.read_parquet(files).count()
    assert got == 5
    stats = ray.get(actor.stats.remote())
    assert stats["buffered_rows"] == 0 and stats["landed_files"] == 1


def _footer_rows(spool):
    import pyarrow.parquet as pq

    return sum(
        pq.read_metadata(f).num_rows for f in glob.glob(spool + "/*.parquet")
    )


def _spooled_ids(spool):
    import pyarrow.parquet as pq

    files = sorted(glob.glob(spool + "/*.parquet"))
    return sorted(pq.read_table(files)["event_id"].to_pylist()) if files else []


def test_open_segment_holds_every_acked_row(tmp_path):
    """Each durable 256-row ack republishes the open segment: after
    every ack the footers on disk count exactly the rows acked so far,
    nothing stays buffered, and stats names the one (open) segment."""
    spool = str(tmp_path / "spool")
    actor = SpoolReceiverActor.remote(spool)
    for k in range(1, 6):
        acked = ray.get(actor.export.remote(_rows(256 * (k - 1), 256 * k), True))
        assert acked == 256 * k == _footer_rows(spool)
        st = ray.get(actor.stats.remote())
        assert st["buffered_rows"] == 0
        assert glob.glob(spool + "/*.parquet") == [st["open_segment"]]
    assert _spooled_ids(spool) == list(range(256 * 5))
    assert not glob.glob(spool + "/.tmp-*")


def test_segment_seals_at_segment_rows(tmp_path):
    """SEGMENT_ROWS // 256 + 1 exports of 256 rows fill one segment,
    seal it and open a second: two files, the sealed one full."""
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.state.receiver import SEGMENT_ROWS

    spool = str(tmp_path / "spool")
    actor = SpoolReceiverActor.remote(spool)
    n = SEGMENT_ROWS // 256 + 1
    for k in range(n):
        ray.get(actor.export.remote(_rows(256 * k, 256 * (k + 1)), True))
    files = sorted(glob.glob(spool + "/*.parquet"))
    assert [os.path.basename(f) for f in files] == [
        "r0-00000000.parquet", "r0-00000001.parquet"
    ]
    assert pq.read_metadata(files[0]).num_rows == SEGMENT_ROWS
    st = ray.get(actor.stats.remote())
    assert st["open_segment"] == files[1] and st["landed_files"] == 2
    assert _spooled_ids(spool) == list(range(256 * n))


def test_consumed_open_segment_is_not_resurrected(tmp_path):
    """A consumer that deletes (or replaces) the open segment between
    acks: the next durable export starts a fresh segment holding only
    its own rows — the consumed rows never come back."""
    import pyarrow.parquet as pq

    spool = str(tmp_path / "spool")
    actor = SpoolReceiverActor.remote(spool)
    ray.get(actor.export.remote(_rows(0, 100), True))
    first = ray.get(actor.stats.remote())["open_segment"]
    os.unlink(first)  # drained and deleted
    ray.get(actor.export.remote(_rows(100, 150), True))
    assert not os.path.exists(first)
    assert _spooled_ids(spool) == list(range(100, 150))

    second = ray.get(actor.stats.remote())["open_segment"]
    assert second != first
    # replaced by a different file under the same name (new inode)
    pq.write_table(pa.table({"event_id": [-1], "val": ["x"]}), second + ".x")
    os.replace(second + ".x", second)
    ray.get(actor.export.remote(_rows(150, 160), True))
    assert _spooled_ids(spool) == [-1] + list(range(150, 160))
    assert ray.get(actor.stats.remote())["accepted"] == 160


def test_kill_after_durable_ack_loses_and_duplicates_nothing(tmp_path):
    """ray.kill right after a durable ack, then a restart: the last
    published version of the open segment holds every acked row, the
    new incarnation continues in a new segment, and a torn tmp left by
    the dead one is cleaned."""
    spool = str(tmp_path / "spool")
    a1 = SpoolReceiverActor.remote(spool)
    for k in range(3):
        ray.get(a1.export.remote(_rows(100 * k, 100 * (k + 1)), True))
    ray.kill(a1)
    open(os.path.join(spool, ".tmp-r0-0"), "w").write("torn")
    assert _spooled_ids(spool) == list(range(300))
    a2 = SpoolReceiverActor.remote(spool)
    ray.get(a2.export.remote(_rows(300, 350), True))
    assert _spooled_ids(spool) == list(range(350))
    names = sorted(os.listdir(spool))
    assert names == ["r0-00000000.parquet", "r0-00000001.parquet"]


def test_durable_export_publishes_earlier_buffered_rows(tmp_path):
    """A non-durable export followed by a durable one: the durable ack
    publishes both (the buffered rows share the open segment)."""
    spool = str(tmp_path / "spool")
    actor = SpoolReceiverActor.remote(spool, max_buffer_rows=10_000)
    ray.get(actor.export.remote(_rows(0, 40)))
    assert _footer_rows(spool) == 0
    assert ray.get(actor.stats.remote())["buffered_rows"] == 40
    ray.get(actor.export.remote(_rows(40, 60), True))
    assert _spooled_ids(spool) == list(range(60))
    assert ray.get(actor.stats.remote())["buffered_rows"] == 0


def test_durable_publish_order(tmp_path, monkeypatch):
    """Every durable ack follows: tmp written, tmp fsynced, renamed over
    the segment, spool directory fsynced — in that order."""
    from opentelemetry_collector_ray.state import receiver

    spool = str(tmp_path / "spool")
    rec = receiver.SpoolReceiverActor.__ray_actor_class__(spool)
    log = []
    real_fsync, real_rename = os.fsync, os.rename

    def fsync(fd):
        log.append(("fsync", os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))))
        real_fsync(fd)

    def rename(src, dst):
        log.append(("rename", os.path.basename(src), os.path.basename(dst)))
        real_rename(src, dst)

    monkeypatch.setattr(receiver.os, "fsync", fsync)
    monkeypatch.setattr(receiver.os, "rename", rename)
    for k in range(2):
        log.clear()
        rec.export_table(pa.table({"event_id": [k]}), durable=True)
        assert log == [
            ("fsync", ".tmp-r0-0"),
            ("rename", ".tmp-r0-0", "r0-00000000.parquet"),
            ("fsync", "spool"),
        ]


def test_restart_keeps_a_sibling_receivers_files(tmp_path):
    """Receivers "r0" and "r0-b" share a spool directory: r0's start
    deletes only its own torn tmp file, keeps r0-b's in-flight stage and
    segments, and continues at its own max(seq) + 1."""
    import pyarrow.parquet as pq

    spool = tmp_path / "spool"
    spool.mkdir()
    for name in ("r0-00000004.parquet", "r0-b-00000009.parquet"):
        pq.write_table(pa.table({"event_id": [1]}), spool / name)
    (spool / ".tmp-r0-7").write_text("torn")
    (spool / ".tmp-r0-b-3").write_text("in flight")
    rec = SpoolReceiverActor.__ray_actor_class__(str(spool), receiver_id="r0")
    assert sorted(os.listdir(spool)) == [
        ".tmp-r0-b-3", "r0-00000004.parquet", "r0-b-00000009.parquet",
    ]
    assert rec.seq == 5
    rec.export_table(pa.table({"event_id": [2]}), durable=True)
    assert (spool / "r0-00000005.parquet").exists()
    assert (spool / ".tmp-r0-b-3").read_text() == "in flight"


def test_push_dataset_keeps_the_receiver_lean(tmp_path):
    """Rows cross into the actor as IPC bytes, so its process never
    loads Ray Data, pandas or ray.air: rebuilding a pickled ``pa.Table``
    there imports all three."""
    actor = SpoolReceiverActor.remote(str(tmp_path / "spool"))
    assert heavy_modules(actor) == []
    ds = ray.data.from_arrow(pa.table({"event_id": list(range(600))}))
    assert push_dataset(ds, actor, rows_per_push=256) == 600
    ray.get(actor.flush.remote())
    assert ray.get(actor.stats.remote())["accepted"] == 600
    assert heavy_modules(actor) == []


def test_counter_and_suppression_actors_stay_lean():
    from opentelemetry_collector_ray.state.metrics import MetricsActor
    from opentelemetry_collector_ray.state.tailer import SuppressionActor

    counters = MetricsActor.remote()
    ray.get(counters.add_many.remote({"processor/parse/accepted_log_records": 3}))
    assert ray.get(counters.snapshot.remote())
    supp = SuppressionActor.remote()
    assert ray.get(supp.filter_fresh.remote([1, 2, 1])) == [True, True, False]
    assert heavy_modules(counters) == []
    assert heavy_modules(supp) == []


def test_hop_payload_of_a_slice_holds_only_the_slice():
    """A pickled slice can carry its parent's whole buffers (ARROW-10739);
    the IPC payload push_dataset sends holds the slice's rows only."""
    import pickle

    import numpy as np
    import pyarrow.compute as pc

    n = 1_000_000
    big = pa.table(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "val": pc.cast(pa.array(np.arange(n)), pa.string()),
        }
    )
    sent = []

    class Capture:  # stands in for the actor handle on the driver
        def __init__(self):
            self.export_table = self

        def remote(self, payload, durable=False):
            sent.append(payload)
            return ray.put(0)

    ds = ray.data.from_arrow(big).limit(3000)
    assert push_dataset(ds, Capture(), rows_per_push=1000) == 3000
    assert len(sent) == 3
    for payload in sent:
        rows = pa.ipc.open_stream(payload).read_all()
        assert len(rows) == 1000
        own = len(ipc_bytes(pa.table(rows.to_pydict())))
        assert len(pickle.dumps(payload)) < 2 * own


def test_table_and_ipc_pushes_land_identical_segments(tmp_path):
    """``export_table`` takes a Table in-process and IPC bytes through
    Ray; both land byte-identical segments."""
    t = pa.table({"event_id": list(range(300)), "val": [f"v{i}" for i in range(300)]})
    digests = []
    for kind in ("table", "ipc"):
        spool = tmp_path / kind
        rec = SpoolReceiverActor.__ray_actor_class__(str(spool))
        for lo in range(0, 300, 100):
            part = t.slice(lo, 100)
            rec.export_table(part if kind == "table" else ipc_bytes(part), durable=True)
        digests.append(
            {p.name: p.read_bytes() for p in sorted(spool.glob("*.parquet"))}
        )
    assert digests[0] == digests[1] and list(digests[0]) == ["r0-00000000.parquet"]
