"""Checkpoint/resume tests — the persistent-queue crash-recovery
semantics (persistent_storage.go:282-348) restated for partitions:
kill after k of P partitions, resume, final output equals an
uninterrupted run, completed partitions are not reprocessed."""

import os

import pandas as pd
import pytest

from opentelemetry_collector_ray.fixtures import write_transcript_corpus
from opentelemetry_collector_ray.state.checkpoint import (
    PartitionLedger,
    plan_partitions,
    run_partitioned,
)


def _pipeline(files):
    from opentelemetry_collector_ray.sources.transcripts import read_transcripts
    from opentelemetry_collector_ray.stages.enrich import enrich_batch
    from opentelemetry_collector_ray.stages.parse import parse_batch
    from opentelemetry_collector_ray.stages.route import explode_sinks_batch

    ds = read_transcripts(files)
    ds = ds.map_batches(parse_batch, batch_format="pyarrow")
    ds = ds.map_batches(enrich_batch, batch_format="pyarrow")
    return ds.map_batches(explode_sinks_batch, batch_format="pyarrow")


def _read_all(out_dir) -> pd.DataFrame:
    import ray.data

    import glob

    files = sorted(glob.glob(os.path.join(out_dir, "part-*", "*.parquet")))
    df = ray.data.read_parquet(files).to_pandas()
    return df.sort_values(["sink", "conv_id", "turn_idx"], kind="mergesort").reset_index(
        drop=True
    )[sorted(df.columns)]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("ckpt_corpus")
    write_transcript_corpus(str(d), 200, files=8)
    return [str(d / f) for f in sorted(os.listdir(d))]


def test_plan_partitions_deterministic(corpus):
    a = plan_partitions(corpus, 4)
    b = plan_partitions(list(reversed(corpus)), 4)
    assert a == b
    assert sum(len(p) for p in a) == len(corpus)


def test_crash_resume_equals_uninterrupted(corpus, tmp_path):
    out_a = str(tmp_path / "uninterrupted")
    out_b = str(tmp_path / "resumed")

    res_a = run_partitioned(corpus, out_a, _pipeline, num_partitions=4)
    assert res_a["processed"] == 4

    # crash after 2 partitions
    with pytest.raises(RuntimeError, match="injected crash"):
        run_partitioned(corpus, out_b, _pipeline, num_partitions=4, fail_after=2)
    done_before = set(PartitionLedger(out_b).completed())
    assert len(done_before) == 2

    # remember mtimes of completed outputs — resume must not rewrite them
    mtimes = {
        pid: os.path.getmtime(os.path.join(out_b, f"part-{pid}"))
        for pid in done_before
    }

    res_b = run_partitioned(corpus, out_b, _pipeline, num_partitions=4)
    assert res_b["skipped"] == 2 and res_b["processed"] == 2
    for pid, mt in mtimes.items():
        assert os.path.getmtime(os.path.join(out_b, f"part-{pid}")) == mt

    pd.testing.assert_frame_equal(_read_all(out_a), _read_all(out_b))
    assert res_b["total_rows"] == res_a["total_rows"]


def test_incremental_ingestion_reprocesses_only_changed(corpus, tmp_path):
    """New shards land → only partitions whose input set changed redo
    work; final output equals a from-scratch run over the full corpus."""
    from opentelemetry_collector_ray.fixtures import _write_shard

    out = str(tmp_path / "incr")
    run_partitioned(corpus, out, _pipeline, num_partitions=4)

    # a new shard arrives (disjoint conv range continues the corpus)
    new_file = _write_shard(str(tmp_path), 99, 200, 25)
    full = corpus + [new_file]

    res = run_partitioned(full, out, _pipeline, num_partitions=4)
    from opentelemetry_collector_ray.state.checkpoint import plan_partitions

    changed = {
        pid
        for pid, files in enumerate(plan_partitions(full, 4))
        if new_file in files
    }
    assert res["processed"] == len(changed)
    assert res["skipped"] == 4 - len(changed)

    out_fresh = str(tmp_path / "fresh")
    run_partitioned(full, out_fresh, _pipeline, num_partitions=4)
    pd.testing.assert_frame_equal(_read_all(out), _read_all(out_fresh))


def test_rewritten_shard_triggers_drift(corpus, tmp_path):
    """A shard re-delivered under the SAME name (different size) must
    reprocess its partition — basename identity alone would skip it."""
    import shutil

    src_dir = str(tmp_path / "src")
    import os

    os.makedirs(src_dir)
    files = []
    for f in corpus[:4]:
        dst = os.path.join(src_dir, os.path.basename(f))
        shutil.copy(f, dst)
        files.append(dst)
    out = str(tmp_path / "drift")
    run_partitioned(files, out, _pipeline, num_partitions=2)

    # rewrite one shard in place with different content (size changes)
    from opentelemetry_collector_ray.fixtures import gen_transcripts
    import pyarrow.parquet as pq

    pq.write_table(gen_transcripts(10), files[0])
    res = run_partitioned(files, out, _pipeline, num_partitions=2)
    assert res["processed"] >= 1  # the rewritten shard's partition redid work
    from opentelemetry_collector_ray.state.checkpoint import plan_partitions

    changed = {
        pid
        for pid, fs in enumerate(plan_partitions(files, 2))
        if files[0] in fs
    }
    assert res["processed"] == len(changed)


def test_input_rewritten_during_partition_reprocesses(tmp_path):
    """The ledger records the inputs' keys as they were BEFORE the
    partition ran. An input that grows while its partition is being
    processed (an open spool segment republished mid-drain) drifts on
    the next run; its new rows land exactly once."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(pa.table({"event_id": list(range(10))}), a)
    pq.write_table(pa.table({"event_id": list(range(10, 20))}), b)
    grown = pa.table({"event_id": list(range(10)) + list(range(100, 105))})
    rewrites = []

    def pipeline(paths):
        ds = ray.data.read_parquet(paths).materialize()
        if not rewrites:  # grows once, after its old content was read
            pq.write_table(grown, a + ".tmp")
            os.replace(a + ".tmp", a)
            rewrites.append(a)
        return ds

    out = str(tmp_path / "out")
    first = run_partitioned([a, b], out, pipeline, num_partitions=1)
    assert rewrites and first["total_rows"] == 20
    res = run_partitioned([a, b], out, pipeline, num_partitions=1)
    assert res["processed"] == 1 and res["total_rows"] == 25
    got = ray.data.read_parquet(glob.glob(out + "/part-*/*.parquet"))
    want = list(range(20)) + list(range(100, 105))
    assert sorted(got.to_pandas()["event_id"]) == want


def test_retry_predicate_matches_distributed_io_failures():
    """OSErrors raised inside Ray tasks arrive wrapped (RayTaskError);
    the checkpoint retry predicate must still classify them retryable —
    and still refuse user-code errors."""
    import ray

    from opentelemetry_collector_ray.state.checkpoint import _is_io_failure

    @ray.remote
    def io_boom():
        raise OSError("disk gone")

    @ray.remote
    def user_boom():
        raise ValueError("user bug")

    with pytest.raises(Exception) as ei:
        ray.get(io_boom.remote())
    assert _is_io_failure(ei.value)
    with pytest.raises(Exception) as eu:
        ray.get(user_boom.remote())
    assert not _is_io_failure(eu.value)
    assert _is_io_failure(OSError("local"))
    assert not _is_io_failure(RuntimeError("other"))


def test_same_basename_different_dirs_distinct_identity(tmp_path):
    """Ledger identity must distinguish same-named shards in different
    directories (basename-only keys collide them into one identity)."""
    from opentelemetry_collector_ray.state.checkpoint import _input_key

    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    (a_dir / "shard.parquet").write_bytes(b"xx")
    (b_dir / "shard.parquet").write_bytes(b"xx")
    assert _input_key(str(a_dir / "shard.parquet")) != _input_key(
        str(b_dir / "shard.parquet")
    )


def test_same_size_rewrite_drifts(tmp_path):
    """An in-place rewrite that keeps the byte size must still change
    the ledger identity (mtime component)."""
    import time

    from opentelemetry_collector_ray.state.checkpoint import _input_key

    p = tmp_path / "f.parquet"
    p.write_bytes(b"abcd")
    k1 = _input_key(str(p))
    time.sleep(0.01)
    p.write_bytes(b"dcba")  # same size, new content
    assert _input_key(str(p)) != k1


def test_torn_write_is_reprocessed(corpus, tmp_path):
    out = str(tmp_path / "torn")
    run_partitioned(corpus, out, _pipeline, num_partitions=2)
    # simulate a torn write: partition dir exists, ledger lost its entry
    ledger = PartitionLedger(out)
    entries = list(ledger.completed().values())
    with open(ledger.path, "w") as f:
        for e in entries[:-1]:
            import json

            f.write(json.dumps(e.__dict__) + "\n")
    res = run_partitioned(corpus, out, _pipeline, num_partitions=2)
    assert res["processed"] == 1 and res["skipped"] == 1
    assert len(PartitionLedger(out).completed()) == 2


def test_torn_ledger_line_reprocesses_that_partition(corpus, tmp_path):
    """A ledger append cut short (a full disk, a power loss before its
    fsync) leaves a partial last line. The resume treats it as not
    completed, reprocesses that partition, starts its own record on a
    fresh line, and ends equal to an uninterrupted run."""
    out_a = str(tmp_path / "uninterrupted")
    out_b = str(tmp_path / "torn")
    res_a = run_partitioned(corpus, out_a, _pipeline, num_partitions=4)
    run_partitioned(corpus, out_b, _pipeline, num_partitions=4)
    ledger = PartitionLedger(out_b)
    with open(ledger.path, "rb") as f:
        lines = f.read().splitlines(keepends=True)
    torn = lines[-1][: len(lines[-1]) // 2]
    with open(ledger.path, "wb") as f:
        f.write(b"".join(lines[:-1]) + torn)
    assert len(ledger.completed()) == 3

    res_b = run_partitioned(corpus, out_b, _pipeline, num_partitions=4)
    assert res_b["processed"] == 1 and res_b["skipped"] == 3
    assert open(ledger.path, "rb").read().splitlines()[-2] == torn
    assert len(ledger.completed()) == 4
    pd.testing.assert_frame_equal(_read_all(out_a), _read_all(out_b))
    assert res_b["total_rows"] == res_a["total_rows"]
    res_c = run_partitioned(corpus, out_b, _pipeline, num_partitions=4)
    assert res_c["processed"] == 0 and res_c["skipped"] == 4


def test_tailer_micro_batches(corpus, tmp_path):
    """Scraper-controller analogue: files land across ticks; every tick
    processes only changed partitions; final output equals one-shot."""
    import os
    import shutil

    from opentelemetry_collector_ray.state.tailer import tail_run

    src = str(tmp_path / "landing")
    os.makedirs(src)
    # first batch of shards present before the loop starts
    for f in corpus[:4]:
        shutil.copy(f, os.path.join(src, os.path.basename(f)))

    stop = str(tmp_path / "STOP")
    ticks = {"n": 0}

    def fake_sleep(_):
        # second wave lands after tick 1; stop after it
        ticks["n"] += 1
        if ticks["n"] == 1:
            for f in corpus[4:]:
                shutil.copy(f, os.path.join(src, os.path.basename(f)))
            open(stop, "w").write("")

    out = str(tmp_path / "tail_out")
    stats = tail_run(
        f"{src}/*.parquet",
        out,
        _pipeline,
        num_partitions=4,
        poll_interval=0.01,
        stop_file=stop,
        sleep=fake_sleep,
    )
    assert stats["ticks"] == 2

    oneshot = str(tmp_path / "oneshot")
    run_partitioned(
        [os.path.join(src, f) for f in sorted(os.listdir(src))],
        oneshot,
        _pipeline,
        num_partitions=4,
    )
    pd.testing.assert_frame_equal(_read_all(out), _read_all(oneshot))


def test_checkpoint_ledger_query_resume_proof():
    import __ray_entry__ as em

    out = em.queries()["checkpoint_ledger"]("/root/testdata/sf0.001")
    assert out["second_run_skipped"].all()  # rerun skipped every partition
    import pyarrow.parquet as pq

    n = pq.read_metadata("/root/testdata/sf0.001/events.parquet").num_rows
    assert out["rows"].sum() == n  # partitions cover the corpus exactly


def test_suppression_actor_dedups_across_micro_batches():
    """Streaming logdedup: duplicates suppress across ticks within the
    TTL window and re-emit after eviction."""
    import pyarrow as pa

    from opentelemetry_collector_ray.state.tailer import (
        SuppressionActor,
        suppress_batch,
    )

    actor = SuppressionActor.remote(ttl_ticks=1)
    t1 = pa.table({"text": ["a", "b", "a"]})  # in-batch dup suppresses
    import ray

    ray.get(actor.advance.remote())
    out1 = suppress_batch(t1, actor)
    assert out1["text"].to_pylist() == ["a", "b"]

    ray.get(actor.advance.remote())  # tick 2: within TTL
    out2 = suppress_batch(pa.table({"text": ["a", "c"]}), actor)
    assert out2["text"].to_pylist() == ["c"]

    # ticks 3 and 4: 'a' (last seen tick 1) falls out of TTL=1 window
    ray.get(actor.advance.remote())
    ray.get(actor.advance.remote())
    out3 = suppress_batch(pa.table({"text": ["a"]}), actor)
    assert out3["text"].to_pylist() == ["a"]


def test_task_retry_heals_transient_stage_failure(tmp_path):
    """Fault tolerance claim made concrete: a stage that fails its
    first invocation in each worker process (a transient error) is
    healed by Ray task retries — the pipeline completes with correct,
    complete output and no duplicates."""
    import os

    import pyarrow as pa
    import ray.data

    marker_dir = str(tmp_path / "markers")
    os.makedirs(marker_dir, exist_ok=True)

    def flaky_once(t: pa.Table) -> pa.Table:
        # one crash per worker process, then permanently healthy —
        # models a transient I/O / OOM-kill style failure
        marker = os.path.join(marker_dir, f"pid-{os.getpid()}")
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("x")
            raise OSError("injected transient failure")
        return t

    # retry_exceptions is the knob: user-code exceptions are NOT
    # retried by default (only worker/system failures are) — transient
    # error classes must be declared, mirroring the reference's
    # retryable-code classification (otlpexporter processError)
    ds = ray.data.range(1000, override_num_blocks=8).map_batches(
        flaky_once,
        batch_format="pyarrow",
        retry_exceptions=[OSError],
        max_retries=3,
    )
    out = sorted(r["id"] for r in ds.take_all())
    assert out == list(range(1000))  # complete, no dups, no loss
