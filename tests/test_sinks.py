import os

import pytest
import ray.data

from opentelemetry_collector_ray.sinks.writers import (
    atomic_write_parquet,
    logging_sink,
)


def test_atomic_write_and_rewrite(tmp_path):
    out = str(tmp_path / "sink")
    ds = ray.data.range(100)
    assert atomic_write_parquet(ds, out) == 100
    # idempotent rewrite (the retry path): same final state
    assert atomic_write_parquet(ds, out) == 100
    assert ray.data.read_parquet(out).count() == 100
    assert not [d for d in os.listdir(tmp_path) if d.startswith(".tmp-")]


def test_atomic_write_recovers_mid_swap_crash(tmp_path):
    """The swap is two renames; a crash between them leaves out_dir
    absent and the previous good data in .old-*. The next attempt (from
    ANY pid) must rename the old data back, then proceed — never strand
    it or leave the sink path missing."""
    out = str(tmp_path / "sink")
    atomic_write_parquet(ray.data.range(100), out)
    # simulate a crash between the two renames, by a FOREIGN pid
    os.rename(out, str(tmp_path / ".old-sink-99999"))
    # also drop foreign-pid tmp debris from a crashed mid-write attempt
    os.makedirs(str(tmp_path / ".tmp-sink-99998"))
    assert atomic_write_parquet(ray.data.range(50), out) == 50
    assert ray.data.read_parquet(out).count() == 50
    debris = [d for d in os.listdir(tmp_path) if d.startswith((".tmp-", ".old-"))]
    assert debris == []


def test_atomic_write_recovery_alone_restores_old(tmp_path):
    """Recovery with no rewrite: a reader hitting the crash window's
    aftermath sees the previous complete data once recovery runs."""
    from opentelemetry_collector_ray.sources import wirefs

    out = str(tmp_path / "sink")
    atomic_write_parquet(ray.data.range(7), out)
    os.rename(out, str(tmp_path / ".old-sink-424242"))
    wirefs.recover(out)
    assert ray.data.read_parquet(out).count() == 7


def test_write_never_takes_a_sibling_prefix_sinks_debris(tmp_path):
    """A crash between the publish renames of ``logs-archive`` strands
    its data in ``.old-logs-archive-…``. A later write of ``logs`` — here
    one that fails — must neither take that copy as its own previous
    generation nor delete it: the archive's recovery puts it back."""
    from opentelemetry_collector_ray.sinks.writers import landed_counts
    from opentelemetry_collector_ray.sources import wirefs

    logs, archive = str(tmp_path / "logs"), str(tmp_path / "logs-archive")
    atomic_write_parquet(ray.data.range(3), archive)
    os.rename(archive, str(tmp_path / ".old-logs-archive-123-abcdef01"))

    def boom(batch):
        raise ValueError("write failed")

    with pytest.raises(Exception, match="write failed"):
        atomic_write_parquet(ray.data.range(5).map_batches(boom), logs)
    assert not os.path.exists(logs)
    wirefs.recover(archive)
    assert landed_counts(archive) == 3


def test_logging_sink_counts_and_samples():
    ds = ray.data.range(1000)
    rep = logging_sink(ds, sample=3, name="dbg")
    assert rep["records"] == 1000
    assert len(rep["sample"]) == 3


def test_compact_parquet_dir(tmp_path):
    import glob as _glob

    import pandas as pd
    import ray.data

    from opentelemetry_collector_ray.sinks.writers import compact_parquet_dir

    d = str(tmp_path / "sink")
    df = pd.DataFrame({"x": range(1000), "y": ["v"] * 1000})
    # fragment: 20 files of 50 rows
    ray.data.from_pandas(df).repartition(20).write_parquet(d)
    assert len(_glob.glob(f"{d}/*.parquet")) >= 10
    rep = compact_parquet_dir(d, min_rows_per_file=1000)
    assert rep["rows"] == 1000
    assert rep["files_after"] < rep["files_before"]
    back = ray.data.read_parquet(d).to_pandas().sort_values("x")
    assert back["x"].tolist() == list(range(1000))


def test_compact_preserves_hive_partitions(tmp_path):
    import glob as _glob
    import os

    import pandas as pd
    import ray.data

    from opentelemetry_collector_ray.sinks.writers import compact_parquet_dir

    d = str(tmp_path / "routed")
    df = pd.DataFrame(
        {"x": range(100), "sink": (["a"] * 50 + ["b"] * 50)}
    )
    ray.data.from_pandas(df).repartition(10).write_parquet(
        d, partition_cols=["sink"]
    )
    rep = compact_parquet_dir(d, min_rows_per_file=100)
    assert rep["rows"] == 100
    # hive layout survives compaction
    assert os.path.isdir(os.path.join(d, "sink=a"))
    assert os.path.isdir(os.path.join(d, "sink=b"))
    back = ray.data.read_parquet(d).to_pandas()
    assert sorted(back["x"]) == list(range(100))


def test_sorted_writes_with_file_coalescing(tmp_path):
    """sortedSinkWrites + min_rows_per_file: each output file must be
    internally ordered even when several blocks coalesce per file."""
    import glob as _glob

    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.sinks.writers import write_sinks

    rng = list(range(400))
    df = pd.DataFrame(
        {
            "conv_id": [f"c{i % 7}" for i in rng],
            "turn_idx": [i % 13 for i in rng],
            "sink": ["only"] * 400,
        }
    )
    d = str(tmp_path / "s")
    write_sinks(
        ray.data.from_pandas(df).repartition(8),
        d,
        sort_within=("conv_id", "turn_idx"),
        min_rows_per_file=400,
    )
    for f in _glob.glob(f"{d}/sink=only/*.parquet"):
        t = pq.read_table(f).to_pandas()
        key = list(zip(t["conv_id"], t["turn_idx"]))
        assert key == sorted(key), f"file {f} not internally ordered"


def test_fs_sink_swap_preserves_previous_generation(ray_session, tmp_path):
    """Non-local stage+swap keeps the previous sink recoverable: a
    crash between move-aside and publish leaves .old-, which the next
    attempt restores (review finding, r4 — deleting the live sink
    before publishing would lose both generations)."""
    import pyarrow as pa
    import pyarrow.fs as pafs

    from opentelemetry_collector_ray.sinks.writers import (
        atomic_write_parquet,
    )

    sub = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    t1 = pa.table({"x": [1, 2, 3]})
    n = atomic_write_parquet(ray.data.from_arrow(t1), "sink", filesystem=sub)
    assert n == 3
    # simulate the mid-swap crash state: live sink moved aside, publish
    # never happened
    os.rename(str(tmp_path / "sink"), str(tmp_path / ".old-sink-999-dead"))
    # next attempt must first RESTORE the old generation, then replace
    t2 = pa.table({"x": [7, 8]})
    n2 = atomic_write_parquet(ray.data.from_arrow(t2), "sink", filesystem=sub)
    assert n2 == 2
    got = ray.data.read_parquet(str(tmp_path / "sink")).to_pandas()
    assert sorted(got["x"]) == [7, 8]
    # no stranded debris
    assert not [
        d for d in os.listdir(tmp_path) if d.startswith((".old-", ".tmp-"))
    ]


def test_fs_sink_recovery_restores_old_when_no_new_write(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.fs as pafs

    from opentelemetry_collector_ray.sinks.writers import (
        atomic_write_parquet,
    )

    sub = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    t1 = pa.table({"x": [1, 2, 3]})
    atomic_write_parquet(ray.data.from_arrow(t1), "sink", filesystem=sub)
    os.rename(str(tmp_path / "sink"), str(tmp_path / ".old-sink-999-dead"))
    # recovery alone: the next attempt starts by putting the old data
    # back before writing (here we just re-run the same write)
    n = atomic_write_parquet(ray.data.from_arrow(t1), "sink", filesystem=sub)
    assert n == 3


def _routed(sinks: dict) -> "ray.data.Dataset":
    """An exploded (x, sink) dataset with ``sinks[name]`` rows per sink,
    split over several blocks so each sink lands as several files."""
    import pyarrow as pa

    names = [s for s, n in sinks.items() for _ in range(n)]
    t = pa.table({"x": list(range(len(names))), "sink": names})
    return ray.data.from_arrow(t).repartition(4)


def test_landed_counts_round_trip_escaped_sink_names(tmp_path):
    """Hive directory names are URI-encoded on write; the footer counts
    give back the exact sink names (a string key: "007" is not 7)."""
    from opentelemetry_collector_ray.sinks.writers import landed_counts, write_sinks

    want = {"a b": 5, "x/y": 7, "50%": 3, "k=v": 4, "007": 2, "plain": 9}
    out = str(tmp_path / "routed")
    assert write_sinks(_routed(want), out) == want
    assert landed_counts(out, key="sink") == want
    assert landed_counts(out) == sum(want.values())


def test_empty_write_counts_zero(tmp_path):
    """Zero rows: Ray writes zero files, and the sink still publishes
    (empty) with zero counts — no crash on the missing output."""
    import pyarrow as pa

    from opentelemetry_collector_ray.sinks.writers import write_sinks

    empty = pa.table({"x": pa.array([], pa.int64()), "sink": pa.array([], pa.string())})
    out = str(tmp_path / "routed")
    assert write_sinks(ray.data.from_arrow(empty), out) == {}
    assert os.path.isdir(out)
    one = str(tmp_path / "one")
    assert atomic_write_parquet(ray.data.from_arrow(empty.select(["x"])), one) == 0
    assert os.path.isdir(one)


def test_landed_counts_skip_stranded_dirs(tmp_path):
    """``.tmp-*``/``.old-*`` debris — a crashed attempt's, next to the
    sink or inside it — never enters the counts."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.sinks.writers import landed_counts, write_sinks

    stray = pa.table({"x": list(range(100))})
    for d in (".tmp-routed-99-dead/sink=a", ".old-routed-98-dead/sink=a"):
        os.makedirs(tmp_path / d)
        pq.write_table(stray, str(tmp_path / d / "f.parquet"))
    want = {"a": 3, "b": 4}
    out = str(tmp_path / "routed")
    assert write_sinks(_routed(want), out) == want
    for d in (".tmp-routed-1-dead/sink=a", ".old-routed-2-dead/sink=b"):
        os.makedirs(tmp_path / d)
        pq.write_table(stray, str(tmp_path / d / "f.parquet"))
    for d in (".tmp-part-0-1", "_scratch"):
        os.makedirs(os.path.join(out, d))
        pq.write_table(stray, os.path.join(out, d, "f.parquet"))
    assert landed_counts(out, key="sink") == want
    assert landed_counts(out) == 7


def test_landed_counts_subtree_filesystem_matches_local(tmp_path):
    """A publish through a non-local filesystem counts the same rows
    per sink as a local one."""
    import pyarrow.fs as pafs

    from opentelemetry_collector_ray.sinks.writers import landed_counts, write_sinks

    want = {"a b": 6, "x/y": 2, "c": 11}
    local = write_sinks(_routed(want), str(tmp_path / "local"))
    sub = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    remote = write_sinks(_routed(want), "remote", filesystem=sub)
    assert local == remote == want
    assert landed_counts("remote", sub, key="sink") == want
    assert atomic_write_parquet(ray.data.range(13), "flat", filesystem=sub) == 13


def test_write_path_reads_nothing_back(tmp_path, monkeypatch):
    """Counts come from footers: the writers and the checkpointed drain
    start no ``read_parquet`` job on what they just wrote."""
    from opentelemetry_collector_ray.sinks.writers import write_sinks
    from opentelemetry_collector_ray.state.checkpoint import run_partitioned

    reads = []
    real = ray.data.read_parquet

    def spy(paths, *args, **kwargs):
        reads.append(paths)
        return real(paths, *args, **kwargs)

    monkeypatch.setattr(ray.data, "read_parquet", spy)
    assert write_sinks(_routed({"a": 2, "b": 3}), str(tmp_path / "r")) == {"a": 2, "b": 3}
    assert atomic_write_parquet(ray.data.range(5), str(tmp_path / "one")) == 5
    inputs = [str(tmp_path / f"in{i}") for i in range(3)]
    res = run_partitioned(
        inputs, str(tmp_path / "drained"),
        lambda files: ray.data.range(10 * len(files)), num_partitions=2,
    )
    assert res["total_rows"] == 30
    assert reads == []


def test_run_logs_pipeline_counters_per_call(tmp_path):
    """Counters are built on the driver, per call: two calls with one
    run_id return the same counters, each equal to that call's accepted
    and per-sink counts, and no named counter actor outlives them."""
    import uuid

    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.fixtures import write_transcript_corpus
    from opentelemetry_collector_ray.pipelines.logs import run_logs_pipeline
    from opentelemetry_collector_ray.state import metrics as m

    paths = write_transcript_corpus(str(tmp_path / "in"), 40, files=2)
    run_id = uuid.uuid4().hex[:8]
    before = set(ray.util.list_named_actors())
    out = str(tmp_path / "out")
    results = [run_logs_pipeline(paths, out, run_id=run_id) for _ in range(2)]
    assert results[0]["counters"] == results[1]["counters"]
    for res in results:
        want = {m.receiver_accepted(): res["accepted"]}
        want.update({m.exporter_sent(s): n for s, n in res["per_sink"].items()})
        assert res["counters"] == want
    assert results[0]["accepted"] == sum(pq.read_metadata(p).num_rows for p in paths)
    back = pq.read_table(out, partitioning="hive").to_pandas()
    assert results[1]["per_sink"] == {
        str(s): int(n) for s, n in back.groupby("sink", observed=True).size().items()
    }
    left = set(ray.util.list_named_actors()) - before
    assert not [a for a in left if a.startswith("otel_ray_metrics_")]


def _dictionary_page_bytes(chunk) -> int:
    """Bytes of a column chunk's dictionary page (0 without one): the
    page sits in front of the chunk's first data page."""
    if not chunk.has_dictionary_page:
        return 0
    return chunk.data_page_offset - chunk.dictionary_page_offset


def test_sink_encoding_keeps_content_and_dictionaries_by_cardinality(tmp_path):
    """``write_sinks`` under ``WRITE_OPTIONS``: the files read back equal
    the input as a multiset (nulls and an all-unique string column
    included), a caller's ``compression`` (what ``sinks.compression``
    passes) still reaches every column, a low-cardinality column keeps
    its dictionary, and the unique column's dictionary stops near the
    16 KiB limit — the writer falls back to plain encoding instead of
    building a dictionary of the whole column (Arrow's default). Arrow
    checks the limit after each write batch of 1024 values, so the
    dictionary may pass it by one batch."""
    import glob as _glob
    import hashlib

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.sinks.writers import WRITE_OPTIONS, write_sinks

    n = 30_000
    table = pa.table({
        "sink": [("a", "b", "c")[i % 3] for i in range(n)],
        "level": [None if i % 7 == 0 else ("INFO", "WARN", "ERROR")[i % 5 % 3]
                  for i in range(n)],
        "text": [hashlib.md5(str(i).encode()).hexdigest() for i in range(n)],
        "latency_ms": [None if i % 11 == 0 else i for i in range(n)],
    })
    out = str(tmp_path / "sinks")
    assert write_sinks(ray.data.from_arrow(table), out, compression="zstd") == {
        "a": n // 3, "b": n // 3, "c": n // 3,
    }
    back = pads.dataset(
        out, format="parquet",
        partitioning=pads.HivePartitioning(pa.schema([("sink", pa.string())])),
    ).to_table().select(table.column_names)

    def rows(t):
        return sorted(t.to_pylist(), key=lambda r: r["text"])

    assert rows(back) == rows(table)

    limit = WRITE_OPTIONS["dictionary_pagesize_limit"]
    # one write batch of 32-byte values with their 4-byte lengths
    one_batch = 1024 * (32 + 4)
    files = _glob.glob(f"{out}/**/*.parquet", recursive=True)
    assert len(files) == 3
    texts = []
    for f in files:
        meta = pq.read_metadata(f)
        chunks = {
            meta.row_group(0).column(i).path_in_schema: meta.row_group(0).column(i)
            for i in range(meta.num_columns)
        }
        assert {c.compression for c in chunks.values()} == {"ZSTD"}
        level, text = chunks["level"], chunks["text"]
        assert "RLE_DICTIONARY" in level.encodings
        assert 0 < _dictionary_page_bytes(level) < 100
        assert _dictionary_page_bytes(text) <= limit + one_batch
        texts.append(_dictionary_page_bytes(text))

    # the same rows under Arrow's defaults build the whole dictionary
    ref = str(tmp_path / "ref.parquet")
    pq.write_table(table.filter(pa.compute.equal(table["sink"], "a")), ref,
                   compression="zstd")
    ref_text = pq.read_metadata(ref).row_group(0).column(2)
    assert ref_text.path_in_schema == "text"
    assert _dictionary_page_bytes(ref_text) > 5 * max(texts)


def test_every_engine_sink_write_starts_from_write_options(tmp_path, monkeypatch):
    """``atomic_write_parquet`` and the checkpointed partition write both
    hand ``WRITE_OPTIONS`` to ``write_parquet``, and a caller's kwargs
    win over them. Both are one ``atomic_write_parquet``, so both also
    name the filesystem their local path resolved to."""
    import pyarrow.fs as pafs

    from opentelemetry_collector_ray.sinks.writers import WRITE_OPTIONS
    from opentelemetry_collector_ray.state.checkpoint import run_partitioned

    calls = []
    real = ray.data.Dataset.write_parquet

    def spy(self, path, **kwargs):
        calls.append(kwargs)
        return real(self, path, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "write_parquet", spy)
    atomic_write_parquet(ray.data.range(5), str(tmp_path / "one"),
                         compression="zstd", row_group_size=2)
    run_partitioned(
        [str(tmp_path / "in0")], str(tmp_path / "drained"),
        lambda files: ray.data.range(3), num_partitions=1,
    )
    assert calls == [
        {**WRITE_OPTIONS, "compression": "zstd", "row_group_size": 2,
         "filesystem": pafs.LocalFileSystem()},
        {**WRITE_OPTIONS, "filesystem": pafs.LocalFileSystem()},
    ]
