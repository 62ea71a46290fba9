"""Read sizing and planning (sources/parquet.py): read tasks = max(2 ×
cluster CPUs, ⌈estimated in-memory bytes / target_max_block_size⌉),
passed to ``ray.data.read_datasource`` as ``override_num_blocks``; rows
per batch = (target_max_block_size // 10) ÷ (on-disk bytes ×
ENCODING_RATIO ÷ footer rows), without Ray's 10k-row cap, the
``ParquetDatasource``'s ``batch_size``. The datasource plans from the
listed files and their footers, with no sampling task."""

import json
import os
import subprocess
import sys
import textwrap

import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import pytest
import ray.data

from opentelemetry_collector_ray.fixtures import gen_transcripts
from opentelemetry_collector_ray.sources import parquet
from tests.conftest import SF_DIR

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(parquet.ray, "cluster_resources", lambda: {"CPU": 1.0})


@pytest.fixture
def read_spy(monkeypatch):
    """Record each ``ray.data.read_datasource`` call as (the files the
    datasource plans to read, the kwargs it is called with plus the
    datasource's ``columns`` and ``batch_size`` when set)."""
    calls = []

    def spy(source, **kwargs):
        assert isinstance(source, parquet.ParquetDatasource)
        for name in ("columns", "batch_size"):
            if getattr(source, name) is not None:
                kwargs[name] = getattr(source, name)
        calls.append((source.files, kwargs))
        return "dataset"

    monkeypatch.setattr(parquet.ray.data, "read_datasource", spy)
    return calls


def _small_files(tmp_path, n=2):
    paths = []
    for i in range(n):
        p = str(tmp_path / f"part-{i}.parquet")
        pq.write_table(pa.table({"x": list(range(100))}), p)
        paths.append(p)
    return paths


def _budget():
    """Ray's parquet reader byte budget per batch."""
    return ray.data.DataContext.get_current().target_max_block_size // 10


def _want_batch_rows(paths):
    """The batch rule restated: the byte budget over on-disk bytes ×
    ENCODING_RATIO per footer row."""
    size = sum(os.path.getsize(p) for p in paths)
    rows = sum(pq.read_metadata(p).num_rows for p in paths)
    return max(1, int(_budget() // (size * parquet.ENCODING_RATIO / rows)))


def test_one_cpu_two_small_files_give_two(tmp_path, one_cpu, read_spy):
    paths = _small_files(tmp_path)
    assert parquet.ParquetDatasource(paths).read_tasks() == 2
    parquet.read_parquet(paths, columns=["x"])
    assert read_spy == [
        (paths, {"columns": ["x"], "override_num_blocks": 2,
                 "batch_size": _want_batch_rows(paths)}),
    ]


def test_one_cpu_ten_gb_gives_size_term(one_cpu):
    on_disk = 10 * 10**9
    target = ray.data.DataContext.get_current().target_max_block_size
    want = -(-on_disk * parquet.ENCODING_RATIO // target)
    assert want > 2
    assert parquet._tasks(on_disk) == want


def test_explicit_blocks_pass_through(tmp_path, one_cpu, read_spy):
    paths = _small_files(tmp_path)
    parquet.read_parquet(paths, override_num_blocks=7)
    parquet.read_parquet(paths, parallelism=5)
    rows = _want_batch_rows(paths)
    assert read_spy == [
        (paths, {"override_num_blocks": 7, "batch_size": rows}),
        (paths, {"parallelism": 5, "batch_size": rows}),
    ]


def test_explicit_batch_size_passes_through(tmp_path, one_cpu, read_spy):
    paths = _small_files(tmp_path)
    parquet.read_parquet(paths, batch_size=123)
    assert read_spy == [(paths, {"batch_size": 123, "override_num_blocks": 2})]


def test_directory_sized_from_its_parquet_files(tmp_path, monkeypatch, one_cpu, read_spy):
    d = tmp_path / "sink"
    (d / "sink=a").mkdir(parents=True)
    pq.write_table(pa.table({"x": list(range(1000))}), str(d / "sink=a" / "f.parquet"))
    pq.write_table(pa.table({"x": list(range(10))}), str(d / "g.parquet"))
    (d / "notes.txt").write_bytes(b"x" * 10_000)
    want = os.path.getsize(d / "sink=a" / "f.parquet") + os.path.getsize(d / "g.parquet")
    assert parquet.ParquetDatasource(str(d)).estimate_inmemory_data_size() == (
        want * parquet.ENCODING_RATIO
    )
    # one target block of in-memory data per 2 on-disk bytes → size term
    monkeypatch.setattr(
        ray.data.DataContext.get_current(), "target_max_block_size",
        parquet.ENCODING_RATIO * 2,
    )
    parquet.read_parquet(str(d))
    # the datasource reads the parquet files sizing counted (not
    # notes.txt); the same target gives a one-byte batch budget, so one
    # row per batch
    assert read_spy == [
        (
            [str(d / "g.parquet"), str(d / "sink=a" / "f.parquet")],
            {"override_num_blocks": -(-want // 2), "batch_size": 1},
        ),
    ]


def test_unknown_size_gives_no_override(tmp_path, monkeypatch, one_cpu, read_spy):
    missing = [str(tmp_path / "missing.parquet")]
    missing_uri = ["file://" + missing[0]]
    # a missing path is reported at planning, as Ray's reader did
    for paths in (missing, missing_uri):
        with pytest.raises(FileNotFoundError):
            parquet.ParquetDatasource(paths)
        with pytest.raises(FileNotFoundError):
            parquet.read_parquet(paths)
    assert read_spy == []
    # a file whose size its filesystem does not report: no sizing
    paths = _small_files(tmp_path)
    unsized = [pafs.FileInfo(p, type=pafs.FileType.File) for p in paths]
    monkeypatch.setattr(
        parquet, "_list_files", lambda *a, **k: (pafs.LocalFileSystem(), unsized)
    )
    source = parquet.ParquetDatasource(paths)
    assert source.read_tasks() is None
    assert source.batch_size is None
    assert source.estimate_inmemory_data_size() is None
    parquet.read_parquet(paths)
    assert read_spy == [(paths, {})]


def test_no_ray_session_gives_no_override(tmp_path, monkeypatch, read_spy):
    paths = _small_files(tmp_path)
    monkeypatch.setattr(parquet.ray, "is_initialized", lambda: False)

    def no_cluster():
        raise RuntimeError("Ray has not been started yet")

    monkeypatch.setattr(parquet.ray, "cluster_resources", no_cluster)
    # no read tasks without a cluster to size them to; the batch byte
    # rule needs no session
    source = parquet.ParquetDatasource(paths)
    assert source.read_tasks() is None
    assert source.batch_size == _want_batch_rows(paths)
    parquet.read_parquet(paths)
    assert read_spy == [(paths, {"batch_size": _want_batch_rows(paths)})]


def test_empty_files_give_no_batch_size(tmp_path):
    p = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"x": pa.array([], pa.int64())}), p)
    assert parquet.ParquetDatasource([p]).batch_size is None


def _batches_seen(ds):
    """(rows, bytes) of each batch a map stage fused with the read is
    called on, sorted."""
    calls = ds.map_batches(
        lambda b: pa.table({"n": [b.num_rows], "bytes": [b.nbytes]}),
        batch_format="pyarrow",
    ).to_pandas()
    return sorted(zip(calls["n"].tolist(), calls["bytes"].tolist()))


def test_narrow_rows_read_one_batch_per_shard(tmp_path):
    """Two transcript shards of about 19.5k rows each: Ray's 10k-row cap
    hands a fused map stage two batches per shard; the byte-budget batch
    hands it each shard whole."""
    paths = _two_shards(tmp_path)
    rows = sorted(pq.read_metadata(p).num_rows for p in paths)
    assert rows[0] > 10_000
    assert parquet.ParquetDatasource(paths).batch_size >= rows[-1]
    sized = parquet.read_parquet(paths, override_num_blocks=len(paths))
    assert [n for n, _ in _batches_seen(sized)] == rows
    default = ray.data.read_parquet(paths, override_num_blocks=len(paths))
    assert max(n for n, _ in _batches_seen(default)) <= 10_000


def test_wide_rows_stay_within_ray_byte_budget(tmp_path, monkeypatch):
    """Incompressible 4 KB rows under a 1 MiB block target (a 104 KB
    batch budget): no batch holds more rows than Ray's own byte term,
    budget ÷ in-memory row width, allows, also for a read planned
    before ``ray.init``."""
    monkeypatch.setattr(
        ray.data.DataContext.get_current(), "target_max_block_size", 1024 * 1024
    )
    p = str(tmp_path / "wide.parquet")
    t = pa.table({"i": list(range(600)), "blob": [os.urandom(2048).hex() for _ in range(600)]})
    pq.write_table(t, p)
    width = t.nbytes / t.num_rows
    with monkeypatch.context() as no_session:
        no_session.setattr(parquet.ray, "is_initialized", lambda: False)
        unsessioned = parquet.ParquetDatasource([p])
    rows = parquet.ParquetDatasource([p]).batch_size
    assert unsessioned.batch_size == rows
    assert 1 <= rows <= _budget() // width < 10_000
    for ds in (
        parquet.read_parquet([p], override_num_blocks=1),
        ray.data.read_datasource(unsessioned, override_num_blocks=1),
    ):
        batches = _batches_seen(ds)
        assert sum(n for n, _ in batches) == t.num_rows
        assert max(n for n, _ in batches) <= rows
        assert max(b for _, b in batches) <= _budget()


def _two_shards(tmp_path):
    """Two transcript shards of a few MB each, big enough that Ray's
    default read would split them."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    paths, mem = [], 0
    for f in range(2):
        t = gen_transcripts(3000, start_conv=f * 3000)
        p = str(corpus / f"part-{f}.parquet")
        pq.write_table(t, p)
        paths.append(p)
        mem += t.nbytes
    assert mem >= 4 * 1024 * 1024
    return paths


def _run_one_cpu(code, tmp_path):
    """Run ``code`` in a fresh one-CPU Ray session; return its last
    stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_one_cpu_run_fuses_read_stages_and_write(tmp_path):
    """At num_cpus=1, run_logs_pipeline over two shards that Ray's
    default read would split runs as exactly one
    ReadParquet->MapBatches(StageChain)->Write operator (``msg`` is
    dropped inside the chain) with one task per shard, lands 2 × |sinks|
    files of one row group each, and counts the same per sink as a read
    at Ray's default parallelism."""
    paths = _two_shards(tmp_path)
    out = str(tmp_path / "out")
    code = textwrap.dedent(
        f"""
        import glob, json, sys
        sys.path.insert(0, {REPO!r})
        import ray
        ray.init(address="local", num_cpus=1,
                 include_dashboard=False, logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        import __ray_entry__  # pickle-by-value registration
        from opentelemetry_collector_ray.pipelines import logs
        from opentelemetry_collector_ray.sinks import writers
        from opentelemetry_collector_ray.stages.enrich import enrich_batch
        from opentelemetry_collector_ray.stages.parse import parse_batch

        written = []
        real = writers.atomic_write_parquet

        def spy(ds, *args, **kwargs):
            written.append(ds)
            return real(ds, *args, **kwargs)

        writers.atomic_write_parquet = spy
        paths = {paths!r}
        res = logs.run_logs_pipeline(paths, {out!r})
        ops = [l for l in written[0].stats().splitlines() if l.startswith("Operator")]
        default = ray.data.read_parquet(paths)
        ref = logs.sink_counts(
            default.map_batches(parse_batch, batch_format="pyarrow")
            .map_batches(enrich_batch, batch_format="pyarrow")
        )
        import pyarrow.parquet as pq
        files = glob.glob({out!r} + "/**/*.parquet", recursive=True)
        print(json.dumps({{
            "per_sink": res["per_sink"],
            "files": len(files),
            "row_groups": [pq.read_metadata(f).num_row_groups for f in files],
            "ops": ops,
            "default_blocks": default.materialize().num_blocks(),
            "ref": {{str(s): int(n) for s, n in zip(ref["sink"], ref["n"])}},
        }}))
        ray.shutdown()
        """
    )
    got = _run_one_cpu(code, tmp_path)
    assert got["default_blocks"] > len(paths)  # Ray's default splits this corpus
    assert got["files"] == 2 * len(got["per_sink"])
    assert got["row_groups"] == [1] * got["files"]
    assert got["per_sink"] == got["ref"]
    assert len(got["ops"]) == 1, got["ops"]
    name, tasks = got["ops"][0].split(": ")[:2]
    assert name == "Operator 1 ReadParquet->MapBatches(StageChain)->Write"
    assert "drop_columns" not in got["ops"][0]
    assert tasks.startswith(f"{len(paths)} tasks executed"), got["ops"][0]


def test_one_cpu_route_config_runs_as_one_task_operator(tmp_path):
    """At num_cpus=1, the route-mode config [parse, enrich] runs its
    stages as one task chain fused with the read and the write: one
    ReadParquet->…->Write operator, no actor pool, the same per-sink
    counts as run_logs_pipeline, and 2 × |sinks| files. (Stages on
    their own actor pools do not fuse and starve a one-CPU session.)"""
    paths = _two_shards(tmp_path)
    out = str(tmp_path / "out")
    code = textwrap.dedent(
        f"""
        import glob, json, sys
        sys.path.insert(0, {REPO!r})
        import ray
        ray.init(address="local", num_cpus=1,
                 include_dashboard=False, logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        import __ray_entry__  # pickle-by-value registration
        from opentelemetry_collector_ray.pipelines import logs
        from opentelemetry_collector_ray.pipelines.builder import run_pipeline
        from opentelemetry_collector_ray.sinks import writers

        written = []
        real = writers.atomic_write_parquet

        def spy(ds, *args, **kwargs):
            written.append(ds)
            return real(ds, *args, **kwargs)

        writers.atomic_write_parquet = spy
        paths = {paths!r}
        res = run_pipeline({{"pipeline": {{
            "source": {{"type": "parquet", "paths": paths}},
            "stages": [{{"type": "parse"}}, {{"type": "enrich"}}],
            "sinks": {{"mode": "route", "out_dir": {out!r}}},
        }}}})
        stats = written[0].stats()
        files = len(glob.glob({out!r} + "/**/*.parquet", recursive=True))
        ref = logs.run_logs_pipeline(paths, {str(tmp_path / "ref")!r})
        print(json.dumps({{
            "per_sink": dict(res["per_sink"]),
            "files": files,
            "ops": [l for l in stats.splitlines() if l.startswith("Operator")],
            "ref": ref["per_sink"],
        }}))
        ray.shutdown()
        """
    )
    got = _run_one_cpu(code, tmp_path)
    assert len(got["ops"]) == 1, got["ops"]
    assert "ReadParquet->" in got["ops"][0] and "->Write" in got["ops"][0]
    assert got["per_sink"] == got["ref"]
    assert got["files"] == 2 * len(got["per_sink"])


def test_directory_reads_only_its_parquet_files(tmp_path):
    """A directory holding a non-parquet file beside its parquet files
    reads the parquet rows: the reader reads exactly the files sizing
    counted."""
    d = tmp_path / "mixed"
    d.mkdir()
    for i in range(2):
        pq.write_table(pa.table({"x": list(range(i * 10, i * 10 + 10))}),
                       str(d / f"part-{i}.parquet"))
    (d / "notes.txt").write_text("not parquet")
    ds = parquet.read_parquet(str(d))
    assert sorted(ds.to_pandas()["x"]) == list(range(20))


def test_uri_shards_read_like_paths(tmp_path):
    """A list of ``file://`` shards is sized and read like the plain
    paths."""
    paths = _small_files(tmp_path)
    uris = ["file://" + p for p in paths]
    by_uri, by_path = parquet.ParquetDatasource(uris), parquet.ParquetDatasource(paths)
    assert by_uri.files == by_path.files
    assert by_uri.read_tasks() == by_path.read_tasks()
    assert by_uri.batch_size == by_path.batch_size
    got = parquet.read_parquet(uris).to_pandas()
    want = parquet.read_parquet(paths).to_pandas()
    assert sorted(got["x"]) == sorted(want["x"]) == sorted(list(range(100)) * 2)


def test_count_is_footer_rows(tmp_path):
    """Each read task carries its files' footer rows, so ``count()`` is
    answered from metadata."""
    paths = _small_files(tmp_path, n=3)
    ds = parquet.read_parquet(paths)
    assert ds._meta_count() == sum(pq.read_metadata(p).num_rows for p in paths)


def test_hive_values_stay_strings(tmp_path):
    """Hive ``key=value`` directories become string columns, as Ray's
    reader makes them: ``sink=007`` stays ``"007"``."""
    d = tmp_path / "hive"
    for sink, n in (("007", 3), ("a", 2)):
        (d / f"sink={sink}").mkdir(parents=True)
        pq.write_table(pa.table({"x": list(range(n))}), str(d / f"sink={sink}" / "f.parquet"))

    def rows(ds):
        df = ds.to_pandas()
        return sorted(zip(df["sink"], df["x"].tolist()))

    ours = parquet.read_parquet(str(d))
    assert ours.schema().base_schema.field("sink").type == pa.string()
    assert rows(ours) == rows(ray.data.read_parquet(str(d)))
    assert ("007", 0) in rows(ours)


def test_unsupported_keyword_raises(tmp_path):
    with pytest.raises(TypeError):
        parquet.read_parquet(_small_files(tmp_path), filter=None)


def test_one_cpu_reads_never_sample(tmp_path):
    """With Ray's ``sample_fragments`` made to raise, every engine read
    still plans and runs: ``run_logs_pipeline`` over two ``file://``
    shards (one fused ReadParquet->MapBatches(StageChain)->Write
    operator of 2 tasks), the config source (``build_source``) and the
    tailer's read."""
    paths = _two_shards(tmp_path)
    cfg = tmp_path / "pipe.yaml"
    cfg.write_text(
        "pipeline:\n  source:\n    type: parquet\n    paths: [unused]\n"
        "  stages: [{type: parse}]\n"
        "  sinks: {mode: single, out_dir: " + str(tmp_path / "nominal") + "}\n"
    )
    code = textwrap.dedent(
        f"""
        import json, sys
        sys.path.insert(0, {REPO!r})
        import ray
        ray.init(address="local", num_cpus=1,
                 include_dashboard=False, logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        from ray.data._internal.datasource import parquet_datasource

        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_fragments ran")

        parquet_datasource.sample_fragments = no_sampling
        import __ray_entry__  # pickle-by-value registration
        from opentelemetry_collector_ray.pipelines import logs
        from opentelemetry_collector_ray.pipelines.builder import build_source
        from opentelemetry_collector_ray.pipelines.config import load_config
        from opentelemetry_collector_ray.sinks import writers
        from opentelemetry_collector_ray.state.tailer import ConfigWatcher

        written = []
        real = writers.atomic_write_parquet

        def spy(ds, *args, **kwargs):
            written.append(ds)
            return real(ds, *args, **kwargs)

        writers.atomic_write_parquet = spy
        paths = {paths!r}
        res = logs.run_logs_pipeline(["file://" + p for p in paths], {str(tmp_path / "out")!r})
        ops = [l for l in written[0].stats().splitlines() if l.startswith("Operator")]
        source = build_source(load_config({{"pipeline": {{
            "source": {{"type": "parquet", "paths": paths}},
            "stages": [],
            "sinks": {{"mode": "single", "out_dir": {str(tmp_path / "o2")!r}}},
        }}}})).count()
        tailed = ConfigWatcher({str(cfg)!r})(paths).count()
        print(json.dumps({{"accepted": res["accepted"], "ops": ops,
                           "source": source, "tailed": tailed}}))
        ray.shutdown()
        """
    )
    got = _run_one_cpu(code, tmp_path)
    rows = sum(pq.read_metadata(p).num_rows for p in paths)
    assert got["accepted"] == got["source"] == got["tailed"] == rows
    assert len(got["ops"]) == 1, got["ops"]
    name, tasks = got["ops"][0].split(": ")[:2]
    assert name == "Operator 1 ReadParquet->MapBatches(StageChain)->Write"
    assert tasks.startswith(f"{len(paths)} tasks executed"), got["ops"][0]


def _ray_parquet_reads(path):
    """Lines of ``path`` that call ``ray.data.read_parquet`` or import it."""
    import ast

    found = []
    for node in ast.walk(ast.parse(open(path).read())):
        if isinstance(node, ast.ImportFrom) and node.module == "ray.data":
            if any(a.name == "read_parquet" for a in node.names):
                found.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "read_parquet"
            and ast.unparse(node.func.value) == "ray.data"
        ):
            found.append(node.lineno)
    return found


def test_engine_and_entry_module_never_call_ray_read_parquet():
    """Every parquet read of the package and of ``__ray_entry__.py`` is
    the footer-planned ``sources.parquet.read_parquet``; Ray's sampling
    read is left to the benchmark and the tests."""
    import glob

    files = glob.glob(os.path.join(REPO, "opentelemetry_collector_ray", "**", "*.py"),
                      recursive=True)
    files.append(os.path.join(REPO, "__ray_entry__.py"))
    found = {os.path.relpath(f, REPO): _ray_parquet_reads(f) for f in files}
    assert {f: lines for f, lines in found.items() if lines} == {}



def _repartitions(path):
    """(line, enclosing top-level function) of each ``.repartition(``
    call in ``path``."""
    import ast

    found = []
    for top in ast.parse(open(path).read()).body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "repartition"
            ):
                found.append((node.lineno, getattr(top, "name", None)))
    return found


def test_package_repartitions_only_in_co_group_and_batching():
    """The package re-blocks in two places: ``co_group``'s one trim of
    a union of sides to the shard count, and the explicit batching
    stage. Reads are sized where they are planned, and one-input
    shuffles take their input's blocks as they come."""
    import glob

    files = glob.glob(os.path.join(REPO, "opentelemetry_collector_ray", "**", "*.py"),
                      recursive=True)
    found = {os.path.relpath(f, REPO): _repartitions(f) for f in files}
    found = {f: calls for f, calls in found.items() if calls}
    assert set(found) == {
        "opentelemetry_collector_ray/functions/shard.py",
        "opentelemetry_collector_ray/stages/batch.py",
    }, found
    assert [fn for _, fn in found["opentelemetry_collector_ray/functions/shard.py"]] == [
        "co_group"
    ]

def test_one_cpu_transcripts_from_events_reads_without_repartition(tmp_path):
    """``transcripts_from_events`` reads events through the package
    ``ParquetDatasource`` and hands its blocks straight to the sharded
    groupby: no ``Repartition`` (nor a materialized input) before the
    shuffle, and every event becomes one turn."""
    code = textwrap.dedent(
        f"""
        import json, sys
        sys.path.insert(0, {REPO!r})
        import ray
        ray.init(address="local", num_cpus=1,
                 include_dashboard=False, logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        import __ray_entry__  # pickle-by-value registration
        from opentelemetry_collector_ray.sources.transcripts import (
            transcripts_from_events,
        )

        ds = transcripts_from_events({SF_DIR!r})
        ops = []

        def walk(op):
            for dep in op.input_dependencies:
                walk(dep)
            source = getattr(op, "_datasource", None)
            ops.append([type(op).__name__,
                        None if source is None else type(source).__module__
                        + "." + type(source).__name__])

        walk(ds._logical_plan.dag)
        print(json.dumps({{"ops": ops, "rows": ds.count()}}))
        ray.shutdown()
        """
    )
    got = _run_one_cpu(code, tmp_path)
    names = [name for name, _ in got["ops"]]
    assert got["ops"][0] == [
        "Read", "opentelemetry_collector_ray.sources.parquet.ParquetDatasource"
    ]
    assert "Repartition" not in names
    assert names[names.index("Sort") - 1] == "MapBatches", names  # shard tag
    assert got["rows"] == pq.read_metadata(f"{SF_DIR}/events.parquet").num_rows
