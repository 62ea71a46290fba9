"""Config validation + builder tests — mirrors the reference's config
tests (service/config.go:70-98 validation rules; otelcoltest YAML
loading)."""

import os

import pytest

from opentelemetry_collector_ray.fixtures import write_transcript_corpus
from opentelemetry_collector_ray.pipelines.builder import (
    build_dataset,
    register_stage,
    run_pipeline,
)
from opentelemetry_collector_ray.pipelines.config import ConfigError, load_config


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("cfg_corpus")
    write_transcript_corpus(str(d), 100, files=2)
    return str(d)


def _spec(corpus, out):
    return {
        "pipeline": {
            "source": {"type": "parquet", "paths": [corpus]},
            "stages": [
                {"type": "parse"},
                {"type": "enrich"},
            ],
            "sinks": {"mode": "route", "out_dir": out},
        }
    }


def test_yaml_roundtrip(corpus, tmp_path):
    yaml_text = f"""
pipeline:
  source:
    type: parquet
    paths: ["{corpus}"]
  stages:
    - type: parse
    - type: enrich
    - type: filter
      include: [["level", "in", ["WARN", "ERROR"]]]
  sinks:
    mode: single
    out_dir: "{tmp_path}/out"
"""
    cfg = load_config(yaml_text)
    assert [s.type for s in cfg.stages] == ["parse", "enrich", "filter"]
    ds = build_dataset(cfg)
    df = ds.to_pandas()
    assert set(df["level"].unique()) <= {"WARN", "ERROR"}


def test_validation_errors(corpus):
    with pytest.raises(ConfigError, match="source"):
        load_config({"pipeline": {"sinks": {"out_dir": "/tmp/x"}}})
    with pytest.raises(ConfigError, match="sink"):
        load_config(
            {"pipeline": {"source": {"type": "parquet", "paths": ["x"]}}}
        )
    with pytest.raises(ConfigError, match="unknown stage"):
        load_config(
            {
                "pipeline": {
                    "source": {"type": "parquet", "paths": ["x"]},
                    "stages": [{"type": "nope"}],
                    "sinks": {"out_dir": "/tmp/x"},
                }
            }
        )
    with pytest.raises(ConfigError, match="duplicate stage name"):
        load_config(
            {
                "pipeline": {
                    "source": {"type": "parquet", "paths": ["x"]},
                    "stages": [{"type": "parse"}, {"type": "parse"}],
                    "sinks": {"out_dir": "/tmp/x"},
                }
            }
        )
    with pytest.raises(ConfigError, match="unknown source"):
        load_config(
            {
                "pipeline": {
                    "source": {"type": "kafka"},
                    "sinks": {"out_dir": "/tmp/x"},
                }
            }
        )


def test_run_pipeline_route_mode(corpus, tmp_path):
    out = str(tmp_path / "sinks")
    report = run_pipeline(_spec(corpus, out))
    assert set(report["per_sink"]) == {
        "ingest",
        "replies",
        "tooling",
        "audit",
        "errors",
    }
    # fan-out invariant: base sinks sum to the input row count
    import ray.data

    n_in = ray.data.read_parquet(corpus).count()
    base = sum(
        v for k, v in report["per_sink"].items() if k != "errors"
    )
    assert base == n_in
    assert os.path.exists(os.path.join(out, "sink=errors"))


def test_run_service_shared_source(corpus, tmp_path):
    """Two pipelines sharing one source (shared-receiver semantics):
    different filters, both sinks correct."""
    from opentelemetry_collector_ray.pipelines.builder import run_service

    spec = {
        "service": {
            "pipelines": {
                "errors_only": {
                    "source": {"type": "parquet", "paths": [corpus]},
                    "stages": [
                        {"type": "parse"},
                        {"type": "enrich"},
                        {
                            "type": "filter",
                            "include": [["level", "==", "ERROR"]],
                        },
                    ],
                    "sinks": {"mode": "single", "out_dir": str(tmp_path / "a")},
                },
                "all_routed": {
                    "source": {"type": "parquet", "paths": [corpus]},
                    "stages": [{"type": "parse"}, {"type": "enrich"}],
                    "sinks": {"mode": "route", "out_dir": str(tmp_path / "b")},
                },
            }
        }
    }
    reports = run_service(spec)
    import ray.data

    n_in = ray.data.read_parquet(corpus).count()
    assert reports["all_routed"]["per_sink"]["errors"] == reports[
        "errors_only"
    ]["rows"]
    base = sum(
        v for k, v in reports["all_routed"]["per_sink"].items() if k != "errors"
    )
    assert base == n_in


def test_service_config_validation():
    from opentelemetry_collector_ray.pipelines.config import (
        load_service_config,
    )

    with pytest.raises(ConfigError, match="service"):
        load_service_config({"pipeline": {}})
    with pytest.raises(ConfigError, match="at least one pipeline"):
        load_service_config({"service": {"pipelines": {}}})


def test_retry_policy_semantics():
    from opentelemetry_collector_ray.sinks.retry import (
        PermanentError,
        RetryPolicy,
        retry_call,
    )

    sleeps = []
    policy = RetryPolicy(max_elapsed=50.0)
    policy.sleep = sleeps.append

    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 4:
            raise OSError("transient")
        return "ok"

    assert retry_call(flaky, policy=policy) == "ok"
    # backoff schedule: 5, 7.5, 11.25 (initial 5, x1.5 — the reference
    # defaults queued_retry.go:267-277)
    assert sleeps == [5.0, 7.5, 11.25]

    with pytest.raises(PermanentError):
        retry_call(
            lambda: (_ for _ in ()).throw(PermanentError("4xx")), policy=policy
        )

    # gives up after max_elapsed; last wait capped to remaining budget
    policy2 = RetryPolicy(initial_interval=20.0, max_elapsed=30.0)
    waits = []
    policy2.sleep = waits.append
    with pytest.raises(OSError):
        retry_call(lambda: (_ for _ in ()).throw(OSError("x")), policy=policy2)
    assert waits == [20.0, 10.0]  # 20, then capped to the 10 remaining


def test_env_expansion_and_defaults(corpus, tmp_path):
    """${env:VAR} resolves from the environment (confmap envprovider);
    ${env:VAR:-default} falls back; unset without default errors."""
    from opentelemetry_collector_ray.pipelines.config import expand_env

    env = {"SF_DIR": corpus, "MODE": "single"}
    spec = {
        "pipeline": {
            "source": {"type": "parquet", "paths": ["${env:SF_DIR}"]},
            "stages": [{"type": "parse"}],
            "sinks": {
                "mode": "${env:MODE}",
                "out_dir": "${env:OUT_DIR:-" + str(tmp_path / "out") + "}",
            },
        }
    }
    cfg = load_config(spec, env=env)
    assert cfg.source.paths == [corpus]
    assert cfg.sinks.mode == "single"
    assert cfg.sinks.out_dir == str(tmp_path / "out")
    with pytest.raises(ConfigError, match="not set"):
        expand_env({"x": "${env:DEFINITELY_UNSET_VAR_42}"}, env={})
    # substring expansion inside a larger string
    assert (
        expand_env("pre-${env:A}-post", env={"A": "mid"}) == "pre-mid-post"
    )


def test_multi_source_merge(corpus, tmp_path):
    """Later config sources override earlier (maps merge recursively,
    scalars/lists replace — confmap resolver merge order)."""
    base = {
        "pipeline": {
            "source": {"type": "parquet", "paths": [corpus]},
            "stages": [{"type": "parse"}, {"type": "enrich"}],
            "sinks": {"mode": "route", "out_dir": "/tmp/base_out"},
        }
    }
    override = {"pipeline": {"sinks": {"out_dir": str(tmp_path / "real")}}}
    cfg = load_config([base, override])
    assert cfg.sinks.out_dir == str(tmp_path / "real")
    assert cfg.sinks.mode == "route"  # untouched sibling key survives
    assert [s.type for s in cfg.stages] == ["parse", "enrich"]
    # a YAML-string source merges the same way as a dict source
    cfg2 = load_config(
        [base, f"pipeline:\n  sinks:\n    out_dir: {tmp_path}/y\n"]
    )
    assert cfg2.sinks.out_dir == f"{tmp_path}/y"


def test_sink_compression_knob(corpus, tmp_path):
    """configgrpc compressor-matrix analogue: sinks.compression picks
    the parquet codec; bogus codecs fail validation loudly."""
    import glob

    import pyarrow.parquet as pq
    import pytest

    from opentelemetry_collector_ray.pipelines.config import ConfigError

    out = str(tmp_path / "zstd_out")
    spec = _spec(corpus, out)
    spec["pipeline"]["sinks"]["compression"] = "zstd"
    report = run_pipeline(spec)
    assert report["per_sink"]
    f = glob.glob(out + "/**/*.parquet", recursive=True)[0]
    meta = pq.ParquetFile(f).metadata
    codecs = {
        meta.row_group(0).column(i).compression
        for i in range(meta.num_columns)
    }
    assert codecs == {"ZSTD"}
    bad = _spec(corpus, out)
    bad["pipeline"]["sinks"]["compression"] = "deflate9"
    with pytest.raises(ConfigError, match="compression"):
        load_config(bad)


def test_http_config_provider(corpus, tmp_path):
    """confmap http(s) provider parity: an http:// config URI is
    fetched, parsed as YAML, and merges/env-expands like any other
    source; unreachable URIs fail loudly as ConfigError."""
    import http.server
    import threading

    import pytest

    from opentelemetry_collector_ray.pipelines.config import ConfigError

    body = (
        "pipeline:\n"
        "  sinks:\n"
        "    out_dir: ${env:OUT_DIR:-" + str(tmp_path / "http_out") + "}\n"
    )

    class H(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            data = body.encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *a):
            pass

    srv = http.server.HTTPServer(("127.0.0.1", 0), H)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        base = {
            "pipeline": {
                "source": {"type": "parquet", "paths": [corpus]},
                "stages": [{"type": "parse"}],
                "sinks": {"mode": "route", "out_dir": "/tmp/overridden"},
            }
        }
        url = f"http://127.0.0.1:{srv.server_port}/cfg.yaml"
        cfg = load_config([base, url])
        assert cfg.sinks.out_dir == str(tmp_path / "http_out")
        assert cfg.sinks.mode == "route"  # sibling key survives the merge
        # env expansion applies to http-sourced values too
        cfg2 = load_config([base, url], env={"OUT_DIR": "/tmp/from_env"})
        assert cfg2.sinks.out_dir == "/tmp/from_env"
    finally:
        srv.shutdown()
    with pytest.raises(ConfigError, match="cannot fetch"):
        load_config([base, "http://127.0.0.1:1/cfg.yaml"])


def test_all_provider_schemes_merge(corpus, tmp_path, monkeypatch):
    """confmap provider-scheme parity in ONE resolution: file: + env:
    (whole-URI form) + http:// + yaml: sources deep-merge in order with
    later sources overriding earlier (resolver.go:128-170), and the
    explicit schemes fail loudly (missing file / unset var / bad YAML)
    instead of falling back to the bare-string inline parse."""
    import http.server
    import threading

    import pytest

    from opentelemetry_collector_ray.pipelines.config import ConfigError

    # file: — the base pipeline
    f = tmp_path / "base.yaml"
    f.write_text(
        "pipeline:\n"
        "  source: {type: parquet, paths: ['" + corpus + "']}\n"
        "  stages: [{type: parse}]\n"
        "  sinks: {mode: route, out_dir: /tmp/from_file}\n"
    )
    # env: (whole-URI) — overrides out_dir
    monkeypatch.setenv(
        "CFG_YAML", "pipeline:\n  sinks:\n    out_dir: /tmp/from_envuri\n"
    )
    # http:// — overrides again
    body = b"pipeline:\n  sinks:\n    out_dir: /tmp/from_http\n"

    class H(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):
            pass

    srv = http.server.HTTPServer(("127.0.0.1", 0), H)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{srv.server_port}/cfg.yaml"
        # yaml: — wins last
        y = "yaml:pipeline: {sinks: {out_dir: /tmp/from_yamluri}}"
        cfg = load_config([f"file:{f}", "env:CFG_YAML", url, y])
        assert cfg.sinks.out_dir == "/tmp/from_yamluri"
        assert cfg.sinks.mode == "route"  # file: sibling key survived
        # drop the yaml: source → http wins; drop http → env: wins
        assert (
            load_config([f"file:{f}", "env:CFG_YAML", url]).sinks.out_dir
            == "/tmp/from_http"
        )
        assert (
            load_config([f"file:{f}", "env:CFG_YAML"]).sinks.out_dir
            == "/tmp/from_envuri"
        )
    finally:
        srv.shutdown()
    with pytest.raises(ConfigError, match="file not found"):
        load_config([f"file:{tmp_path}/nope.yaml"])
    with pytest.raises(ConfigError, match="env var not set"):
        load_config(["env:CFG_YAML_DOES_NOT_EXIST_12345"])
    with pytest.raises(ConfigError, match="unparsable YAML"):
        load_config(["yaml:pipeline: {sinks: {out_dir: ["])


def test_feature_gates(corpus):
    from opentelemetry_collector_ray.pipelines.config import (
        register_gate,
        resolve_gates,
    )

    spec = {
        "pipeline": {
            "source": {"type": "parquet", "paths": [corpus]},
            "stages": [],
            "sinks": {"mode": "single", "out_dir": "/tmp/unused"},
            "feature_gates": ["engine.sortedSinkWrites", "-engine.timeoutSender"],
        }
    }
    cfg = load_config(spec)
    assert cfg.gates["engine.sortedSinkWrites"] is True  # alpha, enabled
    assert cfg.gates["engine.timeoutSender"] is False  # beta, disabled
    # defaults when no gates given: alpha off, beta on
    cfg2 = load_config(_spec(corpus, "/tmp/unused"))
    assert cfg2.gates["engine.sortedSinkWrites"] is False
    assert cfg2.gates["engine.timeoutSender"] is True
    with pytest.raises(ConfigError, match="unknown feature gate"):
        resolve_gates(["engine.noSuchGate"])
    g = register_gate("engine.testStableGate", stage="stable")
    assert g.default is True
    with pytest.raises(ConfigError, match="stable"):
        resolve_gates(["-engine.testStableGate"])
    with pytest.raises(ConfigError, match="already registered"):
        register_gate("engine.testStableGate")


def test_timeout_sender_abandons_hung_attempt():
    """A hung write attempt is abandoned at the per-attempt deadline
    (timeout sender) and retried within policy; a fast second attempt
    succeeds."""
    import time as _time

    from opentelemetry_collector_ray.sinks.retry import (
        AttemptTimeout,
        RetryPolicy,
        retry_call,
    )

    sleeps = []
    policy = RetryPolicy(timeout=0.2, max_elapsed=30.0)
    policy.sleep = sleeps.append
    calls = {"n": 0}

    def hangs_once():
        calls["n"] += 1
        if calls["n"] == 1:
            _time.sleep(5.0)  # hung first attempt (abandoned thread)
        return "ok"

    t0 = _time.monotonic()
    assert retry_call(policy=policy, fn=hangs_once) == "ok"
    assert _time.monotonic() - t0 < 3.0  # did NOT wait out the hang
    assert calls["n"] == 2 and len(sleeps) == 1

    # deadline errors are retryable by classification, not permanent
    policy2 = RetryPolicy(timeout=0.05, max_elapsed=0.01)
    policy2.sleep = lambda _: None
    with pytest.raises(AttemptTimeout):
        retry_call(policy=policy2, fn=lambda: _time.sleep(1.0))


def test_sorted_sink_writes_gate(corpus, tmp_path):
    """engine.sortedSinkWrites: every written sink FILE is internally
    ordered by (conv_id, turn_idx)."""
    import glob

    import pyarrow.parquet as pq

    out = str(tmp_path / "sorted_sinks")
    spec = _spec(corpus, out)
    spec["pipeline"]["feature_gates"] = ["engine.sortedSinkWrites"]
    report = run_pipeline(spec)
    assert report["per_sink"]
    files = glob.glob(os.path.join(out, "sink=*", "*.parquet"))
    assert files
    for f in files:
        df = pq.read_table(f, columns=["conv_id", "turn_idx"]).to_pandas()
        assert (
            df.sort_values(["conv_id", "turn_idx"], kind="mergesort")
            .reset_index(drop=True)
            .equals(df.reset_index(drop=True))
        )


def test_register_custom_stage(corpus):
    calls = {}

    def my_builder(opts):
        def fn(batch):
            calls["n"] = calls.get("n", 0) + 1
            return batch

        return fn

    register_stage("my_custom", my_builder)
    cfg = load_config(
        {
            "pipeline": {
                "source": {"type": "parquet", "paths": [corpus]},
                "stages": [{"type": "my_custom"}],
                "sinks": {"mode": "single", "out_dir": "/tmp/unused"},
            }
        }
    )
    assert build_dataset(cfg).count() > 0
    with pytest.raises(ConfigError, match="already registered"):
        register_stage("my_custom", my_builder)


def test_processor_counters_gate(corpus, tmp_path):
    """engine.processorCounters: per-stage accepted/dropped obsreport
    counters recorded on the data plane (obs_processor.go names),
    exact vs the pipeline's own row counts."""
    import ray.data

    spec = {
        "pipeline": {
            "source": {"type": "parquet", "paths": [corpus]},
            "stages": [
                {"type": "parse"},
                {
                    "type": "filter",
                    "include": [["level", "in", ["WARN", "ERROR"]]],
                },
            ],
            "sinks": {"mode": "single", "out_dir": str(tmp_path / "out")},
            "feature_gates": ["engine.processorCounters"],
        }
    }
    report = run_pipeline(spec)
    n_in = ray.data.read_parquet(corpus).count()
    n_out = report["rows"]
    c = report["processor_counters"]
    assert c["processor/parse/accepted_log_records"] == n_in
    assert "processor/parse/dropped_log_records" not in c  # parse drops none
    assert c["processor/filter/accepted_log_records"] == n_out
    assert c["processor/filter/dropped_log_records"] == n_in - n_out
    # batch_send_size histogram: every stage emitted >= 1 block, and the
    # two stages saw the same number of blocks (1:1 batch mapping here)
    def hist_total(stage):
        return sum(
            v for k, v in c.items()
            if k.startswith(f"processor/{stage}/batch_send_size/")
        )
    assert hist_total("parse") >= 1
    assert hist_total("parse") == hist_total("filter")
    # ungated run carries no counter surface
    spec["pipeline"]["feature_gates"] = []
    assert "processor_counters" not in run_pipeline(spec)


def test_processor_counters_exact_across_stage_groups(corpus, tmp_path):
    """A rebatch splits the stages into two chains over many blocks:
    every chain waits for its counter add before returning a block, so
    the report holds each stage's exact counts and one batch_send_size
    bucket per block it emitted."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.stages.parse import parse_batch

    spec = {
        "pipeline": {
            "source": {"type": "parquet", "paths": [corpus]},
            "stages": [
                {"type": "rebatch", "name": "rebatch/in", "num_blocks": 12},
                {"type": "parse"},
                {
                    "type": "filter",
                    "include": [["level", "in", ["WARN", "ERROR"]]],
                },
                {"type": "rebatch", "name": "rebatch/mid", "num_blocks": 20},
                {"type": "condition_filter", "condition": "latency_ms >= 100"},
            ],
            "sinks": {"mode": "single", "out_dir": str(tmp_path / "out")},
            "feature_gates": ["engine.processorCounters"],
        }
    }
    report = run_pipeline(spec)
    parsed = parse_batch(pq.read_table(corpus))
    kept = parsed.filter(pc.is_in(parsed["level"], pa.array(["WARN", "ERROR"])))
    slow = kept.filter(pc.greater_equal(kept["latency_ms"], 100))
    assert 0 < slow.num_rows < kept.num_rows < parsed.num_rows
    assert report["rows"] == slow.num_rows
    want = {
        "processor/parse/accepted_log_records": parsed.num_rows,
        "processor/filter/accepted_log_records": kept.num_rows,
        "processor/filter/dropped_log_records": parsed.num_rows - kept.num_rows,
        "processor/condition_filter/accepted_log_records": slow.num_rows,
        "processor/condition_filter/dropped_log_records": kept.num_rows
        - slow.num_rows,
    }
    c = report["processor_counters"]
    assert {k: v for k, v in c.items() if k.endswith("_log_records")} == want
    blocks = {"parse": 12, "filter": 12, "condition_filter": 20}
    for stage, n in blocks.items():
        prefix = f"processor/{stage}/batch_send_size/"
        assert sum(v for k, v in c.items() if k.startswith(prefix)) == n


def test_retried_write_counts_each_stage_once(corpus, tmp_path, monkeypatch):
    """A retried sink write re-executes the dataset: the failed
    attempt's counter adds must not reach the report, so every stage's
    accepted count equals the rows read."""
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.sinks import retry, writers

    real_write = writers.atomic_write_parquet
    attempts = []

    def fails_once_after_writing(ds, out_dir, **kw):
        n = real_write(ds, out_dir, **kw)
        attempts.append(n)
        if len(attempts) == 1:
            raise OSError("injected: the write completed, then failed")
        return n

    monkeypatch.setattr(writers, "atomic_write_parquet", fails_once_after_writing)
    monkeypatch.setattr(retry.RetryPolicy, "sleep", staticmethod(lambda s: None))
    spec = {
        "pipeline": {
            "source": {"type": "parquet", "paths": [corpus]},
            "stages": [{"type": "parse"}, {"type": "enrich"}],
            "sinks": {"mode": "single", "out_dir": str(tmp_path / "out")},
            "feature_gates": ["engine.processorCounters"],
        }
    }
    report = run_pipeline(spec)
    n_in = pq.read_table(corpus).num_rows
    assert attempts == [n_in, n_in] and report["rows"] == n_in
    c = report["processor_counters"]
    assert c["processor/parse/accepted_log_records"] == n_in
    assert c["processor/enrich/accepted_log_records"] == n_in


def test_sorted_sized_write_runs_its_stages_once(corpus, tmp_path):
    """engine.sortedSinkWrites with min_rows_per_file sizes its blocks by
    the configured routes, not by a grouped count that executes the
    read and every stage before the write executes them again: each
    stage's accepted count equals the rows read, and every sink file
    is still internally ordered."""
    import glob

    import pyarrow.parquet as pq

    out = str(tmp_path / "sized")
    spec = _spec(corpus, out)
    spec["pipeline"]["sinks"]["min_rows_per_file"] = 200
    spec["pipeline"]["feature_gates"] = [
        "engine.sortedSinkWrites",
        "engine.processorCounters",
    ]
    report = run_pipeline(spec)
    n_in = pq.read_table(corpus).num_rows
    c = report["processor_counters"]
    assert c["processor/parse/accepted_log_records"] == n_in
    assert c["processor/enrich/accepted_log_records"] == n_in
    files = glob.glob(os.path.join(out, "sink=*", "*.parquet"))
    landed = {}
    for f in files:
        t = pq.read_table(f, columns=["conv_id", "turn_idx"])
        key = list(zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist()))
        assert key == sorted(key), f
        sink = os.path.basename(os.path.dirname(f))[len("sink=") :]
        landed[sink] = landed.get(sink, 0) + t.num_rows
    assert landed == report["per_sink"]


def test_condition_filter_stage_in_config_pipeline(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import run_pipeline

    src = tmp_path / "in"
    src.mkdir()
    t = pa.table(
        {
            "conv_id": ["c1", "c1", "c2"],
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "role": ["user", "tool", "user"],
            "text": [
                "[ERROR] action=boom latency_ms=500 msg=x",
                "[INFO] action=ok latency_ms=5 msg=y",
                "[ERROR] action=kaput latency_ms=1 msg=z",
            ],
            "tool": ["", "search", ""],
            "ts": pa.array([1, 2, 3], pa.timestamp("us")),
        }
    )
    pq.write_table(t, src / "part.parquet")
    out = tmp_path / "out"
    res = run_pipeline(
        {
            "pipeline": {
                "source": {"type": "parquet", "paths": [str(src)]},
                "stages": [
                    {"type": "parse"},
                    {
                        "type": "condition_filter",
                        "condition": "level == 'ERROR' and latency_ms >= 100",
                    },
                ],
                "sinks": {"mode": "single", "out_dir": str(out)},
            }
        }
    )
    kept = pq.read_table(out)
    assert kept.num_rows == 1
    assert kept["action"].to_pylist() == ["boom"]


def test_stage_chain_waits_for_its_counter_add():
    """A counted chain returns a block only after its counter add has
    been applied, so a snapshot after the write needs no settling."""
    import time

    import ray

    from opentelemetry_collector_ray.fixtures import gen_transcripts
    from opentelemetry_collector_ray.pipelines.builder import StageChain
    from opentelemetry_collector_ray.stages.parse import parse_batch

    @ray.remote(num_cpus=0)
    class SlowCounter:
        def __init__(self):
            self.seen = []

        def add_many(self, updates):
            time.sleep(0.3)
            self.seen.append(updates)

        def snapshot(self):
            return self.seen

    counter = SlowCounter.remote()
    ray.get(counter.snapshot.remote())  # actor started
    batch = gen_transcripts(5)
    t0 = time.perf_counter()
    StageChain([parse_batch], ["parse"], counter)(batch)
    assert time.perf_counter() - t0 >= 0.3
    assert ray.get(counter.snapshot.remote()) == [
        {
            "processor/parse/accepted_log_records": batch.num_rows,
            "processor/parse/batch_send_size/le_1024": 1,
        }
    ]


def test_cli_components_lists_registry():
    """`components` CLI (the otelcol components analogue): machine-
    readable inventory of sources, stages, sink modes, feature gates —
    no Ray session needed."""
    import json
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "opentelemetry_collector_ray", "components"],
        capture_output=True,
        text=True,
        cwd="/tmp",
        env={"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin"},
    )
    assert out.returncode == 0, out.stderr
    d = json.loads(out.stdout)
    assert "parse" in d["stages"] and "transform" in d["stages"]
    assert "parquet" in d["sources"]
    assert "engine.timeoutSender" in d["feature_gates"]


def test_storage_options_reach_filesystem(corpus, tmp_path):
    """configauth parity: per-source/per-sink YAML storage_options must
    reach the filesystem CONSTRUCTOR (recorded by a fake scheme), and
    both the read and the atomic write must route through that
    filesystem handle."""
    import shutil

    import pyarrow.fs as pafs
    import ray.data

    from opentelemetry_collector_ray.sources import wirefs

    root = str(tmp_path / "fsroot")
    os.makedirs(root + "/corpus", exist_ok=True)
    for f in os.listdir(corpus):
        shutil.copy(os.path.join(corpus, f), os.path.join(root, "corpus", f))
    calls = []

    def factory(**opts):
        calls.append(opts)
        return pafs.SubTreeFileSystem(root, pafs.LocalFileSystem())

    wirefs.register_scheme("mockfs", factory)
    try:
        report = run_pipeline(
            {
                "pipeline": {
                    "source": {
                        "type": "parquet",
                        "paths": ["mockfs://corpus"],
                        "storage_options": {"access_token": "sekrit-src"},
                    },
                    "stages": [{"type": "parse"}, {"type": "enrich"}],
                    "sinks": {
                        "mode": "single",
                        "out_dir": "mockfs://out",
                        "storage_options": {"access_token": "sekrit-sink"},
                    },
                }
            }
        )
    finally:
        del wirefs._SCHEME_FS["mockfs"]
    assert {"access_token": "sekrit-src"} in calls
    assert {"access_token": "sekrit-sink"} in calls
    n_in = ray.data.read_parquet(corpus).count()
    assert report["rows"] == n_in
    # the sink landed INSIDE the fake filesystem's root, atomically
    assert os.path.isdir(os.path.join(root, "out"))
    assert ray.data.read_parquet(os.path.join(root, "out")).count() == n_in
    assert not [d for d in os.listdir(root) if d.startswith(".tmp-")]


def test_unparsable_yaml_is_config_error(tmp_path):
    """Malformed YAML surfaces as ConfigError (the confmap contract:
    every CLI command reports `invalid: ...` + exit 1), never a raw
    yaml traceback — found by probing the validate CLI surface."""
    import pytest

    from opentelemetry_collector_ray.pipelines.config import (
        ConfigError,
        load_config,
    )

    p = tmp_path / "bad.yaml"
    p.write_text("bad yaml: [\n")
    with pytest.raises(ConfigError, match="unparsable YAML"):
        load_config(str(p))
    with pytest.raises(ConfigError, match="unparsable YAML"):
        load_config("{unclosed: [")
