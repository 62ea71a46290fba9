"""Self-telemetry export (service/telemetry.go:24-33,96 analogue):
engine counters → OTLP metrics wire → re-read through the engine's own
metrics codec, losslessly, on both wires."""

import glob
import os

import pytest
import ray

from opentelemetry_collector_ray.sources.otlp_metrics import (
    read_otlp_metrics_json,
)
from opentelemetry_collector_ray.sources.otlp_pb import read_otlp_metrics_pb
from opentelemetry_collector_ray.state.telemetry import (
    AGG_TEMPORALITY_CUMULATIVE,
    export_telemetry,
    telemetry_request_tree,
)

SNAP = {
    "receiver/accepted_log_records": 1000,
    "exporter/infra/sent_log_records": 400,
    "exporter/errors/sent_log_records": 37,
}
TS = 1_700_000_000_000_000_000


def test_tree_shape_is_cumulative_monotonic():
    tree = telemetry_request_tree(SNAP, TS)
    scope = tree["resourceMetrics"][0]["scopeMetrics"][0]
    names = [mt["name"] for mt in scope["metrics"]]
    assert names == sorted(SNAP)  # deterministic ordering
    for mt in scope["metrics"]:
        s = mt["sum"]
        assert s["aggregationTemporality"] == AGG_TEMPORALITY_CUMULATIVE
        assert s["isMonotonic"] is True
        assert s["dataPoints"][0]["asInt"] == str(SNAP[mt["name"]])


@pytest.mark.parametrize("wire", ["json", "pb"])
def test_export_roundtrip_both_wires(ray_session, tmp_path, wire):
    out = str(tmp_path / wire)
    path = export_telemetry(SNAP, out, TS, wire=wire)
    assert path and os.path.dirname(path) == out
    reader = read_otlp_metrics_json if wire == "json" else read_otlp_metrics_pb
    flat = reader(out).to_pandas()
    got = dict(zip(flat["metric_name"], flat["value"].astype(int)))
    assert got == SNAP
    # cumulative monotonic Sum survives the wire
    assert set(flat["temporality"]) == {AGG_TEMPORALITY_CUMULATIVE}
    assert set(flat["is_monotonic"]) == {True}
    assert set(flat["service"]) == {"otelray-engine"}
    assert set(flat["time_unix_nano"].astype(int)) == {TS}


def test_reexport_same_snapshot_is_idempotent(tmp_path):
    """Per-tick export with unchanged counters lands ONE file — the
    content-addressed name collapses re-exports."""
    out = str(tmp_path / "t")
    p1 = export_telemetry(SNAP, out, TS)
    p2 = export_telemetry(SNAP, out, TS)
    assert p1 == p2
    assert len(glob.glob(out + "/telemetry-*.json")) == 1
    # a CHANGED snapshot appends a new file (the cumulative stream)
    export_telemetry({**SNAP, "receiver/accepted_log_records": 2000}, out, TS)
    assert len(glob.glob(out + "/telemetry-*.json")) == 2


def test_empty_snapshot_exports_nothing(tmp_path):
    assert export_telemetry({}, str(tmp_path / "e"), TS) is None
    assert not os.path.exists(str(tmp_path / "e"))


def test_config_pipeline_telemetry_sink(ray_session, tmp_path):
    """The service.telemetry config section: a run lands its counter
    snapshot as an OTLP metrics wire file, and the exported per-sink
    sent counts equal the run report's."""
    from opentelemetry_collector_ray.pipelines.builder import run_pipeline
    from opentelemetry_collector_ray.fixtures import (
        write_transcript_corpus,
    )

    corpus = str(tmp_path / "corpus")
    write_transcript_corpus(corpus, 100, files=2)
    tel = str(tmp_path / "telemetry")
    report = run_pipeline(
        {
            "pipeline": {
                "source": {"type": "parquet", "paths": [corpus]},
                "stages": [{"type": "parse"}, {"type": "enrich"}],
                "sinks": {"mode": "route", "out_dir": str(tmp_path / "out")},
                "telemetry": {"out_dir": tel},
            }
        }
    )
    assert report["telemetry_path"]
    flat = read_otlp_metrics_json(tel).to_pandas()
    got = dict(zip(flat["metric_name"], flat["value"].astype(int)))
    for sink, n in report["per_sink"].items():
        assert got[f"exporter/{sink}/sent_log_records"] == int(n)
    assert got["receiver/accepted_log_records"] == sum(
        int(n) for s, n in report["per_sink"].items() if s != "errors"
    )


def test_telemetry_config_validation():
    from opentelemetry_collector_ray.pipelines.config import (
        ConfigError,
        load_config,
    )

    base = {
        "source": {"type": "parquet", "paths": ["x"]},
        "sinks": {"mode": "single", "out_dir": "/tmp/x"},
    }
    with pytest.raises(ConfigError, match="telemetry needs out_dir"):
        load_config({"pipeline": {**base, "telemetry": {}}})
    with pytest.raises(ConfigError, match="telemetry wire"):
        load_config(
            {
                "pipeline": {
                    **base,
                    "telemetry": {"out_dir": "/tmp/t", "wire": "xml"},
                }
            }
        )


def test_tail_run_per_tick_export(ray_session, tmp_path):
    """Long-running service half: tail_run lands a snapshot per
    PROGRESSING tick; idle ticks don't accrete files."""
    from opentelemetry_collector_ray.fixtures import (
        write_transcript_corpus,
    )
    from opentelemetry_collector_ray.state.tailer import tail_run

    spool = str(tmp_path / "spool")
    write_transcript_corpus(spool, 60, files=2)
    tel = str(tmp_path / "tel")
    stats = tail_run(
        spool + "/*.parquet",
        str(tmp_path / "out"),
        lambda files: ray.data.read_parquet(files),
        num_partitions=2,
        max_ticks=3,  # ticks 2-3 see no new files -> no new exports
        poll_interval=0.0,
        telemetry_out=tel,
    )
    assert stats["ticks"] == 3
    files = glob.glob(tel + "/telemetry-*.json")
    assert len(files) == 1
    flat = read_otlp_metrics_json(tel).to_pandas()
    got = dict(zip(flat["metric_name"], flat["value"].astype(int)))
    n_rows = ray.data.read_parquet(spool).count()
    assert got["receiver/accepted_log_records"] == n_rows
    assert got["engine/partitions_processed"] == 2


def test_prometheus_wire_roundtrip(tmp_path):
    """The literal initPrometheus surface: text exposition render +
    scrape-side parse are inverses; sanitized names carry the original
    instrument as a label (sanitization is lossy)."""
    from opentelemetry_collector_ray.state.telemetry import (
        parse_prometheus,
        render_prometheus,
    )

    text = render_prometheus(SNAP)
    assert "# TYPE receiver_accepted_log_records counter" in text
    assert 'instrument="receiver/accepted_log_records"' in text
    assert parse_prometheus(text) == SNAP
    # name-sanitization collisions stay distinguishable via the label,
    # AND render exactly one TYPE line for the shared sanitized name
    # (a scraper rejects a payload with duplicate TYPE lines)
    tricky = {"a/b": 1, "a_b": 2}
    rendered = render_prometheus(tricky)
    assert parse_prometheus(rendered) == tricky
    assert rendered.count("# TYPE a_b counter") == 1
    # label values are spec-escaped: quotes/backslashes/newlines in an
    # instrument name survive the round-trip instead of being dropped
    weird = {'q"uote': 3, "back\\slash": 4, "new\nline": 5}
    assert parse_prometheus(render_prometheus(weird)) == weird
    # adversarial: an escaped backslash followed by a LITERAL 'n' —
    # sequential str.replace unescaping decoded this as a newline
    adversarial = {"back\\nslash": 7, "\\\\n": 8, "end\\": 9}
    assert parse_prometheus(render_prometheus(adversarial)) == adversarial
    # export path lands a .prom file, idempotently (timestamp-free)
    out = str(tmp_path / "prom")
    p1 = export_telemetry(SNAP, out, TS, wire="prom")
    p2 = export_telemetry(SNAP, out, TS + 5, wire="prom")
    assert p1 == p2 and p1.endswith(".prom")
    assert parse_prometheus(open(p1).read()) == SNAP
