"""Self-telemetry export — the engine's own counters over its own wire.

The reference serves its pipeline metrics on a live metrics endpoint
(service/telemetry.go:24-33,96 initPrometheus): accepted/sent/refused
counters are observable while the collector runs, in a standard wire
format any metrics backend ingests. The engine's counters were already
queryable as a table (``obs_counters``); this module closes the export
half: the config runner hands it one counter snapshot (the
``metrics.obsreport_counts`` of the run plus, with
``engine.processorCounters`` on, its ``MetricsActor`` snapshot), and it
lands that snapshot as an ``ExportMetricsServiceRequest`` through the
SAME OTLP metrics codec the data plane uses — so the engine's
telemetry is consumable by anything that reads OTLP metrics, including
the engine itself (``read_otlp_metrics_json``/``_pb``).

Encoding: each counter becomes one metric named after the obsreport
instrument (``receiver/accepted_log_records``,
``exporter/<sink>/sent_log_records``) with a monotonic CUMULATIVE Sum
branch and a single asInt datapoint — the pdata shape of a lifetime
counter (metrics.proto AggregationTemporality.CUMULATIVE=2, matching
the reference's prometheus counters which are likewise cumulative).
The json and pb files are rendered and landed by the data plane's own
request-file code (``otlp_json.render_ndjson`` / ``otlp_pb.render_pb``,
then ``otlp_json.land_payload``: atomic, content-addressed, any
pyarrow filesystem), so a per-tick ``tail_run`` export of the SAME
snapshot is idempotent — no duplicate wire files across ticks with
unchanged counters.
"""

from __future__ import annotations

from ..sources import wirefs
from ..sources.otlp_json import land_payload, render_ndjson
from ..sources.otlp_pb import SIGNALS, render_pb

AGG_TEMPORALITY_CUMULATIVE = 2


def telemetry_request_tree(
    snapshot: dict[str, int],
    ts_unix_nano: int,
    service_name: str = "otelray-engine",
) -> dict:
    """Counter snapshot → one ExportMetricsServiceRequest tree (the
    proto3-JSON dict both codecs share). Counters sort by name so the
    tree — and therefore the wire bytes and the content-addressed file
    name — are deterministic for a given snapshot."""
    metrics = [
        {
            "name": name,
            "sum": {
                "dataPoints": [
                    {
                        "timeUnixNano": str(int(ts_unix_nano)),
                        "asInt": str(int(value)),
                    }
                ],
                "aggregationTemporality": AGG_TEMPORALITY_CUMULATIVE,
                "isMonotonic": True,
            },
        }
        for name, value in sorted(snapshot.items())
    ]
    return {
        "resourceMetrics": [
            {
                "resource": {
                    "attributes": [
                        {
                            "key": "service.name",
                            "value": {"stringValue": service_name},
                        }
                    ]
                },
                "scopeMetrics": [
                    {
                        "scope": {
                            "name": "otelray.telemetry",
                            "version": "1.0",
                        },
                        "metrics": metrics,
                    }
                ],
            }
        ]
    }


def export_telemetry(
    snapshot: dict[str, int],
    out_dir: str,
    ts_unix_nano: int,
    *,
    wire: str = "json",
    compression: str | None = None,
    filesystem=None,
    storage_options: dict | None = None,
    service_name: str = "otelray-engine",
) -> str | None:
    """Land one counter snapshot as an OTLP metrics wire file
    (NDJSON or framed binary protobuf; ``out_dir`` may be a filesystem
    URI). Appends to the telemetry dir — unlike data sinks, a
    telemetry stream is cumulative across ticks by design, and the
    content-addressed names make re-exports of an unchanged snapshot
    no-ops. Returns the landed path (None for an empty snapshot)."""
    if not snapshot:
        return None
    tree = telemetry_request_tree(snapshot, ts_unix_nano, service_name)
    if wire == "json":
        payload, suffix = render_ndjson([tree]), ".json"
    elif wire == "pb":
        payload, suffix = render_pb(SIGNALS["metrics"], [tree]), ".binpb"
    elif wire == "prom":
        # Prometheus text exposition — the reference's actual
        # initPrometheus wire; timestamp-free by design (a scrape
        # endpoint serves current values), so re-exports of the same
        # snapshot collapse regardless of ts_unix_nano
        payload, suffix = render_prometheus(snapshot).encode(), ".prom"
    else:
        raise ValueError(f"unknown telemetry wire: {wire!r} (json|pb|prom)")
    fs, dir_path = wirefs.resolve_fs(out_dir, filesystem, storage_options)
    wirefs.ensure_dir(fs, dir_path)
    return land_payload(fs, dir_path, payload, compression, "telemetry", suffix)


def _prom_name(name: str) -> str:
    """Counter name → Prometheus metric name: non-[a-zA-Z0-9_:] chars
    become '_' (the reference's prometheus exporter applies the same
    sanitization to instrument names)."""
    import re

    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _prom_escape(v: str) -> str:
    """Label-value escaping per the exposition format spec: backslash,
    double-quote and newline must be escaped or a scraper misparses
    the sample (and our own parse regex would drop it)."""
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_unescape(v: str) -> str:
    """Single left-to-right pass — sequential str.replace cannot invert
    the escape (an escaped backslash followed by a literal 'n', as in
    'back\\' + 'nslash', would decode as a newline)."""
    import re

    return re.sub(
        r"\\(.)", lambda m: {"n": "\n"}.get(m.group(1), m.group(1)), v
    )


def render_prometheus(snapshot: dict[str, int]) -> str:
    """Counter snapshot → Prometheus text exposition format — the
    literal service/telemetry.go:96 initPrometheus surface. Samples
    carry the ORIGINAL instrument name as an `instrument` label
    (sanitization is lossy — 'a/b' and 'a_b' collide — so the label
    preserves the exact obsreport name for round-tripping). Exactly
    ONE `# TYPE <name> counter` line per sanitized metric name even
    when instruments collide onto it — a real scraper rejects the
    whole payload on a duplicate TYPE line — and label values are
    spec-escaped."""
    by_pn: dict[str, list[tuple[str, int]]] = {}
    for name, value in sorted(snapshot.items()):
        by_pn.setdefault(_prom_name(name), []).append((name, int(value)))
    lines = []
    for pn in sorted(by_pn):
        lines.append(f"# TYPE {pn} counter")
        for name, value in by_pn[pn]:
            lines.append(
                f'{pn}{{instrument="{_prom_escape(name)}"}} {value}'
            )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, int]:
    """Inverse of :func:`render_prometheus` (for scrape-side reads and
    the oracle gate): returns {original instrument name: value}."""
    import re

    out: dict[str, int] = {}
    sample = re.compile(
        r'^[a-zA-Z0-9_:]+\{instrument="((?:[^"\\]|\\.)*)"\} (-?\d+)$'
    )
    for line in text.splitlines():
        m = sample.match(line)
        if m:
            out[_prom_unescape(m.group(1))] = int(m.group(2))
    return out

