"""obsreport-style pipeline telemetry.

The reference records monotonic counters per component via paired
Start/End ops (obsreport/obsreport_receiver.go, obsreport_exporter.go)
with fixed names: receiver ``accepted_log_records`` /
``refused_log_records`` (internal/obsreportconfig/obsmetrics/
obs_receiver.go:31-45), processor ``accepted/refused/dropped``
(obs_processor.go:24-33), exporter ``sent_log_records`` /
``send_failed_log_records`` (obs_exporter.go:24-39).

Ray restatement: the counter names here, held where the counts are
made. Counts that reach the driver anyway stay a plain dict there:
``obsreport_counts`` builds the receiver-accepted and per-exporter sent
numbers from the per-sink counts the driver read from parquet footers
(``run_logs_pipeline``, the config runner's telemetry, the
``obs_counters`` query), and ``run_partitioned`` records per-partition
rows in its ledger. ``MetricsActor`` holds the counts made on the data
plane: with ``engine.processorCounters`` on, the config runner creates
one unnamed actor per write attempt (a retried write re-executes the
dataset into a fresh one) and hands it to every
``pipelines.builder.StageChain``, which waits for its one ``add_many``
per block before returning the block, so the snapshot read after the
write is exact. In batch mode ``refused`` and ``dropped`` are
structural zeros (backpressure replaces refusal; for the explicit
memorylimiterprocessor budget surface — per-worker RSS refusal with
hysteresis — see ``stages/memlimit.py``).
"""

from __future__ import annotations

import ray


@ray.remote(num_cpus=0)
class MetricsActor:
    """Monotonic-counter actor (the process-global otel meter
    instruments of the reference, minus the process)."""

    def __init__(self):
        self._counters: dict[str, int] = {}

    def add_many(self, updates: dict[str, int]) -> None:
        for name, value in updates.items():
            self._counters[name] = self._counters.get(name, 0) + int(value)

    def snapshot(self) -> dict[str, int]:
        return dict(self._counters)


def receiver_accepted(signal: str = "log_records") -> str:
    return f"receiver/accepted_{signal}"


def exporter_sent(sink: str, signal: str = "log_records") -> str:
    return f"exporter/{sink}/sent_{signal}"


def exporter_send_failed(sink: str, signal: str = "log_records") -> str:
    return f"exporter/{sink}/send_failed_{signal}"


def processor_dropped(stage: str, signal: str = "log_records") -> str:
    return f"processor/{stage}/dropped_{signal}"


def processor_accepted(stage: str, signal: str = "log_records") -> str:
    return f"processor/{stage}/accepted_{signal}"


def processor_refused(stage: str, signal: str = "log_records") -> str:
    return f"processor/{stage}/refused_{signal}"


def obsreport_counts(per_sink, accepted: int | None = None) -> dict[str, int]:
    """Receiver-accepted then per-sink exporter-sent counts, in
    ``per_sink`` order. Every row routes to exactly one non-``errors``
    sink (ERROR rows fan to ``errors`` as well), so with ``accepted``
    None the receiver count is the sum of the other sinks."""
    if accepted is None:
        accepted = sum(
            int(n) for sink, n in per_sink.items() if str(sink) != "errors"
        )
    out = {receiver_accepted(): int(accepted)}
    for sink, n in per_sink.items():
        out[exporter_sent(str(sink))] = int(n)
    return out
