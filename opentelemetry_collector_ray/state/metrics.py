"""obsreport-style pipeline telemetry.

The reference records monotonic counters per component via paired
Start/End ops (obsreport/obsreport_receiver.go, obsreport_exporter.go)
with fixed names: receiver ``accepted_log_records`` /
``refused_log_records`` (internal/obsreportconfig/obsmetrics/
obs_receiver.go:31-45), processor ``accepted/refused/dropped``
(obs_processor.go:24-33), exporter ``sent_log_records`` /
``send_failed_log_records`` (obs_exporter.go:24-39).

Ray restatement: the counter names here, held where the counts are
made. A batch run whose counts all reach the driver keeps them in a
plain dict on the driver: ``run_logs_pipeline`` returns the receiver
and per-sink counts it read from parquet metadata, and
``run_partitioned`` records per-partition rows in its ledger — a
named actor per call would only add a worker-process start (a
non-detached named actor dies with its last handle). The named
``MetricsActor`` remains for counts made on the data plane: the
per-stage processor counters of ``pipelines.builder`` (sharded, one
fire-and-forget add per block, never per row) and the ``obs_counters``
query. In batch mode ``refused`` and
``dropped`` are structural zeros (backpressure replaces refusal; for
the explicit memorylimiterprocessor budget surface — per-worker RSS
refusal with hysteresis — see ``stages/memlimit.py``).
"""

from __future__ import annotations

import ray


@ray.remote(num_cpus=0)
class MetricsActor:
    """Named monotonic-counter actor (the process-global otel meter
    instruments of the reference, minus the process)."""

    def __init__(self):
        self._counters: dict[str, int] = {}

    def add(self, name: str, value: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + int(value)

    def add_many(self, updates: dict[str, int]) -> None:
        for name, value in updates.items():
            self._counters[name] = self._counters.get(name, 0) + int(value)

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        return dict(self._counters)


def get_metrics_actor(run_id: str = "default"):
    """Get-or-create the named metrics actor for a run."""
    name = f"otel_ray_metrics_{run_id}"
    return MetricsActor.options(name=name, get_if_exists=True).remote()


def counter_shard_count() -> int:
    """Data-plane counter shards: ~one per 16 cluster CPUs, capped.
    A single actor takes one fire-and-forget RPC per block from every
    counted stage — fine on one node, a hotspot on a 256-node cluster."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(1, min(16, cpus // 16))


def get_metrics_shards(run_id: str, n: int | None = None) -> list:
    """Get-or-create the n named counter shards for a run. Counts are
    merged (summed) at snapshot time — any add may land on any shard.
    The shard count is encoded into the run id by ``shard_run_id`` so
    the driver's decision reaches every worker verbatim (a worker
    recomputing it from cluster resources could desync on a resize)."""
    if n is None:
        n = int(run_id.rsplit("x", 1)[1]) if "x" in run_id else 1
    return [get_metrics_actor(f"{run_id}_s{i}") for i in range(n)]


def shard_run_id(base: str) -> str:
    """Append the driver-chosen shard count to the run id."""
    return f"{base}x{counter_shard_count()}"


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


def settle_snapshot(actor, *, attempts: int = 40, sleep_s: float = 0.05):
    """Snapshot the counter actor(s) once in-flight fire-and-forget
    adds have drained: per-stage counts are submitted asynchronously
    from map tasks (never awaited on the data plane), so a snapshot
    taken the instant the pipeline returns can race the last adds.
    Poll until two consecutive snapshots agree — each batch's add was
    submitted before its task finished, so agreement means the queue
    drained. ``actor`` may be one actor or a list of counter shards;
    shard snapshots merge by summing."""
    import time

    actors = actor if isinstance(actor, (list, tuple)) else [actor]

    def combined() -> dict:
        parts = ray.get([a.snapshot.remote() for a in actors])
        out: dict[str, int] = {}
        for p in parts:
            for k, v in p.items():
                out[k] = out.get(k, 0) + v
        return out

    time.sleep(2 * sleep_s)  # headroom for the final block's in-flight adds
    prev = combined()
    stable = 0
    for _ in range(attempts):
        time.sleep(sleep_s)
        cur = combined()
        if cur == prev:
            stable += 1
            if stable >= 2:  # two stable intervals, not one lucky poll
                return cur
        else:
            stable = 0
        prev = cur
    return prev
