"""Micro-batch tailing — the pull-source (scraper controller) analogue.

Reference: the scraper controller ticks every ``collection_interval``,
runs its scrape funcs and pushes the results down the same consumer
chain as push receivers (receiver/scraperhelper/scrapercontroller.go:
91-145,179-198). Batch restatement: poll an input directory; each tick,
hand the CURRENT file set to the incremental checkpoint runner
(state/checkpoint.py) — its hash-stable partition plan + input-drift
ledger means each tick processes exactly the partitions whose input set
changed (new or rewritten shards), nothing else. Atomic per-partition
swaps keep every tick's output consistent for concurrent readers.

Tailing a receiver spool (``state.receiver``): the open segment is
republished under the same name as durable pushes arrive, so the
partition that holds it drifts and reprocesses whole on every tick
while the segment grows; once sealed it is processed one last time.
The ledger keys an input as it was before its partition ran, so rows
published during a tick are picked up by the next one.

Termination: a sentinel file (``stop_file``) — the batch stand-in for
SIGTERM-triggered drain (service shutdown, graph.go:302-322): the loop
runs one final tick after seeing the sentinel so everything that
arrived before the stop is processed.
"""

from __future__ import annotations

import glob
import os
import time

from .checkpoint import run_partitioned


class ConfigWatcher:
    """Config hot-reload for the long-running services — the
    ``Collector.reloadConfiguration`` analogue (otelcol/collector.go:
    191-204: a confmap Watch event re-resolves config and rebuilds the
    pipeline without restarting the process).

    Use as the ``pipeline_fn`` of :func:`tail_run`: each call builds
    this tick's Dataset through the CURRENTLY-loaded stage chain;
    ``tail_run`` invokes :meth:`refresh` once per tick, which re-reads
    the YAML only when the file's mtime changed (the batch stand-in
    for a watch event — no inotify dependency). Reload semantics match
    the reference: the new config applies to work from the next tick
    onward; completed partitions stay completed (the checkpoint ledger
    is untouched — a config flip alone reprocesses nothing, only NEW
    or rewritten input goes through the new chain).

    Only ``source.columns`` and ``stages`` participate here —
    ``sinks`` belongs to ``tail_run``'s ``out_dir`` and the
    partitioned writer."""

    def __init__(self, config_path: str, env: dict | None = None):
        self.config_path = config_path
        self.env = env
        self.generation = 0
        self._mtime: int | None = None
        self.cfg = None
        self.refresh()

    def refresh(self) -> bool:
        """Re-resolve the config iff the file changed; returns whether
        a reload happened. ANY mid-run failure — invalid spec,
        half-saved YAML that doesn't even parse, or the file briefly
        missing during an editor's atomic save — keeps the previous
        good config (the reference logs and keeps serving on a bad
        reload; killing the tail loop on a half-saved edit would be
        worse). Only a bad INITIAL config is fatal."""
        from ..pipelines.config import load_config

        initial = self.cfg is None
        try:
            mt = os.stat(self.config_path).st_mtime_ns
        except OSError:
            if initial:
                raise
            return False  # file mid-save/missing: keep serving, retry next tick
        if mt == self._mtime:
            return False
        try:
            cfg = load_config(self.config_path, self.env)
        except Exception:
            if initial:
                raise
            self._mtime = mt  # don't re-parse the same bad file every tick
            return False
        self.cfg = cfg
        self._mtime = mt
        self.generation += 1
        return True

    def __call__(self, files):
        from ..pipelines.builder import _apply_stages
        from ..sources.parquet import read_parquet

        ds = read_parquet(
            files, columns=self.cfg.source.columns or None
        )
        return _apply_stages(ds, self.cfg)


def tail_run(
    input_glob: str,
    out_dir: str,
    pipeline_fn,
    *,
    num_partitions: int = 8,
    poll_interval: float = 1.0,
    stop_file: str | None = None,
    max_ticks: int | None = None,
    sleep=time.sleep,
    telemetry_out: str | None = None,
    telemetry_wire: str = "json",
) -> dict:
    """Poll-process loop. Returns cumulative stats
    ``{ticks, processed, total_rows}``.

    ``telemetry_out``: per-TICK self-telemetry export (the live half
    of service/telemetry.go:96 — a long-running service emits its
    counters while running, not only at exit): each tick lands the
    cumulative counter snapshot as an OTLP metrics wire file. Idle
    ticks (no progress since the last export) are skipped, so an idle
    tail loop doesn't accrete one file per poll."""
    from .telemetry import export_telemetry

    ticks = 0
    processed = 0
    total_rows = 0
    last = None
    last_exported: dict | None = None
    while True:
        stop = stop_file is not None and os.path.exists(stop_file)
        if hasattr(pipeline_fn, "refresh"):
            # config hot-reload point (ConfigWatcher): once per tick,
            # before this tick's partitions run
            pipeline_fn.refresh()
        files = sorted(glob.glob(input_glob))
        if files:
            last = run_partitioned(
                files, out_dir, pipeline_fn, num_partitions=num_partitions
            )
            processed += last["processed"]
            total_rows = last.get("total_rows", total_rows)
        ticks += 1
        if telemetry_out is not None:
            snap = {
                "engine/partitions_processed": processed,
                "receiver/accepted_log_records": int(total_rows),
            }
            if snap != last_exported:
                export_telemetry(
                    {**snap, "engine/ticks": ticks},
                    telemetry_out,
                    time.time_ns(),
                    wire=telemetry_wire,
                )
                last_exported = snap
        if stop:  # final drain tick already ran above
            break
        if max_ticks is not None and ticks >= max_ticks:
            break
        sleep(poll_interval)
    return {
        "ticks": ticks,
        "processed": processed,
        "total_rows": (last or {}).get("total_rows", 0),
        "out_dir": out_dir,
    }


import ray as _ray


@_ray.remote(num_cpus=0)
class SuppressionActor:
    """Cross-micro-batch log-dedup state — the streaming half of the
    logdedup idiom that the Dataset API cannot express (state must
    OUTLIVE each tick's dataset): a shared mutable map of
    fingerprint → last-seen tick, TTL-evicted. Each tick's batch asks
    once, vectorized, which of its fingerprints are fresh; duplicates
    within ``ttl_ticks`` of their last emission are suppressed. One
    actor per tail loop; at cluster scale, shard actors by
    ``fingerprint % n_actors`` (same uniform-hash story as every other
    shuffle key here)."""

    def __init__(self, ttl_ticks: int = 3):
        self.ttl = ttl_ticks
        self.last_seen: dict[int, int] = {}
        self.tick = 0

    def advance(self) -> int:
        """Start a new tick; evict entries past TTL."""
        self.tick += 1
        dead = [
            f for f, t in self.last_seen.items() if self.tick - t > self.ttl
        ]
        for f in dead:
            del self.last_seen[f]
        return self.tick

    def filter_fresh(self, fingerprints: list[int]) -> list[bool]:
        """For each fingerprint (in order): True = first sighting within
        the TTL window (emit), False = suppressed duplicate. Updates
        state as it goes, so duplicates WITHIN one call suppress too."""
        out = []
        for f in fingerprints:
            fresh = f not in self.last_seen
            if fresh:
                self.last_seen[f] = self.tick
            out.append(fresh)
        return out


def suppress_batch(table, actor, *, text_col: str = "text"):
    """Run one micro-batch through the suppression actor: hash the
    bodies with the 64-bit keyed siphash (vectorized; a 31-bit rolling
    hash would birthday-collide near ~65k live bodies and silently
    suppress DISTINCT records), one actor round-trip for the whole
    batch, filter to fresh rows."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    vals = table[text_col].to_numpy(zero_copy_only=False)
    fp = pd.util.hash_array(
        np.asarray(vals, dtype=object), hash_key="otelray-suppress"
    )
    fresh = _ray.get(actor.filter_fresh.remote([int(x) for x in fp]))
    return table.filter(pa.array(fresh))
