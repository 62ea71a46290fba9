"""The flagship logs pipeline: parse → enrich → route → aggregate.

The Ray restatement of the collector's one-pipeline steady state
(SURVEY.md §3.1 step 5): receiver (parquet read) → processors (one
``builder.StageChain`` per block, the synchronous consumer chain of
docs/design.md:77 re-expressed as a streaming block pipeline) → fanout
(route tagging) → exporters (per-sink partitioned parquet) → obsreport
counters (per-sink counts from the written files' parquet footers).

``run_logs_pipeline`` runs as ONE operator,
``ReadParquet->MapBatches(StageChain)->Write``: the chain is parse →
enrich → explode per sink → drop ``msg``, and each read task yields one
batch per shard (``sources/parquet.ParquetDatasource.batch_size``), so
each fused task calls the chain once per shard and lands one row group
per sink file.

All stages run ``batch_format="pyarrow"`` (zero-copy from the object
store). The only all-to-all operations are the tiny ``groupby("sink")``
over pre-aggregated partials and the optional per-sink sort, both noted
inline.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from ..stages.enrich import enrich_batch
from ..stages.parse import parse_batch
from ..stages.route import explode_sinks_batch, route_batch
from .builder import map_stages


def build_transcript_pipeline(ds: ray.data.Dataset) -> ray.data.Dataset:
    """transcripts → parsed + enriched + route-tagged (adds ``sinks``)."""
    return map_stages(ds, [parse_batch, enrich_batch, route_batch])


def drop_msg_batch(batch: pa.Table) -> pa.Table:
    """Drop the parser's free-text ``msg`` capture, which no sink keeps."""
    return batch.drop_columns(["msg"])


def _partial_sink_counts(batch: pa.Table) -> pa.Table:
    """Combiner: one (sink, n) row per sink per batch, so the global
    groupby shuffles O(sinks × blocks) rows instead of every record
    (pre-aggregation pattern — the batch processor's accumulate-then-emit
    shape, batch_processor.go:323-368, applied to counting)."""
    exploded = explode_sinks_batch(batch)
    counts = exploded.group_by("sink").aggregate([("sink", "count")])
    return counts.rename_columns(["sink", "n"])


def sink_counts(enriched: ray.data.Dataset):
    """Per-sink routed record counts — the exporter ``sent_log_records``
    numbers (obsmetrics/obs_exporter.go:37) as a pandas frame (sink, n).

    Combiner pattern: each block contributes ≤|sinks| partial rows, so
    the final combine is O(sinks × blocks) — small enough to finish on
    the driver (no all-to-all shuffle; at 10^6 blocks this is a few
    million tiny rows, still driver-sized; a ``groupby("sink")`` would
    shuffle the same partials through a full sort exchange for no win).
    """
    partials = enriched.map_batches(_partial_sink_counts, batch_format="pyarrow")
    pdf = partials.to_pandas()
    out = pdf.groupby("sink", as_index=False)["n"].sum()
    return out.sort_values("sink", kind="mergesort").reset_index(drop=True)


def run_logs_pipeline(
    input_paths,
    out_dir: str,
    *,
    run_id: str = "default",
) -> dict:
    """End-to-end run: read → parse → enrich → route → per-sink
    partitioned parquet + obsreport counter snapshot.

    The exploded (row, sink) stream is written ONCE with
    ``partition_cols=["sink"]`` — one scan feeds every exporter, the
    fanout never copies blocks, and each sink directory is independently
    re-readable (resumable layout).

    ``read_transcripts`` plans the read from the shards' footers (no
    sampling task) and sizes it to the cluster, so the read, the stage
    chain and the write fuse into one task per read task: two
    shards on one CPU run as 2 tasks and land 10 files (one per shard
    per sink), not 70 from Ray's split default read. ``msg`` is dropped
    by the chain's last member, not by a ``drop_columns`` operator of
    its own, so the plan is ``ReadParquet->MapBatches(StageChain)->
    Write``. The stage names are looked up in this module at call time,
    so a caller may rebind them (perfbench's traced run wraps each one
    in a span recorder).

    ``counters`` holds this call's obsreport numbers, built on the
    driver by ``state.metrics.obsreport_counts`` from counts it already
    has. ``run_id`` names the run for the caller; no state is keyed on
    it.
    """
    from ..sources.transcripts import read_transcripts
    from ..state import metrics as m

    from ..sinks.writers import write_sinks

    ds = read_transcripts(input_paths)
    exploded = map_stages(
        ds, [parse_batch, enrich_batch, explode_sinks_batch, drop_msg_batch]
    )
    # atomic one-pass fan-out write; per-sink counts are the obsreport
    # surface, counted at the exporter boundary like
    # obsreport_exporter.go:42-57.
    per_sink = write_sinks(exploded, out_dir)
    # answered from the read tasks' footer rows: no Ray Data job runs
    accepted = int(ds.count())
    return {
        "accepted": accepted,
        "per_sink": per_sink,
        "counters": m.obsreport_counts(per_sink, accepted),
    }
