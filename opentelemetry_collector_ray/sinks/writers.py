"""Sink writers — the exporter analogues.

- ``atomic_write_parquet``: a ``.tmp-`` dir published with
  ``wirefs.publish`` (fsync, rename, directory fsync on a local disk),
  so a sink directory is either absent or complete — the
  idempotent-write half of the retry story (the reference retries
  sends with backoff,
  exporter/exporterhelper/queued_retry.go:353-449; a batch engine
  retries by rewriting the same partition, so writes must be atomic).
  Every write starts from ``WRITE_OPTIONS``.
- ``write_sinks``: the fan-out exporter — one pass, one partitioned
  write (``partition_cols=["sink"]``), every sink directory
  independently re-readable.
- ``landed_counts``: the ``sent_log_records`` numbers, summed from the
  parquet footers of the staged files just before they are published —
  counted once at the exporter boundary (obsmetrics/obs_exporter.go:37),
  never by scanning the written data a second time.
- ``logging_sink``: the logging/debug exporter
  (exporter/loggingexporter/logging_exporter.go:40-87) — counts
  records and shows a bounded sample instead of exporting.
"""

from __future__ import annotations

import glob
import logging
import os
import posixpath
import uuid

import pyarrow as pa
import pyarrow.dataset as pads
import ray.data

from ..sources import wirefs
from ..sources.parquet import read_parquet

logger = logging.getLogger(__name__)

# Parquet writer options every engine sink write starts from; a
# caller's kwargs (``sinks.compression``, ...) override them.
# - ``dictionary_pagesize_limit``: Arrow dictionary-encodes every column
#   and falls back to plain encoding only once a column chunk's
#   dictionary passes this size (1 MiB by default), so a near-unique
#   column (``text``: 44k distinct values in 84k routed rows) first
#   builds most of a 1 MiB dictionary. At 16 KiB it falls back after a
#   few hundred values, while the low-cardinality columns (sink, route,
#   role, level, tool) stay far under it and keep their dictionaries.
#   Writing the routed seed-11 corpus (167,652 rows, 10 files) in one
#   process took 0.066 s for 4.12 MB at Arrow's default, 0.063 s for
#   3.90 MB at 64 KiB and 0.060 s for 3.73 MB at 16 KiB (medians of 30
#   interleaved writes, one vCPU).
# - ``row_group_size``: Ray passes it to ``write_dataset`` as both the
#   min and the max rows per row group. Arrow's own maximum (1Mi rows)
#   as the minimum too makes each file under that one row group:
#   without it the dataset writer cuts every batch into 32Ki-row
#   slices, and a 65k-row batch lands two row groups per sink file
#   (3.61 MB instead of 3.73 MB, same write time).
WRITE_OPTIONS = {"dictionary_pagesize_limit": 16 * 1024, "row_group_size": 1 << 20}


def landed_counts(path: str, filesystem=None, key: str | None = None):
    """Rows in the parquet files under ``path``, summed from their
    footers — no data page is read and no Ray Data job runs. With
    ``key``, a dict of hive partition value → rows (``{}`` for an empty
    directory); pyarrow URI-decodes the ``key=value`` directory names,
    so any sink name round-trips. The key is typed string, never
    inferred: a sink named ``007`` stays ``"007"``. Files and
    directories starting with ``.`` or ``_`` are not counted."""
    partitioning = None
    if key is not None:
        partitioning = pads.HivePartitioning(pa.schema([(key, pa.string())]))
    dataset = pads.dataset(
        path, format="parquet", partitioning=partitioning, filesystem=filesystem
    )
    counts: dict[str, int] = {}
    for f in dataset.get_fragments():
        value = str(pads.get_partition_keys(f.partition_expression).get(key))
        counts[value] = counts.get(value, 0) + f.metadata.num_rows
    return dict(sorted(counts.items())) if key is not None else sum(counts.values())


def atomic_write_parquet(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    key: str | None = None,
    filesystem=None,
    storage_options: dict | None = None,
    **kwargs,
) -> int | dict[str, int]:
    """Write to ``out_dir`` atomically; returns the row count, or with
    ``key`` (a hive partition column) the dict of its value → rows
    (``landed_counts`` of the staged files, read before the publish).

    Each attempt runs ``wirefs.recover`` (an earlier crashed publish
    leaves debris, or the previous sink stranded in ``.old-``), writes
    a ``.tmp-`` dir on the same filesystem, then ``wirefs.publish``es
    it: ``out_dir`` is never half-complete. ``out_dir`` may be a local
    path or a filesystem URI (or ``filesystem``/``storage_options``
    explicit — the config/configauth credential plumbing); on an object
    store the publish is copy+delete, and per-partition ledger
    resumability carries the crash story at that scale (SCALE.md)."""
    fs, out_dir = wirefs.resolve_fs(out_dir, filesystem, storage_options)
    parent, base = posixpath.split(out_dir.rstrip("/"))
    # unique per ATTEMPT, not per pid: a timed-out attempt's abandoned
    # thread (sinks/retry.py) may still be writing in this process, and
    # a shared tmp dir would publish a blend of the two writes
    tmp = posixpath.join(
        parent, f".tmp-{base}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    )
    wirefs.recover(out_dir, fs)
    # created up front so an empty dataset still publishes an empty sink
    fs.create_dir(tmp, recursive=True)
    ds.write_parquet(tmp, filesystem=fs, **{**WRITE_OPTIONS, **kwargs})
    rows = landed_counts(tmp, fs, key=key)
    wirefs.publish(tmp, out_dir, fs)
    return rows if key is not None else int(rows)


def write_sinks(
    exploded: ray.data.Dataset,
    out_dir: str,
    *,
    sort_within: tuple[str, ...] | None = None,
    n_sinks: int | None = None,
    filesystem=None,
    storage_options: dict | None = None,
    **kwargs,
) -> dict:
    """One-pass atomic fan-out write of an exploded (…, sink) dataset;
    returns per-sink counts (the exporter sent_log_records numbers),
    summed from the footers of the written files (``landed_counts``).
    ``out_dir`` may be a filesystem URI (``storage_options`` →
    filesystem constructor, the configauth plumbing).

    ``sort_within``: sort each BLOCK by (sink, *sort_within) before the
    partitioned write — each output file is then internally ordered by
    ``sort_within`` (the §2.6 stable (conv_id, turn_idx) promise at the
    file level; per-file, not global — a global sort would be an
    unnecessary all-to-all). Gated by ``engine.sortedSinkWrites``.
    With ``min_rows_per_file`` it sizes blocks by the sink count:
    ``n_sinks`` when the caller knows it (a config run takes it from
    its routes), else a grouped count, which executes ``exploded`` once
    more before the write executes it again."""
    fs, out_dir = wirefs.resolve_fs(out_dir, filesystem, storage_options)
    if sort_within:
        if kwargs.get("min_rows_per_file"):
            # file coalescing would concatenate several sorted blocks
            # into one file (sorted runs, not a sorted file) — size the
            # BLOCKS to the file target instead and write one file per
            # block fragment, so per-file ordering survives. The
            # partitioned write splits each block into one fragment per
            # sink it contains, so scale the block target by the sink
            # count (a cheap combiner pass) or fragments land at
            # ~min_rows/n_sinks and re-create the small-files problem.
            from ..stages.batch import rebatch

            if n_sinks is None:
                from ..functions.agg import grouped_count_driver

                n_sinks = len(grouped_count_driver(exploded, ["sink"]))
            exploded = rebatch(
                exploded, int(kwargs.pop("min_rows_per_file")) * max(n_sinks, 1)
            )
        keys = [("sink", "ascending")] + [(c, "ascending") for c in sort_within]
        exploded = exploded.map_batches(
            lambda t: t.sort_by(keys), batch_format="pyarrow"
        )
    return atomic_write_parquet(
        exploded, out_dir, partition_cols=["sink"], key="sink", filesystem=fs, **kwargs
    )


def logging_sink(ds: ray.data.Dataset, *, sample: int = 5, name: str = "debug") -> dict:
    """Consume ``ds`` like the logging exporter: count + bounded sample.

    Streams (iter_batches) — never materializes; the sample is the
    first ``sample`` rows only.
    """
    total = 0
    head: list[dict] = []
    for batch in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        if len(head) < sample:
            head.extend(batch.slice(0, sample - len(head)).to_pylist())
        total += batch.num_rows
    logger.info("sink[%s]: %d records; sample=%r", name, total, head[:sample])
    return {"name": name, "records": total, "sample": head[:sample]}


def compact_parquet_dir(
    path: str, *, min_rows_per_file: int = 1_000_000, **read_kwargs
) -> dict:
    """Small-file compaction for sink directories: incremental runs and
    per-partition checkpointed writes accumulate many small parquet
    files; readers then pay per-file open/footer costs and tiny blocks
    (SCALE.md: block count must track data size, never file count).
    Rewrites ``path`` in place — read, re-bucket to
    ``min_rows_per_file``, atomic stage+swap — so a crash mid-compact
    leaves the original directory intact and a rerun is a no-op
    content-wise. Returns {files_before, files_after, rows}."""
    before = len(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
    # preserve a hive layout (route-mode sinks are partition_cols=
    # ["sink"]): top-level key=value dirs are re-written as partitions,
    # not flattened into loose files
    part_cols = sorted(
        {
            d.split("=", 1)[0]
            for d in os.listdir(path)
            if "=" in d and os.path.isdir(os.path.join(path, d))
        }
    )
    # the read turns the key=value directories back into string columns
    ds = read_parquet(path, **read_kwargs)
    write_kwargs = {"min_rows_per_file": min_rows_per_file}
    if part_cols:
        write_kwargs["partition_cols"] = part_cols
    rows = atomic_write_parquet(ds, path, **write_kwargs)
    after = len(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
    return {"files_before": before, "files_after": after, "rows": int(rows)}
