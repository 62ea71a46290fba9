"""Sink writers — the exporter analogues.

- ``atomic_write_parquet``: tmp-dir + rename so a sink directory is
  either absent or complete — the idempotent-write half of the retry
  story (the reference retries sends with backoff,
  exporter/exporterhelper/queued_retry.go:353-449; a batch engine
  retries by rewriting the same partition, so writes must be atomic).
  Every write starts from ``WRITE_OPTIONS``.
- ``write_sinks``: the fan-out exporter — one pass, one partitioned
  write (``partition_cols=["sink"]``), every sink directory
  independently re-readable.
- ``landed_counts``: the ``sent_log_records`` numbers, summed from the
  parquet footers of the files that landed — counted once at the
  exporter boundary (obsmetrics/obs_exporter.go:37), never by scanning
  the written data a second time.
- ``logging_sink``: the logging/debug exporter
  (exporter/loggingexporter/logging_exporter.go:40-87) — counts
  records and shows a bounded sample instead of exporting.
"""

from __future__ import annotations

import glob
import logging
import os
import shutil

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.fs as pafs
import ray.data

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


def _recover_and_clean(parent: str, base: str, out_dir: str) -> None:
    """Crash recovery for the two-rename swap below. The swap is two
    renames, so a crash can land BETWEEN them: ``out_dir`` absent, the
    previous good data stranded in ``.old-{base}-*``. Debris is cleaned
    for ANY pid (a pid-scoped cleanup would strand another process's
    crash leftovers forever); single-writer-per-sink is the config
    invariant (config.py rejects shared out_dirs), so nothing live is
    ever removed here."""
    olds = sorted(glob.glob(os.path.join(parent, f".old-{base}-*")))
    if olds and not os.path.exists(out_dir):
        # mid-swap crash: put the previous complete sink back first
        os.rename(olds[0], out_dir)
        olds = olds[1:]
    for p in olds + glob.glob(os.path.join(parent, f".tmp-{base}-*")):
        shutil.rmtree(p, ignore_errors=True)


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
    filesystem=None,
    storage_options: dict | None = None,
    **kwargs,
) -> int:
    """Write to ``out_dir`` atomically (tmp + swap); returns row count.

    A crashed write leaves either a ``.tmp-`` directory (cleaned by the
    next attempt) or — if the crash hits between the two swap renames —
    a missing ``out_dir`` plus the previous good data in ``.old-``,
    which the next attempt renames back before rewriting. ``out_dir``
    is never half-complete.

    ``out_dir`` may be a filesystem URI (or ``filesystem``/
    ``storage_options`` explicit — the config/configauth credential
    plumbing): non-local sinks stage into a ``.tmp-`` dir on the SAME
    filesystem and publish with ``fs.move``. On a true object store
    that move is copy+delete per file, not an atomic rename — the
    previous sink stays complete until the copy starts, and a torn
    publish is repaired by the next attempt's rewrite (per-partition
    ledger resumability is the real crash story at that scale; see
    SCALE.md)."""
    import uuid as _uuid

    if filesystem is not None or storage_options is not None or "://" in out_dir:
        from ..sources import wirefs

        fs, path = wirefs.resolve_fs(out_dir, filesystem, storage_options)
        if not isinstance(fs, pafs.LocalFileSystem):
            return _atomic_write_parquet_fs(ds, fs, path, **kwargs)
        out_dir = path  # resolved local path: fall through to the
        # os.rename swap below (a true atomic publish)

    parent = os.path.dirname(os.path.abspath(out_dir)) or "."
    os.makedirs(parent, exist_ok=True)
    base = os.path.basename(out_dir)
    # unique per ATTEMPT, not per pid: a timed-out attempt's abandoned
    # thread (sinks/retry.py timeout sender) may still be writing in
    # this same process while the retry attempt runs — pid-keyed paths
    # would mix the two writes into one tmp dir and the swap could
    # publish a half-written blend. With attempt-unique dirs, each
    # attempt's swap publishes only its OWN complete write (the
    # abandoned attempt either fails when its tmp is cleaned, or swaps
    # a complete dir — never a mix).
    attempt = f"{os.getpid()}-{_uuid.uuid4().hex[:8]}"
    tmp = os.path.join(parent, f".tmp-{base}-{attempt}")
    old = os.path.join(parent, f".old-{base}-{attempt}")
    _recover_and_clean(parent, base, out_dir)
    # write the replacement FIRST; only then swap — a crash mid-write
    # must leave the previous complete sink untouched (the retry
    # contract; rewriting in place would destroy good data). The tmp
    # dir exists up front so an empty dataset (zero files) still
    # publishes an empty sink.
    os.makedirs(tmp)
    ds.write_parquet(tmp, **{**WRITE_OPTIONS, **kwargs})
    rows = landed_counts(tmp)
    if os.path.exists(out_dir):
        os.rename(out_dir, old)
    os.rename(tmp, out_dir)
    shutil.rmtree(old, ignore_errors=True)
    return int(rows)


def _atomic_write_parquet_fs(
    ds: ray.data.Dataset, fs, out_dir: str, **kwargs
) -> int:
    """Non-local variant of the stage+swap, with the SAME previous-
    data-preserving discipline as the local two-rename path: stage into
    ``.tmp-``, move the live sink aside to ``.old-``, publish, delete
    the old copy — a crash between the two moves strands the previous
    good sink in ``.old-`` where the next attempt's recovery puts it
    back (deleting the live sink before publishing would lose BOTH
    generations on a crash; review finding, r4). ``fs.move`` is an
    atomic rename only where the store supports it; see the caller's
    docstring for the object-store caveat."""
    import uuid as _uuid

    parent, base = os.path.split(out_dir.rstrip("/"))
    attempt = f"{os.getpid()}-{_uuid.uuid4().hex[:8]}"
    prefix = f"{parent}/." if parent else "."
    tmp = f"{prefix}tmp-{base}-{attempt}"
    old = f"{prefix}old-{base}-{attempt}"
    # recovery + debris clean (mirrors _recover_and_clean): a mid-swap
    # crash left out_dir missing and the good data in some .old-
    olds = []
    for info in fs.get_file_info(
        pafs.FileSelector(parent or ".", recursive=False, allow_not_found=True)
    ):
        name = info.path.rsplit("/", 1)[-1]
        if name.startswith(f".old-{base}-"):
            olds.append(info.path)
        elif name.startswith(f".tmp-{base}-"):
            fs.delete_dir(info.path)
    olds.sort()
    if olds and fs.get_file_info(out_dir).type == pafs.FileType.NotFound:
        fs.move(olds[0], out_dir)
        olds = olds[1:]
    for p in olds:
        fs.delete_dir(p)
    fs.create_dir(tmp, recursive=True)
    ds.write_parquet(tmp, filesystem=fs, **{**WRITE_OPTIONS, **kwargs})
    rows = landed_counts(tmp, fs)
    if fs.get_file_info(out_dir).type != pafs.FileType.NotFound:
        fs.move(out_dir, old)
    fs.move(tmp, out_dir)
    if fs.get_file_info(old).type != pafs.FileType.NotFound:
        fs.delete_dir(old)
    return int(rows)


def write_sinks(
    exploded: ray.data.Dataset,
    out_dir: str,
    *,
    sort_within: tuple[str, ...] | None = None,
    filesystem=None,
    storage_options: dict | None = None,
    **kwargs,
) -> dict:
    """One-pass atomic fan-out write of an exploded (…, sink) dataset;
    returns per-sink counts (the exporter sent_log_records numbers),
    summed from the footers of the published files (``landed_counts``).
    ``out_dir`` may be a filesystem URI (``storage_options`` →
    filesystem constructor, the configauth plumbing).

    ``sort_within``: sort each BLOCK by (sink, *sort_within) before the
    partitioned write — each output file is then internally ordered by
    ``sort_within`` (the §2.6 stable (conv_id, turn_idx) promise at the
    file level; per-file, not global — a global sort would be an
    unnecessary all-to-all). Gated by ``engine.sortedSinkWrites``."""
    fs = None
    if filesystem is not None or storage_options is not None or "://" in out_dir:
        from ..sources import wirefs

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
            from ..functions.agg import grouped_count_driver
            from ..stages.batch import rebatch

            n_sinks = max(len(grouped_count_driver(exploded, ["sink"])), 1)
            exploded = rebatch(
                exploded, int(kwargs.pop("min_rows_per_file")) * n_sinks
            )
        keys = [("sink", "ascending")] + [(c, "ascending") for c in sort_within]
        exploded = exploded.map_batches(
            lambda t: t.sort_by(keys), batch_format="pyarrow"
        )
    atomic_write_parquet(
        exploded, out_dir, partition_cols=["sink"], filesystem=fs, **kwargs
    )
    return landed_counts(out_dir, fs, key="sink")


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
    # the directory goes to Ray unchanged so hive discovery still works
    ds = read_parquet(path, **read_kwargs)
    write_kwargs = {"min_rows_per_file": min_rows_per_file}
    if part_cols:
        write_kwargs["partition_cols"] = part_cols
    rows = atomic_write_parquet(ds, path, **write_kwargs)
    after = len(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
    return {"files_before": before, "files_after": after, "rows": int(rows)}
