"""The engine's parquet read, sized to the cluster and to its rows.

Ray's default read parallelism (``_autodetect_parallelism`` in
``ray/data/_internal/util.py``) is

    max(min(200, bytes / target_min_block_size),
        bytes / target_max_block_size,
        2 × CPUs)

The first term is a 200-block floor (``read_op_min_num_blocks``), cut
down only by the 1 MiB ``target_min_block_size``. On a small cluster
it splits each few-MB file into several blocks
(``ReadParquet->SplitBlocks(k)``), and a split read does not fuse with
the map stages and the sink write behind it. On one CPU the routed
write of two 7 MB shards ran 2 read tasks plus 14 map+write tasks and
landed 70 files a pass; sized here it runs 2 fused
``ReadParquet->…->Write`` tasks and lands 10.

``read_tasks`` keeps Ray's other two terms and drops the floor:

    max(2 × cluster CPUs, ⌈estimated in-memory bytes / target_max_block_size⌉)

The size term stays because ``ParquetDatasink.write`` lists a task's
blocks before writing them, so a fused read→write task holds all of
its read output at once; with the CPU term alone, 100 TB on 8k CPUs
would run about 16k tasks of about 6 GB each. The size is estimated
from file sizes on the read's own filesystem (one ``get_file_info``
call for the inputs, one listing per directory), times Ray's default
parquet encoding ratio. No probe dataset is built: each
``read_parquet`` construction samples the encoding ratio in a task.

``batch_rows`` sizes the batches a read task yields. Ray's reader
takes ``min(10_000, (target_max_block_size // 10) ÷ sampled row
width)`` rows per batch (``PARQUET_READER_ROW_BATCH_SIZE``,
``estimate_default_read_batch_size_rows``): its byte budget is
12.8 MiB, but the 10k-row cap binds for any row under 1.3 KB. Inside a
fused task each batch runs the stage chain once and is handed to the
partitioned write on its own, so a 65k-row transcript shard of
112-byte rows ran the chain 7 times. ``batch_rows`` keeps the byte
budget and drops the cap:

    (target_max_block_size // 10) ÷ (on-disk bytes × ENCODING_RATIO ÷ rows)

with the on-disk bytes and footer row counts of at most
``SAMPLE_FILES`` files spread over the inputs (Ray samples at most 10
files, in tasks; reading footers needs none). The same shard is then
one batch. Memory bound: a batch holds about the budget when the data
inflates at most ``ENCODING_RATIO``× from disk, the assumption Ray's
own read-task sizing makes; data that inflates more gets batches that
much larger. A batch never spans files, and a fused read→write task
holds all of its read output anyway (see above), so a batch never
outgrows what its task already holds.
"""

from __future__ import annotations

import math

import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray
import ray.data

# In-memory bytes per on-disk byte: Ray's own default
# (PARQUET_ENCODING_RATIO_ESTIMATE_DEFAULT, ray/data/_internal/
# datasource/parquet_datasource.py). Ray sampled 5.6 on the transcript
# corpus (14.6 MB in memory, 2.62 MB on disk).
ENCODING_RATIO = 5

# Files whose footers size a read batch: Ray samples at most as many to
# size its own (PARQUET_ENCODING_RATIO_ESTIMATE_MAX_NUM_SAMPLES).
SAMPLE_FILES = 10


def _listed_files(paths, filesystem=None, extensions=("parquet",)):
    """``(filesystem, [FileInfo])`` of the files ``paths`` name on
    ``filesystem`` (local when None); a directory contributes the files
    under it that end in one of ``extensions`` (any file when None, as
    Ray's ``file_extensions`` filter has it). None when any size is
    unknown."""
    ends = None if extensions is None else tuple("." + e for e in extensions)
    files = []
    try:
        paths = [paths] if isinstance(paths, str) else list(paths)
        if filesystem is None:
            if any("://" in p for p in paths):
                return None  # Ray resolves the URI's filesystem itself
            filesystem = pafs.LocalFileSystem()
        if not isinstance(filesystem, pafs.FileSystem):
            return None
        for info in filesystem.get_file_info(paths):
            if info.type == pafs.FileType.Directory:
                listed = filesystem.get_file_info(
                    pafs.FileSelector(info.path, recursive=True)
                )
                files += [
                    f
                    for f in listed
                    if f.type == pafs.FileType.File
                    and (ends is None or f.path.lower().endswith(ends))
                ]
            elif info.type == pafs.FileType.File:
                files.append(info)
            else:
                return None  # missing: Ray's own read reports it
    except (OSError, TypeError, ValueError):
        return None
    if any(f.size is None for f in files):
        return None
    return filesystem, files


def _on_disk_bytes(paths, filesystem=None) -> int | None:
    """Total on-disk bytes of the parquet files ``paths`` name (see
    ``_listed_files``)."""
    found = _listed_files(paths, filesystem)
    return None if found is None else sum(f.size for f in found[1])


def read_tasks(paths, filesystem=None) -> int | None:
    """Read tasks for ``paths``: max(2 × cluster CPUs, ⌈estimated
    in-memory bytes / target_max_block_size⌉). None (Ray's default)
    when Ray is not initialised or a size is unknown."""
    if not ray.is_initialized():
        return None
    on_disk = _on_disk_bytes(paths, filesystem)
    return None if on_disk is None else _tasks(on_disk)


def _tasks(on_disk: int) -> int:
    cpus = int(ray.cluster_resources().get("CPU", 1))
    target = ray.data.DataContext.get_current().target_max_block_size
    size_term = math.ceil(on_disk * ENCODING_RATIO / target) if target else 1
    return max(2 * cpus, size_term, 1)


def file_tasks(paths, filesystem=None, extensions=None) -> int | None:
    """Read tasks for a whole-file read (``read_binary_files`` over the
    files ``extensions`` select, as for ``_listed_files``): the
    ``read_tasks`` rule, but at most one task per file. Ray splits the
    output of a read given more tasks than files, and the pieces of a
    one-row file block come out empty and without columns. None (Ray's
    default) when Ray is not initialised, a size is unknown or no file
    is found."""
    if not ray.is_initialized():
        return None
    found = _listed_files(paths, filesystem, extensions)
    if not found or not found[1]:
        return None
    files = found[1]
    return min(_tasks(sum(f.size for f in files)), len(files))


def batch_rows(paths, filesystem=None) -> int | None:
    """Rows per read batch: Ray's byte budget ``target_max_block_size
    // 10`` ÷ the estimated in-memory row width, on-disk bytes ×
    ``ENCODING_RATIO`` ÷ footer rows over at most ``SAMPLE_FILES``
    files spread over the inputs; at least 1. None (Ray's default) when
    Ray is not initialised, the budget is unset, or a size or row count
    is unknown."""
    if not ray.is_initialized():
        return None
    target = ray.data.DataContext.get_current().target_max_block_size
    found = _listed_files(paths, filesystem)
    if not target or found is None or not found[1]:
        return None
    fs, files = found
    sample = files[:: -(-len(files) // SAMPLE_FILES)]  # every ⌈n / 10⌉th
    try:
        rows = sum(pq.read_metadata(f.path, filesystem=fs).num_rows for f in sample)
    except (OSError, ValueError):
        return None
    if not rows:
        return None
    width = sum(f.size for f in sample) * ENCODING_RATIO / rows
    return max(1, int(target // 10 // width))


def read_parquet(paths, **kwargs) -> ray.data.Dataset:
    """``ray.data.read_parquet`` with ``override_num_blocks`` from
    ``read_tasks`` and ``batch_size`` from ``batch_rows``. An explicit
    ``override_num_blocks`` or ``parallelism``, or an explicit
    ``batch_size``, from the caller is left alone."""
    fs = kwargs.get("filesystem")
    if kwargs.get("override_num_blocks") is None and kwargs.get("parallelism", -1) == -1:
        n = read_tasks(paths, fs)
        if n is not None:
            kwargs["override_num_blocks"] = n
    if kwargs.get("batch_size") is None:
        rows = batch_rows(paths, fs)
        if rows is not None:
            kwargs["batch_size"] = rows
    return ray.data.read_parquet(paths, **kwargs)
