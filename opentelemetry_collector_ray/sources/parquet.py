"""The engine's parquet read, sized to the cluster.

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
"""

from __future__ import annotations

import math

import pyarrow.fs as pafs
import ray
import ray.data

# In-memory bytes per on-disk byte: Ray's own default
# (PARQUET_ENCODING_RATIO_ESTIMATE_DEFAULT, ray/data/_internal/
# datasource/parquet_datasource.py). Ray sampled 5.6 on the transcript
# corpus (14.6 MB in memory, 2.62 MB on disk).
ENCODING_RATIO = 5


def _on_disk_bytes(paths, filesystem=None) -> int | None:
    """Total on-disk bytes of ``paths`` on ``filesystem`` (local when
    None); a directory counts the ``*.parquet`` files under it. None
    when any size is unknown."""
    sizes = []
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
                sizes += [
                    f.size
                    for f in listed
                    if f.type == pafs.FileType.File and f.path.endswith(".parquet")
                ]
            elif info.type == pafs.FileType.File:
                sizes.append(info.size)
            else:
                return None  # missing: Ray's own read reports it
    except (OSError, TypeError, ValueError):
        return None
    return None if None in sizes else sum(sizes)


def read_tasks(paths, filesystem=None) -> int | None:
    """Read tasks for ``paths``: max(2 × cluster CPUs, ⌈estimated
    in-memory bytes / target_max_block_size⌉). None (Ray's default)
    when Ray is not initialised or a size is unknown."""
    if not ray.is_initialized():
        return None
    on_disk = _on_disk_bytes(paths, filesystem)
    if on_disk is None:
        return None
    cpus = int(ray.cluster_resources().get("CPU", 1))
    target = ray.data.DataContext.get_current().target_max_block_size
    size_term = math.ceil(on_disk * ENCODING_RATIO / target) if target else 1
    return max(2 * cpus, size_term, 1)


def read_parquet(paths, **kwargs) -> ray.data.Dataset:
    """``ray.data.read_parquet`` with ``override_num_blocks`` from
    ``read_tasks``. An explicit ``override_num_blocks`` or
    ``parallelism`` from the caller is left alone."""
    if kwargs.get("override_num_blocks") is None and kwargs.get("parallelism", -1) == -1:
        n = read_tasks(paths, kwargs.get("filesystem"))
        if n is not None:
            kwargs["override_num_blocks"] = n
    return ray.data.read_parquet(paths, **kwargs)
