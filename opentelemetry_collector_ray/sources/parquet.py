"""The engine's parquet read, sized to the cluster and to its rows.

Every engine parquet read goes through ``read_parquet`` here: the
sources, the sinks' read-backs, config pipelines and every query of
``__ray_entry__.py``. None calls ``ray.data.read_parquet``.

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

``ParquetDatasource.read_tasks`` keeps Ray's other two terms and drops
the floor:

    max(2 × cluster CPUs, ⌈estimated in-memory bytes / target_max_block_size⌉)

That rule is ``block_count``, the engine's one rule for a block or
shard count: ``functions/shard.auto_shards`` sizes the hash shards of
every sharded shuffle with it too, at 256 MB a shard.

The size term stays because ``ParquetDatasink.write`` lists a task's
blocks before writing them, so a fused read→write task holds all of
its read output at once; with the CPU term alone, 100 TB on 8k CPUs
would run about 16k tasks of about 6 GB each. The size is estimated
from file sizes on the read's own filesystem (one ``get_file_info``
call for the inputs, one listing per directory), times Ray's default
parquet encoding ratio.

``ParquetDatasource.batch_size`` sizes the batches a read task
yields. Ray's reader takes ``min(10_000, (target_max_block_size // 10)
÷ sampled row width)`` rows per batch
(``PARQUET_READER_ROW_BATCH_SIZE``,
``estimate_default_read_batch_size_rows``): its byte budget is
12.8 MiB, but the 10k-row cap binds for any row under 1.3 KB. Inside a
fused task each batch runs the stage chain once and is handed to the
partitioned write on its own, so a 65k-row transcript shard of
112-byte rows ran the chain 7 times. The planned ``batch_size`` keeps
the byte budget and drops the cap:

    (target_max_block_size // 10) ÷ (on-disk bytes × ENCODING_RATIO ÷ rows)

with the on-disk bytes and footer row counts of the inputs, with or
without a Ray session. The same shard is then one batch. Memory bound:
a batch holds about the budget when the data inflates at most
``ENCODING_RATIO``× from disk, the assumption Ray's own read-task
sizing makes; data that inflates more gets batches that much larger.
A batch never spans files, and a fused read→write task holds all of
its read output anyway (see above), so a batch never outgrows what its
task already holds.

``read_parquet`` plans the read on the driver with ``ParquetDatasource``
and hands it to ``ray.data.read_datasource``. Ray's own
``ParquetDatasource`` runs ``sample_fragments`` tasks on every
construction to estimate the encoding ratio and the batch rows, and no
``ray.data.read_parquet`` argument skips them: about 10 % of a one-CPU
``run_logs_pipeline`` pass. The plan here needs no task for a read of
up to 24 files:

- the files come from ``_list_files``, the listing that sizes the
  read (a directory gives its ``*.parquet`` files, hidden ``.``/``_``
  entries skipped as pyarrow's discovery skips them), so the reader
  reads exactly the files that sizing counted; ``scheme://`` inputs
  resolve through ``wirefs.resolve_fs``;
- each footer gives its file's row count and schema, fetched the way
  Ray fetches them (``ParquetMetadataProvider.prefetch_file_metadata``:
  on the driver up to 24 files, in tasks above that);
- the files are split into read tasks with ``np.array_split``, as Ray
  splits them; each task carries its footer rows (so ``count()`` runs
  no job), its on-disk bytes × ``ENCODING_RATIO`` and its files, and
  the read's column-projected schema;
- ``estimate_inmemory_data_size`` is the same on-disk ×
  ``ENCODING_RATIO`` figure, so Ray's ``SetReadParallelismRule`` splits
  blocks exactly as it did for ``ray.data.read_parquet``;
- a task reads its files one after another with ``use_threads=False``
  (as Ray's reader does), ``batch_size`` rows a batch, skips empty
  batches, and adds hive ``key=value`` directories as string columns,
  as Ray's ``PathPartitionParser`` does (``sink=007`` stays ``"007"``).
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.fs as pafs
import ray
import ray.data
from ray import cloudpickle
from ray.data.block import BlockAccessor, BlockMetadata
from ray.data.datasource import (
    Datasource,
    ParquetMetadataProvider,
    Partitioning,
    PathPartitionParser,
    ReadTask,
)

from . import wirefs

# In-memory bytes per on-disk byte: Ray's own default
# (PARQUET_ENCODING_RATIO_ESTIMATE_DEFAULT, ray/data/_internal/
# datasource/parquet_datasource.py). Ray sampled 5.6 on the transcript
# corpus (14.6 MB in memory, 2.62 MB on disk).
ENCODING_RATIO = 5

# Rows per read batch when the byte rule has no answer (no byte budget,
# or files with zero or unknown rows): Ray's reader cap
# (PARQUET_READER_ROW_BATCH_SIZE).
READER_BATCH_ROWS = 10_000

# CPUs a footer-fetch task reserves above 24 files: Ray's
# NUM_CPUS_FOR_META_FETCH_TASK.
FOOTER_TASK_CPUS = 0.5

_FORMAT = pads.ParquetFileFormat()
_HIVE = PathPartitionParser(Partitioning("hive"))


def _resolve(paths, filesystem=None):
    """``(filesystem, [path])``: an explicit ``filesystem`` takes the
    paths as given; otherwise the first path's scheme picks it
    (``wirefs.resolve_fs``, every entry on that filesystem) and local
    paths become absolute, so read tasks find them from any cwd."""
    paths = [paths] if isinstance(paths, str) else list(paths)
    if filesystem is None and paths:
        filesystem = wirefs.resolve_fs(paths[0])[0]
        paths = [
            wirefs.strip_scheme(p) if "://" in p else os.path.abspath(p)
            for p in paths
        ]
    return filesystem or pafs.LocalFileSystem(), paths


def _hidden(path: str, base: str) -> bool:
    """Whether a directory entry is hidden from a read the way pyarrow's
    dataset discovery hides it: a ``.`` or ``_`` name below ``base``."""
    rel = path[len(base):].strip("/")
    return any(part.startswith((".", "_")) for part in rel.split("/"))


def _list_files(paths, filesystem=None, extensions=("parquet",)):
    """``(filesystem, [FileInfo])`` of the files ``paths`` name; a
    directory contributes the non-hidden files under it that end in one
    of ``extensions`` (any file when None, as Ray's ``file_extensions``
    filter has it), sorted. Raises ``FileNotFoundError`` for a missing
    path."""
    fs, paths = _resolve(paths, filesystem)
    if not isinstance(fs, pafs.FileSystem):
        raise TypeError(f"not a pyarrow filesystem: {fs!r}")
    ends = None if extensions is None else tuple("." + e for e in extensions)
    files = []
    for info in fs.get_file_info(paths):
        if info.type == pafs.FileType.Directory:
            listed = fs.get_file_info(pafs.FileSelector(info.path, recursive=True))
            files += sorted(
                (
                    f
                    for f in listed
                    if f.type == pafs.FileType.File
                    and not _hidden(f.path, info.path)
                    and (ends is None or f.path.lower().endswith(ends))
                ),
                key=lambda f: f.path,
            )
        elif info.type == pafs.FileType.File:
            files.append(info)
        else:
            raise FileNotFoundError(info.path)
    return fs, files


def block_count(nbytes: int, target: int | None, *, cpus: int | None = None) -> int:
    """The engine's one rule for a read-task, block or shard count:
    max(2 × cluster CPUs, ⌈``nbytes`` ÷ ``target``⌉). The CPU term keeps
    every core busy through stragglers; the byte term bounds what one
    task holds as the data grows (no byte term without a ``target``).
    ``cpus`` defaults to the session's CPUs, or without a session the
    local machine's, which Ray Data's own start-up would give it."""
    if cpus is None:
        cpus = (
            int(ray.cluster_resources().get("CPU", 1))
            if ray.is_initialized()
            else os.cpu_count() or 1
        )
    size_term = -(-int(nbytes or 0) // target) if target else 1
    return max(2 * cpus, size_term, 1)


def _tasks(on_disk: int) -> int:
    target = ray.data.DataContext.get_current().target_max_block_size
    return block_count(on_disk * ENCODING_RATIO, target)


def file_tasks(paths, filesystem=None, extensions=None) -> int | None:
    """Read tasks for a whole-file read (``read_binary_files`` over the
    files ``extensions`` select, as ``_list_files`` selects them): the
    ``ParquetDatasource.read_tasks`` rule, but at most one task per
    file. Ray splits the output of a read given more tasks than files,
    and the pieces of a one-row file block come out empty and without
    columns. None (Ray's default) when Ray is not initialised, a path
    is missing or cannot be listed, a size is unknown or no file is
    found."""
    if not ray.is_initialized():
        return None
    try:
        files = _list_files(paths, filesystem, extensions)[1]
    except (OSError, TypeError, ValueError):
        return None
    if not files or any(f.size is None for f in files):
        return None
    return min(_tasks(sum(f.size for f in files)), len(files))


def _footers(fs, paths) -> list:
    """Each file's footer (``num_rows``, ``schema_pickled``), fetched by
    Ray's ``ParquetMetadataProvider``: on the driver up to 24 files, in
    Ray tasks above that."""
    ctx = ray.data.DataContext.get_current()
    got = ParquetMetadataProvider().prefetch_file_metadata(
        [_FORMAT.make_fragment(p, filesystem=fs) for p in paths],
        num_cpus=FOOTER_TASK_CPUS,
        scheduling_strategy=ctx.scheduling_strategy,
    ) or []
    return list(got) + [None] * (len(paths) - len(got))


def _rows_per_batch(on_disk: int, rows: int) -> int | None:
    """The byte rule: Ray's budget ``target_max_block_size // 10`` ÷
    (``on_disk`` × ``ENCODING_RATIO`` ÷ ``rows``), at least 1; None
    without a budget or rows. It needs no Ray session, so a read
    planned before ``ray.init`` keeps the byte bound."""
    target = ray.data.DataContext.get_current().target_max_block_size
    if not target or not rows:
        return None
    return max(1, int(target // 10 // (on_disk * ENCODING_RATIO / rows)))


def _read_files(fs, paths, columns, partition_columns, batch_size):
    """A read task: each file in turn, ``batch_size`` rows a batch, one
    thread; empty batches are skipped and hive ``key=value`` directories
    become string columns (those in ``partition_columns`` when it is
    not None)."""
    for path in paths:
        parts = _HIVE(path)
        if partition_columns is not None:
            parts = {k: v for k, v in parts.items() if k in partition_columns}
        fragment = _FORMAT.make_fragment(path, filesystem=fs)
        for batch in fragment.to_batches(
            columns=columns, batch_size=batch_size, use_threads=False
        ):
            if not batch.num_rows:
                continue
            table = pa.Table.from_batches([batch])
            for name, value in parts.items():
                if name not in table.column_names:
                    table = BlockAccessor.for_block(table).fill_column(name, value)
            yield table


class ParquetDatasource(Datasource):
    """An engine parquet read planned from its files' footers (see the
    module docstring): no sampling task, one footer read per file."""

    def __init__(self, paths, *, columns=None, filesystem=None, batch_size=None):
        self._fs, files = _list_files(paths, filesystem)
        self.files = [f.path for f in files]
        self._sizes = [f.size for f in files]
        self._on_disk = None if None in self._sizes else sum(self._sizes)
        footers = _footers(self._fs, self.files)
        self._rows = [None if m is None else m.num_rows for m in footers]
        self.columns = columns
        self._columns = self._partition_columns = None
        self._schema = None
        if footers and footers[0] is not None:
            schema = cloudpickle.loads(footers[0].schema_pickled)
            first_parts = _HIVE(self.files[0])
            for name in first_parts:
                if name not in schema.names:
                    schema = schema.append(pa.field(name, pa.string()))
            if columns is not None:
                self._columns = [c for c in columns if c not in first_parts]
                self._partition_columns = [c for c in columns if c in first_parts]
                schema = pa.schema([schema.field(c) for c in columns], schema.metadata)
            self._schema = schema
        if batch_size is None and self._on_disk is not None and None not in self._rows:
            batch_size = _rows_per_batch(self._on_disk, sum(self._rows))
        self.batch_size = batch_size

    def read_tasks(self) -> int | None:
        """Read tasks for the planned files: max(2 × cluster CPUs,
        ⌈estimated in-memory bytes / target_max_block_size⌉). None
        (Ray's default) without a Ray session or with a size unknown."""
        if not ray.is_initialized() or self._on_disk is None:
            return None
        return _tasks(self._on_disk)

    def estimate_inmemory_data_size(self) -> int | None:
        return None if self._on_disk is None else self._on_disk * ENCODING_RATIO

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        read = functools.partial(
            _read_files,
            self._fs,
            columns=self._columns,
            partition_columns=self._partition_columns,
            batch_size=self.batch_size or READER_BATCH_ROWS,
        )
        tasks = []
        for group in np.array_split(np.arange(len(self.files)), parallelism):
            if not len(group):
                continue
            files = [self.files[i] for i in group]
            rows = [self._rows[i] for i in group]
            sizes = [self._sizes[i] for i in group]
            meta = BlockMetadata(
                num_rows=None if None in rows else sum(rows),
                size_bytes=None if None in sizes else sum(sizes) * ENCODING_RATIO,
                input_files=files,
                exec_stats=None,
            )
            tasks.append(
                ReadTask(functools.partial(read, files), meta, schema=self._schema)
            )
        return tasks

    def get_name(self) -> str:
        return "Parquet"


def read_parquet(
    paths,
    *,
    columns=None,
    filesystem=None,
    override_num_blocks=None,
    parallelism=-1,
    batch_size=None,
) -> ray.data.Dataset:
    """An engine parquet read: ``ray.data.read_datasource`` over a
    ``ParquetDatasource``, with ``override_num_blocks`` from its
    ``read_tasks()`` and batches of its planned ``batch_size``. An explicit
    ``override_num_blocks`` or ``parallelism``, or an explicit
    ``batch_size``, from the caller is left alone."""
    source = ParquetDatasource(
        paths, columns=columns, filesystem=filesystem, batch_size=batch_size
    )
    kwargs = {}
    if parallelism != -1:
        kwargs["parallelism"] = parallelism
    elif override_num_blocks is None:
        override_num_blocks = source.read_tasks()
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    return ray.data.read_datasource(source, **kwargs)
