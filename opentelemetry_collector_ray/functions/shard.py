"""Bounded-group-count groupby: shard keys by hash, vectorize per shard.

``Dataset.groupby(k).map_groups(fn)`` invokes ``fn`` once per DISTINCT
KEY — a Python call plus a DataFrame construction per group. With
high-cardinality keys that per-group overhead dominates (measured at
sf0.1: ~30k LSH buckets → 3.3 s of pure dispatch for 80k rows; ~20k
conversation keys → seconds in the flagship derivation). Sharding fixes
the shape without changing semantics: hash the key columns into
``shards`` uniform buckets, group by the bucket — complete key groups
still co-locate, the shuffle moves the same rows — and run a VECTORIZED
per-shard function once per shard (pandas groupby/merge inside, C
speed). Group count is now ``shards`` (a cluster-width knob), not key
cardinality; skew is impossible because the shard key is a hash.

The per-shard function receives complete groups for MANY keys at once
and must itself respect key boundaries (e.g. a pandas groupby inside).

Two-input operators (joins, semi/anti joins, set operations) use the
same path through ``co_group``: each input side is tagged with its
shard and its side inside its own ``map_batches``, the sides are
unioned, and one groupby on the shard hands ``shard_fn`` every side's
rows of a shard at once. ``sharded_group_map`` is its one-input form.

The default shard count is ``auto_shards``, the engine's one
block-count rule (``sources.parquet.block_count``). A one-input shuffle
takes its input's blocks as they come (an engine read already comes
out in ``block_count`` blocks, not Ray's 200-block default); a union
of sides known to hold more than ``shards`` blocks is merged down to
``shards`` blocks first, because Ray's sort shuffle makes one output
partition per input block.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..sources.parquet import block_count

_FNV = np.uint64(0x100000001B3)
_SCRAMBLE = np.uint64(11400714819323198485)  # Fibonacci hashing constant
# pd.util.hash_array key (16 bytes) — fixes the string-hash family so
# shard assignment is deterministic across processes and runs.
_HASH_KEY = "otelray-shardkey"


def hash_columns(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Combined uint64 hash of the key columns, vectorized. Integer
    columns hash by value: a null becomes 0 first, so a key's hash does
    not depend on whether its block holds a null (``to_numpy`` turns
    such a block into float64 with NaN)."""
    h = np.zeros(len(t), dtype=np.uint64)
    for k in keys:
        col = t[k]
        if pa.types.is_integer(col.type):
            col = pc.fill_null(col, 0)
        vals = col.to_numpy(zero_copy_only=False)
        if vals.dtype.kind in "iu":
            hk = vals.astype(np.uint64) * _SCRAMBLE
        else:
            hk = pd.util.hash_array(
                np.asarray(vals, dtype=object), hash_key=_HASH_KEY
            )
        h = h * _FNV ^ hk
    return h


def shard_column(
    t: pa.Table, keys: list[str], shards: int, out: str = "_shard"
) -> pa.Table:
    s = (hash_columns(t, keys) % np.uint64(shards)).astype(np.int64)
    return t.append_column(out, pa.array(s))


# Bytes a hash shard is sized for: ``map_groups`` hands each shard to
# its function as one pandas DataFrame.
SHARD_BYTES = 256 << 20


def auto_shards(size_bytes: int) -> int:
    """Shard count that scales with BOTH cluster width and input size:
    ``sources.parquet.block_count`` at ``SHARD_BYTES`` a shard, i.e.
    ``max(2×CPUs, size/256 MB)``. ``map_groups`` materializes a whole
    shard as ONE pandas DataFrame, so a fixed count (the old
    ``shards=64`` default) means a 100 TB input puts ~1.6 TB on one
    reducer and caps the stage at 64-way parallelism regardless of
    cluster width. 2×CPUs keeps every core busy through stragglers;
    the bytes term bounds per-reducer memory as data grows."""
    return block_count(size_bytes, SHARD_BYTES)


def cheap_size_bytes(ds: ray.data.Dataset) -> int:
    """``ds.size_bytes()`` ONLY when it is free — the plan has already
    computed its output (materialized) — else 0. On a lazy transformed
    dataset ``size_bytes()`` EXECUTES the whole plan, which would run
    every upstream stage twice (measured: dup_spans 3.9 s → 25.8 s when
    the auto-shard default probed a lazy explode). Callers that know
    their input size pass ``size_hint_bytes`` instead."""
    try:
        if ds._plan.has_computed_output():  # metadata already in hand
            return int(ds.size_bytes() or 0)
    except Exception:
        pass
    return 0


def known_block_count(ds: ray.data.Dataset) -> int | None:
    """Blocks ``ds`` comes out in, from its plan alone, or None when
    only executing it would tell. Known for a materialized (or
    in-memory) dataset, and for a read with a requested block count
    (Ray splits each read task's output up to it) seen through maps
    that keep one output block per input block. Those maps may still
    split an oversized block at run time, so the count is a floor."""
    from ray.data._internal.logical.interfaces import SourceOperator
    from ray.data._internal.logical.operators.map_operator import (
        AbstractUDFMap,
        Project,
    )
    from ray.data._internal.logical.operators.read_operator import Read

    op = ds._logical_plan.dag
    while isinstance(op, (AbstractUDFMap, Project)):
        (op,) = op.input_dependencies
    if isinstance(op, Read):
        if op._parallelism > 0:
            return max(op._parallelism, op.estimated_num_outputs() or 0)
        return None
    if isinstance(op, SourceOperator) and op.output_data() is not None:
        return sum(len(bundle.blocks) for bundle in op.output_data())
    return None


def co_group(
    sides: Sequence[
        tuple[ray.data.Dataset, Callable[[pa.Table], pa.Table] | None]
    ],
    keys: list[str],
    shard_fn: Callable[[pd.DataFrame], pd.DataFrame | pa.Table],
    *,
    columns: dict[str, pa.DataType] | None = None,
    shards: int | None = None,
    size_hint_bytes: int | None = None,
) -> ray.data.Dataset:
    """Co-group the ``(dataset, prep)`` sides on the hash of ``keys``
    and call ``shard_fn`` once per shard with all of its rows, as one
    pandas frame without the ``_shard`` column. Each side runs one
    fused ``map_batches``: its ``prep`` (an Arrow batch function, or
    None), a pad to ``columns`` (column → type; missing columns become
    typed nulls, every side comes out in that order), the ``_shard``
    tag and, with two or more sides, an int8 ``_side`` tag (the side's
    position). Ray's sort shuffle makes one partition per input block,
    and a partition that gets no shard comes out empty and schema-less,
    so a union of sides whose block count is known from its plan
    (``known_block_count``) and exceeds ``shards`` is merged down to
    ``shards`` blocks with one ``repartition``. The trim only merges:
    a union of fewer or unknown blocks goes to the groupby as it comes.

    ``shards=None`` (the default) auto-scales via ``auto_shards``:
    2×cluster CPUs, raised by the bytes term when the input size is
    known — from ``size_hint_bytes`` or, for already-materialized
    sides, the plan's own metadata. The size is NEVER probed from a
    lazy plan (that would execute it)."""
    if shards is None:
        nbytes = (
            size_hint_bytes
            if size_hint_bytes is not None
            else sum(cheap_size_bytes(ds) for ds, _ in sides)
        )
        shards = auto_shards(nbytes)
    two_sided = len(sides) > 1

    def tagger(prep, side: int):
        def tag(t: pa.Table) -> pa.Table:
            if prep is not None:
                t = prep(t)
            if columns is not None:
                for c, typ in columns.items():
                    if c not in t.column_names:
                        t = t.append_column(c, pa.nulls(len(t), type=typ))
                t = t.select(list(columns))
            t = shard_column(t, keys, shards)
            if two_sided:
                side_tag = np.full(len(t), side, dtype=np.int8)
                t = t.append_column("_side", pa.array(side_tag))
            return t

        return tag

    tagged = [
        ds.map_batches(tagger(prep, i), batch_format="pyarrow")
        for i, (ds, prep) in enumerate(sides)
    ]
    both = tagged[0]
    if two_sided:
        both = both.union(*tagged[1:])
        counts = [known_block_count(ds) for ds, _ in sides]
        if None not in counts and sum(counts) > shards:
            both = both.repartition(shards)

    def run_shard(g: pd.DataFrame):
        out = shard_fn(g.drop(columns=["_shard"]))
        # emit ARROW blocks: a downstream groupby/aggregate over
        # pandas-format blocks is ~8× slower in Ray's sort shuffle
        # (measured 16 s vs 2 s on identical 162k-row partials)
        if isinstance(out, pd.DataFrame):
            return pa.Table.from_pandas(out, preserve_index=False)
        return out

    return both.groupby("_shard").map_groups(run_shard, batch_format="pandas")


def sharded_group_map(
    ds: ray.data.Dataset,
    keys: list[str],
    shard_fn: Callable[[pd.DataFrame], pd.DataFrame],
    *,
    shards: int | None = None,
    size_hint_bytes: int | None = None,
) -> ray.data.Dataset:
    """``groupby(keys).map_groups(fn)`` with group count bounded by
    ``shards``: the one-input ``co_group``. One shuffle (on the hash
    shard), one vectorized ``shard_fn`` call per shard."""
    return co_group(
        [(ds, None)],
        keys,
        shard_fn,
        shards=shards,
        size_hint_bytes=size_hint_bytes,
    )


def mult_hash(ids: "np.ndarray") -> "np.ndarray":
    """Seed-free Knuth multiplicative hash of integer ids:
    ``(id * 2654435761) % 2³²`` — exact in int64 while id < 3.5e9, and
    expressible verbatim in SQL so oracles stay bit-identical. The ONE
    shared definition used by `stratified_take`, `budget_select` and
    `kmeans_fit` init (any change must update their oracle SQL too)."""
    return (ids.astype(np.int64) * 2654435761) % (1 << 32)


# Ray Data's sort-based groupby cannot ORDER a string key column that
# mixes None with str (numpy object sort raises "'<' not supported");
# pandas groupby additionally DROPS NaN groups by default. SQL keeps a
# NULL group. Stages whose group key can be null route it through this
# sentinel around the shuffle and restore it on the way out. The value
# contains control bytes, so no real-world key collides — but must NOT
# end in NUL: numpy's fixed-width unicode strips trailing \x00 when a
# stage round-trips strings through a U-dtype array.
NULL_KEY = "\x00\x16<null-key>\x16"


def fill_null_key(t: pa.Table, key: str) -> pa.Table:
    """Arrow batch form: replace nulls in a string key column with the
    sentinel (no-op for null-free or non-string columns)."""
    col = t[key]
    if col.null_count and pa.types.is_string(col.type):
        idx = t.column_names.index(key)
        t = t.set_column(idx, key, pc.fill_null(col, NULL_KEY))
    return t


def restore_null_key(t: pa.Table, key: str) -> pa.Table:
    """Inverse of :func:`fill_null_key` (arrow batch form)."""
    col = t[key]
    if not pa.types.is_string(col.type):
        return t
    idx = t.column_names.index(key)
    masked = pc.if_else(
        pc.equal(col, NULL_KEY), pa.scalar(None, pa.string()), col
    )
    return t.set_column(idx, key, masked)


def cheap_row_count(ds: "ray.data.Dataset") -> int | None:
    """Row count from plan METADATA only (None when unknown) — on a
    lazy transformed dataset ``ds.count()`` executes the whole lineage
    once more (the same double-execution trap as ``cheap_size_bytes``).
    Callers needing only an order-of-magnitude knob should treat None
    as "pass the knob explicitly"."""
    try:
        n = ds._meta_count()
        return int(n) if n is not None else None
    except Exception:
        return None
