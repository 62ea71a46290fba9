"""Join primitives — the two shapes that matter at scale.

The collector core has no joins (SURVEY.md §2.7; enrichment = side
dictionaries). A data engine needs both:

- ``broadcast_join``: small side shipped once via ``ray.put`` (object
  store, shared per node), applied per batch as a pandas merge — no
  shuffle at all. Use when the small side ≪ worker memory (dimension
  tables).
- ``bucketed_hash_join``: both sides large — an explicit partitioned
  hash join: ``functions.shard.co_group`` tags both sides with the
  hash shard of the key, co-groups them with ONE Ray Data groupby over
  the union of both sides, and each shard merges its two sides inside
  ``map_groups``. Uniform shard keys (hash of the join key) make skew
  impossible unless one key value dominates — salt such keys into
  sub-keys and replicate the other side across the salt range.

The semi/anti, as-of and range joins here and the set operations in
``setops.py`` co-group through the same ``co_group``.

(Recent Ray ships ``Dataset.join``; this explicit form keeps the
partitioning assumptions visible and works on any 2.x.)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .shard import co_group


def broadcast_join(
    ds: ray.data.Dataset,
    small: pd.DataFrame,
    on: str | list[str],
    how: str = "inner",
) -> ray.data.Dataset:
    """Merge ``small`` (a pandas frame, broadcast once) into every
    batch. Only ``inner`` and ``left`` are expressible per-batch: a
    right/outer join would re-emit the small side's unmatched rows
    once per BATCH (results multiplied by block count) — flip the
    sides and use ``left``, or use ``bucketed_hash_join``. SQL join
    semantics for NULL keys: a NULL key matches nothing — pandas merge
    would instead pair NaN with NaN, so null keys are dropped from the
    small side (its rows never appear unmatched here), which keeps
    left-side null-key rows correctly unmatched."""
    if how not in ("inner", "left"):
        raise ValueError(
            f"broadcast_join: how={how!r} unsupported (a per-batch "
            "merge re-emits small-side unmatched rows once per batch)"
        )
    keys = [on] if isinstance(on, str) else list(on)
    small = small.dropna(subset=keys)
    ref = ray.put(small)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        rhs = ray.get(ref)
        if how == "inner":
            batch = batch.dropna(subset=keys)
        return batch.merge(rhs, on=on, how=how)

    return ds.map_batches(merge, batch_format="pandas")


def _as_pa_type(t) -> pa.DataType:
    """Normalize a Ray ``Schema.types`` entry to a pyarrow DataType.

    Arrow-backed datasets yield pyarrow types; pandas-backed ones yield
    numpy dtypes (object for strings)."""
    if isinstance(t, pa.DataType):
        return t
    try:
        dt = np.dtype(t)
    except TypeError:
        return pa.string()
    if dt == np.dtype("O"):
        return pa.string()
    return pa.from_numpy_dtype(dt)


def bucketed_hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    *,
    how: str = "inner",
    suffix: str = "_r",
    restore_ints: bool = True,
    schemas: tuple[dict, dict] | None = None,
) -> ray.data.Dataset:
    """Explicit partitioned hash join of two large datasets on ``on``.

    Both sides are padded to a common schema (null columns, cheap)
    and co-grouped by the key's hash shard (``co_group``: one shuffle
    covering both sides), and each shard is merged with a pandas hash
    join. Right-side name collisions get ``suffix``.

    ``schemas``: optional (left, right) dicts of column → pyarrow type.
    ``Dataset.schema()`` EXECUTES part of a lazy pipeline to discover
    types — on a long lineage that costs a full extra pass (measured:
    +2.3 s on the minhash verify). Callers that know their columns
    should pass them explicitly.
    """
    if schemas is not None:
        ltypes = {n: _as_pa_type(t) for n, t in schemas[0].items()}
        rtypes = {n: _as_pa_type(t) for n, t in schemas[1].items()}
        lcols, rcols = list(ltypes), list(rtypes)
    else:
        lschema = left.schema()
        rschema = right.schema()
        lcols = list(lschema.names)
        rcols = list(rschema.names)
        ltypes = {
            n: _as_pa_type(t) for n, t in zip(lschema.names, lschema.types)
        }
        rtypes = {
            n: _as_pa_type(t) for n, t in zip(rschema.names, rschema.types)
        }
    # disambiguate right-side collisions up front
    collide = [c for c in rcols if c in lcols and c != on]
    if collide:
        right = right.rename_columns({c: c + suffix for c in collide})
        rcols = [c + suffix if c in collide else c for c in rcols]
        rtypes = {c + suffix if c in collide else c: t for c, t in rtypes.items()}

    all_cols = lcols + [c for c in rcols if c != on]
    all_types = {**ltypes, **rtypes}

    # SQL join semantics: a NULL key matches nothing. pandas merge
    # instead matches NaN==NaN (found by the null-parity gate), so
    # null-key rows are dropped from any side whose rows cannot appear
    # unmatched in the output; sides whose unmatched rows ARE retained
    # (left side of a left join) keep them — the other side is then
    # null-free, so no NaN-NaN match can happen. A full outer join
    # retains null-key rows on BOTH sides, where that rule cannot hold:
    # refuse it rather than silently pair NaN with NaN.
    if how == "outer":
        raise ValueError(
            "bucketed_hash_join: how='outer' unsupported (pandas would "
            "match NULL keys to each other; SQL keeps them unmatched)"
        )
    lonly = [c for c in lcols if c != on]
    ronly = [c for c in rcols if c != on]

    # The null-padded union upcasts ints to float in pandas groups —
    # restore declared integer dtypes on the way out. Restoration must
    # be the SAME decision in every shard (a per-shard NaN check
    # would emit int64 blocks beside float64 blocks → schema drift),
    # so it is a static contract: inner joins restore ints and a
    # genuinely-null int column raises a clear error (pass
    # restore_ints=False for such data); outer joins always keep
    # float, since unmatched rows make NaN structurally possible.
    int_restore = (
        [c for c in all_cols if pa.types.is_integer(all_types[c])]
        if (restore_ints and how == "inner")
        else []
    )

    def merge_shard(g: pd.DataFrame) -> pd.DataFrame:
        lg = g.loc[g["_side"] == 0, [on] + lonly]
        rg = g.loc[g["_side"] == 1, [on] + ronly]
        merged = lg.merge(rg, on=on, how=how)
        try:
            return merged.astype(
                {c: "int64" for c in int_restore if c in merged}
            )
        except (ValueError, TypeError) as e:
            raise ValueError(
                "bucketed_hash_join: an integer column contains nulls; "
                "call with restore_ints=False to keep float output"
            ) from e

    def drop_null_keys(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch[on]))

    return co_group(
        [
            (left, drop_null_keys if how in ("inner", "right") else None),
            (right, drop_null_keys if how in ("inner", "left") else None),
        ],
        [on],
        merge_shard,
        columns={c: all_types[c] for c in all_cols},
    )


def _keyed_sides(
    left: ray.data.Dataset, right: ray.data.Dataset, key: str
) -> tuple[list[str], list[str], dict[str, pa.DataType]]:
    """The left's columns, the right's without ``key`` (the two must
    be disjoint) and the type of each, left first: the common schema
    of the as-of and range joins' co-group."""
    lschema, rschema = left.schema(), right.schema()
    lcols = list(lschema.names)
    rcols = [c for c in rschema.names if c != key]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"rename right-side columns first: {sorted(overlap)}")
    types = {
        **{n: _as_pa_type(t) for n, t in zip(lschema.names, lschema.types)},
        **{n: _as_pa_type(t) for n, t in zip(rschema.names, rschema.types)},
    }
    return lcols, rcols, {c: types[c] for c in lcols + rcols}


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    key: str,
    left_ts: str,
    right_ts: str,
    direction: str = "backward",
) -> ray.data.Dataset:
    """As-of join: for each left row, the latest right row with the same
    ``key`` and ``right_ts <= left_ts`` (backward search — DuckDB/kdb
    ASOF JOIN semantics). ``direction='forward'`` matches the EARLIEST
    right row with ``right_ts >= left_ts`` instead, ``'nearest'`` the
    closest in either direction (pd.merge_asof semantics). Inner: left
    rows with no match drop.

    Column names of the two sides must be disjoint except ``key``
    (rename before calling). Shape: both sides co-grouped by ``key``
    through one groupby (single shuffle), then ``pd.merge_asof`` over
    the ts-sorted group. Partitioning assumption: one key's history
    fits in a worker (true for per-entity event logs; for pathological
    keys, range-partition ts and carry the previous range's last row
    forward).
    """
    lcols, rcols, types = _keyed_sides(left, right, key)
    # the null-padded union upcasts ints to float in pandas groups —
    # restore the declared integer dtypes on the way out.
    int_cols = [c for c, t in types.items() if pa.types.is_integer(t)]

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        # pd.merge_asof(by=key) matches every key in the shard in one
        # vectorized pass — frames need only be globally sorted on the
        # time column (no per-key DataFrames)
        lg = g.loc[g["_side"] == 0, lcols].sort_values(
            left_ts, kind="mergesort"
        )
        rg = g.loc[g["_side"] == 1, [key] + rcols].sort_values(
            right_ts, kind="mergesort"
        )
        if rg.empty or lg.empty:
            out = lg.iloc[0:0].copy()
            for c in rcols:
                out[c] = pd.Series(dtype=rg[c].dtype if c in rg else object)
            return out.astype({c: "int64" for c in int_cols if c in out})
        merged = pd.merge_asof(
            lg,
            rg,
            left_on=left_ts,
            right_on=right_ts,
            by=key,
            direction=direction,
        )
        merged = merged.dropna(subset=[right_ts])
        return merged.astype({c: "int64" for c in int_cols if c in merged})

    return co_group(
        [(left, None), (right, None)], [key], per_shard, columns=types
    )


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    key: str,
    left_ts: str,
    right_ts: str,
    window,
) -> ray.data.Dataset:
    """Interval (range) join: EVERY (left, right) pair with the same
    ``key`` where ``right_ts <= left_ts <= right_ts + window`` — unlike
    the as-of join (latest single match), a left row matches all right
    rows whose window covers it. ``window`` is a ``pd.Timedelta`` (or
    anything addable to the ts dtype).

    Shape: same single-shuffle co-group as ``asof_join`` (both sides
    padded to a common schema and co-grouped on ``key``), then
    a per-shard pandas equi-merge on the key filtered by the time
    predicate. The per-key cartesian is bounded by per-key row counts —
    fine for per-entity event logs; salt a pathological hot key into
    time-range sub-buckets replicated across the boundary if one key
    dominates (same remedy as ``salted_join``)."""
    lcols, rcols, types = _keyed_sides(left, right, key)
    int_cols = [c for c, t in types.items() if pa.types.is_integer(t)]

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        lg = g.loc[g["_side"] == 0, lcols]
        rg = g.loc[g["_side"] == 1, [key] + rcols]
        merged = lg.merge(rg, on=key, how="inner")
        keep = (merged[left_ts] >= merged[right_ts]) & (
            merged[left_ts] <= merged[right_ts] + window
        )
        out = merged.loc[keep]
        return out.astype({c: "int64" for c in int_cols if c in out})

    return co_group(
        [(left, None), (right, None)], [key], per_shard, columns=types
    )


def bucketed_semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    *,
    anti: bool = False,
) -> ray.data.Dataset:
    """SEMI / ANTI join at scale: keep (semi) or drop (anti) the left
    rows whose key appears on the right — EXISTS / NOT EXISTS, left
    rows never duplicated.

    Shape: the right side collapses to per-batch DISTINCT keys first (a
    combiner — the shuffle then carries right keys once per batch, not
    once per row), both sides co-group on the key's hash shard (one
    shuffle), and each shard filters with a vectorized ``isin``. For a
    small right side prefer a broadcast set (`broadcast_join` idiom);
    this is the large-right path."""
    lschema = left.schema()
    lcols = list(lschema.names)
    ltypes = {n: _as_pa_type(t) for n, t in zip(lschema.names, lschema.types)}

    def distinct_keys(batch: pa.Table) -> pa.Table:
        return pa.table({on: pc.unique(batch[on])})

    # Emit Arrow with an explicit schema: an empty pandas block has no
    # inferable dtypes, and one schema-less block poisons Ray's schema
    # unification (the whole result surfaced as zero columns).
    out_schema = pa.schema([pa.field(c, ltypes[c]) for c in lcols])

    def filter_shard(g: pd.DataFrame) -> pa.Table:
        lg = g.loc[g["_side"] == 0, lcols]
        rkeys = g.loc[g["_side"] == 1, on]
        hit = lg[on].isin(set(rkeys))
        out = lg[~hit] if anti else lg[hit]
        return pa.Table.from_pandas(out, schema=out_schema, preserve_index=False)

    return co_group(
        [(left, None), (right.select_columns([on]), distinct_keys)],
        [on],
        filter_shard,
        columns=ltypes,
    )


def bloom_filtered_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    *,
    m_bits: int = 1 << 20,
    hashes: int = 4,
    suffix: str = "_r",
    schemas: tuple[dict, dict] | None = None,
) -> ray.data.Dataset:
    """Inner bucketed join with a Bloom pre-filter on the build side —
    the classic shuffle-volume reducer for selective joins: when most
    left rows have no right-side partner, shipping them into the join
    exchange is pure waste. The right side's keys are folded into one
    mergeable bitmap (`build_bloom`, OR-combined per block), broadcast
    ONCE, and left rows failing the membership probe are dropped
    BEFORE the shuffle. False positives only ride along and fail the
    real per-shard hash join, so inner-join results are exact; false
    negatives cannot occur. Size ``m_bits`` to the right side's key
    cardinality (~10 bits/key ≈ 1% FP)."""
    import ray as _ray

    from .sketch import bloom_filter_new, build_bloom

    # The build side is consumed twice (bloom build + join build) and,
    # without `schemas`, a third time for schema discovery — a lazy
    # right side would re-execute its whole lineage each time (measured
    # 5.4 s → 2.6 s on the sf0.1 gate query). It is the SMALL side by
    # contract, so pin it once.
    right = right.materialize()
    bloom = build_bloom(
        right.select_columns([on]), value=on, m_bits=m_bits, hashes=hashes
    )
    ref = _ray.put(bloom)
    flagged = bloom_filter_new(
        left, ref, value=on, m_bits=m_bits, hashes=hashes
    )
    filtered = flagged.map_batches(
        lambda t: t.filter(pc.equal(t["maybe_dup"], 1)).drop_columns(
            ["maybe_dup"]
        ),
        batch_format="pyarrow",
    )
    return bucketed_hash_join(
        filtered,
        right,
        on,
        how="inner",
        suffix=suffix,
        schemas=schemas,
    )


def salted_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    *,
    salt: int = 8,
    suffix: str = "_r",
) -> ray.data.Dataset:
    """Skew-aware inner join for HOT keys: a dominant join key would
    put its entire row set into one shard of `bucketed_hash_join`
    (one OOM-ing straggler at scale). Salting splits every left key's
    rows across ``salt`` sub-keys (per-batch round-robin — any
    distribution yields the identical join multiset) and replicates
    each right row once per sub-key, so a hot key's work spreads over
    ``salt`` reducers at the cost of a ``salt``× copy of the right
    side — the standard trade for large×small-but-hot joins. Integer
    join keys only (the composite sub-key is ``key·salt + s``)."""

    def _drop_null_keys(t: pa.Table) -> pa.Table:
        # SQL inner-join semantics: NULL keys match nothing — drop them
        # (a NaN cast would otherwise wrap into a real sub-key)
        if t[on].null_count:
            t = t.filter(pc.is_valid(t[on]))
        return t

    def salt_left(t: pa.Table) -> pa.Table:
        t = _drop_null_keys(t)
        k = t[on].to_numpy(zero_copy_only=False).astype(np.int64)
        s = np.arange(len(t), dtype=np.int64) % salt
        return t.append_column("_sk", pa.array(k * salt + s, pa.int64()))

    def replicate_right(t: pa.Table) -> pa.Table:
        t = _drop_null_keys(t)
        k = t[on].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(t)
        idx = np.repeat(np.arange(n), salt)
        reps = t.take(pa.array(idx))
        s = np.tile(np.arange(salt, dtype=np.int64), n)
        return reps.append_column(
            "_sk", pa.array(k[idx] * salt + s, pa.int64())
        )

    lsalted = left.map_batches(salt_left, batch_format="pyarrow")
    rsalted = right.map_batches(
        replicate_right, batch_format="pyarrow"
    ).drop_columns([on])
    joined = bucketed_hash_join(lsalted, rsalted, "_sk", suffix=suffix)
    return joined.drop_columns(["_sk"])
