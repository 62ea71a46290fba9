"""Dataset-level set operations — SQL ``INTERSECT`` / ``EXCEPT``.

The collector's set-like surface is union + dedup (fanout/union in
SURVEY.md §2.4; ``service/internal/graph`` wires fan-in as plain
stream union). A data engine also needs the other two relational set
operations, with SQL DISTINCT semantics: each side is reduced to
distinct rows, and a row is kept iff it appears on both sides
(intersect) or only on the left (except).

Shape (scale path, both sides large):

1. per-batch DISTINCT combiner on each side (an Arrow
   ``group_by(cols).aggregate([])`` — the shuffle then carries each
   distinct row once per batch, not once per occurrence);
2. hash of the FULL row → shard column, side tag;
3. ONE co-grouping shuffle over the union of both sides;
4. per-shard vectorized pandas merge (inner for intersect,
   left-anti for except).

Skew is impossible: the shard key is a uniform hash of the whole row.
NULL caveat: SQL set ops treat NULLs as equal; the pandas merge in
step 4 does not (NaN != NaN), so rows with NULL key fields are never
matched — document inputs accordingly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .join import _as_pa_type
from .shard import auto_shards, shard_column


def _set_op(
    a: ray.data.Dataset,
    b: ray.data.Dataset,
    *,
    anti: bool,
    shards: int | None,
) -> ray.data.Dataset:
    if shards is None:
        # size only when free (materialized inputs) — probing a lazy
        # plan would execute it; see shard.cheap_size_bytes
        from .shard import cheap_size_bytes

        shards = auto_shards(cheap_size_bytes(a) + cheap_size_bytes(b))
    schema = a.schema()
    cols = list(schema.names)
    if list(b.schema().names) != cols:
        raise ValueError(
            f"set operation requires identical schemas: {cols} vs "
            f"{list(b.schema().names)}"
        )
    types = {n: _as_pa_type(t) for n, t in zip(schema.names, schema.types)}
    out_schema = pa.schema([pa.field(c, types[c]) for c in cols])

    def prep(side: int):
        def fn(t: pa.Table) -> pa.Table:
            t = t.select(cols).group_by(cols).aggregate([])  # batch distinct
            t = shard_column(t, cols, shards)
            return t.append_column(
                "_side", pa.array(np.full(len(t), side, dtype=np.int8))
            )

        return fn

    both = a.map_batches(prep(0), batch_format="pyarrow").union(
        b.map_batches(prep(1), batch_format="pyarrow")
    )

    def per_shard(g: pd.DataFrame) -> pa.Table:
        da = g.loc[g["_side"] == 0, cols].drop_duplicates()
        db = g.loc[g["_side"] == 1, cols].drop_duplicates()
        if anti:
            m = da.merge(db, on=cols, how="left", indicator=True)
            out = m.loc[m["_merge"] == "left_only", cols]
        else:
            out = da.merge(db, on=cols, how="inner")
        # explicit Arrow schema: empty pandas blocks have no inferable
        # dtypes and would poison Ray's schema unification
        return pa.Table.from_pandas(
            out, schema=out_schema, preserve_index=False
        )

    return both.groupby("_shard").map_groups(
        lambda g: per_shard(g.drop(columns=["_shard"])),
        batch_format="pandas",
    )


def dataset_intersect(
    a: ray.data.Dataset, b: ray.data.Dataset, *, shards: int | None = None
) -> ray.data.Dataset:
    """SQL ``INTERSECT``: distinct rows present in both inputs."""
    return _set_op(a, b, anti=False, shards=shards)


def dataset_except(
    a: ray.data.Dataset, b: ray.data.Dataset, *, shards: int | None = None
) -> ray.data.Dataset:
    """SQL ``EXCEPT``: distinct rows of ``a`` not present in ``b``."""
    return _set_op(a, b, anti=True, shards=shards)
