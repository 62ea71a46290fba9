"""Dataset-level set operations — SQL ``INTERSECT`` / ``EXCEPT``.

The collector's set-like surface is union + dedup (fanout/union in
SURVEY.md §2.4; ``service/internal/graph`` wires fan-in as plain
stream union). A data engine also needs the other two relational set
operations, with SQL DISTINCT semantics: each side is reduced to
distinct rows, and a row is kept iff it appears on both sides
(intersect) or only on the left (except).

Shape (scale path, both sides large), through
``functions.shard.co_group``:

1. per-batch DISTINCT combiner on each side (an Arrow
   ``group_by(cols).aggregate([])`` — the shuffle then carries each
   distinct row once per batch, not once per occurrence), fused with
   the side's shard tag (hash of the FULL row) and side tag;
2. ONE co-grouping shuffle over the union of both sides;
3. per-shard vectorized pandas merge (inner for intersect,
   left-anti for except).

Skew is impossible: the shard key is a uniform hash of the whole row.
NULL caveat: SQL set ops treat NULLs as equal; the pandas merge in
step 3 does not (NaN != NaN), so rows with NULL key fields are never
matched — document inputs accordingly.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data

from .join import _as_pa_type
from .shard import co_group


def _set_op(
    a: ray.data.Dataset,
    b: ray.data.Dataset,
    *,
    anti: bool,
    shards: int | None,
) -> ray.data.Dataset:
    schema = a.schema()
    cols = list(schema.names)
    if list(b.schema().names) != cols:
        raise ValueError(
            f"set operation requires identical schemas: {cols} vs "
            f"{list(b.schema().names)}"
        )
    types = {n: _as_pa_type(t) for n, t in zip(schema.names, schema.types)}
    out_schema = pa.schema([pa.field(c, types[c]) for c in cols])

    def batch_distinct(t: pa.Table) -> pa.Table:
        return t.select(cols).group_by(cols).aggregate([])

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

    return co_group(
        [(a, batch_distinct), (b, batch_distinct)],
        cols,
        per_shard,
        shards=shards,
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
