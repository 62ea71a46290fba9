"""The keyed co-group (``functions/shard.co_group``): every two-input
operator tags each side with its hash shard inside that side's own
map, unions the sides, merges a union known to hold more blocks than
shards down to the shard count and runs one groupby on the shard;
integer keys hash by value, nulls or not."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from opentelemetry_collector_ray.functions import join, setops
from opentelemetry_collector_ray.functions.shard import (
    auto_shards,
    co_group,
    known_block_count,
    sharded_group_map,
)


def _blocks(*tables: dict) -> ray.data.Dataset:
    """One block per table."""
    return ray.data.from_arrow([pa.table(t) for t in tables])


def _split(n: int, *tables: dict) -> ray.data.Dataset:
    """The rows of ``tables`` in ``n`` blocks (some may be empty)."""
    t = pa.concat_tables([pa.table(x) for x in tables])
    step = -(-len(t) // n)
    return ray.data.from_arrow([t.slice(i * step, step) for i in range(n)])


def test_sharded_group_map_keeps_a_nullable_int_key_in_one_shard():
    """A block with a null converts its int key to float64 in
    ``to_numpy``; the shard hash must still put each key of both
    blocks in one shard: 10 keys plus the null group."""
    ds = ray.data.from_arrow(
        [
            pa.table({"k": pa.array(list(range(10)) + [None], pa.int64())}),
            pa.table({"k": pa.array(range(10), pa.int64())}),
        ]
    )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        n = g.groupby("k", dropna=False).size()
        return pd.DataFrame({"k": n.index.to_numpy(), "n": n.to_numpy()})

    out = sharded_group_map(ds, ["k"], per_shard).to_pandas()
    assert len(out) == 11, out
    assert sorted(out.loc[out["k"].notna(), "n"]) == [2] * 10
    assert out.loc[out["k"].isna(), "n"].tolist() == [1]


def test_left_join_matches_keys_of_a_block_holding_a_null():
    keys = np.arange(1, 21, dtype=np.int64)
    left = ray.data.from_arrow(
        [
            pa.table(
                {
                    "k": pa.array(list(keys) + [None], pa.int64()),
                    "lv": pa.array(range(21), pa.int64()),
                }
            ),
            pa.table({"k": keys, "lv": np.arange(21, 41, dtype=np.int64)}),
        ]
    )
    right = _blocks({"k": keys, "rv": keys * 10})
    out = join.bucketed_hash_join(
        left, right, "k", how="left", restore_ints=False
    ).to_pandas()
    assert len(out) == 41
    hit = out.dropna(subset=["rv"])
    assert len(hit) == 40
    assert (hit["rv"] == hit["k"] * 10).all()
    assert out.loc[out["k"].isna(), "rv"].isna().all()


def _ops(ds: ray.data.Dataset) -> list:
    """The logical plan, each operator once, leaves first."""
    seen, order = set(), []

    def walk(op):
        if id(op) in seen:
            return
        seen.add(id(op))
        for dep in op.input_dependencies:
            walk(dep)
        order.append(op)

    walk(ds._logical_plan.dag)
    return order


def _maps_below(op) -> int:
    """``MapBatches`` operators from ``op`` down to its leaf."""
    n = 0
    while True:
        n += type(op).__name__ == "MapBatches"
        if not op.input_dependencies:
            return n
        (op,) = op.input_dependencies


def _two_input(name: str, n: int) -> ray.data.Dataset:
    """Operator ``name`` over two sides of ``n`` blocks each."""
    t = pd.Timestamp("2026-01-01")
    ts = [t + pd.Timedelta(minutes=m) for m in range(4)]
    left = _split(
        n,
        {"k": [1, 2], "lts": ts[:2], "lv": [1, 2]},
        {"k": [3, 4], "lts": ts[2:], "lv": [3, 4]},
    )
    right = _split(n, {"k": [1, 3], "rts": ts[:2]}, {"k": [4], "rts": ts[3:]})
    if name == "bucketed_hash_join":
        return join.bucketed_hash_join(left, right, "k")
    if name == "bucketed_semi_join":
        return join.bucketed_semi_join(left, right, "k")
    if name == "asof_join":
        return join.asof_join(left, right, key="k", left_ts="lts", right_ts="rts")
    if name == "range_join":
        return join.range_join(
            left, right, key="k", left_ts="lts", right_ts="rts",
            window=pd.Timedelta(hours=1),
        )
    pair = _split(n, {"x": [1, 2], "y": ["a", "b"]}, {"x": [3], "y": ["c"]})
    return setops.dataset_intersect(pair, pair)


OPERATORS = [
    "bucketed_hash_join", "bucketed_semi_join", "asof_join", "range_join",
    "dataset_intersect",
]


@pytest.mark.parametrize("name", OPERATORS)
def test_two_input_operators_share_one_co_group_plan(name):
    """Each side's shard tag is fused into that side's one map before
    the ``Union``; a union of more blocks than shards goes straight
    into one ``Repartition`` to the shard count and one ``Sort`` (the
    groupby on ``_shard``)."""
    ops = _ops(_two_input(name, auto_shards(0)))
    names = [type(op).__name__ for op in ops]
    assert names.count("Union") == 1, names
    union = ops[names.index("Union")]
    assert len(union.input_dependencies) == 2
    for side in union.input_dependencies:
        assert type(side).__name__ == "MapBatches", names
        assert _maps_below(side) == 1, names
    assert names.count("Repartition") == 1, names
    repartition = ops[names.index("Repartition")]
    assert repartition.input_dependencies == [union], names
    assert repartition._num_outputs == auto_shards(0)
    assert names.count("Sort") == 1, names
    assert names.index("Repartition") < names.index("Sort")


@pytest.mark.parametrize("name", OPERATORS)
def test_a_union_of_few_blocks_is_not_split(name):
    """Two 2-block sides at 2×CPUs shards: the trim only merges, so
    the union goes to the ``Sort`` without a ``Repartition``."""
    ops = _ops(_two_input(name, 2))
    names = [type(op).__name__ for op in ops]
    assert "Repartition" not in names, names
    assert names.count("Sort") == 1, names
    assert ops[names.index("Sort")].input_dependencies == [
        ops[names.index("Union")]
    ], names


def test_a_union_of_unknown_blocks_is_not_trimmed():
    """A side whose block count only execution would tell (here a
    groupby's output) leaves the union as it comes, and the co-group
    still groups both sides' rows."""
    many = _split(auto_shards(0) * 2, {"k": list(range(40))})
    counted = many.groupby("k").count()
    assert known_block_count(many) == auto_shards(0) * 2
    assert known_block_count(counted) is None

    def sizes(g: pd.DataFrame) -> pd.DataFrame:
        n = g.groupby("k").size()
        return pd.DataFrame({"k": n.index.to_numpy(), "n": n.to_numpy()})

    out = co_group(
        [(many, None), (counted, lambda t: t.select(["k"]))], ["k"], sizes
    )
    names = [type(op).__name__ for op in _ops(out)]
    assert "Repartition" not in names, names
    got = out.to_pandas()
    assert sorted(got["k"]) == list(range(40))
    assert (got["n"] == 2).all()


def test_known_block_count_of_reads_and_materialized_sides(tmp_path):
    """An engine read's count is its requested block count, also
    through a rename and a map; a materialized dataset's is its
    blocks."""
    from opentelemetry_collector_ray.sources.parquet import read_parquet

    pq.write_table(pa.table({"k": list(range(100))}), tmp_path / "k.parquet")
    ds = read_parquet(str(tmp_path / "k.parquet"), override_num_blocks=5)
    assert known_block_count(ds) == 5
    renamed = ds.rename_columns({"k": "key"}).map_batches(
        lambda t: t, batch_format="pyarrow"
    )
    assert known_block_count(renamed) == 5
    assert known_block_count(ds.materialize()) == 5


def test_connected_components_small_tier_runs_pairs_once(tmp_path):
    """The single-task tier takes its edges from the materialized
    ``edges``: a row-counting map in front of 3 pairs sees 3 rows."""
    from opentelemetry_collector_ray.stages.dedup import connected_components

    seen = tmp_path / "rows"
    seen.write_text("")

    def count_rows(t: pa.Table) -> pa.Table:
        with open(seen, "a") as f:
            f.write("x" * len(t))
        return t

    pairs = _blocks({"doc_a": [1, 2, 5], "doc_b": [2, 3, 6]}).map_batches(
        count_rows, batch_format="pyarrow"
    )
    nodes = _blocks({"doc_id": np.arange(1, 8, dtype=np.int64)})
    out = connected_components(pairs, nodes).to_pandas().sort_values("doc_id")
    assert len(seen.read_text()) == 3
    assert out["cluster_rep"].tolist() == [1, 1, 1, 4, 5, 5, 7]
