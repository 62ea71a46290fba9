"""Scale-default regressions (round-3 verdict items 1/3/5): shard
counts must grow with cluster width AND input bytes, and the exact-dedup
content key must stay collision-free and deterministic."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data


def test_auto_shards_grows_with_cpus_and_bytes():
    """Shard counts come from the engine's one block-count rule at
    ``SHARD_BYTES`` a shard; its ``cpus`` argument stands in for a
    cluster of that width."""
    from opentelemetry_collector_ray.functions.shard import SHARD_BYTES, auto_shards
    from opentelemetry_collector_ray.sources.parquet import block_count

    def shards(size_bytes, cpus):
        return block_count(size_bytes, SHARD_BYTES, cpus=cpus)

    # cluster-width term: small input, shard count tracks 2×CPUs
    assert shards(0, cpus=16) == 32
    assert shards(0, cpus=256) == 512
    # bytes term: huge input, shard count tracks size/target
    tgt = 256 << 20
    assert SHARD_BYTES == tgt
    assert shards(1000 * tgt, cpus=16) == 1000
    # 100 TB sanity: per-shard bytes stay bounded at the target
    hundred_tb = 100 << 40
    n = shards(hundred_tb, cpus=2048)
    assert hundred_tb / n <= tgt
    # auto_shards is that rule at the session's width
    assert auto_shards(1000 * tgt) == 1000


def test_sharded_group_map_default_uses_cluster_width():
    """The old fixed shards=64 default is gone: with no explicit
    shards, the shard column is bounded by auto_shards (2×session
    CPUs here), and semantics are unchanged."""
    from opentelemetry_collector_ray.functions.shard import (
        auto_shards,
        sharded_group_map,
    )

    n = auto_shards(0)
    cpus = int(ray.cluster_resources().get("CPU", 16))
    assert n == 2 * cpus

    ds = ray.data.from_pandas(
        pd.DataFrame({"k": np.arange(1000) % 7, "v": np.arange(1000)})
    )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False)["v"].sum()

    out = (
        sharded_group_map(ds, ["k"], per_shard)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        pd.DataFrame({"k": np.arange(1000) % 7, "v": np.arange(1000)})
        .groupby("k", as_index=False)["v"]
        .sum()
    )
    pd.testing.assert_frame_equal(out, want)


def test_ann_auto_knobs_scale_with_corpus():
    """bits/nlist auto-derive from corpus rows × dim so a per-bucket /
    per-list group stays inside the worker budget at any scale."""
    from opentelemetry_collector_ray.stages.similarity import (
        auto_ivf_nlist,
        auto_lsh_bits,
    )

    b_small = auto_lsh_bits(10_000, 64)
    b_big = auto_lsh_bits(1_000_000_000, 768)
    assert b_big > b_small
    assert (1_000_000_000 * 768 * 8) >> b_big <= 64 << 20
    n_small = auto_ivf_nlist(10_000, 64)
    n_big = auto_ivf_nlist(1_000_000_000, 768)
    assert n_big > n_small
    assert 1_000_000_000 * 768 * 8 / n_big <= 64 << 20
    assert auto_ivf_nlist(4, 8) <= 4  # never more lists than rows


def test_lsh_topk_auto_bits_recall_at_two_corpus_sizes():
    """Recall holds with the knob auto-derived (bits=None) at two
    corpus sizes — the auto-sizing acceptance check."""
    from opentelemetry_collector_ray.stages.similarity import (
        brute_force_topk,
        lsh_topk,
    )

    rng = np.random.RandomState(7)
    for n in (200, 2000):
        vecs = rng.standard_normal((n, 32))
        t = pa.table(
            {
                "vec_id": np.arange(n, dtype=np.int64),
                "embedding": pa.array(list(vecs), type=pa.list_(pa.float64())),
            }
        )
        ds = ray.data.from_arrow(t)
        queries = {int(i): vecs[i] for i in range(0, n, n // 4)}
        brute = brute_force_topk(ds, queries, k=5)
        approx = lsh_topk(ds, queries, k=5, bits=None)
        recalls = []
        for qid in brute["query_id"].unique():
            b = set(brute[brute["query_id"] == qid]["vec_id"])
            a = set(approx[approx["query_id"] == qid]["vec_id"])
            recalls.append(len(a & b) / len(b))
        assert np.mean(recalls) >= 0.5, f"n={n}: {np.mean(recalls)}"


def test_content_key_vectorized_hash_matches_md5_grouping():
    """The 128-bit siphash content key groups texts exactly like a
    cryptographic hash would: equal texts collide, distinct texts
    don't, and keys are stable across calls (fixed hash keys)."""
    from opentelemetry_collector_ray.stages.dedup import content_key_columns

    texts = ["alpha beta", "gamma", "alpha beta", "", "gamma", "delta"]
    t = pa.table({"text": texts})
    out1 = content_key_columns(t, "text")
    out2 = content_key_columns(t, "text")
    k1 = list(zip(out1["_ck_a"].to_pylist(), out1["_ck_b"].to_pylist()))
    assert k1 == list(
        zip(out2["_ck_a"].to_pylist(), out2["_ck_b"].to_pylist())
    )
    groups = {}
    for txt, key in zip(texts, k1):
        groups.setdefault(key, set()).add(txt)
    assert all(len(v) == 1 for v in groups.values())  # no collisions
    assert len(groups) == len(set(texts))  # equal texts share keys
