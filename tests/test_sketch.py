"""HLL sketch accuracy + mergeability."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from opentelemetry_collector_ray.functions.sketch import HLL, _hash64, approx_distinct


def test_hll_accuracy_within_bound():
    hll = HLL(p=12)
    for true_n in (100, 5000, 50000):
        vals = np.arange(true_n)
        est = hll.estimate(hll.registers(_hash64(vals)))
        assert abs(est - true_n) / true_n < 0.05, (true_n, est)


def test_hll_merge_equals_single_pass():
    hll = HLL(p=12)
    vals = np.arange(30000)
    whole = hll.registers(_hash64(vals))
    merged = np.maximum(
        hll.registers(_hash64(vals[:17000])),
        hll.registers(_hash64(vals[12000:])),  # overlapping halves
    )
    assert np.array_equal(whole, merged)


def test_approx_distinct_vs_exact():
    n = 10000
    df = pd.DataFrame(
        {
            "g": np.where(np.arange(n) % 2 == 0, "a", "b"),
            "v": np.arange(n) % 900,
        }
    )
    ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(8)
    approx = approx_distinct(ds, group="g", value="v")
    exact = df.groupby("g")["v"].nunique()
    for _, row in approx.iterrows():
        true_n = exact[row["g"]]
        assert abs(row["approx_n"] - true_n) / true_n < 0.05


def test_heavy_hitters_finds_true_heavy_items_with_valid_bounds():
    from opentelemetry_collector_ray.functions.sketch import heavy_hitters

    rng = np.random.RandomState(3)
    vals = rng.zipf(1.5, size=50_000)
    vals = vals[vals < 100_000]
    df = pd.DataFrame({"v": vals.astype(np.int64)})
    ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(8)
    out = heavy_hitters(ds, value="v", k=256, top=20)
    true = df["v"].astype(str).value_counts()
    # every true top-10 item must survive (freq >> n/k)
    got_items = set(out["item"])
    for item in true.head(10).index:
        assert item in got_items
    # estimates never overcount and stay within the reported bound
    for _, row in out.iterrows():
        t = int(true[row["item"]])
        assert row["est_count"] <= t
        assert t - row["est_count"] <= row["max_err"]


def test_heavy_hitters_exact_when_k_exceeds_cardinality():
    from opentelemetry_collector_ray.functions.sketch import heavy_hitters

    df = pd.DataFrame({"v": (np.arange(1000) % 7).astype(np.int64)})
    ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(4)
    out = heavy_hitters(ds, value="v", k=64, top=10)
    assert out["max_err"].eq(0).all()
    true = df["v"].astype(str).value_counts()
    assert len(out) == 7
    for _, row in out.iterrows():
        assert row["est_count"] == int(true[row["item"]])


def test_heavy_hitters_query_refuses_cardinality_above_k(tmp_path):
    """The `heavy_hitters` query's exact oracle holds only while the
    user cardinality stays under k=512: above it the query raises
    instead of returning estimates the oracle would hash-mismatch."""
    import pyarrow.parquet as pq

    import __ray_entry__ as em

    users = np.r_[np.arange(600), np.zeros(400, dtype=np.int64)]
    pq.write_table(
        pa.table({"user_id": users.astype(np.int64)}),
        tmp_path / "events.parquet",
    )
    with pytest.raises(ValueError, match="cardinality exceeds k=512"):
        em.queries()["heavy_hitters"](str(tmp_path))


def test_bloom_no_false_negatives_and_low_fp_rate():
    from opentelemetry_collector_ray.functions.sketch import (
        bloom_filter_new,
        build_bloom,
    )
    import ray

    old_texts = [f"document body number {i}" for i in range(2000)]
    dup_texts = old_texts[::40]  # 50 true dups
    new_texts = [f"fresh incoming text {i}" for i in range(1000)]
    old = ray.data.from_arrow(
        pa.table({"text": old_texts})
    ).repartition(8)
    incoming = ray.data.from_arrow(
        pa.table(
            {
                "text": dup_texts + new_texts,
                "is_dup": [1] * len(dup_texts) + [0] * len(new_texts),
            }
        )
    ).repartition(4)
    bloom = build_bloom(old, value="text")
    out = (
        bloom_filter_new(incoming, ray.put(bloom), value="text")
        .to_pandas()
    )
    dups = out[out["is_dup"] == 1]
    assert dups["maybe_dup"].eq(1).all()  # a Bloom filter NEVER misses
    fresh = out[out["is_dup"] == 0]
    assert fresh["maybe_dup"].mean() < 0.05  # ~1% expected at 10 bits/key


def test_bloom_merge_is_block_layout_invariant():
    from opentelemetry_collector_ray.functions.sketch import build_bloom

    texts = pa.table({"text": [f"t-{i}" for i in range(5000)]})
    one = build_bloom(ray.data.from_arrow(texts), value="text")
    many = build_bloom(
        ray.data.from_arrow(texts).repartition(16), value="text"
    )
    assert np.array_equal(one, many)


def test_countmin_never_undercounts_and_tight_on_skew():
    """CM guarantee: est >= true always; overcount <= n*e/width (here
    width >> distinct items so collisions are rare -> near-exact)."""
    from opentelemetry_collector_ray.functions.sketch import (
        build_countmin,
        countmin_query,
    )

    rng = np.random.default_rng(7)
    # zipf-ish skew over 200 items
    items = np.repeat(np.arange(200), (2000 / (1 + np.arange(200))).astype(int))
    rng.shuffle(items)
    ds = ray.data.from_pandas(
        pd.DataFrame({"v": items.astype(str)})
    ).repartition(6)
    cm = build_countmin(ds, value="v", width=1 << 12, depth=4)
    true = pd.Series(items.astype(str)).value_counts()
    probe = true.index.to_numpy()
    est = countmin_query(cm, probe).set_index("item")["est_count"]
    n = len(items)
    for it in probe:
        assert est[it] >= true[it]  # never undercounts, by construction
        assert est[it] - true[it] <= np.e * n / (1 << 12) * 3
    # total mass conserved per hash row
    assert cm.sum(axis=1).tolist() == [n] * 4


def test_countmin_merge_is_partition_invariant():
    from opentelemetry_collector_ray.functions.sketch import build_countmin

    df = pd.DataFrame({"v": (np.arange(5000) % 37).astype(str)})
    a = build_countmin(ray.data.from_pandas(df).repartition(2), value="v")
    b = build_countmin(ray.data.from_pandas(df).repartition(9), value="v")
    assert np.array_equal(a, b)


def test_tdigest_quantiles_accurate_and_ordered():
    """Merged-digest quantile error ~< 1% in the mid-range and tails
    stay tight (k1 scale), on a heavy-tailed lognormal."""
    from opentelemetry_collector_ray.functions.sketch import (
        build_tdigest,
        tdigest_quantile,
    )

    rng = np.random.default_rng(11)
    v = rng.lognormal(mean=3.0, sigma=1.0, size=120_000)
    ds = ray.data.from_pandas(pd.DataFrame({"value": v})).repartition(8)
    m, w = build_tdigest(ds, value="value", delta=200.0)
    assert len(m) < 600  # compressed far below input size
    assert w.sum() == len(v)
    qs = np.array([0.01, 0.1, 0.5, 0.9, 0.99, 0.999])
    est = tdigest_quantile(m, w, qs)
    true = np.quantile(v, qs)
    assert np.all(np.diff(est) >= 0)  # monotone inverse-CDF
    # the t-digest guarantee is RANK accuracy: the empirical CDF at
    # each estimate is within a fraction of a cluster of q (value-space
    # error at extreme tails of a heavy-tailed law is unbounded for ANY
    # rank-accurate sketch — within-cluster skew)
    sv = np.sort(v)
    q_err = np.abs(np.searchsorted(sv, est) / len(v) - qs)
    assert np.all(q_err < 1e-3), q_err
    rel = np.abs(est - true) / true
    assert np.all(rel[1:5] < 0.01), rel  # value-tight in p10..p99


def test_grouped_tdigest_accuracy_vs_exact():
    import pandas as pd

    from opentelemetry_collector_ray.functions.sketch import (
        grouped_tdigest_quantiles,
    )

    rng = np.random.default_rng(13)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b"], size=20000),
            "v": rng.lognormal(0.0, 1.0, size=20000),
        }
    )
    out = grouped_tdigest_quantiles(
        ray.data.from_pandas(df).repartition(8), group="g", value="v",
        qs=(0.5, 0.9, 0.99),
    ).set_index(["g", "q"])["value_est"]
    for g in ["a", "b"]:
        v = df.loc[df["g"] == g, "v"].to_numpy()
        for q in (0.5, 0.9, 0.99):
            exact = np.quantile(v, q)
            # mid/tail rank accuracy: within 2% relative on lognormal
            assert abs(out.loc[(g, q)] - exact) / exact < 0.02


def test_kmv_distinct_and_jaccard_accuracy():
    import pandas as pd

    from opentelemetry_collector_ray.functions.sketch import (
        kmv_distinct,
        kmv_jaccard,
        kmv_sketch,
    )

    rng = np.random.default_rng(41)
    # two overlapping value sets: |A|=4000, |B|=4000, |A∩B|=2000
    a_vals = np.arange(0, 6000)
    b_vals = np.arange(2000, 8000)
    dsa = ray.data.from_pandas(
        pd.DataFrame({"v": np.repeat(a_vals[:4000], 2)})
    ).repartition(4)
    dsb = ray.data.from_pandas(
        pd.DataFrame({"v": b_vals[:4000]})
    ).repartition(3)
    k = 512
    sa = kmv_sketch(dsa, value="v", k=k)
    sb = kmv_sketch(dsb, value="v", k=k)
    est_a = kmv_distinct(sa, k)
    assert abs(est_a - 4000) / 4000 < 0.15  # ~1/sqrt(512) ≈ 4.4%
    true_j = 2000 / 6000
    est_j = kmv_jaccard(sa, sb, k)
    assert abs(est_j - true_j) < 0.08
    # exact when the set fits the sketch
    small = ray.data.from_pandas(pd.DataFrame({"v": np.arange(100)}))
    assert kmv_distinct(kmv_sketch(small, value="v", k=512), 512) == 100


# ----------------------------------- SQL-mirrorable affine-hash tier


def test_affine_buckets_match_duckdb_integer_math():
    """The affine tier's whole point: DuckDB reproduces every bucket.
    Mirrors the oracle expression for keys spanning small ids, the
    modulus boundary, and > 2^31 — any drift here breaks the
    countmin_exact / bloom_exact gate queries."""
    import duckdb

    from opentelemetry_collector_ray.functions.sketch import (
        _AFFINE_G,
        _AFFINE_P,
        _AFFINE_PARAMS,
        affine_buckets,
    )

    keys = np.array([0, 1, 149, 2147483646, 2147483647, 10**12, 7**15])
    ga, gb = _AFFINE_G
    for m in (64, 384):
        for d, (a, b) in enumerate(_AFFINE_PARAMS[:3]):
            got = affine_buckets(keys, d, m)
            want = duckdb.sql(
                f"SELECT ((({a} * (({ga} * (k % {_AFFINE_P}) + {gb}) "
                f"% {_AFFINE_P}) + {b}) % {_AFFINE_P}) % {m}) AS pos "
                f"FROM (SELECT unnest(CAST({list(map(int, keys))} AS "
                f"BIGINT[])) AS k)"
            ).fetchnumpy()["pos"]
            assert np.array_equal(got, want), (d, m)


def test_countmin_affine_never_undercounts_and_rows_disagree():
    """Contract of the oracle-gated variant: estimates ≥ truth for
    present keys, and the scrambled family gives row-DEPENDENT
    collisions (min over rows actually varies — the single-level
    affine family degenerated to identical rows on consecutive ids)."""
    from opentelemetry_collector_ray.functions.sketch import (
        affine_buckets,
        build_countmin_affine,
        countmin_query_affine,
    )

    rng = np.random.default_rng(7)
    keys = rng.integers(0, 150, size=5000)
    ds = ray.data.from_pandas(pd.DataFrame({"k": keys})).repartition(4)
    cm = build_countmin_affine(ds, value="k", width=64, depth=3)
    true = pd.Series(keys).value_counts()
    est = countmin_query_affine(cm, np.arange(150)).set_index("item")[
        "est_count"
    ]
    for k, c in true.items():
        assert est[k] >= c
    per_row = np.stack(
        [cm[d, affine_buckets(np.arange(150), d, 64)] for d in range(3)]
    )
    assert (per_row.min(axis=0) != per_row.max(axis=0)).any()


def test_bloom_affine_membership_contract():
    """No false negatives ever; false positives exist at this sizing
    (the gate would be vacuous without them) and are reproduced by the
    same shared-bit-array rule the oracle uses."""
    from opentelemetry_collector_ray.functions.sketch import (
        affine_buckets,
        bloom_contains_affine,
        build_bloom_affine,
    )

    members = np.arange(0, 150, 2)
    ds = ray.data.from_pandas(pd.DataFrame({"k": members})).repartition(3)
    bits = build_bloom_affine(ds, value="k", m_bits=384, hashes=3)
    got = bloom_contains_affine(
        bits, np.arange(150), m_bits=384, hashes=3
    )
    assert got[members].all()  # no false negatives
    odd = np.arange(1, 150, 2)
    fps = got[odd]
    assert fps.any() and not fps.all()
    # shared-array semantics: membership == every position's bit set,
    # regardless of which hash row set it
    bitset = set()
    for d in range(3):
        bitset.update(affine_buckets(members, d, 384).tolist())
    for x in odd:
        want = all(
            int(affine_buckets(np.array([x]), d, 384)[0]) in bitset
            for d in range(3)
        )
        assert bool(got[x]) == want


def test_hll_affine_registers_partition_invariant_and_meaningful():
    """Register maxima are a mergeable object: any block layout and
    any duplication give identical state, and a superset of keys can
    only raise registers (exact laws — estimator QUALITY is the
    production `hll_distinct` tier's job; the affine tier trades
    hash-distribution quality for the SQL mirror)."""
    from opentelemetry_collector_ray.functions.sketch import (
        build_hll_affine,
    )

    keys = np.arange(150)
    a = build_hll_affine(
        ray.data.from_pandas(pd.DataFrame({"k": keys})).repartition(1),
        value="k",
        p_bits=6,
    )
    b = build_hll_affine(
        ray.data.from_pandas(
            pd.DataFrame({"k": np.concatenate([keys, keys[::2]])})
        ).repartition(7),
        value="k",
        p_bits=6,
    )
    assert np.array_equal(a, b)  # layout + duplicate insensitive
    sup = build_hll_affine(
        ray.data.from_pandas(pd.DataFrame({"k": np.arange(1000)})),
        value="k",
        p_bits=6,
    )
    assert (sup >= a).all() and (sup > a).any()  # superset monotone
    assert a.max() > 1 and (a > 0).sum() >= 32  # non-degenerate state
