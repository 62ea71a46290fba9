"""Similarity search over an embedding column (``list<float>``).

- ``brute_force_topk``: exact cosine top-k — per-batch numpy matmul
  against a broadcast query matrix, partial top-k per batch, final merge
  of the tiny partials on the driver. The dataset streams; only
  O(queries × k × blocks) partial rows ever leave workers. This is the
  baseline/oracle path.
- ``lsh_topk``: random-hyperplane LSH variant — the scale path: bucket
  every vector by sign bits once (deterministic planes), search only the
  query's bucket ± Hamming-1 probes. Recall traded for touching a
  1/2^bits fraction of the corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

# module-level, NOT inside batch fns: workers get this package only by
# pickle-by-value, so function-body relative imports fail off-repo
from ..functions.shard import mult_hash


def _matrix(batch_col) -> np.ndarray:
    arr = batch_col.to_pandas().to_numpy()
    return np.stack(arr).astype(np.float64)


def _norm_rows(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


class BruteTopK:
    """Per-batch partial top-k: queries resolved once per actor."""

    def __init__(self, queries_ref, k: int, id_col: str = "vec_id"):
        q = ray.get(queries_ref) if isinstance(queries_ref, ray.ObjectRef) else queries_ref
        self.qids = np.asarray(sorted(q.keys()))
        self.qm = _norm_rows(np.stack([q[i] for i in self.qids]).astype(np.float64))
        self.k = k
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    "query_id": pa.array([], type=pa.int64()),
                    "vec_id": pa.array([], type=pa.int64()),
                    "score": pa.array([], type=pa.float64()),
                }
            )
        vecs = _norm_rows(_matrix(batch["embedding"]))
        ids = batch[self.id_col].to_numpy()
        scores = self.qm @ vecs.T  # (Q, N)
        k = min(self.k, scores.shape[1])
        out_q, out_v, out_s = [], [], []
        for qi in range(scores.shape[0]):
            # deterministic per-batch top-k INCLUDING the documented
            # (score desc, vec_id asc) tie-break — argpartition alone
            # would keep an arbitrary subset of boundary ties and make
            # the result depend on block layout.
            order = np.lexsort((ids, -scores[qi]))[:k]
            out_q.append(np.full(k, self.qids[qi]))
            out_v.append(ids[order])
            out_s.append(scores[qi, order])
        return pa.table(
            {
                "query_id": np.concatenate(out_q),
                "vec_id": np.concatenate(out_v),
                "score": np.concatenate(out_s),
            }
        )


def _merge_topk_partials(partials: pd.DataFrame, k: int) -> pd.DataFrame:
    """Final merge of per-block/per-bucket partial top-k rows
    (query_id, vec_id, score) — O(queries × k × partial-sources) rows,
    tiny by construction. Ties broken (score desc, vec_id asc)."""
    out = []
    for qid, g in partials.groupby("query_id"):
        g = g.sort_values(
            ["score", "vec_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        out.append(
            pd.DataFrame(
                {
                    "query_id": np.full(len(g), qid, dtype=np.int64),
                    "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                    "vec_id": g["vec_id"].to_numpy(dtype=np.int64),
                }
            )
        )
    return (
        pd.concat(out, ignore_index=True)
        if out
        else pd.DataFrame(columns=["query_id", "rank", "vec_id"], dtype=np.int64)
    )


def brute_force_topk(
    ds: ray.data.Dataset,
    queries: dict[int, np.ndarray],
    k: int = 10,
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Exact cosine top-k: returns (query_id, rank, vec_id) — integer
    output so equality checks don't hash floats. Ties broken by
    (score desc, vec_id asc), deterministically."""
    qref = ray.put(queries)
    partials = ds.map_batches(
        BruteTopK,
        fn_constructor_kwargs={"queries_ref": qref, "k": k, "id_col": id_col},
        batch_format="pyarrow",
        concurrency=2,
    ).to_pandas()
    return _merge_topk_partials(partials, k)


# --------------------------------------------------------------- LSH


def _knob_rows(ds) -> int:
    """Row count for auto-knob sizing: plan metadata when free, else
    one count() — counting a LAZY lineage executes it an extra time,
    so callers with transformed inputs should pass bits/nlist
    explicitly (the knob only needs an order of magnitude)."""
    from ..functions.shard import cheap_row_count

    n = cheap_row_count(ds)
    return n if n is not None else int(ds.count())


def auto_lsh_bits(
    n_rows: int,
    dim: int,
    *,
    target_bucket_bytes: int = 64 << 20,
    max_bits: int = 24,
) -> int:
    """Pick the LSH ``bits`` knob from corpus size: the per-bucket
    group (~corpus/2^bits vectors × dim × 8 bytes) runs on ONE worker,
    so bits grows until the expected bucket fits ``target_bucket_bytes``.
    Floor 1 (bits=0 would be a single all-pairs bucket); ceiling bounds
    the Hamming-probe fan-out."""
    total = int(n_rows) * int(dim) * 8
    bits = 1
    while bits < max_bits and (total >> bits) > target_bucket_bytes:
        bits += 1
    return bits


def auto_ivf_nlist(
    n_rows: int,
    dim: int,
    *,
    target_list_bytes: int = 64 << 20,
    min_nlist: int = 16,
) -> int:
    """Pick the IVF ``nlist`` knob from corpus size: a posting list
    (~corpus/nlist vectors) runs on one worker, so nlist grows with
    total bytes / target. Floor ``min_nlist`` keeps nprobe/nlist
    selectivity meaningful on small corpora; capped at n_rows (an empty
    list is useless)."""
    total = int(n_rows) * int(dim) * 8
    nlist = max(min_nlist, -(-total // target_list_bytes))
    return int(max(1, min(nlist, n_rows))) if n_rows else min_nlist


def _hyperplanes(dim: int, bits: int, seed: int = 42) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.standard_normal((bits, dim))


def _coord_diff_planes(dim: int, bits: int) -> np.ndarray:
    """Deterministic sparse sign-LSH hyperplanes: plane j is the
    coordinate difference x[2j] − x[2j+1] (+1/−1 at two positions,
    zero elsewhere). A valid data-independent random-projection family
    for zero-centered embeddings — and, unlike gaussian planes, exactly
    SQL-mirrorable: the BLAS row product reduces to one IEEE subtract
    (the 62 zero terms add exactly 0.0), so the sign bit is
    bit-reproducible as ``embedding[2j+1] − embedding[2j+2] >= 0`` in
    DuckDB. Used by the oracle-gated near-dup tier; the gaussian family
    stays the default."""
    if 2 * bits > dim:
        raise ValueError(f"coord-diff planes need dim >= 2*bits, got {dim}/{bits}")
    planes = np.zeros((bits, dim), dtype=np.float64)
    for j in range(bits):
        planes[j, 2 * j] = 1.0
        planes[j, 2 * j + 1] = -1.0
    return planes


def lsh_bucket_batch(batch: pa.Table, planes: np.ndarray, id_col="vec_id") -> pa.Table:
    if len(batch) == 0:
        return batch.append_column("bucket", pa.array([], type=pa.int64()))
    vecs = _matrix(batch["embedding"])
    signs = (vecs @ planes.T) >= 0  # (N, bits)
    weights = (1 << np.arange(planes.shape[0]))[None, :]
    bucket = (signs * weights).sum(axis=1).astype(np.int64)
    return batch.append_column("bucket", pa.array(bucket, type=pa.int64()))


def embedding_near_dup_pairs(
    ds: ray.data.Dataset,
    all_embeddings: "np.ndarray",
    all_ids: "np.ndarray",
    *,
    threshold: float = 0.4,
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Embedding-cosine near-duplicate pairs: (id_a < id_b) with
    cosine ≥ threshold.

    Shape: the full (normalized) matrix is broadcast once (`ray.put`),
    the corpus streams through `map_batches`, each batch matmuls its
    rows against the whole matrix and emits its qualifying pairs —
    exact, one pass, no shuffle. Valid while the matrix fits a worker
    (64-dim float32: ~2.4 GB per 10M vectors); beyond that, switch to
    `lsh_bucket_batch` bucketing and compare within bucket ± Hamming-1
    probes (approximate, documented trade-off).
    """
    import ray as _ray

    order = np.argsort(all_ids)
    ids_sorted = all_ids[order]
    mat = _norm_rows(all_embeddings[order].astype(np.float64))
    ref = _ray.put((ids_sorted, mat))

    def pairs(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    "id_a": pa.array([], type=pa.int64()),
                    "id_b": pa.array([], type=pa.int64()),
                }
            )
        ids_all, m = _ray.get(ref)
        vecs = _norm_rows(_matrix(batch["embedding"]))
        bids = batch[id_col].to_numpy()
        scores = vecs @ m.T  # (B, N)
        hit_b, hit_n = np.nonzero(scores >= threshold)
        a = bids[hit_b]
        b = ids_all[hit_n]
        keep = a < b  # dedupe (i,j)/(j,i) and self-pairs
        return pa.table(
            {
                "id_a": a[keep].astype(np.int64),
                "id_b": b[keep].astype(np.int64),
            }
        )

    return ds.map_batches(pairs, batch_format="pyarrow")


def embedding_near_dup_lsh(
    ds: ray.data.Dataset,
    *,
    threshold: float = 0.4,
    bits: int | None = None,
    id_col: str = "vec_id",
    planes_mode: str = "gaussian",
) -> ray.data.Dataset:
    """LSH-bucketed embedding near-dup pairs — the scale path beyond
    ~10M vectors where ``embedding_near_dup_pairs``'s broadcast matrix
    no longer fits a worker. Every vector is exploded to its sign-LSH
    bucket plus all Hamming-1 probes (bits+1 rows); buckets co-group via
    a sharded groupby and each bucket compares only its own members
    (BLAS matmul). A pair is found iff its buckets differ in ≤2 bits —
    approximate; recall is pinned against the exact oracle pair set in
    tests. ``bits`` is the partition knob (bucket ≈ corpus·(bits+1)/2^bits
    rows must fit a worker); ``bits=None`` auto-derives it from corpus
    rows × dim via ``auto_lsh_bits`` so the expected bucket fits a
    worker budget at any scale. Duplicates from multi-bucket meetings
    collapse in a final sharded distinct. ``planes_mode="coord-diff"``
    swaps the gaussian hyperplanes for the deterministic
    SQL-mirrorable coordinate-difference family (`_coord_diff_planes`)
    so the whole approximate pair set — Hamming-≤2 candidate rule plus
    cosine verify — gets a full DuckDB oracle."""
    from ..functions.shard import sharded_group_map

    first = ds.take(1)
    dim = len(np.asarray(first[0]["embedding"]))
    if bits is None:
        bits = auto_lsh_bits(_knob_rows(ds), dim)
    planes = (
        _coord_diff_planes(dim, bits)
        if planes_mode == "coord-diff"
        else _hyperplanes(dim, bits)
    )
    weights = (1 << np.arange(bits)).astype(np.int64)

    def explode(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "bucket": pa.array([], type=pa.int64()),
                    "embedding": pa.array([], type=pa.list_(pa.float64())),
                }
            )
        vecs = _matrix(t["embedding"])
        b0 = (((vecs @ planes.T) >= 0) * weights[None, :]).sum(axis=1)
        ids = t[id_col].to_numpy()
        out_id = [ids]
        out_bk = [b0]
        out_vec = [vecs]
        for bit in range(bits):
            out_id.append(ids)
            out_bk.append(b0 ^ (1 << bit))
            out_vec.append(vecs)
        return pa.table(
            {
                id_col: np.concatenate(out_id),
                "bucket": np.concatenate(out_bk).astype(np.int64),
                "embedding": pa.array(
                    list(np.concatenate(out_vec, axis=0)),
                    type=pa.list_(pa.float64()),
                ),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for _, grp in g.groupby("bucket", sort=False):
            grp = grp.drop_duplicates(subset=[id_col])
            if len(grp) < 2:
                continue
            vecs = _norm_rows(
                np.stack(grp["embedding"].to_numpy()).astype(np.float64)
            )
            ids = grp[id_col].to_numpy()
            scores = vecs @ vecs.T
            ia, ib = np.nonzero(np.triu(scores >= threshold, k=1))
            a, b = ids[ia], ids[ib]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            out_a.append(lo)
            out_b.append(hi)
        if not out_a:
            return pd.DataFrame(
                {
                    "id_a": pd.Series(dtype="int64"),
                    "id_b": pd.Series(dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "id_a": np.concatenate(out_a).astype(np.int64),
                "id_b": np.concatenate(out_b).astype(np.int64),
            }
        )

    pairs = sharded_group_map(exploded, ["bucket"], per_shard)
    return sharded_group_map(
        pairs, ["id_a", "id_b"], lambda g: g.drop_duplicates()
    )


# per-worker cache of broadcast query state (keyed by ObjectRef hex —
# globally unique, so stale-corpus reuse is impossible). Bounded FIFO
# (a few entries): long-lived workers don't accumulate one dead copy
# per run, and two interleaved ANN jobs don't thrash each other out
# (a single-entry cache would re-fetch per group when jobs alternate).
_QUERY_CACHE: dict = {}
_QUERY_CACHE_MAX = 4


def _cached_query_state(ref):
    state = _QUERY_CACHE.get(ref.hex())
    if state is None:
        while len(_QUERY_CACHE) >= _QUERY_CACHE_MAX:
            _QUERY_CACHE.pop(next(iter(_QUERY_CACHE)))
        state = _QUERY_CACHE[ref.hex()] = ray.get(ref)
    return state


def lsh_topk(
    ds: ray.data.Dataset,
    queries: dict[int, np.ndarray],
    k: int = 10,
    bits: int | None = None,
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """ANN via sign-LSH: search only buckets within Hamming distance 1
    of each query's bucket. Approximate — recall pinned against
    ``brute_force_topk`` in tests.

    Scale shape: candidate scoring runs INSIDE a per-bucket
    ``groupby("bucket").map_groups`` — no driver-side materialization
    of the probed buckets (the old form pulled (bits+1)/2^bits of the
    corpus to the driver). Each bucket group holds ~corpus/2^bits rows,
    so ``bits`` is the partition knob: size it so a bucket fits a
    worker. Only the tiny per-bucket partial top-k rows
    (queries × k × probed-buckets) leave workers; the driver does the
    final merge. At rest, a bucketed corpus would be a
    partition_cols=["bucket"] parquet sink so probing reads only the
    matching partitions (partition pruning). ``bits=None`` auto-derives
    the knob from corpus rows × dim (``auto_lsh_bits``) so a bucket
    fits a worker budget."""
    import pyarrow.compute as pc

    dim = len(next(iter(queries.values())))
    if bits is None:
        bits = auto_lsh_bits(_knob_rows(ds), dim)
    planes = _hyperplanes(dim, bits)
    bucketed = ds.map_batches(
        lambda b: lsh_bucket_batch(b, planes, id_col), batch_format="pyarrow"
    )
    qids = sorted(queries.keys())
    qm = np.stack([queries[i] for i in qids]).astype(np.float64)
    qsigns = (qm @ planes.T) >= 0
    weights = 1 << np.arange(bits)
    qbuckets = (qsigns * weights).sum(axis=1)
    bucket_to_q: dict[int, list[int]] = {}
    for qi in range(len(qids)):
        probes = {int(qbuckets[qi])} | {
            int(qbuckets[qi]) ^ (1 << bit) for bit in range(bits)
        }
        for b in probes:
            bucket_to_q.setdefault(b, []).append(qi)
    allowed = sorted(bucket_to_q)
    qref = ray.put((_norm_rows(qm), np.asarray(qids, dtype=np.int64), bucket_to_q))

    cand = bucketed.map_batches(
        lambda b: b.filter(pc.is_in(b["bucket"], value_set=pa.array(allowed))),
        batch_format="pyarrow",
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        qn, qid_arr, b2q = _cached_query_state(qref)
        sel = b2q.get(int(g["bucket"].iloc[0]), [])
        empty = pd.DataFrame(
            {
                "query_id": pd.Series(dtype="int64"),
                "vec_id": pd.Series(dtype="int64"),
                "score": pd.Series(dtype="float64"),
            }
        )
        if not sel or not len(g):
            return empty
        vecs = _norm_rows(np.stack(g["embedding"].to_numpy()).astype(np.float64))
        ids = g[id_col].to_numpy()
        scores = qn[sel] @ vecs.T  # (Qsel, Nbucket)
        kk = min(k, scores.shape[1])
        out = []
        for row, qi in enumerate(sel):
            order = np.lexsort((ids, -scores[row]))[:kk]
            out.append(
                pd.DataFrame(
                    {
                        "query_id": np.full(kk, qid_arr[qi], dtype=np.int64),
                        "vec_id": ids[order].astype(np.int64),
                        "score": scores[row, order],
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    partials = (
        cand.groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return _merge_topk_partials(partials, k)


def semdedup(
    ds: ray.data.Dataset,
    *,
    threshold: float = 0.7,
    nlist: int | None = None,
    id_col: str = "vec_id",
    centroids: np.ndarray | None = None,
) -> ray.data.Dataset:
    """SemDeDup (Abbas et al., 2023, arXiv:2303.09540): semantic
    deduplication by clustering embeddings with k-means and removing,
    WITHIN each cluster, every item that has a lower-id neighbor above
    the cosine threshold (keep-lowest-id, the same deterministic
    representative rule as ``exact_dedup``). Cross-cluster near-dups are
    deliberately not compared — that is the algorithm's documented
    approximation (recall pinned vs the exact pair set in tests).

    Scale shape: centroids are trained on a bounded deterministic
    sample (``train_ivf_centroids`` — corpus-size-independent), the
    assignment is one stateless vectorized ``map_batches`` pass, and the
    per-cluster dedup runs inside ``groupby(list_id).map_groups`` —
    ``nlist`` is the partition knob (a cluster ≈ corpus/nlist rows must
    fit a worker; flops are O(cluster²) via blocked BLAS with memory
    bounded by block × cluster). Output: (vec_id, list_id, removed) —
    one row per input vector, removed ∈ {0, 1}. ``nlist=None``
    auto-derives the knob from corpus rows × dim (``auto_ivf_nlist``)
    so a cluster fits a worker budget."""

    if nlist is None:
        first = ds.take(1)
        nlist = auto_ivf_nlist(
            _knob_rows(ds), len(np.asarray(first[0]["embedding"]))
        )
    if centroids is None:
        centroids = train_ivf_centroids(ds, nlist=nlist, id_col=id_col)

    bucketed = ds.map_batches(
        lambda b: ivf_assign_batch(b, centroids, id_col),
        batch_format="pyarrow",
    )

    def per_cluster(g: pd.DataFrame, block: int = 2048) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort")
        ids = g[id_col].to_numpy().astype(np.int64)
        vecs = _norm_rows(np.stack(g["embedding"].to_numpy()).astype(np.float64))
        n = len(ids)
        removed = np.zeros(n, dtype=bool)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            chunk = vecs[lo:hi]
            if lo > 0:  # vs all earlier (lower-id) rows
                sims = chunk @ vecs[:lo].T
                removed[lo:hi] |= (sims >= threshold).any(axis=1)
            tri = chunk @ chunk.T  # within-chunk strict lower triangle
            np.fill_diagonal(tri, -1.0)
            removed[lo:hi] |= np.any(
                np.tril(tri >= threshold, k=-1), axis=1
            )
        return pd.DataFrame(
            {
                "vec_id": ids,
                "list_id": g["list_id"].to_numpy().astype(np.int64),
                "removed": removed.astype(np.int64),
            }
        )

    return bucketed.groupby("list_id").map_groups(
        per_cluster, batch_format="pandas"
    )


# --------------------------------------------------------------- IVF


def train_ivf_centroids(
    ds: ray.data.Dataset,
    *,
    nlist: int = 16,
    sample_mod: int = 7,
    max_sample: int = 100_000,
    iters: int = 8,
    id_col: str = "vec_id",
) -> np.ndarray:
    """Train IVF coarse centroids by k-means on a BOUNDED deterministic
    sample — the standard inverted-file practice (FAISS trains on a
    sample, not the corpus): training cost is independent of corpus
    size, so this step never becomes the 100 TB bottleneck. Sample =
    vectors with ``id % sample_mod == 0``, capped at ``max_sample``;
    init = first ``nlist`` sample vectors by id (deterministic — no
    RNG, reproducible across runs/parallelism); ``iters`` Lloyd rounds
    of spherical k-means (cosine assignment, mean + renormalize).
    Returns (nlist, dim) unit-norm centroids."""
    def pick(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.filter(pa.array(ids % sample_mod == 0))

    sample = ds.map_batches(pick, batch_format="pyarrow")
    pdf = sample.limit(max_sample).to_pandas().sort_values(id_col)
    vecs = _norm_rows(np.stack(pdf["embedding"].to_numpy()).astype(np.float64))
    nlist = min(nlist, len(vecs))
    cents = vecs[:nlist].copy()
    for _ in range(iters):
        assign = (vecs @ cents.T).argmax(axis=1)
        for c in range(nlist):
            members = vecs[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        cents = _norm_rows(cents)
    return cents


def ivf_assign_batch(
    batch: pa.Table, centroids: np.ndarray, id_col: str = "vec_id"
) -> pa.Table:
    """Append ``list_id``: nearest coarse centroid by cosine. At rest
    this would be the partition column of a partition_cols=["list_id"]
    parquet layout, so probes read only matching partitions."""
    if len(batch) == 0:
        return batch.append_column("list_id", pa.array([], type=pa.int64()))
    vecs = _norm_rows(_matrix(batch["embedding"]))
    lid = (vecs @ centroids.T).argmax(axis=1).astype(np.int64)
    return batch.append_column("list_id", pa.array(lid, type=pa.int64()))


def ivf_topk(
    ds: ray.data.Dataset,
    queries: dict[int, np.ndarray],
    k: int = 10,
    *,
    nlist: int | None = None,
    nprobe: int = 4,
    id_col: str = "vec_id",
    centroids: np.ndarray | None = None,
) -> pd.DataFrame:
    """ANN via an inverted file (IVF): corpus vectors are bucketed by
    nearest coarse centroid; each query scores only its ``nprobe``
    closest lists. Approximate — recall pinned against
    ``brute_force_topk`` in tests; (nlist, nprobe) is the
    recall/throughput knob (touch ~nprobe/nlist of the corpus).

    Same scale shape as ``lsh_topk``: candidate scoring runs INSIDE a
    per-list ``groupby.map_groups`` (each group ≈ corpus/nlist rows —
    size nlist so a list fits a worker); only the tiny per-list partial
    top-k rows leave workers; driver does the final merge of
    O(queries × k × nprobe) rows. ``nlist=None`` auto-derives the knob
    from corpus rows × dim (``auto_ivf_nlist``)."""
    import pyarrow.compute as pc

    if nlist is None:
        nlist = auto_ivf_nlist(_knob_rows(ds), len(next(iter(queries.values()))))
    if centroids is None:
        centroids = train_ivf_centroids(ds, nlist=nlist, id_col=id_col)
    qids = sorted(queries.keys())
    qm = _norm_rows(np.stack([queries[i] for i in qids]).astype(np.float64))
    qsims = qm @ centroids.T  # (Q, nlist)
    nprobe = min(nprobe, centroids.shape[0])
    probe_lists = np.argsort(-qsims, axis=1)[:, :nprobe]  # (Q, nprobe)
    list_to_q: dict[int, list[int]] = {}
    for qi in range(len(qids)):
        for lid in probe_lists[qi]:
            list_to_q.setdefault(int(lid), []).append(qi)
    allowed = sorted(list_to_q)
    qref = ray.put((qm, np.asarray(qids, dtype=np.int64), list_to_q))

    bucketed = ds.map_batches(
        lambda b: ivf_assign_batch(b, centroids, id_col),
        batch_format="pyarrow",
    )
    cand = bucketed.map_batches(
        lambda b: b.filter(pc.is_in(b["list_id"], value_set=pa.array(allowed))),
        batch_format="pyarrow",
    )

    def per_list(g: pd.DataFrame) -> pd.DataFrame:
        qn, qid_arr, l2q = _cached_query_state(qref)
        sel = l2q.get(int(g["list_id"].iloc[0]), [])
        if not sel or not len(g):
            return pd.DataFrame(
                {
                    "query_id": pd.Series(dtype="int64"),
                    "vec_id": pd.Series(dtype="int64"),
                    "score": pd.Series(dtype="float64"),
                }
            )
        vecs = _norm_rows(np.stack(g["embedding"].to_numpy()).astype(np.float64))
        ids = g[id_col].to_numpy()
        scores = qn[sel] @ vecs.T
        kk = min(k, scores.shape[1])
        out = []
        for row, qi in enumerate(sel):
            order = np.lexsort((ids, -scores[row]))[:kk]
            out.append(
                pd.DataFrame(
                    {
                        "query_id": np.full(kk, qid_arr[qi], dtype=np.int64),
                        "vec_id": ids[order].astype(np.int64),
                        "score": scores[row, order],
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    partials = (
        cand.groupby("list_id")
        .map_groups(per_list, batch_format="pandas")
        .to_pandas()
    )
    return _merge_topk_partials(partials, k)


def embedding_pca(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 4,
) -> ray.data.Dataset:
    """Distributed PCA over an embedding column — the
    covariance-combiner archetype for dimensionality
    reduction/whitening ahead of ANN or clustering.

    Pass 1 streams the corpus once: each batch emits (n, Σx, XᵀX) —
    a scalar, a d-vector and a d×d float64 matrix — which merge by
    elementwise sum (the same mergeable-matrix shape as
    `cooccurrence_counts`); the driver assembles the d×d covariance
    and eigendecomposes it (O(d³), corpus-size-independent).
    Pass 2 projects every vector onto the top-``k`` components with
    one BLAS matmul per batch (components broadcast once).

    Sign convention: each component is flipped so its
    largest-|loading| coordinate is positive — eigenvector signs are
    otherwise arbitrary and would break run-to-run determinism.
    Driver state is O(d²), never O(corpus)."""
    import ray as _ray

    def moments(t: pa.Table) -> pa.Table:
        x = _matrix(t[vec_col])
        return pa.table(
            {
                "_n": pa.array([len(x)], pa.int64()),
                "_s": pa.array([x.sum(axis=0).tobytes()], pa.binary()),
                "_xx": pa.array([(x.T @ x).tobytes()], pa.binary()),
            }
        )

    parts = ds.map_batches(moments, batch_format="pyarrow").to_pandas()
    n = int(parts["_n"].sum())
    s = np.sum(
        [np.frombuffer(b, dtype=np.float64) for b in parts["_s"]], axis=0
    )
    d = len(s)
    xx = np.sum(
        [
            np.frombuffer(b, dtype=np.float64).reshape(d, d)
            for b in parts["_xx"]
        ],
        axis=0,
    )
    mean = s / n
    cov = xx / n - np.outer(mean, mean)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    comps = evecs[:, ::-1][:, :k]  # top-k, columns
    flip = np.sign(comps[np.abs(comps).argmax(axis=0), np.arange(k)])
    flip[flip == 0] = 1.0
    comps = comps * flip
    state = _ray.put({"mean": mean, "comps": comps})

    def project(t: pa.Table) -> pa.Table:
        st = _ray.get(state)
        x = _matrix(t[vec_col])
        proj = (x - st["mean"]) @ st["comps"]
        return pa.table(
            {
                id_col: t[id_col],
                "pc": pa.array(list(proj), pa.list_(pa.float64())),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


def kmeans_fit(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 8,
    max_iter: int = 10,
    tol: float = 1e-6,
):
    """Full-corpus Lloyd k-means — the iterative-distributed-algorithm
    archetype (vs `train_ivf_centroids`, which trains on a bounded
    sample). Each iteration is ONE streaming pass: centroids broadcast
    (`ray.put`), every batch assigns its vectors by one BLAS distance
    matmul and emits per-cluster (count, Σx) partials; the driver sums
    the tiny k×d partials into new centroids. Stops when the max
    centroid shift < ``tol``. Driver state is O(k·d); empty clusters
    keep their previous centroid.

    Init is seed-free and partition-invariant: a bounded sample (the
    ``max(256, 8k)`` smallest multiplicative-id-hash vectors, found by
    per-batch partial top-m) seeds greedy farthest-point selection on
    the driver — k-means++-style spread without RNG, so well-separated
    clusters each get a seed. Returns (centroids ndarray, assignments
    Dataset of (id, cluster), n_iters)."""
    import ray as _ray

    m = max(256, 8 * k)

    def init_partial(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = mult_hash(ids)
        order = np.lexsort((ids, h))[:m]
        return pa.table(
            {
                "_h": pa.array(h[order], pa.int64()),
                "_id": pa.array(ids[order], pa.int64()),
                "_v": pa.array(
                    [r.tobytes() for r in _matrix(t[vec_col])[order]],
                    pa.binary(),
                ),
            }
        )

    seeds = (
        ds.map_batches(init_partial, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["_h", "_id"], kind="mergesort")
        .head(m)
    )
    sample = np.stack(
        [np.frombuffer(b, dtype=np.float64) for b in seeds["_v"]]
    )
    # greedy farthest-point: deterministic k-means++ spread
    chosen = [0]
    d2min = ((sample - sample[0]) ** 2).sum(axis=1)
    while len(chosen) < min(k, len(sample)):
        nxt = int(d2min.argmax())
        chosen.append(nxt)
        d2min = np.minimum(d2min, ((sample - sample[nxt]) ** 2).sum(axis=1))
    centroids = sample[chosen]

    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        cref = _ray.put(centroids)

        def step(t: pa.Table) -> pa.Table:
            c = _ray.get(cref)
            x = _matrix(t[vec_col])
            d2 = (x * x).sum(1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(1)
            a = d2.argmin(axis=1)
            counts = np.bincount(a, minlength=len(c))
            sums = np.zeros_like(c)
            np.add.at(sums, a, x)
            return pa.table(
                {
                    "_n": pa.array([counts.tobytes()], pa.binary()),
                    "_s": pa.array([sums.tobytes()], pa.binary()),
                }
            )

        parts = ds.map_batches(step, batch_format="pyarrow").to_pandas()
        counts = np.sum(
            [np.frombuffer(b, dtype=np.int64) for b in parts["_n"]], axis=0
        )
        sums = np.sum(
            [
                np.frombuffer(b, dtype=np.float64).reshape(centroids.shape)
                for b in parts["_s"]
            ],
            axis=0,
        )
        new = np.where(
            counts[:, None] > 0,
            sums / np.maximum(counts, 1)[:, None],
            centroids,
        )
        shift = float(np.abs(new - centroids).max())
        centroids = new
        if shift < tol:
            break

    cref = _ray.put(centroids)

    def assign(t: pa.Table) -> pa.Table:
        c = _ray.get(cref)
        x = _matrix(t[vec_col])
        d2 = (x * x).sum(1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(1)
        return pa.table(
            {
                id_col: t[id_col],
                "cluster": pa.array(
                    d2.argmin(axis=1).astype(np.int64), pa.int64()
                ),
            }
        )

    return centroids, ds.map_batches(assign, batch_format="pyarrow"), n_iter


def linear_probe(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    label_col: str = "label",
    ridge: float = 1e-3,
):
    """Closed-form distributed ridge regression (a linear probe over
    the embedding column): solve (XᵀX + λI)w = Xᵀy exactly from ONE
    streaming pass of mergeable sufficient statistics — each batch
    emits (XᵀX, Xᵀy) with a bias feature appended (d+1 square matrix +
    vector, elementwise-sum merge, the same shape as `embedding_pca`);
    the driver solves the (d+1) system (corpus-size-independent). A
    second pass scores every row. Returns (weights, predictions
    Dataset of (id, label, score))."""
    import ray as _ray

    def stats(t: pa.Table) -> pa.Table:
        x = _matrix(t[vec_col])
        x = np.c_[x, np.ones(len(x))]
        y = t[label_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "_xx": pa.array([(x.T @ x).tobytes()], pa.binary()),
                "_xy": pa.array([(x.T @ y).tobytes()], pa.binary()),
            }
        )

    parts = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
    xy = np.sum(
        [np.frombuffer(b, dtype=np.float64) for b in parts["_xy"]], axis=0
    )
    d1 = len(xy)
    xx = np.sum(
        [
            np.frombuffer(b, dtype=np.float64).reshape(d1, d1)
            for b in parts["_xx"]
        ],
        axis=0,
    )
    w = np.linalg.solve(xx + ridge * np.eye(d1), xy)
    wref = _ray.put(w)

    def score(t: pa.Table) -> pa.Table:
        wv = _ray.get(wref)
        x = _matrix(t[vec_col])
        s = x @ wv[:-1] + wv[-1]
        return pa.table(
            {
                id_col: t[id_col],
                label_col: t[label_col],
                "score": pa.array(s, pa.float64()),
            }
        )

    return w, ds.map_batches(score, batch_format="pyarrow")
