"""Deduplication operators over the ``documents`` table.

Training-data-pipeline extensions (not in the collector core — the core
is at-least-once and ships no dedup, SURVEY.md §2.4; contrib has
groupbytrace-style processors). Four tiers:

- **exact**: content-hash → hash-partitioned groupby → keep first
  (deterministic representative = min id). The groupby key is a
  vectorized 128-bit siphash of the content, so the shuffle moves
  (hash, id) pairs, and skew is impossible (hashes are uniform).
- **MinHash + LSH**: word-shingle → k minhashes → banded LSH keys →
  groupby band key → candidate pairs → exact-Jaccard verify. The only
  all-to-all is the groupby on (band, band_hash) — uniform keys again.
- **SimHash**: 64-bit signature; near-dup candidates via 16-bit chunk
  banding (Hamming ≤ 3 ⇒ some chunk equal, pigeonhole).
- **n-gram Jaccard (exact, blocked)**: pairwise word-set Jaccard within
  a blocking key (``lang``) — the SQL-mirrorable ground truth the
  probabilistic tiers are tested against.

Scale notes: candidate-pair verification has two tiers —
``verify_jaccard_pairs`` broadcasts the doc→shingle sets (small corpus
side only), ``verify_jaccard_pairs_joined`` is the 100 TB shape
(explode candidates, bucketed-join shingle sets back by doc_id, Jaccard
per pair inside map_groups — O(candidates), never O(corpus) on any one
node). Connected components likewise: ``cluster_pairs`` is a driver
union-find for tiny verified-pair graphs; ``connected_components`` is
distributed min-label propagation (bounded rounds, driver holds one
scalar per round).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

# ------------------------------------------------------------- exact


# two independent 16-byte siphash keys → a 128-bit combined content
# key; collision odds ~n²/2¹²⁸, and the key never leaves the operator
_CKEY_A = "otelray-contentA"
_CKEY_B = "otelray-contentB"


def content_key_columns(
    batch: pa.Table, col: str, out_a: str = "_ck_a", out_b: str = "_ck_b"
) -> pa.Table:
    """128-bit content key as two uint64 columns — two keyed
    ``pd.util.hash_array`` passes (C siphash), fully vectorized. Used
    where the hash is internal (dedup group keys); ``md5_column`` stays
    for oracle-visible hashes that must match SQL ``md5()``."""
    vals = np.asarray(batch[col].to_pandas().astype(str), dtype=object)
    ha = pd.util.hash_array(vals, hash_key=_CKEY_A)
    hb = pd.util.hash_array(vals, hash_key=_CKEY_B)
    return batch.append_column(out_a, pa.array(ha)).append_column(
        out_b, pa.array(hb)
    )


def exact_dedup(
    ds: ray.data.Dataset, col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """One row per distinct ``col`` value, keeping the min ``id_col``
    (deterministic representative — parallelism-invariant). Sharded
    groupby on a vectorized 128-bit content key (no per-row hashlib in
    the full-corpus pass); keep-first is a vectorized sort +
    drop_duplicates per shard."""
    from ..functions.shard import sharded_group_map

    def add_hash(batch: pa.Table) -> pa.Table:
        return content_key_columns(batch, col)

    def keep_first_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["_ck_a", "_ck_b", id_col], kind="mergesort")
        return g.drop_duplicates(["_ck_a", "_ck_b"]).drop(
            columns=["_ck_a", "_ck_b"]
        )

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    return sharded_group_map(hashed, ["_ck_a", "_ck_b"], keep_first_shard)


# --------------------------------------------------------- shingles


def _word_shingles(text: str, n: int = 3) -> set[str]:
    """String shingle set — the readable reference form; the hot path
    below hashes shingles batch-wide without materializing strings."""
    words = text.split()
    if len(words) < n:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


# pd.util.hash_array key (must be 16 bytes): fixes the word-hash family
# across processes/runs — signatures are deterministic cluster-wide.
_HASH_KEY = "otelray-shingles"
_FNV = np.uint64(0x100000001B3)


def batch_shingle_hashes(
    texts: list[str], n: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """All docs' word-``n``-gram shingle hashes in ONE vectorized pass.

    Returns ``(flat, offsets)``: ``flat`` holds every doc's shingle
    hashes (uint64, deduped + sorted within doc — set semantics),
    ``offsets`` (len ndocs+1) delimits each doc's slice. Word hashing is
    pandas' C siphash over the flat word array; n-gram combination is a
    rolling multiply-xor over the hash array — no per-shingle Python.
    Docs with 0 < words < n get one shingle covering all their words
    (mirrors ``_word_shingles``); empty docs get the single hash 0, so
    every doc has ≥1 entry (reduceat-safe downstream).
    """
    ndocs = len(texts)
    # null text behaves as empty (hash 0 sentinel) — callers that must
    # EXCLUDE null docs (strict-window ops) mask on their own word
    # counts; crashing on None would diverge from the SQL oracles,
    # which tolerate NULL rows
    words_per_doc = [t.split() if t is not None else [] for t in texts]
    counts = np.fromiter((len(w) for w in words_per_doc), np.int64, count=ndocs)
    flat_words = [w for ws in words_per_doc for w in ws]
    wh = (
        pd.util.hash_array(np.asarray(flat_words, dtype=object), hash_key=_HASH_KEY)
        if flat_words
        else np.empty(0, np.uint64)
    )
    word_off = np.zeros(ndocs + 1, np.int64)
    np.cumsum(counts, out=word_off[1:])
    total = len(wh)
    m = max(total - n + 1, 0)
    if m:
        # rolling combine: acc_i = ((w_i*P ^ w_{i+1})*P ^ ...) over n words
        acc = wh[:m].copy()
        for j in range(1, n):
            acc = acc * _FNV ^ wh[j : m + j]
        doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), counts)
        valid = doc_idx[:m] == doc_idx[n - 1 : n - 1 + m]
        h, d = acc[valid], doc_idx[:m][valid]
    else:
        h = np.empty(0, np.uint64)
        d = np.empty(0, np.int64)
    # short docs (< n words): one shingle of all their words
    short = np.nonzero((counts > 0) & (counts < n))[0]
    if len(short):
        sh = np.empty(len(short), np.uint64)
        for i, di in enumerate(short):
            seg = wh[word_off[di] : word_off[di + 1]]
            a = seg[0]
            for x in seg[1:]:
                a = a * _FNV ^ x
            sh[i] = a
        h = np.concatenate([h, sh])
        d = np.concatenate([d, short.astype(np.int64)])
    empty = np.nonzero(counts == 0)[0]
    if len(empty):
        h = np.concatenate([h, np.zeros(len(empty), np.uint64)])
        d = np.concatenate([d, empty.astype(np.int64)])
    # set semantics: drop duplicate hashes within each doc, sort within doc
    order = np.lexsort((h, d))
    h, d = h[order], d[order]
    if len(h):
        keep = np.ones(len(h), bool)
        keep[1:] = (h[1:] != h[:-1]) | (d[1:] != d[:-1])
        h, d = h[keep], d[keep]
    offsets = np.zeros(ndocs + 1, np.int64)
    np.cumsum(np.bincount(d, minlength=ndocs), out=offsets[1:])
    return h, offsets


class MinHashStage:
    """Per-doc MinHash signature: ``num_hashes`` permutations via the
    multiply-shift family h_k(x) = a_k·x + b_k over uint64 WRAPAROUND
    arithmetic (a_k odd); coefficients derived from a fixed seed once
    per actor. Emits ``minhash: list<uint64>``. Fully vectorized: one
    ``batch_shingle_hashes`` pass, then per-doc mins via
    ``np.minimum.reduceat`` (hash functions chunked to bound the (S, K)
    intermediate).

    Why mod 2^64 and not (a·x + b) mod 2^61−1: with 32-bit-folded x and
    a < 2^31, a·x < 2^63 wraps the Mersenne-61 modulus at most four
    times, so every "permutation" is piecewise-monotone in x and their
    mins are all driven by the same few smallest shingle hashes —
    measured signature agreement 0.06–0.47 on pairs with true Jaccard
    0.83–0.96 (LSH recall collapse). Full-width wraparound multiply by
    an odd a wraps ~2^32 times per step and has none of that structure
    (agreement tracks J to within binomial noise)."""

    def __init__(self, num_hashes: int = 64, shingle_n: int = 3, seed: int = 42):
        rng = np.random.RandomState(seed)
        hi = rng.randint(0, 1 << 32, size=num_hashes).astype(np.uint64)
        lo = rng.randint(0, 1 << 32, size=num_hashes).astype(np.uint64)
        self.a = (hi << np.uint64(32) | lo) | np.uint64(1)  # odd 64-bit
        hi = rng.randint(0, 1 << 32, size=num_hashes).astype(np.uint64)
        lo = rng.randint(0, 1 << 32, size=num_hashes).astype(np.uint64)
        self.b = hi << np.uint64(32) | lo
        self.shingle_n = shingle_n
        self.num_hashes = num_hashes

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        if not texts:
            sigs = np.empty((0, self.num_hashes), dtype=np.uint64)
        else:
            flat, offsets = batch_shingle_hashes(texts, self.shingle_n)
            # per-hash 1-D ops (measured faster than one broadcast 2-D
            # (S, K) expression, whose big strided temporaries fall off
            # this box's memory cliff); uint64 ``*``/``+`` wrap mod 2^64
            parts = []
            with np.errstate(over="ignore"):
                for k0 in range(0, self.num_hashes, 16):
                    hk = np.empty((len(flat), 16), dtype=np.uint64)
                    for j in range(16):
                        hk[:, j] = flat * self.a[k0 + j] + self.b[k0 + j]
                    parts.append(
                        np.minimum.reduceat(hk, offsets[:-1], axis=0)
                    )
            sigs = np.concatenate(parts, axis=1)
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.ravel(), type=pa.uint64()), self.num_hashes
        )
        return batch.append_column("minhash", col)


def _combine_columns(mat: np.ndarray) -> np.ndarray:
    """Row-wise multiply-xor fold of a (N, r) uint64 matrix → (N,)."""
    acc = mat[:, 0].copy()
    for j in range(1, mat.shape[1]):
        acc = acc * _FNV ^ mat[:, j]
    return acc


class LSHBandStage:
    """Explode each signed doc to ``bands`` rows of
    (doc_id, band, band_hash): the LSH bucketing key. Docs sharing any
    (band, band_hash) are near-dup candidates."""

    def __init__(self, bands: int = 16, id_col: str = "doc_id"):
        self.bands = bands
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    self.id_col: pa.array([], type=pa.int64()),
                    "band": pa.array([], type=pa.int64()),
                    "band_hash": pa.array([], type=pa.int64()),
                }
            )
        sigs = np.stack(batch["minhash"].to_pandas().to_numpy())  # (N, K)
        n, k = sigs.shape
        r = k // self.bands
        ids = batch[self.id_col].to_numpy()
        rows_id, rows_band, rows_hash = [], [], []
        for b in range(self.bands):
            bh = _combine_columns(sigs[:, b * r : (b + 1) * r])
            rows_id.append(ids)
            rows_band.append(np.full(n, b, dtype=np.int64))
            rows_hash.append((bh >> np.uint64(1)).astype(np.int64))
        return pa.table(
            {
                self.id_col: np.concatenate(rows_id),
                "band": np.concatenate(rows_band),
                "band_hash": np.concatenate(rows_hash),
            }
        )


def _bucket_pairs_shard(g: pd.DataFrame, id_col: str) -> pd.DataFrame:
    """All candidate pairs within every (band, band_hash) bucket of one
    shard. Singleton buckets (the vast majority) are filtered out
    vectorized; the Python loop runs only over colliding buckets, with
    numpy pair expansion inside."""
    sizes = g.groupby(["band", "band_hash"], sort=False)[id_col].transform("size")
    g2 = g[sizes >= 2]
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    for _, grp in g2.groupby(["band", "band_hash"], sort=False):
        ids = np.sort(grp[id_col].unique())
        if len(ids) < 2:
            continue
        a, b = np.triu_indices(len(ids), k=1)
        out_a.append(ids[a])
        out_b.append(ids[b])
    if not out_a:
        return pd.DataFrame(
            {
                "doc_a": pd.Series(dtype="int64"),
                "doc_b": pd.Series(dtype="int64"),
            }
        )
    return pd.DataFrame(
        {
            "doc_a": np.concatenate(out_a).astype(np.int64),
            "doc_b": np.concatenate(out_b).astype(np.int64),
        }
    )


# Per-worker-process stage cache: the stateless-task alternative to an
# actor pool when stage state is cheap to build. Worker processes are
# reused, so state still amortizes across batches — but the stage stays
# elastic and reserves no CPUs, which matters when several stages plus a
# shuffle share a small CPU budget (two fixed 2-actor pools on a 4-CPU
# session starve the groupby and deadlock the pipeline).
_STAGE_CACHE: dict = {}


def _cached_stage(key, factory):
    st = _STAGE_CACHE.get(key)
    if st is None:
        st = _STAGE_CACHE[key] = factory()
    return st


def minhash_candidates(
    docs: ray.data.Dataset,
    *,
    num_hashes: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    id_col: str = "doc_id",
    distinct: bool = True,
) -> ray.data.Dataset:
    """documents → candidate near-dup pairs (doc_a < doc_b)."""

    def minhash_fn(batch: pa.Table) -> pa.Table:
        st = _cached_stage(
            ("minhash", num_hashes, shingle_n),
            lambda: MinHashStage(num_hashes=num_hashes, shingle_n=shingle_n),
        )
        return st(batch)

    def band_fn(batch: pa.Table) -> pa.Table:
        st = _cached_stage(
            ("lshband", bands, id_col),
            lambda: LSHBandStage(bands=bands, id_col=id_col),
        )
        return st(batch)

    from ..functions.shard import sharded_group_map

    signed = docs.map_batches(minhash_fn, batch_format="pyarrow")
    banded = signed.map_batches(band_fn, batch_format="pyarrow")
    # sharded groupby: the (band, band_hash) key space is huge (≈ one
    # bucket per doc per band) — per-key map_groups would pay a Python
    # call per bucket; hashing buckets into shards bounds group count
    # while keeping every bucket's rows co-located.
    pairs = sharded_group_map(
        banded, ["band", "band_hash"], lambda g: _bucket_pairs_shard(g, id_col)
    )
    if distinct:
        # distinct pairs (a doc pair can collide in several bands); a
        # second shuffle — skip it (distinct=False) when a downstream
        # step dedupes anyway (candidate sets are tiny vs the corpus)
        pairs = sharded_group_map(
            pairs, ["doc_a", "doc_b"], lambda g: g.drop_duplicates()
        )
    return pairs


def verify_jaccard_pairs(
    pairs: ray.data.Dataset,
    docs_lookup_ref,
    *,
    threshold: float,
    shingle_n: int = 3,
) -> ray.data.Dataset:
    """Exact word-shingle Jaccard over candidate pairs; keeps pairs with
    jaccard >= threshold. ``docs_lookup_ref`` is a ``ray.put`` handle to
    a dict id→text — the BROADCAST (small-side) tier; the scale tier is
    ``verify_jaccard_pairs_joined`` (no corpus broadcast)."""

    def verify_fn(batch: pa.Table) -> pa.Table:
        import ray as _ray

        def build():
            lookup = (
                _ray.get(docs_lookup_ref)
                if isinstance(docs_lookup_ref, _ray.ObjectRef)
                else docs_lookup_ref
            )
            return {k: _word_shingles(v, shingle_n) for k, v in lookup.items()}

        if isinstance(docs_lookup_ref, _ray.ObjectRef):
            # ObjectRef hex is globally unique → safe cache key. A plain
            # dict has no stable identity (id() is recycled after GC and
            # could serve a stale corpus) — rebuild per call instead.
            sets = _cached_stage(
                ("jaccard_sets", docs_lookup_ref.hex(), shingle_n), build
            )
        else:
            sets = build()
        da = batch["doc_a"].to_numpy()
        db = batch["doc_b"].to_numpy()
        keep = np.zeros(len(da), dtype=bool)
        for i in range(len(da)):
            sa, sb = sets[da[i]], sets[db[i]]
            union = len(sa | sb)
            keep[i] = union > 0 and len(sa & sb) / union >= threshold
        return batch.filter(pa.array(keep))

    return pairs.map_batches(verify_fn, batch_format="pyarrow")


def shingle_sets_batch(
    batch: pa.Table, *, shingle_n: int = 3, id_col: str = "doc_id"
) -> pa.Table:
    """(id, text, …) → (id, shingles: list<uint64>) — each doc's deduped
    sorted shingle-hash set, computed in one vectorized pass."""
    texts = batch["text"].to_pylist()
    flat, offsets = batch_shingle_hashes(texts, shingle_n)
    col = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()), pa.array(flat, type=pa.uint64())
    )
    return pa.table({id_col: batch[id_col], "shingles": col})


def verify_jaccard_pairs_joined(
    pairs: ray.data.Dataset,
    docs: ray.data.Dataset,
    *,
    threshold: float,
    shingle_n: int = 3,
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Distributed exact-Jaccard verification — the 100 TB shape. No
    driver-side corpus read, no broadcast dict: candidate pairs are
    exploded to (doc_id, doc_a, doc_b), each doc's shingle-hash set is
    joined back by doc_id (bucketed hash join — uniform keys), and the
    Jaccard is computed per pair inside ``map_groups`` on the pair key.
    Duplicate candidates (a pair colliding in several LSH bands) land in
    the same pair group and collapse there — the output is distinct pairs
    with jaccard >= threshold, no separate distinct pass needed.

    Shuffles: one join by doc_id + one groupby on (doc_a, doc_b) — both
    uniform keys, both O(candidate pairs), never O(corpus)."""
    from ..functions.join import bucketed_hash_join

    sets_ds = docs.map_batches(
        lambda t: shingle_sets_batch(t, shingle_n=shingle_n, id_col=id_col),
        batch_format="pyarrow",
    )

    def explode(t: pa.Table) -> pa.Table:
        da = t["doc_a"].to_numpy()
        db = t["doc_b"].to_numpy()
        return pa.table(
            {
                id_col: np.concatenate([da, db]),
                "doc_a": np.concatenate([da, da]),
                "doc_b": np.concatenate([db, db]),
            }
        )

    from ..functions.shard import sharded_group_map

    exploded = pairs.map_batches(explode, batch_format="pyarrow")
    # explicit schemas: Dataset.schema() would execute BOTH lazy
    # pipelines once just to discover types. CONTRACT: ``id_col`` must
    # be int64 (the minhash pipeline's doc_id type) — a different id
    # dtype needs the schema()-derived path (pass schemas=None)
    joined = bucketed_hash_join(
        exploded,
        sets_ds,
        on=id_col,
        schemas=(
            {id_col: pa.int64(), "doc_a": pa.int64(), "doc_b": pa.int64()},
            {id_col: pa.int64(), "shingles": pa.list_(pa.uint64())},
        ),
    )

    def verify_shard(g: pd.DataFrame) -> pd.DataFrame:
        # collapse duplicate candidates (multi-band collisions) first,
        # then one tight loop over this shard's pairs
        g = g.drop_duplicates(subset=["doc_a", "doc_b", id_col])
        out_a: list[int] = []
        out_b: list[int] = []
        for (a, b), grp in g.groupby(["doc_a", "doc_b"], sort=False):
            if len(grp) != 2:
                continue
            sa = np.asarray(grp["shingles"].iloc[0], dtype=np.uint64)
            sb = np.asarray(grp["shingles"].iloc[1], dtype=np.uint64)
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            if union > 0 and inter / union >= threshold:
                out_a.append(int(a))
                out_b.append(int(b))
        return pd.DataFrame(
            {
                "doc_a": np.asarray(out_a, dtype=np.int64),
                "doc_b": np.asarray(out_b, dtype=np.int64),
            }
        )

    return sharded_group_map(joined, ["doc_a", "doc_b"], verify_shard)


# ----------------------------------------------------------- simhash


class SimHashStage:
    """64-bit SimHash over word-shingle hashes (sign-aggregated bit
    votes). Near-dups have small Hamming distance. Vectorized batch-wide:
    one ``batch_shingle_hashes`` pass, per-doc bit votes via
    ``np.add.reduceat`` — no per-doc or per-shingle Python."""

    def __init__(self, shingle_n: int = 1):
        self.shingle_n = shingle_n
        self.bits = np.uint64(1) << np.arange(64, dtype=np.uint64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        if not texts:
            sigs = np.empty(0, dtype=np.uint64)
        else:
            flat, offsets = batch_shingle_hashes(texts, self.shingle_n)
            # (S, 64) bit matrix via unpackbits on the raw little-endian
            # bytes — bit-identical to the broadcast ``flat & (1<<j)``
            # masks but ~250× faster (the 2-D strided uint64 AND falls
            # off this box's memory cliff; see MinHashStage note)
            bitmat = np.unpackbits(
                flat.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
            ).astype(np.int64)  # int64: reduceat's small-uint
            # accumulator path is ~50× slower than the native-int one
            votes = np.add.reduceat(bitmat, offsets[:-1], axis=0)  # (N, 64)
            counts = np.diff(offsets)[:, None]
            sig_bits = (votes * 2 >= counts).astype(np.uint64)
            sigs = (sig_bits * self.bits[None, :]).sum(axis=1, dtype=np.uint64)
        return batch.append_column("simhash", pa.array(sigs, type=pa.uint64()))


# SQL-mirrorable SimHash tier: every arithmetic step below is exactly
# expressible in DuckDB (the simhash_exact oracle), unlike the
# production SimHashStage's siphash word hashes. Tokens are runs of
# non-[ \t\n\r] (regexp_split_to_array mirror); each token hashes by
# the Horner code-point polynomial acc <- (acc*257 + codepoint) mod
# 2^31-1 (same recurrence the fingerprint_exact oracle mirrors via
# list_reduce — a single-element list returns the element, matching
# acc starting at 0); signature bit j is the majority vote of token
# hash bits j over TOKEN OCCURRENCES (duplicates counted, ties set),
# packed into 31 bits.
_SIMHASH_POLY_P = np.int64(2147483647)
_SIMHASH_POLY_BITS = 31
_SIMHASH_WS = re.compile(r"[ \t\n\r]+")


def _horner_token_hashes(tokens: np.ndarray) -> np.ndarray:
    """Vectorized Horner code-point hash per token: one utf-32 encode
    of the joined token text, then maxlen column passes of masked
    int64 math (acc*257 + cp < 2^39 — exact, as in DuckDB BIGINT)."""
    if not len(tokens):
        return np.empty(0, np.int64)
    joined = "\x00".join(tokens.tolist())
    cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(
        np.int64
    )
    lens = np.fromiter((len(t) for t in tokens), np.int64, count=len(tokens))
    starts = np.zeros(len(tokens), np.int64)
    np.cumsum(lens[:-1] + 1, out=starts[1:])
    acc = np.zeros(len(tokens), np.int64)
    for col in range(int(lens.max())):
        live = lens > col
        idx = np.minimum(starts + col, len(cp) - 1)
        acc = np.where(live, (acc * 257 + cp[idx]) % _SIMHASH_POLY_P, acc)
    return acc


def simhash_poly_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Append ``simhash``: the 31-bit SQL-mirrorable SimHash. Token
    hashes are computed once per UNIQUE token in the batch (factorize
    gather — corpora repeat tokens heavily), bit votes via the same
    unpackbits + reduceat idiom as SimHashStage. Null / empty /
    whitespace-only text → 0 (the oracle's COALESCE row)."""
    texts = batch[col].to_pylist()
    toks_per_doc = [
        [t for t in _SIMHASH_WS.split(s) if t] if s else [] for s in texts
    ]
    counts = np.fromiter(
        (len(w) for w in toks_per_doc), np.int64, count=len(texts)
    )
    sig = np.zeros(len(texts), np.int64)
    flat = [t for ts in toks_per_doc for t in ts]
    if flat:
        codes, uniq = pd.factorize(np.asarray(flat, dtype=object))
        th = _horner_token_hashes(np.asarray(uniq, dtype=object))[codes]
        bitmat = np.unpackbits(
            th.astype(np.uint64).view(np.uint8).reshape(-1, 8),
            axis=1,
            bitorder="little",
        ).astype(np.int64)[:, :_SIMHASH_POLY_BITS]
        offsets = np.zeros(len(texts) + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        nonempty = counts > 0
        votes = np.add.reduceat(bitmat, offsets[:-1][nonempty], axis=0)
        bits = (2 * votes >= counts[nonempty][:, None]).astype(np.int64)
        sig[nonempty] = (
            bits << np.arange(_SIMHASH_POLY_BITS, dtype=np.int64)[None, :]
        ).sum(axis=1)
    return batch.append_column("simhash", pa.array(sig, type=pa.int64()))


# SQL-mirrorable MinHash tier (same contract as the simhash poly tier
# above: the production MinHashStage keeps its siphash quality; this
# tier trades hash quality for a bit-exact DuckDB mirror of the WHOLE
# signature/banding computation). Shingle hash = Horner over the word
# Horner hashes: sh = ((w1·B + w2) mod p · B + w3) mod p with
# B = 1000003; permutation d: (a_d·sh + b_d) mod p, min per doc. Docs
# with fewer than n tokens emit no signature rows (the oracle's
# len(ts) >= n filter).
_MH_POLY_B = np.int64(1000003)
_MH_POLY_PERMS = (
    (1000003, 12345),
    (999983, 54321),
    (1000033, 98765),
    (1000037, 13579),
    (1000039, 24680),
    (1000081, 86420),
    (1000099, 11111),
    (1000117, 77777),
)


def minhash_poly_batch(
    batch: pa.Table, col: str = "text", n: int = 3
) -> pa.Table:
    """(doc_id, perm, minhash) long-format signatures for every doc
    with ≥ n tokens. One factorize + Horner pass for word hashes, one
    vectorized rolling combine for shingles, minimum.reduceat per
    (doc, perm) — no per-shingle Python."""
    texts = batch[col].to_pylist()
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    toks_per_doc = [
        [t for t in _SIMHASH_WS.split(s) if t] if s else [] for s in texts
    ]
    counts = np.fromiter(
        (len(w) for w in toks_per_doc), np.int64, count=len(texts)
    )
    flat = [t for ts in toks_per_doc for t in ts]
    p = _SIMHASH_POLY_P
    out_doc, out_perm, out_min = [], [], []
    if flat:
        codes, uniq = pd.factorize(np.asarray(flat, dtype=object))
        wh = _horner_token_hashes(np.asarray(uniq, dtype=object))[codes]
        m = max(len(wh) - n + 1, 0)
        if m:
            doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
            acc = wh[:m].copy()
            for j in range(1, n):
                acc = (acc * _MH_POLY_B + wh[j : m + j]) % p
            valid = doc_idx[:m] == doc_idx[n - 1 : n - 1 + m]
            sh, d = acc[valid], doc_idx[:m][valid]
            # d may be EMPTY even when m > 0: every doc under n tokens
            # but batch total >= n (all cross-doc windows invalid) —
            # starts would be [0] and d[starts] would IndexError
            if len(d):
                # d is sorted; per-doc segment starts for reduceat
                starts = np.nonzero(
                    np.concatenate([[True], d[1:] != d[:-1]])
                )[0]
                docs = d[starts]
                for pi, (a, b) in enumerate(_MH_POLY_PERMS):
                    ph = (np.int64(a) * sh + np.int64(b)) % p
                    mins = np.minimum.reduceat(ph, starts)
                    out_doc.append(ids[docs])
                    out_perm.append(np.full(len(docs), pi, dtype=np.int64))
                    out_min.append(mins)
    if not out_doc:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "perm": pa.array([], type=pa.int64()),
                "minhash": pa.array([], type=pa.int64()),
            }
        )
    return pa.table(
        {
            "doc_id": pa.array(np.concatenate(out_doc), type=pa.int64()),
            "perm": pa.array(np.concatenate(out_perm)),
            "minhash": pa.array(np.concatenate(out_min)),
        }
    )


# ------------------------------------------- duplicate clusters


def cluster_pairs(pairs_df, all_ids=None):
    """Verified near-dup pairs → connected components: (doc_id,
    cluster_rep) with rep = min doc_id of the component. Docs with no
    pair are their own rep (when ``all_ids`` given).

    Runs min-label propagation to fixpoint on the DRIVER — justified
    because the verified-pair graph is orders of magnitude smaller than
    the corpus (candidates post-LSH post-verify). The distributed form
    for a pathological pair set: iterate rounds of
    ``edges.groupby(node).aggregate(min(label))`` joined back to labels
    until no label changes (bounded by component diameter).
    """
    import pandas as pd

    label: dict[int, int] = {}
    for a, b in zip(pairs_df["doc_a"], pairs_df["doc_b"]):
        label.setdefault(int(a), int(a))
        label.setdefault(int(b), int(b))

    def find(x: int) -> int:
        root = x
        while label[root] != root:
            root = label[root]
        while label[x] != root:  # path compression
            label[x], x = root, label[x]
        return root

    for a, b in zip(pairs_df["doc_a"], pairs_df["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            # union by min id → deterministic representative
            lo, hi = min(ra, rb), max(ra, rb)
            label[hi] = lo
    rows = {d: find(d) for d in list(label)}
    if all_ids is not None:
        for d in all_ids:
            rows.setdefault(int(d), int(d))
    out = pd.DataFrame(
        {"doc_id": list(rows.keys()), "cluster_rep": list(rows.values())}
    ).astype("int64")
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


def connected_components(
    pairs: ray.data.Dataset,
    nodes: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    max_rounds: int = 50,
    small_graph_pairs: int = 2_000_000,
) -> ray.data.Dataset:
    """Verified near-dup pairs → (doc_id, cluster_rep) with rep = the
    component's min doc_id — DISTRIBUTED min-label propagation, the
    100 TB replacement for the driver union-find in ``cluster_pairs``.

    ``pairs`` has (doc_a, doc_b); ``nodes`` has one ``id_col`` row per
    doc (isolated docs become their own rep). Per round: every node's
    current label is pushed along its edges (groupby co-locates a
    node's label row with its edge rows), then each node keeps the min
    incoming label (second groupby, fed by per-shard partial mins).
    Labels only decrease, so the total label sum strictly decreases
    until fixpoint — the driver holds one scalar per round, never the
    graph. Rounds = component diameter (near-dup clusters are
    shallow); ``max_rounds`` bounds pathological chains.

    Scale shape: the iteration runs over the EDGE SUBGRAPH only —
    O(edges) rows per round, NOT O(corpus) — because a doc in no pair
    can never change label; isolated docs get ``label = own id`` in one
    final corpus-wide sharded pass after the loop converges. At 100 TB
    the per-round cost tracks the near-dup graph (≪ corpus), and the
    corpus is touched exactly twice (candidate generation upstream,
    final assignment here).

    Size-adaptive tiering: when the PAIR set is small
    (``small_graph_pairs`` — sized to the Python union-find's real
    cost, a boxed dict entry per node plus a per-edge loop, roughly
    100 B and ~1 µs per pair, so the default ≈ 200 MB / a few seconds
    in one worker), the rounds collapse to a single in-WORKER
    union-find task — the propagation loop's per-round shuffle costs
    dominate tiny graphs, and the driver still never holds the graph
    (this is a Ray task, not driver code). Large graphs take the
    bounded-round propagation path unchanged.
    """
    from ray.data.aggregate import Min

    def undirect(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy()
        b = t["doc_b"].to_numpy()
        return pa.table(
            {
                "node": np.concatenate([a, b]).astype(np.int64),
                "nbr": np.concatenate([b, a]).astype(np.int64),
            }
        )

    from ..functions.shard import co_group

    edges = pairs.map_batches(undirect, batch_format="pyarrow").materialize()

    if edges.count() <= 2 * small_graph_pairs:
        # single-task tier: one Ray task takes every block of the
        # materialized edges and runs union-find on one direction of
        # each edge (``node <= nbr`` keeps a self-pair's node), so the
        # upstream ``pairs`` pipeline runs once
        def union_find(*blocks: pa.Table) -> pa.Table:
            # an empty block may have no columns at all
            blocks = [b for b in blocks if b.num_rows]
            if not blocks:
                return pa.table(
                    {"node": pa.array([], pa.int64()),
                     "label": pa.array([], pa.int64())}
                )
            t = pa.concat_tables(blocks)
            t = t.filter(pc.less_equal(t["node"], t["nbr"]))
            df = pd.DataFrame(
                {"doc_a": t["node"].to_numpy(), "doc_b": t["nbr"].to_numpy()}
            )
            lab = cluster_pairs(df)
            return pa.table(
                {
                    "node": pa.array(
                        lab["doc_id"].to_numpy(), type=pa.int64()
                    ),
                    "label": pa.array(
                        lab["cluster_rep"].to_numpy(), type=pa.int64()
                    ),
                }
            )

        ref = ray.remote(union_find).remote(*edges.to_arrow_refs())
        return _assign_all(ray.data.from_arrow_refs([ref]), nodes, id_col)

    # round 0 fused into the seed, edge nodes only: with identity
    # labels, the label a node receives from a neighbor IS the
    # neighbor's id — one groupby-min over (self ∪ neighbor-id)
    # candidate rows seeds the subgraph and does the first propagation.
    def self_and_nbr(t: pa.Table) -> pa.Table:
        n = t["node"].to_numpy()
        b = t["nbr"].to_numpy()
        return pa.table(
            {
                "node": np.concatenate([n, n]),
                "label": np.concatenate([n, b]).astype(np.int64),
            }
        )

    labels = (
        edges.map_batches(self_and_nbr, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("label", alias_name="label"))
        .materialize()
    )

    def push_shard(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized label push for every node in the shard: each
        # node's label row + its edge rows are co-located here; one
        # merge propagates labels across all the shard's edges at once
        lab = g.loc[g["label"].notna(), ["node", "label"]]
        ed = g.loc[g["nbr"].notna(), ["node", "nbr"]]
        fwd = (
            ed.merge(lab, on="node", how="inner")
            .loc[:, ["nbr", "label"]]
            .rename(columns={"nbr": "node"})
        )
        out = pd.concat([lab, fwd], ignore_index=True)
        # combiner: per-shard partial min per destination node — the
        # second shuffle then moves O(distinct dst × shards) rows, not
        # O(edges)
        out = out.groupby("node", as_index=False)["label"].min()
        return out.astype({"node": "int64", "label": "int64"})

    prev_sum = labels.sum("label")
    converged = False
    for _ in range(max_rounds):
        # label rows have a null nbr, edge rows a null label
        pushed = co_group(
            [(labels, None), (edges, None)],
            ["node"],
            push_shard,
            columns=dict.fromkeys(["node", "nbr", "label"], pa.int64()),
        )
        # labels and edges are materialized, so their block count is
        # known: co_group merges their union down to the shard count
        # only when it holds more blocks; ``pushed`` goes into the
        # min-aggregate as the groupby emits it
        labels = (
            pushed.groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        # silently returning partial labels would split components
        # across several cluster_reps — wrong dedup with no signal
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds "
            "(component diameter exceeds max_rounds; raise max_rounds)"
        )

    return _assign_all(labels, nodes, id_col)


def _assign_all(
    labels: ray.data.Dataset, nodes: ray.data.Dataset, id_col: str
) -> ray.data.Dataset:
    """One corpus-wide pass: every doc gets its propagated label, or
    its own id when it appears in no pair (isolated singleton
    cluster). Shared by both component tiers."""
    from ..functions.shard import co_group

    def node_ids(t: pa.Table) -> pa.Table:
        return pa.table({"node": t[id_col].to_numpy().astype(np.int64)})

    def assign_shard(g: pd.DataFrame) -> pd.DataFrame:
        own = g.drop_duplicates("node")[["node"]]
        lab = (
            g.dropna(subset=["label"])
            .groupby("node", as_index=False)["label"]
            .min()
        )
        m = own.merge(lab, on="node", how="left")
        m["label"] = m["label"].fillna(m["node"])
        return m.astype({"node": "int64", "label": "int64"})

    # node rows have a null label
    assigned = co_group(
        [(nodes, node_ids), (labels, None)],
        ["node"],
        assign_shard,
        columns={"node": pa.int64(), "label": pa.int64()},
    )

    def to_out(t: pa.Table) -> pa.Table:
        return pa.table(
            {id_col: t["node"], "cluster_rep": t["label"]}
        )

    return assigned.map_batches(to_out, batch_format="pyarrow")


# ----------------------------------- exact blocked n-gram Jaccard


def jaccard_pairs_blocked(
    docs: ray.data.Dataset,
    *,
    block_col: str = "lang",
    threshold: float = 0.5,
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Exact pairwise word-set (1-gram) Jaccard within each block —
    SQL-mirrorable ground truth. O(block²) by construction; the block
    key bounds the quadratic term (the documented skew assumption).

    Null semantics mirror the SQL form exactly: a null block key never
    joins (SQL equi-join drops NULLs) and a null text has NULL words →
    NULL jaccard → fails the threshold — both row classes leave the
    pair computation entirely (and Ray's sort-based groupby cannot
    order None beside str anyway; null-parity gate finding, r4)."""

    def _drop_null_keys(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return t.filter(
            _pc.and_(_pc.is_valid(t[block_col]), _pc.is_valid(t["text"]))
        )

    docs = docs.map_batches(_drop_null_keys, batch_format="pyarrow")

    def per_block(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort")
        ids = g[id_col].to_numpy()
        n = len(ids)
        # Arrow-vectorized tokenization (no Python word loop): one
        # whitespace split per block, flatten to (doc_idx, word) pairs.
        # Python's str.split() and Arrow's split on trimmed text agree.
        texts = pa.array(g["text"].fillna("").to_numpy(), type=pa.string())
        toks = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(texts))
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        # split of "" yields [""] — drop empty tokens
        nonempty = flat != ""
        doc_idx = np.repeat(np.arange(n), counts)[nonempty]
        flat = flat[nonempty]
        if len(flat):
            vocab_idx, uniques = pd.factorize(flat)
            v = max(len(uniques), 1)
        else:
            vocab_idx = np.empty(0, np.intp)
            v = 1
        # membership → intersections by chunked float32 BLAS matmuls:
        # the O(n²·v) term never builds the full n×v matrix (peak extra
        # memory n×CHUNK×4 B). Repeated (doc, word) assignments are
        # idempotent, so set semantics need no dedup pass. float32 is
        # exact here: counts < 2²⁴, and a rational i/u can't round
        # across the threshold in either precision.
        inter = np.zeros((n, n), dtype=np.float32)
        sizes = np.zeros(n, dtype=np.float32)
        CHUNK = 4096
        order = np.argsort(vocab_idx, kind="stable")
        vi, di = vocab_idx[order], doc_idx[order]
        for start in range(0, v, CHUNK):
            lo, hi = np.searchsorted(vi, [start, start + CHUNK])
            if lo == hi:
                continue
            w = min(CHUNK, v - start)
            m = np.zeros((n, w), dtype=np.float32)
            m[di[lo:hi], vi[lo:hi] - start] = 1.0
            inter += m @ m.T
            sizes += m.sum(axis=1)
        union = sizes[:, None] + sizes[None, :] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            jac = np.where(union > 0, inter / union, 0.0)
        ia, ib = np.nonzero(np.triu(jac >= threshold, k=1))
        return pd.DataFrame(
            {
                "doc_a": ids[ia].astype(np.int64),
                "doc_b": ids[ib].astype(np.int64),
            }
        )

    return docs.groupby(block_col).map_groups(per_block, batch_format="pandas")


# --------------------------------------------------------- log dedup


def log_dedup(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    ts_col: str = "ts",
    first_col: str = "conv_id",
) -> ray.data.Dataset:
    """The contrib logdedupprocessor idiom: collapse identical log
    bodies within a tumbling time window (hourly) into one row carrying
    the occurrence count and the first-seen carrier (min of
    ``first_col`` — deterministic representative). Pure combiner shape:
    per-batch Arrow partials on (body, window) — count + min — merged
    through one groupby whose keys are high-cardinality and uniform
    (the body text itself), so no reducer ever holds more than a few
    partial rows per distinct body."""
    from ray.data.aggregate import Min, Sum

    def partial(t: pa.Table) -> pa.Table:
        win = pc.floor_temporal(t[ts_col], unit="hour")
        body = t[text_col]
        g = (
            pa.table({text_col: body, "window_start": win, first_col: t[first_col]})
            .group_by([text_col, "window_start"])
            .aggregate([([], "count_all"), (first_col, "min")])
        )
        return g.rename_columns([text_col, "window_start", "_pc", "_pf"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby([text_col, "window_start"]).aggregate(
        Sum("_pc", alias_name="n"), Min("_pf", alias_name="first_seen")
    )


# ------------------------------------------- train/test contamination


def contamination_check(
    docs: ray.data.Dataset,
    *,
    n: int = 5,
    test_mod: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
    shards: int | None = None,
) -> ray.data.Dataset:
    """Train/test contamination scan: for every held-out document
    (``doc_id % test_mod == 0``), count the distinct word-``n``-grams it
    shares with ANY training document — the eval-leakage check a
    training-corpus pipeline runs before a data release.

    Shape: explode each doc to its distinct gram HASHES (the vectorized
    ``batch_shingle_hashes`` rolling hash — 8 bytes/gram through the
    shuffle instead of the gram text; collisions are ~(grams²)/2⁶⁴,
    negligible), one sharded groupby co-locates each gram's postings,
    a vectorized per-shard pass emits (test_doc, shared-gram) partials,
    and a tiny uniform groupby sums per-doc counts. Nothing holds more
    than one shard's postings; no driver-side state. Docs shorter than
    ``n`` words have no grams (strict windows — mirrors the SQL oracle
    exactly; the padded-shingle semantics of the minhash tier would
    diverge on short docs)."""
    from ray.data.aggregate import Sum

    from ..functions.shard import sharded_group_map

    def explode(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if not texts:
            return pa.table(
                {
                    "gram": pa.array([], type=pa.uint64()),
                    id_col: pa.array([], type=pa.int64()),
                    "is_test": pa.array([], type=pa.bool_()),
                }
            )
        flat, offsets = batch_shingle_hashes(texts, n)
        words = np.fromiter(
            (len(v.split()) if v is not None else 0 for v in texts),
            np.int64,
            count=len(texts),
        )
        lens = np.diff(offsets)
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        # strict n-gram windows only: drop the padded shingles that
        # batch_shingle_hashes emits for docs with < n words
        mask = words[doc_idx] >= n
        d = ids[doc_idx[mask]]
        return pa.table(
            {
                "gram": pa.array(flat[mask], type=pa.uint64()),
                id_col: pa.array(d, type=pa.int64()),
                "is_test": pa.array(d % test_mod == 0),
            }
        )

    postings = docs.map_batches(explode, batch_format="pyarrow")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        is_train = ~g["is_test"].to_numpy()
        has_train = (
            pd.Series(is_train)
            .groupby(g["gram"].to_numpy(), sort=False)
            .transform("max")
            .to_numpy()
        )
        hits = g.loc[g["is_test"].to_numpy() & has_train, [id_col, "gram"]]
        hits = hits.drop_duplicates()  # distinct grams per test doc
        out = hits.groupby(id_col, as_index=False).size()
        return out.rename(columns={"size": "_pc"}).astype(
            {id_col: "int64", "_pc": "int64"}
        )

    partials = sharded_group_map(postings, ["gram"], per_shard, shards=shards)
    out = partials.groupby(id_col).aggregate(Sum("_pc", alias_name="n_shared"))

    def ensure_schema(t: pa.Table) -> pa.Table:
        # zero contamination (or an all-short corpus) yields empty
        # schema-less blocks — pin the contract schema
        if len(t) == 0 or id_col not in t.column_names:
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "n_shared": pa.array([], type=pa.int64()),
                }
            )
        return t

    # NOTE: a fully-empty result (nothing contaminated) can surface as
    # a ZERO-block dataset whose to_pandas() has no columns — a Ray
    # quirk of empty aggregates; callers comparing schemas on empty
    # results should normalize (the driver gate never hits this: the
    # test corpora always have contaminated docs)
    return out.map_batches(ensure_schema, batch_format="pyarrow")


# ------------------------------------- duplicated-passage scoring


def dup_span_fraction(
    docs: ray.data.Dataset,
    *,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    shards: int | None = None,
) -> ray.data.Dataset:
    """Exact-substring duplication scoring (the passage-level signal of
    "Deduplicating Training Data Makes Language Models Better"): per
    document, the fraction of its distinct word-``n``-grams that occur
    in at least one OTHER document — high fraction ⇒ boilerplate /
    cross-doc duplicated passages, a standard pre-training drop rule.

    Shape: ONE explode pass emits per-doc distinct gram-hash postings
    (``batch_shingle_hashes`` dedups within doc, so a doc's total
    distinct-gram count is simply its posting count); gram postings
    co-locate via a sharded groupby where a vectorized pass emits BOTH
    partials per doc — rows seen in this shard (``_tot``) and rows
    whose gram has ≥2 distinct docs (``_dup``) — and one uniform
    groupby on doc_id sums the partials. A gram lives entirely in one
    shard, so dup credits are exact; totals sum across shards to the
    per-doc distinct-gram count. Strict n-gram windows (docs shorter
    than ``n`` words emit nothing — mirrors the SQL oracle)."""
    from ray.data.aggregate import Sum

    def postings_batch(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if not texts:
            return pa.table(
                {
                    "gram": pa.array([], type=pa.uint64()),
                    id_col: pa.array([], type=pa.int64()),
                }
            )
        flat, offsets = batch_shingle_hashes(texts, n)
        words = np.fromiter(
            (len(v.split()) if v is not None else 0 for v in texts),
            np.int64,
            count=len(texts),
        )
        lens = np.diff(offsets)
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        mask = words[doc_idx] >= n
        d = ids[doc_idx[mask]]
        return pa.table(
            {
                "gram": pa.array(flat[mask], type=pa.uint64()),
                id_col: pa.array(d, type=pa.int64()),
            }
        )

    postings = docs.map_batches(postings_batch, batch_format="pyarrow")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        # postings are per-doc distinct, so per-doc row count here is a
        # totals partial; docs of multi-doc grams earn one dup partial
        nd = g.groupby("gram")[id_col].transform("nunique")
        hits = g.loc[nd.to_numpy() > 1, [id_col]]
        dup = hits.groupby(id_col, as_index=False).size()
        dup = dup.rename(columns={"size": "_dup"})
        tot = g.groupby(id_col, as_index=False).size()
        tot = tot.rename(columns={"size": "_tot"})
        out = tot.merge(dup, on=id_col, how="left")
        out["_dup"] = out["_dup"].fillna(0)
        return out.astype({id_col: "int64", "_tot": "int64", "_dup": "int64"})

    from ..functions.shard import sharded_group_map

    merged = sharded_group_map(
        postings, ["gram"], per_shard, shards=shards
    ).groupby(id_col).aggregate(
        Sum("_tot", alias_name="n_grams"), Sum("_dup", alias_name="n_dup")
    )

    def finish(t: pa.Table) -> pa.Table:
        if len(t) == 0 or "n_grams" not in t.column_names:
            # the aggregate can emit empty schema-less blocks
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "n_grams": pa.array([], type=pa.int64()),
                    "n_dup_grams": pa.array([], type=pa.int64()),
                    "dup_frac": pa.array([], type=pa.float64()),
                }
            )
        tot = t["n_grams"]
        dup_col = t["n_dup"]
        # a block whose every group summed only nulls comes back
        # null-TYPED, not just null-valued — cast before fill
        if pa.types.is_null(dup_col.type):
            dup = pa.array([0] * len(t), type=pa.int64())
        else:
            dup = pc.fill_null(pc.cast(dup_col, pa.int64()), 0)
        frac = pc.divide(
            pc.cast(dup, pa.float64()), pc.cast(tot, pa.float64())
        )
        return pa.table(
            {
                id_col: t[id_col],
                "n_grams": tot,
                "n_dup_grams": dup,
                "dup_frac": frac,
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")
