"""Driver contract for the Ray-Data-native OTel-collector-style engine.

``entry()`` — flagship parse→enrich→route pipeline over sf0.001.
``queries()`` — one callable per implemented operator (SURVEY.md §2).
``oracle_sql()`` — matching DuckDB SQL over the same parquet views.

Ray is initialised by the driver before import; nothing here calls
``ray.init`` / ``ray.shutdown``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

import pyarrow as pa

# The driver calls ray.init() BEFORE importing this module, possibly from a
# different cwd — so (a) make the package importable here, and (b) ship the
# package code by value inside every task/actor pickle so Ray workers never
# need it on their own sys.path.
_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)

import opentelemetry_collector_ray  # noqa: E402

try:
    from ray import cloudpickle as _cp

    _cp.register_pickle_by_value(opentelemetry_collector_ray)
except Exception:  # pragma: no cover - best effort; cwd==repo still works
    pass

from opentelemetry_collector_ray.sources.parquet import read_parquet  # noqa: E402


# --------------------------------------------------------------- helpers
def _transcripts(sf_dir: str):
    from opentelemetry_collector_ray.sources.transcripts import (
        transcripts_from_events,
    )

    return transcripts_from_events(sf_dir)


def _parsed(sf_dir: str):
    from opentelemetry_collector_ray.stages.parse import parse_batch

    return _transcripts(sf_dir).map_batches(parse_batch, batch_format="pyarrow")


def _enriched(sf_dir: str):
    from opentelemetry_collector_ray.stages.enrich import enrich_batch

    return _parsed(sf_dir).map_batches(enrich_batch, batch_format="pyarrow")


def _routed_rows(sf_dir: str):
    from opentelemetry_collector_ray.stages.route import explode_sinks_batch

    return _enriched(sf_dir).map_batches(
        explode_sinks_batch, batch_format="pyarrow"
    )


# ---------------------------------------------------------------- queries
def q_transcripts(sf_dir: str):
    return _transcripts(sf_dir)


def q_parse(sf_dir: str):
    return _parsed(sf_dir)


def q_enrich(sf_dir: str):
    return _enriched(sf_dir)


def q_route_rows(sf_dir: str):
    return _routed_rows(sf_dir).select_columns(["conv_id", "turn_idx", "sink"])


def q_sink_counts(sf_dir: str):
    from opentelemetry_collector_ray.pipelines.logs import sink_counts

    return sink_counts(_enriched(sf_dir))


def q_errors_sink(sf_dir: str):
    """Content of the 'errors' sink — routed-row + per-turn text equality."""
    import pyarrow.compute as pc

    ds = _routed_rows(sf_dir)
    return ds.map_batches(
        lambda t: t.filter(pc.equal(t["sink"], "errors")).select(
            ["conv_id", "turn_idx", "text"]
        ),
        batch_format="pyarrow",
    )


def q_filter_severity(sf_dir: str):
    """filterprocessor analogue: drop everything below WARN."""
    import pyarrow.compute as pc

    def keep(t: pa.Table) -> pa.Table:
        mask = pc.is_in(
            pc.fill_null(t["level"], ""), value_set=pa.array(["WARN", "ERROR"])
        )
        return t.filter(mask).select(
            ["conv_id", "turn_idx", "level", "latency_ms"]
        )

    return _parsed(sf_dir).map_batches(keep, batch_format="pyarrow")


def q_route_latency_agg(sf_dir: str):
    """Aggregate over parsed values per route: count + total latency."""
    from ray.data.aggregate import Count, Sum

    ds = _enriched(sf_dir)
    return ds.groupby("route").aggregate(
        Count(alias_name="n"), Sum("latency_ms", alias_name="sum_latency")
    )


# ------------------------------------------------ collector-op extras
def q_attributes_transform(sf_dir: str):
    """attributesprocessor action list over events (upsert/rename/
    extract/delete/hash — docs/processing.md:36-50 semantics)."""
    from opentelemetry_collector_ray.stages.attributes import AttributesStage

    ds = read_parquet(f"{sf_dir}/events.parquet")
    stage = AttributesStage(
        [
            {"action": "upsert", "key": "env", "value": "prod"},
            {"action": "rename", "key": "value", "to": "amount"},
            {
                "action": "extract",
                "key": "props",
                "pattern": r'"k": (?P<k_val>\d+)',
            },
            {"action": "delete", "key": "props"},
            {"action": "hash", "key": "user_id"},
            {
                "action": "replace_pattern",
                "key": "event_type",
                "pattern": "click",
                "replacement": "tap",
            },
            {
                "action": "keep_keys",
                "keys": ["event_id", "event_type", "amount", "env", "k_val", "user_id"],
            },
        ]
    )
    return ds.map_batches(stage, batch_format="pyarrow")


def q_batch_rebatch(sf_dir: str):
    """batch processor analogue: re-block to ≤2048-row batches; content
    must be invariant (count/schema/rows identical)."""
    from opentelemetry_collector_ray.stages.batch import rebatch

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "event_type"])
    return rebatch(ds, 2048)


# ------------------------------------------------ training-data ops
def q_dedup_exact(sf_dir: str):
    from opentelemetry_collector_ray.stages.dedup import exact_dedup

    ds = read_parquet(f"{sf_dir}/documents.parquet")
    return exact_dedup(ds, col="text", id_col="doc_id")


def q_token_stats(sf_dir: str):
    from opentelemetry_collector_ray.stages.text import token_stats_batch

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(token_stats_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "n_tokens", "avg_word_len"]
    )


def q_quality(sf_dir: str):
    from opentelemetry_collector_ray.stages.text import quality_batch

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(quality_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "stopword_count", "stopword_ratio", "quality_score"]
    )


def q_jaccard_pairs(sf_dir: str):
    from opentelemetry_collector_ray.stages.dedup import jaccard_pairs_blocked

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    return jaccard_pairs_blocked(ds, block_col="lang", threshold=0.5)


def q_tail_sample(sf_dir: str):
    """Tail-based sampling: all-or-nothing per trace — error traces
    plus a deterministic 1/20 sample (tailsamplingprocessor idiom)."""
    from opentelemetry_collector_ray.stages.signals import (
        span_details_batch,
        tail_sample,
    )

    spans_d = _parsed(sf_dir).map_batches(
        span_details_batch, batch_format="pyarrow"
    )
    return tail_sample(spans_d, keep_mod=20)


def q_tail_sample_policies(sf_dir: str):
    """The tailsamplingprocessor policy SET under composite first-match
    precedence (status_code > latency > string_attribute >
    probabilistic): one row per sampled trace with the policy that
    took it — whole-trace decisions via the sharded co-group, integer
    comparisons throughout so the oracle agrees bit-exactly."""
    from opentelemetry_collector_ray.stages.signals import (
        tail_sample_policies,
    )

    return tail_sample_policies(_parsed(sf_dir))


def q_vocab_topk(sf_dir: str):
    """Vocabulary building: global top-100 tokens by frequency
    (WordCount with the combiner shape)."""
    from opentelemetry_collector_ray.stages.text import vocab_topk

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return vocab_topk(docs, k=100)


def q_redact(sf_dir: str):
    """PII scrub: sequential regex redaction over document text."""
    from opentelemetry_collector_ray.stages.text import redact_batch

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(redact_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "text_redacted"]
    )


def q_curate(sf_dir: str):
    """Composite training-data curation: quality gate (score == 2) →
    exact dedup (min doc_id per text) → (doc_id, lang). The end-to-end
    corpus-cleaning pipeline assembled from the individual operators."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.stages.dedup import exact_dedup
    from opentelemetry_collector_ray.stages.text import quality_batch

    docs = read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    scored = docs.map_batches(quality_batch, batch_format="pyarrow")
    kept = scored.map_batches(
        lambda t: t.filter(pc.equal(t["quality_score"], 2)),
        batch_format="pyarrow",
    )
    return exact_dedup(kept, col="text", id_col="doc_id").select_columns(
        ["doc_id", "lang"]
    )


def q_checkpoint_ledger(sf_dir: str):
    """The persistent-queue/resume story as a queryable result: run the
    parse pipeline partition-wise with the checkpoint ledger, run it
    AGAIN, and return per-partition rows plus proof the second run
    skipped every completed partition (the ri/wi/di crash-recovery
    analogue, persistent_storage.go:29-50)."""
    import os
    import shutil
    import tempfile
    import zlib

    import pandas as pd

    from opentelemetry_collector_ray.state.checkpoint import (
        PartitionLedger,
        run_partitioned,
    )

    # fixed shard dir per corpus (partition assignment hashes absolute
    # paths, so the path must be stable across invocations — and the
    # tag must use a SEEDLESS hash: Python's hash() is randomized per
    # process and would move the shards every run)
    src = f"{sf_dir}/events.parquet"
    tag = zlib.crc32(
        f"{os.path.abspath(src)}:{os.path.getmtime(src)}".encode()
    )
    shard_dir = os.path.join(
        tempfile.gettempdir(), f"otel_ray_ledger_shards_{tag}"
    )
    # evict stale corpus copies from earlier mtimes (they are orphaned
    # forever otherwise — one full corpus copy per regeneration)
    import glob as _glob

    for stale in _glob.glob(
        os.path.join(tempfile.gettempdir(), "otel_ray_ledger_shards_*")
    ):
        if stale != shard_dir and "tmp" not in os.path.basename(stale):
            shutil.rmtree(stale, ignore_errors=True)
    if not os.path.isdir(shard_dir):
        # attempt-unique staging + tolerant publish: two concurrent
        # drivers must not share a tmp dir (write_parquet APPENDs) nor
        # crash when the other wins the rename
        import uuid as _uuid

        tmp = f"{shard_dir}.tmp-{os.getpid()}-{_uuid.uuid4().hex[:8]}"
        read_parquet(src).repartition(8).write_parquet(tmp)
        try:
            os.rename(tmp, shard_dir)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)  # another driver won
    files = sorted(
        os.path.join(shard_dir, f)
        for f in os.listdir(shard_dir)
        if f.endswith(".parquet")
    )

    out_dir = os.path.join(tempfile.gettempdir(), f"otel_ray_ledger_out_{tag}")
    shutil.rmtree(out_dir, ignore_errors=True)

    def pipeline(paths):
        ds = read_parquet(paths)
        return ds.map_batches(
            lambda t: t.select(["event_id", "event_type"]),
            batch_format="pyarrow",
        )

    try:
        run_partitioned(files, out_dir, pipeline, num_partitions=4)
        done = PartitionLedger(out_dir).completed()
        second = run_partitioned(files, out_dir, pipeline, num_partitions=4)
        all_skipped = second["processed"] == 0
        return pd.DataFrame(
            {
                "partition": [int(pid) for pid in sorted(done)],
                "rows": [int(done[pid].rows) for pid in sorted(done)],
                "second_run_skipped": [all_skipped] * len(done),
            }
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def q_count_connector(sf_dir: str):
    """The contrib countconnector idiom: count log records matching a
    condition (level=ERROR), emitted as a metric per tumbling hour —
    logs in, metric datapoints out."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.functions.agg import grouped_count

    def bucket_errors(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.equal(pc.fill_null(t["level"], ""), "ERROR")
        )
        return pa.table(
            {"window_start": pc.floor_temporal(t["ts"], unit="hour")}
        )

    rows = _parsed(sf_dir).map_batches(bucket_errors, batch_format="pyarrow")
    return grouped_count(rows, ["window_start"], alias="n")


def q_curate_full(sf_dir: str):
    """The complete training-data assembly line in one lazy chain:
    quality gate → exact dedup → stratified mix → chunk explosion.
    Four operators, one streaming pipeline, every step oracle-exact."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.stages.dedup import exact_dedup
    from opentelemetry_collector_ray.stages.text import (
        chunk_batch,
        mix_sample,
        quality_batch,
    )

    docs = read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    scored = docs.map_batches(quality_batch, batch_format="pyarrow")
    kept = scored.map_batches(
        lambda t: t.filter(pc.equal(t["quality_score"], 2)),
        batch_format="pyarrow",
    )
    deduped = exact_dedup(kept, col="text", id_col="doc_id")
    mixed = mix_sample(deduped, {"en": 60}, default_rate=30)
    chunks = mixed.map_batches(
        lambda t: chunk_batch(t, size=50, stride=40),
        batch_format="pyarrow",
    )
    return chunks.select_columns(["doc_id", "chunk_idx", "chunk_text"])


def q_sessionize(sf_dir: str):
    from opentelemetry_collector_ray.stages.window import sessionize

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    return sessionize(ds, gap_minutes=30).select_columns(
        ["user_id", "session_id", "n_events", "start_ts", "end_ts"]
    )


def q_active_sessions(sf_dir: str):
    """Concurrent-sessions-per-hour: sessions explode into the hours
    they span (gap-bounded factor), tiny combiner count — sweep-line
    without a global ordered scan."""
    from opentelemetry_collector_ray.stages.window import (
        active_sessions_per_hour,
        sessionize,
    )

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    return active_sessions_per_hour(sessionize(ds, gap_minutes=30))


def q_tumbling_hourly(sf_dir: str):
    from opentelemetry_collector_ray.stages.window import tumbling_counts

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    return tumbling_counts(ds, unit="hour")


def q_top_users(sf_dir: str):
    """sort + limit: top 10 users by event count (tie → lower user_id)."""
    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    counts = ds.groupby("user_id").count().rename_columns({"count()": "n"})
    top = counts.sort(["n", "user_id"], descending=[True, False]).limit(10)
    return top


def _embedding_queries(sf_dir: str) -> dict:
    """Deterministic query set: embeddings of vec_id 0..4."""
    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qtbl = tbl.filter(pa.compute.less(tbl["vec_id"], 5))
    return {
        int(i): v
        for i, v in zip(
            qtbl["vec_id"].to_pylist(), qtbl["embedding"].to_pylist()
        )
    }


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 for query vectors = embeddings 0..4."""
    from opentelemetry_collector_ray.stages.similarity import brute_force_topk

    ds = read_parquet(f"{sf_dir}/embeddings.parquet")
    return brute_force_topk(ds, _embedding_queries(sf_dir), k=10)


# -------------------------------- non-SQL-expressible (rows-only gate)
_MINHASH_PAIRS_CACHE: dict = {}


def _verified_pairs(sf_dir: str):
    """Materialized verified near-dup pairs, shared between
    `minhash_pairs` and `dedup_clusters` in one session — the forward-
    connector idiom (one stage's output feeds several consumers without
    recomputation). Cache key includes the documents file's mtime so a
    rewritten corpus recomputes."""
    from opentelemetry_collector_ray.stages.dedup import (
        minhash_candidates,
        verify_jaccard_pairs_joined,
    )

    key = (
        os.path.abspath(sf_dir),
        os.path.getmtime(f"{sf_dir}/documents.parquet"),
    )
    # GRAFT_NO_QUERY_CACHE: bench runs set this so every timed query
    # pays its own full pipeline (a cached near_dup_keep once benched
    # at 0.001 s — a dict lookup, not the operator)
    bypass = bool(os.environ.get("GRAFT_NO_QUERY_CACHE"))
    hit = None if bypass else _MINHASH_PAIRS_CACHE.get(key)
    if hit is None:
        docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        cands = minhash_candidates(docs, distinct=False)
        verified = verify_jaccard_pairs_joined(cands, docs, threshold=0.5)
        hit = verified.materialize()
        if not bypass:
            _MINHASH_PAIRS_CACHE.clear()  # bound: one corpus at a time
            _MINHASH_PAIRS_CACHE[key] = hit
    return hit


def q_minhash_pairs(sf_dir: str):
    """MinHash-LSH candidate pairs verified by exact Jaccard — fully
    distributed: no driver-side corpus read, no broadcast text dict.
    Candidates collapse to distinct pairs inside the verify groupby."""
    return (
        _verified_pairs(sf_dir)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"], kind="mergesort")
        .reset_index(drop=True)
    )


def q_simhash(sf_dir: str):
    from opentelemetry_collector_ray.stages.dedup import (
        SimHashStage,
        _cached_stage,
    )

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    # stage state is trivial (a bit mask) → per-worker cached stage in
    # elastic tasks, not a fixed actor pool (no reserved CPUs, no
    # startup latency; see dedup._cached_stage rationale)
    def fn(b):
        return _cached_stage(("simhash_q",), SimHashStage)(b)

    return ds.map_batches(fn, batch_format="pyarrow").select_columns(
        ["doc_id", "simhash"]
    )


def q_simhash_exact(sf_dir: str):
    """SimHash under a FULL oracle: the 31-bit poly tier's every step —
    whitespace tokenization, Horner code-point token hash mod 2³¹−1,
    per-bit occurrence-majority vote (ties set), bit packing — is
    mirrored in DuckDB (regexp_split_to_array → list_reduce →
    bit-shift sums), so each document's signature hash-matches SQL,
    near-dup collisions included. `simhash` keeps the production
    64-bit siphash tier (rows-only, pinned by Hamming tests)."""
    from opentelemetry_collector_ray.stages.dedup import simhash_poly_batch

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(
        simhash_poly_batch, batch_format="pyarrow", batch_size=1024
    ).select_columns(["doc_id", "simhash"])


def q_minhash_exact(sf_dir: str):
    """MinHash signatures under a FULL oracle: word-trigram shingle
    hashes (Horner over the Horner word hashes, mod 2³¹−1) through 8
    SQL-exact affine permutations, min per (doc, perm) — DuckDB
    reproduces every signature value, so the core of the near-dup
    pipeline's candidate generation is hash-gated, not just
    recall-tested. Docs with < 3 tokens emit no rows on either side.
    `minhash_pairs` keeps the production siphash tier (rows-only,
    recall-vs-exact pinned)."""
    from opentelemetry_collector_ray.stages.dedup import minhash_poly_batch

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(
        minhash_poly_batch, batch_format="pyarrow", batch_size=1024
    )


def q_lsh_buckets_exact(sf_dir: str):
    """LSH banding under a FULL oracle WITHOUT the candidate-pair
    explosion (the dedup_clusters_exact lesson — dup-heavy corpora
    make pair sets O(dense)): bands of r=2 permutations, bucket key =
    (mh_even·B + mh_odd) mod p, report (band, bucket, n_docs) for
    buckets holding ≥ 2 docs. Counts, never pairs — the banding logic
    is verified, the output stays linear in docs."""
    import numpy as np

    from opentelemetry_collector_ray.stages.dedup import (
        _MH_POLY_B,
        _MH_POLY_PERMS,
        _SIMHASH_POLY_P,
        minhash_poly_batch,
    )

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def buckets(t: pa.Table) -> pa.Table:
        # minhash_poly_batch emits PERM-MAJOR blocks (all docs for perm
        # 0, then perm 1, ...), each block in the same doc order — so
        # mh[perm == i] slices align row-for-row across perms, and a
        # doc's whole signature stays inside this one batch
        long = minhash_poly_batch(t)
        mh = long["minhash"].to_numpy(zero_copy_only=False)
        perm = long["perm"].to_numpy(zero_copy_only=False)
        nb = len(_MH_POLY_PERMS) // 2
        n_docs_sig = int((perm == 0).sum())
        cols = [mh[perm == i] for i in range(len(_MH_POLY_PERMS))]
        out_band, out_bucket = [], []
        for b in range(nb):
            bucket = (cols[2 * b] * _MH_POLY_B + cols[2 * b + 1]) % (
                _SIMHASH_POLY_P
            )
            out_band.append(np.full(n_docs_sig, b, dtype=np.int64))
            out_bucket.append(bucket)
        return pa.table(
            {
                "band": pa.array(
                    np.concatenate(out_band) if out_band else [],
                    type=pa.int64(),
                ),
                "bucket": pa.array(
                    np.concatenate(out_bucket) if out_bucket else [],
                    type=pa.int64(),
                ),
            }
        )

    g = (
        ds.map_batches(buckets, batch_format="pyarrow", batch_size=1024)
        .groupby(["band", "bucket"])
        .count()
        .rename_columns({"count()": "n_docs"})
    )
    import pyarrow.compute as _pc

    return g.map_batches(
        lambda t: t.filter(_pc.greater_equal(t["n_docs"], 2)),
        batch_format="pyarrow",
    )


def q_langid(sf_dir: str):
    from opentelemetry_collector_ray.stages.dedup import _cached_stage
    from opentelemetry_collector_ray.stages.text import LangIdStage

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])

    # regex-profile state is cheap to build → per-worker cached stage
    # (the actor-pool form stays right for EXPENSIVE state like models;
    # stages/multimodal.py keeps that shape)
    def fn(b):
        return _cached_stage(("langid_q",), LangIdStage)(b)

    return ds.map_batches(fn, batch_format="pyarrow").select_columns(
        ["doc_id", "lang", "lang_pred", "lang_conf"]
    )


def q_fingerprint(sf_dir: str):
    from opentelemetry_collector_ray.stages.text import fingerprint_batch

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "fingerprint"]
    )


def q_fingerprint_exact(sf_dir: str):
    """The polynomial rolling hash under a FULL oracle: fingerprint =
    Σ byte_i·257^(L−1−i) mod 2³¹−1 is exactly the Horner recurrence
    acc←(acc·257+byte) mod p, which DuckDB 1.0 expresses with
    list_transform(range)+unicode(substr) and list_reduce. Code points
    equal bytes on the ASCII corpus (a non-ASCII char would hash-
    mismatch and the gate would say so). Null/empty text → 0 on both
    sides. Values are < 2³¹ so the int64 cast is lossless;
    ``fingerprint`` keeps the uint64 production column."""
    import pyarrow.compute as _pc

    from opentelemetry_collector_ray.stages.text import fingerprint_batch

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def to_i64(t: pa.Table) -> pa.Table:
        t = fingerprint_batch(t)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "fingerprint": _pc.cast(t["fingerprint"], pa.int64()),
            }
        )

    return ds.map_batches(to_i64, batch_format="pyarrow")


def q_lsh_topk(sf_dir: str):
    from opentelemetry_collector_ray.stages.similarity import lsh_topk

    ds = read_parquet(f"{sf_dir}/embeddings.parquet")
    return lsh_topk(ds, _embedding_queries(sf_dir), k=10, bits=4)


def q_ivf_topk(sf_dir: str):
    """ANN via inverted file: sample-trained coarse centroids, per-list
    map_groups scoring of the nprobe closest lists (recall pinned vs
    the brute-force oracle in tests)."""
    from opentelemetry_collector_ray.stages.similarity import ivf_topk

    ds = read_parquet(f"{sf_dir}/embeddings.parquet")
    return ivf_topk(
        ds, _embedding_queries(sf_dir), k=10, nlist=16, nprobe=6
    )


def q_semdedup(sf_dir: str):
    """SemDeDup: k-means cluster the embedding space (bounded-sample
    training), remove within-cluster cosine near-dups keeping the
    lowest id. Rows-only — clustering is not SQL-expressible; the
    within-cluster rule is pinned exactly by pytest."""
    from opentelemetry_collector_ray.stages.similarity import semdedup

    ds = read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return semdedup(ds, threshold=0.4, nlist=16)


def q_media_decode(sf_dir: str):
    import ray.data

    from opentelemetry_collector_ray.stages.multimodal import (
        DecodeStage,
        synth_media_table,
    )

    media = ray.data.from_arrow(synth_media_table(256))
    out = media.map_batches(
        DecodeStage,
        fn_constructor_kwargs={"fake_decode": True},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
    )
    return out.select_columns(["media_id", "media_type", "decoded_ok", "feat_dim"])


def q_media_ann(sf_dir: str):
    """Multimodal → similarity composition: decode (stubbed codec, real
    plumbing) → feature vectors → exact cosine top-5 per query — the
    image-dedup / nearest-media retrieval shape, end to end."""
    import ray.data

    from opentelemetry_collector_ray.stages.multimodal import (
        DecodeStage,
        synth_media_table,
    )
    from opentelemetry_collector_ray.stages.similarity import brute_force_topk

    st = DecodeStage(fake_decode=True)
    q_tbl = st(synth_media_table(3))
    import numpy as np

    queries = {
        int(mid): np.asarray(vec, dtype=np.float64)
        for mid, vec in zip(
            q_tbl["media_id"].to_pylist(), q_tbl["features"].to_pylist()
        )
    }

    media = ray.data.from_arrow(synth_media_table(256))
    feats = media.map_batches(
        DecodeStage,
        fn_constructor_kwargs={"fake_decode": True},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
    ).map_batches(
        lambda t: pa.table(
            {"vec_id": t["media_id"], "embedding": t["features"]}
        ),
        batch_format="pyarrow",
    )
    return brute_force_topk(feats, queries, k=5)


def q_near_dup_keep(sf_dir: str):
    """The near-dup pipeline's final materialization: keep exactly one
    document per cluster (the min-id representative) — candidates →
    verify → components → keep-one, the complete MinHash dedup story."""
    labels = q_dedup_clusters(sf_dir)
    kept = labels[labels["doc_id"] == labels["cluster_rep"]]
    return kept[["doc_id"]].reset_index(drop=True)


def q_corpus_stats(sf_dir: str):
    """Corpus data-card summary per language: docs, token totals, max
    doc length — one combiner pass, tiny result (the release-report
    numbers a training-data pipeline publishes)."""
    from ray.data.aggregate import Max, Sum

    from opentelemetry_collector_ray.stages.text import token_stats_batch

    docs = read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    sized = docs.map_batches(
        lambda t: token_stats_batch(t).select(["lang", "n_tokens"]),
        batch_format="pyarrow",
    )

    from opentelemetry_collector_ray.functions.shard import (
        fill_null_key,
        restore_null_key,
    )

    def partial(t: pa.Table) -> pa.Table:
        # SQL GROUP BY keeps a NULL lang group; Ray's sort shuffle
        # can't order None beside str → sentinel, restored after
        g = fill_null_key(t, "lang").group_by(["lang"]).aggregate(
            [([], "count_all"), ("n_tokens", "sum"), ("n_tokens", "max")]
        )
        return g.rename_columns(["lang", "_pc", "_ps", "_pm"])

    partials = sized.map_batches(partial, batch_format="pyarrow")
    merged = partials.groupby("lang").aggregate(
        Sum("_pc", alias_name="n_docs"),
        Sum("_ps", alias_name="total_tokens"),
        Max("_pm", alias_name="max_tokens"),
    )
    return merged.map_batches(
        lambda t: restore_null_key(t, "lang"), batch_format="pyarrow"
    )


_CLUSTER_LABELS_CACHE: dict = {}


def q_dedup_clusters(sf_dir: str):
    """MinHash near-dup pipeline completed to keep-one-per-cluster:
    verified pairs → DISTRIBUTED connected components (min-label
    propagation) → (doc_id, cluster_rep). No driver union-find, no
    driver list of doc ids. Labels cached per corpus (shared with
    `near_dup_keep` — the forward-connector idiom again)."""
    import os

    from opentelemetry_collector_ray.stages.dedup import connected_components

    doc_path = f"{sf_dir}/documents.parquet"
    key = (os.path.abspath(doc_path), os.path.getmtime(doc_path))
    hit = _CLUSTER_LABELS_CACHE.get(key)
    if hit is None:
        pairs = _verified_pairs(sf_dir)
        nodes = read_parquet(doc_path, columns=["doc_id"])
        out = connected_components(pairs, nodes)
        _CLUSTER_LABELS_CACHE.clear()  # bound: one corpus at a time
        hit = _CLUSTER_LABELS_CACHE[key] = (
            out.to_pandas()
            .sort_values("doc_id", kind="mergesort")
            .reset_index(drop=True)
        )
    return hit.copy()


def q_distinct_values(sf_dir: str):
    """set-like distinct (Dataset.unique) — the one-column distinct op."""
    import pandas as pd

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
    vals = sorted(ds.unique("event_type"))
    return pd.DataFrame({"event_type": vals})


def q_config_pipeline(sf_dir: str):
    """The YAML builder path under the oracle: a config-assembled
    parse→enrich pipeline must hash-equal the hand-built chain."""
    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.pipelines.config import load_config

    cfg = load_config(
        {
            "pipeline": {
                "source": {"type": "events_transcripts", "sf_dir": sf_dir},
                "stages": [{"type": "parse"}, {"type": "enrich"}],
                "sinks": {"mode": "single", "out_dir": "/tmp/unused"},
            }
        }
    )
    return build_dataset(cfg)


def q_text_codec(sf_dir: str):
    """The third codec (§1.3): logging-exporter text rendering of each
    record, vectorized string concat."""
    from opentelemetry_collector_ray.stages.codec import to_text_batch

    return _transcripts(sf_dir).map_batches(to_text_batch, batch_format="pyarrow")


def q_media_frames(sf_dir: str):
    """Video frame-sampling plumbing: row explosion, one row per
    sampled frame (rows-only; synthetic input)."""
    import ray.data

    from opentelemetry_collector_ray.stages.multimodal import (
        FrameSampleStage,
        synth_media_table,
    )

    media = ray.data.from_arrow(synth_media_table(128))
    return media.map_batches(
        FrameSampleStage,
        fn_constructor_kwargs={"frames": 4, "fake": True},
        batch_format="pyarrow",
        batch_size=32,
        concurrency=2,
    ).select_columns(["media_id", "frame_idx"])


# ---------------------------------------------- relational primitives
def q_join_broadcast(sf_dir: str):
    """Broadcast dimension join: orders → customer → nation, order
    count per nation (the enrich-with-side-dictionary idiom at
    relational width — no shuffle)."""
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.functions.join import broadcast_join

    from opentelemetry_collector_ray.functions.agg import grouped_count

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    dim = cust.merge(
        nation, left_on="c_nationkey", right_on="n_nationkey"
    )[["c_custkey", "n_name"]].rename(columns={"c_custkey": "o_custkey"})

    orders = read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    joined = broadcast_join(orders, dim, on="o_custkey")
    return grouped_count(joined, ["n_name"])


def q_join_bucketed(sf_dir: str):
    """Explicit partitioned hash join of two large tables:
    lineitem ⋈ orders on orderkey → line count per order status."""
    from opentelemetry_collector_ray.functions.join import bucketed_hash_join

    li = read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]
    ).rename_columns({"l_orderkey": "o_orderkey"})
    orders = read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    )
    from opentelemetry_collector_ray.functions.agg import grouped_count

    joined = bucketed_hash_join(li, orders, on="o_orderkey")
    return grouped_count(joined, ["o_orderstatus"])


def q_union_sources(sf_dir: str):
    """Receiver-union: two disjoint filtered reads of events unioned
    back (graph.go:161-165 multiple receivers → one pipeline)."""
    import pyarrow.compute as pc

    cols = ["event_id", "event_type", "user_id"]
    a = read_parquet(f"{sf_dir}/events.parquet", columns=cols).map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "error")),
        batch_format="pyarrow",
    )
    b = read_parquet(f"{sf_dir}/events.parquet", columns=cols).map_batches(
        lambda t: t.filter(pc.not_equal(t["event_type"], "error")),
        batch_format="pyarrow",
    )
    return a.union(b)


def q_sorted_head(sf_dir: str):
    """Global sort + limit: first 100 events by (ts, event_id)."""
    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])
    return ds.sort(["ts", "event_id"]).limit(100)


def q_q1_lineitem(sf_dir: str):
    """TPC-H Q1-shaped aggregate (integer-safe columns only): partial
    per-batch pre-aggregation then a tiny groupby — the combiner
    pattern at relational width."""
    import pyarrow as pa
    from ray.data.aggregate import Count, Sum

    ds = read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )

    def partial(t: pa.Table) -> pa.Table:
        # count_all, not count: SQL count(*) includes NULL l_quantity
        # rows (count-valid diverged on the null-parity gate)
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ([], "count_all")]
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "psum", "pcount"]
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("psum", alias_name="sum_qty"),
        Sum("pcount", alias_name="count_order"),
    )
    return out


def q_asof_join(sf_dir: str):
    """As-of join: each purchase matched to the user's latest
    prior-or-equal signup (backward search, inner)."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.functions.join import asof_join

    cols = ["event_id", "user_id", "ts", "event_type"]
    ev = read_parquet(f"{sf_dir}/events.parquet", columns=cols)
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    signups = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "signup")).select(
            ["user_id", "ts"]
        ),
        batch_format="pyarrow",
    ).rename_columns({"ts": "signup_ts"})
    return asof_join(
        purchases, signups, key="user_id", left_ts="ts", right_ts="signup_ts"
    )


def q_range_join(sf_dir: str):
    """Range (interval) join: every purchase within 72 hours AFTER any
    signup of the same user — all matches, not just the latest."""
    import pandas as pd
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.functions.join import range_join

    cols = ["event_id", "user_id", "ts", "event_type"]
    ev = read_parquet(f"{sf_dir}/events.parquet", columns=cols)
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    signups = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "signup")).select(
            ["user_id", "ts"]
        ),
        batch_format="pyarrow",
    ).rename_columns({"ts": "signup_ts"})
    return range_join(
        purchases,
        signups,
        key="user_id",
        left_ts="ts",
        right_ts="signup_ts",
        window=pd.Timedelta(hours=72),
    )


def q_distinct_users(sf_dir: str):
    """count(DISTINCT) per group — two-phase: (1) distinct on the
    high-cardinality (event_type, user_id) pair via a sharded
    uniform-key groupby, (2) combiner count per event_type. No reducer
    ever holds one event_type's full row set (the old map_groups shape
    put ~1/5 of the corpus in a single pandas group); the approximate
    tier for this slot is hll_distinct (functions/sketch.py)."""
    import pandas as pd
    import pyarrow as pa

    from opentelemetry_collector_ray.functions.agg import grouped_count
    from opentelemetry_collector_ray.functions.shard import sharded_group_map

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])

    def batch_distinct(t: pa.Table) -> pa.Table:
        return t.group_by(["event_type", "user_id"]).aggregate([])

    pairs = ds.map_batches(batch_distinct, batch_format="pyarrow")
    distinct = sharded_group_map(
        pairs,
        ["event_type", "user_id"],
        lambda g: g.drop_duplicates(["event_type", "user_id"]),
    )
    return grouped_count(distinct, ["event_type"], alias="n")


def q_obs_counters(sf_dir: str):
    """The obsreport counter surface as a verified table: receiver
    accepted + per-exporter sent counts (obs_receiver.go:31-45 /
    obs_exporter.go:24-39 names), built on the driver from one
    per-sink count pass."""
    import pandas as pd

    from opentelemetry_collector_ray.pipelines.logs import sink_counts
    from opentelemetry_collector_ray.state import metrics as m

    per_sink = sink_counts(_enriched(sf_dir))
    # receiver-accepted = Σ route-sink counts: every row has one route,
    # and no role routes to the 'errors' sink
    snap = m.obsreport_counts(dict(zip(per_sink["sink"], per_sink["n"])))
    return pd.DataFrame(
        {"name": list(snap.keys()), "value": [int(v) for v in snap.values()]}
    )


def q_json_roundtrip(sf_dir: str):
    """Codec parity (§1.3): parquet → JSON sink → JSON source; content
    identical (the proto/JSON marshaler round-trip, plog/json.go)."""
    import os
    import shutil

    import ray.data

    out = f"/tmp/otel_ray_json_roundtrip_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    ds = read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "user_id"]
    )
    ds.write_json(out)
    return ray.data.read_json(out)


def q_csv_roundtrip(sf_dir: str):
    """Codec parity (§1.3 family): parquet → CSV sink → CSV source;
    integer/string content identical (the text-wire interchange tier
    beside parquet, JSON, otlptext and Arrow-IPC)."""
    import os
    import shutil

    import ray.data

    out = f"/tmp/otel_ray_csv_roundtrip_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    ds = read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "user_id"]
    )
    ds.write_csv(out)
    return ray.data.read_csv(out)


# ------------------------------------------------- traces / metrics
def q_spans(sf_dir: str):
    """Traces signal: parsed transcripts → span rows (trace = conv)."""
    from opentelemetry_collector_ray.stages.signals import spans_batch

    return _parsed(sf_dir).map_batches(spans_batch, batch_format="pyarrow")


def q_span_stats(sf_dir: str):
    """Span aggregates per operation name (spanmetrics idiom)."""
    from ray.data.aggregate import Count, Sum

    from opentelemetry_collector_ray.stages.signals import spans_batch

    spans = _parsed(sf_dir).map_batches(spans_batch, batch_format="pyarrow")
    return spans.groupby("span_name").aggregate(
        Count(alias_name="n"), Sum("duration_ms", alias_name="sum_ms")
    )


def q_span_details(sf_dir: str):
    """Span structure beyond flat spans: status code, link to the
    previous span of the trace, event name (generated_span.go:59-184)."""
    from opentelemetry_collector_ray.stages.signals import span_details_batch

    return _parsed(sf_dir).map_batches(span_details_batch, batch_format="pyarrow")


def q_trace_groups(sf_dir: str):
    """groupbytrace idiom: trace-complete summary per conversation."""
    from opentelemetry_collector_ray.stages.signals import (
        spans_batch,
        trace_groups,
    )

    spans = _parsed(sf_dir).map_batches(spans_batch, batch_format="pyarrow")
    return trace_groups(spans)


def q_latency_histogram(sf_dir: str):
    """Explicit-bucket latency histogram per route — the Histogram
    metric type / spanmetrics idiom, mergeable bucket counts."""
    from opentelemetry_collector_ray.stages.signals import latency_histogram

    return latency_histogram(
        _enriched(sf_dir), group="route", value="latency_ms", bounds=(10, 100, 1000)
    )


def q_histogram_exemplars(sf_dir: str):
    """Histogram buckets carrying exemplars (pmetric per-point
    exemplars: max observed value + the trace that produced it,
    deterministic tie-break)."""
    from opentelemetry_collector_ray.stages.signals import (
        histogram_exemplars,
    )

    return histogram_exemplars(
        _enriched(sf_dir),
        group="route",
        value="latency_ms",
        trace="conv_id",
        bounds=(10, 100, 1000),
    )


def q_ipc_roundtrip(sf_dir: str):
    """Binary codec parity (§1.3 pb slot): transcripts → Arrow-IPC wire
    payloads → decoded back; content identical."""
    from opentelemetry_collector_ray.stages.codec import (
        from_ipc_batch,
        to_ipc_batch,
    )

    return (
        _transcripts(sf_dir)
        .map_batches(to_ipc_batch, batch_format="pyarrow")
        .map_batches(from_ipc_batch, batch_format="pyarrow")
    )


def q_exp_histogram(sf_dir: str):
    """ExponentialHistogram metric type (scale 0, power-of-two buckets
    + zero bucket) over route latency."""
    from opentelemetry_collector_ray.stages.signals import (
        exponential_histogram,
    )

    return exponential_histogram(
        _enriched(sf_dir), group="route", value="latency_ms"
    )


def q_summary_metrics(sf_dir: str):
    """Summary metric type (5th pdata metric type): per-series count,
    sum and q50/q90/q99 over fixed-point milli-units — all read off one
    distributed (series, value) histogram."""
    from opentelemetry_collector_ray.stages.signals import summary_metrics

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return summary_metrics(
        ds, series="event_type", value="value", quantiles=(0.5, 0.9, 0.99)
    )


def _urgent_order_custkeys(sf_dir: str):
    """Right side for semi/anti: custkeys of URGENT orders (a strict
    subset of customers, so both semi and anti are non-trivial)."""
    import pyarrow.compute as pc

    return (
        read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderpriority"],
        )
        .map_batches(
            lambda t: t.filter(
                pc.equal(t["o_orderpriority"], "1-URGENT")
            ).select(["o_custkey"]),
            batch_format="pyarrow",
        )
        .rename_columns({"o_custkey": "c_custkey"})
    )


def q_semi_join(sf_dir: str):
    """SEMI join (EXISTS): customers with at least one URGENT order —
    right side collapsed to distinct keys, one co-grouping shuffle."""
    from opentelemetry_collector_ray.functions.join import bucketed_semi_join

    cust = read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    return bucketed_semi_join(cust, _urgent_order_custkeys(sf_dir), "c_custkey")


def q_anti_join(sf_dir: str):
    """ANTI join (NOT EXISTS): customers with no URGENT order."""
    from opentelemetry_collector_ray.functions.join import bucketed_semi_join

    cust = read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    return bucketed_semi_join(
        cust, _urgent_order_custkeys(sf_dir), "c_custkey", anti=True
    )


def _lineitem_flag_pairs(sf_dir: str, flag: str):
    """Distinct-ish (l_partkey, l_suppkey) stream for one return flag —
    the two relations the set-operation queries compare."""
    import pyarrow.compute as pc

    return read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_returnflag"],
    ).map_batches(
        lambda t, f=flag: t.filter(pc.equal(t["l_returnflag"], f)).select(
            ["l_partkey", "l_suppkey"]
        ),
        batch_format="pyarrow",
    )


def q_set_intersect(sf_dir: str):
    """SQL INTERSECT: (partkey, suppkey) pairs shipped both Returned
    and Accepted — per-batch distinct combiner, one co-group shuffle."""
    from opentelemetry_collector_ray.functions.setops import dataset_intersect

    return dataset_intersect(
        _lineitem_flag_pairs(sf_dir, "R"), _lineitem_flag_pairs(sf_dir, "A")
    )


def q_set_except(sf_dir: str):
    """SQL EXCEPT: (partkey, suppkey) pairs shipped Returned but never
    Accepted."""
    from opentelemetry_collector_ray.functions.setops import dataset_except

    return dataset_except(
        _lineitem_flag_pairs(sf_dir, "R"), _lineitem_flag_pairs(sf_dir, "A")
    )


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_pivot_counts(sf_dir: str):
    """Long→wide pivot: per-user count of each event type as its own
    int64 column — per-batch indicator combiner, one uniform groupby."""
    from opentelemetry_collector_ray.functions.reshape import pivot_counts

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])
    return pivot_counts(ds, "user_id", "event_type", _EVENT_TYPES)


def q_unpivot_counts(sf_dir: str):
    """Wide→long melt of the pivot (zero-count cells dropped) — proves
    melt(pivot(x)) round-trips to the plain grouped count."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.functions.reshape import melt, pivot_counts

    wide = pivot_counts(
        read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
        ),
        "user_id",
        "event_type",
        _EVENT_TYPES,
    )
    long = melt(
        wide, ["user_id"], _EVENT_TYPES, var_name="event_type", value_name="n"
    )
    return long.map_batches(
        lambda t: t.filter(pc.greater(t["n"], 0)), batch_format="pyarrow"
    )


def q_rolling_sum(sf_dir: str):
    """Per-row rolling 4-event sum of the user's fixed-point values
    (SQL ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) — one sharded
    key shuffle, cumulative-sum prefix difference per shard."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.stages.window2 import rolling_sum

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    ).map_batches(
        lambda t: t.append_column(
            "vm",
            pc.cast(pc.floor(pc.multiply(t["value"], 1000.0)), pa.int64()),
        ).drop(["value"]),
        batch_format="pyarrow",
    )
    return rolling_sum(
        ds, key="user_id", order=["ts", "event_id"], value="vm", window=4
    ).select_columns(["user_id", "event_id", "roll_sum"])


def q_lag_lead(sf_dir: str):
    """SQL LAG/LEAD: each event's previous and next event type within
    its user's timeline — one sharded key shuffle, whole-shard shifted
    slices with segment-boundary masking."""
    from opentelemetry_collector_ray.stages.window2 import lag_lead

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type"],
    )
    return lag_lead(
        ds,
        key="user_id",
        order=["ts", "event_id"],
        col="event_type",
        lag_name="prev_type",
        lead_name="next_type",
    ).select_columns(["user_id", "event_id", "prev_type", "next_type"])


def q_normalize(sf_dir: str):
    """Canonical text normalization (lowercase, strip punctuation,
    collapse whitespace) over a mixed-case column — stateless
    vectorized RE2 kernels, zero shuffle."""
    from opentelemetry_collector_ray.stages.text import normalize_batch

    return read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).map_batches(
        lambda t: normalize_batch(t, col="c_name", out="name_norm").select(
            ["c_custkey", "name_norm"]
        ),
        batch_format="pyarrow",
    )


def q_sft_pairs(sf_dir: str):
    """SFT prompt→response pair extraction: user turn + immediately
    following assistant turn, one sharded conversation shuffle."""
    from opentelemetry_collector_ray.stages.dialogue import sft_pairs

    ds = _transcripts(sf_dir).map_batches(
        lambda t: t.select(["conv_id", "turn_idx", "role", "text"]),
        batch_format="pyarrow",
    )
    return sft_pairs(ds)


def q_dialogue_render(sf_dir: str):
    """Chat-format flattening: each conversation rendered to one
    ordered 'role: text' training string."""
    from opentelemetry_collector_ray.stages.dialogue import render_dialogue

    ds = _transcripts(sf_dir).map_batches(
        lambda t: t.select(["conv_id", "turn_idx", "role", "text"]),
        batch_format="pyarrow",
    )
    return render_dialogue(ds)


def q_interval_downsample(sf_dir: str):
    """Interval processor (contrib intervalprocessor): one point per
    series per 15-min interval, last observation wins."""
    from opentelemetry_collector_ray.stages.signals import (
        interval_downsample,
    )

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return interval_downsample(
        ds, key="user_id", ts="ts", value="value", interval_s=900
    )


def q_rate_limit(sf_dir: str):
    """Rate limiter: at most 3 events per user per hour, earliest
    first — deterministic admission."""
    from opentelemetry_collector_ray.stages.signals import rate_limit

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    return rate_limit(
        ds, key="user_id", ts="ts", window_s=3600, max_per_window=3
    )


def q_rollup(sf_dir: str):
    """GROUP BY ROLLUP (event_type, hour) in one corpus pass: finest
    histogram shuffled once, coarser levels re-aggregated from the tiny
    finest table; sentinels instead of SQL NULLs."""
    from opentelemetry_collector_ray.functions.agg import grouped_rollup

    def derive(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hr = (us // 3_600_000_000) % 24
        return pa.table(
            {"event_type": t["event_type"], "hr": pa.array(hr, pa.int64())}
        )

    ds = read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    ).map_batches(derive, batch_format="pyarrow")
    return grouped_rollup(
        ds,
        ["event_type", "hr"],
        alias="n",
        sentinels={"event_type": "(all)", "hr": -1},
    )


def q_cube(sf_dir: str):
    """GROUP BY CUBE (event_type, hour): all four grouping sets from
    one finest-level shuffle, coarser sets derived from the tiny
    finest table."""
    from opentelemetry_collector_ray.functions.agg import grouped_cube

    def derive(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hr = (us // 3_600_000_000) % 24
        return pa.table(
            {"event_type": t["event_type"], "hr": pa.array(hr, pa.int64())}
        )

    ds = read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    ).map_batches(derive, batch_format="pyarrow")
    return grouped_cube(
        ds,
        ["event_type", "hr"],
        alias="n",
        sentinels={"event_type": "(all)", "hr": -1},
    )


def q_variance(sf_dir: str):
    """Per-type population variance of the fixed-point value — integer
    count/sum/sum-of-squares combiner, one tiny groupby, IEEE-identical
    float finish on both engines."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.functions.agg import grouped_variance

    ds = read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    ).map_batches(
        lambda t: pa.table(
            {
                "event_type": t["event_type"],
                "vm": pc.cast(
                    pc.floor(pc.multiply(t["value"], 1000.0)), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    return grouped_variance(ds, ["event_type"], "vm")


def _events_vm(sf_dir: str):
    """events projected to (event_id, vm) with the fixed-point value
    key vm = floor(value*1000)."""
    import pyarrow.compute as pc

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t["event_id"],
                "vm": pc.cast(
                    pc.floor(pc.multiply(t["value"], 1000.0)), pa.int64()
                ),
            }
        )

    return read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    ).map_batches(derive, batch_format="pyarrow")


def q_rank_stats(sf_dir: str):
    """RANK/DENSE_RANK/PERCENT_RANK/CUME_DIST over a global ORDER BY
    with zero row shuffle — tiny value histogram → broadcast
    searchsorted assignment (tie-sharing window functions depend only
    on the value)."""
    from opentelemetry_collector_ray.stages.window2 import global_rank_stats

    return global_rank_stats(_events_vm(sf_dir), value="vm")


def q_corr(sf_dir: str):
    """Per-type Pearson correlation between the fixed-point value and
    the props payload length — exact int64 moment combiner, float
    finish mirrored term-by-term by the oracle."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.functions.agg import grouped_corr

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "x": pc.cast(
                    pc.floor(pc.multiply(t["value"], 1000.0)), pa.int64()
                ),
                "y": pc.cast(pc.utf8_length(t["props"]), pa.int64()),
            }
        )

    ds = read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value", "props"]
    ).map_batches(derive, batch_format="pyarrow")
    return grouped_corr(ds, ["event_type"], "x", "y")


def q_zscore_outliers(sf_dir: str):
    """Per-type z-score anomaly count (|v−mean| > 2σ): stats combiner
    pass + broadcast threshold filter pass, no corpus shuffle."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.functions.agg import (
        grouped_outlier_counts,
    )

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "vm": pc.cast(
                    pc.floor(pc.multiply(t["value"], 1000.0)), pa.int64()
                ),
            }
        )

    ds = read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    ).map_batches(derive, batch_format="pyarrow")
    return grouped_outlier_counts(ds, ["event_type"], "vm", k=2.0)


def q_attributes_convert(sf_dir: str):
    """contrib attributes `convert` action + OTTL truncate_all: value
    double→int (trunc toward zero), user_id int→string, props clipped
    to 20 chars — all vectorized casts/slices."""
    from opentelemetry_collector_ray.stages.attributes import AttributesStage

    stage = AttributesStage(
        [
            {"action": "convert", "key": "value", "to": "int"},
            {"action": "convert", "key": "user_id", "to": "string"},
            {"action": "truncate", "key": "props", "value": 20},
        ]
    )
    return read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "value", "user_id", "props"],
    ).map_batches(stage, batch_format="pyarrow")


def q_funnel(sf_dir: str):
    """Ordered funnel (view → click → purchase): users reaching each
    step via strictly-after earliest-event semantics — one sharded
    user shuffle, vectorized per-step mins."""
    from opentelemetry_collector_ray.stages.funnel import funnel_counts

    ev = read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    return funnel_counts(ev, steps=["view", "click", "purchase"])


def q_tfidf(sf_dir: str):
    """Top-3 TF-IDF terms per document — integer-exact scoring
    (tf·1e6·N // df) so ranking is bit-stable; df table broadcast once,
    second pass zero-shuffle."""
    from opentelemetry_collector_ray.stages.text import tfidf_top_terms

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return tfidf_top_terms(docs, k=3, min_df=1)


def q_linear_probe(sf_dir: str):
    """Closed-form distributed ridge regression over embeddings → label
    (linear-probe idiom): one sufficient-statistics pass, driver solve,
    one scoring pass (rows-only, float scores)."""
    from opentelemetry_collector_ray.stages.similarity import linear_probe

    ds = read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    _, scored = linear_probe(ds)
    return scored


def q_kmeans(sf_dir: str):
    """Full-corpus distributed Lloyd k-means over embeddings: one
    streaming pass per iteration, k×d partials to the driver; output =
    per-vector cluster assignment (rows-only, pinned by blob-recovery
    tests)."""
    from opentelemetry_collector_ray.stages.similarity import kmeans_fit

    ds = read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    _, assignments, _ = kmeans_fit(ds, k=8, max_iter=5)
    return assignments


def q_embedding_pca(sf_dir: str):
    """Distributed PCA projection of the embedding corpus (covariance
    combiner → driver eigh → broadcast matmul projection); rows-only
    (float output), pinned by variance-ordering tests."""
    from opentelemetry_collector_ray.stages.similarity import embedding_pca

    ds = read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return embedding_pca(ds, k=4)


def q_budget_select(sf_dir: str):
    """Exact per-source char-budget selection (take docs in hash order
    until 4000 chars/source) — distributed prefix via bucket histogram
    + boundary refinement, no global sort."""
    from opentelemetry_collector_ray.stages.text import budget_select

    docs = read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )
    return budget_select(docs, budget=4000)


def q_grouped_tdigest(sf_dir: str):
    """Per-type approximate quantiles via grouped t-digest — the
    unbounded-cardinality grouped quantile tier (no oracle: sketch;
    accuracy pinned by pytest vs exact quantiles)."""
    from opentelemetry_collector_ray.functions.sketch import (
        grouped_tdigest_quantiles,
    )

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return grouped_tdigest_quantiles(
        ds, group="event_type", value="value", qs=(0.5, 0.9, 0.99)
    )


def q_cooccurrence(sf_dir: str):
    """Document co-occurrence counts over the top-50 vocabulary —
    per-batch V×V matrix partials (BLAS), elementwise-sum merge; no
    pair explosion through the shuffle."""
    from opentelemetry_collector_ray.stages.text import cooccurrence_counts

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return cooccurrence_counts(docs, vocab_k=50, min_n=1)


def q_zorder(sf_dir: str):
    """Z-order (Morton) layout key over (user_id, quantized value) —
    the two-dimensional row-group clustering key for pruned sink
    layouts; pure int64 bit arithmetic, engine-exact."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.functions.layout import zorder_batch

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t["event_id"],
                "x": pc.bit_wise_and(t["user_id"], 0xFFFF),
                "y": pc.bit_wise_and(
                    pc.cast(
                        pc.floor(pc.multiply(t["value"], 1000.0)), pa.int64()
                    ),
                    0xFFFF,
                ),
            }
        )

    ds = read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    ).map_batches(derive, batch_format="pyarrow")
    return ds.map_batches(
        lambda t: zorder_batch(t, x="x", y="y"), batch_format="pyarrow"
    )


def q_gap_fill(sf_dir: str):
    """Per-series daily gap filling with last-observation-carried-
    forward (Prometheus staleness idiom): one dense point per day
    between each user's first and last active day."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.stages.signals import gap_fill_locf

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts": t["ts"],
                "event_id": t["event_id"],
                "vm": pc.cast(
                    pc.floor(pc.multiply(t["value"], 1000.0)), pa.int64()
                ),
            }
        )

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    ).map_batches(derive, batch_format="pyarrow")
    return gap_fill_locf(ds)


def q_join_bloom(sf_dir: str):
    """Selective join with Bloom pre-filter: purchases joined to
    per-user signup counts — non-matching left rows dropped before the
    join shuffle, result exact (FPs fail the real join)."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.functions.agg import grouped_count
    from opentelemetry_collector_ray.functions.join import bloom_filtered_join

    cols = ["event_id", "user_id", "event_type"]
    ev = read_parquet(f"{sf_dir}/events.parquet", columns=cols)
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase")).select(
            ["event_id", "user_id"]
        ),
        batch_format="pyarrow",
    )
    signups = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "signup")).select(
            ["user_id"]
        ),
        batch_format="pyarrow",
    )
    counts = grouped_count(signups, ["user_id"], alias="n_signups")
    return bloom_filtered_join(
        purchases,
        counts,
        "user_id",
        schemas=(
            {"event_id": pa.int64(), "user_id": pa.int64()},
            {"user_id": pa.int64(), "n_signups": pa.int64()},
        ),
    )


def q_stratified_take(sf_dir: str):
    """Fixed-n per-stratum deterministic sampling: 50 docs per lang by
    multiplicative-hash rank — combiner top-n, seed-free."""
    from opentelemetry_collector_ray.stages.text import stratified_take

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    return stratified_take(docs, group="lang", id_col="doc_id", n=50)


def q_retention(sf_dir: str):
    """Cohort retention triangle: first-active-day cohorts × re-activity
    offsets — one sharded user shuffle over pre-deduped (user, day)
    pairs, tiny final count."""
    from opentelemetry_collector_ray.stages.funnel import cohort_retention

    ev = read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return cohort_retention(ev)


def q_json_parse(sf_dir: str):
    """Structured-log JSON body parsing (stanza json parser / OTTL
    ParseJSON): whole column → one NDJSON buffer → Arrow's native JSON
    reader, schema pinned so batches can't drift."""
    from opentelemetry_collector_ray.stages.parse import json_parse_batch

    schema = pa.schema([("k", pa.int64())])

    def run(t: pa.Table) -> pa.Table:
        out = json_parse_batch(t, col="props", keep=["k"], schema=schema)
        return out.select(["event_id", "k"])

    return read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "props"]
    ).map_batches(run, batch_format="pyarrow")


def q_gauge_last(sf_dir: str):
    """Gauge metric type: last observed value per series."""
    from opentelemetry_collector_ray.stages.signals import gauge_last

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return gauge_last(
        ds, key="user_id", ts="ts", value="value", order_tiebreak="event_id"
    )


def q_delta_cumulative(sf_dir: str):
    """Metrics signal: delta→cumulative temporality conversion per
    series (contrib deltatocumulative idiom) — integer deltas so the
    running sum is exact on both engines."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.stages.signals import (
        delta_to_cumulative,
    )

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )

    def to_int_delta(t: pa.Table) -> pa.Table:
        delta = pc.cast(pc.floor(t["value"]), pa.int64())
        return t.drop_columns(["value"]).append_column("delta", delta)

    series = ds.map_batches(to_int_delta, batch_format="pyarrow")
    return delta_to_cumulative(
        series, key="user_id", ts="ts", value="delta", order_tiebreak="event_id"
    )


def q_regroup_attrs(sf_dir: str):
    """groupbyattrs idiom: re-key enriched datapoints onto the reduced
    {service} label set, merging collapsed points (count + sum)."""
    from opentelemetry_collector_ray.stages.signals import regroup_attrs

    return regroup_attrs(
        _enriched(sf_dir), keep=["service"], value="latency_ms"
    )


def q_log_dedup(sf_dir: str):
    """logdedup processor idiom: collapse identical log bodies within an
    hourly window into (body, window, count, first-seen conv)."""
    from opentelemetry_collector_ray.stages.dedup import log_dedup

    return log_dedup(_transcripts(sf_dir))


def q_mix_sample(sf_dir: str):
    """Deterministic stratified sampling (data mixing): per-language
    keep rates, engine-exact integer keep rule — no RNG state."""
    from opentelemetry_collector_ray.stages.text import mix_sample

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    return mix_sample(docs, {"en": 60}, default_rate=30)


def q_bpe_tokens(sf_dir: str):
    """Token counting, BPE-ish tier: GPT-2-style pretoken counts (the
    training-budget size proxy) beside whitespace-token counts."""
    from opentelemetry_collector_ray.stages.text import bpe_token_count_batch

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(bpe_token_count_batch, batch_format="pyarrow")


def q_doc_freq(sf_dir: str):
    """Corpus TF/DF statistics (the TF-IDF weighting input): per token,
    total occurrences and document frequency, df >= 5."""
    from opentelemetry_collector_ray.stages.text import doc_freq

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return doc_freq(docs, min_df=5)


def q_lm_score(sf_dir: str):
    """Unigram-LM quality scoring (batched model-inference archetype):
    fit token logprobs on the corpus, broadcast once, score per doc."""
    import ray
    import ray.data

    from opentelemetry_collector_ray.stages.text import (
        LMScoreStage,
        build_unigram_lm,
    )

    from opentelemetry_collector_ray.stages.dedup import _cached_stage

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    lm_ref = ray.put(build_unigram_lm(docs))

    # per-worker cached stage instead of a fixed actor pool: the LM
    # lookup table is cheap state, and worker processes are reused, so
    # the model still resolves once per worker without reserving CPUs
    def score(batch):
        return _cached_stage(lm_ref.hex(), lambda: LMScoreStage(lm_ref))(
            batch
        )

    return docs.map_batches(score, batch_format="pyarrow")


def q_temperature_mix(sf_dir: str):
    """Temperature-based source rebalancing: kept counts ∝
    sqrt(n_min·n_s) via an engine-exact integer keep rule."""
    from opentelemetry_collector_ray.stages.text import temperature_mix

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    return temperature_mix(docs, key_col="lang")


def q_perplexity_buckets(sf_dir: str):
    """CCNet head/middle/tail split (arXiv:1911.00359): per-language
    perplexity terciles under the corpus unigram LM — histogram
    threshold pass + stateless assignment, no per-lang sort."""
    import ray
    import ray.data

    from opentelemetry_collector_ray.stages.dedup import _cached_stage
    from opentelemetry_collector_ray.stages.text import (
        LMScoreStage,
        build_unigram_lm,
        perplexity_buckets,
    )

    docs = read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    lm_ref = ray.put(build_unigram_lm(docs))

    def score(batch):
        return _cached_stage(lm_ref.hex(), lambda: LMScoreStage(lm_ref))(
            batch
        )

    scored = docs.map_batches(score, batch_format="pyarrow")
    out = perplexity_buckets(scored, lang_col="lang", score_col="lm_score")
    return out.select_columns(["doc_id", "lang", "ppl_bucket"])


def q_dup_spans(sf_dir: str):
    """Exact-substring duplication scoring: per doc, fraction of its
    distinct 5-grams occurring in at least one other document."""
    from opentelemetry_collector_ray.stages.dedup import dup_span_fraction

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return dup_span_fraction(docs, n=5)


def q_chunks(sf_dir: str):
    """Document chunking: 50-token windows every 40 tokens (overlap 10)
    — the context-window/embedding preprocessing explosion."""
    from opentelemetry_collector_ray.stages.text import chunk_batch

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(
        lambda t: chunk_batch(t, size=50, stride=40),
        batch_format="pyarrow",
    )


def q_pack_sequences(sf_dir: str):
    """Sequence packing: greedy token-budget packing per hash shard —
    deterministic across parallelism, no global order needed."""
    from opentelemetry_collector_ray.stages.text import pack_sequences

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return pack_sequences(docs, budget=2048)


def q_pack_sequences_exact(sf_dir: str):
    """Greedy sequence packing under a FULL oracle: with shards=1 the
    hash shard vanishes (h % 1 = 0) and packing is the plain greedy
    walk in doc_id order — a linear recursive CTE reproduces the
    (close-when-over-budget, oversized-doc-gets-own-pack) state
    machine row for row; token counts are the same RE2 '\\S+' count on
    both sides (null text → 0 tokens, still packed). `pack_sequences`
    keeps the production 64-shard tier whose determinism/quality
    bounds are pytest-pinned."""
    import pandas as pd

    from opentelemetry_collector_ray.stages.text import pack_sequences

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = pack_sequences(docs, budget=2048, shards=1)

    def flat(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["doc_ids"] = df["doc_ids"].map(
            lambda l: "|".join(str(int(x)) for x in l)
        )
        return df

    return out.map_batches(flat, batch_format="pandas")


def q_bpe_train(sf_dir: str):
    """Distributed BPE tokenizer training (Sennrich 2016): one corpus
    word-count reduction, then deterministic merge rounds (max count,
    lexicographic ties) over the unique-word table — hybrid driver /
    distributed loop per stages/bpe.py. Rows-only: the iterative merge
    recurrence has no SQL form; exactness is pinned by the naive-
    reference parity and path-equality tests in test_bpe."""
    from opentelemetry_collector_ray.stages.bpe import bpe_train

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return bpe_train(docs, merges=32, min_count=2)


def q_bpe_apply(sf_dir: str):
    """Tokenize the corpus with the merges learned on it — the learned
    ranks broadcast once (ray.put) and resolved per actor; per-doc
    token counts out. Rows-only: pinned by the apply-reproduces-
    training-segmentation contract test."""
    import ray
    import ray.data

    from opentelemetry_collector_ray.stages.bpe import (
        BpeApplyStage,
        bpe_train,
    )

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    merges = bpe_train(docs, merges=32, min_count=2)
    ref = ray.put(merges)
    return docs.map_batches(
        BpeApplyStage,
        fn_constructor_args=(ref,),
        batch_format="pyarrow",
        concurrency=2,
    ).select_columns(["doc_id", "n_bpe_real"])


def q_head_sample(sf_dir: str):
    """Head-based probabilistic sampling: stateless deterministic
    trace-id hash keep rule (1/10), no trace assembly needed."""
    from opentelemetry_collector_ray.stages.signals import head_sample

    return head_sample(_transcripts(sf_dir), keep_mod=10)


def q_attributes_where(sf_dir: str):
    """OTTL-style conditional mutation: every action carries a row
    `where` predicate (docs/processing.md `set(...) where ...`)."""
    from opentelemetry_collector_ray.stages.attributes import AttributesStage

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "user_id", "value", "props"],
    )
    st = AttributesStage(
        [
            {
                "action": "upsert",
                "key": "env",
                "value": "eu",
                "where": ("event_type", "==", "purchase"),
            },
            {
                "action": "hash",
                "key": "user_id",
                "where": ("value", ">=", 100),
            },
            {
                "action": "delete",
                "key": "props",
                "where": ("event_type", "==", "click"),
            },
            {"action": "keep_keys", "keys": ["event_id", "event_type",
                                             "user_id", "env", "props"]},
        ]
    )
    return ds.map_batches(st, batch_format="pyarrow")


def q_spanmetrics(sf_dir: str):
    """spanmetrics connector idiom: R.E.D. metrics (requests, errors,
    duration) per span name via the combiner shape."""
    from opentelemetry_collector_ray.stages.signals import span_red_metrics

    return span_red_metrics(_parsed(sf_dir))


def q_service_graph(sf_dir: str):
    """servicegraph connector idiom: (client service → server service)
    edge metrics from consecutive spans of each trace."""
    from opentelemetry_collector_ray.stages.signals import service_graph_edges

    return service_graph_edges(_enriched(sf_dir))


def q_delta_rate(sf_dir: str):
    """deltatorate processor idiom: per-series delta points → integer
    milli-rate over the interval since the previous point."""
    from opentelemetry_collector_ray.stages.signals import delta_to_rate

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return delta_to_rate(
        ds, key="user_id", ts="ts", value="value", order_tiebreak="event_id"
    )


def q_metrics_generation(sf_dir: str):
    """metricsgeneration processor idiom: derive a new metric (error
    ratio, ppm) from two operand metrics in one combiner pass."""
    from opentelemetry_collector_ray.stages.signals import metrics_generation

    return metrics_generation(_enriched(sf_dir), group="route")


def q_metrics_transform(sf_dir: str):
    """metricstransform processor (contrib): rename a metric, update a
    label value, scale datapoints ×1000 (ms→µs, integer-exact), then
    aggregate away the dropped labels — one stateless vectorized pass
    + the standard combiner merge."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.stages.signals import metrics_transform

    def to_series(t: pa.Table) -> pa.Table:
        name = pc.binary_join_element_wise(
            "latency.", t["action"].combine_chunks()
            if isinstance(t["action"], pa.ChunkedArray)
            else t["action"],
            "",
        )
        return pa.table(
            {
                "metric_name": name,
                "service": t["service"],
                "route": t["route"],
                "value": t["latency_ms"],
            }
        )

    series = _enriched(sf_dir).map_batches(to_series, batch_format="pyarrow")
    out = metrics_transform(
        series,
        metric_col="metric_name",
        value="value",
        rename={"latency.error": "latency.fault"},
        relabel={"service": {"web": "frontend"}},
        scale=1000,
        keep=("service",),
    )

    # float64 sum on BOTH sides: values are integral µs so the double
    # is exact, and a NULL-sum group (all-null datapoints) lands as
    # NaN/NULL with the same dtype in Ray and DuckDB (a BIGINT-with-
    # NULL column degrades to float64 in pandas only on the oracle
    # side — the null-parity gate caught the asymmetry).
    def cast_sum(t: pa.Table) -> pa.Table:
        idx = t.column_names.index("sum_value")
        return t.set_column(
            idx, "sum_value", pc.cast(t["sum_value"], pa.float64())
        )

    return out.map_batches(cast_sum, batch_format="pyarrow")


def _trace_assembled(sf_dir: str):
    """The nested groupbytrace emit form (assembled per-trace span
    lists as Arrow list columns) — shared source for the two
    oracle-gated flat projections below; the nested shape itself is
    pinned by pytest (`test_signals` trace-assembly tests)."""
    from opentelemetry_collector_ray.stages.signals import (
        spans_batch,
        trace_assemble,
    )

    spans = _parsed(sf_dir).map_batches(spans_batch, batch_format="pyarrow")
    return trace_assemble(spans)


def q_trace_assemble(sf_dir: str):
    """groupbytrace emit under a FULL oracle: nested lists have no
    stable SQL hash form in the driver compare, so the entry returns a
    lossless flat VIEW of the assembled trace — span count, causal
    root/leaf span names (the list boundaries), and the comma-joined
    span_idx sequence (the list spine) — all derived FROM the nested
    output, so the oracle gates the assembly itself. The pipe-joined
    name sequence is `trace_assemble_flat`'s complementary gate."""
    import pyarrow.compute as _pc

    nested = _trace_assembled(sf_dir)

    def flat(t: pa.Table) -> pa.Table:
        import numpy as _np

        names = t["span_names"]
        idxs = t["span_idxs"]
        if isinstance(names, pa.ChunkedArray):
            names = names.combine_chunks()
        if isinstance(idxs, pa.ChunkedArray):
            idxs = idxs.combine_chunks()
        n = _pc.list_value_length(names)
        idx_csv = _pc.binary_join(
            _pc.cast(idxs, pa.list_(pa.string())), ","
        )
        # first/last element per list, vectorized off the offsets
        # buffer (every trace has >= 1 span by construction)
        offs = _np.asarray(names.offsets)
        root = names.values.take(pa.array(offs[:-1], type=pa.int64()))
        leaf = names.values.take(pa.array(offs[1:] - 1, type=pa.int64()))
        return pa.table(
            {
                "trace_id": t["trace_id"],
                "n_spans": _pc.cast(n, pa.int64()),
                "root_span": root,
                "leaf_span": leaf,
                "idx_csv": idx_csv,
            }
        )

    return nested.map_batches(flat, batch_format="pyarrow")


def q_trace_assemble_flat(sf_dir: str):
    """Oracle-gated projection of the assembled traces: the nested
    emit form itself is rows-only (nested lists have no stable SQL
    hash), but its CONTENT is exactly SQL-checkable — per-trace span
    count and the pipe-joined causal name sequence (string_agg ORDER BY
    span_idx). Derived FROM the nested output, so the oracle gates the
    assembly, not a parallel derivation."""
    import pyarrow.compute as _pc

    nested = _trace_assembled(sf_dir)

    def flat(t: pa.Table) -> pa.Table:
        names = t["span_names"]
        if isinstance(names, pa.ChunkedArray):
            names = names.combine_chunks()
        return pa.table(
            {
                "trace_id": t["trace_id"],
                "n_spans": _pc.cast(
                    _pc.list_value_length(names), pa.int64()
                ),
                "names": _pc.binary_join(names, "|"),
            }
        )

    return nested.map_batches(flat, batch_format="pyarrow")


def q_dedup_clusters_exact(sf_dir: str):
    """The distributed connected-components operator under a FULL
    oracle: components over the EXACT blocked-Jaccard pair set (the
    same pair rule the ``jaccard_pairs`` oracle verifies), mirrored in
    SQL by a recursive-CTE transitive closure with min-reachable-id
    labels. Gates the min-label propagation itself — `dedup_clusters`
    stays as the production composition over MinHash candidates.

    Runs over the deterministic 1/10 doc subset (doc_id % 10 == 0,
    the contamination-scan idiom): the synthetic corpus is so heavily
    near-duplicated that the FULL exact pair graph reaches avg degree
    ~900 at sf0.1 — a dense graph neither the propagation rounds nor
    the oracle's transitive closure should chew as a per-round gate;
    the subset keeps both sides O(small) at every sf while gating the
    identical code path."""
    import pyarrow.compute as _pc

    from opentelemetry_collector_ray.stages.dedup import (
        connected_components,
        jaccard_pairs_blocked,
    )

    def tenth(t: pa.Table) -> pa.Table:
        import numpy as _np

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(_np.asarray(ids) % 10 == 0))

    docs = read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    ).map_batches(tenth, batch_format="pyarrow")
    pairs = jaccard_pairs_blocked(docs, block_col="lang", threshold=0.5)
    nodes = read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(tenth, batch_format="pyarrow")
    return connected_components(pairs, nodes)


def q_near_dup_keep_exact(sf_dir: str):
    """Keep-one-per-cluster under a FULL oracle: the min-id
    representative rule applied to the exact-Jaccard components of
    `dedup_clusters_exact` — kept docs are exactly those equal to
    their component minimum, which the recursive-CTE closure filters
    with one WHERE. Gates the final materialization rule;
    `near_dup_keep` stays as the production MinHash composition."""
    import pyarrow.compute as _pc

    labels = q_dedup_clusters_exact(sf_dir)
    return labels.map_batches(
        lambda t: t.filter(
            _pc.equal(t["doc_id"], t["cluster_rep"])
        ).select(["doc_id"]),
        batch_format="pyarrow",
    )


def q_langid_pred(sf_dir: str):
    """Language-ID under a full oracle: the stopword-profile argmax
    (LangIdStage) minus the float confidence column — per-language
    regex match counts and the first-max tie rule are exactly
    mirrorable in SQL (len(regexp_extract_all) + an ordered CASE
    cascade). ``langid`` keeps the full output incl. confidence."""
    return q_langid(sf_dir).select_columns(["doc_id", "lang", "lang_pred"])


def q_repetition(sf_dir: str):
    """Gopher-style repetition quality signal: dominant 2-gram share
    per document (boilerplate / degenerate-repetition gate)."""
    from opentelemetry_collector_ray.stages.text import repetition_batch

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(repetition_batch, batch_format="pyarrow")


def q_processor_counters(sf_dir: str):
    """Per-stage obsreport counters recorded on the data plane
    (obs_processor.go accepted/dropped names, engine.processorCounters
    gate): a parse→filter pipeline run end-to-end, counter table out."""
    import tempfile

    import pandas as pd

    from opentelemetry_collector_ray.pipelines.builder import run_pipeline

    import shutil

    out_dir = tempfile.mkdtemp(prefix="otel_ray_pc_")
    spec = {
        "pipeline": {
            "source": {"type": "events_transcripts", "sf_dir": sf_dir},
            "stages": [
                {"type": "parse"},
                {
                    "type": "filter",
                    "include": [["level", "in", ["WARN", "ERROR"]]],
                },
            ],
            "sinks": {"mode": "single", "out_dir": f"{out_dir}/sink"},
            "feature_gates": ["engine.processorCounters"],
        }
    }
    try:
        c = run_pipeline(spec)["processor_counters"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    # row-count counters only: the batch_send_size histogram slots also
    # land in the snapshot but depend on physical block layout (not
    # SQL-derivable — pinned by test_config instead)
    names = sorted(k for k in c if k.endswith("_log_records"))
    return pd.DataFrame(
        {"name": names, "value": [int(c[k]) for k in names]}
    )


def q_contamination(sf_dir: str):
    """Train/test contamination scan: distinct 5-gram overlap between
    each held-out doc (doc_id % 10 == 0) and the training split."""
    from opentelemetry_collector_ray.stages.dedup import contamination_check

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return contamination_check(docs, n=5, test_mod=10)


def q_cumulative_delta(sf_dir: str):
    """Metrics signal: cumulative→delta temporality conversion per
    series (user_id), ordered by (ts, event_id)."""
    from opentelemetry_collector_ray.stages.signals import cumulative_to_delta

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return cumulative_to_delta(
        ds, key="user_id", ts="ts", value="value", order_tiebreak="event_id"
    )


def q_merge_counts(sf_dir: str):
    """Incremental view maintenance: per-type counts of two disjoint
    event partitions merged aggregate-to-aggregate — equals the full
    rescan without touching raw rows again."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.functions.agg import (
        grouped_count,
        merge_counts,
    )

    ev = read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "event_type"])
    even = ev.map_batches(
        lambda t: t.filter(
            pc.equal(pc.bit_wise_and(t["event_id"], 1), 0)
        ).select(["event_type"]),
        batch_format="pyarrow",
    )
    odd = ev.map_batches(
        lambda t: t.filter(
            pc.equal(pc.bit_wise_and(t["event_id"], 1), 1)
        ).select(["event_type"]),
        batch_format="pyarrow",
    )
    a = grouped_count(even, ["event_type"], alias="n")
    b = grouped_count(odd, ["event_type"], alias="n")
    return merge_counts([a, b], ["event_type"], alias="n")


def q_pareto(sf_dir: str):
    """Concentration diagnostic: the share of all events produced by
    the top 1% of users — exact from the tiny count-of-counts
    histogram, integer ppm."""
    from opentelemetry_collector_ray.functions.agg import concentration_share

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return concentration_share(ds, key="user_id", top_fraction_denom=100)


def q_ottl_filter(sf_dir: str):
    """OTTL-style STRING condition compiled to vectorized predicates
    (transformprocessor parity: conditions as text, not tuples)."""
    from opentelemetry_collector_ray.stages.ottl import ConditionFilter

    f = ConditionFilter(
        "(level == 'ERROR' or latency_ms > 900) and action matches '^[a-m]'"
    )
    return (
        _parsed(sf_dir)
        .map_batches(f, batch_format="pyarrow")
        .select_columns(["conv_id", "turn_idx", "level", "action", "latency_ms"])
    )


def q_gini(sf_dir: str):
    """Exact Gini coefficient of the per-user event distribution (ppm
    integer) from the count-of-counts histogram — no per-key ranking
    shuffle."""
    from opentelemetry_collector_ray.functions.agg import gini_ppm

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return gini_ppm(ds, key="user_id")


def q_corpus_overlap(sf_dir: str):
    """Corpus-overlap diagnostic: KMV bottom-k sketches of two document
    subsets → Jaccard + distinct estimates (rows-only sketch tier;
    accuracy pinned by test_sketch)."""
    import pandas as pd
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.functions.sketch import (
        kmv_distinct,
        kmv_jaccard,
        kmv_sketch,
    )

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    even = docs.map_batches(
        lambda t: t.filter(
            pc.equal(pc.bit_wise_and(t["doc_id"], 1), 0)
        ),
        batch_format="pyarrow",
    )
    odd = docs.map_batches(
        lambda t: t.filter(
            pc.equal(pc.bit_wise_and(t["doc_id"], 1), 1)
        ),
        batch_format="pyarrow",
    )
    k = 256
    sa = kmv_sketch(even, value="text", k=k)
    sb = kmv_sketch(odd, value="text", k=k)
    return pd.DataFrame(
        {
            "k": [k],
            "est_jaccard": [kmv_jaccard(sa, sb, k)],
            "est_distinct_even": [kmv_distinct(sa, k)],
            "est_distinct_odd": [kmv_distinct(sb, k)],
        }
    )


def q_hopping_counts(sf_dir: str):
    """Hopping windows (3 h size, 1 h hop): each event counts in 3
    overlapping windows — explode by the overlap factor, combiner
    count."""
    from opentelemetry_collector_ray.stages.window import hopping_counts

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    return hopping_counts(ds, size_hours=3, hop_hours=1)


def q_profile(sf_dir: str):
    """Dataset profiling: per-column row/null/distinct counts + native
    min/max — one combiner pass + one all-columns distinct shuffle."""
    from opentelemetry_collector_ray.functions.profile import profile_dataset

    cols = ["event_id", "user_id", "event_type", "props"]
    ds = read_parquet(f"{sf_dir}/events.parquet", columns=cols)
    return profile_dataset(ds, cols)


def q_histogram_quantile(sf_dir: str):
    """PromQL histogram_quantile over the route latency le-buckets:
    p90 by in-bucket linear interpolation (fixed float op order, both
    engines identical)."""
    from opentelemetry_collector_ray.stages.signals import (
        histogram_quantile,
        latency_histogram,
    )

    hist = latency_histogram(
        _enriched(sf_dir), group="route", value="latency_ms",
        bounds=(10, 100, 1000),
    )
    return histogram_quantile(hist, group="route", bounds=(10, 100, 1000), q=0.9)


def q_join_salted(sf_dir: str):
    """Skew-aware salted join (hot keys spread over `salt` reducers,
    right side replicated): same result as the plain bucketed join."""
    from opentelemetry_collector_ray.functions.agg import grouped_count
    from opentelemetry_collector_ray.functions.join import salted_join

    li = read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]
    ).rename_columns({"l_orderkey": "o_orderkey"})
    orders = read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    )
    joined = salted_join(li, orders, on="o_orderkey", salt=4)
    return grouped_count(joined, ["o_orderstatus"])


def q_trending_terms(sf_dir: str):
    """Per-day top-5 tokens of the transcript text — windowed
    vocabulary analytics via combiner counts + combiner top-k."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.stages.text import trending_terms

    def add_day(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64())
        day = pc.cast(
            pc.floor(pc.divide(pc.cast(us, pa.float64()), 86_400_000_000.0)),
            pa.int64(),
        )
        return pa.table({"day": day, "text": t["text"]})

    ds = _transcripts(sf_dir).map_batches(add_day, batch_format="pyarrow")
    return trending_terms(ds, group="day", k=5)


def q_time_weighted_avg(sf_dir: str):
    """Per-series time-weighted average over irregular sampling
    (avg_over_time idiom): exact int64 value·duration sums, bit-stable
    float finish."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.stages.signals import time_weighted_avg

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts": t["ts"],
                "event_id": t["event_id"],
                "vm": pc.cast(
                    pc.floor(pc.multiply(t["value"], 1000.0)), pa.int64()
                ),
            }
        )

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    ).map_batches(derive, batch_format="pyarrow")
    return time_weighted_avg(ds)


def q_late_events(sf_dir: str):
    """Watermark late-data flagging: watermark = max(ts) − 24 h (tiny
    combiner max), events older are flagged for the late-data sink."""
    from opentelemetry_collector_ray.stages.signals import flag_late_events

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])
    return flag_late_events(ds)


def q_cardinality_limit(sf_dir: str):
    """Metric-cardinality protection: per event type at most 50
    distinct user series keep identity (hash-rank chosen, run-stable),
    the rest relabel to _overflow."""
    from opentelemetry_collector_ray.stages.signals import cardinality_limit

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "user_id"],
    )
    return cardinality_limit(
        ds, metric="event_type", series="user_id", limit=50
    )


def q_union_evolved(sf_dir: str):
    """Schema-evolution union (UNION ALL BY NAME): two reads with
    drifted column sets align by name, missing columns null-fill —
    the evolving-corpus ingestion path."""
    from opentelemetry_collector_ray.sources.evolve import union_by_name

    old = read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "event_type"])
    new = read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )
    return union_by_name([old, new])


def q_sentences(sf_dir: str):
    """Sentence segmentation: each doc exploded into trimmed non-empty
    sentences (one RE2 split per batch, zero shuffle)."""
    from opentelemetry_collector_ray.stages.text import sentence_split_batch

    return read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(sentence_split_batch, batch_format="pyarrow")


def q_line_dedup(sf_dir: str):
    """Within-document line dedup (C4 cleaning rule): repeated lines
    dropped, first occurrence and order kept."""
    from opentelemetry_collector_ray.stages.text import dedup_lines_batch

    return (
        read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        .map_batches(dedup_lines_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "text_dedup", "n_dropped_lines"])
    )


def q_alerts(sf_dir: str):
    """Threshold alert rule (the alerting-connector idiom / SQL
    HAVING): hourly windows whose error count breaches the limit —
    tumbling combiner counts, tiny driver filter."""
    import pandas as pd

    from opentelemetry_collector_ray.stages.window import tumbling_counts

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    counts = tumbling_counts(ds, unit="hour")
    alerts = counts[
        (counts["event_type"] == "error") & (counts["n"] > 5)
    ].reset_index(drop=True)
    return pd.DataFrame(
        {
            "window_start": alerts["window_start"],
            "n": alerts["n"].astype("int64"),
        }
    )


def q_severity_numbers(sf_dir: str):
    """plog SeverityNumber mapping: severity text → numeric band
    (severity_number.go), unknown/unparsed → 0 UNSPECIFIED."""
    from opentelemetry_collector_ray.stages.signals import (
        severity_number_batch,
    )

    return (
        _parsed(sf_dir)
        .map_batches(severity_number_batch, batch_format="pyarrow")
        .select_columns(["conv_id", "turn_idx", "level", "severity_number"])
    )


def q_counter_resets(sf_dir: str):
    """cumulative→delta with monotonic-counter reset handling: a
    negative diff means the counter restarted, so the new value itself
    is the delta (contrib cumulativetodelta reset rule)."""
    from opentelemetry_collector_ray.stages.signals import cumulative_to_delta

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return cumulative_to_delta(
        ds,
        key="user_id",
        ts="ts",
        value="value",
        order_tiebreak="event_id",
        handle_resets=True,
    )


def q_salted_counts(sf_dir: str):
    """Skew-proof two-phase (salted) grouped count — same result as a
    plain groupby, hot keys spread over 8 reducers."""
    from opentelemetry_collector_ray.functions.skew import salted_grouped_sum

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
    return salted_grouped_sum(ds, "event_type", None, salt=8)


def q_sliding_window(sf_dir: str):
    """Per-user trailing-60min event count at every event (RANGE
    window incl. ts-peers) — two binary searches per group."""
    from opentelemetry_collector_ray.stages.window2 import sliding_count

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    return sliding_count(ds, key="user_id", ts="ts", window_minutes=60)


def q_topk_per_group(sf_dir: str):
    """Top-3 events by value per event_type with rank (row_number
    over partition)."""
    from opentelemetry_collector_ray.stages.window2 import topk_per_group

    ds = read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "event_id", "value"]
    )
    return topk_per_group(
        ds, group="event_type", order_by="value", tiebreak="event_id", k=3
    )


def q_quantiles(sf_dir: str):
    """Discrete p50/p95 latency per route (quantile_disc semantics —
    exact data elements, hash-safe)."""
    from opentelemetry_collector_ray.stages.window2 import discrete_quantiles

    return discrete_quantiles(
        _enriched(sf_dir),
        group="route",
        value="latency_ms",
        quantiles=(0.5, 0.95),
        out_dtype="int64",
    )


def q_ntile(sf_dir: str):
    """Global decile assignment (ntile-over-everything) WITHOUT a
    global sort: distributed value histogram → broadcast start-rank
    dict → sharded tie-ranking."""
    from opentelemetry_collector_ray.stages.window2 import global_ntile

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    return global_ntile(
        ds, value="n_chars", tiebreak="doc_id", buckets=10, out="bucket"
    )


def q_join_native(sf_dir: str):
    """Ray's built-in hash-partitioned Dataset.join (same result as the
    explicit bucketed join)."""
    from opentelemetry_collector_ray.functions.agg import grouped_count

    li = read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]
    ).rename_columns({"l_orderkey": "o_orderkey"})
    orders = read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    )
    joined = li.join(
        orders, join_type="inner", num_partitions=8, on=("o_orderkey",)
    )
    return grouped_count(joined, ["o_orderstatus"])


def q_bloom_dedup(sf_dir: str):
    """Incremental-ingestion dedup via a mergeable Bloom filter, under
    a FULL oracle — false positives included: texts reduce to the
    oracle-proven Horner fingerprint (`fingerprint_exact`'s hash, < 2³¹
    so the int64 key is SQL-exact), the 'already ingested' half (even
    doc_ids) builds a 2048-bit affine filter (per-block bitmaps
    OR-merged, broadcast once), and the incoming half (odd doc_ids)
    probes with zero shuffle. 2048 bits over ~250 members keeps a real
    few-percent FP rate — the oracle computes the identical bit set and
    reproduces every false positive. The opaque-siphash string-keyed
    tier (`build_bloom`/`bloom_filter_new`) stays pytest-pinned
    (no-false-negative + FP-rate), plus `bloom_exact` as the
    user_id-keyed gate."""
    import numpy as np
    import pyarrow.compute as _pc

    from opentelemetry_collector_ray.functions.sketch import (
        bloom_contains_affine,
        build_bloom_affine,
    )
    from opentelemetry_collector_ray.stages.text import fingerprint_batch

    M_BITS, HASHES = 2048, 3

    def _fp_parity(want: int):
        def f(t: pa.Table) -> pa.Table:
            t = t.filter(_pc.equal(_pc.bit_wise_and(t["doc_id"], 1), want))
            t = fingerprint_batch(t)
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "fp": _pc.cast(t["fingerprint"], pa.int64()),
                }
            )

        return f

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    old = docs.map_batches(_fp_parity(0), batch_format="pyarrow")
    new = docs.map_batches(_fp_parity(1), batch_format="pyarrow")
    bits = build_bloom_affine(old, value="fp", m_bits=M_BITS, hashes=HASHES)
    import ray as _ray

    ref = _ray.put(bits)  # broadcast ONCE; the probe stream never lands

    def flag(t: pa.Table) -> pa.Table:
        b = ref
        if isinstance(b, _ray.ObjectRef):
            b = _ray.get(b)
        ok = bloom_contains_affine(
            b,
            t["fp"].to_numpy(zero_copy_only=False).astype(np.int64),
            m_bits=M_BITS,
            hashes=HASHES,
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "maybe_dup": pa.array(ok.astype(np.int64), type=pa.int64()),
            }
        )

    return new.map_batches(flag, batch_format="pyarrow")


def q_heavy_hitters(sf_dir: str):
    """Approximate top-frequent users via mergeable Misra-Gries
    summaries (≤ k counters per block, driver merges k×blocks tiny
    partials — no all-to-all shuffle of the full key space), under a
    FULL oracle by the summaries' own exactness guarantee: with k=512 ≥
    the gate-scale user cardinality (150 at sf0.01) no decrement ever
    fires in any block or merge, so est_count is the exact frequency
    and max_err is 0 — which plain GROUP BY counts reproduce. The
    k < cardinality decrement path (where the n/k error bound is the
    contract) stays pinned by pytest (`test_ops` Misra-Gries bounds)
    and by `heavy_hitters_exact`'s low-cardinality gate. Nulls drop
    before the sketch (value_counts would float-ify an int column with
    NaN and diverge from the oracle's WHERE IS NOT NULL). A non-zero
    max_err means the cardinality outgrew k at this scale: that raises,
    rather than surfacing later as an oracle hash mismatch."""
    import pyarrow.compute as _pc

    from opentelemetry_collector_ray.functions.sketch import heavy_hitters

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"]).map_batches(
        lambda t: t.filter(_pc.is_valid(t["user_id"])),
        batch_format="pyarrow",
    )
    out = heavy_hitters(ds, value="user_id", k=512, top=20)
    if (out["max_err"] != 0).any():
        raise ValueError(
            "heavy_hitters: user_id cardinality exceeds k=512 "
            f"(max_err {int(out['max_err'].max())}); the exact oracle "
            "no longer holds at this scale"
        )
    return out


def q_heavy_hitters_exact(sf_dir: str):
    """The Misra-Gries exactness contract under a FULL oracle: with
    k ≥ distinct cardinality no decrement ever fires, so est_count is
    the exact frequency and max_err is 0 — here over event_type (5
    distinct, k=64), oracle = plain GROUP BY counts. `heavy_hitters`
    keeps the genuinely-approximate high-cardinality tier
    (user_id, k=512) pinned by its pytest bound."""
    from opentelemetry_collector_ray.functions.sketch import heavy_hitters

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
    return heavy_hitters(ds, value="event_type", k=64, top=20)


def q_hll_distinct(sf_dir: str):
    """HyperLogLog approximate distinct users per event_type under a
    FULL oracle: grouped affine-hash registers (elementwise-max
    mergeable, exactly the production combiner shape) read out through
    the RAW HLL estimator α·m²/Σ2^−M[j] in fixed-op-order doubles —
    2^−rho sums are exact powers of two (order-independent), and the
    oracle evaluates the identical expression, so the milli-floored
    APPROXIMATE estimates hash-match bit-for-bit. The linear-counting
    small-range correction (ln — the one step a SQL mirror can't pin)
    stays on the production siphash tier (`approx_distinct`,
    pytest-bounded); m=16 at ≥15 distinct keys keeps every register
    non-zero so the raw estimator is also the canonical one here."""
    from opentelemetry_collector_ray.functions.sketch import (
        grouped_hll_affine,
    )

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    return grouped_hll_affine(ds, group="event_type", value="user_id")


def q_countmin_counts(sf_dir: str):
    """Count-Min sketch point queries over the distinct user_id
    vocabulary, under a FULL oracle: the production build shape
    (per-block depth×width partials, elementwise-sum merge, min-over-
    rows read-out) with the SQL-exact affine hash family at the
    production width class (1024×4), so DuckDB reproduces every
    estimate — including any collision over-count — in exact integer
    arithmetic. The collision-dense gate (width=64, guaranteed
    over-counts) is `countmin_exact`; the opaque-siphash string-keyed
    tier (`build_countmin`/`countmin_query`) stays pytest-bounded
    (never-undercount + ε·n overcount)."""
    import numpy as np

    from opentelemetry_collector_ray.functions.sketch import (
        build_countmin_affine,
        countmin_query_affine,
    )

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    cm = build_countmin_affine(ds, value="user_id", width=1024, depth=4)
    vocab = np.array(
        sorted(u for u in ds.unique("user_id") if u is not None and u >= 0),
        dtype=np.int64,
    )
    return countmin_query_affine(cm, vocab)


def q_hll_registers_exact(sf_dir: str):
    """HyperLogLog at the REGISTER level under a FULL oracle: with the
    SQL-exact affine hash, register index = low 6 bits, rho =
    trailing-zero count of the remaining 25 bits + 1 (bit_count((sub &
    -sub) - 1) + 1 in DuckDB — trailing zeros have the same geometric
    law as the classic leading zeros). Per-block maxima merge
    elementwise, exactly like the production HLL; the oracle GROUP BY
    max reproduces all 64 registers. The float estimate read-out stays
    on the production tier (`hll_distinct`, pytest-bounded) — register
    state is the mergeable object a 256-node run actually ships."""
    import numpy as np
    import pandas as pd

    from opentelemetry_collector_ray.functions.sketch import build_hll_affine

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    regs = build_hll_affine(ds, value="user_id", p_bits=6)
    return pd.DataFrame(
        {"register": np.arange(64, dtype=np.int64), "rho": regs}
    )


def q_countmin_exact(sf_dir: str):
    """The Count-Min ESTIMATE itself under a FULL oracle (not just
    exact-when-small): the affine tier hashes with
    h_d(x) = ((a_d·(x mod p) + b_d) mod p) mod width, p = 2³¹−1, which
    DuckDB evaluates in exact integer arithmetic — so the oracle
    reproduces every collision over-count bit-for-bit
    (min over depth rows of the bucket sums, absent bucket = 0).
    width=64 on ~150 distinct users GUARANTEES collisions: the gate is
    verifying genuinely approximate answers, not a degenerate exact
    case. Probes cover [0, 200) — absent items included, whose
    over-counts the oracle also mirrors. `countmin_counts` keeps the
    production siphash tier (rows-only, pytest-bounded)."""
    import numpy as np

    from opentelemetry_collector_ray.functions.sketch import (
        build_countmin_affine,
        countmin_query_affine,
    )

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    cm = build_countmin_affine(ds, value="user_id", width=64, depth=3)
    return countmin_query_affine(cm, np.arange(200, dtype=np.int64))


def q_bloom_exact(sf_dir: str):
    """Bloom-filter membership under a FULL oracle, false positives
    included: affine bit positions (same SQL-exact two-level congruential
    family as `countmin_exact`) over a 384-bit filter of the even user_ids;
    every distinct user_id is probed. Odd users that collide into
    all-set bits flag as maybe_present=1 — the oracle computes the
    identical bit set and reproduces each false positive.
    `bloom_dedup` keeps the production siphash tier (rows-only,
    no-false-negative + FP-rate pinned in pytest)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as _pc

    from opentelemetry_collector_ray.functions.sketch import (
        bloom_contains_affine,
        build_bloom_affine,
    )

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    even = ds.map_batches(
        lambda t: t.filter(
            _pc.equal(_pc.bit_wise_and(t["user_id"], 1), 0)
        ),
        batch_format="pyarrow",
    )
    bits = build_bloom_affine(even, value="user_id", m_bits=384, hashes=3)
    probes = np.array(
        sorted(
            u for u in ds.unique("user_id") if u is not None and u >= 0
        ),
        dtype=np.int64,
    )
    ok = bloom_contains_affine(bits, probes, m_bits=384, hashes=3)
    return pd.DataFrame({"item": probes, "maybe_present": ok.astype(np.int64)})


def q_kmv_exact_small(sf_dir: str):
    """The KMV/bottom-k exactness contract under a FULL oracle: with
    fewer than k distinct hashes the sketch IS the distinct value set,
    so distinct counts and the sketch-intersection Jaccard are exact
    (Beyer et al.'s estimator degenerates to truth). Even/odd event_id
    halves → user_id sets (~150 distinct ≪ k=4096; deterministic
    fixed-key siphash, so the no-64-bit-collision condition is stable
    run to run and verified by this very gate). jaccard_milli is
    integer math on both sides (1000·|A∩B| // |A∪B|) — no float
    rounding to diverge. `corpus_overlap` keeps the genuinely
    approximate tier (rows-only, pytest error bounds)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as _pc

    from opentelemetry_collector_ray.functions.sketch import (
        kmv_distinct,
        kmv_sketch,
    )

    k = 4096
    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id"])

    def half(want: int):
        # event_id % 61 slices (pc.modulo doesn't exist in this
        # pyarrow — numpy on the int64 column; an arrow int64 column
        # with nulls surfaces as float64-with-NaN, and NaN % 61 == want
        # is False, so null event_ids drop on both sides like the
        # oracle's WHERE). Sparse enough that the two user sets only
        # partially overlap (~0.45 Jaccard at sf0.01), so the oracle
        # checks a non-degenerate value.
        def f(t: pa.Table) -> pa.Table:
            import numpy as _np

            eid = t["event_id"].to_numpy(zero_copy_only=False)
            with _np.errstate(invalid="ignore"):
                mask = eid % 61 == want
            mask &= _pc.is_valid(t["user_id"]).to_numpy(zero_copy_only=False)
            return t.filter(pa.array(mask)).select(["user_id"])

        return ds.map_batches(f, batch_format="pyarrow")

    sa = kmv_sketch(half(0), value="user_id", k=k)
    sb = kmv_sketch(half(1), value="user_id", k=k)
    union = np.unique(np.concatenate([sa, sb]))[:k]
    inter = int((np.isin(union, sa) & np.isin(union, sb)).sum())
    return pd.DataFrame(
        {
            "distinct_even": [kmv_distinct(sa, k)],
            "distinct_odd": [kmv_distinct(sb, k)],
            "jaccard_milli": [1000 * inter // max(len(union), 1)],
        }
    )


def q_tdigest_quantiles(sf_dir: str):
    """t-digest q50/q90/q99/q999 of events.value under a FULL oracle:
    integer-quantized buckets (floor — one IEEE op, identical in numpy
    and DuckDB, bounding digest cardinality at any corpus size), a
    distributed combiner histogram, and the standard weighted t-digest
    inverse-CDF read-out (`tdigest_quantile`'s np.interp at cumulative
    mid-weight positions) mirrored op-for-op by the oracle's window
    SQL — milli-floored estimates are bit-identical. The genuinely
    δ-merged unbounded-continuous tier stays on `build_tdigest` /
    `grouped_tdigest_quantiles`, pinned by pytest accuracy bounds and
    the `tdigest_exact_small`/`grouped_tdigest_exact_small` oracles."""
    from opentelemetry_collector_ray.functions.sketch import (
        quantized_tdigest_quantiles,
    )

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return quantized_tdigest_quantiles(
        ds, value="value", qms=(500, 900, 990, 999)
    )


def q_tdigest_exact_small(sf_dir: str):
    """The t-digest exactness contract under a FULL oracle: when n is
    far below the digest capacity (n=25 nation keys vs δ=200), the k1
    merge rule never fires, every centroid stays a singleton, and the
    inverse-CDF read-out reduces to np.interp over mid-weight
    positions — which the oracle mirrors step-for-step in SQL double
    arithmetic (same operation order, so the milli-floored estimates
    are bit-identical). `tdigest_quantiles` keeps the genuinely
    approximate tier pinned by its pytest accuracy bound."""
    import numpy as np
    import pandas as pd

    from opentelemetry_collector_ray.functions.sketch import (
        build_tdigest,
        tdigest_quantile,
    )

    ds = read_parquet(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])
    m, w = build_tdigest(ds, value="n_nationkey", delta=200.0)
    assert (w == 1.0).all(), "exact-small contract violated: merged centroid"
    qs = (0.25, 0.5, 0.9)
    est = tdigest_quantile(m, w, qs)
    return pd.DataFrame(
        {
            "q": [int(round(q * 1000)) for q in qs],
            "est_milli": np.floor(est * 1000).astype(np.int64),
        }
    )


def q_grouped_tdigest_exact_small(sf_dir: str):
    """The GROUPED t-digest tier under the same exactness contract as
    `tdigest_exact_small`: 5 nations per region ≪ δ=200 keeps every
    per-group centroid a singleton, so each group's inverse-CDF
    read-out is np.interp over mid-weight positions — mirrored
    per-group in SQL (PARTITION BY region) with identical double op
    order; milli-floored estimates are bit-identical.
    `grouped_tdigest` keeps the genuinely approximate tier."""
    import numpy as np

    from opentelemetry_collector_ray.functions.sketch import (
        grouped_tdigest_quantiles,
    )

    ds = read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_regionkey", "n_nationkey"]
    )
    out = grouped_tdigest_quantiles(
        ds,
        group="n_regionkey",
        value="n_nationkey",
        qs=(0.25, 0.5, 0.9),
        delta=200.0,
    )
    out["q"] = (out["q"] * 1000).round().astype(np.int64)
    out["est_milli"] = np.floor(out["value_est"] * 1000).astype(np.int64)
    return out[["n_regionkey", "q", "est_milli"]]


def q_embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-dup pairs (cos ≥ 0.4, id_a < id_b) —
    broadcast matrix, streamed batches, exact."""
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.stages.similarity import (
        embedding_near_dup_pairs,
    )

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet")
    import numpy as np

    ids = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.stack(tbl["embedding"].to_pylist())
    ds = read_parquet(f"{sf_dir}/embeddings.parquet")
    return embedding_near_dup_pairs(ds, mat, ids, threshold=0.4)


def q_embedding_near_dup_lsh(sf_dir: str):
    """LSH-bucketed embedding near-dup pairs — the beyond-broadcast
    scale tier — under a FULL oracle: deterministic coordinate-
    difference sign planes (each sign bit is ONE exact IEEE subtract,
    bit-reproducible as ``e[2j+1]−e[2j+2] >= 0`` in DuckDB), so the
    approximate candidate rule itself — a pair is seen iff its 4-bit
    signatures differ in ≤2 positions (base bucket + Hamming-1 probes
    on both sides) — plus the in-bucket exact-cosine verify is
    reproduced pair-for-pair by the oracle, missed pairs included.
    The gaussian-plane tier keeps its recall-vs-exact pytest pin."""
    from opentelemetry_collector_ray.stages.similarity import (
        embedding_near_dup_lsh,
    )

    ds = read_parquet(f"{sf_dir}/embeddings.parquet")
    return (
        embedding_near_dup_lsh(
            ds, threshold=0.4, bits=4, planes_mode="coord-diff"
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"], kind="mergesort")
        .reset_index(drop=True)
    )


def q_push_ingest(sf_dir: str):
    """Push-ingest bridge (receiver/otlpreceiver/otlp.go:93-172
    semantics as a batch bridge): stream the transcript rows into a
    spool-receiver actor batch-by-batch, land atomic micro-batch spool
    files, process the spool through the checkpoint ledger (exactly-
    once per partition), read the sinks back. Output must equal the
    pushed input exactly — the end-to-end delivery-contract check."""
    import glob
    import os
    import shutil
    import zlib

    import ray
    import ray.data

    from opentelemetry_collector_ray.state.checkpoint import run_partitioned
    from opentelemetry_collector_ray.state.receiver import (
        SpoolReceiverActor,
        push_dataset,
    )

    tag = zlib.crc32(os.path.abspath(sf_dir).encode()) & 0xFFFFFFFF
    base = f"/tmp/otel_ray_push_{os.getpid()}_{tag:08x}"
    shutil.rmtree(base, ignore_errors=True)
    spool, out = f"{base}/spool", f"{base}/out"
    # request sizing: one Export() per push; larger requests = fewer
    # actor RPCs and fewer spool files (the batch processor upstream
    # of a real exporter does exactly this) — 2048-row pushes made
    # this the slowest query at sf0.1 (6.1 s) on RPC count alone
    actor = SpoolReceiverActor.remote(spool, max_buffer_rows=65536)
    push_dataset(_transcripts(sf_dir), actor, rows_per_push=16384)
    ray.get(actor.flush.remote())
    files = sorted(glob.glob(spool + "/*.parquet"))
    run_partitioned(
        files, out, lambda paths: read_parquet(paths),
        num_partitions=8,
    )
    return read_parquet(glob.glob(out + "/part-*/*.parquet"))


def q_otlp_json_flatten(sf_dir: str):
    """Real OTLP/JSON interchange (pdata/plog/json.go:27-49): nest the
    transcript table into ExportLogsServiceRequest NDJSON (resource →
    scope → logRecords, proto3 JSON wire form, null fields omitted),
    read it back with Arrow's JSON reader and flatten — resource/scope
    context denormalized, record attributes extracted. The oracle
    recomputes the same flat result from the transcripts CTE."""
    import os
    import shutil

    from opentelemetry_collector_ray.sources.otlp_json import (
        read_otlp_logs_json,
        write_otlp_logs_json,
    )

    out = f"/tmp/otel_ray_otlp_json_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    write_otlp_logs_json(_transcripts(sf_dir), out)
    return read_otlp_logs_json(out)


def q_otlp_pb_roundtrip(sf_dir: str):
    """OTLP binary-protobuf interchange (pdata/plog/pb.go:24-44): nest
    the transcript table into ExportLogsServiceRequest, serialize each
    request to real protobuf wire bytes (schema declared from the
    public opentelemetry-proto definitions at runtime), read the
    .binpb files back and flatten. Same oracle as the JSON wire — the
    two codecs share one tree and must flatten identically."""
    import os
    import shutil

    from opentelemetry_collector_ray.sources.otlp_pb import (
        read_otlp_logs_pb,
        write_otlp_logs_pb,
    )

    out = f"/tmp/otel_ray_otlp_pb_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    write_otlp_logs_pb(_transcripts(sf_dir), out)
    return read_otlp_logs_pb(out)


def q_otlp_traces_flatten(sf_dir: str):
    """OTLP/JSON traces interchange (pdata/ptrace/json.go:27-49): nest
    transcripts into ExportTraceServiceRequest (md5-derived hex IDs,
    parent links, SpanKind ints, error Status), write NDJSON, read back
    and flatten. The oracle recomputes the whole span projection in SQL
    — DuckDB shares md5, so IDs hash-match exactly."""
    import os
    import shutil

    from opentelemetry_collector_ray.sources.otlp_traces import (
        read_otlp_traces_json,
        write_otlp_traces_json,
    )

    out = f"/tmp/otel_ray_otlp_traces_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    write_otlp_traces_json(_transcripts(sf_dir), out)
    return read_otlp_traces_json(out)


def q_otlp_traces_pb_roundtrip(sf_dir: str):
    """OTLP binary-protobuf traces interchange (pdata/ptrace/pb.go:
    24-44): same tree as the JSON wire but serialized to real protobuf
    bytes with raw-byte span IDs (hex↔bytes conversion mirroring the
    Go codec's custom ID marshaling). Shares the JSON wire's oracle."""
    import os
    import shutil

    from opentelemetry_collector_ray.sources.otlp_pb import (
        read_otlp_traces_pb,
        write_otlp_traces_pb,
    )

    out = f"/tmp/otel_ray_otlp_traces_pb_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    write_otlp_traces_pb(_transcripts(sf_dir), out)
    return read_otlp_traces_pb(out)


_METRICS_WIRE_CACHE: dict = {}


def _otlp_metrics_wire(sf_dir: str) -> str:
    """Write the metrics NDJSON wire ONCE per (process, sf_dir) — four
    queries (flatten/histogram/exphist/summary) read different branches
    of the SAME five-branch requests, so rewriting per query would
    quadruple the nest/serialize cost. crc32 key (never Python hash():
    per-process randomized)."""
    import os
    import shutil
    import zlib

    key = zlib.crc32(os.path.abspath(sf_dir).encode()) & 0xFFFFFFFF
    out = f"/tmp/otel_ray_otlp_metrics_{os.getpid()}_{key:08x}"
    if _METRICS_WIRE_CACHE.get(sf_dir) != out or not os.path.isdir(out):
        from opentelemetry_collector_ray.sources.otlp_metrics import (
            write_otlp_metrics_json,
        )

        shutil.rmtree(out, ignore_errors=True)
        write_otlp_metrics_json(_transcripts(sf_dir), out)
        _METRICS_WIRE_CACHE[sf_dir] = out
    return out


def q_otlp_metrics_flatten(sf_dir: str):
    """OTLP/JSON metrics interchange (pdata/pmetric/json.go:27-49):
    nest transcripts into ExportMetricsServiceRequest — per scope a
    Gauge metric (parsed-turn latencies) and a DELTA monotonic Sum
    (turn counts), the Metric oneof — write NDJSON, read back and
    flatten one row per NumberDataPoint."""
    from opentelemetry_collector_ray.sources.otlp_metrics import (
        read_otlp_metrics_json,
    )

    return read_otlp_metrics_json(_otlp_metrics_wire(sf_dir))


def q_otlp_metrics_pb_roundtrip(sf_dir: str):
    """OTLP binary-protobuf metrics interchange (pdata/pmetric/pb.go:
    24-44): same tree serialized to wire bytes (NumberDataPoint as_int
    is SFIXED64 on the binary wire). Shares the JSON wire's oracle."""
    import os
    import shutil

    from opentelemetry_collector_ray.sources.otlp_pb import (
        read_otlp_metrics_pb,
        write_otlp_metrics_pb,
    )

    out = f"/tmp/otel_ray_otlp_metrics_pb_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    write_otlp_metrics_pb(_transcripts(sf_dir), out)
    return read_otlp_metrics_pb(out)


def q_otlp_metrics_histogram(sf_dir: str):
    """OTLP Histogram metric branch (metrics.proto HistogramDataPoint:
    fixed64 count/bucketCounts, optional-double sum, explicit bounds):
    nest emits one per-(scope, conv) partial histogram per REQUEST;
    reading back, partials merge by summing counts/buckets — the
    mergeable-histogram property that makes the wire batch-independent
    and the oracle a plain GROUP BY."""
    from ray.data.aggregate import Sum

    from opentelemetry_collector_ray.sources.otlp_metrics import (
        read_otlp_metrics_hist_json,
    )

    dps = read_otlp_metrics_hist_json(_otlp_metrics_wire(sf_dir))

    from ray.data.aggregate import Max, Min

    keys = ["service", "scope_name", "conv_id"]
    vals = ["count", "sum_ms", "b0", "b1", "b2", "b3"]

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate(
            [(v, "sum") for v in vals] + [("min_ms", "min"), ("max_ms", "max")]
        )
        return g.rename_columns(
            keys + [f"_{v}" for v in vals] + ["_min_ms", "_max_ms"]
        )

    merged = dps.map_batches(partial, batch_format="pyarrow")
    return merged.groupby(keys).aggregate(
        *[Sum(f"_{v}", alias_name=v) for v in vals],
        Min("_min_ms", alias_name="min_ms"),
        Max("_max_ms", alias_name="max_ms"),
    )


def q_otlp_metrics_exphist(sf_dir: str):
    """OTLP ExponentialHistogram branch (scale-0 base-2 buckets with
    per-dp offset, zeroCount field, sint32/fixed64 wire types): nest
    emits per-(scope, conv) partials; reading back, bucket rows merge
    by summing — batch-independent, oracle = GROUP BY on the same
    ceil(log2(v))-1 rule the exp_histogram table operator uses."""
    from ray.data.aggregate import Sum

    from opentelemetry_collector_ray.sources.otlp_metrics import (
        read_otlp_metrics_exp_json,
    )

    rows = read_otlp_metrics_exp_json(_otlp_metrics_wire(sf_dir))

    keys = ["service", "scope_name", "conv_id", "bucket_idx"]

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate([("n", "sum")])
        return g.rename_columns(keys + ["_n"])

    merged = rows.map_batches(partial, batch_format="pyarrow")
    return merged.groupby(keys).aggregate(Sum("_n", alias_name="n"))


def q_otlp_metrics_summary(sf_dir: str):
    """OTLP Summary branch (the 5th and final metric type on the wire:
    SummaryDataPoint with nested ValueAtQuantile): the merged gate
    covers the MERGEABLE fields (count/sum per (scope, conv)); the
    point-in-time quantile snapshots — legacy Summary semantics, not
    mergeable by definition — are pinned by pytest instead."""
    from ray.data.aggregate import Sum

    from opentelemetry_collector_ray.sources.otlp_metrics import (
        read_otlp_metrics_summary_json,
    )

    rows = read_otlp_metrics_summary_json(_otlp_metrics_wire(sf_dir))

    keys = ["service", "scope_name", "conv_id"]

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate(
            [("count", "sum"), ("sum_ms", "sum")]
        )
        return g.rename_columns(keys + ["_c", "_s"])

    merged = rows.map_batches(partial, batch_format="pyarrow")
    return merged.groupby(keys).aggregate(
        Sum("_c", alias_name="count"), Sum("_s", alias_name="sum_ms")
    )


def q_otlp_ingest_pipeline(sf_dir: str):
    """End-to-end OTLP ingestion: genuine OTLP/JSON export files (gzip
    wire compression) are the SOURCE of the flagship pipeline —
    flatten → reconstruct the transcript shape (role back out of the
    scope name, ts from timeUnixNano) → parse → enrich → route →
    per-sink counts. Must equal the direct-path sink_counts oracle
    exactly: the wire round-trip is lossless for the whole DAG."""
    import os
    import shutil

    import pyarrow.compute as pc

    from opentelemetry_collector_ray.pipelines.logs import sink_counts
    from opentelemetry_collector_ray.sources.otlp_json import (
        read_otlp_logs_json,
        write_otlp_logs_json,
    )
    from opentelemetry_collector_ray.stages.enrich import enrich_batch
    from opentelemetry_collector_ray.stages.parse import parse_batch

    out = f"/tmp/otel_ray_otlp_ingest_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    write_otlp_logs_json(_transcripts(sf_dir), out, compression="gzip")

    def to_transcripts(t: pa.Table) -> pa.Table:
        role = pc.replace_substring_regex(
            t["scope_name"], "^otelray\\.", ""
        )
        ts = pc.cast(
            pc.divide(t["time_unix_nano"], 1000), pa.timestamp("us")
        )
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "role": role,
                "text": t["body"],
                "tool": t["tool"],
                "ts": ts,
            }
        )

    recovered = read_otlp_logs_json(out).map_batches(
        to_transcripts, batch_format="pyarrow"
    )
    enriched = recovered.map_batches(
        parse_batch, batch_format="pyarrow"
    ).map_batches(enrich_batch, batch_format="pyarrow")
    return sink_counts(enriched)


def q_chat_jsonl_roundtrip(sf_dir: str):
    """Chat-messages JSONL interchange (the OpenAI-style SFT corpus
    wire: one conversation per line with an ordered messages array):
    write, read back, flatten — identity on (conv_id, turn_idx, role,
    text), with turn_idx re-derived from message position."""
    import os
    import shutil

    from opentelemetry_collector_ray.sources.chat_jsonl import (
        read_chat_jsonl,
        write_chat_jsonl,
    )

    out = f"/tmp/otel_ray_chat_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    write_chat_jsonl(_transcripts(sf_dir), out)
    return read_chat_jsonl(out)


def q_telemetry_export(sf_dir: str):
    """Self-telemetry over the engine's own metrics wire
    (service/telemetry.go:24-33,96 initPrometheus analogue): populate
    the obsreport counter surface from the flagship routed pipeline,
    export the snapshot as an ExportMetricsServiceRequest wire file
    (state/telemetry.py — monotonic CUMULATIVE Sum per counter), then
    re-read it through the engine's own ``read_otlp_metrics_json`` and
    return the (name, value) counter table — oracle-equal to
    ``obs_counters``, proving the export round-trips losslessly."""
    import os
    import shutil

    import pandas as pd

    from opentelemetry_collector_ray.pipelines.logs import sink_counts
    from opentelemetry_collector_ray.sources.otlp_metrics import (
        read_otlp_metrics_json,
    )
    from opentelemetry_collector_ray.state import metrics as m
    from opentelemetry_collector_ray.state.telemetry import export_telemetry

    per_sink = sink_counts(_enriched(sf_dir))
    accepted = int(per_sink.loc[per_sink["sink"] != "errors", "n"].sum())
    snapshot = {m.receiver_accepted(): accepted}
    for _, r in per_sink.iterrows():
        snapshot[m.exporter_sent(str(r["sink"]))] = int(r["n"])
    out = f"/tmp/otel_ray_telemetry_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    # fixed export timestamp: deterministic wire bytes → deterministic
    # content-addressed file name → idempotent re-export
    export_telemetry(snapshot, out, ts_unix_nano=1_700_000_000_000_000_000)
    flat = read_otlp_metrics_json(out).to_pandas()
    return pd.DataFrame(
        {
            "name": flat["metric_name"].astype(str),
            "value": flat["value"].astype("int64"),
        }
    )


def q_telemetry_prom(sf_dir: str):
    """The LITERAL initPrometheus surface (service/telemetry.go:96):
    the same counter snapshot as ``telemetry_export``, rendered as
    Prometheus text exposition format (# TYPE counter + labeled
    samples), scraped back through the engine's own parser — equal to
    the obs_counters oracle. The original instrument name rides an
    `instrument` label because prometheus name sanitization is
    lossy."""
    import glob as _glob
    import os
    import shutil

    import pandas as pd

    from opentelemetry_collector_ray.pipelines.logs import sink_counts
    from opentelemetry_collector_ray.state import metrics as m
    from opentelemetry_collector_ray.state.telemetry import (
        export_telemetry,
        parse_prometheus,
    )

    per_sink = sink_counts(_enriched(sf_dir))
    accepted = int(per_sink.loc[per_sink["sink"] != "errors", "n"].sum())
    snapshot = {m.receiver_accepted(): accepted}
    for _, r in per_sink.iterrows():
        snapshot[m.exporter_sent(str(r["sink"]))] = int(r["n"])
    out = f"/tmp/otel_ray_telemetry_prom_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    export_telemetry(
        snapshot, out, ts_unix_nano=1_700_000_000_000_000_000, wire="prom"
    )
    merged: dict[str, int] = {}
    for f in sorted(_glob.glob(out + "/telemetry-*.prom")):
        merged.update(parse_prometheus(open(f).read()))
    return pd.DataFrame(
        {
            "name": sorted(merged),
            "value": [int(merged[k]) for k in sorted(merged)],
        }
    )


def q_media_decode_real(sf_dir: str):
    """REAL image decode in the actor pool — no fake path — under a
    FULL oracle: a deterministic mixed-format corpus (PPM / BMP /
    zlib-compressed non-interlaced PNG by media_id mod 3, keyed off
    embeddings vec_ids so it scales with sf) → pure-numpy decode +
    feature extraction (pinned by the test_ops real-codec tests) →
    nearest resize re-encoded as PPM → a final re-decode that emits
    exact INTEGER per-channel sums and sums-of-squares of the resized
    pixels. The oracle never sees a byte of payload: it regenerates the
    same pixels from `synth_image`'s closed-form generative rule plus
    `resize_nearest`'s index map ((i,j) → source (4i+2, 4j+2)) in pure
    BIGINT SQL — so a hash match proves decode(encode(synth)) ==
    synth through two real codec round-trips, bit-for-bit, with zero
    float risk. (The float feature vector itself stays pytest-pinned:
    float32 pairwise-sum stats aren't SQL-mirrorable.)"""
    import numpy as np

    from opentelemetry_collector_ray.stages.imagecodec import (
        decode_image,
        encode_bmp,
        encode_png,
        encode_ppm,
        synth_image,
    )
    from opentelemetry_collector_ray.stages.multimodal import (
        DecodeStage,
        ResizeStage,
    )

    ids = read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])

    _ENCODERS = (
        ("image/x-ppm", encode_ppm),
        ("image/bmp", encode_bmp),
        ("image/png", encode_png),
    )

    def make_media(t: pa.Table) -> pa.Table:
        mids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        types, payloads = [], []
        for i in mids:
            mt, enc = _ENCODERS[int(i) % 3]
            types.append(mt)
            payloads.append(enc(synth_image(int(i))))
        return pa.table(
            {
                "media_id": pa.array(mids, type=pa.int64()),
                "media_type": pa.array(types, type=pa.string()),
                "payload": pa.array(payloads, type=pa.binary()),
                "meta_json": pa.array(["{}"] * len(mids), type=pa.string()),
            }
        )

    media = ids.map_batches(make_media, batch_format="pyarrow", batch_size=256)
    decoded = media.map_batches(
        DecodeStage,
        fn_constructor_kwargs={"fake_decode": False},
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, 4),
    )
    resized = decoded.map_batches(
        ResizeStage,
        fn_constructor_kwargs={"width": 8, "height": 6, "fake": False},
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, 4),
    )

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sums = np.empty((len(t), 3), dtype=np.int64)
        sqs = np.empty((len(t), 3), dtype=np.int64)
        for r, payload in enumerate(t["payload"].to_pylist()):
            px = decode_image(payload).astype(np.int64)  # (6, 8, 3)
            sums[r] = px.sum(axis=(0, 1))
            sqs[r] = (px * px).sum(axis=(0, 1))
        cols = {
            "media_id": t["media_id"],
            "width": pc.cast(t["width"], pa.int64()),
            "height": pc.cast(t["height"], pa.int64()),
        }
        for c, name in enumerate("rgb"):
            cols[f"sum_{name}"] = pa.array(sums[:, c], type=pa.int64())
            cols[f"ss_{name}"] = pa.array(sqs[:, c], type=pa.int64())
        return pa.table(cols)

    return resized.map_batches(project, batch_format="pyarrow")


def q_media_decode_jpeg(sf_dir: str):
    """REAL baseline-JPEG decode (pure-numpy Huffman + dequant + IDCT,
    `stages/jpegcodec.py`) under a FULL oracle: per embeddings vec_id,
    a 48×64 grayscale image of CONSTANT 8×8 blocks with EVEN pixel
    values (`jpegcodec.synth_block_image`'s closed-form rule) is
    encoded as a real JPEG bitstream at quality 50 (Annex-K Q[0]=16),
    run through the actor-pool DecodeStage (real path — proves the
    pool decodes JPEG), then re-decoded to emit exact INTEGER channel
    sums/sums-of-squares. For such images decode∘encode is the
    IDENTITY bit-for-bit (DC = 8·(v−128) quantizes losslessly; pinned
    exhaustively in test_jpegcodec), so the oracle regenerates the
    same pixels from the closed-form block rule in pure BIGINT SQL —
    a hash match proves the whole bitstream→Huffman→IDCT path."""
    import numpy as np

    from opentelemetry_collector_ray.stages.imagecodec import decode_image
    from opentelemetry_collector_ray.stages.jpegcodec import (
        encode_jpeg,
        synth_block_image,
    )
    from opentelemetry_collector_ray.stages.multimodal import DecodeStage

    ids = read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])

    def make_media(t: pa.Table) -> pa.Table:
        mids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        payloads = []
        for i in mids:
            img = synth_block_image(int(i), blocks_x=8, blocks_y=6)
            payloads.append(encode_jpeg(img, quality=50))
        return pa.table(
            {
                "media_id": pa.array(mids, type=pa.int64()),
                "media_type": pa.array(
                    ["image/jpeg"] * len(mids), type=pa.string()
                ),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    media = ids.map_batches(make_media, batch_format="pyarrow", batch_size=256)
    decoded = media.map_batches(
        DecodeStage,
        fn_constructor_kwargs={"fake_decode": False},
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, 4),
    )

    def project(t: pa.Table) -> pa.Table:
        sums = np.empty((len(t), 3), dtype=np.int64)
        sqs = np.empty((len(t), 3), dtype=np.int64)
        for r, payload in enumerate(t["payload"].to_pylist()):
            px = decode_image(payload).astype(np.int64)  # (48, 64, 3)
            sums[r] = px.sum(axis=(0, 1))
            sqs[r] = (px * px).sum(axis=(0, 1))
        cols = {"media_id": t["media_id"]}
        for c, name in enumerate("rgb"):
            cols[f"sum_{name}"] = pa.array(sums[:, c], type=pa.int64())
            cols[f"ss_{name}"] = pa.array(sqs[:, c], type=pa.int64())
        return pa.table(cols)

    return decoded.map_batches(project, batch_format="pyarrow")


def q_boilerplate_lines(sf_dir: str):
    """Cross-document line dedup (the C4 policy-line rule generalized):
    lines appearing in >= min_docs DISTINCT documents are boilerplate
    and removed from every doc. The fixture corpus has no shared lines,
    so a deterministic boilerplate footer is appended to even doc_ids
    first (mirrored verbatim in the oracle) — the operator must find
    and strip exactly that line while leaving unique lines alone."""
    import numpy as np

    from opentelemetry_collector_ray.stages.text import (
        cross_doc_line_dedup,
    )

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def aug(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        even = pa.array((ids % 2) == 0)
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        footer = pc.binary_join_element_wise(
            text, "(c) corpus boilerplate", "\n"
        )
        return pa.table(
            {"doc_id": t["doc_id"], "text": pc.if_else(even, footer, text)}
        )

    out = cross_doc_line_dedup(
        docs.map_batches(aug, batch_format="pyarrow"), min_docs=3
    )
    return out.map_batches(
        lambda t: t.select(["doc_id", "text_clean", "n_boilerplate_lines"]),
        batch_format="pyarrow",
    )


def q_dsir_weights(sf_dir: str):
    """DSIR importance weights (arXiv:2302.03169) at the PRODUCTION
    bucket width (2¹⁴ hashed unigram features) under a FULL oracle:
    same distributed machinery as the paper's pipeline — two dense
    per-bucket model reductions (never a vocabulary shuffle), score
    table broadcast once, vectorized gather + segment-sum per batch —
    scored with the SQL-mirrorable Horner token hash and the unsmoothed
    integer bucket-count difference, so DuckDB reproduces every weight
    bit-for-bit. The float log-ratio scoring (the one step SQL can't
    pin) stays on `stages.text.dsir_weights`, whose ranking/partition
    invariance is pinned by test_ops; `dsir_exact` keeps the
    collision-dense 64-bucket gate of the same algebra."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.stages.text import dsir_exact

    docs = read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    target = docs.map_batches(
        lambda t: t.filter(pc.equal(t["lang"], "en")).select(
            ["doc_id", "text"]
        ),
        batch_format="pyarrow",
    )
    return dsir_exact(docs, target=target, buckets=1 << 14)


def q_dsir_exact(sf_dir: str):
    """The DSIR pipeline shape under a FULL oracle (affine-tier idiom):
    same two dense bucket-model reductions + broadcast score table +
    gather/segment-sum as ``dsir_weights``, but with the SQL-mirrorable
    Horner token hash and the unsmoothed integer bucket-count
    difference as the score, so DuckDB reproduces every weight exactly
    (the float log-ratio is why ``dsir_weights`` itself is rows-only).
    Target = the 'en' slice, raw = all documents, 64 buckets."""
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.stages.text import dsir_exact

    docs = read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    target = docs.map_batches(
        lambda t: t.filter(pc.equal(t["lang"], "en")).select(
            ["doc_id", "text"]
        ),
        batch_format="pyarrow",
    )
    return dsir_exact(docs, target=target, buckets=64)


def q_lm_hits_exact(sf_dir: str):
    """The unigram-LM scoring machinery under a FULL oracle: top-256
    vocab model (combiner reduction + blockwise partial top-k,
    deterministic count-desc/token-asc ties), broadcast once, integer
    hit-count scoring per document (OOV → 0) — the float log-prob mean
    is why ``lm_score`` itself stays rows-only."""
    from opentelemetry_collector_ray.stages.text import lm_hits_exact

    docs = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return lm_hits_exact(docs, top=256)


def q_attributes_map(sf_dir: str):
    """Open-ended map-typed attributes (pcommon.Map parity,
    pdata/pcommon/map.go:76-160): build a map column from the JSON
    ``props`` plus flat columns, run the PutStr / rename / RemoveIf
    mutation surface, explode back to flat (event_id, key, value) rows
    for the oracle."""
    from opentelemetry_collector_ray.stages.maps import (
        MapAttributesStage,
        map_explode,
    )

    stage = MapAttributesStage(
        column="attrs",
        from_json="props",
        actions=[
            {"action": "rename", "key": "k", "to": "props.k"},
            {"action": "upsert", "key": "event.type", "value_column": "event_type"},
            {"action": "upsert", "key": "bucket", "value_column": "_bucket"},
            {"action": "delete_matching", "key": "bucket", "value": "0"},
            {"action": "insert", "key": "source", "value": "events"},
        ],
    )

    def add_bucket(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        b = (uid % 10).astype("U")  # no pc.modulo in this pyarrow
        return t.append_column("_bucket", pa.array(b.astype(object)))

    def run(t: pa.Table) -> pa.Table:
        out = stage(add_bucket(t))
        return map_explode(out, "attrs", ["event_id"])

    return read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "user_id", "props"],
    ).map_batches(run, batch_format="pyarrow")


def q_ottl_map_where(sf_dir: str):
    """OTTL condition against MAP subscripts (``attrs['key']``): filter
    on values living inside the open-ended map, not flat columns."""
    from opentelemetry_collector_ray.stages.maps import (
        MapAttributesStage,
    )
    from opentelemetry_collector_ray.stages.ottl import ConditionFilter

    stage = MapAttributesStage(
        column="attrs",
        from_json="props",
        actions=[
            {"action": "upsert", "key": "event.type", "value_column": "event_type"},
        ],
    )
    cond = ConditionFilter("attrs['event.type'] == 'error' and attrs['k'] != '0'")

    def run(t: pa.Table) -> pa.Table:
        return cond(stage(t)).select(["event_id", "user_id"])

    return read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "user_id", "props"],
    ).map_batches(run, batch_format="pyarrow")


def q_ottl_transform(sf_dir: str):
    """OTTL STATEMENT execution (transformprocessor parity,
    docs/processing.md:100-148): ``set(...) where ...`` /
    ``replace_pattern`` / converter calls parsed once per actor and
    applied as Arrow kernels per batch."""
    from opentelemetry_collector_ray.stages.ottl_statements import (
        TransformStage,
    )

    stage = TransformStage(
        [
            "set(flag, 'slow') where latency_ms > 50",
            "set(flag, 'fast') where latency_ms <= 50",
            "replace_pattern(msg, '[0-9]+', '#')",
            "set(service_upper, Uppercase(service))",
        ]
    )

    def run(t: pa.Table) -> pa.Table:
        return stage(t).select(
            ["conv_id", "turn_idx", "flag", "msg", "service_upper"]
        )

    return _enriched(sf_dir).map_batches(run, batch_format="pyarrow")


def q_ottl_map_transform(sf_dir: str):
    """OTTL statements over a MAP column (the pcommon.Map mutation
    surface driven from statement strings): subscript set with where,
    rename_key, truncate_all — exploded to entry rows for the SQL
    mirror."""
    from opentelemetry_collector_ray.stages.maps import (
        map_explode,
        map_from_columns,
    )
    from opentelemetry_collector_ray.stages.ottl_statements import (
        TransformStage,
    )

    stage = TransformStage(
        [
            "set(attrs['svc'], service) where level == 'ERROR'",
            "rename_key(attrs, 'level', 'lvl')",
            "truncate_all(attrs, 4)",
        ]
    )

    def run(t: pa.Table) -> pa.Table:
        t = t.append_column("attrs", map_from_columns(t, ["level", "tool"]))
        return map_explode(stage(t), "attrs", ["conv_id", "turn_idx"])

    return _enriched(sf_dir).map_batches(run, batch_format="pyarrow")


QUERIES: dict[str, Callable[[str], Any]] = {
    "ottl_transform": q_ottl_transform,
    "ottl_map_transform": q_ottl_map_transform,
    "embedding_near_dup": q_embedding_near_dup,
    "embedding_near_dup_lsh": q_embedding_near_dup_lsh,
    "push_ingest": q_push_ingest,
    "otlp_json_flatten": q_otlp_json_flatten,
    "otlp_pb_roundtrip": q_otlp_pb_roundtrip,
    "otlp_traces_flatten": q_otlp_traces_flatten,
    "otlp_traces_pb_roundtrip": q_otlp_traces_pb_roundtrip,
    "otlp_metrics_flatten": q_otlp_metrics_flatten,
    "otlp_metrics_pb_roundtrip": q_otlp_metrics_pb_roundtrip,
    "otlp_metrics_histogram": q_otlp_metrics_histogram,
    "otlp_metrics_exphist": q_otlp_metrics_exphist,
    "otlp_metrics_summary": q_otlp_metrics_summary,
    "otlp_ingest_pipeline": q_otlp_ingest_pipeline,
    "chat_jsonl_roundtrip": q_chat_jsonl_roundtrip,
    "telemetry_export": q_telemetry_export,
    "telemetry_prom": q_telemetry_prom,
    "media_decode_real": q_media_decode_real,
    "media_decode_jpeg": q_media_decode_jpeg,
    "boilerplate_lines": q_boilerplate_lines,
    "dsir_weights": q_dsir_weights,
    "dsir_exact": q_dsir_exact,
    "lm_hits_exact": q_lm_hits_exact,
    "attributes_map": q_attributes_map,
    "ottl_map_where": q_ottl_map_where,
    "sliding_window": q_sliding_window,
    "topk_per_group": q_topk_per_group,
    "quantiles": q_quantiles,
    "ntile": q_ntile,
    "join_native": q_join_native,
    "hll_distinct": q_hll_distinct,
    "countmin_counts": q_countmin_counts,
    "tdigest_quantiles": q_tdigest_quantiles,
    "tdigest_exact_small": q_tdigest_exact_small,
    "grouped_tdigest_exact_small": q_grouped_tdigest_exact_small,
    "heavy_hitters": q_heavy_hitters,
    "heavy_hitters_exact": q_heavy_hitters_exact,
    "bloom_dedup": q_bloom_dedup,
    "hll_registers_exact": q_hll_registers_exact,
    "countmin_exact": q_countmin_exact,
    "bloom_exact": q_bloom_exact,
    "kmv_exact_small": q_kmv_exact_small,
    "spans": q_spans,
    "span_stats": q_span_stats,
    "span_details": q_span_details,
    "trace_groups": q_trace_groups,
    "trace_assemble": q_trace_assemble,
    "trace_assemble_flat": q_trace_assemble_flat,
    "latency_histogram": q_latency_histogram,
    "histogram_exemplars": q_histogram_exemplars,
    "exp_histogram": q_exp_histogram,
    "summary_metrics": q_summary_metrics,
    "rollup": q_rollup,
    "interval_downsample": q_interval_downsample,
    "sft_pairs": q_sft_pairs,
    "semi_join": q_semi_join,
    "anti_join": q_anti_join,
    "set_intersect": q_set_intersect,
    "set_except": q_set_except,
    "pivot_counts": q_pivot_counts,
    "unpivot_counts": q_unpivot_counts,
    "rolling_sum": q_rolling_sum,
    "lag_lead": q_lag_lead,
    "normalize": q_normalize,
    "cube": q_cube,
    "variance": q_variance,
    "rank_stats": q_rank_stats,
    "corr": q_corr,
    "zscore_outliers": q_zscore_outliers,
    "attributes_convert": q_attributes_convert,
    "json_parse": q_json_parse,
    "funnel": q_funnel,
    "retention": q_retention,
    "tfidf": q_tfidf,
    "stratified_take": q_stratified_take,
    "join_bloom": q_join_bloom,
    "gap_fill": q_gap_fill,
    "zorder": q_zorder,
    "cooccurrence": q_cooccurrence,
    "grouped_tdigest": q_grouped_tdigest,
    "budget_select": q_budget_select,
    "embedding_pca": q_embedding_pca,
    "kmeans": q_kmeans,
    "linear_probe": q_linear_probe,
    "counter_resets": q_counter_resets,
    "severity_numbers": q_severity_numbers,
    "alerts": q_alerts,
    "sentences": q_sentences,
    "line_dedup": q_line_dedup,
    "union_evolved": q_union_evolved,
    "cardinality_limit": q_cardinality_limit,
    "late_events": q_late_events,
    "time_weighted_avg": q_time_weighted_avg,
    "trending_terms": q_trending_terms,
    "join_salted": q_join_salted,
    "histogram_quantile": q_histogram_quantile,
    "profile": q_profile,
    "hopping_counts": q_hopping_counts,
    "active_sessions": q_active_sessions,
    "corpus_overlap": q_corpus_overlap,
    "pareto": q_pareto,
    "gini": q_gini,
    "merge_counts": q_merge_counts,
    "ottl_filter": q_ottl_filter,
    "dialogue_render": q_dialogue_render,
    "rate_limit": q_rate_limit,
    "gauge_last": q_gauge_last,
    "tail_sample": q_tail_sample,
    "tail_sample_policies": q_tail_sample_policies,
    "vocab_topk": q_vocab_topk,
    "redact": q_redact,
    "curate": q_curate,
    "curate_full": q_curate_full,
    "count_connector": q_count_connector,
    "checkpoint_ledger": q_checkpoint_ledger,
    "ipc_roundtrip": q_ipc_roundtrip,
    "cumulative_delta": q_cumulative_delta,
    "delta_cumulative": q_delta_cumulative,
    "regroup_attrs": q_regroup_attrs,
    "log_dedup": q_log_dedup,
    "mix_sample": q_mix_sample,
    "doc_freq": q_doc_freq,
    "bpe_tokens": q_bpe_tokens,
    "contamination": q_contamination,
    "processor_counters": q_processor_counters,
    "spanmetrics": q_spanmetrics,
    "service_graph": q_service_graph,
    "delta_rate": q_delta_rate,
    "metrics_generation": q_metrics_generation,
    "metrics_transform": q_metrics_transform,
    "lm_score": q_lm_score,
    "perplexity_buckets": q_perplexity_buckets,
    "temperature_mix": q_temperature_mix,
    "head_sample": q_head_sample,
    "chunks": q_chunks,
    "dup_spans": q_dup_spans,
    "pack_sequences": q_pack_sequences,
    "bpe_train": q_bpe_train,
    "bpe_apply": q_bpe_apply,
    "pack_sequences_exact": q_pack_sequences_exact,
    "attributes_where": q_attributes_where,
    "repetition": q_repetition,
    "salted_counts": q_salted_counts,
    "asof_join": q_asof_join,
    "range_join": q_range_join,
    "distinct_users": q_distinct_users,
    "obs_counters": q_obs_counters,
    "json_roundtrip": q_json_roundtrip,
    "csv_roundtrip": q_csv_roundtrip,
    "join_broadcast": q_join_broadcast,
    "join_bucketed": q_join_bucketed,
    "union_sources": q_union_sources,
    "sorted_head": q_sorted_head,
    "q1_lineitem": q_q1_lineitem,
    "transcripts": q_transcripts,
    "parse": q_parse,
    "enrich": q_enrich,
    "route_rows": q_route_rows,
    "sink_counts": q_sink_counts,
    "errors_sink": q_errors_sink,
    "filter_severity": q_filter_severity,
    "route_latency_agg": q_route_latency_agg,
    "attributes_transform": q_attributes_transform,
    "batch_rebatch": q_batch_rebatch,
    "dedup_exact": q_dedup_exact,
    "token_stats": q_token_stats,
    "quality": q_quality,
    "jaccard_pairs": q_jaccard_pairs,
    "sessionize": q_sessionize,
    "tumbling_hourly": q_tumbling_hourly,
    "top_users": q_top_users,
    "ann_topk": q_ann_topk,
    "minhash_pairs": q_minhash_pairs,
    "simhash": q_simhash,
    "simhash_exact": q_simhash_exact,
    "minhash_exact": q_minhash_exact,
    "lsh_buckets_exact": q_lsh_buckets_exact,
    "langid": q_langid,
    "near_dup_keep_exact": q_near_dup_keep_exact,
    "langid_pred": q_langid_pred,
    "fingerprint": q_fingerprint,
    "fingerprint_exact": q_fingerprint_exact,
    "lsh_topk": q_lsh_topk,
    "ivf_topk": q_ivf_topk,
    "semdedup": q_semdedup,
    "media_decode": q_media_decode,
    "media_frames": q_media_frames,
    "media_ann": q_media_ann,
    "dedup_clusters": q_dedup_clusters,
    "dedup_clusters_exact": q_dedup_clusters_exact,
    "near_dup_keep": q_near_dup_keep,
    "corpus_stats": q_corpus_stats,
    "text_codec": q_text_codec,
    "distinct_values": q_distinct_values,
    "config_pipeline": q_config_pipeline,
}


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001 (driver smoke check)."""
    from opentelemetry_collector_ray.pipelines.logs import (
        build_transcript_pipeline,
    )
    from opentelemetry_collector_ray.sources.transcripts import (
        transcripts_from_events,
    )

    ds = transcripts_from_events("/root/testdata/sf0.001")
    return build_transcript_pipeline(ds)


def queries() -> dict[str, Callable[[str], Any]]:
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from opentelemetry_collector_ray import oracle as o

    def _dsir_sql(buckets: int) -> str:
        # DSIR under a full oracle: Horner token hash % buckets,
        # integer bucket-count-difference scoring. diff joins on
        # raw-corpus buckets only — every scored token is, by
        # construction, in the raw model.
        return (
            "WITH tok AS (SELECT doc_id, lang, "
            "unnest(list_filter(string_split_regex(text, '\\s+'), "
            "x -> x <> '')) AS w FROM documents WHERE text IS NOT NULL), "
            "h AS (SELECT doc_id, lang, (list_reduce("
            "list_transform(range(1, length(w) + 1), "
            "i -> cast(unicode(substr(w, cast(i AS int), 1)) AS bigint)), "
            f"(a, b) -> (a * 257 + b) % 2147483647)) % {buckets} "
            "AS bucket FROM tok), "
            "ct AS (SELECT bucket, count(*) AS c FROM h WHERE lang = 'en' "
            "GROUP BY 1), "
            "cr AS (SELECT bucket, count(*) AS c FROM h GROUP BY 1), "
            "diff AS (SELECT cr.bucket, COALESCE(ct.c, 0) - cr.c AS d "
            "FROM cr LEFT JOIN ct ON ct.bucket = cr.bucket), "
            "sc AS (SELECT h.doc_id, sum(diff.d) AS w, count(*) AS n "
            "FROM h JOIN diff ON diff.bucket = h.bucket GROUP BY 1) "
            "SELECT d.doc_id, CAST(COALESCE(sc.w, 0) AS BIGINT) "
            "AS dsir_weight_int, "
            "CAST(COALESCE(sc.n, 0) AS BIGINT) AS n_tokens "
            "FROM documents d LEFT JOIN sc ON sc.doc_id = d.doc_id"
        )

    out = {
        "transcripts": o.TRANSCRIPTS_CTE + "SELECT * FROM transcripts",
        "parse": o.PARSED_CTE + "SELECT * FROM parsed2",
        "enrich": o.ENRICHED_CTE + "SELECT * FROM enriched",
        "route_rows": o.ROUTED_CTE
        + "SELECT conv_id, turn_idx, sink FROM routed",
        "sink_counts": o.ROUTED_CTE
        + "SELECT sink, count(*) AS n FROM routed GROUP BY sink",
        "errors_sink": o.ROUTED_CTE
        + "SELECT conv_id, turn_idx, text FROM routed WHERE sink = 'errors'",
        "filter_severity": o.PARSED_CTE
        + (
            "SELECT conv_id, turn_idx, level, latency_ms FROM parsed2 "
            "WHERE coalesce(level, '') IN ('WARN', 'ERROR')"
        ),
        "route_latency_agg": o.ENRICHED_CTE
        + (
            "SELECT route, count(*) AS n, "
            "cast(sum(latency_ms) AS bigint) AS sum_latency "
            "FROM enriched GROUP BY route"
        ),
        "attributes_transform": (
            "SELECT event_id, "
            "regexp_replace(event_type, 'click', 'tap', 'g') AS event_type, "
            "value AS amount, 'prod' AS env, "
            "nullif(regexp_extract(props, '\"k\": (\\d+)', 1), '') AS k_val, "
            "md5(cast(user_id AS varchar)) AS user_id FROM events"
        ),
        "batch_rebatch": "SELECT event_id, event_type FROM events",
        "dedup_exact": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents "
            "QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1"
        ),
        "token_stats": (
            "SELECT doc_id, "
            "cast(len(regexp_extract_all(text, '\\S+')) AS bigint) AS n_tokens, "
            "cast(length(regexp_replace(text, '\\s', '', 'g')) AS double) / "
            "cast(greatest(len(regexp_extract_all(text, '\\S+')), 1) AS double)"
            " AS avg_word_len FROM documents"
        ),
        "quality": (
            "WITH f AS (SELECT doc_id, "
            "cast(len(regexp_extract_all(text, "
            "'\\b(?:the|a|of|to|and|in|is|it)\\b')) AS bigint) AS stopword_count, "
            "cast(len(regexp_extract_all(text, '\\S+')) AS bigint) AS n_tokens "
            "FROM documents) "
            "SELECT doc_id, stopword_count, "
            "cast(stopword_count AS double) / "
            "cast(greatest(n_tokens, 1) AS double) AS stopword_ratio, "
            "cast(n_tokens >= 20 AS bigint) + cast(stopword_count > 0 AS bigint)"
            " AS quality_score FROM f"
        ),
        "jaccard_pairs": (
            "WITH d AS (SELECT doc_id, lang, "
            "list_distinct(regexp_split_to_array(text, '\\s+')) AS words "
            "FROM documents) "
            "SELECT a.doc_id AS doc_a, b.doc_id AS doc_b "
            "FROM d a JOIN d b ON a.lang = b.lang AND a.doc_id < b.doc_id "
            "WHERE cast(len(list_intersect(a.words, b.words)) AS double) / "
            "cast(len(list_distinct(list_concat(a.words, b.words))) AS double)"
            " >= 0.5"
        ),
        # components over the exact pair set: recursive transitive
        # closure, label = min reachable doc_id (isolated docs are
        # their own rep)
        "dedup_clusters_exact": (
            "WITH RECURSIVE d AS (SELECT doc_id, lang, "
            "list_distinct(regexp_split_to_array(text, '\\s+')) AS words "
            "FROM documents WHERE doc_id % 10 = 0), "
            "pairs AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b "
            "FROM d a JOIN d b ON a.lang = b.lang AND a.doc_id < b.doc_id "
            "WHERE cast(len(list_intersect(a.words, b.words)) AS double) / "
            "cast(len(list_distinct(list_concat(a.words, b.words))) AS "
            "double) >= 0.5), "
            "edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs "
            "UNION SELECT doc_b, doc_a FROM pairs), "
            "reach(a, b) AS (SELECT a, b FROM edges "
            "UNION SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a) "
            "SELECT n.doc_id, cast(coalesce(least(min(r.b), n.doc_id), "
            "n.doc_id) AS bigint) AS cluster_rep "
            "FROM (SELECT doc_id FROM documents WHERE doc_id % 10 = 0) n "
            "LEFT JOIN reach r ON r.a = n.doc_id "
            "GROUP BY n.doc_id"
        ),
        # keep-one = labels where doc_id == component min (same CTE)
        "near_dup_keep_exact": (
            "WITH RECURSIVE d AS (SELECT doc_id, lang, "
            "list_distinct(regexp_split_to_array(text, '\\s+')) AS words "
            "FROM documents WHERE doc_id % 10 = 0), "
            "pairs AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b "
            "FROM d a JOIN d b ON a.lang = b.lang AND a.doc_id < b.doc_id "
            "WHERE cast(len(list_intersect(a.words, b.words)) AS double) / "
            "cast(len(list_distinct(list_concat(a.words, b.words))) AS "
            "double) >= 0.5), "
            "edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs "
            "UNION SELECT doc_b, doc_a FROM pairs), "
            "reach(a, b) AS (SELECT a, b FROM edges "
            "UNION SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a), "
            "labels AS (SELECT n.doc_id, cast(coalesce(least(min(r.b), "
            "n.doc_id), n.doc_id) AS bigint) AS cluster_rep "
            "FROM (SELECT doc_id FROM documents WHERE doc_id % 10 = 0) n "
            "LEFT JOIN reach r ON r.a = n.doc_id GROUP BY n.doc_id) "
            "SELECT doc_id FROM labels WHERE doc_id = cluster_rep"
        ),
        "trace_assemble_flat": o.PARSED_CTE
        + (
            ", spans AS (SELECT conv_id AS trace_id, turn_idx, "
            "coalesce(action, 'unparsed') AS span_name FROM parsed2) "
            "SELECT trace_id, cast(count(*) AS bigint) AS n_spans, "
            "string_agg(span_name, '|' ORDER BY turn_idx) AS names "
            "FROM spans GROUP BY trace_id"
        ),
        # the complementary flat view of the same nested assembly:
        # list boundaries (root/leaf by causal order) + the span_idx
        # spine — gates element order and list extent, not just names
        "trace_assemble": o.PARSED_CTE
        + (
            ", spans AS (SELECT conv_id AS trace_id, turn_idx, "
            "coalesce(action, 'unparsed') AS span_name FROM parsed2) "
            "SELECT trace_id, cast(count(*) AS bigint) AS n_spans, "
            "arg_min(span_name, turn_idx) AS root_span, "
            "arg_max(span_name, turn_idx) AS leaf_span, "
            "string_agg(cast(turn_idx AS varchar), ',' ORDER BY turn_idx) "
            "AS idx_csv FROM spans GROUP BY trace_id"
        ),
        # the LangIdStage argmax, first-max tie rule as an ordered CASE
        # cascade over per-language stopword match counts
        "langid_pred": (
            "WITH s AS (SELECT doc_id, lang, "
            r"len(regexp_extract_all(text, '\b(the|and|of|is)\b')) AS c_en, "
            r"len(regexp_extract_all(text, '\b(el|la|de|que)\b')) AS c_es, "
            r"len(regexp_extract_all(text, '\b(der|die|und|das)\b')) AS c_de, "
            r"len(regexp_extract_all(text, '\b(le|la|et|les)\b')) AS c_fr, "
            r"len(regexp_extract_all(text, '\b(de|le|shi|bu)\b')) AS c_zh "
            "FROM documents) "
            "SELECT doc_id, lang, CASE "
            "WHEN c_en IS NULL THEN NULL "  # null text -> null prediction
            "WHEN c_en >= c_es AND c_en >= c_de AND c_en >= c_fr "
            "AND c_en >= c_zh THEN 'en' "
            "WHEN c_es >= c_de AND c_es >= c_fr AND c_es >= c_zh THEN 'es' "
            "WHEN c_de >= c_fr AND c_de >= c_zh THEN 'de' "
            "WHEN c_fr >= c_zh THEN 'fr' ELSE 'zh' END AS lang_pred "
            "FROM s"
        ),
        # singleton-centroid t-digest == np.interp over mid-weight
        # positions; mirrored in the same double-arithmetic order
        # the grouped tier: same singleton-centroid np.interp mirror,
        # PARTITION BY region
        "grouped_tdigest_exact_small": (
            "WITH s AS (SELECT n_regionkey AS g, "
            "cast(n_nationkey AS double) AS x, "
            "row_number() OVER (PARTITION BY n_regionkey "
            "ORDER BY n_nationkey) AS i, "
            "cast(count(*) OVER (PARTITION BY n_regionkey) AS double) AS n "
            "FROM nation), "
            "qs(qm) AS (VALUES (250), (500), (900)), "
            "b AS (SELECT g, n, qm, (qm / 1000.0) * n AS tgt "
            "FROM (SELECT DISTINCT g, n FROM s) CROSS JOIN qs), "
            "lo AS (SELECT b.g, b.qm, s.x AS xlo, s.i - 0.5 AS clo "
            "FROM b JOIN s ON s.g = b.g AND s.i - 0.5 <= b.tgt "
            "QUALIFY row_number() OVER (PARTITION BY b.g, b.qm "
            "ORDER BY s.i DESC) = 1), "
            "hi AS (SELECT b.g, b.qm, s.x AS xhi, s.i - 0.5 AS chi "
            "FROM b JOIN s ON s.g = b.g AND s.i - 0.5 >= b.tgt "
            "QUALIFY row_number() OVER (PARTITION BY b.g, b.qm "
            "ORDER BY s.i ASC) = 1), "
            "fx AS (SELECT g, x FROM s WHERE i = 1), "
            "lx AS (SELECT g, x FROM s WHERE i = n), "
            "est AS (SELECT b.g, b.qm, CASE "
            "WHEN b.tgt <= 0.5 THEN fx.x "
            "WHEN b.tgt >= b.n - 0.5 THEN lx.x "
            "WHEN lo.clo = hi.chi THEN lo.xlo "
            "ELSE lo.xlo + ((hi.xhi - lo.xlo) / (hi.chi - lo.clo)) "
            "* (b.tgt - lo.clo) END AS v "
            "FROM b LEFT JOIN lo ON lo.g = b.g AND lo.qm = b.qm "
            "LEFT JOIN hi ON hi.g = b.g AND hi.qm = b.qm "
            "LEFT JOIN fx ON fx.g = b.g LEFT JOIN lx ON lx.g = b.g) "
            "SELECT cast(g AS bigint) AS n_regionkey, "
            "cast(qm AS bigint) AS q, "
            "cast(floor(v * 1000) AS bigint) AS est_milli FROM est"
        ),
        # greedy packing state machine as a linear recursive CTE
        "pack_sequences_exact": (
            "WITH RECURSIVE d AS (SELECT doc_id, "
            "coalesce(len(regexp_extract_all(text, '\\S+')), 0) AS n, "
            "row_number() OVER (ORDER BY doc_id) AS i FROM documents), "
            "st(i, doc_id, n, seq, cum) AS ("
            "SELECT i, doc_id, n, 0, n FROM d WHERE i = 1 "
            "UNION ALL "
            "SELECT d.i, d.doc_id, d.n, "
            "CASE WHEN st.cum + d.n > 2048 THEN st.seq + 1 ELSE st.seq END, "
            "CASE WHEN st.cum + d.n > 2048 THEN d.n ELSE st.cum + d.n END "
            "FROM st JOIN d ON d.i = st.i + 1) "
            "SELECT cast(seq AS bigint) AS pack_id, "
            "cast(count(*) AS bigint) AS n_docs, "
            "cast(sum(n) AS bigint) AS n_tokens, "
            "string_agg(cast(doc_id AS varchar), '|' ORDER BY doc_id) "
            "AS doc_ids FROM st GROUP BY seq"
        ),
        "tdigest_exact_small": (
            "WITH s AS (SELECT cast(n_nationkey AS double) AS x, "
            "row_number() OVER (ORDER BY n_nationkey) AS i, "
            "cast(count(*) OVER () AS double) AS n FROM nation), "
            "qs(qm) AS (VALUES (250), (500), (900)), "
            "b AS (SELECT qm, (qm / 1000.0) * (SELECT max(n) FROM s) "
            "AS tgt FROM qs), "
            "lo AS (SELECT b.qm, b.tgt, s.x AS xlo, s.i - 0.5 AS clo "
            "FROM b JOIN s ON s.i - 0.5 <= b.tgt "
            "QUALIFY row_number() OVER (PARTITION BY b.qm "
            "ORDER BY s.i DESC) = 1), "
            "hi AS (SELECT b.qm, s.x AS xhi, s.i - 0.5 AS chi "
            "FROM b JOIN s ON s.i - 0.5 >= b.tgt "
            "QUALIFY row_number() OVER (PARTITION BY b.qm "
            "ORDER BY s.i ASC) = 1), "
            "est AS (SELECT b.qm, CASE "
            "WHEN b.tgt <= (SELECT min(i) - 0.5 FROM s) "
            "THEN (SELECT x FROM s WHERE i = 1) "
            "WHEN b.tgt >= (SELECT max(i) - 0.5 FROM s) "
            "THEN (SELECT x FROM s ORDER BY i DESC LIMIT 1) "
            "WHEN lo.clo = hi.chi THEN lo.xlo "
            "ELSE lo.xlo + ((hi.xhi - lo.xlo) / (hi.chi - lo.clo)) "
            "* (b.tgt - lo.clo) END AS v "
            "FROM b LEFT JOIN lo ON lo.qm = b.qm "
            "LEFT JOIN hi ON hi.qm = b.qm) "
            "SELECT qm AS q, cast(floor(v * 1000) AS bigint) AS est_milli "
            "FROM est"
        ),
        # 31-bit SimHash mirrored end-to-end: tokenize, Horner token
        # hash, per-bit occurrence-majority (ties set), bit packing
        "simhash_exact": (
            "WITH tok AS (SELECT doc_id, unnest(list_filter("
            "regexp_split_to_array(text, '[ \t\n\r]+'), "
            "t -> length(t) > 0)) AS t FROM documents "
            "WHERE text IS NOT NULL), "
            "th AS (SELECT doc_id, list_reduce(list_transform("
            "range(1, length(t) + 1), "
            "i -> CAST(unicode(substr(t, CAST(i AS int), 1)) AS BIGINT)), "
            "(a, b) -> (a * 257 + b) % 2147483647) AS h FROM tok), "
            "bits AS (SELECT doc_id, j, "
            "sum((h >> CAST(j AS INT)) & 1) AS ones, count(*) AS n "
            "FROM th CROSS JOIN range(0, 31) r(j) GROUP BY 1, 2), "
            "sig AS (SELECT doc_id, sum(CASE WHEN 2 * ones >= n "
            "THEN CAST(1 AS BIGINT) << CAST(j AS INT) ELSE 0 END) AS s "
            "FROM bits GROUP BY doc_id) "
            "SELECT d.doc_id, CAST(COALESCE(sig.s, 0) AS BIGINT) AS simhash "
            "FROM documents d LEFT JOIN sig ON sig.doc_id = d.doc_id"
        ),
        # MinHash poly tier: trigram shingles = Horner over word
        # Horner hashes; 8 affine permutations, min per (doc, perm)
        "minhash_exact": (
            "WITH tok AS (SELECT doc_id, list_filter("
            "regexp_split_to_array(text, '[ \\t\\n\\r]+'), "
            "t -> length(t) > 0) AS ts FROM documents WHERE text IS NOT NULL), "
            "th AS (SELECT doc_id, list_transform(ts, t -> list_reduce(list_transform(range(1, length(t) + 1), "
            "i -> CAST(unicode(substr(t, CAST(i AS int), 1)) AS BIGINT)), "
            "(a, b) -> (a * 257 + b) % 2147483647)) AS hs FROM tok WHERE len(ts) >= 3), "
            "sh AS (SELECT doc_id, unnest(list_transform(range(1, len(hs) - 1), "
            "i -> (((hs[CAST(i AS int)] * 1000003 + hs[CAST(i + 1 AS int)]) % 2147483647) * 1000003 "
            "+ hs[CAST(i + 2 AS int)]) % 2147483647)) AS s FROM th), "
            "perms(d, a, b) AS (VALUES (0, 1000003, 12345), (1, 999983, 54321), (2, 1000033, 98765), (3, 1000037, 13579), (4, 1000039, 24680), (5, 1000081, 86420), (6, 1000099, 11111), (7, 1000117, 77777)) "
            "SELECT doc_id, CAST(d AS BIGINT) AS perm, "
            "CAST(min((a * s + b) % 2147483647) AS BIGINT) AS minhash "
            "FROM sh CROSS JOIN perms GROUP BY 1, 2"
        ),
        # banding over the same signatures: r=2 bands, bucket key =
        # (mh_even*B + mh_odd) mod p, COUNTS only (never pairs)
        "lsh_buckets_exact": (
            "WITH tok AS (SELECT doc_id, list_filter("
            "regexp_split_to_array(text, '[ \\t\\n\\r]+'), "
            "t -> length(t) > 0) AS ts FROM documents WHERE text IS NOT NULL), "
            "th AS (SELECT doc_id, list_transform(ts, t -> list_reduce(list_transform(range(1, length(t) + 1), "
            "i -> CAST(unicode(substr(t, CAST(i AS int), 1)) AS BIGINT)), "
            "(a, b) -> (a * 257 + b) % 2147483647)) AS hs FROM tok WHERE len(ts) >= 3), "
            "sh AS (SELECT doc_id, unnest(list_transform(range(1, len(hs) - 1), "
            "i -> (((hs[CAST(i AS int)] * 1000003 + hs[CAST(i + 1 AS int)]) % 2147483647) * 1000003 "
            "+ hs[CAST(i + 2 AS int)]) % 2147483647)) AS s FROM th), "
            "perms(d, a, b) AS (VALUES (0, 1000003, 12345), (1, 999983, 54321), (2, 1000033, 98765), (3, 1000037, 13579), (4, 1000039, 24680), (5, 1000081, 86420), (6, 1000099, 11111), (7, 1000117, 77777)), "
            "mh AS (SELECT doc_id, d, min((a * s + b) % 2147483647) AS minhash "
            "FROM sh CROSS JOIN perms GROUP BY 1, 2), "
            "sig AS (SELECT doc_id, b, "
            "(max(CASE WHEN d = 2 * b THEN minhash END) * 1000003 "
            "+ max(CASE WHEN d = 2 * b + 1 THEN minhash END)) % 2147483647 "
            "AS bucket FROM mh CROSS JOIN range(0, 4) r(b) GROUP BY 1, 2) "
            "SELECT CAST(b AS BIGINT) AS band, CAST(bucket AS BIGINT) AS bucket, "
            "CAST(count(*) AS BIGINT) AS n_docs FROM sig GROUP BY 1, 2 "
            "HAVING count(*) >= 2"
        ),
        # Horner form of the polynomial rolling hash; unicode(substr)
        # == byte on the ASCII corpus
        "fingerprint_exact": (
            "SELECT doc_id, CASE WHEN text IS NULL OR length(text) = 0 "
            "THEN 0 ELSE list_reduce("
            "list_transform(range(1, length(text) + 1), "
            "i -> cast(unicode(substr(text, cast(i AS int), 1)) AS bigint)), "
            "(a, b) -> (a * 257 + b) % 2147483647) END AS fingerprint "
            "FROM documents"
        ),
        # DSIR shape under a full oracle (see _dsir_sql): the
        # collision-dense 64-bucket gate and the production-width
        # 2^14-bucket tier (the driver-visible dsir_weights entry)
        "dsir_exact": _dsir_sql(64),
        "dsir_weights": _dsir_sql(1 << 14),
        # Unigram-LM machinery under a full oracle: top-256 vocab by
        # (count desc, token asc), integer hit-count scoring, OOV -> 0.
        "lm_hits_exact": (
            "WITH tok AS (SELECT doc_id, "
            "unnest(list_filter(string_split_regex(text, '\\s+'), "
            "x -> x <> '')) AS w FROM documents WHERE text IS NOT NULL), "
            "vocab AS (SELECT w, count(*) AS n FROM tok GROUP BY 1 "
            "ORDER BY n DESC, w ASC LIMIT 256), "
            "sc AS (SELECT t.doc_id, "
            "sum(COALESCE(v.n, 0)) AS hits, "
            "sum(CASE WHEN v.w IS NULL THEN 1 ELSE 0 END) AS oov "
            "FROM tok t LEFT JOIN vocab v ON v.w = t.w GROUP BY 1) "
            "SELECT d.doc_id, CAST(COALESCE(sc.hits, 0) AS BIGINT) AS lm_hits, "
            "CAST(COALESCE(sc.oov, 0) AS BIGINT) AS n_oov "
            "FROM documents d LEFT JOIN sc ON sc.doc_id = d.doc_id"
        ),
        # Misra-Gries exact-when-k>=cardinality: plain counts, no error
        # Affine-hash sketch tier: h_d(x) = ((a_d*(x%p)+b_d)%p)%m with
        # p = 2^31-1 — constants mirrored from sketch._AFFINE_PARAMS;
        # the oracle reproduces the APPROXIMATE answer exactly
        # (collisions, over-counts, false positives included).
        "hll_registers_exact": (
            "WITH h AS (SELECT ((1000003 * ((1103515245 * "
            "(user_id % 2147483647) + 12345) % 2147483647) + 12345) "
            "% 2147483647) AS hv FROM events "
            "WHERE user_id IS NOT NULL AND user_id >= 0), "
            "rr AS (SELECT hv % 64 AS register, "
            "CASE WHEN (hv >> 6) = 0 THEN 26 "
            "ELSE bit_count(((hv >> 6) & -(hv >> 6)) - 1) + 1 END AS rho "
            "FROM h), "
            "regs AS (SELECT register, max(rho) AS rho FROM rr GROUP BY 1) "
            "SELECT CAST(r.range AS BIGINT) AS register, "
            "CAST(COALESCE(regs.rho, 0) AS BIGINT) AS rho "
            "FROM range(0, 64) r LEFT JOIN regs ON regs.register = r.range"
        ),
        "countmin_exact": (
            "WITH params(d, a, b) AS (VALUES (0, 1000003, 12345), "
            "(1, 999983, 54321), (2, 1000033, 98765)), "
            "counts AS (SELECT user_id AS k, count(*) AS c FROM events "
            "WHERE user_id IS NOT NULL AND user_id >= 0 GROUP BY 1), "
            "buckets AS (SELECT d, "
            "((a * ((1103515245 * (k % 2147483647) + 12345) % 2147483647) + b) % 2147483647) % 64 AS pos, "
            "sum(c) AS bc FROM counts CROSS JOIN params GROUP BY 1, 2), "
            "probes AS (SELECT CAST(range AS BIGINT) AS item FROM range(0, 200)), "
            "pb AS (SELECT item, d, "
            "((a * ((1103515245 * (item % 2147483647) + 12345) % 2147483647) + b) % 2147483647) % 64 AS pos "
            "FROM probes CROSS JOIN params) "
            "SELECT pb.item, CAST(min(COALESCE(bk.bc, 0)) AS BIGINT) AS est_count "
            "FROM pb LEFT JOIN buckets bk ON bk.d = pb.d AND bk.pos = pb.pos "
            "GROUP BY pb.item"
        ),
        "bloom_exact": (
            "WITH params(d, a, b) AS (VALUES (0, 1000003, 12345), "
            "(1, 999983, 54321), (2, 1000033, 98765)), "
            "build AS (SELECT DISTINCT user_id AS k FROM events "
            "WHERE user_id IS NOT NULL AND user_id >= 0 AND user_id % 2 = 0), "
            "bits AS (SELECT DISTINCT "
            "((a * ((1103515245 * (k % 2147483647) + 12345) % 2147483647) + b) % 2147483647) % 384 AS pos "
            "FROM build CROSS JOIN params), "  # ONE shared bit array: any hash row may set a probe's bit
            "probes AS (SELECT DISTINCT user_id AS item FROM events "
            "WHERE user_id IS NOT NULL AND user_id >= 0), "
            "pb AS (SELECT item, d, "
            "((a * ((1103515245 * (item % 2147483647) + 12345) % 2147483647) + b) % 2147483647) % 384 AS pos "
            "FROM probes CROSS JOIN params) "
            "SELECT pb.item, CAST(CASE WHEN bool_and(bits.pos IS NOT NULL) "
            "THEN 1 ELSE 0 END AS BIGINT) AS maybe_present "
            "FROM pb LEFT JOIN bits ON bits.pos = pb.pos "
            "GROUP BY pb.item"
        ),
        # Grouped HLL with the affine hash AND a mirrorable read-out:
        # the RAW estimator α·m²/Σ2^−rho in fixed-op-order doubles
        # (2^−rho terms are exact powers of two — the 16-term sum spans
        # <53 mantissa bits, so it is order-independent and exact; the
        # ln-based small-range correction stays on the siphash tier)
        "hll_distinct": (
            "WITH h AS (SELECT event_type, ((1000003 * ((1103515245 * "
            "(user_id % 2147483647) + 12345) % 2147483647) + 12345) "
            "% 2147483647) AS hv FROM events "
            "WHERE user_id IS NOT NULL AND user_id >= 0 "
            "AND event_type IS NOT NULL), "
            "rr AS (SELECT event_type, hv % 16 AS register, "
            "CASE WHEN (hv >> 4) = 0 THEN 28 "
            "ELSE bit_count(((hv >> 4) & -(hv >> 4)) - 1) + 1 END AS rho "
            "FROM h), "
            "regs AS (SELECT event_type, register, max(rho) AS rho "
            "FROM rr GROUP BY 1, 2), "
            "grid AS (SELECT g.event_type, r.range AS register "
            "FROM (SELECT DISTINCT event_type FROM h) g "
            "CROSS JOIN range(0, 16) r), "
            "fullr AS (SELECT grid.event_type, COALESCE(regs.rho, 0) AS rho "
            "FROM grid LEFT JOIN regs ON regs.event_type = grid.event_type "
            "AND regs.register = grid.register), "
            "s AS (SELECT event_type, sum(power(2.0, -rho)) AS sv "
            "FROM fullr GROUP BY 1) "
            "SELECT event_type, CAST(floor(0.673 * 16.0 * 16.0 / sv "
            "* 1000.0) AS BIGINT) AS est_milli FROM s"
        ),
        # production-width Count-Min (1024×4) with the affine family;
        # probes = the distinct key vocabulary
        "countmin_counts": (
            "WITH params(d, a, b) AS (VALUES (0, 1000003, 12345), "
            "(1, 999983, 54321), (2, 1000033, 98765), (3, 1000037, 13579)), "
            "counts AS (SELECT user_id AS k, count(*) AS c FROM events "
            "WHERE user_id IS NOT NULL AND user_id >= 0 GROUP BY 1), "
            "buckets AS (SELECT d, "
            "((a * ((1103515245 * (k % 2147483647) + 12345) % 2147483647) + b) % 2147483647) % 1024 AS pos, "
            "sum(c) AS bc FROM counts CROSS JOIN params GROUP BY 1, 2), "
            "probes AS (SELECT DISTINCT user_id AS item FROM events "
            "WHERE user_id IS NOT NULL AND user_id >= 0), "
            "pb AS (SELECT item, d, "
            "((a * ((1103515245 * (item % 2147483647) + 12345) % 2147483647) + b) % 2147483647) % 1024 AS pos "
            "FROM probes CROSS JOIN params) "
            "SELECT pb.item, CAST(min(COALESCE(bk.bc, 0)) AS BIGINT) AS est_count "
            "FROM pb LEFT JOIN buckets bk ON bk.d = pb.d AND bk.pos = pb.pos "
            "GROUP BY pb.item"
        ),
        # weighted t-digest read-out over floor-quantized buckets:
        # np.interp at cumulative mid-WEIGHT positions, mirrored in the
        # same double op order as tdigest_exact_small's unit-weight form
        "tdigest_quantiles": (
            "WITH hist AS (SELECT cast(floor(value) AS BIGINT) AS bk, "
            "count(*) AS w FROM events WHERE value IS NOT NULL "
            "GROUP BY 1), "
            "s AS (SELECT cast(bk AS double) AS x, "
            "sum(cast(w AS double)) OVER (ORDER BY bk "
            "ROWS UNBOUNDED PRECEDING) - cast(w AS double) / 2.0 AS c, "
            "sum(cast(w AS double)) OVER () AS n FROM hist), "
            "qs(qm) AS (VALUES (500), (900), (990), (999)), "
            "b AS (SELECT qm, (qm / 1000.0) * (SELECT max(n) FROM s) "
            "AS tgt FROM qs), "
            "lo AS (SELECT b.qm, b.tgt, s.x AS xlo, s.c AS clo "
            "FROM b JOIN s ON s.c <= b.tgt "
            "QUALIFY row_number() OVER (PARTITION BY b.qm "
            "ORDER BY s.c DESC) = 1), "
            "hi AS (SELECT b.qm, s.x AS xhi, s.c AS chi "
            "FROM b JOIN s ON s.c >= b.tgt "
            "QUALIFY row_number() OVER (PARTITION BY b.qm "
            "ORDER BY s.c ASC) = 1), "
            "est AS (SELECT b.qm, CASE "
            "WHEN b.tgt <= (SELECT min(c) FROM s) "
            "THEN (SELECT x FROM s ORDER BY c LIMIT 1) "
            "WHEN b.tgt >= (SELECT max(c) FROM s) "
            "THEN (SELECT x FROM s ORDER BY c DESC LIMIT 1) "
            "WHEN lo.clo = hi.chi THEN lo.xlo "
            "ELSE lo.xlo + ((hi.xhi - lo.xlo) / (hi.chi - lo.clo)) "
            "* (b.tgt - lo.clo) END AS v "
            "FROM b LEFT JOIN lo ON lo.qm = b.qm "
            "LEFT JOIN hi ON hi.qm = b.qm) "
            # COALESCE: on an all-null/empty value column the engine
            # normalizes the empty histogram to est_milli=0 (sketch.py
            # quantized_tdigest_quantiles); the interp terms here go
            # NULL instead — mirror the 0
            "SELECT CAST(qm AS BIGINT) AS q, "
            "cast(floor(COALESCE(v, 0) * 1000) AS BIGINT) AS est_milli "
            "FROM est"
        ),
        # Misra-Gries with k ≥ gate-scale cardinality: no decrement ever
        # fires, so estimates are exact counts and max_err = 0
        "heavy_hitters": (
            "SELECT cast(user_id AS varchar) AS item, "
            "cast(count(*) AS bigint) AS est_count, "
            "cast(0 AS bigint) AS max_err "
            "FROM events WHERE user_id IS NOT NULL GROUP BY user_id "
            "ORDER BY est_count DESC, item ASC LIMIT 20"
        ),
        # incremental Bloom dedup over Horner text fingerprints: the
        # oracle rebuilds the identical 2048-bit affine bit set from the
        # even half and reproduces every odd-half probe, false
        # positives included
        "bloom_dedup": (
            "WITH fp AS (SELECT doc_id, CASE WHEN text IS NULL "
            "OR length(text) = 0 THEN 0 ELSE list_reduce("
            "list_transform(range(1, length(text) + 1), "
            "i -> cast(unicode(substr(text, cast(i AS int), 1)) AS bigint)), "
            "(a, b) -> (a * 257 + b) % 2147483647) END AS f "
            "FROM documents), "
            "params(d, a, b) AS (VALUES (0, 1000003, 12345), "
            "(1, 999983, 54321), (2, 1000033, 98765)), "
            "bits AS (SELECT DISTINCT "
            "((a * ((1103515245 * (f % 2147483647) + 12345) % 2147483647) + b) % 2147483647) % 2048 AS pos "
            "FROM fp CROSS JOIN params WHERE doc_id % 2 = 0), "
            "pb AS (SELECT doc_id, d, "
            "((a * ((1103515245 * (f % 2147483647) + 12345) % 2147483647) + b) % 2147483647) % 2048 AS pos "
            "FROM fp CROSS JOIN params WHERE doc_id % 2 = 1) "
            "SELECT pb.doc_id, CAST(CASE WHEN bool_and(bits.pos IS NOT NULL) "
            "THEN 1 ELSE 0 END AS BIGINT) AS maybe_dup "
            "FROM pb LEFT JOIN bits ON bits.pos = pb.pos "
            "GROUP BY pb.doc_id"
        ),
        # KMV exact-when-small: sketches ARE the distinct sets; integer
        # milli-Jaccard on both sides (1000*|A∩B| // |A∪B|)
        "kmv_exact_small": (
            "WITH a AS (SELECT DISTINCT user_id AS k FROM events "
            "WHERE event_id % 61 = 0 AND user_id IS NOT NULL), "
            "b AS (SELECT DISTINCT user_id AS k FROM events "
            "WHERE event_id % 61 = 1 AND user_id IS NOT NULL), "
            "i AS (SELECT count(*) AS c FROM a JOIN b USING (k)), "
            "u AS (SELECT count(*) AS c FROM "
            "(SELECT k FROM a UNION SELECT k FROM b)) "
            "SELECT CAST((SELECT count(*) FROM a) AS BIGINT) AS distinct_even, "
            "CAST((SELECT count(*) FROM b) AS BIGINT) AS distinct_odd, "
            "CAST(1000 * i.c // greatest(u.c, 1) AS BIGINT) AS jaccard_milli "
            "FROM i, u"
        ),
        "heavy_hitters_exact": (
            "SELECT cast(event_type AS varchar) AS item, "
            "cast(count(*) AS bigint) AS est_count, "
            "cast(0 AS bigint) AS max_err "
            "FROM events WHERE event_type IS NOT NULL GROUP BY event_type"
        ),
        "sessionize": (
            "WITH e AS (SELECT user_id, ts, event_id, "
            "CASE WHEN lag(ts) OVER w IS NULL "
            "OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END "
            "AS new_sess FROM events "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)), "
            "s AS (SELECT *, sum(new_sess) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING) - 1 AS session_id FROM e) "
            "SELECT user_id, cast(session_id AS bigint) AS session_id, "
            "count(*) AS n_events, min(ts) AS start_ts, max(ts) AS end_ts "
            "FROM s GROUP BY user_id, session_id"
        ),
        "tumbling_hourly": (
            "SELECT event_type, date_trunc('hour', ts) AS window_start, "
            "count(*) AS n FROM events GROUP BY 1, 2"
        ),
        "top_users": (
            "SELECT user_id, count(*) AS n FROM events GROUP BY user_id "
            "ORDER BY n DESC, user_id LIMIT 10"
        ),
        "ann_topk": (
            "WITH q AS (SELECT vec_id AS query_id, embedding FROM embeddings "
            "WHERE vec_id < 5), "
            "s AS (SELECT q.query_id, v.vec_id, "
            "list_cosine_similarity(cast(q.embedding AS DOUBLE[]), "
            "cast(v.embedding AS DOUBLE[])) AS score "
            "FROM q CROSS JOIN embeddings v) "
            "SELECT query_id, cast(row_number() OVER "
            "(PARTITION BY query_id ORDER BY score DESC, vec_id) AS bigint) "
            'AS "rank", vec_id FROM s QUALIFY "rank" <= 10'
        ),
        "embedding_near_dup": (
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(cast(a.embedding AS DOUBLE[]), "
            "cast(b.embedding AS DOUBLE[])) >= 0.4"
        ),
        # the LSH tier's approximate pair set, exactly: 4 coord-diff
        # sign bits (one IEEE subtract each), candidates = signature
        # Hamming distance <= 2 (base bucket + Hamming-1 probes on both
        # sides), then the same cosine verify as the exact tier
        "embedding_near_dup_lsh": (
            "WITH s AS (SELECT vec_id, cast(embedding AS DOUBLE[]) AS v, "
            "(CASE WHEN embedding[1] - embedding[2] >= 0 THEN 1 ELSE 0 END) "
            "+ (CASE WHEN embedding[3] - embedding[4] >= 0 THEN 2 ELSE 0 END) "
            "+ (CASE WHEN embedding[5] - embedding[6] >= 0 THEN 4 ELSE 0 END) "
            "+ (CASE WHEN embedding[7] - embedding[8] >= 0 THEN 8 ELSE 0 END) "
            "AS sig FROM embeddings) "
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b "
            "FROM s a JOIN s b ON a.vec_id < b.vec_id "
            "WHERE bit_count(cast(xor(a.sig, b.sig) AS BIGINT)) <= 2 "
            "AND list_cosine_similarity(a.v, b.v) >= 0.4"
        ),
        # media decode gate: regenerate synth_image's pixels at
        # resize_nearest's sample points ((i,j) -> source (4i+2, 4j+2))
        # in pure BIGINT SQL — integer channel sums/sums-of-squares
        # must equal what the engine re-decodes from the resized PPM
        # after two real codec round-trips
        "media_decode_real": (
            "WITH px AS (SELECT e.vec_id AS media_id, "
            "((4 * j.range + 2) * 255 // 31 + e.vec_id * 37) % 256 AS r, "
            "((4 * i.range + 2) * 255 // 23 + e.vec_id * 101) % 256 AS g, "
            "(((4 * j.range + 2) + (4 * i.range + 2)) * 7 + e.vec_id) "
            "% 256 AS b "
            "FROM embeddings e CROSS JOIN range(0, 6) i "
            "CROSS JOIN range(0, 8) j) "
            "SELECT media_id, CAST(8 AS BIGINT) AS width, "
            "CAST(6 AS BIGINT) AS height, "
            "CAST(sum(r) AS BIGINT) AS sum_r, "
            "CAST(sum(r * r) AS BIGINT) AS ss_r, "
            "CAST(sum(g) AS BIGINT) AS sum_g, "
            "CAST(sum(g * g) AS BIGINT) AS ss_g, "
            "CAST(sum(b) AS BIGINT) AS sum_b, "
            "CAST(sum(b * b) AS BIGINT) AS ss_b "
            "FROM px GROUP BY media_id"
        ),
        # JPEG decode gate: decode(encode(img)) is the IDENTITY for
        # constant even-valued 8x8 blocks at quality 50 (Q[0]=16), so
        # the oracle regenerates synth_block_image's rule v =
        # ((vec_id*7 + k*13) % 128)*2 over the 48 blocks (6x8 grid)
        # directly — 64 pixels per block, gray broadcast to all three
        # channels
        "media_decode_jpeg": (
            "WITH blk AS (SELECT e.vec_id AS media_id, "
            "((e.vec_id * 7 + k.range * 13) % 128) * 2 "
            "AS v FROM embeddings e CROSS JOIN range(0, 48) k) "
            "SELECT media_id, "
            "CAST(64 * sum(v) AS BIGINT) AS sum_r, "
            "CAST(64 * sum(v * v) AS BIGINT) AS ss_r, "
            "CAST(64 * sum(v) AS BIGINT) AS sum_g, "
            "CAST(64 * sum(v * v) AS BIGINT) AS ss_g, "
            "CAST(64 * sum(v) AS BIGINT) AS sum_b, "
            "CAST(64 * sum(v * v) AS BIGINT) AS ss_b "
            "FROM blk GROUP BY media_id"
        ),
        "sliding_window": (
            "SELECT event_id, user_id, ts, "
            "cast(count(*) OVER (PARTITION BY user_id ORDER BY ts "
            "RANGE BETWEEN INTERVAL 60 MINUTE PRECEDING AND CURRENT ROW) "
            "AS bigint) AS n_window FROM events"
        ),
        "topk_per_group": (
            "SELECT event_type, event_id, value, "
            "cast(row_number() OVER (PARTITION BY event_type "
            'ORDER BY value DESC, event_id) AS bigint) AS "rank" '
            'FROM events QUALIFY "rank" <= 3'
        ),
        "quantiles": o.ENRICHED_CTE
        + (
            "SELECT route, "
            "cast(quantile_disc(latency_ms, 0.5) AS bigint) AS q50, "
            "cast(quantile_disc(latency_ms, 0.95) AS bigint) AS q95 "
            "FROM enriched GROUP BY route"
        ),
        "ntile": (
            "SELECT doc_id, n_chars, "
            "cast(ntile(10) OVER (ORDER BY n_chars, doc_id) AS bigint) "
            "AS bucket FROM documents"
        ),
        "join_native": (
            "SELECT o_orderstatus, count(*) AS n FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderstatus"
        ),
        "spans": o.PARSED_CTE
        + (
            "SELECT conv_id AS trace_id, turn_idx AS span_idx, "
            "coalesce(action, 'unparsed') AS span_name, "
            "CASE role WHEN 'user' THEN 'CLIENT' "
            "WHEN 'assistant' THEN 'SERVER' ELSE 'INTERNAL' END AS kind, "
            "latency_ms AS duration_ms FROM parsed2"
        ),
        "span_stats": o.PARSED_CTE
        + (
            "SELECT coalesce(action, 'unparsed') AS span_name, "
            "count(*) AS n, cast(sum(latency_ms) AS bigint) AS sum_ms "
            "FROM parsed2 GROUP BY 1"
        ),
        "span_details": o.PARSED_CTE
        + (
            "SELECT conv_id AS trace_id, turn_idx AS span_idx, "
            "CASE WHEN coalesce(level, '') = 'ERROR' THEN 'ERROR' "
            "ELSE 'UNSET' END AS status, "
            "CASE WHEN turn_idx > 0 THEN cast(turn_idx - 1 AS bigint) END "
            "AS linked_span_idx, "
            "coalesce(action, 'unparsed') AS event_name FROM parsed2"
        ),
        "trace_groups": o.PARSED_CTE
        + (
            "SELECT conv_id AS trace_id, count(*) AS n_spans, "
            "cast(sum(coalesce(latency_ms, 0)) AS bigint) AS sum_ms, "
            "cast(sum(CASE WHEN action IS NULL THEN 1 ELSE 0 END) "
            "AS bigint) AS n_unparsed FROM parsed2 GROUP BY conv_id"
        ),
        "latency_histogram": o.ENRICHED_CTE
        + (
            "SELECT route, CASE WHEN latency_ms <= 10 THEN '10' "
            "WHEN latency_ms <= 100 THEN '100' "
            "WHEN latency_ms <= 1000 THEN '1000' ELSE 'inf' END AS le, "
            "count(*) AS n FROM enriched "
            "WHERE latency_ms IS NOT NULL GROUP BY 1, 2"
        ),
        "histogram_exemplars": o.ENRICHED_CTE
        + (
            ", b AS (SELECT route, CASE WHEN latency_ms <= 10 THEN '10' "
            "WHEN latency_ms <= 100 THEN '100' "
            "WHEN latency_ms <= 1000 THEN '1000' ELSE 'inf' END AS le, "
            "cast(latency_ms AS bigint) AS v, conv_id FROM enriched "
            "WHERE latency_ms IS NOT NULL), "
            "m AS (SELECT route, le, cast(count(*) AS bigint) AS n, "
            "max(v) AS exemplar_value FROM b GROUP BY 1, 2) "
            "SELECT m.route AS route, m.le AS le, m.n AS n, "
            "m.exemplar_value AS exemplar_value, "
            "min(b.conv_id) AS exemplar_trace "
            "FROM m JOIN b ON b.route = m.route AND b.le = m.le "
            "AND b.v = m.exemplar_value GROUP BY 1, 2, 3, 4"
        ),
        "ipc_roundtrip": o.TRANSCRIPTS_CTE + "SELECT * FROM transcripts",
        "exp_histogram": o.ENRICHED_CTE
        + (
            "SELECT route, CASE WHEN latency_ms = 0 THEN -100 "
            "ELSE cast(ceil(log2(cast(greatest(latency_ms, 1) AS double))) "
            "AS bigint) - 1 END AS bucket_idx, count(*) AS n "
            "FROM enriched WHERE latency_ms IS NOT NULL GROUP BY 1, 2"
        ),
        "summary_metrics": (
            "WITH q AS (SELECT event_type, "
            "cast(floor(value * 1000) AS bigint) AS vm "
            "FROM events WHERE value IS NOT NULL) "
            "SELECT event_type, cast(count(*) AS bigint) AS n, "
            "cast(sum(vm) AS bigint) AS sum_milli, "
            "quantile_disc(vm, 0.5) AS q50, "
            "quantile_disc(vm, 0.9) AS q90, "
            "quantile_disc(vm, 0.99) AS q99 "
            "FROM q GROUP BY event_type"
        ),
        "semi_join": (
            "SELECT c_custkey, c_name FROM customer "
            "WHERE c_custkey IN (SELECT o_custkey FROM orders "
            "WHERE o_orderpriority = '1-URGENT')"
        ),
        "anti_join": (
            "SELECT c_custkey, c_name FROM customer "
            "WHERE c_custkey NOT IN (SELECT o_custkey FROM orders "
            "WHERE o_orderpriority = '1-URGENT')"
        ),
        "set_intersect": (
            "SELECT l_partkey, l_suppkey FROM lineitem "
            "WHERE l_returnflag = 'R' "
            "INTERSECT "
            "SELECT l_partkey, l_suppkey FROM lineitem "
            "WHERE l_returnflag = 'A'"
        ),
        "set_except": (
            "SELECT l_partkey, l_suppkey FROM lineitem "
            "WHERE l_returnflag = 'R' "
            "EXCEPT "
            "SELECT l_partkey, l_suppkey FROM lineitem "
            "WHERE l_returnflag = 'A'"
        ),
        "pivot_counts": (
            "SELECT user_id, "
            + ", ".join(
                f"cast(sum(CASE WHEN event_type = '{v}' THEN 1 ELSE 0 END) "
                f"AS bigint) AS {v}"
                for v in _EVENT_TYPES
            )
            + " FROM events GROUP BY user_id"
        ),
        "unpivot_counts": (
            "SELECT user_id, event_type, cast(count(*) AS bigint) AS n "
            "FROM events GROUP BY user_id, event_type"
        ),
        "normalize": (
            "SELECT c_custkey, "
            "trim(regexp_replace(regexp_replace(lower(c_name), "
            "'[^a-z0-9\\s]', '', 'g'), '\\s+', ' ', 'g')) AS name_norm "
            "FROM customer"
        ),
        "lag_lead": (
            "SELECT user_id, event_id, "
            "LAG(event_type) OVER w AS prev_type, "
            "LEAD(event_type) OVER w AS next_type "
            "FROM events "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
        ),
        "rolling_sum": (
            "WITH q AS (SELECT user_id, event_id, ts, "
            "cast(floor(value * 1000) AS bigint) AS vm FROM events) "
            "SELECT user_id, event_id, "
            "cast(sum(vm) OVER (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS bigint) "
            "AS roll_sum FROM q"
        ),
        "sft_pairs": o.TRANSCRIPTS_CTE
        + (
            "SELECT conv_id, cast(turn_idx AS integer) AS prompt_idx, "
            "text AS prompt, r AS response FROM ("
            "SELECT conv_id, turn_idx, role, text, "
            "lead(role) OVER w AS lr, lead(text) OVER w AS r, "
            "lead(turn_idx) OVER w AS lt FROM transcripts "
            "WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)) "
            "WHERE role = 'user' AND lr = 'assistant' "
            "AND lt = turn_idx + 1"
        ),
        "dialogue_render": o.TRANSCRIPTS_CTE
        + (
            "SELECT conv_id, cast(count(*) AS bigint) AS n_turns, "
            "string_agg(role || ': ' || text, chr(10) "
            "ORDER BY turn_idx) AS dialogue "
            "FROM transcripts GROUP BY conv_id"
        ),
        "interval_downsample": (
            "SELECT user_id, epoch_us(ts) // 900000000 AS win, "
            "value AS last_value FROM events "
            "QUALIFY row_number() OVER (PARTITION BY user_id, win "
            "ORDER BY ts DESC, event_id DESC) = 1"
        ),
        "rate_limit": (
            "SELECT event_id, user_id, ts FROM events "
            "QUALIFY row_number() OVER (PARTITION BY user_id, "
            "epoch_us(ts) // 3600000000 ORDER BY ts, event_id) <= 3"
        ),
        "rollup": (
            "WITH e AS (SELECT event_type, "
            "cast(extract(hour FROM ts) AS bigint) AS hr FROM events) "
            "SELECT coalesce(event_type, '(all)') AS event_type, "
            "cast(coalesce(hr, -1) AS bigint) AS hr, "
            "cast(count(*) AS bigint) AS n "
            "FROM e GROUP BY ROLLUP (event_type, hr)"
        ),
        "cube": (
            "WITH e AS (SELECT event_type, "
            "cast(extract(hour FROM ts) AS bigint) AS hr FROM events) "
            "SELECT coalesce(event_type, '(all)') AS event_type, "
            "cast(coalesce(hr, -1) AS bigint) AS hr, "
            "cast(count(*) AS bigint) AS n "
            "FROM e GROUP BY CUBE (event_type, hr)"
        ),
        "variance": (
            "WITH q AS (SELECT event_type, "
            "cast(floor(value * 1000) AS bigint) AS vm FROM events), "
            "a AS (SELECT event_type, cast(count(vm) AS bigint) AS n, "
            "cast(sum(vm) AS bigint) AS sum_vm, "
            "cast(sum(vm * vm) AS bigint) AS sumsq_vm "
            "FROM q GROUP BY event_type) "
            "SELECT event_type, n, sum_vm, sumsq_vm, "
            "(cast(sumsq_vm AS double) / n) - "
            "(cast(sum_vm AS double) / n) * (cast(sum_vm AS double) / n) "
            "AS var_vm FROM a"
        ),
        "rank_stats": (
            "WITH q AS (SELECT event_id, "
            "cast(floor(value * 1000) AS bigint) AS vm FROM events) "
            "SELECT event_id, vm, "
            "cast(rank() OVER w AS bigint) AS rnk, "
            "cast(dense_rank() OVER w AS bigint) AS drnk, "
            "percent_rank() OVER w AS pr, "
            "cume_dist() OVER w AS cd "
            "FROM q WINDOW w AS (ORDER BY vm)"
        ),
        "corr": (
            "WITH q AS (SELECT event_type, "
            "cast(floor(value * 1000) AS bigint) AS x, "
            "cast(length(props) AS bigint) AS y FROM events "
            "WHERE value IS NOT NULL AND props IS NOT NULL), "
            "a AS (SELECT event_type, cast(count(*) AS bigint) AS n, "
            "cast(sum(x) AS bigint) AS sum_x, "
            "cast(sum(y) AS bigint) AS sum_y, "
            "cast(sum(x * y) AS bigint) AS sum_xy, "
            "cast(sum(x * x) AS bigint) AS sum_xx, "
            "cast(sum(y * y) AS bigint) AS sum_yy "
            "FROM q GROUP BY event_type) "
            "SELECT event_type, n, sum_x, sum_y, sum_xy, sum_xx, sum_yy, "
            "(cast(n AS double) * cast(sum_xy AS double) - "
            "cast(sum_x AS double) * cast(sum_y AS double)) / "
            "sqrt((cast(n AS double) * cast(sum_xx AS double) - "
            "cast(sum_x AS double) * cast(sum_x AS double)) * "
            "(cast(n AS double) * cast(sum_yy AS double) - "
            "cast(sum_y AS double) * cast(sum_y AS double))) AS corr "
            "FROM a"
        ),
        "zscore_outliers": (
            "WITH q AS (SELECT event_type, "
            "cast(floor(value * 1000) AS bigint) AS vm FROM events), "
            "a AS (SELECT event_type, cast(count(vm) AS bigint) AS n, "
            "cast(sum(vm) AS bigint) AS s, "
            "cast(sum(vm * vm) AS bigint) AS sq "
            "FROM q GROUP BY event_type), "
            "st AS (SELECT event_type, cast(s AS double) / n AS mean, "
            "sqrt((cast(sq AS double) / n) - "
            "(cast(s AS double) / n) * (cast(s AS double) / n)) AS std "
            "FROM a) "
            "SELECT q.event_type AS event_type, "
            "cast(count(*) AS bigint) AS n_outliers "
            # null-safe equality: the engine keeps a NULL group like
            # every other grouped stat; plain JOIN USING would drop it
            "FROM q JOIN st ON q.event_type IS NOT DISTINCT FROM "
            "st.event_type "
            "WHERE abs(cast(q.vm AS double) - st.mean) > 2.0 * st.std "
            "GROUP BY q.event_type"
        ),
        "attributes_convert": (
            "SELECT event_id, cast(trunc(value) AS bigint) AS value, "
            "cast(user_id AS varchar) AS user_id, "
            "substr(props, 1, 20) AS props FROM events"
        ),
        "push_ingest": o.TRANSCRIPTS_CTE + "SELECT * FROM transcripts",
        "otlp_json_flatten": o.TRANSCRIPTS_CTE + (
            "SELECT "
            "CASE tool WHEN 'bash' THEN 'infra' WHEN 'browser' THEN 'web' "
            "WHEN 'python' THEN 'compute' WHEN 'sql' THEN 'data' "
            "ELSE 'unknown' END AS service, "
            "'otelray.' || role AS scope_name, "
            "'1.0' AS scope_version, "
            "cast(epoch_us(ts) AS bigint) * 1000 AS time_unix_nano, "
            "cast(CASE regexp_extract(text, '^\\[([A-Z]+)\\]', 1) "
            "WHEN 'DEBUG' THEN 5 WHEN 'INFO' THEN 9 WHEN 'WARN' THEN 13 "
            "WHEN 'ERROR' THEN 17 END AS bigint) AS severity_number, "
            "NULLIF(regexp_extract(text, '^\\[([A-Z]+)\\]', 1), '') "
            "AS severity_text, "
            "text AS body, "
            "md5(conv_id) AS trace_id, "
            "substr(md5(conv_id || ':' || cast(turn_idx AS varchar)), 1, 16)"
            " AS span_id, "
            "conv_id, turn_idx, tool "
            "FROM transcripts"
        ),
        "otlp_traces_flatten": o.PARSED_CTE + (
            "SELECT "
            "CASE tool WHEN 'bash' THEN 'infra' WHEN 'browser' THEN 'web' "
            "WHEN 'python' THEN 'compute' WHEN 'sql' THEN 'data' "
            "ELSE 'unknown' END AS service, "
            "'otelray.' || role AS scope_name, "
            "'1.0' AS scope_version, "
            "md5(conv_id) AS trace_id, "
            "substr(md5(conv_id || ':' || cast(turn_idx AS varchar)), 1, 16)"
            " AS span_id, "
            "CASE WHEN turn_idx > 0 THEN "
            "substr(md5(conv_id || ':' || cast(turn_idx - 1 AS varchar)), "
            "1, 16) END AS parent_span_id, "
            "coalesce(action, 'unparsed') AS name, "
            "cast(CASE role WHEN 'user' THEN 3 WHEN 'assistant' THEN 2 "
            "ELSE 1 END AS bigint) AS kind, "
            "cast(epoch_us(ts) AS bigint) * 1000 AS start_unix_nano, "
            "(cast(epoch_us(ts) AS bigint) + coalesce(latency_ms, 0) * 1000)"
            " * 1000 AS end_unix_nano, "
            "cast(CASE WHEN level = 'ERROR' THEN 2 ELSE 0 END AS bigint) "
            "AS status_code, "
            "coalesce(action, 'unparsed') AS event_name, "
            "CASE WHEN turn_idx > 0 THEN "
            "substr(md5(conv_id || ':0'), 1, 16) END AS link_span_id, "
            "conv_id, turn_idx, tool "
            "FROM parsed2"
        ),
        "ottl_transform": o.ENRICHED_CTE + (
            "SELECT conv_id, turn_idx, "
            "CASE WHEN latency_ms > 50 THEN 'slow' "
            "WHEN latency_ms <= 50 THEN 'fast' END AS flag, "
            "regexp_replace(msg, '[0-9]+', '#', 'g') AS msg, "
            "upper(service) AS service_upper "
            "FROM enriched"
        ),
        "ottl_map_transform": o.ENRICHED_CTE + (
            "SELECT conv_id, turn_idx, 'lvl' AS key, "
            "substr(level, 1, 4) AS value FROM enriched "
            "UNION ALL SELECT conv_id, turn_idx, 'tool', "
            "substr(tool, 1, 4) FROM enriched "
            "UNION ALL SELECT conv_id, turn_idx, 'svc', "
            "substr(service, 1, 4) FROM enriched WHERE level = 'ERROR'"
        ),
        "otlp_metrics_flatten": o.PARSED_CTE + (
            ", svc AS (SELECT *, "
            "CASE tool WHEN 'bash' THEN 'infra' WHEN 'browser' THEN 'web' "
            "WHEN 'python' THEN 'compute' WHEN 'sql' THEN 'data' "
            "ELSE 'unknown' END AS service, "
            "'otelray.' || role AS scope_name, '1.0' AS scope_version, "
            "cast(epoch_us(ts) AS bigint) * 1000 AS time_unix_nano "
            "FROM parsed2) "
            "SELECT service, scope_name, scope_version, "
            "'turn.latency_ms' AS metric_name, "
            "cast(0 AS bigint) AS temporality, false AS is_monotonic, "
            "time_unix_nano, latency_ms AS value, conv_id, turn_idx, tool "
            "FROM svc WHERE latency_ms IS NOT NULL "
            "UNION ALL "
            "SELECT service, scope_name, scope_version, "
            "'turn.count', cast(1 AS bigint), true, "
            "time_unix_nano, cast(1 AS bigint), conv_id, turn_idx, tool "
            "FROM svc"
        ),
        "otlp_metrics_histogram": o.PARSED_CTE + (
            ", svc AS (SELECT *, "
            "CASE tool WHEN 'bash' THEN 'infra' WHEN 'browser' THEN 'web' "
            "WHEN 'python' THEN 'compute' WHEN 'sql' THEN 'data' "
            "ELSE 'unknown' END AS service, "
            "'otelray.' || role AS scope_name "
            "FROM parsed2 WHERE latency_ms IS NOT NULL) "
            "SELECT service, scope_name, conv_id, "
            'cast(count(*) AS bigint) AS "count", '
            "cast(sum(latency_ms) AS bigint) AS sum_ms, "
            "cast(min(latency_ms) AS bigint) AS min_ms, "
            "cast(max(latency_ms) AS bigint) AS max_ms, "
            "cast(sum(CASE WHEN latency_ms <= 10 THEN 1 ELSE 0 END) "
            "AS bigint) AS b0, "
            "cast(sum(CASE WHEN latency_ms > 10 AND latency_ms <= 50 "
            "THEN 1 ELSE 0 END) AS bigint) AS b1, "
            "cast(sum(CASE WHEN latency_ms > 50 AND latency_ms <= 100 "
            "THEN 1 ELSE 0 END) AS bigint) AS b2, "
            "cast(sum(CASE WHEN latency_ms > 100 THEN 1 ELSE 0 END) "
            "AS bigint) AS b3 "
            "FROM svc GROUP BY service, scope_name, conv_id"
        ),
        "otlp_metrics_exphist": o.PARSED_CTE + (
            ", svc AS (SELECT *, "
            "CASE tool WHEN 'bash' THEN 'infra' WHEN 'browser' THEN 'web' "
            "WHEN 'python' THEN 'compute' WHEN 'sql' THEN 'data' "
            "ELSE 'unknown' END AS service, "
            "'otelray.' || role AS scope_name "
            "FROM parsed2 WHERE latency_ms IS NOT NULL) "
            "SELECT service, scope_name, conv_id, "
            "CASE WHEN latency_ms = 0 THEN -100 "
            "ELSE cast(ceil(log2(cast(greatest(latency_ms, 1) AS double)))"
            " AS bigint) - 1 END AS bucket_idx, "
            "cast(count(*) AS bigint) AS n "
            "FROM svc GROUP BY 1, 2, 3, 4"
        ),
        "otlp_ingest_pipeline": o.ROUTED_CTE
        + "SELECT sink, count(*) AS n FROM routed GROUP BY sink",
        "chat_jsonl_roundtrip": o.TRANSCRIPTS_CTE
        + "SELECT conv_id, turn_idx, role, text FROM transcripts",
        "telemetry_export": o.ROUTED_CTE
        + (
            "SELECT 'receiver/accepted_log_records' AS name, "
            "count(*) AS value FROM transcripts "
            "UNION ALL "
            "SELECT 'exporter/' || sink || '/sent_log_records' AS name, "
            "count(*) AS value FROM routed GROUP BY sink"
        ),
        "telemetry_prom": o.ROUTED_CTE
        + (
            "SELECT 'receiver/accepted_log_records' AS name, "
            "count(*) AS value FROM transcripts "
            "UNION ALL "
            "SELECT 'exporter/' || sink || '/sent_log_records' AS name, "
            "count(*) AS value FROM routed GROUP BY sink"
        ),
        "otlp_metrics_summary": o.PARSED_CTE + (
            ", svc AS (SELECT *, "
            "CASE tool WHEN 'bash' THEN 'infra' WHEN 'browser' THEN 'web' "
            "WHEN 'python' THEN 'compute' WHEN 'sql' THEN 'data' "
            "ELSE 'unknown' END AS service, "
            "'otelray.' || role AS scope_name "
            "FROM parsed2 WHERE latency_ms IS NOT NULL) "
            "SELECT service, scope_name, conv_id, "
            'cast(count(*) AS bigint) AS "count", '
            "cast(sum(latency_ms) AS bigint) AS sum_ms "
            "FROM svc GROUP BY 1, 2, 3"
        ),
        "boilerplate_lines": (
            "WITH aug AS (SELECT doc_id, CASE WHEN doc_id % 2 = 0 "
            "THEN text || chr(10) || '(c) corpus boilerplate' "
            "ELSE text END AS text FROM documents), "
            "s AS (SELECT doc_id, string_split(text, chr(10)) AS ls "
            "FROM aug), "
            "l AS (SELECT doc_id, unnest(ls) AS line, "
            "generate_subscripts(ls, 1) AS pos FROM s), "
            "d AS (SELECT line, count(DISTINCT doc_id) AS nd "
            "FROM l GROUP BY line), "
            "k AS (SELECT l.doc_id, l.line, l.pos, d.nd >= 3 AS is_bp "
            "FROM l JOIN d USING (line)) "
            "SELECT doc_id, "
            "string_agg(CASE WHEN NOT is_bp THEN line END, chr(10) "
            "ORDER BY pos) AS text_clean, "
            "cast(sum(CASE WHEN is_bp THEN 1 ELSE 0 END) AS bigint) "
            "AS n_boilerplate_lines "
            "FROM k GROUP BY doc_id"
        ),
        "attributes_map": (
            "WITH base AS (SELECT event_id, "
            "json_extract_string(props, '$.k') AS kval, event_type, "
            "cast(user_id % 10 AS varchar) AS bucket FROM events), "
            "entries AS ("
            # NULL/malformed props parse to an EMPTY map on the engine
            # side (map_from_json contract) — no props.k entry
            "SELECT event_id, 'props.k' AS key, kval AS value FROM base "
            "WHERE kval IS NOT NULL "
            "UNION ALL SELECT event_id, 'event.type', event_type FROM base "
            "UNION ALL SELECT event_id, 'bucket', bucket FROM base "
            "WHERE bucket <> '0' "
            "UNION ALL SELECT event_id, 'source', 'events' FROM base) "
            "SELECT event_id, key, value FROM entries"
        ),
        "ottl_map_where": (
            "SELECT event_id, user_id FROM events "
            "WHERE event_type = 'error' "
            "AND json_extract_string(props, '$.k') <> '0'"
        ),
        "json_parse": (
            "SELECT event_id, "
            "cast(json_extract(props, '$.k') AS bigint) AS k FROM events"
        ),
        "funnel": (
            "WITH s1 AS (SELECT user_id, min(ts) AS t1 FROM events "
            "WHERE event_type = 'view' GROUP BY user_id), "
            "s2 AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e "
            "JOIN s1 USING (user_id) WHERE e.event_type = 'click' "
            "AND e.ts > s1.t1 GROUP BY e.user_id), "
            "s3 AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e "
            "JOIN s2 USING (user_id) WHERE e.event_type = 'purchase' "
            "AND e.ts > s2.t2 GROUP BY e.user_id) "
            "SELECT cast(1 AS bigint) AS step, "
            "cast(count(*) AS bigint) AS n_users FROM s1 "
            "UNION ALL SELECT 2, count(*) FROM s2 "
            "UNION ALL SELECT 3, count(*) FROM s3"
        ),
        "budget_select": (
            "WITH q AS (SELECT doc_id, source, n_chars, "
            "(doc_id * 2654435761) % 4294967296 AS h FROM documents), "
            "w AS (SELECT doc_id, source, n_chars, h, "
            "coalesce(sum(n_chars) OVER (PARTITION BY source "
            "ORDER BY h, doc_id ROWS BETWEEN UNBOUNDED PRECEDING "
            "AND 1 PRECEDING), 0) AS run_before FROM q) "
            "SELECT doc_id, source, n_chars, cast(h AS bigint) AS h "
            "FROM w WHERE run_before < 4000"
        ),
        "cooccurrence": (
            "WITH toks AS (SELECT doc_id, "
            "unnest(regexp_extract_all(text, '\\S+')) AS token "
            "FROM documents), "
            "vc AS (SELECT token, count(*) AS n FROM toks GROUP BY token), "
            "vocab AS (SELECT token FROM vc ORDER BY n DESC, token "
            "LIMIT 50), "
            "d AS (SELECT DISTINCT doc_id, token FROM toks "
            "WHERE token IN (SELECT token FROM vocab)) "
            "SELECT a.token AS token_a, b.token AS token_b, "
            "cast(count(*) AS bigint) AS n_docs "
            "FROM d a JOIN d b ON a.doc_id = b.doc_id "
            "AND a.token < b.token GROUP BY 1, 2"
        ),
        "zorder": (
            "WITH s0 AS (SELECT event_id, user_id & 65535 AS x, "
            "cast(floor(value * 1000) AS bigint) & 65535 AS y FROM events), "
            "s1 AS (SELECT event_id, x, y, "
            "(x | (x << 8)) & 16711935 AS xs, "
            "(y | (y << 8)) & 16711935 AS ys FROM s0), "
            "s2 AS (SELECT event_id, x, y, "
            "(xs | (xs << 4)) & 252645135 AS xs, "
            "(ys | (ys << 4)) & 252645135 AS ys FROM s1), "
            "s3 AS (SELECT event_id, x, y, "
            "(xs | (xs << 2)) & 858993459 AS xs, "
            "(ys | (ys << 2)) & 858993459 AS ys FROM s2), "
            "s4 AS (SELECT event_id, x, y, "
            "(xs | (xs << 1)) & 1431655765 AS xs, "
            "(ys | (ys << 1)) & 1431655765 AS ys FROM s3) "
            "SELECT event_id, x, y, "
            "cast(xs | (ys << 1) AS bigint) AS zkey FROM s4"
        ),
        "gap_fill": (
            "WITH q AS (SELECT user_id, ts, event_id, "
            "cast(floor(value * 1000) AS bigint) AS vm, "
            "cast(floor(epoch(ts) / 86400) AS bigint) AS iv FROM events), "
            "p AS (SELECT user_id, iv, vm FROM q "
            "QUALIFY row_number() OVER (PARTITION BY user_id, iv "
            "ORDER BY ts DESC, event_id DESC) = 1), "
            "r AS (SELECT user_id, unnest(range(min(iv), max(iv) + 1)) "
            "AS iv FROM p GROUP BY user_id) "
            "SELECT r.user_id AS user_id, r.iv AS iv, p.vm AS vm "
            "FROM r ASOF JOIN p ON r.user_id = p.user_id "
            "AND r.iv >= p.iv"
        ),
        "join_bloom": (
            "WITH su AS (SELECT user_id, cast(count(*) AS bigint) AS "
            "n_signups FROM events WHERE event_type = 'signup' "
            "GROUP BY user_id), "
            "p AS (SELECT event_id, user_id FROM events "
            "WHERE event_type = 'purchase') "
            "SELECT p.event_id, p.user_id, su.n_signups "
            "FROM p JOIN su USING (user_id)"
        ),
        "stratified_take": (
            "WITH h AS (SELECT doc_id, lang, "
            "(doc_id * 2654435761) % 4294967296 AS h FROM documents) "
            "SELECT doc_id, lang, cast(h AS bigint) AS h, "
            "cast(row_number() OVER (PARTITION BY lang "
            "ORDER BY h, doc_id) AS bigint) AS rank "
            "FROM h QUALIFY rank <= 50"
        ),
        "tfidf": (
            "WITH toks AS (SELECT doc_id, "
            "unnest(regexp_extract_all(text, '\\S+')) AS token "
            "FROM documents), "
            "tf AS (SELECT doc_id, token, cast(count(*) AS bigint) AS tf "
            "FROM toks GROUP BY 1, 2), "
            "df AS (SELECT token, cast(count(DISTINCT doc_id) AS bigint) "
            "AS df FROM toks GROUP BY 1), "
            "n AS (SELECT cast(count(*) AS bigint) AS c FROM documents), "
            "s AS (SELECT tf.doc_id, tf.token, tf.tf, "
            "cast((tf.tf * 1000000 * n.c) // df.df AS bigint) AS score "
            "FROM tf JOIN df USING (token) CROSS JOIN n), "
            "r AS (SELECT doc_id, token, tf, score, "
            "cast(row_number() OVER (PARTITION BY doc_id "
            "ORDER BY score DESC, token) AS bigint) AS rank FROM s) "
            "SELECT doc_id, token, tf, score, rank FROM r WHERE rank <= 3"
        ),
        "retention": (
            "WITH d AS (SELECT DISTINCT user_id, "
            "cast(date_diff('day', DATE '1970-01-01', "
            "cast(date_trunc('day', ts) AS date)) AS bigint) AS day "
            "FROM events), "
            "c AS (SELECT user_id, min(day) AS cohort_day FROM d "
            "GROUP BY user_id) "
            "SELECT c.cohort_day AS cohort_day, "
            "d.day - c.cohort_day AS day_offset, "
            "cast(count(*) AS bigint) AS n_users "
            "FROM d JOIN c USING (user_id) GROUP BY 1, 2"
        ),
        "gauge_last": (
            "SELECT user_id, value AS last_value FROM events "
            "QUALIFY row_number() OVER (PARTITION BY user_id "
            "ORDER BY ts DESC, event_id DESC) = 1"
        ),
        "tail_sample": o.PARSED_CTE
        + (
            "SELECT trace_id, span_idx FROM ("
            "SELECT conv_id AS trace_id, turn_idx AS span_idx, "
            "5 * sum(CASE WHEN coalesce(level, '') = 'ERROR' THEN 1 ELSE 0 "
            "END) OVER (PARTITION BY conv_id) AS e5, "
            "count(*) OVER (PARTITION BY conv_id) AS tot, "
            "cast(substr(conv_id, 6) AS bigint) % 20 AS m FROM parsed2) "
            "WHERE e5 > tot OR m = 0"
        ),
        "tail_sample_policies": o.PARSED_CTE
        + (
            ", t AS (SELECT conv_id AS trace_id, "
            "cast(count(*) AS bigint) AS n_spans, "
            "sum(CASE WHEN coalesce(level, '') = 'ERROR' THEN 1 ELSE 0 "
            "END) AS errs, "
            "max(latency_ms) AS max_lat, "
            "sum(CASE WHEN coalesce(action, '') = 'purchase' THEN 1 "
            "ELSE 0 END) AS attrs, "
            "cast(substr(conv_id, 6) AS bigint) % 3 AS m "
            "FROM parsed2 GROUP BY conv_id) "
            "SELECT trace_id, n_spans, CASE "
            "WHEN 5 * errs > n_spans THEN 'status_code' "
            "WHEN max_lat >= 280 THEN 'latency' "
            "WHEN 6 * attrs > n_spans THEN 'string_attribute' "
            "WHEN m = 0 THEN 'probabilistic' END AS policy "
            "FROM t WHERE 5 * errs > n_spans OR max_lat >= 280 "
            "OR 6 * attrs > n_spans OR m = 0"
        ),
        "vocab_topk": (
            "WITH t AS (SELECT unnest(regexp_extract_all(text, '\\S+')) "
            "AS token FROM documents) "
            "SELECT token, count(*) AS n FROM t GROUP BY token "
            "ORDER BY n DESC, token LIMIT 100"
        ),
        "redact": (
            "SELECT doc_id, regexp_replace(regexp_replace(regexp_replace("
            "text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', "
            "'<EMAIL>', 'g'), '\\b\\d{3}-\\d{2}-\\d{4}\\b', '<SSN>', 'g'), "
            "'\\b\\d{13,16}\\b', '<CARD>', 'g') AS text_redacted "
            "FROM documents"
        ),
        "curate": (
            "WITH f AS (SELECT doc_id, text, lang, "
            "cast(len(regexp_extract_all(text, '\\S+')) >= 20 AS bigint) + "
            "cast(len(regexp_extract_all(text, "
            "'\\b(?:the|a|of|to|and|in|is|it)\\b')) > 0 AS bigint) AS score "
            "FROM documents) "
            "SELECT doc_id, lang FROM f WHERE score = 2 "
            "QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1"
        ),
        "corpus_stats": (
            "WITH s AS (SELECT lang, "
            "cast(len(regexp_extract_all(text, '\\S+')) AS bigint) "
            "AS n_tokens FROM documents) "
            "SELECT lang, count(*) AS n_docs, "
            "cast(sum(n_tokens) AS bigint) AS total_tokens, "
            "cast(max(n_tokens) AS bigint) AS max_tokens "
            "FROM s GROUP BY lang"
        ),
        "count_connector": o.PARSED_CTE
        + (
            "SELECT date_trunc('hour', ts) AS window_start, count(*) AS n "
            "FROM parsed2 WHERE coalesce(level, '') = 'ERROR' GROUP BY 1"
        ),
        "curate_full": (
            "WITH f AS (SELECT doc_id, text, lang, "
            "cast(len(regexp_extract_all(text, '\\S+')) >= 20 AS bigint) + "
            "cast(len(regexp_extract_all(text, "
            "'\\b(?:the|a|of|to|and|in|is|it)\\b')) > 0 AS bigint) AS score "
            "FROM documents), "
            "q AS (SELECT doc_id, text, lang FROM f WHERE score = 2), "
            "d AS (SELECT * FROM q QUALIFY row_number() OVER "
            "(PARTITION BY text ORDER BY doc_id) = 1), "
            "m AS (SELECT * FROM d WHERE (doc_id * 48271) % 100 < "
            "CASE lang WHEN 'en' THEN 60 ELSE 30 END), "
            "t AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS w "
            "FROM m WHERE len(regexp_extract_all(text, '\\S+')) > 0), "
            "s AS (SELECT doc_id, w, unnest(generate_series(1, len(w), 40)) "
            "AS st FROM t) "
            "SELECT doc_id, cast((st-1)//40 AS bigint) AS chunk_idx, "
            "array_to_string(w[st:st+49], ' ') AS chunk_text FROM s"
        ),
        "cumulative_delta": (
            "SELECT event_id, user_id, ts, value, "
            "CASE WHEN lag(value) OVER w IS NULL THEN value "
            "ELSE value - lag(value) OVER w END AS delta FROM events "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
        ),
        "ottl_filter": o.PARSED_CTE
        + (
            "SELECT conv_id, turn_idx, level, action, latency_ms "
            "FROM parsed2 WHERE (level = 'ERROR' OR latency_ms > 900) "
            "AND regexp_matches(action, '^[a-m]')"
        ),
        "merge_counts": (
            "SELECT event_type, cast(count(*) AS bigint) AS n "
            "FROM events GROUP BY event_type"
        ),
        "gini": (
            "WITH c AS (SELECT user_id, cast(count(*) AS bigint) AS n "
            "FROM events GROUP BY user_id), "
            "r AS (SELECT n, row_number() OVER (ORDER BY n, user_id) "
            "AS rn FROM c), "
            "t AS (SELECT cast(count(*) AS bigint) AS nk, "
            "cast(sum(n) AS bigint) AS tot, "
            "cast(sum(rn * n) AS bigint) AS s FROM r) "
            "SELECT nk AS n_keys, tot AS total, "
            "cast(((2 * s - (nk + 1) * tot) * 1000000) // (nk * tot) "
            "AS bigint) AS gini_ppm FROM t"
        ),
        "pareto": (
            "WITH c AS (SELECT user_id, cast(count(*) AS bigint) AS n "
            "FROM events GROUP BY user_id), "
            "t AS (SELECT cast(count(*) AS bigint) AS users, "
            "cast(sum(n) AS bigint) AS total FROM c), "
            "r AS (SELECT n, row_number() OVER (ORDER BY n DESC, "
            "user_id) AS rn FROM c), "
            "k AS (SELECT greatest(users // 100, 1) AS kk FROM t) "
            "SELECT t.users AS total_users, t.total AS total_events, "
            "k.kk AS top_users, "
            "cast(sum(CASE WHEN r.rn <= k.kk THEN r.n ELSE 0 END) "
            "AS bigint) AS top_events, "
            "cast((sum(CASE WHEN r.rn <= k.kk THEN r.n ELSE 0 END) "
            "* 1000000) // t.total AS bigint) AS share_ppm "
            "FROM r CROSS JOIN t CROSS JOIN k "
            "GROUP BY t.users, t.total, k.kk"
        ),
        "active_sessions": (
            "WITH e AS (SELECT user_id, ts, event_id, "
            "CASE WHEN lag(ts) OVER w IS NULL "
            "OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END "
            "AS new_sess FROM events "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)), "
            "s AS (SELECT user_id, sum(new_sess) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING) AS sid, ts FROM e), "
            "b AS (SELECT cast(floor(epoch(min(ts)) / 3600) AS bigint) "
            "AS h0, cast(floor(epoch(max(ts)) / 3600) AS bigint) AS h1 "
            "FROM s GROUP BY user_id, sid) "
            ", x AS (SELECT unnest(range(h0, h1 + 1)) AS hour FROM b) "
            "SELECT hour, cast(count(*) AS bigint) AS n_active "
            "FROM x GROUP BY 1"
        ),
        "hopping_counts": (
            "WITH e AS (SELECT event_type, "
            "cast(floor(epoch(ts) / 3600) AS bigint) AS h FROM events) "
            "SELECT event_type, h - off AS window_start_hour, "
            "cast(count(*) AS bigint) AS n "
            "FROM e CROSS JOIN (SELECT unnest(range(0, 3)) AS off) "
            "GROUP BY 1, 2"
        ),
        "profile": (
            " UNION ALL ".join(
                f"SELECT '{c}' AS column, cast(count(*) AS bigint) AS n, "
                f"cast(count(*) - count({c}) AS bigint) AS n_null, "
                f"cast(count(DISTINCT {c}) AS bigint) AS n_distinct, "
                f"cast(min({c}) AS varchar) AS min_s, "
                f"cast(max({c}) AS varchar) AS max_s FROM events"
                for c in ["event_id", "user_id", "event_type", "props"]
            )
        ),
        "histogram_quantile": o.ENRICHED_CTE
        + (
            ", b AS (SELECT route, CASE WHEN latency_ms <= 10 THEN '10' "
            "WHEN latency_ms <= 100 THEN '100' "
            "WHEN latency_ms <= 1000 THEN '1000' ELSE 'inf' END AS le, "
            "cast(count(*) AS bigint) AS n FROM enriched "
            "WHERE latency_ms IS NOT NULL GROUP BY 1, 2), "
            "o2 AS (SELECT route, le, n, CASE le WHEN '10' THEN 0 "
            "WHEN '100' THEN 1 WHEN '1000' THEN 2 ELSE 3 END AS ord "
            "FROM b), "
            "w AS (SELECT route, le, n, ord, "
            "coalesce(sum(n) OVER (PARTITION BY route ORDER BY ord "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) "
            "AS cum, sum(n) OVER (PARTITION BY route) AS total FROM o2), "
            "sel AS (SELECT route, le, n, ord, cum, total FROM w "
            "WHERE cast(cum + n AS double) >= "
            "0.9 * cast(total AS double) "
            "QUALIFY row_number() OVER (PARTITION BY route "
            "ORDER BY ord) = 1) "
            "SELECT route, 0.9 AS q, "
            "CASE WHEN le = 'inf' THEN 1000.0 ELSE "
            "(CASE le WHEN '10' THEN 0.0 WHEN '100' THEN 10.0 "
            "ELSE 100.0 END) + "
            "((CASE le WHEN '10' THEN 10.0 WHEN '100' THEN 100.0 "
            "ELSE 1000.0 END) - (CASE le WHEN '10' THEN 0.0 "
            "WHEN '100' THEN 10.0 ELSE 100.0 END)) * "
            "((0.9 * cast(total AS double) - cast(cum AS double)) / "
            "cast(n AS double)) END AS value_est FROM sel"
        ),
        "join_salted": (
            "SELECT o_orderstatus, count(*) AS n FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderstatus"
        ),
        "trending_terms": o.TRANSCRIPTS_CTE
        + (
            ", t AS (SELECT cast(floor(epoch(ts) / 86400) AS bigint) "
            "AS day, unnest(regexp_extract_all(text, '\\S+')) AS token "
            "FROM transcripts), "
            "c AS (SELECT day, token, cast(count(*) AS bigint) AS n "
            "FROM t GROUP BY 1, 2) "
            "SELECT day, token, n, rank FROM (SELECT day, token, n, "
            "cast(row_number() OVER (PARTITION BY day "
            "ORDER BY n DESC, token) AS bigint) AS rank FROM c) "
            "WHERE rank <= 5"
        ),
        "time_weighted_avg": (
            "WITH q AS (SELECT user_id, ts, event_id, "
            "cast(floor(value * 1000) AS bigint) AS vm FROM events), "
            "w AS (SELECT user_id, vm, "
            "cast(date_diff('second', ts, lead(ts) OVER ("
            "PARTITION BY user_id ORDER BY ts, event_id)) AS bigint) "
            "AS dt FROM q), "
            "a AS (SELECT user_id, cast(sum(vm * dt) AS bigint) AS "
            "sum_vdt, cast(sum(dt) AS bigint) AS sum_dt FROM w "
            "WHERE dt IS NOT NULL GROUP BY user_id) "
            "SELECT user_id, sum_vdt, sum_dt, "
            "cast(sum_vdt AS double) / cast(sum_dt AS double) AS twa "
            "FROM a WHERE sum_dt > 0"
        ),
        "late_events": (
            "WITH m AS (SELECT max(ts) AS mx FROM events) "
            "SELECT e.event_id, e.ts, "
            "(e.ts < m.mx - INTERVAL 24 HOURS) AS is_late "
            "FROM events e CROSS JOIN m"
        ),
        "cardinality_limit": (
            "WITH s AS (SELECT DISTINCT event_type, user_id FROM events), "
            "r AS (SELECT event_type, user_id, row_number() OVER ("
            "PARTITION BY event_type ORDER BY "
            "(user_id * 2654435761) % 4294967296, user_id) AS rn FROM s) "
            "SELECT e.event_id AS event_id, e.event_type AS event_type, "
            "CASE WHEN r.rn <= 50 THEN cast(e.user_id AS varchar) "
            "ELSE '_overflow' END AS series "
            "FROM events e JOIN r ON e.event_type = r.event_type "
            "AND e.user_id = r.user_id"
        ),
        "union_evolved": (
            "SELECT event_id, event_type FROM events "
            "UNION ALL BY NAME "
            "SELECT event_id, user_id, value FROM events"
        ),
        "sentences": (
            "SELECT doc_id, trim(s) AS sentence FROM "
            "(SELECT doc_id, unnest(string_split_regex(text, "
            "'[.!?]+\\s+')) AS s FROM documents) "
            "WHERE length(trim(s)) > 0"
        ),
        "line_dedup": (
            "WITH s AS (SELECT doc_id, string_split(text, chr(10)) AS ls "
            "FROM documents), "
            "l AS (SELECT doc_id, unnest(ls) AS line, "
            "generate_subscripts(ls, 1) AS pos FROM s), "
            "f AS (SELECT doc_id, line, pos, "
            "row_number() OVER (PARTITION BY doc_id, line ORDER BY pos) "
            "AS rn, count(*) OVER (PARTITION BY doc_id) AS total FROM l) "
            "SELECT doc_id, "
            "string_agg(line, chr(10) ORDER BY pos) AS text_dedup, "
            "cast(max(total) - count(*) AS bigint) AS n_dropped_lines "
            "FROM f WHERE rn = 1 GROUP BY doc_id"
        ),
        "alerts": (
            "SELECT date_trunc('hour', ts) AS window_start, "
            "cast(count(*) AS bigint) AS n FROM events "
            "WHERE event_type = 'error' GROUP BY 1 HAVING count(*) > 5"
        ),
        "severity_numbers": o.PARSED_CTE
        + (
            "SELECT conv_id, turn_idx, level, "
            "cast(CASE level WHEN 'TRACE' THEN 1 WHEN 'DEBUG' THEN 5 "
            "WHEN 'INFO' THEN 9 WHEN 'WARN' THEN 13 WHEN 'ERROR' THEN 17 "
            "WHEN 'FATAL' THEN 21 ELSE 0 END AS bigint) "
            "AS severity_number FROM parsed2"
        ),
        "counter_resets": (
            "SELECT event_id, user_id, ts, value, "
            "CASE WHEN lag(value) OVER w IS NULL THEN value "
            "WHEN value - lag(value) OVER w < 0 THEN value "
            "ELSE value - lag(value) OVER w END AS delta FROM events "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
        ),
        "delta_cumulative": (
            "WITH d AS (SELECT event_id, user_id, ts, "
            "cast(floor(value) AS bigint) AS delta FROM events) "
            "SELECT event_id, user_id, ts, delta, "
            "cast(sum(delta) OVER (PARTITION BY user_id ORDER BY ts, "
            "event_id ROWS UNBOUNDED PRECEDING) AS bigint) AS cumulative "
            "FROM d"
        ),
        "regroup_attrs": o.ENRICHED_CTE
        + (
            "SELECT service, count(*) AS n, "
            "cast(sum(latency_ms) AS bigint) AS sum_latency_ms "
            "FROM enriched GROUP BY service"
        ),
        "log_dedup": o.TRANSCRIPTS_CTE
        + (
            "SELECT text, date_trunc('hour', ts) AS window_start, "
            "count(*) AS n, min(conv_id) AS first_seen "
            "FROM transcripts GROUP BY 1, 2"
        ),
        "dup_spans": (
            "WITH t AS (SELECT doc_id, "
            "regexp_extract_all(text, '\\S+') AS w FROM documents "
            "WHERE text IS NOT NULL "
            "AND len(regexp_extract_all(text, '\\S+')) >= 5), "
            "s AS (SELECT doc_id, w, unnest(generate_series(1, len(w)-4)) "
            "AS st FROM t), "
            "g AS (SELECT DISTINCT doc_id, "
            "array_to_string(w[st:st+4], ' ') AS gram FROM s), "
            "gc AS (SELECT gram, count(DISTINCT doc_id) AS nd FROM g "
            "GROUP BY gram), "
            "per AS (SELECT g.doc_id, count(*) AS n_grams, "
            "sum(CASE WHEN gc.nd > 1 THEN 1 ELSE 0 END) AS n_dup "
            "FROM g JOIN gc USING (gram) GROUP BY g.doc_id) "
            "SELECT doc_id, cast(n_grams AS bigint) AS n_grams, "
            "cast(n_dup AS bigint) AS n_dup_grams, "
            "cast(n_dup AS double) / cast(n_grams AS double) AS dup_frac "
            "FROM per"
        ),
        "chunks": (
            "WITH t AS (SELECT doc_id, "
            "regexp_extract_all(text, '\\S+') AS w FROM documents "
            "WHERE text IS NOT NULL "
            "AND len(regexp_extract_all(text, '\\S+')) > 0), "
            "s AS (SELECT doc_id, w, unnest(generate_series(1, len(w), 40)) "
            "AS st FROM t) "
            "SELECT doc_id, cast((st-1)//40 AS bigint) AS chunk_idx, "
            "array_to_string(w[st:st+49], ' ') AS chunk_text, "
            "cast(len(w[st:st+49]) AS bigint) AS n_chunk_tokens FROM s"
        ),
        "head_sample": o.TRANSCRIPTS_CTE
        + (
            "SELECT * FROM transcripts "
            "WHERE cast(substr(conv_id, 6) AS bigint) % 10 = 0"
        ),
        "attributes_where": (
            "SELECT event_id, event_type, "
            "CASE WHEN value >= 100 THEN md5(cast(user_id AS varchar)) "
            "ELSE cast(user_id AS varchar) END AS user_id, "
            "CASE WHEN event_type = 'purchase' THEN 'eu' END AS env, "
            "CASE WHEN event_type = 'click' THEN NULL ELSE props END "
            "AS props FROM events"
        ),
        "spanmetrics": o.PARSED_CTE
        + (
            "SELECT coalesce(action, 'unparsed') AS span_name, "
            "count(*) AS n, "
            "cast(sum(CASE WHEN coalesce(level, '') = 'ERROR' "
            "THEN 1 ELSE 0 END) AS bigint) AS n_errors, "
            "cast(sum(coalesce(latency_ms, 0)) AS bigint) AS sum_ms "
            "FROM parsed2 GROUP BY 1"
        ),
        "service_graph": o.ENRICHED_CTE
        + (
            ", e2 AS (SELECT conv_id, service, level, latency_ms, "
            "lag(service) OVER (PARTITION BY conv_id ORDER BY turn_idx) "
            "AS client FROM enriched) "
            "SELECT client AS client_service, service AS server_service, "
            "count(*) AS n, "
            "cast(sum(CASE WHEN coalesce(level, '') = 'ERROR' "
            "THEN 1 ELSE 0 END) AS bigint) AS n_failed, "
            "cast(sum(coalesce(latency_ms, 0)) AS bigint) AS sum_ms "
            "FROM e2 WHERE client IS NOT NULL GROUP BY 1, 2"
        ),
        "delta_rate": (
            "WITH d AS (SELECT event_id, user_id, ts, value, "
            "epoch_us(ts) - lag(epoch_us(ts)) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) AS dt_us "
            "FROM events) "
            "SELECT event_id, user_id, ts, "
            "cast(floor(value * 1e9 / dt_us) AS bigint) AS rate_milli "
            "FROM d WHERE dt_us > 0"
        ),
        "metrics_generation": o.ENRICHED_CTE
        + (
            "SELECT route, count(*) AS n_requests, "
            "cast(sum(CASE WHEN coalesce(level, '') = 'ERROR' "
            "THEN 1 ELSE 0 END) AS bigint) AS n_errors, "
            "cast((sum(CASE WHEN coalesce(level, '') = 'ERROR' "
            "THEN 1 ELSE 0 END) * 1000000) // count(*) AS bigint) "
            "AS error_rate_ppm FROM enriched GROUP BY route"
        ),
        # metricstransform: rename + relabel + integer scale, then
        # aggregate onto (metric_name, service). Null action -> null
        # metric_name group kept on both sides; null latency skipped by
        # the sum, counted by the count.
        "metrics_transform": o.ENRICHED_CTE
        + (
            ", dp AS (SELECT CASE WHEN 'latency.' || action = "
            "'latency.error' THEN 'latency.fault' "
            "ELSE 'latency.' || action END AS metric_name, "
            "CASE service WHEN 'web' THEN 'frontend' ELSE service END "
            "AS service, latency_ms * 1000 AS value FROM enriched) "
            "SELECT metric_name, service, count(*) AS n_points, "
            "CAST(sum(value) AS DOUBLE) AS sum_value "
            "FROM dp GROUP BY 1, 2"
        ),
        "repetition": (
            "WITH t AS (SELECT doc_id, "
            "regexp_extract_all(text, '\\S+') AS w FROM documents "
            "WHERE text IS NOT NULL), "
            "s AS (SELECT doc_id, w, unnest(generate_series(1, "
            "greatest(len(w)-1, 0))) AS gs FROM t), "
            "g AS (SELECT doc_id, w[gs] || ' ' || w[gs+1] AS gram FROM s), "
            "c AS (SELECT doc_id, gram, count(*) AS c FROM g GROUP BY 1, 2), "
            "a AS (SELECT doc_id, max(c) AS mx, sum(c) AS tot "
            "FROM c GROUP BY 1) "
            "SELECT doc_id, cast(mx AS bigint) AS max_2gram, "
            "cast(tot AS bigint) AS n_2grams, "
            "cast(mx AS double) / cast(tot AS double) AS top_2gram_frac "
            "FROM a"
        ),
        "processor_counters": o.PARSED_CTE
        + (
            "SELECT 'processor/filter/accepted_log_records' AS name, "
            "count(*) AS value FROM parsed2 "
            "WHERE coalesce(level, '') IN ('WARN', 'ERROR') "
            "UNION ALL "
            "SELECT 'processor/filter/dropped_log_records', count(*) "
            "FROM parsed2 WHERE coalesce(level, '') NOT IN ('WARN', 'ERROR') "
            "UNION ALL "
            "SELECT 'processor/parse/accepted_log_records', count(*) "
            "FROM parsed2"
        ),
        "contamination": (
            "WITH t AS (SELECT doc_id, "
            "regexp_extract_all(text, '\\S+') AS w FROM documents), "
            "s AS (SELECT doc_id, w, unnest(generate_series(1, "
            "greatest(len(w)-4, 0))) AS gs FROM t), "
            "g AS (SELECT doc_id, array_to_string(w[gs:gs+4], ' ') "
            "AS gram FROM s), "
            "gd AS (SELECT DISTINCT doc_id, gram FROM g), "
            "test_g AS (SELECT doc_id, gram FROM gd WHERE doc_id % 10 = 0), "
            "train_g AS (SELECT DISTINCT gram FROM gd "
            "WHERE doc_id % 10 <> 0) "
            "SELECT tg.doc_id, count(*) AS n_shared FROM test_g tg "
            "JOIN train_g USING (gram) GROUP BY tg.doc_id"
        ),
        "temperature_mix": (
            "WITH c AS (SELECT lang, count(*) AS n FROM documents "
            "GROUP BY lang), "
            "m AS (SELECT min(n) AS n_min FROM c), "
            "r AS (SELECT lang, cast(floor(10000 * "
            "sqrt(cast(n_min AS double) / n)) AS bigint) AS bp "
            "FROM c, m) "
            "SELECT d.doc_id, d.lang FROM documents d "
            "JOIN r USING (lang) "
            "WHERE (d.doc_id * 48271) % 10000 < r.bp"
        ),
        "mix_sample": (
            "SELECT doc_id, lang FROM documents "
            "WHERE (doc_id * 48271) % 100 < "
            "CASE lang WHEN 'en' THEN 60 ELSE 30 END"
        ),
        "bpe_tokens": (
            "SELECT doc_id, text, "
            "cast(len(regexp_extract_all(text, "
            "' ?[A-Za-z]+| ?[0-9]+| ?[^\\sA-Za-z0-9]+')) AS bigint) "
            "AS n_bpe_tokens, "
            "cast(len(regexp_extract_all(text, '\\S+')) AS bigint) "
            "AS n_ws_tokens FROM documents"
        ),
        "doc_freq": (
            "WITH toks AS (SELECT doc_id, "
            "unnest(regexp_extract_all(text, '\\S+')) AS token "
            "FROM documents), "
            "agg AS (SELECT token, count(*) AS tf, "
            "count(DISTINCT doc_id) AS df FROM toks GROUP BY token) "
            "SELECT token, cast(tf AS bigint) AS tf, "
            "cast(df AS bigint) AS df FROM agg WHERE df >= 5"
        ),
        "salted_counts": (
            "SELECT event_type, count(*) AS n FROM events GROUP BY event_type"
        ),
        "asof_join": (
            "SELECT e.event_id, e.user_id, e.ts, s.signup_ts "
            "FROM (SELECT event_id, user_id, ts FROM events "
            "WHERE event_type = 'purchase') e "
            "ASOF JOIN (SELECT user_id, ts AS signup_ts FROM events "
            "WHERE event_type = 'signup') s "
            "ON e.user_id = s.user_id AND e.ts >= s.signup_ts"
        ),
        "range_join": (
            "SELECT e.event_id, e.user_id, e.ts, s.signup_ts "
            "FROM (SELECT event_id, user_id, ts FROM events "
            "WHERE event_type = 'purchase') e "
            "JOIN (SELECT user_id, ts AS signup_ts FROM events "
            "WHERE event_type = 'signup') s "
            "ON e.user_id = s.user_id AND e.ts >= s.signup_ts "
            "AND e.ts <= s.signup_ts + INTERVAL 72 HOUR"
        ),
        "distinct_users": (
            "SELECT event_type, cast(count(DISTINCT user_id) AS bigint) AS n "
            "FROM events GROUP BY event_type"
        ),
        "obs_counters": o.ROUTED_CTE
        + (
            "SELECT 'receiver/accepted_log_records' AS name, "
            "count(*) AS value FROM transcripts "
            "UNION ALL "
            "SELECT 'exporter/' || sink || '/sent_log_records' AS name, "
            "count(*) AS value FROM routed GROUP BY sink"
        ),
        "json_roundtrip": (
            "SELECT event_id, event_type, user_id FROM events"
        ),
        "csv_roundtrip": (
            "SELECT event_id, event_type, user_id FROM events"
        ),
        "join_broadcast": (
            "SELECT n_name, count(*) AS n FROM orders "
            "JOIN customer ON o_custkey = c_custkey "
            "JOIN nation ON c_nationkey = n_nationkey GROUP BY n_name"
        ),
        "join_bucketed": (
            "SELECT o_orderstatus, count(*) AS n FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderstatus"
        ),
        "union_sources": (
            "SELECT event_id, event_type, user_id FROM events"
        ),
        "sorted_head": (
            "SELECT event_id, ts FROM events ORDER BY ts, event_id LIMIT 100"
        ),
        "q1_lineitem": (
            "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
            "count(*) AS count_order FROM lineitem "
            "GROUP BY l_returnflag, l_linestatus"
        ),
        "distinct_values": "SELECT DISTINCT event_type FROM events",
        "config_pipeline": o.ENRICHED_CTE + "SELECT * FROM enriched",
        "text_codec": o.TRANSCRIPTS_CTE
        + (
            "SELECT conv_id, turn_idx, "
            "'LogRecord conv_id=' || conv_id || ' turn_idx=' || "
            "cast(turn_idx AS varchar) || ' role=' || role || "
            "' tool=' || tool || ' body=' || text AS rendered "
            "FROM transcripts"
        ),
        # minhash_pairs / simhash / langid / fingerprint / lsh_topk /
        # media_decode / media_frames / dedup_clusters are intentionally
        # omitted: probabilistic / model-style / synthetic-input
        # operators → rows-only gate.
    }
    # Both OTLP wires (NDJSON and binary protobuf) share one
    # nest/flatten tree, so each binary codec reuses its JSON oracle.
    out["otlp_pb_roundtrip"] = out["otlp_json_flatten"]
    out["otlp_traces_pb_roundtrip"] = out["otlp_traces_flatten"]
    out["otlp_metrics_pb_roundtrip"] = out["otlp_metrics_flatten"]
    return out
