"""Transcript sources.

``read_transcripts`` — the plain source: a pruned Parquet read of a
table already in the input-hint shape (conv_id, turn_idx, role, text,
tool, ts). This is the "receiver" of the batch engine (the OTLP
receiver's only data-plane job is to hand complete batches downstream —
receiver/otlpreceiver/internal/logs/otlp.go:28-41; here the filesystem
hands us Arrow row groups).

``transcripts_from_events`` — a deterministic, SQL-mirrorable derivation
of a transcript-shaped table from the testdata ``events`` table, used by
the driver's DuckDB correctness oracle. Every expression is chosen to be
bit-reproducible in both engines (integer arithmetic, string concat,
``floor`` on doubles).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..schema import TRANSCRIPT_SCHEMA
from .parquet import read_parquet

# event_type → (level, role, tool): the fixed classification used to
# project events into the transcript shape. Mirrored verbatim in the
# oracle SQL (``oracle.TRANSCRIPTS_SQL``).
EVENT_LEVEL = {
    "error": "ERROR",
    "signup": "WARN",
    "purchase": "INFO",
    "click": "DEBUG",
    "view": "DEBUG",
}
EVENT_ROLE = {
    "error": "tool",
    "signup": "system",
    "purchase": "assistant",
    "click": "user",
    "view": "user",
}
EVENT_TOOL = {
    "error": "bash",
    "signup": "",
    "purchase": "sql",
    "click": "",
    "view": "",
}


def read_transcripts(paths, **kwargs) -> ray.data.Dataset:
    """Read a transcript Parquet corpus (column-pruned to the model).

    The read is ``parquet.read_parquet``: planned on the driver from
    the listed shards and their footers, with no sampling task, so each
    read task carries its footer rows and ``count()`` runs no job.
    Read tasks come from ``ParquetDatasource.read_tasks`` (at least
    2 × cluster CPUs, more only when the data outgrows
    ``target_max_block_size``), not Ray's 200-block default: an
    unsplit read fuses with the stages and the sink write behind it, so
    ``run_logs_pipeline`` over two shards on one CPU runs 2 fused tasks
    and lands 10 files a pass, not 70.

    Rows per batch are the datasource's planned ``batch_size``: Ray's
    byte budget (``target_max_block_size // 10``, 12.8 MiB) ÷ on-disk
    bytes × ``ENCODING_RATIO`` per row, without Ray's 10k-row cap. A
    65k-row shard of 112-byte turns is one batch (was 7), so the stage
    chain runs once per shard. A batch holds about the budget while the
    data inflates at most ``ENCODING_RATIO``× from disk, and never more than its file."""
    cols = kwargs.pop("columns", [f.name for f in TRANSCRIPT_SCHEMA])
    return read_parquet(paths, columns=cols, **kwargs)


def _derive_shard(g: pd.DataFrame) -> pd.DataFrame:
    """Derivation for one hash shard of users — fully vectorized: one
    sort by (user_id, ts, event_id), turn numbering via a grouped
    cumcount, string assembly in bulk. No per-user Python (the
    per-group map_groups form paid one Python call per conversation —
    the dominant cost at ≥20k conversations)."""
    g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    uid = g["user_id"].to_numpy()
    et = g["event_type"]
    # unknown event types take the SAME defaults as the oracle CTE's
    # CASE ... ELSE arms ('DEBUG'/'user'/'') — without the fillna, a new
    # vocabulary value in future testdata would silently diverge the
    # twins (null text/role on the Ray side vs defaulted SQL values).
    level = et.map(EVENT_LEVEL).fillna("DEBUG").to_numpy(dtype=object)
    # SQL `||` null semantics (the oracle CTE's form): any NULL operand
    # nulls the whole text. The old astype(int64) of a NULL value
    # minted latency_ms=INT64_MIN text instead (null-parity gate).
    vals = g["value"]
    props = g["props"]
    null_text = (
        vals.isna().to_numpy() | props.isna().to_numpy() | et.isna().to_numpy()
    )
    latency = np.floor(vals.fillna(0).to_numpy()).astype(np.int64)
    turn = g.groupby("user_id", sort=False).cumcount().to_numpy().astype(np.int32)
    text = (
        "[" + pd.Series(level, index=g.index).astype(str) + "] action="
        + et.fillna("").astype(str)
        + " latency_ms=" + pd.Series(latency, index=g.index).astype(str)
        + " msg=" + props.fillna("").astype(str)
    ).where(~null_text)
    out = pd.DataFrame(
        {
            "conv_id": np.char.add(
                "conv-", np.char.zfill(uid.astype("U8"), 8)
            ),
            "turn_idx": turn,
            "role": et.map(EVENT_ROLE).fillna("user").to_numpy(dtype=object),
            "text": text,
            "tool": et.map(EVENT_TOOL).fillna("").to_numpy(dtype=object),
            "ts": g["ts"].to_numpy(),
        }
    )
    return out


def transcripts_from_events(sf_dir: str) -> ray.data.Dataset:
    """events.parquet → transcript table (conv_id, turn_idx, role, text,
    tool, ts); deterministic and order-stable at any parallelism.

    conv_id = 'conv-' || zero-padded user_id; turn_idx = rank of the
    event within its user by (ts, event_id); text is a grok-parseable
    composition ``[LEVEL] action=<event_type> latency_ms=<floor(value)>
    msg=<props>``.

    Shape: the one genuine shuffle is a SHARDED groupby on user_id
    (functions/shard.py): users hash into ``auto_shards`` shards (2 ×
    cluster CPUs, more only past 256 MB a shard), each shard's
    derivation is fully vectorized — group count tracks cluster width,
    not conversation cardinality. The read is ``parquet.read_parquet``,
    the engine's footer-planned read: it comes out in as many blocks as
    the same rule gives the read (2 × cluster CPUs for a small file),
    and the shuffle takes them as they are.
    """
    from ..functions.shard import sharded_group_map

    ds = read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value", "props"],
    )
    return sharded_group_map(ds, ["user_id"], _derive_shard)
