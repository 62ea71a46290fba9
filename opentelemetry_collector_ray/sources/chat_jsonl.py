"""Chat-messages JSONL interchange — the SFT-corpus wire format.

Training-data pipelines exchange conversations as one JSON line per
conversation with an ordered ``messages`` array
(``{"conv_id": ..., "messages": [{"role": ..., "content": ...}, ...]}``
— the OpenAI-style fine-tuning format). This module is the
nest/flatten pair between that shape and the engine's flat transcript
table, built exactly like the OTLP codecs: change-point grouping into
``ListArray`` offsets on the way out, ``list_flatten`` +
``list_parent_indices`` on the way back — no per-row Python outside
the one ``json.dumps`` per line.

Round-trip contract (the ``chat_jsonl_roundtrip`` oracle): flatten ∘
nest is the identity on (conv_id, turn_idx, role, text) with turn_idx
re-derived as the message's position — turns were written in
(conv_id, turn_idx) order, so position == turn index for the dense
0..n-1 turn numbering the transcripts derivation guarantees.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from . import wirefs
from .otlp_json import RequestFileWriter, read_otlp_json

_MESSAGE = pa.struct(
    [pa.field("role", pa.string()), pa.field("content", pa.string())]
)
_LINE = pa.schema([("conv_id", pa.string()), ("messages", pa.list_(_MESSAGE))])


def nest_chat_batch(t: pa.Table) -> pa.Table:
    """Transcript rows → one row per CONVERSATION (conv_id, messages).
    Conversations must not span batches — feed this from the sharded
    transcripts derivation (blocks hold whole conversations) or from
    any per-conv grouped stream. Rows with a NULL conv_id are DROPPED:
    a message line needs a grouping identity, and unrelated null-id
    rows would otherwise merge into one bogus conversation (review
    finding)."""
    t = t.filter(pc.is_valid(t["conv_id"]))
    order = pc.sort_indices(
        t, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    t = t.take(order)
    conv = np.asarray(
        t["conv_id"].to_numpy(zero_copy_only=False), dtype=object
    )
    n = len(t)
    if n:
        change = np.flatnonzero(
            np.concatenate(([True], conv[1:] != conv[:-1]))
        )
    else:
        change = np.empty(0, np.int64)
    offsets = np.append(change, n).astype(np.int32)
    role = t["role"]
    text = t["text"]
    if isinstance(role, pa.ChunkedArray):
        role = role.combine_chunks()
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    msgs = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()),
        pa.StructArray.from_arrays(
            [role, pc.cast(text, pa.string())], names=["role", "content"]
        ).cast(_MESSAGE),
    )
    return pa.table(
        {
            "conv_id": pa.array(conv[change], type=pa.string()),
            "messages": msgs,
        }
    )


def flatten_chat_batch(t: pa.Table) -> pa.Table:
    """(conv_id, messages) rows → flat turns; turn_idx = the message's
    position within its conversation."""
    ml = t["messages"]
    if isinstance(ml, pa.ChunkedArray):
        ml = ml.combine_chunks()
    parents = pc.list_parent_indices(ml).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(ml)
    n_conv = len(t)
    starts = np.zeros(n_conv, dtype=np.int64)
    if len(parents):
        counts = np.bincount(parents, minlength=n_conv)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    turn = (
        np.arange(len(parents)) - starts[parents]
        if len(parents)
        else np.empty(0, np.int64)
    )
    conv = t["conv_id"]
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    return pa.table(
        {
            "conv_id": conv.take(pa.array(parents, type=pa.int64())),
            "turn_idx": pa.array(turn.astype(np.int32), type=pa.int32()),
            "role": flat.field("role"),
            "text": flat.field("content"),
        }
    )


def write_chat_jsonl(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    filesystem=None,
    storage_options: dict | None = None,
    overwrite: bool = True,
) -> int:
    """Transcripts → messages-JSONL files (one conversation per line;
    ``out_dir`` may be a filesystem URI, landed atomically per
    ``wirefs``). Returns the number of conversations written.
    Conversations must be block-whole (true for the sharded
    transcripts derivation)."""
    fs, dir_path = wirefs.resolve_fs(out_dir, filesystem, storage_options)
    wirefs.prepare_dir(fs, dir_path, overwrite)
    # batch_size=None → whole-BLOCK batches: the sharded transcripts
    # derivation emits conversation-whole blocks, and a conversation
    # split across two nest batches would write two partial lines
    nested = ds.map_batches(
        nest_chat_batch, batch_format="pyarrow", batch_size=None
    )
    # the OTLP request-file writer, re-skinned: same one-json.dumps-per-
    # line sink (null message content is omitted on the wire like any
    # unset proto3 field and reads back as null)
    written = nested.map_batches(
        RequestFileWriter(dir_path, prefix="chat", suffix=".jsonl", filesystem=fs),
        batch_format="pyarrow",
    ).sum("rows")
    return int(written or 0)


def read_chat_jsonl(paths) -> ray.data.Dataset:
    """messages-JSONL files → flat transcript turns (the OTLP NDJSON
    reader with this format's line schema: typed, never inferred)."""
    return read_otlp_json(paths, schema=_LINE, flatten=flatten_chat_batch)
