"""OTLP/JSON traces interchange — ``ExportTraceServiceRequest``.

The reference's trace codec round-trips ``resourceSpans[] >
scopeSpans[] > spans[]`` (pdata/ptrace/json.go:27-49,
pdata/ptrace/pb.go:24-44) with the OTLP-JSON deviation from plain
proto3 JSON: trace/span IDs are HEX strings on the JSON wire (the Go
codec implements custom ID marshaling — pdata/pcommon/trace_id.go),
while the binary wire carries raw bytes. This module is the traces
sibling of ``otlp_json.py``: its nest builds only the spans and puts
them in the shared ``otlp_json.nest_requests`` envelope (the same
sorted frame, resource → scope grouping and trace/span ID scheme as
the logs nest), and its flatten starts from the shared
``walk_requests``, so a user can point the engine at genuine OTel
trace-export NDJSON and write it back out.

Deterministic transcript mapping (mirrored by the
``otlp_traces_flatten`` oracle — DuckDB shares ``md5``):

- trace_id   = md5(conv_id)                       (32 hex = 16 bytes)
- span_id    = md5(conv_id ':' turn_idx)[:16]     (16 hex = 8 bytes)
- parent     = md5(conv_id ':' turn_idx-1)[:16], roots (turn 0) unset
- name       = parsed action, 'unparsed' on parse miss
- kind       = role → SpanKind int (user=3 CLIENT, assistant=2 SERVER,
               tool/system=1 INTERNAL — ptrace/span_kind.go vocabulary)
- start      = ts (ns); end = start + latency_ms (ns), end=start on miss
- status     = {code: 2 STATUS_ERROR} for [ERROR] turns, unset otherwise
               (an absent Status reads back as code 0 UNSET, the pdata
               embedded-struct default — ptrace/status.go)
- resource   = service.name from the tool dimension; scope = otelray.<role>

The md5 IDs (``otlp_json.turn_ids`` / ``span_hex``) run per row at the
codec boundary only (same cost class as the one ``json.dumps`` per
request); trace IDs are hashed once per UNIQUE conv_id via factorize.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.parse import GROK_PATTERN
from .otlp_json import (
    KEY_VALUE,
    Message,
    _i64_strings,
    arrow_type,
    identity_attrs,
    nest_requests,
    read_otlp_json,
    record_attrs,
    request_message,
    row_lists,
    scope_starts,
    span_hex,
    transcript_frame,
    turn_ids,
    walk_requests,
    with_context,
    write_requests,
)

# role → SpanKind integer (trace.proto SpanKind enum)
KIND_INT = {"user": 3, "assistant": 2, "tool": 1, "system": 1}
STATUS_CODE_ERROR = 2  # trace.proto StatusCode.STATUS_CODE_ERROR

_EVENT = Message("Event", (("timeUnixNano", 1, "fixed64"), ("name", 2, "string")))
_LINK = Message("Link", (("traceId", 1, "bytes"), ("spanId", 2, "bytes")))
_SPAN = Message(
    "Span",
    (
        ("traceId", 1, "bytes"),
        ("spanId", 2, "bytes"),
        ("parentSpanId", 4, "bytes"),
        ("name", 5, "string"),
        ("kind", 6, "int32"),  # SpanKind enum stand-in (the same varint)
        ("startTimeUnixNano", 7, "fixed64"),
        ("endTimeUnixNano", 8, "fixed64"),
        ("attributes", 9, [KEY_VALUE]),
        ("events", 11, [_EVENT]),
        ("links", 13, [_LINK]),
        # StatusCode enum stand-in; field 1 is reserved (deprecated_code)
        ("status", 15, Message("Status", (("code", 3, "int32"),))),
    ),
)
TRACES_REQUEST = request_message("ExportTraceServiceRequest", "Spans", "spans", _SPAN)


def nest_otlp_traces_batch(t: pa.Table) -> pa.Table:
    """Transcript rows → ONE ExportTraceServiceRequest row (the marshal
    half, ptrace/json.go MarshalTraces): a span per row, in the
    ``nest_requests`` envelope."""
    df = transcript_frame(t)
    n = len(df)
    conv = df["conv_id"].to_numpy(dtype=object)
    turn = df["turn_idx"].to_numpy()

    # ---- span identity (hex wire form)
    trace_hex, span = turn_ids(df)
    parent_hex = np.where(turn > 0, span_hex(conv, turn - 1), None)

    # ---- parsed fields (one RE2 pass, same grammar as stages/parse.py)
    text_arr = pa.array(df["text"].to_numpy(dtype=object), type=pa.string())
    extracted = pc.extract_regex(text_arr, GROK_PATTERN)
    ok = extracted.is_valid()
    null_str = pa.scalar(None, type=pa.string())
    name = pc.fill_null(
        pc.if_else(ok, extracted.field("action"), null_str), "unparsed"
    )
    latency_ms = pc.cast(
        pc.fill_null(
            pc.if_else(ok, extracted.field("latency_ms"), null_str), "0"
        ),
        pa.int64(),
    ).to_numpy(zero_copy_only=False)
    level = pc.if_else(ok, extracted.field("level"), null_str)
    is_error = pc.equal(pc.fill_null(level, ""), "ERROR")

    # keep UNSCALED microseconds here; _i64_strings scales by 1000 in
    # int64 (a null-holding float64 array times 1000 exceeds 2^53 and
    # corrupts every neighbor's nanoseconds)
    start_us = df["ts_us"].to_numpy()
    end_us = start_us + latency_ms * 1000
    kind = pa.array(
        df["role"].map(KIND_INT).fillna(1).astype(np.int64),
        type=pa.int64(),
    )
    # status: present (code=2) only on ERROR turns — unset otherwise, so
    # _strip_nulls omits it from both wires (proto3 default semantics).
    # Null-ness rides the StructArray validity mask (if_else lacks
    # struct support in this pyarrow).
    code_arr = pa.array(
        np.full(n, STATUS_CODE_ERROR, dtype=np.int64), type=pa.int64()
    )
    err_mask = np.asarray(
        pc.fill_null(is_error, False).to_numpy(zero_copy_only=False),
        dtype=bool,
    )
    status = pa.StructArray.from_arrays(
        [code_arr], names=["code"], mask=pa.array(~err_mask)
    )

    # span events: ONE event per span (the parsed action fired at span
    # start — generated_span.go:59-184 span-event surface); span links:
    # non-root spans link to their trace's ROOT span (turn 0), the
    # groupbytrace causal anchor. Both are repeated nested messages
    # inside Span on the wire.
    start_str = _i64_strings(start_us, scale=1000)
    events = pa.ListArray.from_arrays(
        pa.array(np.arange(n + 1, dtype=np.int32), type=pa.int32()),
        pa.StructArray.from_arrays(
            [pa.array(start_str, type=pa.string()), name],
            names=["timeUnixNano", "name"],
        ),
    )
    root_hex = span_hex(conv, np.zeros_like(turn))
    has_link = turn > 0
    link_off = np.concatenate(([0], np.cumsum(has_link.astype(np.int32))))
    link_rows = np.flatnonzero(has_link)
    links = pa.ListArray.from_arrays(
        pa.array(link_off, type=pa.int32()),
        pa.StructArray.from_arrays(
            [
                pa.array(trace_hex[link_rows], type=pa.string()),
                pa.array(root_hex[link_rows], type=pa.string()),
            ],
            names=["traceId", "spanId"],
        ),
    )

    spans = pa.StructArray.from_arrays(
        [
            pa.array(trace_hex, type=pa.string()),
            pa.array(span, type=pa.string()),
            pa.array(parent_hex, type=pa.string()),
            name,
            kind,
            pa.array(start_str, type=pa.string()),
            pa.array(_i64_strings(end_us, scale=1000), type=pa.string()),
            identity_attrs(
                conv, turn.astype("U").astype(object), df["tool"].to_numpy(dtype=object)
            ),
            events,
            links,
            status,
        ],
        fields=list(arrow_type(_SPAN)),
    )
    starts = scope_starts(df)
    return nest_requests(
        df,
        starts,
        row_lists(df, starts, spans),
        ("resourceSpans", "scopeSpans", "spans"),
    )


def _first_struct_field(lst: pa.ListArray, field: str) -> pa.Array:
    """First list element's ``field`` per parent row (null when the
    list is empty/null) — vectorized Get over a repeated message."""
    parents = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False)
    vals = np.asarray(
        pc.list_flatten(lst).field(field).to_numpy(zero_copy_only=False), dtype=object
    )
    out = np.full(len(lst), None, dtype=object)
    out[parents[::-1]] = vals[::-1]  # reversed → FIRST element wins
    return pa.array(out, type=pa.string())


def flatten_otlp_traces_batch(t: pa.Table) -> pa.Table:
    """ExportTraceServiceRequest rows → flat span table (the unmarshal
    half, ptrace/json.go UnmarshalTraces): resource/scope context
    denormalized onto every span; an absent status reads back as
    code 0 (UNSET — the pdata embedded-Status default)."""
    context, span_scope, spans = walk_requests(
        t, "resourceSpans", "scopeSpans", "spans"
    )
    status = spans.field("status")
    # .field() ignores the parent struct's null mask (the CLAUDE.md
    # trap): an unset status must read as code 0, not as whatever the
    # child buffer holds — re-mask by parent validity, then fill.
    status_code = pc.fill_null(
        pc.if_else(
            pc.is_valid(status), status.field("code"), pa.scalar(None, pa.int64())
        ),
        0,
    )
    return with_context(
        context,
        span_scope,
        {
            "trace_id": spans.field("traceId"),
            "span_id": spans.field("spanId"),
            "parent_span_id": spans.field("parentSpanId"),
            "name": spans.field("name"),
            "kind": pc.fill_null(spans.field("kind"), 0),
            "start_unix_nano": pc.cast(spans.field("startTimeUnixNano"), pa.int64()),
            "end_unix_nano": pc.cast(spans.field("endTimeUnixNano"), pa.int64()),
            "status_code": status_code,
            "event_name": _first_struct_field(spans.field("events"), "name"),
            "link_span_id": _first_struct_field(spans.field("links"), "spanId"),
            **record_attrs(spans.field("attributes")),
        },
    )


write_otlp_traces_json = functools.partial(
    write_requests, nest=nest_otlp_traces_batch
)
read_otlp_traces_json = functools.partial(
    read_otlp_json,
    schema=pa.schema(arrow_type(TRACES_REQUEST)),
    flatten=flatten_otlp_traces_batch,
)
