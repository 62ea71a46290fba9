"""OTLP/JSON logs interchange — the real nested wire shape.

The reference's JSON codec round-trips ``ExportLogsServiceRequest``:
``resourceLogs[] > scopeLogs[] > logRecords[]`` with resource/scope
attributes as ``[{key, value:{stringValue|intValue}}]`` entry lists and
``timeUnixNano`` as a decimal STRING (proto3 JSON fixed64 —
pdata/plog/json.go:27-49, pdata/plog/pb.go:24-44). This module is the
flatten/unflatten pair between that tree and the engine's flat
transcript table, so a user can point the engine at genuine OTel
export NDJSON (one request per line) and write it back out. It also
holds what every signal shares: ``Message`` (the one declaration of
each OTLP message, from which ``arrow_type`` derives the typed tree and
``otlp_pb`` the protobuf descriptors), ``request_message`` (the
resource → scope → item shape of every Export request),
``walk_requests`` (the top of every flatten) and its inverse
``nest_requests`` (the envelope of every nest, over one
``transcript_frame`` with its ``scope_starts``, ``turn_ids`` and
``identity_attrs``), ``write_requests`` (nest → render → land through
one ``RequestFileWriter``: NDJSON here, framed protobuf for
``otlp_pb``), ``decode_json`` (OTLP/JSON bytes parsed against the
typed tree, never inferred — the listener's JSON bodies use it too)
and ``read_otlp_json`` (every NDJSON file, plain or gzip/zstd, through
``decode_json``). The per-signal writers and readers here and in
``otlp_traces`` / ``otlp_metrics`` are ``functools.partial``s of them.

Both directions are vectorized:

- **nest** sorts a batch by (service, scope), finds group boundaries
  with numpy change-points, and assembles the tree bottom-up from
  ``pa.ListArray.from_arrays`` offsets — one request row per batch
  (the reference marshals one request per pdata batch).
- **flatten** walks the tree top-down with ``pc.list_flatten`` +
  ``pc.list_parent_indices``, denormalizing resource/scope context
  onto each record and extracting attribute entries with first-match
  masks — no per-row Python.

Deterministic transcript mapping (the fixture contract, mirrored by
the ``otlp_json_flatten`` oracle): resource identity =
``service.name`` = DIM_TOOL_SERVICE[tool] (the enrich dimension);
scope = ``otelray.<role>`` v1.0; severityText = the ``[LEVEL]`` text
prefix, severityNumber per plog/severity_number.go; body = the raw
turn text; record attributes carry conv.id / turn.index / tool.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as pj
import ray.data
from ray.data._internal.datasource.json_datasource import JSON_FILE_EXTENSIONS

from ..schema import DIM_TOOL_SERVICE, SEVERITY_NUMBER
from . import wirefs
from .parquet import file_tasks


class Message(NamedTuple):
    """One OTLP message as the engine declares it: its name and one
    ``(jsonName, field number, proto type[, oneof])`` row per field it
    reads or writes, with the published number and wire type. A proto
    type is a scalar name (``"string"``, ``"fixed64"``, …), another
    ``Message``, or ``[x]`` for a repeated ``x``. ``arrow_type`` derives
    the typed tree from a declaration and ``otlp_pb._classes`` the
    protobuf descriptors; a field outside it is skipped on decode, on
    both wires."""

    name: str
    fields: tuple


# the proto3-JSON mapping: 64-bit integers and bytes (trace/span IDs,
# hex on the OTLP wire) are strings, 32-bit integers widen to int64
WIDE_INTS = ("int64", "uint64", "fixed64", "sfixed64", "sint64")
_ARROW = {
    "string": pa.string(),
    "bytes": pa.string(),
    "bool": pa.bool_(),
    "double": pa.float64(),
    **dict.fromkeys(WIDE_INTS, pa.string()),
    **dict.fromkeys(("int32", "uint32", "fixed32", "sfixed32", "sint32"), pa.int64()),
}


def arrow_type(kind) -> pa.DataType:
    """The Arrow type of a declared proto type: a ``Message`` is a
    struct of its fields in declaration order, ``[x]`` a list."""
    if isinstance(kind, list):
        return pa.list_(arrow_type(kind[0]))
    if isinstance(kind, Message):
        return pa.struct([pa.field(f[0], arrow_type(f[2])) for f in kind.fields])
    return _ARROW[kind]


# opentelemetry/proto/common/v1 and resource/v1
_STRING_VALUE = ("stringValue", 1, "string", "value")
_ANY_VALUE = Message("AnyValue", (_STRING_VALUE, ("intValue", 3, "int64", "value")))
KEY_VALUE = Message("KeyValue", (("key", 1, "string"), ("value", 2, _ANY_VALUE)))
_RESOURCE = Message("Resource", (("attributes", 1, [KEY_VALUE]),))
_SCOPE = Message(
    "InstrumentationScope", (("name", 1, "string"), ("version", 2, "string"))
)


def request_message(name: str, kind: str, items: str, item: Message) -> Message:
    """An Export request: ``resource{kind}`` lists the resources, each
    with its ``scope{kind}`` list, each with its ``items`` list of
    ``item`` (log records, spans or metrics). Every signal's request is
    this shape."""
    scope = Message(f"Scope{kind}", (("scope", 1, _SCOPE), (items, 2, [item])))
    resource = Message(
        f"Resource{kind}", (("resource", 1, _RESOURCE), (f"scope{kind}", 2, [scope]))
    )
    return Message(name, ((f"resource{kind}", 1, [resource]),))


_LOG_RECORD = Message(
    "LogRecord",
    (
        ("timeUnixNano", 1, "fixed64"),
        # int32 stand-in for the SeverityNumber enum: the same varint
        ("severityNumber", 2, "int32"),
        ("severityText", 3, "string"),
        # the AnyValue of a body, read as its string
        ("body", 5, Message("Body", (_STRING_VALUE,))),
        ("attributes", 6, [KEY_VALUE]),
        ("traceId", 9, "bytes"),
        ("spanId", 10, "bytes"),
    ),
)
LOGS_REQUEST = request_message(
    "ExportLogsServiceRequest", "Logs", "logRecords", _LOG_RECORD
)


def _kv_list(
    keys: np.ndarray,
    str_vals: np.ndarray,
    int_vals: np.ndarray,
    offsets: np.ndarray,
) -> pa.ListArray:
    entries = pa.StructArray.from_arrays(
        [
            pa.array(keys, type=pa.string()),
            pa.StructArray.from_arrays(
                [
                    pa.array(str_vals, type=pa.string()),
                    pa.array(int_vals, type=pa.string()),
                ],
                names=["stringValue", "intValue"],
            ),
        ],
        names=["key", "value"],
    )
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), entries)


def _md5_hex(keys: np.ndarray, width: int) -> np.ndarray:
    """Deterministic hex IDs (DuckDB shares md5, so oracles mirror
    them verbatim). Codec-boundary cost only — trace IDs hash once per
    UNIQUE conv via factorize at the call sites."""
    import hashlib

    out = np.empty(len(keys), dtype=object)
    for i, k in enumerate(keys):
        out[i] = hashlib.md5(k.encode()).hexdigest()[:width]
    return out


def _i64_strings(vals: np.ndarray, scale: int = 1) -> np.ndarray:
    """int64-as-string proto3 JSON wire form, None where the input is
    null — a blind ``astype("U")`` on a NaN-holding float array writes
    the literal string "nan" onto the wire and crashes every reader
    (the CLAUDE.md NaN→astype bug class, found by review).

    ``scale`` multiplies AFTER the int64 conversion: one null in a
    batch makes the whole array float64, and scaling epoch-microseconds
    by 1000 in float64 exceeds 2^53 — every other timestamp in the
    batch would come back ±hundreds of ns off (found by review)."""
    out = np.empty(len(vals), dtype=object)
    if vals.dtype.kind == "f":
        mask = np.isnan(vals)
        ints = np.where(mask, 0, vals).astype(np.int64) * scale
        out[:] = ints.astype("U").astype(object)
        out[mask] = None
    else:
        out[:] = (vals.astype(np.int64) * scale).astype("U").astype(object)
    return out


def _str(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not pa.types.is_string(col.type):
        col = pc.cast(col, pa.string())
    return np.asarray(col.to_numpy(zero_copy_only=False), dtype=object)


def _require_non_null_keys(
    t: pa.Table, cols=("conv_id", "role", "turn_idx")
) -> None:
    """OTLP identity (trace/span IDs, scope names) derives from these
    columns via numpy ops that corrupt nulls instead of propagating
    them — string columns stringify null to 'None', and turn_idx goes
    through ``.astype(np.int64)`` where NaN becomes INT64_MIN (the
    CLAUDE.md quirk) and would mint a bogus-but-valid
    -9223372036854775808 turn identity. The transcripts derivation
    guarantees non-null; EXTERNAL callers must fail loudly (ADVICE r3
    + review finding r4)."""
    for c in cols:
        if c in t.column_names:
            nulls = pc.sum(pc.cast(pc.is_null(t[c]), pa.int64())).as_py()
            if nulls:
                raise ValueError(
                    f"nest_otlp*: column {c!r} has {nulls} null value(s); "
                    "OTLP identity keys derive from it and null would "
                    "corrupt to 'None'/INT64_MIN. Filter or fill nulls "
                    "before marshaling."
                )


def transcript_frame(t: pa.Table) -> pd.DataFrame:
    """The frame every nest starts from: transcript rows (non-null
    identity keys) with their derived service.name, sorted by
    (service, role, conv_id, turn_idx), so that every resource
    (service) and every scope (service, role) is one run of rows."""
    _require_non_null_keys(t)
    df = pd.DataFrame(
        {
            "service": pd.Series(_str(t["tool"])).fillna("").map(
                lambda x: DIM_TOOL_SERVICE.get(x, "unknown")
            ),
            "role": _str(t["role"]),
            "conv_id": _str(t["conv_id"]),
            "turn_idx": t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64),
            "tool": _str(t["tool"]),
            "text": _str(t["text"]),
            "ts_us": pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False),
        }
    )
    return df.sort_values(
        ["service", "role", "conv_id", "turn_idx"], kind="mergesort"
    ).reset_index(drop=True)


def scope_starts(df: pd.DataFrame) -> np.ndarray:
    """The first row of every scope of a ``transcript_frame``: the
    change points of (service, role)."""
    if not len(df):
        return np.empty(0, np.int64)
    svc = df["service"].to_numpy(dtype=object)
    rol = df["role"].to_numpy(dtype=object)
    return np.flatnonzero(
        np.concatenate(([True], (svc[1:] != svc[:-1]) | (rol[1:] != rol[:-1])))
    )


def span_hex(conv: np.ndarray, turn: np.ndarray) -> np.ndarray:
    """The span ID of turn ``turn`` of conversation ``conv``:
    md5(conv_id ':' turn_idx)[:16]."""
    keys = np.char.add(np.char.add(conv.astype("U"), ":"), turn.astype("U"))
    return _md5_hex(keys.astype(object), 16)


def turn_ids(df: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """(trace, span) hex IDs of every row of a ``transcript_frame``:
    trace = md5(conv_id), hashed once per unique conversation, and the
    turn's ``span_hex``. Spans carry them and every log record points
    at its turn's span (log-trace correlation), so a correlated lookup
    round-trips across signals."""
    conv_codes, conv_uniq = pd.factorize(df["conv_id"])
    trace = _md5_hex(np.asarray(conv_uniq, dtype=object), 32)[conv_codes]
    span = span_hex(df["conv_id"].to_numpy(dtype=object), df["turn_idx"].to_numpy())
    return trace, span


def identity_attrs(
    conv: np.ndarray, turn_str: np.ndarray, tool: np.ndarray
) -> pa.ListArray:
    """The conv.id / turn.index / tool attribute list of every record,
    span and number datapoint (``record_attrs`` reads it back); the
    turn index is an intValue, so its decimal string."""
    n = len(conv)
    keys = np.empty(3 * n, dtype=object)
    svals = np.empty(3 * n, dtype=object)
    ivals = np.empty(3 * n, dtype=object)
    keys[0::3], keys[1::3], keys[2::3] = "conv.id", "turn.index", "tool"
    svals[0::3], svals[1::3], svals[2::3] = conv, None, tool
    ivals[0::3], ivals[1::3], ivals[2::3] = None, turn_str, None
    return _kv_list(keys, svals, ivals, np.arange(0, 3 * n + 3, 3))


def row_lists(
    df: pd.DataFrame, starts: np.ndarray, values: pa.Array
) -> pa.ListArray:
    """One value per row of ``df`` → the list of every scope."""
    offsets = np.append(starts, len(df)).astype(np.int32)
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), values)


def nest_requests(
    df: pd.DataFrame, starts: np.ndarray, items: pa.ListArray, names: tuple
) -> pa.Table:
    """The envelope of every nest, the inverse of ``walk_requests``:
    ONE request row whose ``names`` = (root, scopes, items) fields hold
    a resource per service.name, each with a scope per role
    (``otelray.<role>`` v1.0) starting at the ``starts`` rows of the
    sorted ``df`` and holding that scope's list of ``items``."""
    root, scopes_field, items_field = names
    svc = df["service"].to_numpy(dtype=object)
    rol = df["role"].to_numpy(dtype=object)
    n_scope = len(starts)
    scope = pa.StructArray.from_arrays(
        [
            pa.array(
                np.char.add("otelray.", rol[starts].astype("U")), type=pa.string()
            ),
            pa.array(["1.0"] * n_scope, type=pa.string()),
        ],
        names=["name", "version"],
    )
    scopes = pa.StructArray.from_arrays([scope, items], names=["scope", items_field])

    # resources: change points of service over the scopes
    svc_per_scope = svc[starts]
    if n_scope:
        rs_change = np.flatnonzero(
            np.concatenate(([True], svc_per_scope[1:] != svc_per_scope[:-1]))
        )
    else:
        rs_change = np.empty(0, np.int64)
    rs_off = np.append(rs_change, n_scope).astype(np.int32)
    scope_lists = pa.ListArray.from_arrays(pa.array(rs_off, type=pa.int32()), scopes)
    n_res = len(rs_change)
    res_svc = svc_per_scope[rs_change] if n_scope else np.empty(0, object)
    res_attrs = _kv_list(
        np.full(n_res, "service.name", dtype=object),
        np.asarray(res_svc, dtype=object),
        np.full(n_res, None, dtype=object),
        np.arange(n_res + 1),
    )
    resource = pa.StructArray.from_arrays([res_attrs], names=["attributes"])
    res_entries = pa.StructArray.from_arrays(
        [resource, scope_lists], names=["resource", scopes_field]
    )
    resources = pa.ListArray.from_arrays(
        pa.array([0, n_res], type=pa.int32()), res_entries
    )
    return pa.table({root: resources})


def nest_otlp_batch(t: pa.Table) -> pa.Table:
    """Transcript rows → ONE ExportLogsServiceRequest row (the marshal
    half, plog/json.go MarshalLogs): a log record per row, in the
    ``nest_requests`` envelope."""
    df = transcript_frame(t)
    text = pa.array(df["text"].to_numpy(dtype=object), type=pa.string())
    lvl = pc.extract_regex(text, r"^\[(?P<lvl>[A-Z]+)\]")
    # .field() ignores the parent struct's null mask (a non-matching
    # extract_regex row surfaces as "" in the child) — re-mask so
    # unparsed rows are NULL and both wire codecs omit the field.
    sev_text = pc.if_else(
        pc.is_valid(lvl), lvl.field("lvl"), pa.scalar(None, pa.string())
    )
    sev_num = pa.array(
        pd.Series(sev_text.to_numpy(zero_copy_only=False)).map(SEVERITY_NUMBER),
        type=pa.int64(),
    )
    # log-trace correlation (logs.proto LogRecord.trace_id/span_id; the
    # logs data model's RequestContext section): hex on the JSON wire,
    # raw bytes on the binary wire
    trace_hex, span = turn_ids(df)
    turn_str = df["turn_idx"].to_numpy().astype("U").astype(object)
    records = pa.StructArray.from_arrays(
        [
            pa.array(
                _i64_strings(df["ts_us"].to_numpy(), scale=1000), type=pa.string()
            ),
            sev_num,
            # left NULL when the text has no [LEVEL] prefix: proto3
            # omits unset fields, and the binary wire (otlp_pb) cannot
            # distinguish "" from unset — both codecs omit it.
            sev_text,
            pa.StructArray.from_arrays([text], names=["stringValue"]),
            identity_attrs(
                df["conv_id"].to_numpy(dtype=object),
                turn_str,
                df["tool"].to_numpy(dtype=object),
            ),
            pa.array(trace_hex, type=pa.string()),
            pa.array(span, type=pa.string()),
        ],
        fields=list(arrow_type(_LOG_RECORD)),
    )
    starts = scope_starts(df)
    return nest_requests(
        df,
        starts,
        row_lists(df, starts, records),
        ("resourceLogs", "scopeLogs", "logRecords"),
    )


def _attr_first(kvlist: pa.ListArray, key: str, field: str) -> np.ndarray:
    """First-match attribute value per parent (vectorized Get over the
    OTLP entry-list encoding)."""
    parents = pc.list_parent_indices(kvlist).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(kvlist)
    keys = np.asarray(flat.field("key").to_numpy(zero_copy_only=False), dtype=object)
    vals = np.asarray(
        flat.field("value").field(field).to_numpy(zero_copy_only=False),
        dtype=object,
    )
    out = np.full(len(kvlist), None, dtype=object)
    hit = keys == key
    out[parents[hit][::-1]] = vals[hit][::-1]
    return out


def record_attrs(attrs: pa.ListArray) -> dict:
    """The conv.id / turn.index / tool columns every signal's records
    carry (the fixture's transcript identity)."""
    # proto3 JSON int64-as-string → int32 (bounded: a turn index)
    turn = pa.array(_attr_first(attrs, "turn.index", "intValue"), type=pa.string())
    return {
        "conv_id": pa.array(
            _attr_first(attrs, "conv.id", "stringValue"), type=pa.string()
        ),
        "turn_idx": pc.cast(pc.cast(turn, pa.int64()), pa.int32()),
        "tool": pa.array(
            _attr_first(attrs, "tool", "stringValue"), type=pa.string()
        ),
    }


def walk_requests(t: pa.Table, root: str, scopes: str, items: str):
    """The resource → scope → item walk every flatten starts with, over
    a ``root`` column typed by ``request_message``. Returns (context, scope
    index per item, items): ``context`` has one row per scope — its
    resource's service.name, the scope's name and version — so
    ``context.take(idx)`` denormalizes it onto any rows."""
    res = pc.list_flatten(t[root].combine_chunks())
    attrs = res.field("resource").field("attributes")
    service = pa.array(
        _attr_first(attrs, "service.name", "stringValue"), type=pa.string()
    )
    sl = res.field(scopes)
    sc = pc.list_flatten(sl)
    context = pa.table(
        {
            "service": service.take(pc.list_parent_indices(sl)),
            "scope_name": sc.field("scope").field("name"),
            "scope_version": sc.field("scope").field("version"),
        }
    )
    il = sc.field(items)
    return context, pc.list_parent_indices(il), pc.list_flatten(il)


def with_context(context: pa.Table, scope_idx, cols: dict) -> pa.Table:
    """``cols`` behind the ``walk_requests`` context of each row's
    scope (``scope_idx``)."""
    rows = context.take(scope_idx)
    return pa.table({**dict(zip(rows.column_names, rows.columns)), **cols})


def flatten_otlp_batch(t: pa.Table) -> pa.Table:
    """ExportLogsServiceRequest rows → flat record table (the unmarshal
    half, plog/json.go UnmarshalLogs): resource/scope context
    denormalized onto every record."""
    context, rec_scope, recs = walk_requests(
        t, "resourceLogs", "scopeLogs", "logRecords"
    )
    return with_context(
        context,
        rec_scope,
        {
            "time_unix_nano": pc.cast(recs.field("timeUnixNano"), pa.int64()),
            "severity_number": recs.field("severityNumber"),
            "severity_text": recs.field("severityText"),
            "body": recs.field("body").field("stringValue"),
            "trace_id": recs.field("traceId"),
            "span_id": recs.field("spanId"),
            **record_attrs(recs.field("attributes")),
        },
    )


def _strip_nulls(o):
    """proto3 JSON omits unset fields (a null oneof member is not
    written); recursively drop None values before serializing."""
    if isinstance(o, dict):
        return {k: _strip_nulls(v) for k, v in o.items() if v is not None}
    if isinstance(o, list):
        return [_strip_nulls(x) for x in o]
    return o


# Wire compression (configgrpc compressor matrix parity — the
# reference's gRPC/HTTP clients gzip/zstd their Export payloads,
# config/configgrpc/configgrpc.go). Files carry the compressor as an
# extension suffix; readers sniff it back off the path.
_COMPRESS_EXT = {"gzip": ".gz", "zstd": ".zst"}


def compress_payload(data: bytes, compression: str | None) -> bytes:
    if compression is None or compression == "none":
        return data
    if compression == "gzip":
        import gzip

        # fixed mtime keeps the payload deterministic across runs
        return gzip.compress(data, mtime=0)
    if compression == "zstd":
        sink = pa.BufferOutputStream()
        with pa.CompressedOutputStream(sink, "zstd") as s:
            s.write(data)
        return sink.getvalue().to_pybytes()
    raise ValueError(f"unsupported wire compression: {compression!r}")


def decompress_payload(data: bytes) -> bytes:
    """Sniffs the MAGIC BYTES, not the path: Ray's read_binary_files
    already auto-decompresses paths with known codec extensions, so an
    extension-based rule would double-decompress those blobs."""
    if data[:2] == b"\x1f\x8b":
        import gzip

        return gzip.decompress(data)
    if data[:4] == b"\x28\xb5\x2f\xfd":
        return pa.input_stream(pa.BufferReader(data), compression="zstd").read()
    return data


def render_ndjson(requests: list) -> bytes:
    """Request trees → one canonical OTLP/JSON line each (null fields
    omitted, the proto3 JSON wire form): k requests frame naturally as
    k lines. One ``json.dumps`` per REQUEST, not per record."""
    import json

    return "".join(
        json.dumps(_strip_nulls(r), separators=(",", ":")) + "\n" for r in requests
    ).encode()


def land_payload(fs, dir_path: str, payload: bytes, compression, prefix, suffix) -> str:
    """Wire-compress ``payload`` and land it atomically in ``dir_path``
    under its content-addressed ``{prefix}-{md5}{suffix}[.gz|.zst]``
    name (``wirefs``: a retried batch lands the same name). Returns the
    landed path."""
    payload = compress_payload(payload, compression)
    ext = suffix + _COMPRESS_EXT.get(compression or "", "")
    name = wirefs.content_name(prefix, payload, ext)
    return wirefs.atomic_write(fs, dir_path, name, payload)


class RequestFileWriter:
    """The request-file sink of both wires (the sink side of
    Marshal*): each writer batch of request rows is rendered into ONE
    payload — ``render_ndjson`` lines by default, framed protobuf with
    ``otlp_pb.render_pb`` — and landed by ``land_payload`` on any
    pyarrow filesystem, the directory made once per writer on the
    worker. A batch without requests lands nothing."""

    def __init__(
        self,
        out_dir: str,
        compression: str | None = None,
        *,
        render=render_ndjson,
        prefix: str = "otlp",
        suffix: str = ".json",
        filesystem=None,
    ):
        self.out_dir = out_dir
        self.compression = compression
        self.render = render
        self.prefix = prefix
        self.suffix = suffix
        self.filesystem = filesystem
        self._dir_ready = False

    def __call__(self, t: pa.Table) -> pa.Table:
        requests = t.to_pylist()
        if requests:
            fs, dir_path = wirefs.resolve_fs(self.out_dir, self.filesystem)
            if not self._dir_ready:
                wirefs.ensure_dir(fs, dir_path)
                self._dir_ready = True
            payload = self.render(requests)
            land_payload(
                fs, dir_path, payload, self.compression, self.prefix, self.suffix
            )
        return pa.table({"rows": pa.array([len(requests)], type=pa.int64())})


# One Export() request per input batch: cap the batch size so request
# payloads stay exporter-sized (~a few MB) even when upstream blocks
# are 100TB-scale (~128MB) — the batch-processor send_batch_max_size
# rule applied at the wire boundary.
REQUEST_ROWS = 8192


def write_requests(
    ds: ray.data.Dataset,
    out_dir: str,
    compression: str | None = None,
    rows_per_request: int | None = None,
    *,
    nest,
    writer=RequestFileWriter,
    requests_per_file: int | None = None,
    filesystem=None,
    storage_options: dict | None = None,
    overwrite: bool = True,
) -> int:
    """Marshal, for every signal on both wires: ``nest`` turns each
    ``rows_per_request`` input rows into one Export request row,
    ``writer(dir, compression, filesystem=fs)`` lands each
    ``requests_per_file`` request rows as one file — a
    ``RequestFileWriter``: NDJSON by default, framed protobuf for
    ``otlp_pb`` — optionally wire-compressed (gzip/zstd).
    ``out_dir`` may be a local path or a filesystem URI (s3://…); a
    non-empty existing dir is replaced, never appended to. Returns the
    number of requests written."""
    fs, dir_path = wirefs.resolve_fs(out_dir, filesystem, storage_options)
    wirefs.prepare_dir(fs, dir_path, overwrite)
    nested = ds.map_batches(
        nest, batch_format="pyarrow", batch_size=rows_per_request or REQUEST_ROWS
    )
    written = nested.map_batches(
        writer(dir_path, compression, filesystem=fs),
        batch_format="pyarrow",
        batch_size=requests_per_file or wirefs.REQUESTS_PER_FILE,
    ).sum("rows")
    return int(written or 0)


def decode_json(data: bytes, schema: pa.Schema) -> pa.Table:
    """OTLP/JSON bytes, one Export request a line → one typed row a
    request. The JSON is parsed against ``schema``, never inferred —
    the reference decodes against the fixed proto the same way
    (plog/json.go:27-49): fields outside the schema are skipped at every
    level, a missing one reads as null, and a value of the wrong JSON
    kind is an error (a 64-bit integer must be the proto3 decimal
    string, not a number). The HTTP listener's JSON bodies and every
    NDJSON file go through here."""
    parse = pj.ParseOptions(explicit_schema=schema, unexpected_field_behavior="ignore")
    # one NDJSON line = one whole request (MBs at exporter sizing) — the
    # parser's default 1MB block would fail with "straddling object
    # straddles two block boundaries"
    read = pj.ReadOptions(block_size=max(1 << 20, len(data) + 1))
    return pj.read_json(pa.BufferReader(data), read_options=read, parse_options=parse)


def _decode_json_batch(schema: pa.Schema, flatten, t: pa.Table) -> pa.Table:
    """read_binary_files block → flat rows: every file decompressed by
    payload magic, decoded against ``schema``, flattened once."""
    tables = [
        decode_json(decompress_payload(b), schema) for b in t["bytes"].to_pylist()
    ]
    return flatten(pa.concat_tables([schema.empty_table(), *tables]))


def read_otlp_json(paths, filesystem=None, *, schema, flatten) -> ray.data.Dataset:
    """Unmarshal, for every signal: NDJSON Export request files, plain
    or gzip/zstd → ``decode_json`` against ``schema`` (the signal's
    typed request tree) → ``flatten`` → flat rows. Reads the files Ray's
    ``read_json`` would (its extension filter), at most one read task
    per file (``parquet.file_tasks``)."""
    return ray.data.read_binary_files(
        paths,
        filesystem=filesystem,
        file_extensions=JSON_FILE_EXTENSIONS,
        override_num_blocks=file_tasks(paths, filesystem, JSON_FILE_EXTENSIONS),
    ).map_batches(
        functools.partial(_decode_json_batch, schema, flatten), batch_format="pyarrow"
    )


# ExportLogsServiceRequest NDJSON; the traces and metrics twins live
# beside their nest/flatten halves
write_otlp_logs_json = functools.partial(write_requests, nest=nest_otlp_batch)
read_otlp_logs_json = functools.partial(
    read_otlp_json,
    schema=pa.schema(arrow_type(LOGS_REQUEST)),
    flatten=flatten_otlp_batch,
)
