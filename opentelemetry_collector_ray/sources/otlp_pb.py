"""OTLP/pb binary interchange — the protobuf wire format for logs,
traces and metrics.

The reference ships two wire codecs per signal: proto3 JSON
(pdata/plog/json.go:27-49) and binary protobuf (pdata/plog/pb.go:24-44,
the gRPC payload; ptrace/pb.go and pmetric/pb.go have the same shape).
``otlp_json.py`` and its traces/metrics siblings cover the first; this
module covers the second for all three signals. Each signal is one
``Signal`` entry in ``SIGNALS`` — its request root and message, its
nest/flatten halves — and ONE codec runs over that table, reusing the
SAME vectorized nest/flatten halves so both wires share one tree
layout:

    transcripts --signal.nest--> request tree --encode_request--> .binpb
    .binpb --decode_request--> request tree --typed_trees-->
        typed nested table --signal.flatten--> flat table

The per-signal public names (``encode_logs_request``,
``read_otlp_traces_pb``, ``write_otlp_metrics_pb``, …) are each one
signal's ``functools.partial`` of that codec.

The messages are declared once, beside each signal's nest/flatten
(``otlp_json.Message``): the fields the engine reads and writes, with
the numbers and wire types of the published opentelemetry-proto
schema, so these bytes interoperate with any real OTLP consumer. The
same declaration gives the typed Arrow tree and, here, the descriptor
pool (``_classes``; no generated code, no vendored .proto files). A
field outside it is an unknown field on the wire: decode skips it, as
``decode_json`` does on the JSON wire. Enums are declared int32 (the
same varint on the wire), so a decoded tree holds their integers, as
the JSON codec writes them.

Protobuf ↔ tree is two walks over the descriptors, nothing else:
decode reads ``ListFields()`` (bytes → hex, 64-bit integers →
decimal strings, the proto3-JSON forms), encode sets each tree key by
its camelCase field name and refuses a key it does not declare.

Cost model: encode/decode run once per REQUEST (= one Ray batch) at
the codec boundary, exactly like the NDJSON writer's ``json.dumps`` —
the per-record tree walk is Python over protobuf's C (upb) messages;
everything inside the pipeline stays columnar.
"""

from __future__ import annotations

import dataclasses
import functools
import re

import pyarrow as pa
import ray.data
from google.protobuf.descriptor import FieldDescriptor

from . import wirefs
from .parquet import file_tasks
from .wirefs import unframe_requests
from .otlp_json import (
    LOGS_REQUEST,
    WIDE_INTS,
    Message,
    RequestFileWriter,
    arrow_type,
    decompress_payload,
    flatten_otlp_batch,
    nest_otlp_batch,
    write_requests,
)
from .otlp_metrics import (
    METRICS_REQUEST,
    flatten_otlp_metrics_batch,
    nest_otlp_metrics_batch,
)
from .otlp_traces import (
    TRACES_REQUEST,
    flatten_otlp_traces_batch,
    nest_otlp_traces_batch,
)


@dataclasses.dataclass(frozen=True)
class Signal:
    """One OTLP signal's codec spec: everything the wire codecs need to
    know about it (the reference gives every signal the same marshaler
    pair over one proto — pdata/plog/pb.go, ptrace/pb.go, pmetric/pb.go).

    ``request`` is the ``_classes()`` key of its request message,
    ``message`` that message's declaration, ``nest`` / ``flatten`` the
    flat-table ↔ request-tree halves and ``prefix`` the ``.binpb``
    file-name prefix. ``root`` is the request's one repeated field
    (proto3-JSON name) and ``tree_type`` its Arrow type: both wires
    decode into it, never into an inferred shape (proto3 omits unset
    fields)."""

    request: str
    message: Message
    nest: object
    flatten: object
    prefix: str
    root: str = dataclasses.field(init=False)
    tree_type: pa.DataType = dataclasses.field(init=False)

    # set once here: a functools.cached_property holds a lock, which
    # workers cannot receive when the class is pickled by value
    def __post_init__(self):
        ((root, _, resources),) = self.message.fields
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "tree_type", arrow_type(resources))


SIGNALS = {
    "logs": Signal(
        "request", LOGS_REQUEST, nest_otlp_batch, flatten_otlp_batch, "otlp"
    ),
    "traces": Signal(
        "trace_request", TRACES_REQUEST,
        nest_otlp_traces_batch, flatten_otlp_traces_batch, "otlp-traces",
    ),
    "metrics": Signal(
        "metrics_request", METRICS_REQUEST,
        nest_otlp_metrics_batch, flatten_otlp_metrics_batch, "otlp-metrics",
    ),
}


def _classes() -> dict:
    """Build the descriptor pool of the declared messages — every
    message the ``SIGNALS`` requests reach, in one proto3 file — and
    return the request classes by ``Signal.request``. Field names are
    the snake_case of the declared camelCase names. Deliberately NOT
    cached at module level: an lru_cache wrapper pickles BY REFERENCE
    to its defining module (its __reduce__ is a qualname lookup), which
    breaks pickle-by-value workers that have no importable copy of this
    package; and a cache dict populated by the calling process would drag
    unpicklable upb classes into the closure. A call costs about a
    millisecond, so callers build once and pass the class in: the batch
    readers and writers once per batch (``_decode_batch``,
    ``render_pb``), the HTTP listener once for its lifetime —
    a per-request ``_classes()`` would add that to every ack."""
    from google.protobuf import descriptor_pb2, descriptor_pool, message_factory

    T = descriptor_pb2.FieldDescriptorProto
    proto = descriptor_pb2.FileDescriptorProto(
        name="otlp.proto", package="otlp", syntax="proto3"
    )
    declared = {}
    todo = [sig.message for sig in SIGNALS.values()]
    while todo:
        m = todo.pop()
        if declared.get(m.name) is m:
            continue
        # a second message of the same name is added too: pool.Add
        # refuses the duplicate symbol
        declared[m.name] = m
        desc = proto.message_type.add(name=m.name)
        oneofs = []
        for name, number, kind, *oneof in m.fields:
            repeated = isinstance(kind, list)
            if repeated:
                (kind,) = kind
            f = desc.field.add(
                name=re.sub("[A-Z]", lambda c: "_" + c[0].lower(), name),
                number=number,
                label=T.LABEL_REPEATED if repeated else T.LABEL_OPTIONAL,
            )
            if isinstance(kind, Message):
                f.type, f.type_name = T.TYPE_MESSAGE, ".otlp." + kind.name
                todo.append(kind)
            else:
                f.type = T.Type.Value("TYPE_" + kind.upper())
            if oneof:
                if oneof[0] not in oneofs:
                    oneofs.append(oneof[0])
                    desc.oneof_decl.add(name=oneof[0])
                f.oneof_index = oneofs.index(oneof[0])
    pool = descriptor_pool.DescriptorPool()
    pool.Add(proto)
    return {
        sig.request: message_factory.GetMessageClass(
            pool.FindMessageTypeByName("otlp." + sig.message.name)
        )
        for sig in SIGNALS.values()
    }


# proto3-JSON scalar forms: IDs are hex, 64-bit integers decimal strings
_WIDE = frozenset(
    getattr(FieldDescriptor, "TYPE_" + kind.upper()) for kind in WIDE_INTS
)
_TO_TREE = {FieldDescriptor.TYPE_BYTES: bytes.hex, **dict.fromkeys(_WIDE, str)}
_FROM_TREE = {FieldDescriptor.TYPE_BYTES: bytes.fromhex, **dict.fromkeys(_WIDE, int)}


def _tree(msg) -> dict:
    """A message → its proto3-JSON tree (camelCase keys, set fields
    only; an undeclared field on the wire is not listed)."""
    tree = {}
    for f, value in msg.ListFields():
        if f.type == FieldDescriptor.TYPE_MESSAGE:
            conv = _tree
        else:
            conv = _TO_TREE.get(f.type)
        if f.is_repeated:
            value = [conv(v) for v in value] if conv else list(value)
        elif conv:
            value = conv(value)
        tree[f.camelcase_name] = value
    return tree


def _fill(msg, tree: dict) -> None:
    """Set ``msg`` from a proto3-JSON tree; a null value is an unset
    field, a key the message does not declare is a ``ValueError``."""
    fields = msg.DESCRIPTOR.fields_by_camelcase_name
    for key, value in tree.items():
        if value is None:
            continue
        f = fields.get(key)
        if f is None:
            raise ValueError(f"{msg.DESCRIPTOR.name} declares no field {key!r}")
        if f.type == FieldDescriptor.TYPE_MESSAGE:
            if f.is_repeated:
                items = getattr(msg, f.name)
                for item in value:
                    _fill(items.add(), item)
            else:
                sub = getattr(msg, f.name)
                sub.SetInParent()  # an empty message is still present
                _fill(sub, value)
            continue
        conv = _FROM_TREE.get(f.type)
        if f.is_repeated:
            getattr(msg, f.name).extend(map(conv, value) if conv else value)
        else:
            setattr(msg, f.name, conv(value) if conv else value)


def encode_request(signal: Signal, request_row: dict, request_cls=None) -> bytes:
    """One nested request row (``signal.nest`` output, pylist form, IDs
    in hex) → OTLP/pb bytes."""
    if request_cls is None:
        request_cls = _classes()[signal.request]
    msg = request_cls()
    _fill(msg, request_row)
    return msg.SerializeToString()


def decode_request(signal: Signal, buf: bytes, request_cls=None) -> dict:
    """OTLP/pb bytes → proto3-JSON tree (camelCase, int64 as string,
    IDs as hex) — the tree the NDJSON reader decodes, over the declared
    fields."""
    if request_cls is None:
        request_cls = _classes()[signal.request]
    return _tree(request_cls.FromString(bytes(buf)))


def typed_trees(signal: Signal, trees: list) -> pa.Table:
    """Decoded ``signal.root`` lists, one per request → the typed nested
    table ``signal.flatten`` takes."""
    return pa.table({signal.root: pa.array(trees, type=signal.tree_type)})


def render_pb(signal: Signal, requests: list) -> bytes:
    """Request trees → ONE framed binary payload
    (``wirefs.frame_requests`` — magic + length prefixes; one file per
    request was a 10^8-small-files problem at 10^12 rows)."""
    req_cls = _classes()[signal.request]  # once per batch, per worker
    return wirefs.frame_requests(
        [encode_request(signal, row, req_cls) for row in requests]
    )


def write_otlp_pb(
    ds: ray.data.Dataset,
    out_dir: str,
    compression: str | None = None,
    rows_per_request: int | None = None,
    *,
    signal: Signal,
    **fs_opts,
) -> int:
    """Marshal: transcript rows → nested request trees → framed binary
    OTLP protobuf files (``requests_per_file`` Export payloads per
    file; ``out_dir`` may be a filesystem URI). Returns the number of
    requests written."""
    writer = functools.partial(
        RequestFileWriter,
        render=functools.partial(render_pb, signal),
        prefix=signal.prefix,
        suffix=".binpb",
    )
    return write_requests(
        ds, out_dir, compression, rows_per_request, nest=signal.nest,
        writer=writer, **fs_opts,
    )


def _decode_batch(signal: Signal, t: pa.Table) -> pa.Table:
    """read_binary_files block → flat rows. Each row is one FILE
    payload holding one or more framed request blobs; decompress by
    payload magic, unframe (a bare unframed request passes through),
    decode all, type the trees explicitly, flatten once."""
    req_cls = _classes()[signal.request]  # once per batch, per worker
    trees = [
        decode_request(signal, req, req_cls).get(signal.root, [])
        for b in t["bytes"].to_pylist()
        for req in unframe_requests(decompress_payload(b))
    ]
    return signal.flatten(typed_trees(signal, trees))


def read_otlp_pb(paths, filesystem=None, *, signal: Signal) -> ray.data.Dataset:
    """Unmarshal: .binpb files of Export requests → flat rows (the same
    schema as the signal's NDJSON reader), at most one read task per
    file (``parquet.file_tasks``)."""
    return ray.data.read_binary_files(
        paths, filesystem=filesystem, override_num_blocks=file_tasks(paths, filesystem)
    ).map_batches(functools.partial(_decode_batch, signal), batch_format="pyarrow")


# The per-signal public names, each one signal's view of the codec above
encode_logs_request = functools.partial(encode_request, SIGNALS["logs"])
decode_logs_request = functools.partial(decode_request, SIGNALS["logs"])
write_otlp_logs_pb = functools.partial(write_otlp_pb, signal=SIGNALS["logs"])
read_otlp_logs_pb = functools.partial(read_otlp_pb, signal=SIGNALS["logs"])
encode_traces_request = functools.partial(encode_request, SIGNALS["traces"])
decode_traces_request = functools.partial(decode_request, SIGNALS["traces"])
write_otlp_traces_pb = functools.partial(write_otlp_pb, signal=SIGNALS["traces"])
read_otlp_traces_pb = functools.partial(read_otlp_pb, signal=SIGNALS["traces"])
encode_metrics_request = functools.partial(encode_request, SIGNALS["metrics"])
decode_metrics_request = functools.partial(decode_request, SIGNALS["metrics"])
write_otlp_metrics_pb = functools.partial(write_otlp_pb, signal=SIGNALS["metrics"])
read_otlp_metrics_pb = functools.partial(read_otlp_pb, signal=SIGNALS["metrics"])
