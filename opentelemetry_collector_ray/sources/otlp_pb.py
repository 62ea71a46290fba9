"""OTLP/pb binary interchange — the protobuf wire format for logs,
traces and metrics.

The reference ships two wire codecs per signal: proto3 JSON
(pdata/plog/json.go:27-49) and binary protobuf (pdata/plog/pb.go:24-44,
the gRPC payload; ptrace/pb.go and pmetric/pb.go have the same shape).
``otlp_json.py`` and its traces/metrics siblings cover the first; this
module covers the second for all three signals. Each signal is one
``Signal`` entry in ``SIGNALS`` — its request root and message, its
typed tree, its nest/flatten halves, its ID fields — and ONE codec runs
over that table, reusing the SAME vectorized nest/flatten halves so
both wires share one tree layout:

    transcripts --signal.nest--> request tree --encode_request--> .binpb
    .binpb --decode_request--> request tree --typed_trees-->
        typed nested table --signal.flatten--> flat table

The per-signal public names (``encode_logs_request``,
``read_otlp_traces_pb``, ``write_otlp_metrics_pb``, …) are each one
signal's ``functools.partial`` of that codec.

The message schema is declared at runtime from the PUBLIC
opentelemetry-proto definitions (opentelemetry/proto/{common,resource,
logs,trace,metrics}/v1 + collector/*/v1) via ``descriptor_pb2`` — no
generated code, no vendored .proto files. Field numbers and wire types
match the published schema exactly, so these bytes interoperate with
any real OTLP consumer; ``severity_number`` is declared int32 instead
of the named enum (identical varint wire form; proto3 JSON then renders
the integer, matching the JSON codec's output).

Cost model: encode/decode run once per REQUEST (= one Ray batch) at
the codec boundary, exactly like the NDJSON writer's ``json.dumps`` —
the per-record tree walk lives in protobuf's C (upb) backend plus one
dict pass over the ID fields; everything inside the pipeline stays
columnar.
"""

from __future__ import annotations

import base64
import dataclasses
import functools

import pyarrow as pa
import ray.data

from . import wirefs
from .wirefs import unframe_requests
from .otlp_json import (
    _COMPRESS_EXT,
    _RESOURCE_LOGS,
    _strip_nulls,
    compress_payload,
    decompress_payload,
    flatten_otlp_batch,
    nest_otlp_batch,
    write_requests,
)
from .otlp_metrics import (
    _RESOURCE_METRICS,
    flatten_otlp_metrics_batch,
    nest_otlp_metrics_batch,
)
from .otlp_traces import (
    _RESOURCE_SPANS,
    flatten_otlp_traces_batch,
    nest_otlp_traces_batch,
)

def _field(msg, name, number, ftype, *, repeated=False, type_name=None,
           oneof=None):
    from google.protobuf import descriptor_pb2 as dp

    f = msg.field.add()
    f.name = name
    f.number = number
    f.type = ftype
    f.label = (
        dp.FieldDescriptorProto.LABEL_REPEATED
        if repeated
        else dp.FieldDescriptorProto.LABEL_OPTIONAL
    )
    if type_name:
        f.type_name = type_name
    if oneof is not None:
        f.oneof_index = oneof
    return f


def _classes() -> dict:
    """Build the OTLP descriptor pool and return the dynamic message
    classes. Deliberately NOT cached at module level: an lru_cache
    wrapper pickles BY REFERENCE to its defining module (its
    __reduce__ is a qualname lookup), which breaks pickle-by-value
    workers that have no importable copy of this package; and a cache
    dict populated on the driver would drag unpicklable upb classes
    into the closure. A call costs 0.6–1.2 ms (the median of 50 calls
    on one vCPU, across runs), so callers build once and pass the class
    in: the batch readers and writers once per batch (``_decode_batch``,
    ``_PbWriter.__call__``), the HTTP listener once for its lifetime —
    a per-request ``_classes()`` would add that to every ack."""
    from google.protobuf import descriptor_pb2 as dp
    from google.protobuf import descriptor_pool, message_factory

    T = dp.FieldDescriptorProto
    pool = descriptor_pool.DescriptorPool()

    # ---- opentelemetry/proto/common/v1/common.proto
    common = dp.FileDescriptorProto()
    common.name = "opentelemetry/proto/common/v1/common.proto"
    common.package = "opentelemetry.proto.common.v1"
    common.syntax = "proto3"
    anyv = common.message_type.add()
    anyv.name = "AnyValue"
    anyv.oneof_decl.add().name = "value"
    pfx = ".opentelemetry.proto.common.v1."
    _field(anyv, "string_value", 1, T.TYPE_STRING, oneof=0)
    _field(anyv, "bool_value", 2, T.TYPE_BOOL, oneof=0)
    _field(anyv, "int_value", 3, T.TYPE_INT64, oneof=0)
    _field(anyv, "double_value", 4, T.TYPE_DOUBLE, oneof=0)
    _field(anyv, "array_value", 5, T.TYPE_MESSAGE,
           type_name=pfx + "ArrayValue", oneof=0)
    _field(anyv, "kvlist_value", 6, T.TYPE_MESSAGE,
           type_name=pfx + "KeyValueList", oneof=0)
    _field(anyv, "bytes_value", 7, T.TYPE_BYTES, oneof=0)
    arrv = common.message_type.add()
    arrv.name = "ArrayValue"
    _field(arrv, "values", 1, T.TYPE_MESSAGE, repeated=True,
           type_name=pfx + "AnyValue")
    kvl = common.message_type.add()
    kvl.name = "KeyValueList"
    _field(kvl, "values", 1, T.TYPE_MESSAGE, repeated=True,
           type_name=pfx + "KeyValue")
    kv = common.message_type.add()
    kv.name = "KeyValue"
    _field(kv, "key", 1, T.TYPE_STRING)
    _field(kv, "value", 2, T.TYPE_MESSAGE, type_name=pfx + "AnyValue")
    scope = common.message_type.add()
    scope.name = "InstrumentationScope"
    _field(scope, "name", 1, T.TYPE_STRING)
    _field(scope, "version", 2, T.TYPE_STRING)
    _field(scope, "attributes", 3, T.TYPE_MESSAGE, repeated=True,
           type_name=pfx + "KeyValue")
    _field(scope, "dropped_attributes_count", 4, T.TYPE_UINT32)
    pool.Add(common)

    # ---- opentelemetry/proto/resource/v1/resource.proto
    res = dp.FileDescriptorProto()
    res.name = "opentelemetry/proto/resource/v1/resource.proto"
    res.package = "opentelemetry.proto.resource.v1"
    res.syntax = "proto3"
    res.dependency.append(common.name)
    resource = res.message_type.add()
    resource.name = "Resource"
    _field(resource, "attributes", 1, T.TYPE_MESSAGE, repeated=True,
           type_name=pfx + "KeyValue")
    _field(resource, "dropped_attributes_count", 2, T.TYPE_UINT32)
    pool.Add(res)

    # ---- opentelemetry/proto/logs/v1/logs.proto
    logs = dp.FileDescriptorProto()
    logs.name = "opentelemetry/proto/logs/v1/logs.proto"
    logs.package = "opentelemetry.proto.logs.v1"
    logs.syntax = "proto3"
    logs.dependency.append(common.name)
    logs.dependency.append(res.name)
    lpfx = ".opentelemetry.proto.logs.v1."
    rl = logs.message_type.add()
    rl.name = "ResourceLogs"
    _field(rl, "resource", 1, T.TYPE_MESSAGE,
           type_name=".opentelemetry.proto.resource.v1.Resource")
    _field(rl, "scope_logs", 2, T.TYPE_MESSAGE, repeated=True,
           type_name=lpfx + "ScopeLogs")
    _field(rl, "schema_url", 3, T.TYPE_STRING)
    sl = logs.message_type.add()
    sl.name = "ScopeLogs"
    _field(sl, "scope", 1, T.TYPE_MESSAGE,
           type_name=pfx + "InstrumentationScope")
    _field(sl, "log_records", 2, T.TYPE_MESSAGE, repeated=True,
           type_name=lpfx + "LogRecord")
    _field(sl, "schema_url", 3, T.TYPE_STRING)
    lr = logs.message_type.add()
    lr.name = "LogRecord"
    _field(lr, "time_unix_nano", 1, T.TYPE_FIXED64)
    # int32 stand-in for the SeverityNumber enum: identical varint wire
    # form; proto3 JSON renders the integer (matching otlp_json.py).
    _field(lr, "severity_number", 2, T.TYPE_INT32)
    _field(lr, "severity_text", 3, T.TYPE_STRING)
    _field(lr, "body", 5, T.TYPE_MESSAGE, type_name=pfx + "AnyValue")
    _field(lr, "attributes", 6, T.TYPE_MESSAGE, repeated=True,
           type_name=pfx + "KeyValue")
    _field(lr, "dropped_attributes_count", 7, T.TYPE_UINT32)
    _field(lr, "flags", 8, T.TYPE_FIXED32)
    _field(lr, "trace_id", 9, T.TYPE_BYTES)
    _field(lr, "span_id", 10, T.TYPE_BYTES)
    _field(lr, "observed_time_unix_nano", 11, T.TYPE_FIXED64)
    pool.Add(logs)

    # ---- opentelemetry/proto/collector/logs/v1/logs_service.proto
    coll = dp.FileDescriptorProto()
    coll.name = "opentelemetry/proto/collector/logs/v1/logs_service.proto"
    coll.package = "opentelemetry.proto.collector.logs.v1"
    coll.syntax = "proto3"
    coll.dependency.append(logs.name)
    req = coll.message_type.add()
    req.name = "ExportLogsServiceRequest"
    _field(req, "resource_logs", 1, T.TYPE_MESSAGE, repeated=True,
           type_name=lpfx + "ResourceLogs")
    pool.Add(coll)

    # ---- opentelemetry/proto/trace/v1/trace.proto
    trc = dp.FileDescriptorProto()
    trc.name = "opentelemetry/proto/trace/v1/trace.proto"
    trc.package = "opentelemetry.proto.trace.v1"
    trc.syntax = "proto3"
    trc.dependency.append(common.name)
    trc.dependency.append(res.name)
    tpfx = ".opentelemetry.proto.trace.v1."
    rsp = trc.message_type.add()
    rsp.name = "ResourceSpans"
    _field(rsp, "resource", 1, T.TYPE_MESSAGE,
           type_name=".opentelemetry.proto.resource.v1.Resource")
    _field(rsp, "scope_spans", 2, T.TYPE_MESSAGE, repeated=True,
           type_name=tpfx + "ScopeSpans")
    _field(rsp, "schema_url", 3, T.TYPE_STRING)
    ssp = trc.message_type.add()
    ssp.name = "ScopeSpans"
    _field(ssp, "scope", 1, T.TYPE_MESSAGE,
           type_name=pfx + "InstrumentationScope")
    _field(ssp, "spans", 2, T.TYPE_MESSAGE, repeated=True,
           type_name=tpfx + "Span")
    _field(ssp, "schema_url", 3, T.TYPE_STRING)
    sp = trc.message_type.add()
    sp.name = "Span"
    _field(sp, "trace_id", 1, T.TYPE_BYTES)
    _field(sp, "span_id", 2, T.TYPE_BYTES)
    _field(sp, "trace_state", 3, T.TYPE_STRING)
    _field(sp, "parent_span_id", 4, T.TYPE_BYTES)
    _field(sp, "name", 5, T.TYPE_STRING)
    # int32 stand-in for the SpanKind enum (identical varint wire form)
    _field(sp, "kind", 6, T.TYPE_INT32)
    _field(sp, "start_time_unix_nano", 7, T.TYPE_FIXED64)
    _field(sp, "end_time_unix_nano", 8, T.TYPE_FIXED64)
    _field(sp, "attributes", 9, T.TYPE_MESSAGE, repeated=True,
           type_name=pfx + "KeyValue")
    _field(sp, "dropped_attributes_count", 10, T.TYPE_UINT32)
    # Event and Link are NESTED messages in the published schema
    ev = sp.nested_type.add()
    ev.name = "Event"
    _field(ev, "time_unix_nano", 1, T.TYPE_FIXED64)
    _field(ev, "name", 2, T.TYPE_STRING)
    _field(ev, "attributes", 3, T.TYPE_MESSAGE, repeated=True,
           type_name=pfx + "KeyValue")
    _field(ev, "dropped_attributes_count", 4, T.TYPE_UINT32)
    lk = sp.nested_type.add()
    lk.name = "Link"
    _field(lk, "trace_id", 1, T.TYPE_BYTES)
    _field(lk, "span_id", 2, T.TYPE_BYTES)
    _field(lk, "trace_state", 3, T.TYPE_STRING)
    _field(lk, "attributes", 4, T.TYPE_MESSAGE, repeated=True,
           type_name=pfx + "KeyValue")
    _field(lk, "dropped_attributes_count", 5, T.TYPE_UINT32)
    _field(sp, "events", 11, T.TYPE_MESSAGE, repeated=True,
           type_name=tpfx + "Span.Event")
    _field(sp, "dropped_events_count", 12, T.TYPE_UINT32)
    _field(sp, "links", 13, T.TYPE_MESSAGE, repeated=True,
           type_name=tpfx + "Span.Link")
    _field(sp, "dropped_links_count", 14, T.TYPE_UINT32)
    _field(sp, "status", 15, T.TYPE_MESSAGE, type_name=tpfx + "Status")
    st = trc.message_type.add()
    st.name = "Status"
    # field 1 is reserved in the published schema (deprecated_code)
    _field(st, "message", 2, T.TYPE_STRING)
    _field(st, "code", 3, T.TYPE_INT32)  # StatusCode enum stand-in
    pool.Add(trc)

    # ---- opentelemetry/proto/metrics/v1/metrics.proto
    met = dp.FileDescriptorProto()
    met.name = "opentelemetry/proto/metrics/v1/metrics.proto"
    met.package = "opentelemetry.proto.metrics.v1"
    met.syntax = "proto3"
    met.dependency.append(common.name)
    met.dependency.append(res.name)
    mpfx = ".opentelemetry.proto.metrics.v1."
    rm = met.message_type.add()
    rm.name = "ResourceMetrics"
    _field(rm, "resource", 1, T.TYPE_MESSAGE,
           type_name=".opentelemetry.proto.resource.v1.Resource")
    _field(rm, "scope_metrics", 2, T.TYPE_MESSAGE, repeated=True,
           type_name=mpfx + "ScopeMetrics")
    _field(rm, "schema_url", 3, T.TYPE_STRING)
    sm = met.message_type.add()
    sm.name = "ScopeMetrics"
    _field(sm, "scope", 1, T.TYPE_MESSAGE,
           type_name=pfx + "InstrumentationScope")
    _field(sm, "metrics", 2, T.TYPE_MESSAGE, repeated=True,
           type_name=mpfx + "Metric")
    _field(sm, "schema_url", 3, T.TYPE_STRING)
    m = met.message_type.add()
    m.name = "Metric"
    m.oneof_decl.add().name = "data"
    _field(m, "name", 1, T.TYPE_STRING)
    _field(m, "description", 2, T.TYPE_STRING)
    _field(m, "unit", 3, T.TYPE_STRING)
    _field(m, "gauge", 5, T.TYPE_MESSAGE, type_name=mpfx + "Gauge", oneof=0)
    _field(m, "sum", 7, T.TYPE_MESSAGE, type_name=mpfx + "Sum", oneof=0)
    _field(m, "histogram", 9, T.TYPE_MESSAGE,
           type_name=mpfx + "Histogram", oneof=0)
    _field(m, "exponential_histogram", 10, T.TYPE_MESSAGE,
           type_name=mpfx + "ExponentialHistogram", oneof=0)
    _field(m, "summary", 11, T.TYPE_MESSAGE,
           type_name=mpfx + "Summary", oneof=0)
    g = met.message_type.add()
    g.name = "Gauge"
    _field(g, "data_points", 1, T.TYPE_MESSAGE, repeated=True,
           type_name=mpfx + "NumberDataPoint")
    s = met.message_type.add()
    s.name = "Sum"
    _field(s, "data_points", 1, T.TYPE_MESSAGE, repeated=True,
           type_name=mpfx + "NumberDataPoint")
    # int32 stand-in for the AggregationTemporality enum
    _field(s, "aggregation_temporality", 2, T.TYPE_INT32)
    _field(s, "is_monotonic", 3, T.TYPE_BOOL)
    h = met.message_type.add()
    h.name = "Histogram"
    _field(h, "data_points", 1, T.TYPE_MESSAGE, repeated=True,
           type_name=mpfx + "HistogramDataPoint")
    _field(h, "aggregation_temporality", 2, T.TYPE_INT32)
    hdp = met.message_type.add()
    hdp.name = "HistogramDataPoint"
    _field(hdp, "start_time_unix_nano", 2, T.TYPE_FIXED64)
    _field(hdp, "time_unix_nano", 3, T.TYPE_FIXED64)
    _field(hdp, "count", 4, T.TYPE_FIXED64)
    # `optional double sum = 5` in the published schema — declare it in
    # a synthetic oneof so 0.0 keeps explicit presence semantics
    hdp.oneof_decl.add().name = "_sum"
    _field(hdp, "sum", 5, T.TYPE_DOUBLE, oneof=0)
    _field(hdp, "bucket_counts", 6, T.TYPE_FIXED64, repeated=True)
    _field(hdp, "explicit_bounds", 7, T.TYPE_DOUBLE, repeated=True)
    _field(hdp, "attributes", 9, T.TYPE_MESSAGE, repeated=True,
           type_name=pfx + "KeyValue")
    _field(hdp, "flags", 10, T.TYPE_UINT32)
    # `optional double min = 11` / `max = 12` (published schema) —
    # synthetic oneofs for explicit presence, like sum
    hdp.oneof_decl.add().name = "_min"
    _field(hdp, "min", 11, T.TYPE_DOUBLE, oneof=1)
    hdp.oneof_decl.add().name = "_max"
    _field(hdp, "max", 12, T.TYPE_DOUBLE, oneof=2)
    eh = met.message_type.add()
    eh.name = "ExponentialHistogram"
    _field(eh, "data_points", 1, T.TYPE_MESSAGE, repeated=True,
           type_name=mpfx + "ExponentialHistogramDataPoint")
    _field(eh, "aggregation_temporality", 2, T.TYPE_INT32)
    edp = met.message_type.add()
    edp.name = "ExponentialHistogramDataPoint"
    # NOTE: attributes is field 1 here (unlike HistogramDataPoint's 9)
    _field(edp, "attributes", 1, T.TYPE_MESSAGE, repeated=True,
           type_name=pfx + "KeyValue")
    _field(edp, "start_time_unix_nano", 2, T.TYPE_FIXED64)
    _field(edp, "time_unix_nano", 3, T.TYPE_FIXED64)
    _field(edp, "count", 4, T.TYPE_FIXED64)
    edp.oneof_decl.add().name = "_sum"
    _field(edp, "sum", 5, T.TYPE_DOUBLE, oneof=0)
    _field(edp, "scale", 6, T.TYPE_SINT32)
    _field(edp, "zero_count", 7, T.TYPE_FIXED64)
    ebk = edp.nested_type.add()
    ebk.name = "Buckets"
    _field(ebk, "offset", 1, T.TYPE_SINT32)
    _field(ebk, "bucket_counts", 2, T.TYPE_UINT64, repeated=True)
    _field(edp, "positive", 8, T.TYPE_MESSAGE,
           type_name=mpfx + "ExponentialHistogramDataPoint.Buckets")
    _field(edp, "negative", 9, T.TYPE_MESSAGE,
           type_name=mpfx + "ExponentialHistogramDataPoint.Buckets")
    _field(edp, "flags", 10, T.TYPE_UINT32)
    su = met.message_type.add()
    su.name = "Summary"
    _field(su, "data_points", 1, T.TYPE_MESSAGE, repeated=True,
           type_name=mpfx + "SummaryDataPoint")
    sdp = met.message_type.add()
    sdp.name = "SummaryDataPoint"
    _field(sdp, "attributes", 7, T.TYPE_MESSAGE, repeated=True,
           type_name=pfx + "KeyValue")
    _field(sdp, "start_time_unix_nano", 2, T.TYPE_FIXED64)
    _field(sdp, "time_unix_nano", 3, T.TYPE_FIXED64)
    _field(sdp, "count", 4, T.TYPE_FIXED64)
    _field(sdp, "sum", 5, T.TYPE_DOUBLE)
    vaq = sdp.nested_type.add()
    vaq.name = "ValueAtQuantile"
    _field(vaq, "quantile", 1, T.TYPE_DOUBLE)
    _field(vaq, "value", 2, T.TYPE_DOUBLE)
    _field(sdp, "quantile_values", 6, T.TYPE_MESSAGE, repeated=True,
           type_name=mpfx + "SummaryDataPoint.ValueAtQuantile")
    _field(sdp, "flags", 8, T.TYPE_UINT32)
    ndp = met.message_type.add()
    ndp.name = "NumberDataPoint"
    ndp.oneof_decl.add().name = "value"
    _field(ndp, "start_time_unix_nano", 2, T.TYPE_FIXED64)
    _field(ndp, "time_unix_nano", 3, T.TYPE_FIXED64)
    _field(ndp, "as_double", 4, T.TYPE_DOUBLE, oneof=0)
    _field(ndp, "as_int", 6, T.TYPE_SFIXED64, oneof=0)
    _field(ndp, "attributes", 7, T.TYPE_MESSAGE, repeated=True,
           type_name=pfx + "KeyValue")
    _field(ndp, "flags", 8, T.TYPE_UINT32)
    pool.Add(met)

    # ---- opentelemetry/proto/collector/metrics/v1/metrics_service.proto
    mcoll = dp.FileDescriptorProto()
    mcoll.name = (
        "opentelemetry/proto/collector/metrics/v1/metrics_service.proto"
    )
    mcoll.package = "opentelemetry.proto.collector.metrics.v1"
    mcoll.syntax = "proto3"
    mcoll.dependency.append(met.name)
    mreq = mcoll.message_type.add()
    mreq.name = "ExportMetricsServiceRequest"
    _field(mreq, "resource_metrics", 1, T.TYPE_MESSAGE, repeated=True,
           type_name=mpfx + "ResourceMetrics")
    pool.Add(mcoll)

    # ---- opentelemetry/proto/collector/trace/v1/trace_service.proto
    tcoll = dp.FileDescriptorProto()
    tcoll.name = "opentelemetry/proto/collector/trace/v1/trace_service.proto"
    tcoll.package = "opentelemetry.proto.collector.trace.v1"
    tcoll.syntax = "proto3"
    tcoll.dependency.append(trc.name)
    treq = tcoll.message_type.add()
    treq.name = "ExportTraceServiceRequest"
    _field(treq, "resource_spans", 1, T.TYPE_MESSAGE, repeated=True,
           type_name=tpfx + "ResourceSpans")
    pool.Add(tcoll)

    def cls(full_name: str):
        return message_factory.GetMessageClass(
            pool.FindMessageTypeByName(full_name)
        )

    return {
        "request": cls(
            "opentelemetry.proto.collector.logs.v1.ExportLogsServiceRequest"
        ),
        "log_record": cls("opentelemetry.proto.logs.v1.LogRecord"),
        "trace_request": cls(
            "opentelemetry.proto.collector.trace.v1.ExportTraceServiceRequest"
        ),
        "span": cls("opentelemetry.proto.trace.v1.Span"),
        "metrics_request": cls(
            "opentelemetry.proto.collector.metrics.v1."
            "ExportMetricsServiceRequest"
        ),
    }


@dataclasses.dataclass(frozen=True)
class Signal:
    """One OTLP signal's codec spec: everything the wire codecs need to
    know about it (the reference gives every signal the same marshaler
    pair over one proto — pdata/plog/pb.go, ptrace/pb.go, pmetric/pb.go).

    ``root`` is the request's one repeated field (proto3-JSON name),
    ``request`` the ``_classes()`` key of its request message,
    ``tree_type`` the Arrow type of ``root``, declared beside the
    signal's nest/flatten (both wires decode into it, never into an
    inferred shape: proto3 omits unset fields), ``nest`` /
    ``flatten`` the flat-table ↔ request-tree halves, ``prefix`` the
    ``.binpb`` file-name prefix, and ``ids`` the ``(path, fields)`` pairs
    under each resource that carry trace/span IDs — hex on the OTLP JSON
    wire, raw bytes on the binary one."""

    root: str
    request: str
    tree_type: pa.DataType
    nest: object
    flatten: object
    prefix: str
    ids: tuple = ()


SIGNALS = {
    "logs": Signal(
        "resourceLogs", "request", _RESOURCE_LOGS,
        nest_otlp_batch, flatten_otlp_batch, "otlp",
        ((("scopeLogs", "logRecords"), ("traceId", "spanId")),),
    ),
    "traces": Signal(
        "resourceSpans", "trace_request", _RESOURCE_SPANS,
        nest_otlp_traces_batch, flatten_otlp_traces_batch, "otlp-traces",
        (
            (("scopeSpans", "spans"), ("traceId", "spanId", "parentSpanId")),
            (("scopeSpans", "spans", "links"), ("traceId", "spanId")),
        ),
    ),
    "metrics": Signal(
        "resourceMetrics", "metrics_request", _RESOURCE_METRICS,
        nest_otlp_metrics_batch, flatten_otlp_metrics_batch, "otlp-metrics",
    ),
}


def _convert_ids(signal: Signal, resources: list, fn) -> None:
    """Apply ``fn`` in place to every ID field ``signal.ids`` names under
    ``resources`` — only those paths, never the whole tree. OTLP JSON
    carries trace/span IDs as hex; standard proto3 JSON (what
    json_format implements) expects base64 for bytes. The Go codec has
    custom ID marshaling (pdata/pcommon/trace_id.go); this is its
    Python analogue at the codec boundary."""
    for path, fields in signal.ids:
        nodes = resources
        for key in path:
            nodes = [child for node in nodes for child in node.get(key, ())]
        for node in nodes:
            for f in fields:
                v = node.get(f)
                if v is not None:
                    node[f] = fn(v)


def encode_request(signal: Signal, request_row: dict, request_cls=None) -> bytes:
    """One nested request row (``signal.nest`` output, pylist form, IDs
    in hex) → OTLP/pb bytes. The proto3-JSON dict IS the interchange
    between the two codecs: strip the nulls json would omit, convert hex
    IDs to the base64 json_format expects for bytes, let ParseDict
    apply the standard JSON mapping (camelCase names, int64-as-string),
    serialize."""
    from google.protobuf import json_format

    if request_cls is None:
        request_cls = _classes()[signal.request]
    # _strip_nulls rebuilds every dict/list, so the in-place ID
    # conversion never touches the caller's tree
    row = _strip_nulls(request_row)
    _convert_ids(
        signal,
        row.get(signal.root, []),
        lambda v: base64.b64encode(bytes.fromhex(v)).decode(),
    )
    msg = request_cls()
    json_format.ParseDict(row, msg)
    return msg.SerializeToString()


def decode_request(signal: Signal, buf: bytes, request_cls=None) -> dict:
    """OTLP/pb bytes → proto3-JSON dict (camelCase, int64 as string,
    IDs back to hex) — the exact tree the NDJSON reader would
    produce."""
    from google.protobuf import json_format

    if request_cls is None:
        request_cls = _classes()[signal.request]
    msg = request_cls()
    msg.ParseFromString(bytes(buf))
    tree = json_format.MessageToDict(msg)
    _convert_ids(
        signal, tree.get(signal.root, []), lambda v: base64.b64decode(v).hex()
    )
    return tree


def typed_trees(signal: Signal, trees: list) -> pa.Table:
    """Decoded ``signal.root`` lists, one per request → the typed nested
    table ``signal.flatten`` takes."""
    return pa.table({signal.root: pa.array(trees, type=signal.tree_type)})


class _PbWriter:
    """Binary-protobuf Export sink: each writer batch of k request rows
    is encoded, FRAMED into one payload (``wirefs.frame_requests`` —
    magic + length prefixes; one file per request was a 10^8-small-
    files problem at 10^12 rows), wire-compressed whole, and landed
    atomically under a content-addressed name on any pyarrow
    filesystem (retry-idempotent; see ``wirefs``)."""

    def __init__(
        self,
        out_dir: str,
        compression: str | None = None,
        *,
        signal: Signal,
        filesystem=None,
    ):
        self.out_dir = out_dir
        self.compression = compression
        self.signal = signal
        self.filesystem = filesystem
        self.ext = ".binpb" + _COMPRESS_EXT.get(compression or "", "")
        self._dir_ready = False

    def __call__(self, t: pa.Table) -> pa.Table:
        req_cls = _classes()[self.signal.request]  # once per batch, per worker
        fs, dir_path = wirefs.resolve_fs(self.out_dir, self.filesystem)
        if not self._dir_ready:
            wirefs.ensure_dir(fs, dir_path)
            self._dir_ready = True
        blobs = [encode_request(self.signal, row, req_cls) for row in t.to_pylist()]
        if blobs:
            payload = compress_payload(
                wirefs.frame_requests(blobs), self.compression
            )
            name = wirefs.content_name(self.signal.prefix, payload, self.ext)
            wirefs.atomic_write(fs, dir_path, name, payload)
        return pa.table({"rows": pa.array([len(blobs)], type=pa.int64())})


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
    return write_requests(
        ds, out_dir, compression, rows_per_request, nest=signal.nest,
        writer=functools.partial(_PbWriter, signal=signal), **fs_opts,
    )


def _decode_batch(signal: Signal, t: pa.Table) -> pa.Table:
    """read_binary_files block → flat rows. Each row is one FILE
    payload holding one or more framed request blobs; decompress by
    payload magic, unframe (a bare unframed request passes through),
    decode all, type the trees explicitly, flatten once."""
    req_cls = _classes()[signal.request]  # once per batch, per worker
    trees = [
        decode_request(signal, req, req_cls).get(signal.root, [])
        for b, p in zip(t["bytes"].to_pylist(), t["path"].to_pylist())
        for req in unframe_requests(decompress_payload(b, p))
    ]
    return signal.flatten(typed_trees(signal, trees))


def read_otlp_pb(paths, filesystem=None, *, signal: Signal) -> ray.data.Dataset:
    """Unmarshal: .binpb files of Export requests → flat rows (the same
    schema as the signal's NDJSON reader)."""
    return ray.data.read_binary_files(
        paths, include_paths=True, filesystem=filesystem
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
