"""Arrow schemas for the transcript data model.

The reference's unit of flow is a ``plog.Logs`` batch — a 3-level nested
tree Resource→Scope→LogRecord (pdata/plog/logs.go:24-62,
pdata/plog/generated_logrecord.go:34-159). Here the model is a *flat*
Arrow table, one row per log record (= one conversation turn), with the
resource/scope context denormalized into columns; each Ray Data block is
the ``plog.Logs`` analogue. Item counting (plog/logs.go:45-57
``LogRecordCount``) becomes plain row count.

Input shape (BASELINE.json ``input_hint``)::

    conv_id:string, turn_idx:int32, role:string, text:string,
    tool:string, ts:timestamp[us]

Derived stage schemas append typed columns (the ``pcommon.Value``
variant attrs of the reference become typed columns after parsing;
pdata/pcommon/value.go:31-40).
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------- input
TRANSCRIPT_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
    ]
)

# Severity vocabulary — mirrors plog/severity_number.go:21-30 (Trace..Fatal
# collapsed to the 4 text levels the grok fixture emits).
LEVELS = ["DEBUG", "INFO", "WARN", "ERROR"]

# SeverityText → SeverityNumber mapping (plog/severity_number.go: DEBUG=5,
# INFO=9, WARN=13, ERROR=17 — the *first* number of each 4-wide band).
SEVERITY_NUMBER = {"DEBUG": 5, "INFO": 9, "WARN": 13, "ERROR": 17}

ROLES = ["user", "assistant", "tool", "system"]
TOOLS = ["bash", "browser", "python", "sql", "none"]
ACTIONS = ["search", "fetch", "write", "plan"]

# ------------------------------------------------------- stage outputs
PARSED_FIELDS = [
    pa.field("level", pa.string()),
    pa.field("action", pa.string()),
    pa.field("latency_ms", pa.int64()),
    pa.field("msg", pa.string()),
    pa.field("parse_ok", pa.bool_()),
]

ENRICHED_FIELDS = [
    pa.field("service", pa.string()),
    pa.field("route", pa.string()),
]

ROUTED_FIELDS = [pa.field("sinks", pa.list_(pa.string()))]

PARSED_SCHEMA = pa.schema(list(TRANSCRIPT_SCHEMA) + PARSED_FIELDS)
ENRICHED_SCHEMA = pa.schema(list(PARSED_SCHEMA) + ENRICHED_FIELDS)
ROUTED_SCHEMA = pa.schema(list(ENRICHED_SCHEMA) + ROUTED_FIELDS)

# ------------------------------------------------- dimension tables
# Enrich-stage lookup dicts (the contrib resource/attributes-processor
# enrichment idiom — docs/processing.md:86-94: insert attributes from a
# side dictionary). Tiny → broadcast, never shuffled.
DIM_TOOL_SERVICE = {
    "bash": "infra",
    "browser": "web",
    "python": "compute",
    "sql": "data",
    "none": "unknown",
    "": "unknown",
}

DIM_ROLE_ROUTE = {
    "user": "ingest",
    "assistant": "replies",
    "tool": "tooling",
    "system": "audit",
}
# the route of a role that the role → route table does not name
DEFAULT_ROUTE = "ingest"

# Every row goes to its role-route sink; ERROR-level rows additionally go
# to the "errors" sink (fan-out: one row → ≥1 sinks, the fanoutconsumer
# clone semantics of service/internal/fanoutconsumer/logs.go:35-85
# reduced to pure row tagging over immutable Arrow blocks).
ERROR_SINK = "errors"
SINKS = ["ingest", "replies", "tooling", "audit", ERROR_SINK]
