"""Route stage — the fan-out consumer re-expressed as row tagging.

Reference: ``fanoutconsumer`` hands one batch to N downstream consumers,
cloning only for mutating consumers (service/internal/fanoutconsumer/
logs.go:35-85); the connector Router restricts the fan-out per content
(logs.go:87-132). Arrow blocks are immutable, so fan-out needs no clone
at all: each row is tagged with the set of sinks it belongs to, and each
sink's exporter is a filter + write over the SAME underlying blocks.

Routing rules (fixture semantics, FIXTURES.md §3): every row → its
``route`` sink; rows with level == 'ERROR' additionally → the 'errors'
sink. Rows can land in ≥2 sinks — the multi-exporter pipeline case of
graph_test.go (one batch asserted to arrive at each exporter).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import ERROR_SINK


def _column(batch: pa.Table, name: str) -> pa.Array:
    col = batch[name]
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _is_error(batch: pa.Table) -> pa.Array:
    """The fan-out rule: rows with level == 'ERROR' also go to the
    'errors' sink (a null level never does)."""
    mask = pc.equal(pc.fill_null(batch["level"], ""), "ERROR")
    return mask.combine_chunks() if isinstance(mask, pa.ChunkedArray) else mask


def route_batch(batch: pa.Table) -> pa.Table:
    """Append ``sinks: list<string>`` — the sink set per row.

    Built from integer offsets: row ``j``'s list holds index ``j`` (its
    route) and, for an ERROR row, index ``n`` (the 'errors' sink); one
    ``pc.take`` over ``route ∪ ['errors']`` gathers the values."""
    n = len(batch)
    mask = _is_error(batch).to_numpy(zero_copy_only=False)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(1 + mask.astype(np.int64), out=offsets[1:])
    idx = np.full(offsets[-1], n, dtype=np.int64)
    idx[offsets[:-1]] = np.arange(n)
    values = pc.take(
        pa.concat_arrays(
            [_column(batch, "route"), pa.array([ERROR_SINK], pa.string())]
        ),
        idx,
    )
    sinks = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), values)
    return batch.append_column("sinks", sinks)


def explode_sinks_batch(batch: pa.Table) -> pa.Table:
    """One output row per (input row, sink) — the exploded routing table
    used for per-sink aggregates and routed-row-equality checks.

    Vectorized as two takes (base: every row with sink=route; extra:
    ERROR rows with sink='errors') concatenated — no per-row Python.
    Works on batches WITHOUT a ``sinks`` column (it derives the same
    rule), so it composes directly after enrich.
    """
    base = batch.append_column("sink", _column(batch, "route"))
    extra = batch.filter(_is_error(batch))
    extra = extra.append_column(
        "sink", pa.array([ERROR_SINK] * len(extra), type=pa.string())
    )
    return pa.concat_tables([base, extra])
