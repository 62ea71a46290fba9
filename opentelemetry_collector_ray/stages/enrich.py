"""Enrich stage — broadcast small-side dimension lookups.

Reference idiom: enrichment processors insert attributes from a side
dictionary (docs/processing.md:86-94 — k8sattributes/resourcedetection
style; the in-core API surface is ``pcommon.Map.PutStr`` upserts,
pdata/pcommon/map.go:121-160). There is no join in the collector core
and there is none here: the dimension tables are tiny dicts that travel
with the stage callable and are applied per batch as a vectorized
dictionary join — ``pc.index_in`` (hash lookup, C++) + ``pc.take``. No
shuffle at any scale.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..schema import DEFAULT_ROUTE, DIM_ROLE_ROUTE, DIM_TOOL_SERVICE


def _dict_lookup(
    col: pa.ChunkedArray | pa.Array,
    mapping: dict[str, str],
    default: str | None = None,
) -> pa.Array:
    """Vectorized dict join: values not in ``mapping`` map to ``default``."""
    # an ALL-null block degrades the column to Arrow's null TYPE and
    # index_in throws ArrowTypeError (CLAUDE.md quirk) — nulls map to
    # default like any other non-key value
    if pa.types.is_null(col.type):
        return pa.array([default] * len(col), type=pa.string())
    keys = pa.array(list(mapping.keys()), type=pa.string())
    vals = list(mapping.values())
    if default is not None:
        vals = vals + [default]
        fallback = len(vals) - 1
    idx = pc.index_in(col, value_set=keys)
    if default is not None:
        idx = pc.fill_null(idx, fallback)
    out = pc.take(pa.array(vals, type=pa.string()), idx)
    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    return out


def enrich_batch(
    batch: pa.Table,
    tool_service: dict[str, str] = DIM_TOOL_SERVICE,
    role_route: dict[str, str] = DIM_ROLE_ROUTE,
) -> pa.Table:
    """Append ``service`` (tool→service) and ``route`` (role→route)."""
    service = _dict_lookup(batch["tool"], tool_service, default="unknown")
    route = _dict_lookup(batch["role"], role_route, default=DEFAULT_ROUTE)
    return batch.append_column("service", service).append_column("route", route)
