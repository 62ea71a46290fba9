"""Open-ended attribute maps as a column type — ``pcommon.Map`` parity.

The reference's attribute container is an ordered map with upsert /
Remove / RemoveIf / rename over ARBITRARY keys (pdata/pcommon/map.go:
64-272 — ``PutStr``/``Get``/``Remove``/``RemoveIf``); the flat-column
AttributesStage covers keys you planned for, this module covers the
"attributes I didn't plan for" case: a ``list<struct<key:string,
value:string>>`` column (the Arrow encoding of a string map — the same
entry layout OTLP JSON uses for ``attributes``) with every operation
vectorized over the FLATTENED entry arrays (``pc.list_flatten`` +
``pc.list_parent_indices`` + numpy masks, offsets rebuilt with
``np.bincount``) — no per-row Python in any mutation.

Semantics mirrored from pcommon.Map:

- keys are unique; ``map_upsert`` drops existing entries for the key
  then appends one entry per row (``PutStr``), ``map_insert`` only
  appends where the key is absent, ``map_update`` only rewrites where
  present.
- ``map_remove`` drops a key (``Remove``); ``map_remove_if`` takes a
  vectorized ``(keys, values) -> drop-mask`` predicate (``RemoveIf``).
- ``map_get`` is first-match (insertion order — maps are unique-keyed,
  so first IS the match).
- a NULL map behaves as an empty map (the reference's zero-value Map);
  mutations materialize it.

``MapAttributesStage`` wires the ops into the config surface beside
AttributesStage, and ``stages.ottl`` accepts ``col['key'] == 'v'``
subscripts so ``where`` clauses reach map keys.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MAP_TYPE = pa.list_(
    pa.struct([pa.field("key", pa.string()), pa.field("value", pa.string())])
)


def _as_list_array(col) -> pa.ListArray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col


def _full_object(n: int, value) -> np.ndarray:
    """Object array of ``value`` repeated ``n`` times. NOT ``np.full``:
    np.full routes a str scalar through a U-dtype intermediate even for
    ``dtype=object``, silently stripping trailing ``\\x00`` (hypothesis
    found upsert of ``'\\x00'`` landing as ``''``)."""
    out = np.empty(n, dtype=object)
    out[:] = value
    return out


def _parts(arr: pa.ListArray, n: int):
    """(keys, values, parents) of every entry, as numpy; null lists
    contribute no entries (== empty map)."""
    parents = pc.list_parent_indices(arr).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(arr)
    keys = flat.field("key").to_numpy(zero_copy_only=False)
    values = flat.field("value").to_numpy(zero_copy_only=False)
    return (
        np.asarray(keys, dtype=object),
        np.asarray(values, dtype=object),
        parents.astype(np.int64),
    )


def _build(keys: np.ndarray, values: np.ndarray, parents: np.ndarray, n: int) -> pa.ListArray:
    """Rebuild a map column from flat (key, value, parent) arrays; the
    entries must already be sorted by parent (stable ops below keep
    them so)."""
    counts = np.bincount(parents, minlength=n) if len(parents) else np.zeros(n, np.int64)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    entries = pa.StructArray.from_arrays(
        [
            pa.array(keys, type=pa.string()),
            pa.array(values, type=pa.string()),
        ],
        names=["key", "value"],
    )
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), entries)


def _filtered(n: int, keep: np.ndarray, k, v, p) -> pa.ListArray:
    return _build(k[keep], v[keep], p[keep], n)


def map_remove(col, key: str) -> pa.ListArray:
    """Drop every entry with ``key`` (pcommon.Map.Remove)."""
    arr = _as_list_array(col)
    n = len(arr)
    k, v, p = _parts(arr, n)
    return _filtered(n, k != key, k, v, p)


def map_remove_if(col, predicate) -> pa.ListArray:
    """Drop entries where ``predicate(keys, values)`` is True —
    vectorized RemoveIf (pcommon/map.go:89-105). ``predicate`` receives
    the flat numpy key/value arrays and returns a boolean drop-mask."""
    arr = _as_list_array(col)
    n = len(arr)
    k, v, p = _parts(arr, n)
    drop = np.asarray(predicate(k, v), dtype=bool)
    return _filtered(n, ~drop, k, v, p)


def map_rename(col, old: str, new: str) -> pa.ListArray:
    """Rewrite key ``old`` → ``new`` in place (entry order kept)."""
    arr = _as_list_array(col)
    n = len(arr)
    k, v, p = _parts(arr, n)
    k = k.copy()
    k[k == old] = new
    return _build(k, v, p, n)


def _append_rows(k, v, p, n, key: str, values, rows: np.ndarray):
    """Append one (key, values[i]) entry to every row index in
    ``rows``, after the row's existing entries (stable merge by
    parent)."""
    if np.isscalar(values) or values is None:
        values = _full_object(n, values)
    values = np.asarray(values, dtype=object)
    ak = np.concatenate([k, _full_object(len(rows), key)])
    av = np.concatenate([v, values[rows]])
    ap = np.concatenate([p, rows.astype(np.int64)])
    # stable sort by parent keeps existing entry order, appends last
    order = np.argsort(ap, kind="stable")
    return ak[order], av[order], ap[order]


def map_upsert(col, key: str, values) -> pa.ListArray:
    """PutStr (pcommon/map.go:140-160): update in place where the key
    exists (entry keeps its position — Go semantics), append where
    absent. ``values`` is a scalar or a per-row array."""
    return map_insert(map_update(col, key, values), key, values)


def map_insert(col, key: str, values) -> pa.ListArray:
    """Append ``key`` only to rows where it is absent."""
    arr = _as_list_array(col)
    n = len(arr)
    k, v, p = _parts(arr, n)
    has = np.zeros(n, dtype=bool)
    if len(p):
        has[p[k == key]] = True
    rows = np.flatnonzero(~has).astype(np.int64)
    k, v, p = _append_rows(k, v, p, n, key, values, rows)
    return _build(k, v, p, n)


def map_update(col, key: str, values) -> pa.ListArray:
    """Rewrite the value of ``key`` only where it is present."""
    arr = _as_list_array(col)
    n = len(arr)
    k, v, p = _parts(arr, n)
    if np.isscalar(values) or values is None:
        values = _full_object(n, values)
    values = np.asarray(values, dtype=object)
    hit = k == key
    v = v.copy()
    v[hit] = values[p[hit]]
    return _build(k, v, p, n)


def map_get(col, key: str) -> pa.Array:
    """First-match value of ``key`` per row (null when absent) — the
    vectorized Get; feeds OTTL subscript conditions."""
    arr = _as_list_array(col)
    n = len(arr)
    k, v, p = _parts(arr, n)
    out = np.full(n, None, dtype=object)
    hit = k == key
    # reversed assignment → FIRST occurrence wins
    out[p[hit][::-1]] = v[hit][::-1]
    return pa.array(out, type=pa.string())


def map_keep_keys(col, keys: list[str]) -> pa.ListArray:
    """Drop every entry whose key is not in ``keys`` (keep_keys)."""
    arr = _as_list_array(col)
    n = len(arr)
    k, v, p = _parts(arr, n)
    keep = np.isin(k, np.asarray(list(keys), dtype=object))
    return _filtered(n, keep, k, v, p)


def map_len(col) -> pa.Array:
    """Entry count per row (pcommon.Map.Len); null map counts 0."""
    arr = _as_list_array(col)
    return pc.fill_null(pc.cast(pc.list_value_length(arr), pa.int64()), 0)


def map_from_json(col, *, out_type=MAP_TYPE) -> pa.ListArray:
    """Parse a column of JSON-object strings into a map column. JSON
    parsing is inherently per-value (stdlib ``json`` — construction
    path, not the mutation hot path); non-object / null / malformed
    inputs become empty maps. Values stringify: strings verbatim,
    numbers/bools/objects via ``json.dumps`` (stable, SQL-mirrorable
    via DuckDB json_extract_string)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = col.to_numpy(zero_copy_only=False)
    keys: list[str] = []
    values: list[str | None] = []
    parents: list[int] = []
    for i, s in enumerate(vals):
        if s is None:
            continue
        try:
            obj = json.loads(s)
        except (ValueError, TypeError):
            continue
        if not isinstance(obj, dict):
            continue
        for kk, vv in obj.items():
            keys.append(kk)
            if vv is None:
                values.append(None)
            elif isinstance(vv, str):
                values.append(vv)
            elif isinstance(vv, bool):
                values.append("true" if vv else "false")
            else:
                values.append(json.dumps(vv))
            parents.append(i)
    return _build(
        np.asarray(keys, dtype=object),
        np.asarray(values, dtype=object),
        np.asarray(parents, dtype=np.int64),
        len(vals),
    )


def map_from_columns(batch: pa.Table, cols: list[str]) -> pa.ListArray:
    """Build a map column from flat columns (key = column name), the
    inverse of denormalization — fully vectorized interleave."""
    n = len(batch)
    m = len(cols)
    keys = np.empty(n * m, dtype=object)
    values = np.empty(n * m, dtype=object)
    for j, c in enumerate(cols):
        col = batch[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if not pa.types.is_string(col.type):
            col = pc.cast(col, pa.string())
        keys[j::m] = c
        values[j::m] = col.to_numpy(zero_copy_only=False)
    parents = np.repeat(np.arange(n, dtype=np.int64), m)
    return _build(keys, values, parents, n)


def map_explode(batch: pa.Table, col: str, id_cols: list[str]) -> pa.Table:
    """One output row per map ENTRY: (id_cols..., key, value) — the
    flat, SQL-mirrorable projection of a map column."""
    arr = _as_list_array(batch[col])
    n = len(arr)
    k, v, p = _parts(arr, n)
    out = {}
    for c in id_cols:
        cc = batch[c]
        if isinstance(cc, pa.ChunkedArray):
            cc = cc.combine_chunks()
        out[c] = cc.take(pa.array(p))
    out["key"] = pa.array(k, type=pa.string())
    out["value"] = pa.array(v, type=pa.string())
    return pa.table(out)


_MAP_ACTIONS = {
    "upsert",
    "insert",
    "update",
    "delete",
    "rename",
    "keep_keys",
    "delete_matching",
}


class MapAttributesStage:
    """Batch stage running an action list against ONE map column —
    the pcommon.Map mutation surface for open-ended attributes. Actions
    (validated once at construction)::

        {action: upsert|insert|update, key: K, value: V}
        {action: upsert|insert|update, key: K, value_column: COL}
        {action: delete, key: K}
        {action: rename, key: K, to: K2}
        {action: keep_keys, keys: [K, ...]}
        {action: delete_matching, key: K, value: V}   # RemoveIf ==

    ``value_column`` takes the per-row value from a flat column (cast
    to string) — the "promote a column into the map" direction.
    ``from_json: <col>`` builds the map from a JSON-object string
    column first (ingest path for "attributes I didn't plan for")."""

    def __init__(self, column: str, actions: list[dict], from_json: str | None = None):
        self.column = column
        self.from_json = from_json
        self.actions = list(actions)
        for a in self.actions:
            if a.get("action") not in _MAP_ACTIONS:
                raise ValueError(f"unknown map action: {a.get('action')!r}")
            if a["action"] in {"upsert", "insert", "update"} and (
                a.get("key") is None
                or (a.get("value") is None and a.get("value_column") is None)
            ):
                raise ValueError(
                    f"{a['action']} needs key and value or value_column"
                )
            if a["action"] == "delete_matching" and (
                a.get("key") is None or a.get("value") is None
            ):
                raise ValueError("delete_matching needs key and value")
            if a["action"] == "delete" and a.get("key") is None:
                raise ValueError("delete needs key")
            if a["action"] == "rename" and (
                a.get("key") is None or a.get("to") is None
            ):
                raise ValueError("rename needs key and to")
            if a["action"] == "keep_keys" and not a.get("keys"):
                raise ValueError("keep_keys needs keys")

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.from_json is not None and self.column not in batch.column_names:
            arr = map_from_json(batch[self.from_json])
        else:
            arr = _as_list_array(batch[self.column])
        def val(a):
            vc = a.get("value_column")
            if vc is None:
                return a["value"]
            c = batch[vc]
            if isinstance(c, pa.ChunkedArray):
                c = c.combine_chunks()
            if not pa.types.is_string(c.type):
                c = pc.cast(c, pa.string())
            return np.asarray(c.to_numpy(zero_copy_only=False), dtype=object)

        for a in self.actions:
            act = a["action"]
            if act == "upsert":
                arr = map_upsert(arr, a["key"], val(a))
            elif act == "insert":
                arr = map_insert(arr, a["key"], val(a))
            elif act == "update":
                arr = map_update(arr, a["key"], val(a))
            elif act == "delete":
                arr = map_remove(arr, a["key"])
            elif act == "rename":
                arr = map_rename(arr, a["key"], a["to"])
            elif act == "keep_keys":
                arr = map_keep_keys(arr, a["keys"])
            elif act == "delete_matching":
                mk, mv = a["key"], a["value"]
                arr = map_remove_if(
                    arr, lambda k, v, mk=mk, mv=mv: (k == mk) & (v == mv)
                )
        if self.column in batch.column_names:
            return batch.set_column(
                batch.column_names.index(self.column), self.column, arr
            )
        return batch.append_column(self.column, arr)
