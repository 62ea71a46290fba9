"""Attributes stage — the collector's attribute-mutation processor family.

Reference semantics: the contrib attributes/resource processors execute a
list of actions over ``pcommon.Map`` (docs/processing.md:36-50,151-205;
primitive API pdata/pcommon/map.go:76-160 — ``PutStr``/``Remove``/
``RemoveIf``/upsert) — insert (only if absent), update (only if
present), upsert, delete, rename, hash, extract (regex → new
attributes), keep_keys, replace_pattern.

Here attributes are flat Arrow columns, so each action is a vectorized
column operation; an ``AttributesStage`` holds a compiled action list
(validated once, when the stage is built) and applies it per batch. ``hash`` uses md5
hex (DuckDB ``md5()``-compatible so the oracle can mirror it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .filters import _mask
from .ottl import eval_condition, parse_condition

_VALID = {
    "insert",
    "update",
    "upsert",
    "delete",
    "rename",
    "hash",
    "extract",
    "keep_keys",
    "replace_pattern",
    "convert",
    "truncate",
}

_CONVERT_TYPES = {"int": pa.int64(), "double": pa.float64(), "string": pa.string()}


@dataclass
class Action:
    action: str
    key: str | None = None
    value: object | None = None
    to: str | None = None
    pattern: str | None = None
    replacement: str | None = None
    keys: list[str] = field(default_factory=list)
    # OTTL-style row condition (docs/processing.md:100-148 `where ...`):
    # a (column, op, value) triple OR a condition STRING parsed by
    # `stages.ottl` ("level == 'ERROR' and latency_ms > 100"); the
    # action mutates ONLY matching rows (null comparisons = no-match,
    # same as the filter stage)
    where: tuple | str | None = None

    def __post_init__(self):
        if self.where is not None and not isinstance(self.where, str):
            self.where = tuple(self.where)  # YAML/config lists coerce

    def validate(self) -> None:
        if self.action not in _VALID:
            raise ValueError(f"unknown attributes action: {self.action!r}")
        if self.where is not None:
            if self.action in {"rename", "keep_keys", "convert"}:
                raise ValueError(
                    f"{self.action} is structural — 'where' not supported"
                )
            if isinstance(self.where, str):
                self._where_ast = parse_condition(self.where)  # loud now
            elif len(tuple(self.where)) != 3:
                raise ValueError(
                    "'where' must be a (column, op, value) triple "
                    "or a condition string"
                )
        if self.action in {"insert", "update", "upsert"} and (
            self.key is None or self.value is None
        ):
            raise ValueError(f"{self.action} needs key and value")
        if self.action in {"delete", "hash"} and self.key is None:
            raise ValueError(f"{self.action} needs key")
        if self.action == "rename" and (self.key is None or self.to is None):
            raise ValueError("rename needs key and to")
        if self.action == "extract" and (
            self.key is None or self.pattern is None
        ):
            raise ValueError("extract needs key and pattern")
        if self.action == "keep_keys" and not self.keys:
            raise ValueError("keep_keys needs keys")
        if self.action == "replace_pattern" and (
            self.key is None
            or self.pattern is None
            or self.replacement is None
        ):
            raise ValueError("replace_pattern needs key, pattern, replacement")
        if self.action == "convert":
            if self.key is None or self.to not in _CONVERT_TYPES:
                raise ValueError(
                    "convert needs key and to in "
                    f"{sorted(_CONVERT_TYPES)} (got {self.to!r})"
                )
        if self.action == "truncate" and (
            self.key is None or not isinstance(self.value, int) or self.value < 0
        ):
            raise ValueError("truncate needs key and a non-negative int value")


def _const_column(value, length: int) -> pa.Array:
    return pa.array([value] * length)


def _md5_hex(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """md5 hexdigest per value (null-preserving). hashlib releases the
    GIL-ish overhead per string but runs at C speed; matches DuckDB
    ``md5(x)`` so oracles can verify."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
        col = pc.cast(col, pa.string())
    vals = col.to_numpy(zero_copy_only=False)
    out = np.empty(len(vals), dtype=object)
    for i, v in enumerate(vals):
        out[i] = None if v is None else hashlib.md5(v.encode()).hexdigest()
    return pa.array(out, type=pa.string())


def _convert_col(col: pa.ChunkedArray | pa.Array, to: str) -> pa.Array:
    """contrib attributes `convert` action (attraction.go CONVERT):
    vectorized type conversion. double→int truncates toward zero (Go
    int64() semantics; oracle mirror: ``cast(trunc(x) AS bigint)``);
    string→numeric yields null for non-parseable values (mirror with a
    regex-guarded CASE, not TRY_CAST, to stay lockstep); int→string is
    exact. double→string is supported but NOT oracle-stable (Go vs SQL
    float formatting differ)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    target = _CONVERT_TYPES[to]
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        if to == "string":
            return col
        pat = r"^-?[0-9]+$" if to == "int" else r"^-?[0-9]+(\.[0-9]+)?$"
        ok = pc.match_substring_regex(col, pat)
        guarded = pc.if_else(ok, col, pa.scalar(None, type=col.type))
        return pc.cast(guarded, target)
    if to == "int" and pa.types.is_floating(col.type):
        return pc.cast(pc.trunc(col), target, safe=False)
    return pc.cast(col, target)


def apply_actions(batch: pa.Table, actions: list[Action]) -> pa.Table:
    for a in actions:
        names = batch.column_names
        # OTTL `where`: mask of rows the action applies to (None = all).
        # Unconditional structural actions (rename/keep_keys/column
        # drop/append) keep their fast paths below; masked variants
        # blend new values into the existing column with if_else.
        if a.where is None:
            m = None
        elif isinstance(a.where, str):
            ast = getattr(a, "_where_ast", None)
            if ast is None:
                ast = parse_condition(a.where)
                a._where_ast = ast  # parse once, reuse per batch
            m = pc.fill_null(eval_condition(ast, batch), False)
        else:
            m = pc.fill_null(_mask(batch, *a.where), False)

        def blend(new_col, old_col):
            if isinstance(old_col, pa.ChunkedArray):
                old_col = old_col.combine_chunks()
            return pc.if_else(m, new_col, old_col)

        if a.action == "insert":
            if a.key not in names:
                new = _const_column(a.value, len(batch))
                if m is not None:
                    new = pc.if_else(m, new, pa.scalar(None, type=new.type))
                batch = batch.append_column(a.key, new)
        elif a.action == "update":
            if a.key in names:
                new = _const_column(a.value, len(batch))
                if m is not None:
                    new = blend(new, batch[a.key])
                batch = batch.set_column(names.index(a.key), a.key, new)
        elif a.action == "upsert":
            new = _const_column(a.value, len(batch))
            if a.key in names:
                if m is not None:
                    new = blend(new, batch[a.key])
                batch = batch.set_column(names.index(a.key), a.key, new)
            else:
                if m is not None:
                    new = pc.if_else(m, new, pa.scalar(None, type=new.type))
                batch = batch.append_column(a.key, new)
        elif a.action == "delete":
            if a.key in names:
                if m is None:
                    batch = batch.drop_columns([a.key])
                else:
                    # per-record delete (RemoveIf, pcommon/map.go:89-105):
                    # null out matching rows, the column stays
                    col = batch[a.key]
                    if isinstance(col, pa.ChunkedArray):
                        col = col.combine_chunks()
                    nulled = pc.if_else(
                        m, pa.scalar(None, type=col.type), col
                    )
                    batch = batch.set_column(names.index(a.key), a.key, nulled)
        elif a.action == "rename":
            if a.key in names:
                batch = batch.rename_columns(
                    [a.to if n == a.key else n for n in names]
                )
        elif a.action == "hash":
            if a.key in names:
                new = _md5_hex(batch[a.key])
                if m is not None:
                    new = blend(new, pc.cast(batch[a.key], pa.string()))
                batch = batch.set_column(names.index(a.key), a.key, new)
        elif a.action == "extract":
            col = batch[a.key]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            extracted = pc.extract_regex(col, a.pattern)
            ok = extracted.is_valid()
            if m is not None:
                ok = pc.and_(ok, m)
            null_str = pa.scalar(None, type=pa.string())
            for i in range(extracted.type.num_fields):
                fname = extracted.type.field(i).name
                fcol = pc.if_else(ok, extracted.field(i), null_str)
                if fname in batch.column_names:
                    batch = batch.set_column(
                        batch.column_names.index(fname), fname, fcol
                    )
                else:
                    batch = batch.append_column(fname, fcol)
        elif a.action == "keep_keys":
            keep = [n for n in names if n in set(a.keys)]
            batch = batch.select(keep)
        elif a.action == "replace_pattern":
            if a.key in names:
                col = batch[a.key]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                new = pc.replace_substring_regex(
                    col, pattern=a.pattern, replacement=a.replacement
                )
                if m is not None:
                    new = pc.if_else(m, new, col)
                batch = batch.set_column(names.index(a.key), a.key, new)
        elif a.action == "convert":
            if a.key in names:
                new = _convert_col(batch[a.key], a.to)
                batch = batch.set_column(names.index(a.key), a.key, new)
        elif a.action == "truncate":
            if a.key in names:
                col = batch[a.key]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                new = pc.utf8_slice_codeunits(col, 0, a.value)
                if m is not None:
                    new = pc.if_else(m, new, col)
                batch = batch.set_column(names.index(a.key), a.key, new)
    return batch


class AttributesStage:
    """Batch stage: action list parsed/validated once at construction."""

    def __init__(self, actions: list[dict | Action]):
        self.actions = [
            a if isinstance(a, Action) else Action(**a) for a in actions
        ]
        for a in self.actions:
            a.validate()

    def __call__(self, batch: pa.Table) -> pa.Table:
        return apply_actions(batch, self.actions)
