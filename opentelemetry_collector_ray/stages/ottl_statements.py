"""OTTL statement language — ``set(...) where ...`` and friends.

The reference's transformprocessor executes STATEMENT strings over
records (OTTL: ``set(attributes["x"], "v") where severity_text ==
"ERROR"`` — docs/processing.md:100-148); ``ottl.py`` already covers
the condition half. This module adds the statement half: a statement
parses ONCE into (function, args, where-AST) and applies per batch as
pure Arrow/numpy kernels — the map mutations reuse ``stages/maps.py``
(pcommon.Map parity), plain-column writes are one ``if_else`` blend.

Statement functions (the transformprocessor/contrib-OTTL vocabulary):

- ``set(target, value)`` — target is a column or ``map['key']``
  subscript; value is a literal, a column ref, or a converter call
  (``Uppercase(col)`` / ``Lowercase(col)``).
- ``delete_key(map, 'k')`` / ``delete_matching_keys(map, 'regex')``
- ``keep_keys(map, ['a', 'b'])``
- ``rename_key(map, 'old', 'new')``
- ``truncate_all(map, n)`` — truncate every map VALUE to n chars.
- ``limit(map, n)`` — keep the first n entries per row.
- ``replace_pattern(col, 'regex', 'repl')`` — RE2 replace-all on a
  string column or map subscript.
- ``replace_all_patterns(map, 'regex', 'repl')`` — over map values.

Every function takes an optional ``where <condition>`` suffix; rows
outside the mask keep their previous value (the masked blend is one
``if_else`` for plain columns and one ``take`` over a concatenated
pair for map columns — no per-row Python anywhere).

SQL mirror: ``set(x, v) where c`` ≡ ``CASE WHEN c THEN v ELSE x END``;
``replace_pattern`` ≡ ``regexp_replace(..., 'g')``; ``Uppercase`` ≡
``upper``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .maps import (
    map_get,
    map_keep_keys,
    map_remove,
    map_remove_if,
    map_rename,
    map_upsert,
    _as_list_array,
    _build,
    _parts,
)
from .ottl import _Parser, _tokenize, eval_condition

_CONVERTERS = {
    "Uppercase": pc.utf8_upper,
    "Lowercase": pc.utf8_lower,
}


class _StmtParser(_Parser):
    """Statement grammar on top of the condition tokenizer::

        stmt  := NAME '(' arg (',' arg)* ')' ('where' expr)?
        arg   := literal | list | colref | CONVERTER '(' arg ')'
        list  := '[' literal (',' literal)* ']'
    """

    def arg(self):
        k, v = self.peek()
        if k == "lbracket":
            self.take()
            vals = [self.literal()]
            while self.peek()[0] == "comma":
                self.take()
                vals.append(self.literal())
            self.take("rbracket")
            return ("list", vals)
        if k in ("str", "num") or (k, v) in (
            ("word", "true"),
            ("word", "false"),
        ):
            return ("lit", self.literal())
        if k == "word" and v in _CONVERTERS:
            self.take()
            self.take("lparen")
            inner = self.arg()
            self.take("rparen")
            return ("conv", v, inner)
        # column ref, possibly a map subscript
        name = self.take("word")
        if self.peek()[0] == "lbracket":
            self.take()
            key = self.literal()
            if not isinstance(key, str):
                raise ValueError("map subscript needs a string key")
            self.take("rbracket")
            return ("mapref", name, key)
        return ("col", name)

    def statement(self):
        func = self.take("word")
        self.take("lparen")
        args = [self.arg()]
        while self.peek()[0] == "comma":
            self.take()
            args.append(self.arg())
        self.take("rparen")
        where = None
        if self.peek() == ("word", "where"):
            self.take()
            where = self.expr()
        if self.i != len(self.toks):
            raise ValueError(f"trailing tokens: {self.toks[self.i:]}")
        return func, args, where


def parse_statement(src: str):
    return _StmtParser(_tokenize(src)).statement()


def _resolve_value(arg, batch: pa.Table, n: int):
    """Value-position arg → Arrow array of length n (or scalar)."""
    kind = arg[0]
    if kind == "lit":
        return arg[1]
    if kind == "col":
        col = batch[arg[1]]
        return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if kind == "mapref":
        return map_get(batch[arg[1]], arg[2])
    if kind == "conv":
        inner = _resolve_value(arg[2], batch, n)
        if not isinstance(inner, (pa.Array, pa.ChunkedArray)):
            inner = pa.array([inner] * n, type=pa.string())
        return _CONVERTERS[arg[1]](inner)
    raise ValueError(f"bad value arg {arg!r}")


def _mask_np(where, batch: pa.Table, n: int):
    if where is None:
        return None
    m = eval_condition(where, batch)
    return np.asarray(
        pc.fill_null(m, False).to_numpy(zero_copy_only=False), dtype=bool
    )


def _blend_lists(mask: np.ndarray, new_arr, old_arr):
    """Row-wise choose for list columns (if_else lacks list support):
    one take over the concatenated pair."""
    if isinstance(old_arr, pa.ChunkedArray):
        old_arr = old_arr.combine_chunks()
    new_arr = new_arr.cast(old_arr.type)
    n = len(old_arr)
    comb = pa.concat_arrays([old_arr, new_arr])
    idx = np.arange(n, dtype=np.int64)
    idx[mask] += n
    return comb.take(pa.array(idx, type=pa.int64()))


def _set_column(batch: pa.Table, name: str, arr) -> pa.Table:
    if name in batch.column_names:
        return batch.set_column(
            batch.column_names.index(name), name, arr
        )
    return batch.append_column(name, arr)


def _as_array(value, n: int, like=None):
    if isinstance(value, (pa.Array, pa.ChunkedArray)):
        return (
            value.combine_chunks()
            if isinstance(value, pa.ChunkedArray)
            else value
        )
    typ = like.type if like is not None else (
        pa.string()
        if isinstance(value, str)
        else pa.bool_()
        if isinstance(value, bool)
        else pa.int64()
        if isinstance(value, int)
        else pa.float64()
    )
    return pa.array([value] * n, type=typ)


def _map_mutation(batch, col_name, mask, fn):
    """Apply ``fn(list_array) -> list_array`` to a map column, blending
    by mask when a ``where`` is present."""
    old = batch[col_name]
    if isinstance(old, pa.ChunkedArray):
        old = old.combine_chunks()
    new = fn(old)
    if mask is not None:
        new = _blend_lists(mask, new, old)
    else:
        new = new.cast(old.type) if new.type != old.type else new
    return _set_column(batch, col_name, new)


def _map_limit(col, n_keep: int) -> pa.ListArray:
    arr = _as_list_array(col)
    n = len(arr)
    k, v, p = _parts(arr, n)
    # entry index within its row: running position minus the row start
    starts = np.zeros(n, dtype=np.int64)
    if len(p):
        counts = np.bincount(p, minlength=n)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(len(p)) - starts[p] if len(p) else np.empty(0, np.int64)
    keep = within < n_keep
    return _build(k[keep], v[keep], p[keep], n)


def _map_truncate_all(col, width: int) -> pa.ListArray:
    arr = _as_list_array(col)
    n = len(arr)
    k, v, p = _parts(arr, n)
    trunc = np.asarray(
        pc.utf8_slice_codeunits(
            pa.array(v, type=pa.string()), 0, width
        ).to_numpy(zero_copy_only=False),
        dtype=object,
    )
    return _build(k, trunc, p, n)


def _map_replace_all(col, pattern: str, repl: str) -> pa.ListArray:
    arr = _as_list_array(col)
    n = len(arr)
    k, v, p = _parts(arr, n)
    rep = np.asarray(
        pc.replace_substring_regex(
            pa.array(v, type=pa.string()), pattern=pattern, replacement=repl
        ).to_numpy(zero_copy_only=False),
        dtype=object,
    )
    return _build(k, rep, p, n)


def apply_statement(batch: pa.Table, stmt) -> pa.Table:
    func, args, where = stmt
    n = len(batch)
    mask = _mask_np(where, batch, n)

    if func == "set":
        target, value = args[0], args[1]
        val = _resolve_value(value, batch, n)
        if target[0] == "mapref":
            col_name, key = target[1], target[2]
            if isinstance(val, (pa.Array, pa.ChunkedArray)):
                vals = np.asarray(
                    pc.cast(val, pa.string()).to_numpy(zero_copy_only=False),
                    dtype=object,
                )
            else:
                vals = None if val is None else str(val)
            return _map_mutation(
                batch, col_name, mask, lambda m: map_upsert(m, key, vals)
            )
        if target[0] != "col":
            raise ValueError(f"bad set target {target!r}")
        name = target[1]
        old = batch[name] if name in batch.column_names else None
        if isinstance(old, pa.ChunkedArray):
            old = old.combine_chunks()
        arr = _as_array(val, n, like=old)
        if mask is not None:
            if old is None:
                old = pa.nulls(n, arr.type)
            arr = pc.if_else(pa.array(mask), arr.cast(old.type), old)
        return _set_column(batch, name, arr)

    if func == "replace_pattern":
        target, pattern, repl = args[0], args[1][1], args[2][1]
        if target[0] == "mapref":
            col_name, key = target[1], target[2]
            cur = map_get(batch[col_name], key)
            new = pc.replace_substring_regex(
                cur, pattern=pattern, replacement=repl
            )
            vals = np.asarray(
                new.to_numpy(zero_copy_only=False), dtype=object
            )
            return _map_mutation(
                batch, col_name, mask, lambda m: map_upsert(m, key, vals)
            )
        name = target[1]
        col = batch[name]
        new = pc.replace_substring_regex(
            col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col,
            pattern=pattern,
            replacement=repl,
        )
        if mask is not None:
            new = pc.if_else(pa.array(mask), new, col)
        return _set_column(batch, name, new)

    # everything below mutates a MAP column in arg 0
    col_name = args[0][1]
    if func == "delete_key":
        key = args[1][1]
        return _map_mutation(
            batch, col_name, mask, lambda m: map_remove(m, key)
        )
    if func == "delete_matching_keys":
        pattern = args[1][1]
        return _map_mutation(
            batch,
            col_name,
            mask,
            lambda m: map_remove_if(
                m,
                lambda k, v: np.asarray(
                    pc.match_substring_regex(
                        pa.array(k, type=pa.string()), pattern
                    ).to_numpy(zero_copy_only=False),
                    dtype=bool,
                ),
            ),
        )
    if func == "keep_keys":
        keys = args[1][1]
        return _map_mutation(
            batch, col_name, mask, lambda m: map_keep_keys(m, keys)
        )
    if func == "rename_key":
        old_k, new_k = args[1][1], args[2][1]
        return _map_mutation(
            batch, col_name, mask, lambda m: map_rename(m, old_k, new_k)
        )
    if func == "truncate_all":
        width = args[1][1]
        return _map_mutation(
            batch, col_name, mask, lambda m: _map_truncate_all(m, width)
        )
    if func == "limit":
        n_keep = args[1][1]
        return _map_mutation(
            batch, col_name, mask, lambda m: _map_limit(m, n_keep)
        )
    if func == "replace_all_patterns":
        pattern, repl = args[1][1], args[2][1]
        return _map_mutation(
            batch,
            col_name,
            mask,
            lambda m: _map_replace_all(m, pattern, repl),
        )
    raise ValueError(f"unknown OTTL statement function {func!r}")


class TransformStage:
    """transformprocessor analogue: a list of OTTL statement strings,
    parsed once at construction (``__init__``), applied in order per batch
    (``__call__``) — each statement is a handful of Arrow kernels."""

    def __init__(self, statements: list[str]):
        self.stmts = [parse_statement(s) for s in statements]

    def __call__(self, batch: pa.Table) -> pa.Table:
        for stmt in self.stmts:
            batch = apply_statement(batch, stmt)
        return batch
