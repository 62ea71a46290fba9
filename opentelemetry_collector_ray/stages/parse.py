"""Parse stage — vectorized grok over the ``text`` column.

The reference idiom: contrib transform/OTTL processors navigate
``body`` / ``attributes[...]`` and set derived fields
(docs/processing.md:100-148), built on the processorhelper UDF hook
(processor/processorhelper/logs.go:40-82). Here the whole extraction is
ONE ``pyarrow.compute.extract_regex`` call per batch (RE2, C++), no
Python per-row work — that is what makes the N→4N scaling target
reachable (SURVEY.md §7 hard part 4).

Grammar (the fixture/derivation template)::

    [LEVEL] action=<word> latency_ms=<int> msg=<rest>

Rows that do not match keep null parsed fields and ``parse_ok=false``
(the parse-miss path; the collector never drops on parse failure —
dropping is the filter processor's job).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

GROK_PATTERN = (
    r"^\[(?P<level>[A-Z]+)\] action=(?P<action>\w+)"
    r" latency_ms=(?P<latency_ms>\d+) msg=(?P<msg>.*)$"
)


def parse_batch(batch: pa.Table, pattern: str = GROK_PATTERN) -> pa.Table:
    """Append one column per named group of ``pattern`` plus
    ``parse_ok`` (zero-copy in, one RE2 pass, typed Arrow out).
    ``latency_ms`` is cast to int64; every other group stays a string."""
    text = batch["text"]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    extracted = pc.extract_regex(text, pattern)
    # ``flatten()`` nulls each child where the struct is null (a parse
    # miss); ``.field(i)`` would keep the child's own, non-null slots.
    out = batch
    for field, col in zip(extracted.type, extracted.flatten()):
        if field.name == "latency_ms":
            col = pc.cast(col, pa.int64())
        out = out.append_column(field.name, col)
    return out.append_column("parse_ok", extracted.is_valid())


def json_parse_batch(
    batch: pa.Table,
    *,
    col: str = "props",
    keep: list[str] | None = None,
    schema: pa.Schema | None = None,
) -> pa.Table:
    """Parse a column of JSON objects into typed Arrow columns — the
    structured-log staple (contrib json log parsing / OTTL
    ``ParseJSON``; stanza/operator/parser/json).

    Fully C-path vectorized: the whole column is joined into ONE
    newline-delimited JSON buffer with ``pc.binary_join`` (JSON strings
    cannot contain raw newlines, so NDJSON framing is safe), then
    ``pyarrow.json.read_json`` parses it in Arrow's native JSON reader
    — no per-row Python loop, no json.loads. Null / empty rows parse
    as ``{}`` (all-null fields). Pass ``schema`` to pin field types at
    scale (blocks schema drift across batches — the 100 TB contract);
    ``keep`` selects/orders the extracted fields. Invalid JSON raises
    (the collector's json parser also errors; route around with a
    filter stage first)."""
    import io

    import pyarrow.json as paj

    src = batch[col]
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    if len(src) == 0:
        # An empty block must emit the SAME columns as non-empty ones
        # or the dataset's blocks disagree on schema downstream.
        if schema is None:
            raise ValueError(
                "json_parse_batch: a zero-row batch needs an explicit "
                "schema to keep block schemas consistent"
            )
        out = batch
        names = keep if keep is not None else [f.name for f in schema]
        for name in names:
            out = out.append_column(
                name, pa.array([], type=schema.field(name).type)
            )
        return out
    src = pc.if_else(
        pc.or_kleene(src.is_null(), pc.equal(pc.utf8_length(src), 0)),
        pa.scalar("{}", type=src.type),
        src,
    )
    lst = pa.ListArray.from_arrays(
        pa.array([0, len(src)], pa.int32()), pc.cast(src, pa.string())
    )
    ndjson = pc.binary_join(lst, "\n")[0].as_py().encode()
    opts = (
        paj.ParseOptions(explicit_schema=schema) if schema is not None else None
    )
    parsed = paj.read_json(io.BytesIO(ndjson), parse_options=opts)
    if len(parsed) != len(batch):
        raise ValueError(
            f"json parse row drift: {len(parsed)} != {len(batch)}"
        )
    fields = keep if keep is not None else parsed.column_names
    out = batch
    for f in fields:
        out = out.append_column(f, parsed[f])
    return out
