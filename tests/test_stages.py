"""Unit tests for the batch stages — pure Arrow, no Ray needed.

Mirrors the reference's colocated per-operator unit tests
(processor/batchprocessor/batch_processor_test.go style) with the
fixture-generator-as-oracle strategy (internal/testdata/log.go).
"""

import pyarrow as pa
import pyarrow.compute as pc

from opentelemetry_collector_ray.fixtures import gen_transcripts, n_turns
from opentelemetry_collector_ray.schema import (
    DIM_ROLE_ROUTE,
    DIM_TOOL_SERVICE,
    TRANSCRIPT_SCHEMA,
)
from opentelemetry_collector_ray.stages.enrich import enrich_batch
from opentelemetry_collector_ray.stages.parse import GROK_PATTERN, parse_batch
from opentelemetry_collector_ray.stages.route import (
    explode_sinks_batch,
    route_batch,
)


def test_generator_deterministic_and_schema():
    a = gen_transcripts(100)
    b = gen_transcripts(100)
    assert a.equals(b)
    assert a.schema == TRANSCRIPT_SCHEMA
    assert a.num_rows == int(sum(n_turns(i) for i in range(100)))
    # disjoint ranges concatenate to the same corpus
    c = pa.concat_tables(
        [gen_transcripts(60), gen_transcripts(40, start_conv=60)]
    )
    assert c.equals(a)


def test_parse_roundtrip():
    t = gen_transcripts(80)
    s = pa.string()
    line = "[INFO] action=a latency_ms=3 msg=hi"
    # (input, expected parse_ok or None for the generated corpus)
    cases = [
        (t, None),
        (t.slice(0, 0), []),
        (pa.table({"text": pa.array(["nope", "[x] y", ""], s)}), [False] * 3),
        (pa.table({"text": pa.array([None, None], s)}), [False] * 2),
        (
            pa.table(
                {
                    "text": pa.chunked_array(
                        [pa.array([line, None], s), pa.array(["bad", line], s)]
                    )
                }
            ),
            [True, False, False, True],
        ),
        # RE2's `.` and `$` stop at a newline
        (
            pa.table(
                {"text": pa.array([line.replace("=hi", "=\nhi"), line + "\n"])}
            ),
            [False, False],
        ),
    ]
    parsed = ["level", "action", "latency_ms", "msg", "parse_ok"]
    want = [parse_batch(t).schema.field(c) for c in parsed]
    for batch, expect_ok in cases:
        p = parse_batch(batch)
        assert [p.schema.field(c) for c in parsed] == want
        if expect_ok is None:
            assert 0 < pc.sum(pc.invert(p["parse_ok"])).as_py() < len(t) * 0.15
        else:
            assert p["parse_ok"].to_pylist() == expect_ok
        ok = p.filter(pc.equal(p["parse_ok"], True))
        miss = p.filter(pc.equal(p["parse_ok"], False))
        assert ok.num_rows + miss.num_rows == batch.num_rows
        # reconstruct text from parsed fields == original (lossless grok)
        rebuilt = [
            f"[{l}] action={a} latency_ms={n} msg={m}"
            for l, a, n, m in zip(
                ok["level"].to_pylist(),
                ok["action"].to_pylist(),
                ok["latency_ms"].to_pylist(),
                ok["msg"].to_pylist(),
            )
        ]
        assert rebuilt == ok["text"].to_pylist()
        # misses keep null fields
        for c in parsed[:-1]:
            assert miss[c].null_count == miss.num_rows


def test_registry_parse_matches_function():
    from opentelemetry_collector_ray.pipelines.builder import STAGE_REGISTRY

    t = gen_transcripts(30)
    built = STAGE_REGISTRY["parse"]({"pattern": GROK_PATTERN})
    assert built(t).equals(parse_batch(t))


def test_parse_custom_pattern_adds_its_named_groups():
    from opentelemetry_collector_ray.pipelines.builder import STAGE_REGISTRY

    t = gen_transcripts(30)
    pattern = GROK_PATTERN.replace(
        r"msg=(?P<msg>.*)$", r"msg=(?P<msg>(?P<first>\S*).*)$"
    )
    out = STAGE_REGISTRY["parse"]({"pattern": pattern})(t)
    base = parse_batch(t)
    assert out.column_names == base.column_names[:-1] + ["first", "parse_ok"]
    assert out.drop_columns(["first"]).equals(base)
    assert out["latency_ms"].type == pa.int64()
    ok = out.filter(out["parse_ok"])
    assert ok["first"].to_pylist() == [
        m.split(" ")[0] for m in ok["msg"].to_pylist()
    ]
    miss = out.filter(pc.invert(out["parse_ok"]))
    assert miss["first"].null_count == miss.num_rows


def test_bad_parse_pattern_fails_at_build_time():
    import pytest

    from opentelemetry_collector_ray.pipelines.builder import _apply_stages
    from opentelemetry_collector_ray.pipelines.config import (
        ConfigError,
        load_config,
    )

    cfg = load_config(
        {
            "pipeline": {
                "source": {"type": "parquet", "paths": ["in.parquet"]},
                "stages": [{"type": "parse", "pattern": "(?P<level>[A-Z+"}],
                "sinks": {"mode": "single", "out_dir": "out"},
            }
        }
    )
    # stage builders run on the driver before any map is applied, so
    # no dataset (and no Ray job) is needed to see the failure
    with pytest.raises(ConfigError, match="bad pattern"):
        _apply_stages(None, cfg)


def test_enrich_route_to_errors_sink_fails_at_build_time():
    """ERROR rows already fan to the errors sink: a role routed there
    too would land its ERROR rows twice."""
    import pytest

    from opentelemetry_collector_ray.pipelines.builder import (
        STAGE_REGISTRY,
        _apply_stages,
    )
    from opentelemetry_collector_ray.pipelines.config import (
        ConfigError,
        load_config,
    )

    cfg = load_config(
        {
            "pipeline": {
                "source": {"type": "parquet", "paths": ["in.parquet"]},
                "stages": [
                    {"type": "enrich", "role_route": {"user": "errors"}}
                ],
                "sinks": {"mode": "route", "out_dir": "out"},
            }
        }
    )
    with pytest.raises(ConfigError, match="role_route sends \\['user'\\]"):
        _apply_stages(None, cfg)
    # any other sink name stays a valid route
    built = STAGE_REGISTRY["enrich"]({"role_route": {"user": "audit"}})
    e = built(parse_batch(gen_transcripts(20)))
    assert "audit" in e["route"].to_pylist()


def test_enrich_lookup():
    t = parse_batch(gen_transcripts(60))
    e = enrich_batch(t)
    tools = e["tool"].to_pylist()
    roles = e["role"].to_pylist()
    assert e["service"].to_pylist() == [
        DIM_TOOL_SERVICE.get(x, "unknown") for x in tools
    ]
    assert e["route"].to_pylist() == [DIM_ROLE_ROUTE[r] for r in roles]


def test_route_fanout():
    e = enrich_batch(parse_batch(gen_transcripts(60)))
    r = route_batch(e)
    x = explode_sinks_batch(e)
    # sinks list rule: route always present; errors iff level == ERROR
    for sinks, route, level in zip(
        r["sinks"].to_pylist(), r["route"].to_pylist(), r["level"].to_pylist()
    ):
        want = [route] + (["errors"] if level == "ERROR" else [])
        assert sinks == want
    # exploded row count == total sink memberships
    assert x.num_rows == pc.sum(pc.list_value_length(r["sinks"])).as_py()
    # per-turn text equality through the fanout (no mutation in flight)
    base = x.filter(pc.not_equal(x["sink"], "errors"))
    assert base.num_rows == e.num_rows


def test_null_typed_block_dictionary_probes():
    """An all-null block degrades its column to Arrow's null TYPE;
    every index_in dictionary probe must pass it through instead of
    throwing ArrowTypeError (found by the metrics_transform property
    test; enrich and severity share the idiom)."""
    import numpy as np
    import pyarrow as pa

    from opentelemetry_collector_ray.stages.enrich import enrich_batch
    from opentelemetry_collector_ray.stages.signals import (
        severity_number_batch,
    )

    t = pa.table(
        {
            "tool": pa.array([None, None], type=pa.null()),
            "role": pa.array([None, None], type=pa.null()),
            "level": pa.array([None, None], type=pa.null()),
        }
    )
    e = enrich_batch(t)
    assert e["service"].to_pylist() == ["unknown", "unknown"]
    assert e["route"].to_pylist() == ["ingest", "ingest"]
    s = severity_number_batch(t)
    assert s["severity_number"].to_pylist() == [0, 0]
