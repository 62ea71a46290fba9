"""Nested OTLP/JSON codec: wire shape, roundtrip equality, tolerance
of real files that omit unset proto3 fields."""

import glob
import json
import os
import shutil

import pyarrow as pa
import pytest
import ray.data

from opentelemetry_collector_ray.sources.otlp_json import (
    flatten_otlp_batch,
    nest_otlp_batch,
    read_otlp_logs_json,
    write_otlp_logs_json,
)
from opentelemetry_collector_ray.sources.otlp_metrics import nest_otlp_metrics_batch
from opentelemetry_collector_ray.sources.otlp_traces import nest_otlp_traces_batch


def _transcript_batch():
    return pa.table(
        {
            "conv_id": ["c2", "c1", "c1", "c3"],
            "turn_idx": pa.array([0, 0, 1, 0], type=pa.int32()),
            "role": ["user", "assistant", "tool", "user"],
            "text": [
                "[INFO] action=x latency_ms=5 msg=a",
                "[ERROR] action=y latency_ms=9 msg=b",
                "freeform note",
                "[WARN] action=z latency_ms=1 msg=c",
            ],
            "tool": ["", "sql", "bash", ""],
            "ts": pa.array([1000, 2000, 3000, 4000], type=pa.timestamp("us")),
        }
    )


_NESTS = {
    "logs": (nest_otlp_batch, ("resourceLogs", "scopeLogs", "logRecords")),
    "traces": (nest_otlp_traces_batch, ("resourceSpans", "scopeSpans", "spans")),
    "metrics": (
        nest_otlp_metrics_batch,
        ("resourceMetrics", "scopeMetrics", "metrics"),
    ),
}


def _item_rows(signal: str, item: dict) -> list:
    """The (conv.id, turn.index) of the transcript rows an item stands
    for: a log record or span is one row; of a scope's metrics, the
    Sum holds one datapoint per row."""
    if signal == "metrics":
        points = item["sum"]["dataPoints"] if item["sum"] else []
    else:
        points = [item]
    out = []
    for p in points:
        kv = {a["key"]: a["value"] for a in p["attributes"]}
        out.append((kv["conv.id"]["stringValue"], int(kv["turn.index"]["intValue"])))
    return out


@pytest.mark.parametrize("signal", list(_NESTS))
def test_nest_structure_and_grouping(signal):
    nest, (root, scopes, items) = _NESTS[signal]
    t = _transcript_batch()
    nested = nest(t)
    assert nested.num_rows == 1  # one request per batch
    res = nested.to_pylist()[0][root]
    # one resource per derived service.name, sorted, so each service's
    # rows are consecutive
    names = [
        r["resource"]["attributes"][0]["value"]["stringValue"] for r in res
    ]
    assert names == ["data", "infra", "unknown"]
    role_of = {
        (c, i): r
        for c, i, r in zip(
            t["conv_id"].to_pylist(), t["turn_idx"].to_pylist(), t["role"].to_pylist()
        )
    }
    seen = []
    for r in res:
        roles = []
        for sc in r[scopes]:
            # one scope per role: otelray.<role> v1.0, holding only
            # that role's rows
            assert sc["scope"]["name"].startswith("otelray.")
            assert sc["scope"]["version"] == "1.0"
            roles.append(sc["scope"]["name"].removeprefix("otelray."))
            rows = [p for it in sc[items] for p in _item_rows(signal, it)]
            assert rows and {role_of[p] for p in rows} == {roles[-1]}
            seen += rows
        assert len(roles) == len(set(roles))
    assert sorted(seen) == sorted(role_of)  # every row, once
    empty = nest(t.slice(0, 0))
    assert empty.num_rows == 1 and empty.to_pylist()[0][root] == []
    if signal != "logs":
        return
    # records carry severity, the fixed64 time as a STRING, the body
    # and the conv/turn/tool attributes
    scope = res[0]["scopeLogs"][0]
    assert scope["scope"]["name"] == "otelray.assistant"
    rec = scope["logRecords"][0]
    assert rec["severityNumber"] == 17 and rec["severityText"] == "ERROR"
    assert rec["timeUnixNano"] == "2000000"  # fixed64 as STRING
    assert rec["body"]["stringValue"].startswith("[ERROR]")
    kv = {a["key"]: a["value"] for a in rec["attributes"]}
    assert kv["conv.id"]["stringValue"] == "c1"
    assert kv["turn.index"]["intValue"] == "0"  # int64 as STRING


def test_flatten_inverts_nest():
    t = _transcript_batch()
    flat = (
        flatten_otlp_batch(nest_otlp_batch(t))
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    src = t.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert list(flat["conv_id"]) == list(src["conv_id"])
    assert list(flat["turn_idx"]) == list(src["turn_idx"])
    assert list(flat["body"]) == list(src["text"])
    assert list(flat["tool"]) == list(src["tool"])
    assert [s.replace("otelray.", "") for s in flat["scope_name"]] == list(
        src["role"]
    )
    assert list(flat["time_unix_nano"]) == [
        v * 1000 for v in src["ts"].astype("int64") // 1
    ]


def test_wire_format_omits_nulls_and_uses_proto3_json(tmp_path):
    out = str(tmp_path / "otlp")
    write_otlp_logs_json(ray.data.from_arrow(_transcript_batch()), out)
    files = glob.glob(out + "/*.json")
    assert files
    line = open(files[0]).readline()
    obj = json.loads(line)
    assert set(obj) == {"resourceLogs"}
    s = line
    assert '"intValue":null' not in s and '"stringValue":null' not in s
    assert '"severityNumber":17' in s  # int, not 17.0
    # the freeform row has no [LEVEL] prefix: number AND text omitted
    # (proto3 wire form — the binary codec cannot carry "" vs unset)
    assert '"severityText":""' not in s
    assert s.count('"severityText"') == 3  # only the 3 parsed rows


def test_read_real_otlp_with_omitted_fields(tmp_path):
    d = tmp_path / "min"
    d.mkdir()
    minimal = {
        "resourceLogs": [
            {
                "resource": {
                    "attributes": [
                        {"key": "service.name", "value": {"stringValue": "x"}}
                    ]
                },
                "scopeLogs": [
                    {
                        "scope": {"name": "s"},
                        "logRecords": [
                            {
                                "timeUnixNano": "123",
                                "body": {"stringValue": "hello"},
                            }
                        ],
                    }
                ],
            }
        ]
    }
    (d / "a.json").write_text(json.dumps(minimal) + "\n")
    flat = read_otlp_logs_json(str(d)).to_pandas()
    assert len(flat) == 1
    row = flat.iloc[0]
    assert row["service"] == "x" and row["body"] == "hello"
    assert row["time_unix_nano"] == 123
    import pandas as pd

    assert pd.isna(row["scope_version"])  # omitted → null, not a crash
    assert pd.isna(row["conv_id"]) and pd.isna(row["severity_number"])


def test_file_roundtrip_multibatch(tmp_path):
    out = str(tmp_path / "rt")
    ds = ray.data.from_arrow(_transcript_batch()).repartition(3)
    n = write_otlp_logs_json(ds, out)
    assert n >= 1
    flat = (
        read_otlp_logs_json(out)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    assert len(flat) == 4
    assert list(flat["conv_id"]) == ["c1", "c1", "c2", "c3"]


def test_empty_input():
    empty = _transcript_batch().slice(0, 0)
    nested = nest_otlp_batch(empty)
    assert nested.num_rows == 1
    assert flatten_otlp_batch(nested).num_rows == 0


def test_log_trace_correlation_ids(ray_session, tmp_path):
    """LogRecord traceId/spanId (logs.proto fields 9/10): every record
    points at its own turn's span — the SAME md5 scheme as the traces
    codec, so correlated lookups round-trip across signals and wires."""
    import glob
    import hashlib

    from opentelemetry_collector_ray.sources.otlp_pb import (
        read_otlp_logs_pb,
        write_otlp_logs_pb,
    )
    from tests.test_otlp_pb import _transcript_batch

    t = _transcript_batch()
    js, pb = str(tmp_path / "js"), str(tmp_path / "pb")
    assert write_otlp_logs_json(ray.data.from_arrow(t), js) >= 1
    assert write_otlp_logs_pb(ray.data.from_arrow(t), pb) >= 1
    line = open(glob.glob(js + "/*.json")[0]).read().splitlines()[0]
    assert '"traceId":"' + hashlib.md5(b"c1").hexdigest() in line

    key = ["conv_id", "turn_idx"]
    a = read_otlp_logs_json(js).to_pandas().sort_values(key).reset_index(drop=True)
    b = read_otlp_logs_pb(pb).to_pandas().sort_values(key).reset_index(drop=True)
    assert a["trace_id"].iloc[0] == hashlib.md5(b"c1").hexdigest()
    assert a["span_id"].iloc[1] == hashlib.md5(b"c1:1").hexdigest()[:16]
    import pandas.testing as pdt

    pdt.assert_frame_equal(a[sorted(a.columns)], b[sorted(b.columns)])


def test_null_ts_rows_round_trip_all_codecs():
    """A NULL timestamp must become an OMITTED time field on the wire
    (never the literal string 'nan' — the astype('U') NaN trap) and
    read back as null across all three codecs."""
    from opentelemetry_collector_ray.sources.otlp_metrics import (
        flatten_otlp_metrics_batch,
        nest_otlp_metrics_batch,
    )
    from opentelemetry_collector_ray.sources.otlp_traces import (
        flatten_otlp_traces_batch,
        nest_otlp_traces_batch,
    )

    t = pa.table(
        {
            "conv_id": ["c1", "c1"],
            "turn_idx": pa.array([0, 1], type=pa.int32()),
            "role": ["user", "tool"],
            "text": [
                "[INFO] action=x latency_ms=5 msg=a",
                "[WARN] action=y latency_ms=2 msg=b",
            ],
            "tool": ["", "bash"],
            "ts": pa.array([1000, None], type=pa.timestamp("us")),
        }
    )
    logs = flatten_otlp_batch(nest_otlp_batch(t)).to_pandas()
    assert logs["time_unix_nano"].isna().sum() == 1
    tr = flatten_otlp_traces_batch(nest_otlp_traces_batch(t)).to_pandas()
    assert tr["start_unix_nano"].isna().sum() == 1
    assert tr["end_unix_nano"].isna().sum() == 1
    mt = flatten_otlp_metrics_batch(nest_otlp_metrics_batch(t)).to_pandas()
    assert mt["time_unix_nano"].isna().sum() > 0
    # and the wire never carries a 'nan' token
    import json

    from opentelemetry_collector_ray.sources.otlp_json import _strip_nulls

    line = json.dumps(_strip_nulls(nest_otlp_batch(t).to_pylist()[0]))
    assert '"nan"' not in line and ":null" not in line.replace(" ", "")


def test_nest_rejects_null_identity_keys():
    """External callers feeding null conv_id/role must fail loudly —
    numpy string ops would otherwise stringify null to 'None' and mint
    bogus-but-valid IDs/scopes (ADVICE r3)."""
    import pytest

    from opentelemetry_collector_ray.sources.otlp_traces import (
        nest_otlp_traces_batch,
    )

    t = _transcript_batch()
    bad = t.set_column(
        0, "conv_id", pa.array(["c1", None, "c2", "c3"], type=pa.string())
    )
    with pytest.raises(ValueError, match="conv_id.*null"):
        nest_otlp_batch(bad)
    with pytest.raises(ValueError, match="conv_id.*null"):
        nest_otlp_traces_batch(bad)
    bad_role = t.set_column(
        2, "role", pa.array(["user", None, "tool", "user"], type=pa.string())
    )
    with pytest.raises(ValueError, match="role.*null"):
        nest_otlp_batch(bad_role)


def test_nest_rejects_null_turn_idx():
    """turn_idx is an identity column too: NaN -> astype(int64) ->
    INT64_MIN would mint a bogus-but-valid turn identity (review
    finding, r4)."""
    import pytest

    t = _transcript_batch()
    bad = t.set_column(
        1, "turn_idx", pa.array([0, None, 1, 0], type=pa.int32())
    )
    with pytest.raises(ValueError, match="turn_idx.*null"):
        nest_otlp_batch(bad)
