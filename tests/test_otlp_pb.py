"""OTLP/pb binary codec: real protobuf wire bytes (hand-decoded tag
checks), roundtrip equality, and cross-codec parity with the NDJSON
wire — both codecs share one nest/flatten tree."""

import glob
import os
import shutil

import pyarrow as pa
import pytest
import ray.data

from opentelemetry_collector_ray.sources.otlp_json import (
    nest_otlp_batch,
    read_otlp_logs_json,
    write_otlp_logs_json,
)
from opentelemetry_collector_ray.sources.otlp_pb import (
    _classes,
    decode_logs_request,
    encode_logs_request,
    read_otlp_logs_pb,
    write_otlp_logs_pb,
)
from opentelemetry_collector_ray.state.httpreceiver import _flatten_request


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


def _varint(buf, i):
    v, shift = 0, 0
    while True:
        b = buf[i]
        v |= (b & 0x7F) << shift
        i += 1
        if not b & 0x80:
            return v, i
        shift += 7


def _fields(buf):
    """Top-level (field_number, wire_type, payload) triples of one
    protobuf message — an independent hand decoder, no protobuf lib."""
    out, i = [], 0
    while i < len(buf):
        tag, i = _varint(buf, i)
        num, wt = tag >> 3, tag & 7
        if wt == 0:
            v, i = _varint(buf, i)
            out.append((num, wt, v))
        elif wt == 1:
            out.append((num, wt, buf[i : i + 8]))
            i += 8
        elif wt == 2:
            ln, i = _varint(buf, i)
            out.append((num, wt, buf[i : i + ln]))
            i += ln
        elif wt == 5:
            out.append((num, wt, buf[i : i + 4]))
            i += 4
        else:  # pragma: no cover
            raise AssertionError(f"unexpected wire type {wt}")
    return out


def test_wire_bytes_are_real_protobuf():
    """Hand-decode the serialized request: field numbers and wire types
    must match the published opentelemetry-proto schema."""
    req = nest_otlp_batch(_transcript_batch()).to_pylist()[0]
    buf = encode_logs_request(req)

    # ExportLogsServiceRequest.resource_logs = 1 (len-delimited)
    top = _fields(buf)
    assert top and all(num == 1 and wt == 2 for num, wt, _ in top)
    assert len(top) == 3  # services: data, infra, unknown

    # ResourceLogs: resource=1, scope_logs=2
    res_fields = _fields(top[0][2])
    assert [(n, w) for n, w, _ in res_fields[:1]] == [(1, 2)]
    scope_logs = [p for n, w, p in res_fields if n == 2]
    assert scope_logs

    # ScopeLogs: scope=1, log_records=2
    sl = _fields(scope_logs[0])
    recs = [p for n, w, p in sl if n == 2]
    assert recs

    # LogRecord: time_unix_nano=1 fixed64, severity_number=2 varint,
    # severity_text=3, body=5, attributes=6
    lr = dict((n, (w, p)) for n, w, p in _fields(recs[0]))
    assert lr[1][0] == 1  # fixed64
    assert int.from_bytes(lr[1][1], "little") == 2000000  # ts_us*1000
    assert lr[2] == (0, 17)  # ERROR
    assert lr[3][1] == b"ERROR"
    body = _fields(lr[5][1])
    assert body[0][0] == 1 and body[0][2].startswith(b"[ERROR]")
    # first attribute KeyValue: key=1, value=2 → AnyValue.string_value=1
    attrs = [p for n, w, p in _fields(recs[0]) if n == 6]
    kv0 = _fields(attrs[0])
    assert kv0[0] == (1, 2, b"conv.id")
    anyv = _fields(kv0[1][2])
    assert anyv[0] == (1, 2, b"c1")
    # turn.index rides AnyValue.int_value = 3 (varint)
    kv1 = _fields(attrs[1])
    assert kv1[0][2] == b"turn.index"
    assert _fields(kv1[1][2])[0][:2] == (3, 0)


def test_decode_inverts_encode():
    req = nest_otlp_batch(_transcript_batch()).to_pylist()[0]
    buf = encode_logs_request(req)
    tree = decode_logs_request(buf)
    rec = tree["resourceLogs"][0]["scopeLogs"][0]["logRecords"][0]
    assert rec["severityNumber"] == 17
    assert rec["timeUnixNano"] == "2000000"  # int64-as-string JSON form
    kv = {a["key"]: a["value"] for a in rec["attributes"]}
    assert kv["conv.id"]["stringValue"] == "c1"
    assert kv["turn.index"]["intValue"] == "0"


def test_pb_roundtrip_matches_json_roundtrip(ray_session, tmp_path):
    """The two wires must flatten to the identical table."""
    t = _transcript_batch()
    ds = ray.data.from_arrow(t)
    pb_dir, js_dir = str(tmp_path / "pb"), str(tmp_path / "js")
    assert write_otlp_logs_pb(ds, pb_dir) >= 1
    assert write_otlp_logs_json(ray.data.from_arrow(t), js_dir) >= 1
    assert glob.glob(pb_dir + "/*.binpb")

    key = ["conv_id", "turn_idx"]
    via_pb = read_otlp_logs_pb(pb_dir).to_pandas().sort_values(key)
    via_js = read_otlp_logs_json(js_dir).to_pandas().sort_values(key)
    via_pb = via_pb.reset_index(drop=True)
    via_js = via_js.reset_index(drop=True)
    assert sorted(via_pb.columns) == sorted(via_js.columns)
    import pandas.testing as pdt

    pdt.assert_frame_equal(via_pb[sorted(via_pb.columns)],
                           via_js[sorted(via_js.columns)])
    # and the payload text survived the binary wire byte-for-byte
    src = t.to_pandas().sort_values(key)
    assert via_pb["body"].tolist() == src["text"].tolist()
    assert via_pb["turn_idx"].tolist() == src["turn_idx"].tolist()


def test_empty_dataset_roundtrip(ray_session, tmp_path):
    empty = _transcript_batch().slice(0, 0)
    out = str(tmp_path / "empty_pb")
    n = write_otlp_logs_pb(ray.data.from_arrow(empty), out)
    # zero or one empty request is acceptable; reading back yields 0 rows
    files = glob.glob(out + "/*.binpb")
    if files:
        assert read_otlp_logs_pb(out).count() == 0
    else:
        assert n == 0


def _ld(field, payload):
    """A length-delimited protobuf field (payloads under 128 bytes)."""
    return bytes([field << 3 | 2, len(payload)]) + payload


def test_decode_skips_undeclared_fields():
    """A field the declaration leaves out is an unknown field on the
    wire: decode skips it unparsed, so it is not in the tree and a
    malformed value inside it does not fail the request."""
    # AnyValue.kvlist_value (6) holding bytes that are no KeyValueList
    attr = _ld(1, b"kv") + _ld(2, _ld(6, b"\xff\xff"))
    record = (
        bytes([1 << 3 | 1]) + (1000).to_bytes(8, "little")  # time_unix_nano
        + _ld(6, attr)  # attributes
        + bytes([11 << 3 | 1]) + (5).to_bytes(8, "little")  # observed_time
    )
    buf = _ld(1, _ld(2, _ld(2, record)))
    rec = {"timeUnixNano": "1000", "attributes": [{"key": "kv", "value": {}}]}
    assert decode_logs_request(buf) == {
        "resourceLogs": [{"scopeLogs": [{"logRecords": [rec]}]}]
    }
    flat = _flatten_request(buf, "logs", True, _classes())
    assert flat["time_unix_nano"].to_pylist() == [1000]


def test_encode_refuses_undeclared_keys():
    """Encode sets only declared fields: any other key is an error that
    names it, even one the published schema has."""
    req = {"resourceLogs": [{"scopeLogs": [{"logRecords": [
        {"timeUnixNano": "1000", "observedTimeUnixNano": "5"}
    ]}]}]}
    with pytest.raises(ValueError, match="observedTimeUnixNano"):
        encode_logs_request(req)
