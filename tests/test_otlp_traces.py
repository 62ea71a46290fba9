"""OTLP traces codecs: JSON wire form (hex IDs, omitted unset fields),
binary-protobuf wire bytes (hand-decoded tag checks), roundtrips, and
cross-codec parity — both wires share one nest/flatten tree."""

import glob
import os

import pyarrow as pa
import pytest
import ray.data

from opentelemetry_collector_ray.fixtures import gen_transcripts
from opentelemetry_collector_ray.sources.otlp_pb import (
    decode_traces_request,
    encode_traces_request,
    read_otlp_traces_pb,
    write_otlp_traces_pb,
)
from opentelemetry_collector_ray.sources.otlp_traces import (
    flatten_otlp_traces_batch,
    nest_otlp_traces_batch,
    read_otlp_traces_json,
    write_otlp_traces_json,
)
from tests.test_otlp_pb import _fields


def _transcript_batch():
    return pa.table(
        {
            "conv_id": ["c2", "c1", "c1", "c3"],
            "turn_idx": pa.array([0, 0, 1, 0], type=pa.int32()),
            "role": ["user", "assistant", "tool", "user"],
            "text": [
                "[INFO] action=search latency_ms=5 msg=a",
                "[ERROR] action=fetch latency_ms=9 msg=b",
                "freeform note",
                "[WARN] action=plan latency_ms=1 msg=c",
            ],
            "tool": ["", "sql", "bash", ""],
            "ts": pa.array([1000, 2000, 3000, 4000], type=pa.timestamp("us")),
        }
    )


def test_nest_flatten_identity_and_id_scheme():
    flat = flatten_otlp_traces_batch(
        nest_otlp_traces_batch(_transcript_batch())
    ).to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    import hashlib

    assert flat["trace_id"].tolist() == [
        hashlib.md5(c.encode()).hexdigest() for c in ["c1", "c1", "c2", "c3"]
    ]
    assert (
        flat["span_id"].iloc[0]
        == hashlib.md5(b"c1:0").hexdigest()[:16]
    )
    # root spans have no parent; turn 1 links to turn 0's span id
    assert flat["parent_span_id"].iloc[0] is None
    assert flat["parent_span_id"].iloc[1] == flat["span_id"].iloc[0]
    # status: code 2 only for the [ERROR] turn, 0 (UNSET default) else
    assert flat["status_code"].tolist() == [2, 0, 0, 0]
    # kind vocabulary: user=3 CLIENT, assistant=2 SERVER, tool=1 INTERNAL
    assert flat["kind"].tolist() == [2, 1, 3, 3]
    # end = start + latency_ms in ns; parse-miss span is zero-duration
    assert (flat["end_unix_nano"] - flat["start_unix_nano"]).tolist() == [
        9_000_000,
        0,
        5_000_000,
        1_000_000,
    ]
    assert flat["name"].tolist() == ["fetch", "unparsed", "search", "plan"]


def test_json_wire_form(ray_session, tmp_path):
    out = str(tmp_path / "traces_json")
    assert write_otlp_traces_json(
        ray.data.from_arrow(_transcript_batch()), out
    ) >= 1
    line = open(glob.glob(out + "/*.json")[0]).read().splitlines()[0]
    # hex IDs (the OTLP JSON deviation), int64-as-string times, no nulls
    assert '"traceId":"' in line and '"spanId":"' in line
    assert '"startTimeUnixNano":"' in line
    assert ":null" not in line
    # roots omit parentSpanId entirely; only turn 1 of c1 carries one
    assert line.count('"parentSpanId"') == 1
    # status only on the ERROR span
    assert line.count('"status"') == 1 and '"code":2' in line


def test_pb_wire_bytes_are_real_protobuf():
    """Hand-decode the serialized request: field numbers and wire types
    must match the published opentelemetry-proto trace schema."""
    req = nest_otlp_traces_batch(_transcript_batch()).to_pylist()[0]
    buf = encode_traces_request(req)
    top = _fields(buf)
    # ExportTraceServiceRequest.resource_spans = 1 (len-delimited)
    assert top and all(num == 1 and wt == 2 for num, wt, _ in top)

    # find the 'data' resource (service sql → assistant scope first)
    rs = _fields(top[0][2])
    assert rs[0][:2] == (1, 2)  # resource
    scope_spans = [p for n, w, p in rs if n == 2]
    assert scope_spans
    ss = _fields(scope_spans[0])
    spans = [p for n, w, p in ss if n == 2]
    assert spans
    # Span: trace_id=1 bytes(16), span_id=2 bytes(8), name=5,
    # kind=6 varint, start=7 fixed64, end=8 fixed64, status=15
    span = _fields(spans[0])
    d = {}
    for n, w, p in span:
        d.setdefault(n, (w, p))
    assert d[1][0] == 2 and len(d[1][1]) == 16
    assert d[2][0] == 2 and len(d[2][1]) == 8
    assert d[5][0] == 2  # name
    assert d[6][0] == 0  # kind varint
    assert d[7][0] == 1 and d[8][0] == 1  # fixed64 times
    import hashlib

    # raw bytes on the binary wire == the hex JSON form decoded
    assert d[1][1] == bytes.fromhex(hashlib.md5(b"c1").hexdigest())
    assert d[2][1] == bytes.fromhex(hashlib.md5(b"c1:0").hexdigest()[:16])
    # the ERROR span carries Status{code=3 field → varint 2}
    if 15 in d:
        st = _fields(d[15][1])
        assert (3, 0, 2) in st


def test_decode_inverts_encode():
    req = nest_otlp_traces_batch(_transcript_batch()).to_pylist()[0]
    tree = decode_traces_request(encode_traces_request(req))
    span = tree["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
    import hashlib

    assert span["traceId"] == hashlib.md5(b"c1").hexdigest()
    assert span["spanId"] == hashlib.md5(b"c1:0").hexdigest()[:16]
    assert span["kind"] == 2
    assert span["startTimeUnixNano"] == "2000000"
    assert span["status"]["code"] == 2


def test_pb_roundtrip_matches_json_roundtrip(ray_session, tmp_path):
    """The two wires must flatten to the identical table."""
    t = _transcript_batch()
    pb_dir, js_dir = str(tmp_path / "pb"), str(tmp_path / "js")
    assert write_otlp_traces_pb(ray.data.from_arrow(t), pb_dir) >= 1
    assert write_otlp_traces_json(ray.data.from_arrow(t), js_dir) >= 1
    assert glob.glob(pb_dir + "/*.binpb")

    key = ["conv_id", "turn_idx"]
    via_pb = read_otlp_traces_pb(pb_dir).to_pandas().sort_values(key)
    via_js = read_otlp_traces_json(js_dir).to_pandas().sort_values(key)
    via_pb = via_pb.reset_index(drop=True)
    via_js = via_js.reset_index(drop=True)
    import pandas.testing as pdt

    pdt.assert_frame_equal(via_pb[sorted(via_pb.columns)],
                           via_js[sorted(via_js.columns)])
    src = t.to_pandas().sort_values(key)
    assert via_pb["turn_idx"].tolist() == src["turn_idx"].tolist()


def test_empty_dataset_roundtrip(ray_session, tmp_path):
    empty = _transcript_batch().slice(0, 0)
    out = str(tmp_path / "empty_tr")
    n = write_otlp_traces_pb(ray.data.from_arrow(empty), out)
    files = glob.glob(out + "/*.binpb")
    if files:
        assert read_otlp_traces_pb(out).count() == 0
    else:
        assert n == 0


def test_span_events_and_links():
    """Repeated nested Span.Event (field 11) / Span.Link (field 13)
    survive both wires: one event per span, one link to the trace root
    on non-root spans — raw-byte link IDs on the binary wire."""
    import hashlib

    flat = flatten_otlp_traces_batch(
        nest_otlp_traces_batch(_transcript_batch())
    ).to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert flat["event_name"].tolist() == flat["name"].tolist()
    assert flat["link_span_id"].iloc[0] is None  # root: no link
    assert (
        flat["link_span_id"].iloc[1]
        == hashlib.md5(b"c1:0").hexdigest()[:16]
    )

    req = nest_otlp_traces_batch(_transcript_batch()).to_pylist()[0]
    buf = encode_traces_request(req)
    rs = _fields(_fields(buf)[0][2])
    ss = _fields([p for n, w, p in rs if n == 2][0])
    spans = [p for n, w, p in ss if n == 2]
    span = _fields(spans[0])
    events = [p for n, w, p in span if n == 11]
    assert len(events) == 1
    ev = dict((n, (w, p)) for n, w, p in _fields(events[0]))
    assert ev[1][0] == 1  # time fixed64
    assert ev[2][1] == b"fetch"
    # decode side: link IDs come back as hex
    tree = decode_traces_request(buf)
    for rs_d in tree["resourceSpans"]:
        for ss_d in rs_d["scopeSpans"]:
            for sp_d in ss_d["spans"]:
                for lk in sp_d.get("links", []):
                    assert len(lk["spanId"]) == 16
                    int(lk["spanId"], 16)  # valid hex


@pytest.mark.parametrize("requests_per_file", [2, 8])
@pytest.mark.parametrize("compression", [None, "gzip"])
def test_multi_file_json_reads_like_pb(
    ray_session, tmp_path, compression, requests_per_file
):
    """Several NDJSON files in one directory (3 or 10 here, so a read
    task gets more than one) read back the rows the .binpb reader gives
    for the same requests. The JSON reader used to infer each file's
    span struct in first-seen field order (a root span first puts
    ``parentSpanId`` last), so two files' trees could not be
    concatenated: "struct fields don't match or are in the wrong
    order"."""
    ds = ray.data.from_arrow(gen_transcripts(300)).materialize()
    js, pb = str(tmp_path / "js"), str(tmp_path / "pb")
    kw = dict(requests_per_file=requests_per_file)
    n = write_otlp_traces_json(ds, js, compression, 100, **kw)
    assert n == write_otlp_traces_pb(ds, pb, compression, 100, **kw)
    assert len(os.listdir(js)) == len(os.listdir(pb)) > 1

    def rows(reader, d):
        df = reader(d).to_pandas()
        return df.sort_values(["trace_id", "span_id"]).reset_index(drop=True)

    got, want = rows(read_otlp_traces_json, js), rows(read_otlp_traces_pb, pb)
    assert len(want) == ds.count()
    assert got.equals(want)
