"""OTLP/HTTP listener — live-push end-to-end and error-path tests.

The e2e test POSTs REAL wire bytes (binary ExportLogsServiceRequest
protobuf, gzip-compressed protobuf, and OTLP/JSON) from a SEPARATE
PROCESS (a stdlib urllib client subprocess — nothing shared with the
server but the socket), then processes the landed spool through the
checkpoint ledger and asserts the sink parquet equals the pushed
rows exactly — the reference receiver's delivery contract
(receiver/otlpreceiver/otlp.go:93-172, otlphttp.go)."""

import glob
import gzip
import json
import math
import os
import subprocess
import sys
import urllib.request

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from opentelemetry_collector_ray.fixtures import gen_transcripts
from opentelemetry_collector_ray.sources.otlp_json import (
    _strip_nulls,
    flatten_otlp_batch,
    nest_otlp_batch,
    read_otlp_json,
)
from opentelemetry_collector_ray.sources.otlp_pb import (
    SIGNALS,
    _classes,
    decode_request,
    encode_logs_request,
    encode_request,
    read_otlp_pb,
    typed_trees,
)
from opentelemetry_collector_ray.sources.transcripts import (
    transcripts_from_events,
)
from opentelemetry_collector_ray.state.httpreceiver import (
    OtlpHttpListener,
    _flatten_request,
)
from opentelemetry_collector_ray.state.receiver import SpoolReceiverActor
from tests.conftest import heavy_modules

SF_DIR = "/root/testdata/sf0.001"

# minimal stdlib POST client run as its own process: argv = url,
# payload file, content type, optional content-encoding; prints the
# HTTP status code
_CLIENT = """
import sys, urllib.request, urllib.error
url, path, ctype = sys.argv[1], sys.argv[2], sys.argv[3]
req = urllib.request.Request(url, data=open(path, 'rb').read(), method='POST')
req.add_header('Content-Type', ctype)
if len(sys.argv) > 4:
    req.add_header('Content-Encoding', sys.argv[4])
try:
    with urllib.request.urlopen(req) as resp:
        print(resp.status)
except urllib.error.HTTPError as e:
    print(e.code)
"""


def _post_subprocess(url, payload_path, ctype, encoding=None):
    argv = [sys.executable, "-c", _CLIENT, url, str(payload_path), ctype]
    if encoding:
        argv.append(encoding)
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    return int(out.stdout.strip())


def _footer_rows(spool: str) -> int:
    return sum(
        pq.read_metadata(f).num_rows for f in glob.glob(spool + "/*.parquet")
    )


def _request_row(n_rows: int = 192):
    """One real ExportLogsServiceRequest tree from sf0.001 transcripts."""
    t = pa.Table.from_pandas(
        transcripts_from_events(SF_DIR).limit(n_rows).to_pandas(),
        preserve_index=False,
    )
    nested = nest_otlp_batch(t)
    return nested.to_pylist()[0], nested


def test_http_listener_end_to_end(tmp_path):
    """pb + gzip'd pb + JSON POSTs from a separate process → durable
    spool → checkpoint ledger → sink parquet == the flattened wire
    content, exactly once."""
    from opentelemetry_collector_ray.state.checkpoint import run_partitioned

    row, nested = _request_row()
    pb_body = encode_logs_request(row)
    json_body = json.dumps(_strip_nulls(row), separators=(",", ":")).encode()

    spool = str(tmp_path / "spool")
    actor = SpoolReceiverActor.remote(spool, max_buffer_rows=1 << 20)
    lis = OtlpHttpListener({"logs": actor})
    port = lis.start()
    try:
        url = f"http://127.0.0.1:{port}/v1/logs"
        p_pb = tmp_path / "req.binpb"
        p_pb.write_bytes(pb_body)
        p_gz = tmp_path / "req.binpb.gz"
        p_gz.write_bytes(gzip.compress(pb_body))
        p_js = tmp_path / "req.json"
        p_js.write_bytes(json_body)

        # ack contract: durable=True means the rows are ALREADY landed
        # (no flush needed) — after every 200, the spool's parquet
        # footers hold exactly the rows acked so far
        per_request = flatten_otlp_batch(nested).num_rows
        posts = (
            (p_pb, "application/x-protobuf", None),
            (p_gz, "application/x-protobuf", "gzip"),
            (p_js, "application/json", None),
        )
        for k, (path, ctype, enc) in enumerate(posts, 1):
            assert _post_subprocess(url, path, ctype, encoding=enc) == 200
            assert _footer_rows(spool) == k * per_request
        files = sorted(glob.glob(spool + "/*.parquet"))

        out = str(tmp_path / "out")
        run_partitioned(
            files,
            out,
            lambda paths: ray.data.read_parquet(paths),
            num_partitions=2,
        )
        got = (
            ray.data.read_parquet(glob.glob(out + "/part-*/*.parquet"))
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"], kind="mergesort")
            .reset_index(drop=True)
        )
        expected_one = (
            flatten_otlp_batch(nested)
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"], kind="mergesort")
            .reset_index(drop=True)
        )
        # the same request landed 3× (pb, gzip pb, json) — at-least-
        # once per POST, each POST exactly once
        assert len(got) == 3 * len(expected_one)
        one = (
            got.groupby(["conv_id", "turn_idx"], as_index=False)
            .first()
            .sort_values(["conv_id", "turn_idx"], kind="mergesort")
            .reset_index(drop=True)
        )
        counts = got.groupby(["conv_id", "turn_idx"]).size()
        assert (counts == 3).all()
        for col in ("conv_id", "turn_idx", "body", "severity_text"):
            if col in expected_one.columns:
                assert one[col].tolist() == expected_one[col].tolist()
        assert int(ray.get(actor.stats.remote())["accepted"]) == len(got)
        assert lis.accepted == len(got)
    finally:
        lis.stop()


def test_http_listener_keeps_the_receiver_lean(tmp_path):
    """The listener hands each request to the actor as IPC bytes: after
    a protobuf and a JSON push the actor's process holds no Ray Data,
    pandas or ray.air (a ``pa.Table`` argument loads all three there)."""
    row = nest_otlp_batch(gen_transcripts(20).slice(0, 64)).to_pylist()[0]
    bodies = (
        ("application/x-protobuf", encode_logs_request(row)),
        ("application/json", json.dumps(_strip_nulls(row)).encode()),
    )
    spool = str(tmp_path / "spool")
    actor = SpoolReceiverActor.remote(spool)
    lis = OtlpHttpListener({"logs": actor})
    port = lis.start()
    try:
        for ctype, body in bodies:
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/logs", data=body, method="POST"
            )
            req.add_header("Content-Type", ctype)
            with urllib.request.urlopen(req) as resp:
                assert resp.status == 200
            assert heavy_modules(actor) == [], ctype
        assert _footer_rows(spool) == lis.accepted == 2 * 64
    finally:
        lis.stop()


def test_http_listener_traces_and_metrics_signals(tmp_path):
    """The same listener front serves /v1/traces and /v1/metrics with
    their own codecs and per-signal spool receivers (per-signal
    registration, otlp.go:246-269)."""
    from opentelemetry_collector_ray.sources.otlp_metrics import (
        nest_otlp_metrics_batch,
    )
    from opentelemetry_collector_ray.sources.otlp_pb import (
        encode_metrics_request,
        encode_traces_request,
    )
    from opentelemetry_collector_ray.sources.otlp_traces import (
        nest_otlp_traces_batch,
    )

    t = pa.Table.from_pandas(
        transcripts_from_events(SF_DIR).limit(96).to_pandas(),
        preserve_index=False,
    )
    tr_row = nest_otlp_traces_batch(t).to_pylist()[0]
    mx_row = nest_otlp_metrics_batch(t).to_pylist()[0]

    spools = {s: str(tmp_path / f"spool_{s}") for s in ("traces", "metrics")}
    actors = {
        s: SpoolReceiverActor.remote(d, receiver_id=s)
        for s, d in spools.items()
    }
    lis = OtlpHttpListener(actors)
    port = lis.start()
    try:
        for signal, body in (
            ("traces", encode_traces_request(tr_row)),
            ("metrics", encode_metrics_request(mx_row)),
        ):
            p = tmp_path / f"req_{signal}.binpb"
            p.write_bytes(body)
            assert (
                _post_subprocess(
                    f"http://127.0.0.1:{port}/v1/{signal}",
                    p,
                    "application/x-protobuf",
                )
                == 200
            )
        for s, d in spools.items():
            files = glob.glob(d + "/*.parquet")
            assert files, f"no spool landed for {s}"
            landed = ray.data.read_parquet(files).to_pandas()
            assert len(landed) > 0
            key = "trace_id" if s == "traces" else "metric_name"
            assert key in landed.columns
    finally:
        lis.stop()


# every ID field of a request, as protobuf attribute paths from its root
_WIRE_IDS = {
    "logs": [
        (("resource_logs", "scope_logs", "log_records"), ("trace_id", "span_id")),
    ],
    "traces": [
        (
            ("resource_spans", "scope_spans", "spans"),
            ("trace_id", "span_id", "parent_span_id"),
        ),
        (("resource_spans", "scope_spans", "spans", "links"), ("trace_id", "span_id")),
    ],
    "metrics": [],
}


def _blocks(ds):
    """A dataset's blocks as one table: every block, empty or not, has
    the flat schema (a read runs at most one task per file)."""
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


@pytest.mark.parametrize("signal", sorted(SIGNALS))
def test_listener_and_file_readers_flatten_alike(tmp_path, signal):
    """One request, four paths to flat rows: the listener's flatten of
    its protobuf bytes and of its OTLP/JSON bytes, and the .binpb and
    NDJSON file readers over that request written to a file. The rows
    carry the IDs the hex↔bytes conversion walks: log trace/span IDs,
    span parent IDs and span links."""
    sig = SIGNALS[signal]
    row = sig.nest(gen_transcripts(3)).to_pylist()[0]
    pb = encode_request(sig, row)
    js = json.dumps(_strip_nulls(row)).encode()
    classes = _classes()
    (tmp_path / "req.binpb").write_bytes(pb)
    (tmp_path / "req.json").write_bytes(js + b"\n")

    tables = [
        _flatten_request(pb, signal, True, classes),
        _flatten_request(js, signal, False, classes),
        _blocks(read_otlp_pb(str(tmp_path / "req.binpb"), signal=sig)),
        _blocks(
            read_otlp_json(
                str(tmp_path / "req.json"),
                schema=pa.schema([(sig.root, sig.tree_type)]),
                flatten=sig.flatten,
            )
        ),
    ]
    want = tables[0]
    assert len(want) > 0
    # on the binary wire every ID is raw bytes: 16 for a trace, 8 for a span
    msg = classes[sig.request].FromString(pb)
    for path, fields in _WIRE_IDS[signal]:
        nodes = [msg]
        for key in path:
            nodes = [c for n in nodes for c in getattr(n, key)]
        ids = [getattr(n, f) for n in nodes for f in fields]
        assert ids and {len(i) for i in ids if i} == {16, 8}
    for got in tables[1:]:
        assert got.schema == want.schema
        assert got.to_pylist() == want.to_pylist()
    if signal == "logs":
        assert want["trace_id"].null_count == want["span_id"].null_count == 0
    if signal == "traces":
        assert want["parent_span_id"].null_count < len(want)
        assert want["link_span_id"].null_count < len(want)


# the edge corpus: each signal's levels, one record of each, and the
# row it flattens to (the rows the inferring JSON parse gave, where it
# gave any)
_LEVELS = {
    "logs": ("resourceLogs", "scopeLogs", "logRecords"),
    "traces": ("resourceSpans", "scopeSpans", "spans"),
    "metrics": ("resourceMetrics", "scopeMetrics", "metrics"),
}
_SVC = {"key": "service.name", "value": {"stringValue": "svc"}}
_CONTEXT = {"service": "svc", "scope_name": "sc", "scope_version": "1"}
_NO_ATTRS = {"conv_id": None, "turn_idx": None, "tool": None}
_BARE = {
    "logs": (
        {"timeUnixNano": "1000"},
        {
            **_CONTEXT, "time_unix_nano": 1000, "severity_number": None,
            "severity_text": None, "body": None, "trace_id": None,
            "span_id": None, **_NO_ATTRS,
        },
    ),
    "traces": (
        {
            "traceId": "0" * 32, "spanId": "1" * 16, "name": "s",
            "startTimeUnixNano": "1000", "endTimeUnixNano": "2000",
        },
        {
            **_CONTEXT, "trace_id": "0" * 32, "span_id": "1" * 16,
            "parent_span_id": None, "name": "s", "kind": 0,
            "start_unix_nano": 1000, "end_unix_nano": 2000, "status_code": 0,
            "event_name": None, "link_span_id": None, **_NO_ATTRS,
        },
    ),
    "metrics": (
        {"timeUnixNano": "1000", "asInt": "5"},  # one gauge datapoint
        {
            **_CONTEXT, "metric_name": "m", "temporality": 0,
            "is_monotonic": False, "time_unix_nano": 1000, "value": 5,
            **_NO_ATTRS,
        },
    ),
}


def _edge_request(signal, fields=(), attrs=None, res=(), scope=(), top=()):
    """One record (for metrics: one gauge datapoint) with ``fields``
    and ``attrs`` on it; ``res``/``scope``/``top`` add keys to the
    resource, the scope entry and the request."""
    root, scopes, items = _LEVELS[signal]
    rec = {**_BARE[signal][0], **dict(fields)}
    if attrs is not None:
        rec["attributes"] = attrs
    if signal == "metrics":
        rec = {"name": "m", "gauge": {"dataPoints": [rec]}}
    return {
        root: [
            {
                "resource": {"attributes": [_SVC], **dict(res)},
                scopes: [
                    {"scope": {"name": "sc", "version": "1"}, items: [rec],
                     **dict(scope)}
                ],
            }
        ],
        **dict(top),
    }


# fields the published schema has and the declaration leaves out, for
# a request the full schema can encode (the last edge case)
_PB_FOREIGN = {
    "logs": {"observedTimeUnixNano": "5", "flags": 1, "droppedAttributesCount": 2},
    "traces": {"traceState": "t", "droppedAttributesCount": 2, "droppedEventsCount": 1},
    "metrics": {"startTimeUnixNano": "5", "flags": 1},
}
_ODD_ATTRS = [
    {"key": "b", "value": {"boolValue": True}},
    {"key": "d", "value": {"doubleValue": 1.5}},
    {"key": "kv", "value": {"kvlistValue": {"values": [_SVC]}}},
    {"key": "conv.id", "value": {"stringValue": "c1"}},
]


def _foreign_request(signal):
    """Foreign fields on the record, resource and scope entry, and
    AnyValue kinds outside the tree in the attributes (and the log
    body)."""
    body = {"body": {"boolValue": True}} if signal == "logs" else {}
    return _edge_request(
        signal, {**_PB_FOREIGN[signal], **body}, _ODD_ATTRS,
        res={"droppedAttributesCount": 1}, scope={"schemaUrl": "u"},
    )


# _foreign_request(signal) as the full published schema encodes it
_PB_EDGE = {
    "logs": (
        "0a93010a190a150a0c736572766963652e6e616d6512050a0373766310011276"
        "0a070a027363120131126809e8030000000000002a02100132070a0162120210"
        "01320e0a0164120921000000000000f83f321f0a026b76121932170a150a0c73"
        "6572766963652e6e616d6512050a03737663320f0a07636f6e762e696412040a"
        "026331380245010000005905000000000000001a0175"
    ),
    "metrics": (
        "0a9a010a190a150a0c736572766963652e6e616d6512050a037376631001127d"
        "0a070a027363120131126f0a016d2a6a0a6811050000000000000019e8030000"
        "000000003105000000000000003a070a0162120210013a0e0a01641209210000"
        "00000000f83f3a1f0a026b76121932170a150a0c736572766963652e6e616d65"
        "12050a037376633a0f0a07636f6e762e696412040a02633140011a0175"
    ),
    "traces": (
        "0ab0010a190a150a0c736572766963652e6e616d6512050a0373766310011292"
        "010a070a0273631201311283010a100000000000000000000000000000000012"
        "0811111111111111111a01742a017339e80300000000000041d0070000000000"
        "004a070a0162120210014a0e0a0164120921000000000000f83f4a1f0a026b76"
        "121932170a150a0c736572766963652e6e616d6512050a037376634a0f0a0763"
        "6f6e762e696412040a026331500260011a0175"
    ),
}


@pytest.mark.parametrize("signal", sorted(SIGNALS))
def test_listener_and_json_reader_flatten_edge_requests(tmp_path, signal):
    """The OTLP/JSON edge corpus: empty requests, a resource without
    scopes, a bare record, unknown fields at every level and AnyValue
    kinds outside the tree all flatten to the same typed rows through
    the listener and the NDJSON file reader. The last case also comes
    as protobuf bytes, and the listener and the .binpb reader flatten
    them to the same rows. A number where proto3 JSON writes a 64-bit
    integer as a string is refused."""
    sig = SIGNALS[signal]
    schema = pa.schema([(sig.root, sig.tree_type)])
    want_schema = sig.flatten(sig.nest(gen_transcripts(3))).schema
    bare = _BARE[signal][1]
    unknown = {"observedTimeUnixNano": "5", "flags": 1,
               "droppedAttributesCount": 2}
    cases = [
        ({}, []),
        ({"resourceX": []}, []),
        ({sig.root: [{"resource": {"attributes": [_SVC]}}]}, []),
        (_edge_request(signal), [bare]),
        (
            _edge_request(
                signal, unknown, [_SVC], res={"droppedAttributesCount": 1},
                scope={"schemaUrl": "u"}, top={"extra": 1},
            ),
            [bare],
        ),
        (
            _edge_request(
                signal,
                {"body": {"boolValue": True}} if signal == "logs" else {},
                _ODD_ATTRS,
            ),
            [{**bare, "conv_id": "c1"}],
        ),
        (_foreign_request(signal), [{**bare, "conv_id": "c1"}]),
    ]
    bodies = [(json.dumps(req).encode(), False, rows) for req, rows in cases]
    bodies.append((bytes.fromhex(_PB_EDGE[signal]), True, cases[-1][1]))
    classes = _classes()
    for i, (body, is_pb, rows) in enumerate(bodies):
        d = tmp_path / str(i)
        d.mkdir()
        if is_pb:
            (d / "req.binpb").write_bytes(body)
            read = read_otlp_pb(str(d), signal=sig)
        else:
            (d / "req.json").write_bytes(body + b"\n")
            read = read_otlp_json(str(d), schema=schema, flatten=sig.flatten)
        for got in (
            _flatten_request(body, signal, is_pb, classes),
            _blocks(read),
        ):
            assert got.schema == want_schema, body
            assert got.to_pylist() == rows, body
    # proto3 JSON's 64-bit integers are decimal strings: a bare number
    # is a decode error (400 at the listener), not a guessed type
    time_key = "startTimeUnixNano" if signal == "traces" else "timeUnixNano"
    numeric = json.dumps(_edge_request(signal, {time_key: 1000})).encode()
    with pytest.raises(pa.ArrowInvalid):
        _flatten_request(numeric, signal, False, classes)


def test_protobuf_non_finite_double_reads_as_a_value():
    """A NaN or infinite double on the protobuf wire is a value: a
    histogram sum of NaN and a min of -inf decode as such and the
    request flattens. The JSON wire still refuses proto3's "NaN"
    string for a double."""
    sig = SIGNALS["metrics"]
    req = _edge_request("metrics")
    dp = {"timeUnixNano": "1000", "count": "1", "sum": math.nan, "min": -math.inf}
    req[sig.root][0]["scopeMetrics"][0]["metrics"].append(
        {"name": "h", "histogram": {"dataPoints": [dp]}}
    )
    pb = encode_request(sig, req)
    classes = _classes()
    assert _flatten_request(pb, "metrics", True, classes).to_pylist() == [
        _BARE["metrics"][1]
    ]
    tree = typed_trees(sig, [decode_request(sig, pb)[sig.root]])
    hist = tree[sig.root][0][0]["scopeMetrics"][0]["metrics"][1]["histogram"]
    got = hist["dataPoints"][0].as_py()
    assert math.isnan(got["sum"]) and got["min"] == -math.inf
    dp["sum"], dp["min"] = "NaN", "-Infinity"
    with pytest.raises(pa.ArrowInvalid):
        _flatten_request(json.dumps(req).encode(), "metrics", False, classes)


def test_http_listener_error_paths(tmp_path):
    """otlp.go error mapping: 404 unknown path/signal, 405 GET, 415
    bad content type, 400 undecodable body, 429 + Retry-After on spool
    backlog saturation."""
    spool = str(tmp_path / "spool")
    os.makedirs(spool)
    actor = SpoolReceiverActor.remote(spool, max_buffer_rows=1 << 20)
    lis = OtlpHttpListener(
        {"logs": actor},
        max_spool_backlog=1,
        spool_dir=spool,
    )
    port = lis.start()
    base = f"http://127.0.0.1:{port}"

    def post(path, body=b"{}", ctype="application/json", method="POST"):
        req = urllib.request.Request(
            base + path, data=body if method == "POST" else None,
            method=method,
        )
        if method == "POST":
            req.add_header("Content-Type", ctype)
        try:
            with urllib.request.urlopen(req) as resp:
                return resp.status, dict(resp.headers)
        except urllib.error.HTTPError as e:
            return e.code, dict(e.headers)

    import urllib.error

    try:
        assert post("/v1/nope")[0] == 404
        assert post("/v2/logs")[0] == 404
        assert post("/v1/traces")[0] == 404  # no traces receiver wired
        assert post("/v1/logs", method="GET")[0] == 405
        assert post("/v1/logs", ctype="text/plain")[0] == 415
        code, _ = post(
            "/v1/logs", body=b"\xde\xad\xbe\xef",
            ctype="application/x-protobuf",
        )
        assert code == 400
        # valid empty JSON requests still land (zero rows, no file)
        assert post("/v1/logs", body=b'{"resourceLogs":[]}')[0] == 200
        assert post("/v1/logs", body=b"{}")[0] == 200
        # a JSON number where proto3 JSON writes a fixed64 string
        numeric = json.dumps(_edge_request("logs", {"timeUnixNano": 1000}))
        assert post("/v1/logs", body=numeric.encode())[0] == 400
        assert not glob.glob(spool + "/*.parquet")

        # saturate: pre-land one spool file, backlog limit is 1
        row, _ = _request_row(32)
        body = json.dumps(_strip_nulls(row), separators=(",", ":")).encode()
        assert post("/v1/logs", body=body)[0] == 200
        code, headers = post("/v1/logs", body=body)
        assert code == 429
        assert headers.get("Retry-After") == "1"
        assert lis.refused >= 6
    finally:
        lis.stop()


def test_http_listener_refuses_unsized_post(tmp_path):
    """A POST the listener cannot size (chunked, or no Content-Length)
    answers 411 and lands nothing — it was read as an empty body and
    acked 200 with the rows dropped."""
    import http.client

    spool = str(tmp_path / "spool")
    actor = SpoolReceiverActor.remote(spool, max_buffer_rows=1 << 20)
    lis = OtlpHttpListener({"logs": actor})
    port = lis.start()
    row, _ = _request_row(32)
    body = json.dumps(_strip_nulls(row), separators=(",", ":")).encode()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        # an iterable body without Content-Length goes out chunked
        conn.request(
            "POST", "/v1/logs", body=iter([body[:100], body[100:]]),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        assert resp.status == 411
        assert resp.getheader("Connection") == "close"
        conn.close()

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.putrequest("POST", "/v1/logs")
        conn.putheader("Content-Type", "application/json")
        conn.endheaders()
        assert conn.getresponse().status == 411
        conn.close()

        assert lis.accepted == 0
        assert lis.refused == 2
        assert not glob.glob(os.path.join(spool, "*.parquet"))
    finally:
        lis.stop()


def test_http_listener_refuses_a_bad_content_length(tmp_path):
    """A Content-Length that is not a decimal integer in [0,
    sys.maxsize] answers 400 at once and counts as refused. ``abc`` and
    an overflowing value closed the connection with no answer; ``-1``
    read the body to EOF while holding an in-flight slot, so with one
    slot every later push was turned away with 429."""
    import socket

    spool = str(tmp_path / "spool")
    actor = SpoolReceiverActor.remote(spool, max_buffer_rows=1 << 20)
    lis = OtlpHttpListener({"logs": actor}, max_inflight=1)
    port = lis.start()
    try:
        for value in ("abc", "-1", "99999999999999999999"):
            with socket.create_connection(("127.0.0.1", port), timeout=1) as s:
                s.sendall(
                    b"POST /v1/logs HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + value.encode() + b"\r\n\r\n{}"
                )
                # no shutdown of our side: a read to EOF would wait on it
                status = s.recv(64).split(b"\r\n")[0]
            assert status.split()[1] == b"400", (value, status)
        assert lis.refused == 3

        row, _ = _request_row(32)
        body = json.dumps(_strip_nulls(row), separators=(",", ":")).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/logs", data=body, method="POST"
        )
        req.add_header("Content-Type", "application/json")
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.status == 200
        assert lis.accepted == 32 and lis.refused == 3
    finally:
        lis.stop()


def test_http_listener_rejects_unknown_signal_config():
    with pytest.raises(ValueError, match="unknown signals"):
        OtlpHttpListener({"logz": None})
    with pytest.raises(ValueError, match="needs spool_dir"):
        OtlpHttpListener({"logs": None}, max_spool_backlog=3)
