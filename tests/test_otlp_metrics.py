"""OTLP metrics codecs: Metric oneof (Gauge vs Sum), NumberDataPoint
asInt wire form, hand-decoded protobuf tags, and cross-codec parity."""

import glob

import pyarrow as pa
import ray.data

from opentelemetry_collector_ray.sources.otlp_metrics import (
    flatten_otlp_metrics_batch,
    nest_otlp_metrics_batch,
    read_otlp_metrics_json,
    write_otlp_metrics_json,
)
from opentelemetry_collector_ray.sources.otlp_pb import (
    decode_metrics_request,
    encode_metrics_request,
    read_otlp_metrics_pb,
    write_otlp_metrics_pb,
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


def test_nest_flatten_semantics():
    flat = flatten_otlp_metrics_batch(
        nest_otlp_metrics_batch(_transcript_batch())
    ).to_pandas()
    gauge = flat[flat["metric_name"] == "turn.latency_ms"]
    cnt = flat[flat["metric_name"] == "turn.count"]
    # gauge: one point per PARSED turn (the freeform row has none)
    assert len(gauge) == 3 and len(cnt) == 4
    assert sorted(gauge["value"].tolist()) == [1, 5, 9]
    assert gauge["temporality"].unique().tolist() == [0]
    assert not gauge["is_monotonic"].any()
    # sum: DELTA monotonic, one unit per turn
    assert cnt["temporality"].unique().tolist() == [1]
    assert cnt["is_monotonic"].all()
    assert cnt["value"].unique().tolist() == [1]


def test_json_wire_form(ray_session, tmp_path):
    out = str(tmp_path / "metrics_json")
    assert write_otlp_metrics_json(
        ray.data.from_arrow(_transcript_batch()), out
    ) >= 1
    line = open(glob.glob(out + "/*.json")[0]).read().splitlines()[0]
    assert ":null" not in line
    # the Metric oneof: gauge metrics never carry "sum" and vice versa
    assert '"gauge":{"dataPoints"' in line
    assert '"sum":{"dataPoints"' in line
    # proto3 JSON: 64-bit ints as strings, temporality as int
    assert '"asInt":"9"' in line
    assert '"aggregationTemporality":1' in line
    assert '"isMonotonic":true' in line


def test_pb_wire_bytes_are_real_protobuf():
    """Field numbers / wire types must match the published
    opentelemetry-proto metrics schema."""
    req = nest_otlp_metrics_batch(_transcript_batch()).to_pylist()[0]
    buf = encode_metrics_request(req)
    top = _fields(buf)
    # ExportMetricsServiceRequest.resource_metrics = 1
    assert top and all(num == 1 and wt == 2 for num, wt, _ in top)
    rm = _fields(top[0][2])
    assert rm[0][:2] == (1, 2)  # resource
    sm = _fields([p for n, w, p in rm if n == 2][0])
    metrics = [p for n, w, p in sm if n == 2]
    assert len(metrics) == 5  # all five wire branches per scope
    m0 = dict((n, (w, p)) for n, w, p in _fields(metrics[0]))
    assert m0[1][1] == b"turn.latency_ms"
    assert 5 in m0 and 7 not in m0  # gauge=5 set, sum=7 not
    dp = _fields(_fields(m0[5][1])[0][2])
    d = dict((n, (w, p)) for n, w, p in dp)
    # NumberDataPoint: time_unix_nano=3 fixed64, as_int=6 SFIXED64
    assert d[3][0] == 1
    assert d[6][0] == 1 and int.from_bytes(d[6][1], "little", signed=True) == 9
    m1 = dict((n, (w, p)) for n, w, p in _fields(metrics[1]))
    assert m1[1][1] == b"turn.count"
    assert 7 in m1 and 5 not in m1  # sum=7 set
    sumf = _fields(m1[7][1])
    assert (2, 0, 1) in sumf  # aggregation_temporality DELTA
    assert (3, 0, 1) in sumf  # is_monotonic true


def test_decode_inverts_encode():
    req = nest_otlp_metrics_batch(_transcript_batch()).to_pylist()[0]
    tree = decode_metrics_request(encode_metrics_request(req))
    metric = tree["resourceMetrics"][0]["scopeMetrics"][0]["metrics"][0]
    assert metric["name"] == "turn.latency_ms"
    assert metric["gauge"]["dataPoints"][0]["asInt"] == "9"
    assert "sum" not in metric


def test_pb_roundtrip_matches_json_roundtrip(ray_session, tmp_path):
    t = _transcript_batch()
    pb_dir, js_dir = str(tmp_path / "pb"), str(tmp_path / "js")
    assert write_otlp_metrics_pb(ray.data.from_arrow(t), pb_dir) >= 1
    assert write_otlp_metrics_json(ray.data.from_arrow(t), js_dir) >= 1

    key = ["metric_name", "conv_id", "turn_idx"]
    via_pb = read_otlp_metrics_pb(pb_dir).to_pandas().sort_values(key)
    via_js = read_otlp_metrics_json(js_dir).to_pandas().sort_values(key)
    via_pb = via_pb.reset_index(drop=True)
    via_js = via_js.reset_index(drop=True)
    import pandas.testing as pdt

    pdt.assert_frame_equal(via_pb[sorted(via_pb.columns)],
                           via_js[sorted(via_js.columns)])


def test_empty_dataset_roundtrip(ray_session, tmp_path):
    empty = _transcript_batch().slice(0, 0)
    out = str(tmp_path / "empty_m")
    n = write_otlp_metrics_pb(ray.data.from_arrow(empty), out)
    files = glob.glob(out + "/*.binpb")
    if files:
        assert read_otlp_metrics_pb(out).count() == 0
    else:
        assert n == 0


def test_histogram_branch_wire_and_merge():
    """Third oneof branch: HistogramDataPoint with fixed64 count (4),
    optional-double sum (5), packed fixed64 bucket_counts (6), double
    explicit_bounds (7); partial datapoints merge by summing."""
    from opentelemetry_collector_ray.sources.otlp_metrics import (
        HIST_BOUNDS,
        flatten_otlp_metrics_hist_batch,
    )

    t = pa.table(
        {
            "conv_id": ["c1", "c1", "c1"],
            "turn_idx": pa.array([0, 1, 2], type=pa.int32()),
            "role": ["assistant"] * 3,
            "text": [
                "[INFO] action=x latency_ms=5 msg=a",
                "[INFO] action=x latency_ms=55 msg=b",
                "[INFO] action=x latency_ms=500 msg=c",
            ],
            "tool": ["sql"] * 3,
            "ts": pa.array([1000, 2000, 3000], type=pa.timestamp("us")),
        }
    )
    nested = nest_otlp_metrics_batch(t)
    hist = flatten_otlp_metrics_hist_batch(nested).to_pandas()
    assert hist["count"].tolist() == [3]
    assert hist["sum_ms"].tolist() == [560]
    assert hist[["b0", "b1", "b2", "b3"]].values.tolist() == [[1, 0, 1, 1]]

    buf = encode_metrics_request(nested.to_pylist()[0])
    sm = _fields([p for n, w, p in _fields(_fields(buf)[0][2]) if n == 2][0])
    metrics = [p for n, w, p in sm if n == 2]
    assert len(metrics) == 5  # all five wire branches per scope
    mh = dict((n, (w, p)) for n, w, p in _fields(metrics[2]))
    assert mh[1][1] == b"turn.latency.hist"
    assert 9 in mh and 5 not in mh and 7 not in mh  # histogram=9 only
    hfields = _fields(mh[9][1])
    assert (2, 0, 1) in hfields  # DELTA temporality
    dp = dict((n, (w, p)) for n, w, p in _fields(hfields[0][2]))
    assert dp[4][0] == 1  # count fixed64
    assert int.from_bytes(dp[4][1], "little") == 3
    assert dp[5][0] == 1  # sum double (fixed64 wire type)
    assert dp[6][0] == 2  # packed fixed64 bucket_counts
    assert len(dp[6][1]) == 8 * (len(HIST_BOUNDS) + 1)
    # decode returns string fixed64s and the bounds
    tree = decode_metrics_request(buf)
    m = tree["resourceMetrics"][0]["scopeMetrics"][0]["metrics"][2]
    d = m["histogram"]["dataPoints"][0]
    assert d["count"] == "3" and d["bucketCounts"] == ["1", "0", "1", "1"]
    assert d["explicitBounds"] == list(HIST_BOUNDS)


def test_exponential_histogram_branch():
    """Fourth oneof branch: ExponentialHistogramDataPoint — attributes
    at field 1 (unlike HistogramDataPoint's 9), sint32 scale/offset,
    fixed64 zero_count, nested Buckets; zeros ride zeroCount and bucket
    i covers (2^i, 2^(i+1)]."""
    from opentelemetry_collector_ray.sources.otlp_metrics import (
        ZERO_BUCKET_IDX,
        flatten_otlp_metrics_exp_batch,
    )

    t = pa.table(
        {
            "conv_id": ["c1", "c1", "c1", "c2"],
            "turn_idx": pa.array([0, 1, 2, 0], type=pa.int32()),
            "role": ["assistant"] * 4,
            "text": [
                "[INFO] action=x latency_ms=0 msg=a",
                "[INFO] action=x latency_ms=64 msg=b",
                "[INFO] action=x latency_ms=100 msg=c",
                "[INFO] action=x latency_ms=7 msg=d",
            ],
            "tool": ["sql"] * 4,
            "ts": pa.array([1000, 2000, 3000, 4000], type=pa.timestamp("us")),
        }
    )
    nested = nest_otlp_metrics_batch(t)
    exp = flatten_otlp_metrics_exp_batch(nested).to_pandas()
    got = {
        (r.conv_id, r.bucket_idx): r.n for r in exp.itertuples()
    }
    # 64 → (2^5, 2^6] = idx 5; 100 → idx 6; 7 → idx 2; 0 → zero bucket
    assert got == {
        ("c1", 5): 1,
        ("c1", 6): 1,
        ("c2", 2): 1,
        ("c1", ZERO_BUCKET_IDX): 1,
    }

    buf = encode_metrics_request(nested.to_pylist()[0])
    sm = _fields([p for n, w, p in _fields(_fields(buf)[0][2]) if n == 2][0])
    metrics = [p for n, w, p in sm if n == 2]
    assert len(metrics) == 5  # all five wire branches per scope
    me = dict((n, (w, p)) for n, w, p in _fields(metrics[3]))
    assert me[1][1] == b"turn.latency.exphist"
    assert 10 in me  # exponential_histogram = 10
    ef = _fields(me[10][1])
    dp = dict((n, (w, p)) for n, w, p in _fields(ef[0][2]))
    assert dp[1][0] == 2  # attributes at FIELD 1
    assert dp[4][0] == 1  # count fixed64
    assert dp[7][0] == 1  # zero_count fixed64
    assert 8 in dp  # positive buckets
    pos = dict((n, (w, p)) for n, w, p in _fields(dp[8][1]))
    # offset sint32 zigzag: 5 → 10
    assert pos[1] == (0, 10)
    # roundtrip keeps the JSON tree form
    tree = decode_metrics_request(buf)
    m = tree["resourceMetrics"][0]["scopeMetrics"][0]["metrics"][3]
    d = m["exponentialHistogram"]["dataPoints"][0]
    assert d["zeroCount"] == "1" and d["positive"]["offset"] == 5
    assert d["positive"]["bucketCounts"] == ["1", "1"]


def test_summary_branch():
    """Fifth oneof branch: SummaryDataPoint (fixed64 count, plain
    double sum, nested ValueAtQuantile at field 6, attributes at 7) —
    discrete q50/q95 snapshots round-trip both wires verbatim."""
    from opentelemetry_collector_ray.sources.otlp_metrics import (
        flatten_otlp_metrics_summary_batch,
    )

    t = pa.table(
        {
            "conv_id": ["c1"] * 5,
            "turn_idx": pa.array(range(5), type=pa.int32()),
            "role": ["assistant"] * 5,
            "text": [
                f"[INFO] action=x latency_ms={v} msg=a"
                for v in (10, 20, 30, 40, 50)
            ],
            "tool": ["sql"] * 5,
            "ts": pa.array(
                [1000 * i for i in range(1, 6)], type=pa.timestamp("us")
            ),
        }
    )
    nested = nest_otlp_metrics_batch(t)
    s = flatten_otlp_metrics_summary_batch(nested).to_pandas()
    assert s["count"].tolist() == [5] and s["sum_ms"].tolist() == [150]
    # discrete quantiles: rank ceil(q*n) of the sorted values
    assert s["q50"].tolist() == [30.0] and s["q95"].tolist() == [50.0]

    buf = encode_metrics_request(nested.to_pylist()[0])
    sm = _fields([p for n, w, p in _fields(_fields(buf)[0][2]) if n == 2][0])
    metrics = [p for n, w, p in sm if n == 2]
    assert len(metrics) == 5  # all five wire branches per scope
    ms = dict((n, (w, p)) for n, w, p in _fields(metrics[4]))
    assert ms[1][1] == b"turn.latency.summary"
    assert 11 in ms  # summary = 11
    dp = dict((n, (w, p)) for n, w, p in _fields(_fields(ms[11][1])[0][2]))
    assert dp[4][0] == 1  # count fixed64
    assert dp[7][0] == 2  # attributes at field 7
    vaqs = [p for n, w, p in _fields(_fields(ms[11][1])[0][2]) if n == 6]
    assert len(vaqs) == 2  # two ValueAtQuantile entries
    tree = decode_metrics_request(buf)
    m = tree["resourceMetrics"][0]["scopeMetrics"][0]["metrics"][4]
    d = m["summary"]["dataPoints"][0]
    assert d["quantileValues"] == [
        {"quantile": 0.5, "value": 30.0},
        {"quantile": 0.95, "value": 50.0},
    ]


def test_hist_flatten_rejects_mismatched_bucket_counts():
    """Genuine OTel exports can carry any explicitBounds; the
    fixed-bounds flatten must raise a descriptive error instead of an
    opaque numpy reshape failure (ADVICE r3)."""
    import pytest

    from opentelemetry_collector_ray.sources.otlp_metrics import (
        _RESOURCE_METRICS,
        flatten_otlp_metrics_hist_batch,
    )

    tree = [
        {
            "resource": {"attributes": []},
            "scopeMetrics": [
                {
                    "scope": {"name": "s", "version": "1"},
                    "metrics": [
                        {
                            "name": "m",
                            "histogram": {
                                "dataPoints": [
                                    {
                                        "count": "3",
                                        "sum": 5.0,
                                        # 2 buckets, reader expects 4
                                        "bucketCounts": ["1", "2"],
                                        "explicitBounds": [10.0],
                                    }
                                ],
                                "aggregationTemporality": 1,
                            },
                        }
                    ],
                }
            ],
        }
    ]
    t = pa.table(
        {"resourceMetrics": pa.array([tree], type=_RESOURCE_METRICS)}
    )
    with pytest.raises(ValueError, match="bucketCounts.*expects exactly 4"):
        flatten_otlp_metrics_hist_batch(t)


def test_every_flatten_types_an_empty_request():
    """Requests with no metrics, no scopes or no resources flatten to
    no rows with the same columns and types as a full request — every
    flatten takes the typed tree, so no kernel carries its own empty
    schema."""
    from opentelemetry_collector_ray.sources.otlp_metrics import (
        _RESOURCE_METRICS,
        flatten_otlp_metrics_exp_batch,
        flatten_otlp_metrics_hist_batch,
        flatten_otlp_metrics_summary_batch,
    )

    full = nest_otlp_metrics_batch(_transcript_batch())
    empties = [
        None,
        [],
        [{"resource": None, "scopeMetrics": None}],
        [{"resource": None, "scopeMetrics": [{"scope": None, "metrics": []}]}],
    ]
    trees = pa.table(
        {"resourceMetrics": pa.array(empties, type=_RESOURCE_METRICS)}
    )
    assert full.schema == trees.schema
    for flatten in (
        flatten_otlp_metrics_batch,
        flatten_otlp_metrics_hist_batch,
        flatten_otlp_metrics_exp_batch,
        flatten_otlp_metrics_summary_batch,
    ):
        want = flatten(full)
        got = flatten(trees)
        assert len(want) > 0 and len(got) == 0
        assert got.schema == want.schema
