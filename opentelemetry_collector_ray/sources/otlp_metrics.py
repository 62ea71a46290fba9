"""OTLP/JSON metrics interchange — ``ExportMetricsServiceRequest``.

The reference's metrics codec round-trips ``resourceMetrics[] >
scopeMetrics[] > metrics[] > {gauge|sum|...}.dataPoints[]``
(pdata/pmetric/json.go:27-49, pdata/pmetric/pb.go:24-44) — one level
deeper than logs/traces because Metric carries a oneof ``data``. This
module covers all five branches: the two NumberDataPoint shapes (Gauge
and monotonic DELTA Sum), Histogram, ExponentialHistogram and Summary.
Its nest builds only each scope's metric entries; the sorted frame,
the resource → scope grouping and the conv.id / turn.index / tool
datapoint attributes are the shared ``otlp_json`` envelope
(``transcript_frame``, ``nest_requests``, ``identity_attrs``).

Deterministic transcript mapping (mirrored by the
``otlp_metrics_flatten`` oracle):

- metric ``turn.latency_ms`` — Gauge, one datapoint per PARSED turn,
  asInt = latency_ms (parse misses have no latency, so no point —
  the pdata rule that a datapoint always has a value).
- metric ``turn.count`` — Sum (DELTA, monotonic), one datapoint per
  turn, asInt = 1.
- datapoint attributes carry conv.id / turn.index / tool; resource =
  service.name from the tool dimension; scope = otelray.<role>.

Flattening reads an absent temporality back as 0 (UNSPECIFIED — the
pdata default for Gauge, which has no temporality field) and an absent
isMonotonic as false.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.parse import GROK_PATTERN
from .otlp_json import (
    KEY_VALUE,
    Message,
    _attr_first,
    _i64_strings,
    _kv_list,
    arrow_type,
    identity_attrs,
    nest_requests,
    read_otlp_json,
    record_attrs,
    request_message,
    row_lists,
    scope_starts,
    transcript_frame,
    walk_requests,
    with_context,
    write_requests,
)

# opentelemetry/proto/metrics/v1: the Metric oneof ``data`` and its
# five branches. An ``optional double`` is a oneof of its own, so 0.0
# stays present on the wire.
_TEMPORALITY = ("aggregationTemporality", 2, "int32")  # enum stand-in
_NUMBER_POINT = Message(
    "NumberDataPoint",
    (
        ("attributes", 7, [KEY_VALUE]),
        ("timeUnixNano", 3, "fixed64"),
        ("asInt", 6, "sfixed64", "value"),
    ),
)
# Histogram branch: fixed explicit bounds; count/bucketCounts are
# fixed64 → STRINGS in proto3 JSON. min/max: partials merge by
# min-of-mins / max-of-maxes downstream
HIST_BOUNDS = (10.0, 50.0, 100.0)
_HISTOGRAM_POINT = Message(
    "HistogramDataPoint",
    (
        ("attributes", 9, [KEY_VALUE]),
        ("timeUnixNano", 3, "fixed64"),
        ("count", 4, "fixed64"),
        ("sum", 5, "double", "_sum"),
        ("bucketCounts", 6, ["fixed64"]),
        ("explicitBounds", 7, ["double"]),
        ("min", 11, "double", "_min"),
        ("max", 12, "double", "_max"),
    ),
)
# ExponentialHistogram branch (scale 0): bucket index i covers
# (2^i, 2^(i+1)], zeros ride the dedicated zeroCount field.
_BUCKETS = Message(
    "Buckets", (("offset", 1, "sint32"), ("bucketCounts", 2, ["uint64"]))
)
_EXP_POINT = Message(
    "ExponentialHistogramDataPoint",
    (
        ("attributes", 1, [KEY_VALUE]),
        ("timeUnixNano", 3, "fixed64"),
        ("count", 4, "fixed64"),
        ("scale", 6, "sint32"),
        ("zeroCount", 7, "fixed64"),
        ("positive", 8, _BUCKETS),
    ),
)
# Summary branch (legacy passthrough type): point-in-time quantiles —
# NOT mergeable, so only count/sum feed the merged oracle gate.
SUMMARY_QUANTILES = (0.5, 0.95)
_QUANTILE = Message(
    "ValueAtQuantile", (("quantile", 1, "double"), ("value", 2, "double"))
)
_SUMMARY_POINT = Message(
    "SummaryDataPoint",
    (
        ("attributes", 7, [KEY_VALUE]),
        ("timeUnixNano", 3, "fixed64"),
        ("count", 4, "fixed64"),
        ("sum", 5, "double"),
        ("quantileValues", 6, [_QUANTILE]),
    ),
)
_GAUGE_MSG = Message("Gauge", (("dataPoints", 1, [_NUMBER_POINT]),))
_SUM_MSG = Message(
    "Sum",
    (("dataPoints", 1, [_NUMBER_POINT]), _TEMPORALITY, ("isMonotonic", 3, "bool")),
)
_HIST_MSG = Message("Histogram", (("dataPoints", 1, [_HISTOGRAM_POINT]), _TEMPORALITY))
_EXP_HIST_MSG = Message(
    "ExponentialHistogram", (("dataPoints", 1, [_EXP_POINT]), _TEMPORALITY)
)
_SUMMARY_MSG = Message("Summary", (("dataPoints", 1, [_SUMMARY_POINT]),))
_METRIC_MSG = Message(
    "Metric",
    (
        ("name", 1, "string"),
        ("gauge", 5, _GAUGE_MSG, "data"),
        ("sum", 7, _SUM_MSG, "data"),
        ("histogram", 9, _HIST_MSG, "data"),
        ("exponentialHistogram", 10, _EXP_HIST_MSG, "data"),
        ("summary", 11, _SUMMARY_MSG, "data"),
    ),
)
METRICS_REQUEST = request_message(
    "ExportMetricsServiceRequest", "Metrics", "metrics", _METRIC_MSG
)
# the Arrow types nest builds each branch with
_DP, _GAUGE, _SUM, _HDP, _HIST, _EB, _EDP, _EXP_HIST, _SDP, _SUMMARY, _METRIC = map(
    arrow_type,
    (
        _NUMBER_POINT, _GAUGE_MSG, _SUM_MSG, _HISTOGRAM_POINT, _HIST_MSG, _BUCKETS,
        _EXP_POINT, _EXP_HIST_MSG, _SUMMARY_POINT, _SUMMARY_MSG, _METRIC_MSG,
    ),
)
_REQUEST = pa.schema(arrow_type(METRICS_REQUEST))
_RESOURCE_METRICS = _REQUEST.field("resourceMetrics").type

AGG_TEMPORALITY_DELTA = 1  # metrics.proto AggregationTemporality


def nest_otlp_metrics_batch(t: pa.Table) -> pa.Table:
    """Transcript rows → ONE ExportMetricsServiceRequest row (the
    marshal half, pmetric/json.go MarshalMetrics): in the
    ``nest_requests`` envelope, every scope lists one metric per branch
    — a Gauge of parsed-turn latencies, a Sum of turn counts, and the
    Histogram, ExponentialHistogram and Summary of the latencies per
    conversation."""
    df = transcript_frame(t)
    n = len(df)
    conv = df["conv_id"].to_numpy(dtype=object)
    turn_str = df["turn_idx"].to_numpy().astype("U").astype(object)
    tool = df["tool"].to_numpy(dtype=object)
    time_ns = _i64_strings(df["ts_us"].to_numpy(), scale=1000)

    text_arr = pa.array(df["text"].to_numpy(dtype=object), type=pa.string())
    extracted = pc.extract_regex(text_arr, GROK_PATTERN)
    ok = extracted.is_valid()
    ok_np = np.asarray(ok.to_numpy(zero_copy_only=False), dtype=bool)
    latency_str = np.asarray(
        pc.if_else(ok, extracted.field("latency_ms"), pa.scalar(None, pa.string()))
        .to_numpy(zero_copy_only=False),
        dtype=object,
    )

    starts = scope_starts(df)
    n_scope = len(starts)
    scope_ids = np.repeat(np.arange(n_scope), np.diff(np.append(starts, n)))
    delta = pa.array(
        np.full(n_scope, AGG_TEMPORALITY_DELTA, dtype=np.int64), type=pa.int64()
    )

    def number_points(rows: np.ndarray, as_int: np.ndarray) -> pa.StructArray:
        return pa.StructArray.from_arrays(
            [
                identity_attrs(conv[rows], turn_str[rows], tool[rows]),
                pa.array(time_ns[rows], type=pa.string()),
                pa.array(as_int, type=pa.string()),
            ],
            fields=list(_DP),
        )

    # gauge datapoints: parsed rows only, grouped into their scope
    g_rows = np.flatnonzero(ok_np)
    g_off = np.searchsorted(scope_ids[g_rows], np.arange(n_scope + 1))
    gauge_dps = pa.ListArray.from_arrays(
        pa.array(g_off.astype(np.int32), type=pa.int32()),
        number_points(g_rows, latency_str[g_rows]),
    )
    # sum datapoints: every row, asInt = 1
    sum_dps = row_lists(
        df, starts, number_points(np.arange(n), np.full(n, "1", dtype=object))
    )
    gauge_struct = pa.StructArray.from_arrays([gauge_dps], fields=list(_GAUGE))
    sum_struct = pa.StructArray.from_arrays(
        [sum_dps, delta, pa.array(np.ones(n_scope, dtype=bool))], fields=list(_SUM)
    )

    # histogram datapoints: one per (scope, conversation) over PARSED
    # rows — per-request partial histograms (DELTA) that merge by
    # summing counts/buckets downstream, the mergeable-histogram
    # property the batch boundary requires
    p_scope = scope_ids[g_rows]
    p_conv = conv[g_rows]
    if len(g_rows):
        lat_i = np.asarray(latency_str[g_rows], dtype="U").astype(np.int64)
        h_start = np.flatnonzero(
            np.concatenate(
                (
                    [True],
                    (p_scope[1:] != p_scope[:-1]) | (p_conv[1:] != p_conv[:-1]),
                )
            )
        )
    else:
        lat_i = np.empty(0, np.int64)
        h_start = np.empty(0, np.int64)
    n_h = len(h_start)
    h_counts = np.diff(np.append(h_start, len(g_rows)))
    h_sums, h_mins, h_maxs = (
        f.reduceat(lat_i, h_start) if n_h else np.empty(0, np.int64)
        for f in (np.add, np.minimum, np.maximum)
    )
    nb = len(HIST_BOUNDS) + 1
    # OTLP bucket i counts values <= explicit_bounds[i] (last = +inf)
    b_idx = np.searchsorted(np.asarray(HIST_BOUNDS), lat_i, side="left")
    hg_ids = np.repeat(np.arange(n_h), h_counts)
    bc = np.bincount(hg_ids * nb + b_idx, minlength=n_h * nb).reshape(
        n_h, nb
    )
    bucket_counts = pa.ListArray.from_arrays(
        pa.array(np.arange(0, nb * n_h + nb, nb, dtype=np.int32), type=pa.int32()),
        pa.array(bc.reshape(-1).astype("U"), type=pa.string()),
    )
    bounds = pa.ListArray.from_arrays(
        pa.array(
            np.arange(0, len(HIST_BOUNDS) * (n_h + 1), len(HIST_BOUNDS), dtype=np.int32),
            type=pa.int32(),
        ),
        pa.array(np.tile(np.asarray(HIST_BOUNDS), n_h), type=pa.float64()),
    )
    # the histogram-like points carry the conversation only
    h_attrs = _kv_list(
        np.full(n_h, "conv.id", dtype=object),
        np.asarray(p_conv[h_start], dtype=object),
        np.full(n_h, None, dtype=object),
        np.arange(n_h + 1),
    )
    h_time = pa.array(time_ns[g_rows][h_start], type=pa.string())
    h_count = pa.array(h_counts.astype("U"), type=pa.string())
    hdp = pa.StructArray.from_arrays(
        [
            h_attrs,
            h_time,
            h_count,
            pa.array(h_sums.astype(np.float64), type=pa.float64()),
            bucket_counts,
            bounds,
            pa.array(h_mins.astype(np.float64), type=pa.float64()),
            pa.array(h_maxs.astype(np.float64), type=pa.float64()),
        ],
        fields=list(_HDP),
    )
    h_off = pa.array(
        np.searchsorted(p_scope[h_start], np.arange(n_scope + 1)).astype(np.int32),
        type=pa.int32(),
    )
    hist_struct = pa.StructArray.from_arrays(
        [pa.ListArray.from_arrays(h_off, hdp), delta], fields=list(_HIST)
    )

    # exponential-histogram datapoints: same (scope, conv) groups, scale
    # 0 — idx = ceil(log2(v)) - 1 so bucket i covers (2^i, 2^(i+1)];
    # zeros ride zeroCount. Per-dp buckets span [offset, max idx].
    zero_per = (
        np.bincount(hg_ids[lat_i == 0], minlength=n_h)
        if n_h
        else np.empty(0, np.int64)
    )
    nz = lat_i > 0
    grp_nz = hg_ids[nz]
    with np.errstate(divide="ignore"):
        eidx = np.ceil(np.log2(np.maximum(lat_i[nz], 1))).astype(np.int64) - 1
    if len(grp_nz):
        gstarts = np.flatnonzero(np.r_[True, grp_nz[1:] != grp_nz[:-1]])
        gids = grp_nz[gstarts]  # which groups have nonzero values
        mins = np.minimum.reduceat(eidx, gstarts)
        maxs = np.maximum.reduceat(eidx, gstarts)
    else:
        gids = mins = maxs = np.empty(0, np.int64)
    off = np.zeros(n_h, dtype=np.int64)
    width = np.zeros(n_h, dtype=np.int64)
    off[gids] = mins
    width[gids] = maxs - mins + 1
    wstart = np.r_[0, np.cumsum(width)].astype(np.int64)
    pos = wstart[grp_nz] + (eidx - off[grp_nz])
    eb_counts = np.bincount(pos, minlength=int(wstart[-1]) if n_h else 0)
    positive = pa.StructArray.from_arrays(
        [
            pa.array(off, type=pa.int64()),
            pa.ListArray.from_arrays(
                pa.array(wstart.astype(np.int32), type=pa.int32()),
                pa.array(eb_counts.astype("U"), type=pa.string()),
            ),
        ],
        fields=list(_EB),
    )
    edp = pa.StructArray.from_arrays(
        [
            h_attrs,
            h_time,
            h_count,
            pa.array(np.zeros(n_h, dtype=np.int64), type=pa.int64()),
            pa.array(zero_per.astype("U"), type=pa.string()),
            positive,
        ],
        fields=list(_EDP),
    )
    exp_struct = pa.StructArray.from_arrays(
        [pa.ListArray.from_arrays(h_off, edp), delta], fields=list(_EXP_HIST)
    )

    # summary datapoints: same (scope, conv) groups — count/sum plus
    # point-in-time discrete quantiles of the group's latencies
    # (legacy Summary semantics: quantiles are a snapshot, NOT
    # mergeable — the merged oracle gates count/sum only)
    nq = len(SUMMARY_QUANTILES)
    if n_h:
        order = np.lexsort((lat_i, hg_ids))
        sorted_vals = lat_i[order]
        gstart = np.r_[0, np.cumsum(h_counts)[:-1]]
        qvals = np.empty(n_h * nq, dtype=np.float64)
        for qi, q in enumerate(SUMMARY_QUANTILES):
            ranks = gstart + np.ceil(q * h_counts).astype(np.int64) - 1
            qvals[qi::nq] = sorted_vals[ranks].astype(np.float64)
    else:
        qvals = np.empty(0, np.float64)
    vaq = pa.StructArray.from_arrays(
        [
            pa.array(
                np.tile(np.asarray(SUMMARY_QUANTILES), n_h),
                type=pa.float64(),
            ),
            pa.array(qvals, type=pa.float64()),
        ],
        names=["quantile", "value"],
    )
    qlists = pa.ListArray.from_arrays(
        pa.array(np.arange(0, nq * n_h + nq, nq, dtype=np.int32), type=pa.int32()),
        vaq,
    )
    sdp = pa.StructArray.from_arrays(
        [
            h_attrs,
            h_time,
            h_count,
            pa.array(h_sums.astype(np.float64), type=pa.float64()),
            qlists,
        ],
        fields=list(_SDP),
    )
    summary_struct = pa.StructArray.from_arrays(
        [pa.ListArray.from_arrays(h_off, sdp)], fields=list(_SUMMARY)
    )

    # every scope's metrics: [gauge, sum, hist, exp, summary], each a
    # Metric with one oneof branch set
    name_field, *data_fields = list(_METRIC)
    branches = (
        ("turn.latency_ms", "gauge", gauge_struct),
        ("turn.count", "sum", sum_struct),
        ("turn.latency.hist", "histogram", hist_struct),
        ("turn.latency.exphist", "exponentialHistogram", exp_struct),
        ("turn.latency.summary", "summary", summary_struct),
    )
    metrics = pa.concat_arrays(
        [
            pa.StructArray.from_arrays(
                [
                    pa.array(np.full(n_scope, name, object), type=pa.string()),
                    *(
                        data if f.name == branch else pa.nulls(n_scope, f.type)
                        for f in data_fields
                    ),
                ],
                fields=[name_field, *data_fields],
            )
            for name, branch, data in branches
        ]
    )
    nm = len(branches)
    idx = (np.arange(nm)[None, :] * n_scope + np.arange(n_scope)[:, None]).ravel()
    metric_lists = pa.ListArray.from_arrays(
        pa.array(np.arange(0, nm * n_scope + nm, nm, dtype=np.int32), type=pa.int32()),
        metrics.take(pa.array(idx, type=pa.int64())),
    )
    return nest_requests(
        df, starts, metric_lists, ("resourceMetrics", "scopeMetrics", "metrics")
    )


def _walk(t: pa.Table):
    """``walk_requests`` down to the metrics: (context, scope index per
    metric, metrics)."""
    return walk_requests(t, "resourceMetrics", "scopeMetrics", "metrics")


def _branch_points(metrics: pa.StructArray, branch: str):
    """One oneof branch of every metric → (the branch struct, its
    dataPoints list per metric), the list null where the metric holds
    another branch (``.field()`` ignores the parent's null mask)."""
    b = metrics.field(branch)
    idx = np.arange(len(metrics), dtype=object)
    valid = np.asarray(pc.is_valid(b).to_numpy(zero_copy_only=False), dtype=bool)
    idx[~valid] = None
    return b, b.field("dataPoints").take(pa.array(idx, type=pa.int64()))


def _number_points(context, metric_scope, metrics, branch: str) -> pa.Table:
    """The gauge or sum branch → one flat row per NumberDataPoint."""
    b, dps_list = _branch_points(metrics, branch)
    midx = pc.list_parent_indices(dps_list)  # metric index per datapoint
    dps = pc.list_flatten(dps_list)
    if branch == "sum":
        tempo = pc.fill_null(b.field("aggregationTemporality"), 0).take(midx)
        mono = pc.fill_null(b.field("isMonotonic"), False).take(midx)
    else:
        tempo = pa.array(np.zeros(len(dps), dtype=np.int64), type=pa.int64())
        mono = pa.array(np.zeros(len(dps), dtype=bool))
    return with_context(
        context,
        metric_scope.take(midx),
        {
            "metric_name": metrics.field("name").take(midx),
            "temporality": tempo,
            "is_monotonic": mono,
            "time_unix_nano": pc.cast(dps.field("timeUnixNano"), pa.int64()),
            "value": pc.cast(dps.field("asInt"), pa.int64()),
            **record_attrs(dps.field("attributes")),
        },
    )


def flatten_otlp_metrics_batch(t: pa.Table) -> pa.Table:
    """ExportMetricsServiceRequest rows → flat datapoint table (the
    unmarshal half): resource/scope/metric context denormalized onto
    every NumberDataPoint of the gauge and sum branches."""
    tree = _walk(t)
    return pa.concat_tables(
        [_number_points(*tree, branch) for branch in ("gauge", "sum")]
    )


def _branch_rows(t: pa.Table, branch: str):
    """The start of every histogram-like branch flatten: (service and
    scope_name context, scope index per datapoint, the datapoints)."""
    context, metric_scope, metrics = _walk(t)
    _, dps_list = _branch_points(metrics, branch)
    dp_scope = metric_scope.take(pc.list_parent_indices(dps_list))
    context = context.select(["service", "scope_name"])
    return context, dp_scope, pc.list_flatten(dps_list)


def flatten_otlp_metrics_hist_batch(t: pa.Table) -> pa.Table:
    """Histogram branch → one row per HistogramDataPoint: (service,
    scope, conv.id, count, sum_ms, b0..b3). Datapoints are per-REQUEST
    partials (DELTA) — consumers sum rows per (scope, conv) to get the
    batch-independent totals (the mergeable-histogram property)."""
    context, dp_scope, dps = _branch_rows(t, "histogram")
    n_dp = len(dps)
    buckets = dps.field("bucketCounts")
    nb = len(HIST_BOUNDS) + 1
    # genuine OTel exports carry per-datapoint explicitBounds of any
    # length; this fixed-bounds flatten handles exactly len(bounds)+1
    # buckets per datapoint — validate per-dp lengths instead of a
    # blind reshape whose error ("cannot reshape array of size …")
    # points nowhere (ADVICE r3)
    lens = pc.list_value_length(buckets).to_numpy(zero_copy_only=False)
    bad = np.flatnonzero(np.nan_to_num(lens, nan=-1).astype(np.int64) != nb)
    if len(bad):
        raise ValueError(
            f"histogram datapoint {int(bad[0])} has "
            f"{int(lens[bad[0]]) if not np.isnan(float(lens[bad[0]])) else 0} "
            f"bucketCounts; this reader expects exactly {nb} "
            f"(explicitBounds={list(HIST_BOUNDS)}). Re-bucket the "
            "export or extend HIST_BOUNDS to match its bounds."
        )
    b_np = (
        pc.cast(pc.list_flatten(buckets), pa.int64())
        .to_numpy(zero_copy_only=False)
        .reshape(n_dp, nb)
    )
    cols = {
        "conv_id": pa.array(
            _attr_first(dps.field("attributes"), "conv.id", "stringValue"),
            type=pa.string(),
        ),
        "count": pc.cast(dps.field("count"), pa.int64()),
        # sum is `optional double` — 0.0 is omitted on the wire, read back 0
        "sum_ms": pc.cast(pc.fill_null(dps.field("sum"), 0.0), pa.int64()),
        # min/max are optional doubles; keep NULL where absent (older
        # wire files) — partials merge by min/max so a fill would corrupt
        "min_ms": pc.cast(dps.field("min"), pa.int64()),
        "max_ms": pc.cast(dps.field("max"), pa.int64()),
    }
    for i in range(nb):
        cols[f"b{i}"] = pa.array(b_np[:, i], type=pa.int64())
    return with_context(context, dp_scope, cols)


ZERO_BUCKET_IDX = -100  # sentinel bucket for zeroCount rows (exp_histogram's)


def flatten_otlp_metrics_exp_batch(t: pa.Table) -> pa.Table:
    """ExponentialHistogram branch → exploded per-bucket rows
    (service, scope_name, conv_id, bucket_idx, n) with zeroCount rows
    at the ``ZERO_BUCKET_IDX`` sentinel. Datapoints are per-request
    DELTA partials — consumers sum n per group+bucket for the
    batch-independent totals."""
    context, dp_scope, dps = _branch_rows(t, "exponentialHistogram")
    conv_id = _attr_first(dps.field("attributes"), "conv.id", "stringValue")
    zero_n = pc.fill_null(pc.cast(dps.field("zeroCount"), pa.int64()), 0)
    zero_n = zero_n.to_numpy(zero_copy_only=False)
    pos = dps.field("positive")
    offset = pc.fill_null(pos.field("offset"), 0).to_numpy(zero_copy_only=False)
    bl = pos.field("bucketCounts")
    b_parent = pc.list_parent_indices(bl).to_numpy(zero_copy_only=False)
    b_counts = pc.cast(pc.list_flatten(bl), pa.int64()).to_numpy(zero_copy_only=False)
    # position within each dp's bucket list → absolute bucket index
    counts = np.bincount(b_parent, minlength=len(dps))
    starts = np.concatenate(([0], np.cumsum(counts)))
    b_idx = offset[b_parent] + np.arange(len(b_parent)) - starts[b_parent]

    keep = b_counts > 0
    zeros = np.flatnonzero(zero_n > 0)
    row_dp = np.concatenate([b_parent[keep], zeros])  # datapoint of each row
    return with_context(
        context,
        dp_scope.take(pa.array(row_dp, type=pa.int64())),
        {
            "conv_id": pa.array(conv_id[row_dp], type=pa.string()),
            "bucket_idx": pa.array(
                np.concatenate([b_idx[keep], np.full(len(zeros), ZERO_BUCKET_IDX)]),
                type=pa.int64(),
            ),
            "n": pa.array(
                np.concatenate([b_counts[keep], zero_n[zeros]]), type=pa.int64()
            ),
        },
    )


def flatten_otlp_metrics_summary_batch(t: pa.Table) -> pa.Table:
    """Summary branch → one row per SummaryDataPoint: (service,
    scope_name, conv_id, count, sum_ms, q50, q95). count/sum are
    mergeable per-request partials; the quantiles are point-in-time
    snapshots (legacy Summary semantics) carried through verbatim."""
    context, dp_scope, dps = _branch_rows(t, "summary")
    # first-match per quantile across the quantileValues list
    ql = dps.field("quantileValues")
    q_parent = pc.list_parent_indices(ql).to_numpy(zero_copy_only=False)
    qs = pc.list_flatten(ql)
    qq = qs.field("quantile").to_numpy(zero_copy_only=False)
    qv = qs.field("value").to_numpy(zero_copy_only=False)
    out_q = {}
    for name, target in (("q50", 0.5), ("q95", 0.95)):
        col = np.full(len(dps), np.nan)
        hit = qq == target
        col[q_parent[hit][::-1]] = qv[hit][::-1]
        out_q[name] = pa.array(col, type=pa.float64())
    return with_context(
        context,
        dp_scope,
        {
            "conv_id": pa.array(
                _attr_first(dps.field("attributes"), "conv.id", "stringValue"),
                type=pa.string(),
            ),
            "count": pc.cast(dps.field("count"), pa.int64()),
            "sum_ms": pc.cast(pc.fill_null(dps.field("sum"), 0.0), pa.int64()),
            **out_q,
        },
    )


write_otlp_metrics_json = functools.partial(
    write_requests, nest=nest_otlp_metrics_batch
)
read_otlp_metrics_json = functools.partial(
    read_otlp_json, schema=_REQUEST, flatten=flatten_otlp_metrics_batch
)
# one reader per branch: histogram rows are per-datapoint partial
# histograms (merge rows per (scope, conv) for totals); exponential-
# histogram rows are exploded per-bucket partials (sum per group+bucket)
read_otlp_metrics_hist_json = functools.partial(
    read_otlp_json, schema=_REQUEST, flatten=flatten_otlp_metrics_hist_batch
)
read_otlp_metrics_exp_json = functools.partial(
    read_otlp_json, schema=_REQUEST, flatten=flatten_otlp_metrics_exp_batch
)
read_otlp_metrics_summary_json = functools.partial(
    read_otlp_json, schema=_REQUEST, flatten=flatten_otlp_metrics_summary_batch
)
