"""OTLP/JSON metrics interchange — ``ExportMetricsServiceRequest``.

The reference's metrics codec round-trips ``resourceMetrics[] >
scopeMetrics[] > metrics[] > {gauge|sum|...}.dataPoints[]``
(pdata/pmetric/json.go:27-49, pdata/pmetric/pb.go:24-44) — one level
deeper than logs/traces because Metric carries a oneof ``data``. This
module covers the two NumberDataPoint shapes (Gauge and monotonic
DELTA Sum); the histogram/summary table forms already exist as
first-class operators (signals.py latency_histogram / summary_metrics).

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
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import DIM_TOOL_SERVICE
from ..stages.parse import GROK_PATTERN
from .otlp_json import (
    _require_non_null_keys,
    _KV,
    _attr_first,
    _i64_strings,
    _kv_list,
    _opt_field,
    _str,
    read_otlp_json,
    write_requests,
)

_DP = pa.struct(
    [
        pa.field("attributes", pa.list_(_KV)),
        pa.field("timeUnixNano", pa.string()),
        pa.field("asInt", pa.string()),
    ]
)
_GAUGE = pa.struct([pa.field("dataPoints", pa.list_(_DP))])
_SUM = pa.struct(
    [
        pa.field("dataPoints", pa.list_(_DP)),
        pa.field("aggregationTemporality", pa.int64()),
        pa.field("isMonotonic", pa.bool_()),
    ]
)
# Histogram branch (metrics.proto HistogramDataPoint): fixed explicit
# bounds; count/bucketCounts are fixed64 → STRINGS in proto3 JSON.
HIST_BOUNDS = (10.0, 50.0, 100.0)
_HDP = pa.struct(
    [
        pa.field("attributes", pa.list_(_KV)),
        pa.field("timeUnixNano", pa.string()),
        pa.field("count", pa.string()),
        pa.field("sum", pa.float64()),
        pa.field("bucketCounts", pa.list_(pa.string())),
        pa.field("explicitBounds", pa.list_(pa.float64())),
        # optional double min/max (HistogramDataPoint fields 11/12):
        # partials merge by min-of-mins / max-of-maxes downstream
        pa.field("min", pa.float64()),
        pa.field("max", pa.float64()),
    ]
)
_HIST = pa.struct(
    [
        pa.field("dataPoints", pa.list_(_HDP)),
        pa.field("aggregationTemporality", pa.int64()),
    ]
)
# ExponentialHistogram branch (scale 0): bucket index i covers
# (2^i, 2^(i+1)], zeros ride the dedicated zeroCount field.
_EB = pa.struct(
    [
        pa.field("offset", pa.int64()),
        pa.field("bucketCounts", pa.list_(pa.string())),
    ]
)
_EDP = pa.struct(
    [
        pa.field("attributes", pa.list_(_KV)),
        pa.field("timeUnixNano", pa.string()),
        pa.field("count", pa.string()),
        pa.field("scale", pa.int64()),
        pa.field("zeroCount", pa.string()),
        pa.field("positive", _EB),
    ]
)
_EXP_HIST = pa.struct(
    [
        pa.field("dataPoints", pa.list_(_EDP)),
        pa.field("aggregationTemporality", pa.int64()),
    ]
)
# Summary branch (legacy passthrough type): point-in-time quantiles —
# NOT mergeable, so only count/sum feed the merged oracle gate.
SUMMARY_QUANTILES = (0.5, 0.95)
_VAQ = pa.struct(
    [
        pa.field("quantile", pa.float64()),
        pa.field("value", pa.float64()),
    ]
)
_SDP = pa.struct(
    [
        pa.field("attributes", pa.list_(_KV)),
        pa.field("timeUnixNano", pa.string()),
        pa.field("count", pa.string()),
        pa.field("sum", pa.float64()),
        pa.field("quantileValues", pa.list_(_VAQ)),
    ]
)
_SUMMARY = pa.struct([pa.field("dataPoints", pa.list_(_SDP))])
_METRIC = pa.struct(
    [
        pa.field("name", pa.string()),
        pa.field("gauge", _GAUGE),
        pa.field("sum", _SUM),
        pa.field("histogram", _HIST),
        pa.field("exponentialHistogram", _EXP_HIST),
        pa.field("summary", _SUMMARY),
    ]
)

_RESOURCE_METRICS = pa.list_(
    pa.struct(
        [
            pa.field(
                "resource",
                pa.struct([pa.field("attributes", pa.list_(_KV))]),
            ),
            pa.field(
                "scopeMetrics",
                pa.list_(
                    pa.struct(
                        [
                            pa.field(
                                "scope",
                                pa.struct(
                                    [
                                        pa.field("name", pa.string()),
                                        pa.field("version", pa.string()),
                                    ]
                                ),
                            ),
                            pa.field("metrics", pa.list_(_METRIC)),
                        ]
                    )
                ),
            ),
        ]
    )
)

AGG_TEMPORALITY_DELTA = 1  # metrics.proto AggregationTemporality


def _dp_struct(
    conv: np.ndarray, turn_str: np.ndarray, tool: np.ndarray,
    time_ns: np.ndarray, as_int: np.ndarray,
) -> pa.StructArray:
    n = len(conv)
    keys = np.empty(3 * n, dtype=object)
    svals = np.empty(3 * n, dtype=object)
    ivals = np.empty(3 * n, dtype=object)
    keys[0::3], keys[1::3], keys[2::3] = "conv.id", "turn.index", "tool"
    svals[0::3] = conv
    svals[1::3] = None
    svals[2::3] = tool
    ivals[0::3] = None
    ivals[1::3] = turn_str
    ivals[2::3] = None
    attrs = _kv_list(keys, svals, ivals, np.arange(0, 3 * n + 3, 3))
    return pa.StructArray.from_arrays(
        [
            attrs,
            pa.array(time_ns, type=pa.string()),
            pa.array(as_int, type=pa.string()),
        ],
        names=["attributes", "timeUnixNano", "asInt"],
    ).cast(_DP)


def nest_otlp_metrics_batch(t: pa.Table) -> pa.Table:
    """Transcript rows → ONE ExportMetricsServiceRequest row (the
    marshal half, pmetric/json.go MarshalMetrics): per scope group a
    Gauge metric (parsed-turn latencies) and a Sum metric (turn
    counts)."""
    _require_non_null_keys(t)
    n = len(t)
    df = pd.DataFrame(
        {
            "service": pd.Series(_str(t["tool"])).fillna("").map(
                lambda x: DIM_TOOL_SERVICE.get(x, "unknown")
            ),
            "role": _str(t["role"]),
            "conv_id": _str(t["conv_id"]),
            "turn_idx": t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64),
            "tool": _str(t["tool"]),
            "text": _str(t["text"]),
            "ts_us": pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False),
        }
    )
    df = df.sort_values(
        ["service", "role", "conv_id", "turn_idx"], kind="mergesort"
    ).reset_index(drop=True)
    svc = df["service"].to_numpy(dtype=object)
    rol = df["role"].to_numpy(dtype=object)
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

    # ---- scope groups: change points of (service, role)
    if n:
        change = np.concatenate(
            ([True], (svc[1:] != svc[:-1]) | (rol[1:] != rol[:-1]))
        )
        sc_change = np.flatnonzero(change)
        scope_ids = np.cumsum(change) - 1
    else:
        sc_change = np.empty(0, np.int64)
        scope_ids = np.empty(0, np.int64)
    n_scope = len(sc_change)
    bounds = np.arange(n_scope + 1)

    # gauge datapoints: parsed rows only, grouped into their scope
    g_rows = np.flatnonzero(ok_np)
    gauge_dp = _dp_struct(
        conv[g_rows], turn_str[g_rows], tool[g_rows],
        time_ns[g_rows], latency_str[g_rows],
    )
    g_off = np.searchsorted(scope_ids[g_rows], bounds).astype(np.int32)
    gauge_dps = pa.ListArray.from_arrays(pa.array(g_off, type=pa.int32()), gauge_dp)

    # sum datapoints: every row, asInt = 1
    sum_dp = _dp_struct(
        conv, turn_str, tool, time_ns, np.full(n, "1", dtype=object)
    )
    s_off = np.append(sc_change, n).astype(np.int32)
    sum_dps = pa.ListArray.from_arrays(pa.array(s_off, type=pa.int32()), sum_dp)

    gauge_struct = pa.StructArray.from_arrays(
        [gauge_dps], names=["dataPoints"]
    ).cast(_GAUGE)
    sum_struct = pa.StructArray.from_arrays(
        [
            sum_dps,
            pa.array(
                np.full(n_scope, AGG_TEMPORALITY_DELTA, dtype=np.int64),
                type=pa.int64(),
            ),
            pa.array(np.ones(n_scope, dtype=bool)),
        ],
        names=["dataPoints", "aggregationTemporality", "isMonotonic"],
    ).cast(_SUM)

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
    h_sums = (
        np.add.reduceat(lat_i, h_start) if n_h else np.empty(0, np.int64)
    )
    h_mins = (
        np.minimum.reduceat(lat_i, h_start) if n_h else np.empty(0, np.int64)
    )
    h_maxs = (
        np.maximum.reduceat(lat_i, h_start) if n_h else np.empty(0, np.int64)
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
    h_attrs = _kv_list(
        np.full(n_h, "conv.id", dtype=object),
        np.asarray(p_conv[h_start], dtype=object),
        np.full(n_h, None, dtype=object),
        np.arange(n_h + 1),
    )
    hdp = pa.StructArray.from_arrays(
        [
            h_attrs,
            pa.array(time_ns[g_rows][h_start], type=pa.string()),
            pa.array(h_counts.astype("U"), type=pa.string()),
            pa.array(h_sums.astype(np.float64), type=pa.float64()),
            bucket_counts,
            bounds,
            pa.array(h_mins.astype(np.float64), type=pa.float64()),
            pa.array(h_maxs.astype(np.float64), type=pa.float64()),
        ],
        names=[
            "attributes",
            "timeUnixNano",
            "count",
            "sum",
            "bucketCounts",
            "explicitBounds",
            "min",
            "max",
        ],
    ).cast(_HDP)
    h_off = np.searchsorted(
        p_scope[h_start] if n_h else np.empty(0, np.int64),
        np.arange(n_scope + 1),
    ).astype(np.int32)
    hist_dps = pa.ListArray.from_arrays(pa.array(h_off, type=pa.int32()), hdp)
    hist_struct = pa.StructArray.from_arrays(
        [
            hist_dps,
            pa.array(
                np.full(n_scope, AGG_TEMPORALITY_DELTA, dtype=np.int64),
                type=pa.int64(),
            ),
        ],
        names=["dataPoints", "aggregationTemporality"],
    ).cast(_HIST)

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
        gstarts = np.empty(0, np.int64)
        gids = np.empty(0, np.int64)
        mins = np.empty(0, np.int64)
        maxs = np.empty(0, np.int64)
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
        names=["offset", "bucketCounts"],
    ).cast(_EB)
    edp = pa.StructArray.from_arrays(
        [
            h_attrs,
            pa.array(time_ns[g_rows][h_start], type=pa.string()),
            pa.array(h_counts.astype("U"), type=pa.string()),
            pa.array(np.zeros(n_h, dtype=np.int64), type=pa.int64()),
            pa.array(zero_per.astype("U"), type=pa.string()),
            positive,
        ],
        names=[
            "attributes",
            "timeUnixNano",
            "count",
            "scale",
            "zeroCount",
            "positive",
        ],
    ).cast(_EDP)
    exp_dps = pa.ListArray.from_arrays(pa.array(h_off, type=pa.int32()), edp)
    exp_struct = pa.StructArray.from_arrays(
        [
            exp_dps,
            pa.array(
                np.full(n_scope, AGG_TEMPORALITY_DELTA, dtype=np.int64),
                type=pa.int64(),
            ),
        ],
        names=["dataPoints", "aggregationTemporality"],
    ).cast(_EXP_HIST)

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
            pa.array(time_ns[g_rows][h_start], type=pa.string()),
            pa.array(h_counts.astype("U"), type=pa.string()),
            pa.array(h_sums.astype(np.float64), type=pa.float64()),
            qlists,
        ],
        names=["attributes", "timeUnixNano", "count", "sum", "quantileValues"],
    ).cast(_SDP)
    summary_dps = pa.ListArray.from_arrays(
        pa.array(h_off, type=pa.int32()), sdp
    )
    summary_struct = pa.StructArray.from_arrays(
        [summary_dps], names=["dataPoints"]
    ).cast(_SUMMARY)

    def metric_entry(
        name, gauge=None, sum_=None, hist=None, exp=None, summ=None
    ):
        return pa.StructArray.from_arrays(
            [
                pa.array(np.full(n_scope, name, object), type=pa.string()),
                gauge if gauge is not None else pa.nulls(n_scope, _GAUGE),
                sum_ if sum_ is not None else pa.nulls(n_scope, _SUM),
                hist if hist is not None else pa.nulls(n_scope, _HIST),
                exp if exp is not None else pa.nulls(n_scope, _EXP_HIST),
                summ if summ is not None else pa.nulls(n_scope, _SUMMARY),
            ],
            names=[
                "name",
                "gauge",
                "sum",
                "histogram",
                "exponentialHistogram",
                "summary",
            ],
        ).cast(_METRIC)

    branches = [
        metric_entry("turn.latency_ms", gauge=gauge_struct),
        metric_entry("turn.count", sum_=sum_struct),
        metric_entry("turn.latency.hist", hist=hist_struct),
        metric_entry("turn.latency.exphist", exp=exp_struct),
        metric_entry("turn.latency.summary", summ=summary_struct),
    ]
    nm = len(branches)
    # interleave [gauge_i, sum_i, hist_i, exp_i] per scope
    idx = np.empty(nm * n_scope, dtype=np.int64)
    for j in range(nm):
        idx[j::nm] = np.arange(n_scope) + j * n_scope
    metrics = pa.concat_arrays(branches).take(pa.array(idx, type=pa.int64()))
    metrics_list = pa.ListArray.from_arrays(
        pa.array(
            np.arange(0, nm * n_scope + nm, nm, dtype=np.int32),
            type=pa.int32(),
        ),
        metrics,
    )

    scope = pa.StructArray.from_arrays(
        [
            pa.array(
                np.char.add("otelray.", rol[sc_change].astype("U")),
                type=pa.string(),
            ),
            pa.array(["1.0"] * n_scope, type=pa.string()),
        ],
        names=["name", "version"],
    )
    scopes = pa.StructArray.from_arrays(
        [scope, metrics_list], names=["scope", "metrics"]
    )

    # ---- resource groups: change points of service over scope groups
    svc_per_scope = svc[sc_change]
    if n_scope:
        rs_change = np.flatnonzero(
            np.concatenate(([True], svc_per_scope[1:] != svc_per_scope[:-1]))
        )
    else:
        rs_change = np.empty(0, np.int64)
    rs_off = np.append(rs_change, n_scope).astype(np.int32)
    scope_metrics = pa.ListArray.from_arrays(
        pa.array(rs_off, type=pa.int32()), scopes
    )
    n_res = len(rs_change)
    res_svc = svc_per_scope[rs_change] if n_scope else np.empty(0, object)
    res_attrs = _kv_list(
        np.full(n_res, "service.name", dtype=object),
        np.asarray(res_svc, dtype=object),
        np.full(n_res, None, dtype=object),
        np.arange(n_res + 1),
    )
    resource = pa.StructArray.from_arrays([res_attrs], names=["attributes"])
    res_entries = pa.StructArray.from_arrays(
        [resource, scope_metrics], names=["resource", "scopeMetrics"]
    )
    resource_metrics = pa.ListArray.from_arrays(
        pa.array([0, n_res], type=pa.int32()), res_entries
    )
    return pa.table({"resourceMetrics": resource_metrics})


_EMPTY_FLAT = {
    "service": pa.string(),
    "scope_name": pa.string(),
    "scope_version": pa.string(),
    "metric_name": pa.string(),
    "temporality": pa.int64(),
    "is_monotonic": pa.bool_(),
    "time_unix_nano": pa.int64(),
    "value": pa.int64(),
    "conv_id": pa.string(),
    "turn_idx": pa.int32(),
    "tool": pa.string(),
}


def _tree_context(t: pa.Table):
    """The shared resource→scope→metric walk of every metrics flatten:
    returns (service, scope_name, scope_version, scope_parent,
    metric_parent, metrics), or None for a schema-less/empty batch.
    Every level goes through ``_opt_field`` — proto3 omits empty
    repeateds, so a resource without scopeMetrics must read as an
    empty list, not a KeyError."""
    if "resourceMetrics" not in t.column_names:
        return None
    rm = t["resourceMetrics"]
    if isinstance(rm, pa.ChunkedArray):
        rm = rm.combine_chunks()
    res = pc.list_flatten(rm)
    n_res = len(res)
    resource = _opt_field(
        res, "resource", pa.struct([("attributes", pa.list_(_KV))])
    )
    service = pa.array(
        _attr_first(
            _opt_field(resource, "attributes", pa.list_(_KV)),
            n_res,
            "service.name",
            "stringValue",
        ),
        type=pa.string(),
    )
    sl = _opt_field(
        res, "scopeMetrics", _RESOURCE_METRICS.value_type.field("scopeMetrics").type
    )
    scope_parent = pc.list_parent_indices(sl).to_numpy(zero_copy_only=False)
    scopes = pc.list_flatten(sl)
    scope_struct = _opt_field(
        scopes,
        "scope",
        pa.struct([("name", pa.string()), ("version", pa.string())]),
    )
    scope_name = _opt_field(scope_struct, "name", pa.string())
    scope_version = _opt_field(scope_struct, "version", pa.string())
    ml = _opt_field(scopes, "metrics", pa.list_(_METRIC))
    metric_parent = pc.list_parent_indices(ml).to_numpy(zero_copy_only=False)
    metrics = pc.list_flatten(ml)
    return service, scope_name, scope_version, scope_parent, metric_parent, metrics


def _flat_branch(
    metrics: pa.StructArray,
    metric_parent: np.ndarray,
    scope_parent: np.ndarray,
    branch: str,
) -> dict:
    """One oneof branch → flat per-datapoint columns + context
    indices."""
    b, dps_list = _masked_dp_lists_typed(
        metrics, branch, _GAUGE if branch == "gauge" else _SUM, _DP
    )
    dp_parent = pc.list_parent_indices(dps_list).to_numpy(zero_copy_only=False)
    dps = pc.list_flatten(dps_list)
    n_dp = len(dps)
    midx = dp_parent  # metric index per datapoint
    sidx = metric_parent[midx] if n_dp else np.empty(0, np.int64)
    ridx = scope_parent[sidx] if n_dp else np.empty(0, np.int64)

    name = _opt_field(metrics, "name", pa.string())
    take_m = pa.array(midx, type=pa.int64())
    if branch == "sum":
        tempo_m = pc.fill_null(
            pc.cast(_opt_field(b, "aggregationTemporality", pa.int64()), pa.int64()),
            0,
        )
        mono_m = pc.fill_null(_opt_field(b, "isMonotonic", pa.bool_()), False)
        tempo = tempo_m.take(take_m) if n_dp else pa.array([], type=pa.int64())
        mono = mono_m.take(take_m) if n_dp else pa.array([], type=pa.bool_())
    else:
        tempo = pa.array(np.zeros(n_dp, dtype=np.int64), type=pa.int64())
        mono = pa.array(np.zeros(n_dp, dtype=bool))

    attrs = _opt_field(dps, "attributes", pa.list_(_KV))
    return {
        "metric_name": name.take(take_m)
        if n_dp
        else pa.array([], type=pa.string()),
        "temporality": tempo,
        "is_monotonic": mono,
        "time_unix_nano": pc.cast(
            _opt_field(dps, "timeUnixNano", pa.string()), pa.int64()
        ),
        "value": pc.cast(_opt_field(dps, "asInt", pa.string()), pa.int64()),
        "conv_id": pa.array(
            _attr_first(attrs, n_dp, "conv.id", "stringValue"), type=pa.string()
        ),
        "turn_idx": pc.cast(
            pc.cast(
                pa.array(
                    _attr_first(attrs, n_dp, "turn.index", "intValue"),
                    type=pa.string(),
                ),
                pa.int64(),
            ),
            pa.int32(),
        ),
        "tool": pa.array(
            _attr_first(attrs, n_dp, "tool", "stringValue"), type=pa.string()
        ),
        "_sidx": sidx,
        "_ridx": ridx,
    }


def flatten_otlp_metrics_batch(t: pa.Table) -> pa.Table:
    """ExportMetricsServiceRequest rows → flat datapoint table (the
    unmarshal half): resource/scope/metric context denormalized onto
    every NumberDataPoint of the gauge and sum branches."""
    ctx = _tree_context(t)
    if ctx is None:
        return pa.table(
            {k: pa.array([], type=v) for k, v in _EMPTY_FLAT.items()}
        )
    service, scope_name, scope_version, scope_parent, metric_parent, metrics = ctx

    parts = []
    for branch in ("gauge", "sum"):
        cols = _flat_branch(metrics, metric_parent, scope_parent, branch)
        sidx, ridx = cols.pop("_sidx"), cols.pop("_ridx")
        n_dp = len(cols["metric_name"])
        empty_str = pa.array([], type=pa.string())
        parts.append(
            pa.table(
                {
                    "service": service.take(pa.array(ridx, type=pa.int64()))
                    if n_dp
                    else empty_str,
                    "scope_name": scope_name.take(
                        pa.array(sidx, type=pa.int64())
                    )
                    if n_dp
                    else empty_str,
                    "scope_version": scope_version.take(
                        pa.array(sidx, type=pa.int64())
                    )
                    if n_dp
                    else empty_str,
                    **cols,
                }
            )
        )
    return pa.concat_tables(parts)


def flatten_otlp_metrics_hist_batch(t: pa.Table) -> pa.Table:
    """Histogram branch → one row per HistogramDataPoint: (service,
    scope, conv.id, count, sum_ms, b0..b3). Datapoints are per-REQUEST
    partials (DELTA) — consumers sum rows per (scope, conv) to get the
    batch-independent totals (the mergeable-histogram property)."""
    empty_cols = {
        "service": pa.array([], type=pa.string()),
        "scope_name": pa.array([], type=pa.string()),
        "conv_id": pa.array([], type=pa.string()),
        "count": pa.array([], type=pa.int64()),
        "sum_ms": pa.array([], type=pa.int64()),
        "min_ms": pa.array([], type=pa.int64()),
        "max_ms": pa.array([], type=pa.int64()),
    }
    for i in range(len(HIST_BOUNDS) + 1):
        empty_cols[f"b{i}"] = pa.array([], type=pa.int64())
    ctx = _tree_context(t)
    if ctx is None:
        return pa.table(empty_cols)
    service, scope_name, _sv, scope_parent, metric_parent, metrics = ctx

    _, dps_list = _masked_dp_lists_typed(metrics, "histogram", _HIST, _HDP)
    dp_parent = pc.list_parent_indices(dps_list).to_numpy(zero_copy_only=False)
    dps = pc.list_flatten(dps_list)
    n_dp = len(dps)
    sidx = metric_parent[dp_parent] if n_dp else np.empty(0, np.int64)
    ridx = scope_parent[sidx] if n_dp else np.empty(0, np.int64)

    attrs = _opt_field(dps, "attributes", pa.list_(_KV))
    conv_id = _attr_first(attrs, n_dp, "conv.id", "stringValue")
    count = pc.cast(
        pc.cast(_opt_field(dps, "count", pa.string()), pa.int64()), pa.int64()
    )
    # sum is `optional double` — 0.0 is omitted on the wire, read back 0
    sum_ms = pc.cast(
        pc.fill_null(_opt_field(dps, "sum", pa.float64()), 0.0), pa.int64()
    )
    # min/max are optional doubles; keep NULL where absent (older wire
    # files) — partials merge by min/max so a fill would corrupt
    min_ms = pc.cast(_opt_field(dps, "min", pa.float64()), pa.int64())
    max_ms = pc.cast(_opt_field(dps, "max", pa.float64()), pa.int64())
    buckets = _opt_field(dps, "bucketCounts", pa.list_(pa.string()))
    nb = len(HIST_BOUNDS) + 1
    # genuine OTel exports carry per-datapoint explicitBounds of any
    # length; this fixed-bounds flatten handles exactly len(bounds)+1
    # buckets per datapoint — validate per-dp lengths instead of a
    # blind reshape whose error ("cannot reshape array of size …")
    # points nowhere (ADVICE r3)
    if n_dp:
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
    flat_b = pc.cast(pc.cast(pc.list_flatten(buckets), pa.int64()), pa.int64())
    b_np = (
        flat_b.to_numpy(zero_copy_only=False).reshape(n_dp, nb)
        if n_dp
        else np.empty((0, nb), np.int64)
    )
    empty_str = pa.array([], type=pa.string())
    cols = {
        "service": service.take(pa.array(ridx, type=pa.int64()))
        if n_dp
        else empty_str,
        "scope_name": scope_name.take(pa.array(sidx, type=pa.int64()))
        if n_dp
        else empty_str,
        "conv_id": pa.array(conv_id, type=pa.string()),
        "count": count,
        "sum_ms": sum_ms,
        "min_ms": min_ms,
        "max_ms": max_ms,
    }
    for i in range(nb):
        cols[f"b{i}"] = pa.array(b_np[:, i], type=pa.int64())
    return pa.table(cols)


ZERO_BUCKET_IDX = -100  # sentinel bucket for zeroCount rows (exp_histogram's)


def flatten_otlp_metrics_exp_batch(t: pa.Table) -> pa.Table:
    """ExponentialHistogram branch → exploded per-bucket rows
    (service, scope_name, conv_id, bucket_idx, n) with zeroCount rows
    at the ``ZERO_BUCKET_IDX`` sentinel. Datapoints are per-request
    DELTA partials — consumers sum n per group+bucket for the
    batch-independent totals."""
    empty = pa.table(
        {
            "service": pa.array([], type=pa.string()),
            "scope_name": pa.array([], type=pa.string()),
            "conv_id": pa.array([], type=pa.string()),
            "bucket_idx": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
        }
    )
    ctx = _tree_context(t)
    if ctx is None:
        return empty
    service_a, scope_name_a, _sv, scope_parent, metric_parent, metrics = ctx
    service = np.asarray(
        service_a.to_numpy(zero_copy_only=False), dtype=object
    )
    scope_name = np.asarray(
        scope_name_a.to_numpy(zero_copy_only=False), dtype=object
    )

    _, dps_list = _masked_dp_lists_typed(
        metrics, "exponentialHistogram", _EXP_HIST, _EDP
    )
    dp_parent = pc.list_parent_indices(dps_list).to_numpy(zero_copy_only=False)
    dps = pc.list_flatten(dps_list)
    n_dp = len(dps)
    if not n_dp:
        return empty
    sidx = metric_parent[dp_parent]
    ridx = scope_parent[sidx]
    attrs = _opt_field(dps, "attributes", pa.list_(_KV))
    conv_id = np.asarray(
        _attr_first(attrs, n_dp, "conv.id", "stringValue"), dtype=object
    )
    zero_n = (
        pc.cast(_opt_field(dps, "zeroCount", pa.string()), pa.int64())
        .to_numpy(zero_copy_only=False)
    )
    zero_n = np.nan_to_num(zero_n.astype(np.float64)).astype(np.int64)
    pos = _opt_field(dps, "positive", _EB)
    offset = np.nan_to_num(
        pc.cast(_opt_field(pos, "offset", pa.int64()), pa.int64())
        .to_numpy(zero_copy_only=False)
        .astype(np.float64)
    ).astype(np.int64)
    bl = _opt_field(pos, "bucketCounts", pa.list_(pa.string()))
    b_parent = pc.list_parent_indices(bl).to_numpy(zero_copy_only=False)
    b_counts = (
        pc.cast(pc.list_flatten(bl), pa.int64())
        .to_numpy(zero_copy_only=False)
    )
    # position within each dp's bucket list → absolute bucket index
    starts = np.zeros(n_dp, dtype=np.int64)
    if len(b_parent):
        cnts = np.bincount(b_parent, minlength=n_dp)
        starts = np.concatenate(([0], np.cumsum(cnts)[:-1]))
    within = (
        np.arange(len(b_parent)) - starts[b_parent]
        if len(b_parent)
        else np.empty(0, np.int64)
    )
    b_idx = offset[b_parent] + within if len(b_parent) else np.empty(0, np.int64)

    keep = b_counts > 0
    rows_service = np.concatenate(
        [service[ridx][b_parent][keep], service[ridx][zero_n > 0]]
    )
    rows_scope = np.concatenate(
        [scope_name[sidx][b_parent][keep], scope_name[sidx][zero_n > 0]]
    )
    rows_conv = np.concatenate(
        [conv_id[b_parent][keep], conv_id[zero_n > 0]]
    )
    rows_idx = np.concatenate(
        [
            b_idx[keep],
            np.full(int((zero_n > 0).sum()), ZERO_BUCKET_IDX, dtype=np.int64),
        ]
    )
    rows_n = np.concatenate([b_counts[keep], zero_n[zero_n > 0]])
    return pa.table(
        {
            "service": pa.array(rows_service, type=pa.string()),
            "scope_name": pa.array(rows_scope, type=pa.string()),
            "conv_id": pa.array(rows_conv, type=pa.string()),
            "bucket_idx": pa.array(rows_idx, type=pa.int64()),
            "n": pa.array(rows_n, type=pa.int64()),
        }
    )


def flatten_otlp_metrics_summary_batch(t: pa.Table) -> pa.Table:
    """Summary branch → one row per SummaryDataPoint: (service,
    scope_name, conv_id, count, sum_ms, q50, q95). count/sum are
    mergeable per-request partials; the quantiles are point-in-time
    snapshots (legacy Summary semantics) carried through verbatim."""
    empty = pa.table(
        {
            "service": pa.array([], type=pa.string()),
            "scope_name": pa.array([], type=pa.string()),
            "conv_id": pa.array([], type=pa.string()),
            "count": pa.array([], type=pa.int64()),
            "sum_ms": pa.array([], type=pa.int64()),
            "q50": pa.array([], type=pa.float64()),
            "q95": pa.array([], type=pa.float64()),
        }
    )
    ctx = _tree_context(t)
    if ctx is None:
        return empty
    service, scope_name, _sv, scope_parent, metric_parent, metrics = ctx

    _, dps_list = _masked_dp_lists_typed(metrics, "summary", _SUMMARY, _SDP)
    dp_parent = pc.list_parent_indices(dps_list).to_numpy(zero_copy_only=False)
    dps = pc.list_flatten(dps_list)
    n_dp = len(dps)
    if not n_dp:
        return empty
    sidx = metric_parent[dp_parent]
    ridx = scope_parent[sidx]
    attrs = _opt_field(dps, "attributes", pa.list_(_KV))
    conv_id = _attr_first(attrs, n_dp, "conv.id", "stringValue")
    count = pc.cast(_opt_field(dps, "count", pa.string()), pa.int64())
    sum_ms = pc.cast(
        pc.fill_null(_opt_field(dps, "sum", pa.float64()), 0.0), pa.int64()
    )
    # min/max are optional doubles; keep NULL where absent (older wire
    # files) — partials merge by min/max so a fill would corrupt
    min_ms = pc.cast(_opt_field(dps, "min", pa.float64()), pa.int64())
    max_ms = pc.cast(_opt_field(dps, "max", pa.float64()), pa.int64())
    # first-match per quantile across the quantileValues list
    ql = _opt_field(dps, "quantileValues", pa.list_(_VAQ))
    q_parent = pc.list_parent_indices(ql).to_numpy(zero_copy_only=False)
    qs = pc.list_flatten(ql)
    qq = _opt_field(qs, "quantile", pa.float64()).to_numpy(
        zero_copy_only=False
    )
    qv = _opt_field(qs, "value", pa.float64()).to_numpy(zero_copy_only=False)
    out_q = {}
    for name, target in (("q50", 0.5), ("q95", 0.95)):
        col = np.full(n_dp, np.nan)
        hit = qq == target
        col[q_parent[hit][::-1]] = qv[hit][::-1]
        out_q[name] = pa.array(col, type=pa.float64())
    return pa.table(
        {
            "service": service.take(pa.array(ridx, type=pa.int64())),
            "scope_name": scope_name.take(pa.array(sidx, type=pa.int64())),
            "conv_id": pa.array(conv_id, type=pa.string()),
            "count": count,
            "sum_ms": sum_ms,
            **out_q,
        }
    )


def _masked_dp_lists_typed(metrics, branch, branch_type, dp_type):
    """Like ``_masked_dp_lists`` with an explicit dataPoints element
    type (the histogram datapoint differs from NumberDataPoint)."""
    b = _opt_field(metrics, branch, branch_type)
    dps = _opt_field(b, "dataPoints", pa.list_(dp_type))
    valid = np.asarray(
        pc.is_valid(b).to_numpy(zero_copy_only=False), dtype=bool
    )
    idx = np.arange(len(metrics), dtype=object)
    idx[~valid] = None
    return b, dps.take(pa.array(idx, type=pa.int64()))


write_otlp_metrics_json = functools.partial(
    write_requests, nest=nest_otlp_metrics_batch
)
read_otlp_metrics_json = functools.partial(
    read_otlp_json, flatten=flatten_otlp_metrics_batch
)
# one reader per branch: histogram rows are per-datapoint partial
# histograms (merge rows per (scope, conv) for totals); exponential-
# histogram rows are exploded per-bucket partials (sum per group+bucket)
read_otlp_metrics_hist_json = functools.partial(
    read_otlp_json, flatten=flatten_otlp_metrics_hist_batch
)
read_otlp_metrics_exp_json = functools.partial(
    read_otlp_json, flatten=flatten_otlp_metrics_exp_batch
)
read_otlp_metrics_summary_json = functools.partial(
    read_otlp_json, flatten=flatten_otlp_metrics_summary_batch
)
