"""Pipeline builder — config → Ray Data DAG.

The ``graph.Build`` analogue (service/internal/graph/graph.go:66-80):
the reference assembles receiver → capabilities → processors → fanout →
exporters by constructing consumers in reverse topological order; here
the graph is a linear Dataset chain plus a terminal fan-out, so the
builder is a fold over the stage registry (no capabilities node — Arrow
blocks are immutable; no reverse-topo — datasets are lazy, composition
order is declaration order).

A pipeline's processors are one synchronous consumer chain in the
reference (docs/design.md:77, processorhelper/logs.go:40-82). Here each
run of consecutive batch stages compiles to ONE :class:`StageChain`
applied by one ``map_batches`` of plain Ray tasks, so the read, the
stages and the sink write fuse into one task per block. Only the
dataset-level ``rebatch`` stage splits a run. No stage gets its own
actor pool: at one CPU, two pools plus the read tasks starve the
scheduler (20 s a pass against 0.41 s as one task chain).

``STAGE_REGISTRY`` is the factory table (the ``otelcol.Factories``
analogue, otelcol/factories.go / receiver/receiver.go:69-94): stage
type name → builder ``(options) -> batch callable``, where the callable
(a function or a constructed instance) maps ``pa.Table -> pa.Table``.
Builders run on the driver, so bad options fail before any Ray job.
Users register custom stages with :func:`register_stage` — the
processorhelper one-function extension point
(processor/processorhelper/logs.go:40-82).
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

import ray.data

from ..sources.parquet import read_parquet
from ..state import metrics as _metrics
from .config import ConfigError, PipelineConfig, load_config


class StageChain:
    """One batch callable running ``stages`` in order on each batch.

    With ``counters`` set (a ``state.metrics.MetricsActor`` handle,
    ``engine.processorCounters``), it also records the data-plane
    obsreport counts of each member stage (obs_processor.go:24-33
    names): rows out as ``accepted``, rows in minus rows out as
    ``dropped``, and a ``batch_send_size`` bucket. The whole chain sends
    ONE ``add_many`` per block and waits for it before returning the
    block, so every count has landed when the write returns. ``refused``
    stays a structural zero in batch mode (backpressure replaces
    refusal). Without ``counters`` the chain carries no counting
    overhead."""

    # batch_send_size histogram bounds (processor/batchprocessor/
    # metrics.go:111-219 idiom: distribution of emitted batch sizes)
    SIZE_BOUNDS = (1024, 8192, 65536)

    def __init__(
        self,
        stages: Sequence[Callable],
        names: Sequence[str] = (),
        counters=None,
    ):
        self.stages = list(stages)
        self.names = list(names)
        self.counters = counters

    def __call__(self, batch):
        if self.counters is None:
            for stage in self.stages:
                batch = stage(batch)
            return batch
        updates = {}
        for name, stage in zip(self.names, self.stages):
            n_in = len(batch)
            batch = stage(batch)
            n_out = len(batch)
            updates[_metrics.processor_accepted(name)] = n_out
            if n_in > n_out:
                updates[_metrics.processor_dropped(name)] = n_in - n_out
            le = next((str(b) for b in self.SIZE_BOUNDS if n_out <= b), "inf")
            updates[f"processor/{name}/batch_send_size/le_{le}"] = 1
        ray.get(self.counters.add_many.remote(updates))
        return batch


def map_stages(
    ds: ray.data.Dataset,
    stages: Sequence[Callable],
    *,
    names: Sequence[str] = (),
    counters=None,
    **ray_remote_args,
) -> ray.data.Dataset:
    """Apply ``stages`` as one :class:`StageChain` in one
    ``map_batches`` of plain tasks (operator ``MapBatches(StageChain)``)."""
    return ds.map_batches(
        StageChain(stages, names, counters),
        batch_format="pyarrow",
        **ray_remote_args,
    )


def _build_parse(opts):
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.parse import GROK_PATTERN, parse_batch

    pattern = opts.get("pattern", GROK_PATTERN)
    try:
        # RE2 compiles the pattern here, on the driver: a bad pattern
        # fails the build instead of the first task
        pc.extract_regex(pa.array([""], type=pa.string()), pattern)
    except (pa.ArrowInvalid, TypeError) as e:
        raise ConfigError(f"parse: bad pattern {pattern!r}: {e}") from e
    return functools.partial(parse_batch, pattern=pattern)


def _build_enrich(opts):
    from ..schema import ERROR_SINK
    from ..stages.enrich import enrich_batch

    dims = {
        k: opts[k]
        for k in ("tool_service", "role_route")
        if opts.get(k) is not None
    }
    # ERROR rows already fan to the errors sink; a route there too
    # would land them twice and drop them from receiver-accepted
    routes = dims.get("role_route", {})
    bad = sorted(str(r) for r, v in routes.items() if v == ERROR_SINK)
    if bad:
        raise ConfigError(
            f"enrich: role_route sends {bad} to the reserved "
            f"{ERROR_SINK!r} sink"
        )
    return functools.partial(enrich_batch, **dims)


def _build_attributes(opts):
    from ..stages.attributes import AttributesStage

    return AttributesStage(opts.get("actions", []))


def _build_filter(opts):
    from ..stages.filters import FilterStage

    return FilterStage(include=opts.get("include"), exclude=opts.get("exclude"))


def _build_route(opts):
    from ..stages.route import route_batch

    return route_batch


def _build_explode_sinks(opts):
    from ..stages.route import explode_sinks_batch

    return explode_sinks_batch


def _build_token_stats(opts):
    from ..stages.text import token_stats_batch

    return token_stats_batch


def _build_quality(opts):
    from ..stages.text import quality_batch

    return quality_batch


def _build_fingerprint(opts):
    from ..stages.text import fingerprint_batch

    return fingerprint_batch


def _build_map_attributes(opts):
    # pcommon.Map mutation surface over an open-ended map column:
    # {type: map_attributes, column: attrs, from_json: props,
    #  actions: [{action: upsert, key: k, value: v}, ...]}
    from ..stages.maps import MapAttributesStage

    return MapAttributesStage(
        column=opts.get("column", "attributes"),
        actions=opts.get("actions", []),
        from_json=opts.get("from_json"),
    )


def _build_condition_filter(opts):
    # OTTL-style string condition (transformprocessor parity):
    # {type: condition_filter, condition: "level == 'ERROR' and ..."}
    from ..stages.ottl import ConditionFilter

    return ConditionFilter(opts["condition"])


def _build_transform(opts):
    # OTTL statement list (transformprocessor parity):
    # {type: transform, statements: ["set(x, 'v') where c", ...]}
    from ..stages.ottl_statements import TransformStage

    return TransformStage(list(opts["statements"]))


def _build_memory_limiter(opts):
    # explicit per-worker memory budget (memorylimiterprocessor
    # parity): {type: memory_limiter, limit_mib: N[, spike_limit_mib]}
    from ..stages.memlimit import MemoryLimiterStage

    kwargs = {"limit_mib": float(opts["limit_mib"])}
    if "spike_limit_mib" in opts:
        kwargs["spike_limit_mib"] = float(opts["spike_limit_mib"])
    if "recovery_timeout_s" in opts:
        kwargs["recovery_timeout_s"] = float(opts["recovery_timeout_s"])
    return MemoryLimiterStage(**kwargs)


STAGE_REGISTRY: dict[str, Callable] = {
    "parse": _build_parse,
    "enrich": _build_enrich,
    "attributes": _build_attributes,
    "filter": _build_filter,
    "route": _build_route,
    "explode_sinks": _build_explode_sinks,
    "token_stats": _build_token_stats,
    "quality": _build_quality,
    "fingerprint": _build_fingerprint,
    "condition_filter": _build_condition_filter,
    "transform": _build_transform,
    "map_attributes": _build_map_attributes,
    "memory_limiter": _build_memory_limiter,
    "rebatch": None,  # handled structurally (dataset-level, not batch-level)
}


def register_stage(name: str, builder: Callable) -> None:
    """Extension point: add a custom stage factory (factories idiom).
    ``builder(options)`` runs on the driver and returns one batch
    callable ``pa.Table -> pa.Table`` (a function or an instance)."""
    if name in STAGE_REGISTRY:
        raise ConfigError(f"stage type already registered: {name!r}")
    STAGE_REGISTRY[name] = builder


def build_source(cfg: PipelineConfig) -> ray.data.Dataset:
    src = cfg.source
    if src.type == "parquet" or src.type == "transcripts":
        kwargs = {}
        if src.columns:
            kwargs["columns"] = src.columns
        paths = src.paths
        if src.storage_options:
            # configauth parity: per-source credentials become the
            # filesystem constructor's kwargs (sources/wirefs registry).
            # One filesystem is resolved from the first path and every
            # entry must live on it (strip_scheme documents the
            # mixed-scheme assumption).
            from ..sources import wirefs

            fs, _ = wirefs.resolve_fs(paths[0], None, src.storage_options)
            kwargs["filesystem"] = fs
            paths = [wirefs.strip_scheme(p) for p in paths]
        return read_parquet(paths, **kwargs)
    if src.type == "events_transcripts":
        from ..sources.transcripts import transcripts_from_events

        return transcripts_from_events(src.sf_dir)
    raise ConfigError(f"unknown source type: {src.type!r}")


def run_service(spec: dict | str) -> dict:
    """Multi-pipeline service run (service.pipelines shape): pipelines
    declaring the SAME source share one Dataset read (the shared-
    receiver-instance semantics, internal/sharedcomponent/
    sharedcomponent.go:28-58 — one receiver fanning into every pipeline
    that lists it). Returns {pipeline_name: run report}."""
    from .config import load_service_config

    cfgs = load_service_config(spec)

    def skey(cfg):
        import json as _json

        return (
            cfg.source.type,
            tuple(cfg.source.paths or []),
            cfg.source.sf_dir,
            tuple(cfg.source.columns or []),
            # canonical-JSON so NESTED option dicts (valid per config
            # validation) stay hashable (review finding, r4)
            _json.dumps(cfg.source.storage_options or {}, sort_keys=True),
        )

    # shared sources: a lazy Dataset re-executes its read per consumer,
    # so sharing the *object* alone shares nothing — materialize() a
    # source only when ≥2 pipelines consume it (read once, blocks
    # pinned in the object store and fanned into every pipeline — the
    # actual shared-receiver semantics; a single-consumer source stays
    # lazy/streaming).
    from collections import Counter

    uses = Counter(skey(cfg) for cfg in cfgs.values())
    sources: dict[tuple, ray.data.Dataset] = {}
    reports = {}
    for name, cfg in cfgs.items():
        key = skey(cfg)
        if key not in sources:
            ds = build_source(cfg)
            sources[key] = ds.materialize() if uses[key] > 1 else ds
        reports[name] = _run_one(cfg, sources[key])
    return reports


def _route_sink_count(cfg: PipelineConfig) -> int | None:
    """How many sinks a route-mode run can land, from its config alone:
    the routes of its last enrich stage, the default route and the
    errors sink (an upper bound: a corpus may lack some roles). None
    without an enrich stage, where the route column comes from the
    data. Sizing a sorted write by it runs the staged plan once."""
    from ..schema import DEFAULT_ROUTE, DIM_ROLE_ROUTE, ERROR_SINK

    enrich = [st for st in cfg.stages if st.type == "enrich"]
    if not enrich:
        return None
    routes = enrich[-1].options.get("role_route")
    if routes is None:
        routes = DIM_ROLE_ROUTE
    return len({str(v) for v in routes.values()} | {DEFAULT_ROUTE, ERROR_SINK})


def _run_one(cfg: PipelineConfig, source: ray.data.Dataset) -> dict:
    from ..sinks.retry import AttemptTimeout, RetryPolicy, retry_call
    from ..sinks.writers import atomic_write_parquet, write_sinks
    from ..state.checkpoint import _is_io_failure

    def _retryable(e: BaseException) -> bool:
        return _is_io_failure(e) or isinstance(e, AttemptTimeout)

    counters = None

    def staged() -> ray.data.Dataset:
        # built per attempt: a retried write re-executes the whole
        # dataset, so each attempt counts into a fresh unnamed actor,
        # handed to every stage chain, and the report reads the last one
        nonlocal counters
        if cfg.gates.get("engine.processorCounters"):
            counters = _metrics.MetricsActor.remote()
        return _apply_stages(source, cfg, counters=counters)

    out_dir = cfg.sinks.out_dir
    sizing = (
        {"min_rows_per_file": cfg.sinks.min_rows_per_file}
        if cfg.sinks.min_rows_per_file
        else {}
    )
    if cfg.sinks.storage_options:
        sizing["storage_options"] = cfg.sinks.storage_options
    if cfg.sinks.compression:
        # forwarded to pyarrow's ParquetWriter via write_parquet —
        # "none" means store uncompressed (arrow spells it "NONE")
        sizing["compression"] = (
            "NONE"
            if cfg.sinks.compression == "none"
            else cfg.sinks.compression
        )
    # the exporter helper chain on the config path: obsreport counts
    # (per-sink report) ← retry sender ← timeout sender; the queue is
    # the streaming executor's backpressure. Per-attempt deadline =
    # sinks.write_timeout while engine.timeoutSender is on; each
    # attempt is idempotent (stage+swap), so abandoning one is safe.
    use_deadline = cfg.gates.get("engine.timeoutSender", True)
    policy = RetryPolicy(
        timeout=cfg.sinks.write_timeout if use_deadline else None
    )
    if cfg.sinks.mode == "route":
        from ..stages.route import explode_sinks_batch

        sort_within = (
            ("conv_id", "turn_idx")
            if cfg.gates.get("engine.sortedSinkWrites")
            else None
        )
        per_sink = retry_call(
            lambda: write_sinks(
                staged().map_batches(explode_sinks_batch, batch_format="pyarrow"),
                out_dir,
                sort_within=sort_within,
                n_sinks=_route_sink_count(cfg),
                **sizing,
            ),
            policy=policy,
            is_retryable=_retryable,
        )
        report = {"out_dir": out_dir, "per_sink": per_sink}
    else:
        n = retry_call(
            lambda: atomic_write_parquet(staged(), out_dir, **sizing),
            policy=policy,
            is_retryable=_retryable,
        )
        report = {"out_dir": out_dir, "rows": int(n)}
    if counters is not None:
        # each chain call waited for its add, so the write's return
        # means every block's counts are in
        report["processor_counters"] = ray.get(counters.snapshot.remote())
    if cfg.telemetry is not None:
        # service.telemetry analogue (service/telemetry.go:96): land the
        # run's obsreport counter snapshot over the engine's own OTLP
        # metrics wire at run end.
        import time

        from ..state.telemetry import export_telemetry

        snap = _metrics.obsreport_counts(
            report["per_sink"]
            if "per_sink" in report
            else {"single": report["rows"]}
        )
        snap.update(report.get("processor_counters", {}))
        report["telemetry_path"] = export_telemetry(
            snap,
            cfg.telemetry.out_dir,
            time.time_ns(),
            wire=cfg.telemetry.wire,
            compression=cfg.telemetry.compression,
        )
    return report


def _stage_remote_args(opts: dict, stage_type: str | None = None) -> dict:
    """Scheduler-side memory budget (memorylimiter parity, half 2 —
    see stages/memlimit.py): ``memory_mib`` on any stage becomes the
    Ray ``memory`` resource, so the scheduler reserves that heap per
    task and never co-locates more workers than the node holds. A
    stage group takes the largest ``memory_mib`` of its members.

    (Refusal itself is a bounded wait-for-recovery INSIDE
    MemoryLimiterStage, so it backpressures instead of aborting the
    pipeline.)"""
    out: dict = {}
    mib = opts.get("memory_mib")
    if mib is not None:
        out["memory"] = int(float(mib) * 1024 * 1024)
    return out


def _apply_stages(
    ds: ray.data.Dataset,
    cfg: PipelineConfig,
    *,
    counters=None,
) -> ray.data.Dataset:
    """Fold the config's stages onto ``ds``: each run of consecutive
    batch stages becomes one :func:`map_stages`; ``rebatch`` reshapes
    blocks between runs."""
    group: list[tuple[str, Callable, dict]] = []

    def flush(ds):
        if not group:
            return ds
        names, stages, opts = zip(*group)
        group.clear()
        mib = max(
            (o["memory_mib"] for o in opts if o.get("memory_mib") is not None),
            key=float,
            default=None,
        )
        return map_stages(
            ds,
            stages,
            names=names,
            counters=counters,
            **_stage_remote_args({"memory_mib": mib}),
        )

    seen: dict[str, int] = {}
    for st in cfg.stages:
        if st.type == "rebatch":
            from ..stages.batch import rebatch

            ds = rebatch(
                flush(ds),
                st.options.get("rows", 65536),
                num_blocks=st.options.get("num_blocks"),
            )
            continue
        # unique obsreport name per stage instance (a pipeline may use
        # the same stage type twice; config validation already forbids
        # exact duplicates, this disambiguates type reuse)
        idx = seen[st.type] = seen.get(st.type, 0) + 1
        stage_name = st.type if idx == 1 else f"{st.type}#{idx}"
        group.append((stage_name, STAGE_REGISTRY[st.type](st.options), st.options))
    return flush(ds)


def build_dataset(cfg: PipelineConfig) -> ray.data.Dataset:
    """source + stages → lazy Dataset (no sink consumption)."""
    return _apply_stages(build_source(cfg), cfg)


def run_pipeline(spec: dict | str) -> dict:
    """Config in, run out: build, write sinks atomically (stage + swap;
    Ray's write_parquet default APPENDs, a rerun must replace), return
    the run report (per-sink counts — the obsreport surface)."""
    cfg = load_config(spec)
    return _run_one(cfg, build_source(cfg))
