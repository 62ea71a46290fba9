"""Pipeline configuration — YAML spec → validated config.

Mirrors the collector's config surface shrunk to batch semantics: the
service pipeline shape ``{receivers[], processors[], exporters[]}`` with
validation (≥1 receiver, ≥1 exporter, no duplicate processors —
service/config.go:70-98), YAML unmarshalling via confmap
(confmap/resolver.go:60-76), ``${env:VAR}`` expansion + multi-URI merge
(confmap/resolver.go:128-170, confmap/provider/envprovider), and
feature gates (featuregate/registry.go:24-40). Hot-reload is out of
scope — batch jobs rebuild instead (SURVEY.md §2.8).

Spec::

    pipeline:
      source:  {type: parquet|transcripts|events_transcripts, paths|sf_dir, columns?}
      stages:  [{type: parse|enrich|attributes|filter|rebatch|route|..., ...}]
      sinks:   {mode: route|single, out_dir: ...}
      feature_gates: [engine.sortedSinkWrites, -engine.timeoutSender]
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class ConfigError(ValueError):
    pass


# ------------------------------------------------ confmap providers

# ${env:VAR} with optional default ${env:VAR:-default}
# (confmap/provider/envprovider syntax)
_ENV_RE = re.compile(r"\$\{env:([A-Za-z_][A-Za-z0-9_]*)(?::-([^}]*))?\}")


def expand_env(obj, env: dict | None = None):
    """Recursive ``${env:VAR}`` expansion over a loaded config tree.
    Unset variables without a ``:-default`` are an error (the resolver
    fails loudly rather than silently passing the placeholder through,
    confmap/resolver.go expandValueRecursively semantics)."""
    import os

    env = os.environ if env is None else env

    def sub(m: re.Match) -> str:
        name, default = m.group(1), m.group(2)
        if name in env:
            return str(env[name])
        if default is not None:
            return default
        raise ConfigError(f"environment variable not set: {name!r}")

    if isinstance(obj, str):
        return _ENV_RE.sub(sub, obj)
    if isinstance(obj, dict):
        return {k: expand_env(v, env) for k, v in obj.items()}
    if isinstance(obj, list):
        return [expand_env(v, env) for v in obj]
    return obj


def merge_configs(*specs: dict) -> dict:
    """Deep-merge config mappings, later sources override earlier —
    maps merge recursively, scalars and lists REPLACE (confmap.Conf
    merge semantics, confmap/confmap.go Merge)."""
    out: dict = {}
    for spec in specs:
        if not isinstance(spec, dict):
            raise ConfigError("each config source must be a mapping")
        for k, v in spec.items():
            if isinstance(v, dict) and isinstance(out.get(k), dict):
                out[k] = merge_configs(out[k], v)
            else:
                out[k] = v
    return out


def resolve_config(sources: list, env: dict | None = None) -> dict:
    """The confmap.Resolver analogue: load each source URI (dict, YAML
    string, or file path), deep-merge in order (later overrides
    earlier), then expand ``${env:}`` references over the merged tree
    (confmap/resolver.go:128-170)."""
    if not sources:
        raise ConfigError("at least one config source required")
    loaded = [_load_yaml(s) for s in sources]
    for i, d in enumerate(loaded):
        if not isinstance(d, dict):
            raise ConfigError(f"config source {i} did not parse to a mapping")
    return expand_env(merge_configs(*loaded), env)


# -------------------------------------------------- feature gates


@dataclass(frozen=True)
class FeatureGate:
    """featuregate.Gate analogue (featuregate/gate.go): identified
    flag with a lifecycle stage and a default."""

    id: str
    stage: str  # alpha (default off) | beta (default on) | stable
    default: bool
    description: str = ""


FEATURE_GATES: dict[str, FeatureGate] = {
    "engine.sortedSinkWrites": FeatureGate(
        "engine.sortedSinkWrites",
        "alpha",
        False,
        "sort each sink file by (conv_id, turn_idx) before writing",
    ),
    "engine.timeoutSender": FeatureGate(
        "engine.timeoutSender",
        "beta",
        True,
        "per-attempt deadline on sink writes (exporter timeout sender)",
    ),
    "engine.processorCounters": FeatureGate(
        "engine.processorCounters",
        "alpha",
        False,
        "per-stage accepted/dropped obsreport counters on the data "
        "plane (one acknowledged add_many call to the run's counter "
        "actor per block per stage group)",
    ),
}


def register_gate(
    gate_id: str,
    *,
    stage: str = "alpha",
    default: bool | None = None,
    description: str = "",
) -> FeatureGate:
    """featuregate.Registry.MustRegister analogue: duplicate ids are
    rejected; beta gates default on, alpha off (gate.go stage rules)."""
    if gate_id in FEATURE_GATES:
        raise ConfigError(f"feature gate already registered: {gate_id!r}")
    if stage not in {"alpha", "beta", "stable"}:
        raise ConfigError(f"unknown gate stage: {stage!r}")
    if default is None:
        default = stage in {"beta", "stable"}
    g = FeatureGate(gate_id, stage, default, description)
    FEATURE_GATES[gate_id] = g
    return g


def resolve_gates(specs: list[str] | None) -> dict[str, bool]:
    """Apply +/- gate overrides (the ``--feature-gates`` list syntax:
    ``gate`` or ``+gate`` enables, ``-gate`` disables). Unknown ids and
    attempts to flip a stable gate are rejected
    (featuregate/registry.go Set)."""
    state = {g.id: g.default for g in FEATURE_GATES.values()}
    for spec in specs or []:
        enable = not spec.startswith("-")
        gate_id = spec.lstrip("+-")
        if gate_id not in FEATURE_GATES:
            raise ConfigError(f"unknown feature gate: {gate_id!r}")
        if FEATURE_GATES[gate_id].stage == "stable" and not enable:
            raise ConfigError(f"cannot disable stable gate: {gate_id!r}")
        state[gate_id] = enable
    return state


KNOWN_SOURCES = {"parquet", "transcripts", "events_transcripts"}


@dataclass
class SourceConfig:
    type: str
    paths: list[str] | None = None
    sf_dir: str | None = None
    columns: list[str] | None = None
    # per-source credentials/options → filesystem constructor kwargs
    # (config/configauth parity; resolved via sources.wirefs)
    storage_options: dict | None = None


@dataclass
class StageConfig:
    type: str
    name: str
    options: dict = field(default_factory=dict)


@dataclass
class SinkConfig:
    mode: str = "route"
    out_dir: str | None = None
    # file-sizing knob (SURVEY §4 "Batching for sink efficiency")
    min_rows_per_file: int | None = None
    # per-attempt write deadline in seconds (timeout sender,
    # exporterhelper/common.go:194-209); sized by the operator to the
    # partition write time — a fixed default would kill legitimate
    # large writes. Effective only while engine.timeoutSender is on.
    write_timeout: float | None = None
    # parquet codec (the configgrpc compressor-matrix analogue,
    # config/configgrpc/configgrpc_benchmark_test.go:39): one of
    # snappy | zstd | gzip | lz4 | brotli | none (None = arrow default)
    compression: str | None = None
    # per-sink credentials/options → filesystem constructor kwargs
    storage_options: dict | None = None


@dataclass
class TelemetryConfig:
    """Self-telemetry sink (service.telemetry analogue,
    service/telemetry.go:24-33,96): at run end the engine exports its
    obsreport counter snapshot as an ExportMetricsServiceRequest wire
    file under ``out_dir`` — consumable by anything reading OTLP
    metrics, including the engine's own metrics readers."""

    out_dir: str
    wire: str = "json"  # json | pb | prom (Prometheus text exposition)
    compression: str | None = None  # gzip | zstd


@dataclass
class PipelineConfig:
    source: SourceConfig
    stages: list[StageConfig]
    sinks: SinkConfig
    # resolved feature-gate state (registry defaults + spec overrides)
    gates: dict = field(default_factory=dict)
    telemetry: TelemetryConfig | None = None


def load_service_config(spec: dict | str) -> dict[str, PipelineConfig]:
    """Multi-pipeline service spec (service.pipelines.{name} shape,
    service/config.go:70-98): ``{service: {pipelines: {name: <pipeline
    spec body>}}}``. Each body is validated like a single pipeline."""
    spec = _load_yaml(spec)
    if not isinstance(spec, dict) or "service" not in spec:
        raise ConfigError("spec must contain a top-level 'service' key")
    svc = spec["service"]
    if not isinstance(svc, dict):
        raise ConfigError("'service' must be a mapping")
    pipelines = svc.get("pipelines")
    if not pipelines:
        raise ConfigError("service must define at least one pipeline")
    if not isinstance(pipelines, dict):
        raise ConfigError("'service.pipelines' must be a mapping of name → pipeline")
    out = {}
    for name, body in pipelines.items():
        if not isinstance(body, dict):
            raise ConfigError(f"pipeline {name!r} must be a mapping")
        out[name] = load_config({"pipeline": body})
    # two pipelines writing the same out_dir would clobber each other's
    # atomic swap — reject like duplicate exporters would collide
    seen_dirs = {}
    for name, cfg in out.items():
        other = seen_dirs.setdefault(cfg.sinks.out_dir, name)
        if other != name:
            raise ConfigError(
                f"pipelines {other!r} and {name!r} share out_dir "
                f"{cfg.sinks.out_dir!r}"
            )
    return out


def _load_yaml(spec: dict | str) -> dict:
    if isinstance(spec, str):
        import os

        import yaml

        if spec.startswith("yaml:"):
            # confmap/provider/yamlprovider parity: the URI's payload
            # IS the YAML document ("yaml:processors::batch: {}" in
            # the reference; here the whole pipeline spec). Explicit
            # scheme — unlike the bare-string inline fallback below,
            # a malformed path can't silently parse as YAML.
            return _parse_yaml(spec[len("yaml:") :], "<yaml: uri>")
        if spec.startswith("env:"):
            # confmap/provider/envprovider's WHOLE-URI form (distinct
            # from ${env:VAR} interpolation): the named variable holds
            # a complete YAML document.
            name = spec[len("env:") :]
            if name not in (os.environ):
                raise ConfigError(f"config env var not set: {name!r}")
            return _parse_yaml(os.environ[name], spec)
        if spec.startswith("file:"):
            # confmap/provider/fileprovider's explicit-scheme form;
            # a missing file is a ConfigError, not an inline parse.
            path = spec[len("file:") :]
            if not os.path.exists(path):
                raise ConfigError(f"config file not found: {path!r}")
            with open(path) as f:
                return _parse_yaml(f.read(), spec)
        if spec.startswith(("http://", "https://")):
            # confmap/provider/httpprovider + httpsprovider parity:
            # a config URI fetched over HTTP(S) and parsed as YAML.
            # stdlib urllib — no extra deps; failures surface as
            # ConfigError like every other unreadable source.
            import urllib.error
            import urllib.request

            try:
                with urllib.request.urlopen(spec, timeout=30) as resp:
                    body = resp.read().decode("utf-8")
            except (urllib.error.URLError, OSError, ValueError) as e:
                raise ConfigError(f"cannot fetch config URI {spec!r}: {e}")
            return _parse_yaml(body, spec)
        if os.path.exists(spec):
            with open(spec) as f:
                return _parse_yaml(f.read(), spec)
        return _parse_yaml(spec, "<inline>")
    return spec


def _parse_yaml(body: str, origin: str):
    """Unparsable YAML is a CONFIG error (the reference's confmap
    contract), not a raw yaml traceback — every CLI surface reports it
    as `invalid: ...` + exit 1."""
    import yaml

    try:
        return yaml.safe_load(body)
    except yaml.YAMLError as e:
        raise ConfigError(f"unparsable YAML config from {origin!r}: {e}")


def load_config(
    spec: dict | str | list, env: dict | None = None
) -> PipelineConfig:
    """Parse + validate a pipeline spec (dict, YAML string, or path —
    or a LIST of them, deep-merged in order with later sources
    overriding earlier). ``${env:VAR}`` references are expanded over
    the resolved tree."""
    if isinstance(spec, list):
        spec = resolve_config(spec, env)
    else:
        spec = expand_env(_load_yaml(spec), env)
    if not isinstance(spec, dict) or "pipeline" not in spec:
        raise ConfigError("spec must contain a top-level 'pipeline' key")
    p = spec["pipeline"]
    if not isinstance(p, dict):
        raise ConfigError("'pipeline' must be a mapping")

    src = p.get("source")
    if not src:
        raise ConfigError("pipeline must reference at least one source")
    if not isinstance(src, dict):
        raise ConfigError("'source' must be a mapping")
    if src.get("type") not in KNOWN_SOURCES:
        raise ConfigError(f"unknown source type: {src.get('type')!r}")
    so = src.get("storage_options")
    if so is not None and not isinstance(so, dict):
        raise ConfigError("'storage_options' must be a mapping")
    source = SourceConfig(
        type=src["type"],
        paths=src.get("paths"),
        sf_dir=src.get("sf_dir"),
        columns=src.get("columns"),
        storage_options=so,
    )
    if source.type == "parquet" and not source.paths:
        raise ConfigError("parquet source needs paths")
    if source.type == "events_transcripts" and not source.sf_dir:
        raise ConfigError("events_transcripts source needs sf_dir")

    from .builder import STAGE_REGISTRY

    stages = []
    seen = set()
    for i, s in enumerate(p.get("stages", [])):
        stype = s.get("type")
        if stype not in STAGE_REGISTRY:
            raise ConfigError(f"unknown stage type: {stype!r}")
        name = s.get("name", stype)
        if name in seen:
            # duplicate processor names are rejected, service/config.go:88-93
            raise ConfigError(f"duplicate stage name: {name!r}")
        seen.add(name)
        opts = {k: v for k, v in s.items() if k not in {"type", "name"}}
        stages.append(StageConfig(type=stype, name=name, options=opts))

    sk = p.get("sinks")
    if not sk:
        raise ConfigError("pipeline must reference at least one sink")
    if not isinstance(sk, dict):
        raise ConfigError("'sinks' must be a mapping")
    sko = sk.get("storage_options")
    if sko is not None and not isinstance(sko, dict):
        raise ConfigError("'storage_options' must be a mapping")
    sinks = SinkConfig(
        mode=sk.get("mode", "route"),
        out_dir=sk.get("out_dir"),
        min_rows_per_file=sk.get("min_rows_per_file"),
        write_timeout=sk.get("write_timeout"),
        compression=sk.get("compression"),
        storage_options=sko,
    )
    if sinks.mode not in {"route", "single"}:
        raise ConfigError(f"unknown sink mode: {sinks.mode!r}")
    if sinks.compression is not None and sinks.compression not in {
        "snappy", "zstd", "gzip", "lz4", "brotli", "none",
    }:
        raise ConfigError(
            f"unknown sink compression: {sinks.compression!r} "
            "(want snappy|zstd|gzip|lz4|brotli|none)"
        )
    if not sinks.out_dir:
        raise ConfigError("sinks need out_dir")

    gate_specs = p.get("feature_gates", [])
    if not isinstance(gate_specs, list):
        raise ConfigError("'feature_gates' must be a list of gate ids")
    gates = resolve_gates(gate_specs)

    telemetry = None
    tl = p.get("telemetry")
    if tl is not None:
        if not isinstance(tl, dict):
            raise ConfigError("'telemetry' must be a mapping")
        if not tl.get("out_dir"):
            raise ConfigError("telemetry needs out_dir")
        wire = tl.get("wire", "json")
        if wire not in {"json", "pb", "prom"}:
            raise ConfigError(
                f"unknown telemetry wire: {wire!r} (json|pb|prom)"
            )
        comp = tl.get("compression")
        if comp is not None and comp not in {"gzip", "zstd", "none"}:
            raise ConfigError(
                f"unknown telemetry compression: {comp!r} (gzip|zstd|none)"
            )
        telemetry = TelemetryConfig(
            out_dir=tl["out_dir"],
            wire=wire,
            compression=None if comp == "none" else comp,
        )

    return PipelineConfig(
        source=source,
        stages=stages,
        sinks=sinks,
        gates=gates,
        telemetry=telemetry,
    )
