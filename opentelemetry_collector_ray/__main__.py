"""CLI entry — the ``otelcol`` command analogue (otelcol/command.go →
Collector.Run, otelcol/collector.go:208-255), batch semantics: load
YAML config, build the DAG, run to the sinks, print the run report.
One-shot ``run``/``service`` rebuild instead of hot-reloading; the
long-running ``tail`` service DOES hot-reload its config between ticks
(otelcol/collector.go:191-204 Watch analogue, state/tailer.py
ConfigWatcher) and can export per-tick self-telemetry.

Usage::

    python -m opentelemetry_collector_ray run pipeline.yaml
    python -m opentelemetry_collector_ray validate pipeline.yaml
    python -m opentelemetry_collector_ray resume <out_dir> --inputs 'glob' [-p N]
    python -m opentelemetry_collector_ray tail pipeline.yaml \\
        --inputs 'spool/*.parquet' --out out/ [--telemetry-out tel/]
"""

from __future__ import annotations

import argparse
import glob
import json
import sys


def _ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="opentelemetry_collector_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="run a YAML pipeline to its sinks")
    runp.add_argument("config")

    valp = sub.add_parser("validate", help="validate a YAML pipeline config")
    valp.add_argument("config")

    svcp = sub.add_parser(
        "service", help="run a multi-pipeline service config (shared sources)"
    )
    svcp.add_argument("config")

    resp = sub.add_parser(
        "resume", help="(re)run the flagship pipeline partition-wise with ledger"
    )
    resp.add_argument("out_dir")
    resp.add_argument("--inputs", required=True, help="glob of input parquet files")
    resp.add_argument("-p", "--partitions", type=int, default=8)

    tailp = sub.add_parser(
        "tail",
        help="long-running poll-process service: YAML stage chain over "
        "an input glob with checkpoint ledger, config hot-reload "
        "(collector.go Watch analogue) and per-tick self-telemetry",
    )
    tailp.add_argument("config")
    tailp.add_argument("--inputs", required=True, help="glob of input parquet")
    tailp.add_argument("--out", required=True, help="partitioned output dir")
    tailp.add_argument("-p", "--partitions", type=int, default=8)
    tailp.add_argument("--poll", type=float, default=1.0)
    tailp.add_argument("--stop-file", default=None)
    tailp.add_argument("--max-ticks", type=int, default=None)
    tailp.add_argument(
        "--telemetry-out", default=None, help="OTLP metrics wire dir"
    )

    cmpp = sub.add_parser(
        "compact", help="compact a sink directory's small parquet files"
    )
    cmpp.add_argument("path")
    cmpp.add_argument("--min-rows-per-file", type=int, default=1_000_000)

    sub.add_parser(
        "components",
        help="list available sources, stages, sink modes and feature "
        "gates (the `otelcol components` analogue)",
    )

    prof = sub.add_parser(
        "profile", help="per-column n/null/distinct/min/max audit of parquet"
    )
    prof.add_argument("path")
    prof.add_argument(
        "--columns", required=True, help="comma-separated column names"
    )

    args = p.parse_args(argv)

    from .pipelines.config import ConfigError, load_config

    if args.cmd == "components":
        # no Ray session needed — registry introspection only
        from .pipelines.builder import STAGE_REGISTRY
        from .pipelines.config import FEATURE_GATES, KNOWN_SOURCES

        print(
            json.dumps(
                {
                    "sources": sorted(KNOWN_SOURCES),
                    "stages": sorted(STAGE_REGISTRY),
                    "sink_modes": ["route", "single"],
                    "feature_gates": {
                        gid: {
                            "stage": g.stage,
                            "enabled_by_default": g.default,
                        }
                        for gid, g in sorted(FEATURE_GATES.items())
                    },
                }
            )
        )
        return 0

    if args.cmd == "validate":
        try:
            cfg = load_config(args.config)
        except ConfigError as e:
            print(f"invalid: {e}", file=sys.stderr)
            return 1
        print(
            f"ok: source={cfg.source.type} stages="
            f"{[s.type for s in cfg.stages]} sinks={cfg.sinks.mode}"
        )
        return 0

    _ray_session()
    if args.cmd == "tail":
        from .state.tailer import ConfigWatcher, tail_run

        try:
            watcher = ConfigWatcher(args.config)
        except Exception as e:
            # initial config must load; unparsable YAML raises yaml
            # errors, a missing path OSError — all are "invalid" here
            print(f"invalid: {e}", file=sys.stderr)
            return 1
        stats = tail_run(
            args.inputs,
            args.out,
            watcher,
            num_partitions=args.partitions,
            poll_interval=args.poll,
            stop_file=args.stop_file,
            max_ticks=args.max_ticks,
            telemetry_out=args.telemetry_out,
        )
        print(json.dumps({**stats, "config_generation": watcher.generation}))
        return 0

    if args.cmd == "service":
        from .pipelines.builder import run_service

        try:
            report = run_service(args.config)
        except ConfigError as e:
            print(f"invalid: {e}", file=sys.stderr)
            return 1
        print(json.dumps(report))
        return 0

    if args.cmd == "run":
        from .pipelines.builder import run_pipeline

        try:
            report = run_pipeline(args.config)
        except ConfigError as e:
            print(f"invalid: {e}", file=sys.stderr)
            return 1
        print(json.dumps(report))
        return 0

    if args.cmd == "compact":
        from .sinks.writers import compact_parquet_dir

        report = compact_parquet_dir(
            args.path, min_rows_per_file=args.min_rows_per_file
        )
        print(json.dumps(report))
        return 0

    if args.cmd == "profile":
        from .functions.profile import profile_dataset
        from .sources.parquet import read_parquet

        cols = [c.strip() for c in args.columns.split(",") if c.strip()]
        ds = read_parquet(args.path, columns=cols)
        out = profile_dataset(ds, cols)
        print(json.dumps(out.to_dict(orient="records"), default=str))
        return 0

    if args.cmd == "resume":
        from .pipelines.builder import map_stages
        from .sources.transcripts import read_transcripts
        from .stages.enrich import enrich_batch
        from .stages.parse import parse_batch
        from .stages.route import explode_sinks_batch
        from .state.checkpoint import run_partitioned

        files = sorted(glob.glob(args.inputs))
        if not files:
            print(f"no inputs match {args.inputs!r}", file=sys.stderr)
            return 1

        def pipeline(paths):
            return map_stages(
                read_transcripts(paths),
                [parse_batch, enrich_batch, explode_sinks_batch],
            )

        report = run_partitioned(
            files, args.out_dir, pipeline, num_partitions=args.partitions
        )
        print(json.dumps(report))
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
