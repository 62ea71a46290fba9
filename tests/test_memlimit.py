"""Explicit memory-limiter stage (stages/memlimit.py) — the
memorylimiterprocessor parity surface: hard-limit refusal after a
forced GC, soft-limit hysteresis, pass-through otherwise, config
wiring, and the scheduler-side ``memory_mib`` budget knob."""

import pyarrow as pa
import pytest
import ray
import ray.data

from opentelemetry_collector_ray.pipelines.builder import (
    STAGE_REGISTRY,
    _stage_remote_args,
)
from opentelemetry_collector_ray.stages.memlimit import (
    MemoryLimiterStage,
    MemoryLimitExceeded,
    process_rss_mib,
)

BATCH = pa.table({"x": [1, 2, 3]})


def test_pass_through_under_limit():
    st = MemoryLimiterStage(limit_mib=1 << 20)  # 1 TiB: never trips
    assert st(BATCH) is BATCH
    # the real probe reads /proc and returns something sane
    assert 1.0 < process_rss_mib() < 1 << 20


def test_hard_limit_refuses_after_gc_and_hysteresis_resets():
    """Reference semantics (memorylimiter.go:281-352): above hard →
    forced GC, still above → refusal trips ON and stays on until RSS
    drops below the SOFT limit, then flow resumes."""
    readings = iter([150.0, 150.0, 95.0, 85.0, 70.0, 70.0])
    st = MemoryLimiterStage(
        limit_mib=100, spike_limit_mib=20, rss_probe=lambda: next(readings),
        recovery_timeout_s=0,  # fail-immediately: probe-sequence test
    )
    # 150 > hard(100); post-GC re-read 150 → refuse, refusal latched
    with pytest.raises(MemoryLimitExceeded, match="hard limit"):
        st(BATCH)
    # 95 and 85 are under hard but above soft(80): still refusing
    with pytest.raises(MemoryLimitExceeded, match="soft limit"):
        st(BATCH)
    with pytest.raises(MemoryLimitExceeded, match="soft limit"):
        st(BATCH)
    # 70 < soft: hysteresis resets, batch flows (second 70 for the
    # fresh un-latched check in the same call)
    assert st(BATCH) is BATCH


def test_gc_recovery_avoids_refusal():
    """If the forced GC brings usage back under the hard limit, the
    batch passes and refusal never latches."""
    readings = iter([150.0, 90.0, 90.0])
    st = MemoryLimiterStage(
        limit_mib=100, spike_limit_mib=20, rss_probe=lambda: next(readings)
    )
    assert st(BATCH) is BATCH  # 150 → GC → 90 ≤ hard
    assert st(BATCH) is BATCH  # not refusing: 90 ≤ hard


def test_refusal_is_retryable_not_permanent():
    from opentelemetry_collector_ray.sinks.retry import PermanentError

    assert not issubclass(MemoryLimitExceeded, PermanentError)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        MemoryLimiterStage(limit_mib=0)
    with pytest.raises(ValueError):
        MemoryLimiterStage(limit_mib=100, spike_limit_mib=100)


def test_builder_registration_and_defaults():
    st = STAGE_REGISTRY["memory_limiter"]({"limit_mib": 512})
    assert isinstance(st, MemoryLimiterStage)
    assert st.hard == 512 and st.soft == pytest.approx(512 * 0.8)
    st = STAGE_REGISTRY["memory_limiter"](
        {"limit_mib": 512, "spike_limit_mib": 128}
    )
    assert st.soft == 384


def test_memory_mib_becomes_ray_memory_resource():
    assert _stage_remote_args({}) == {}
    assert _stage_remote_args({"memory_mib": 256}) == {
        "memory": 256 * 1024 * 1024
    }


def test_stage_group_is_one_task_map_with_its_largest_memory_mib():
    """Consecutive stages compile to ONE map_batches of a StageChain:
    plain tasks (no concurrency → no actor pool), reserving the largest
    ``memory_mib`` of its members; ``rebatch`` starts a new group."""
    from opentelemetry_collector_ray.pipelines.builder import (
        StageChain,
        _apply_stages,
    )
    from opentelemetry_collector_ray.pipelines.config import load_config

    class _Recorder:
        def __init__(self):
            self.maps = []

        def map_batches(self, fn, **kwargs):
            self.maps.append((fn, kwargs))
            return self

        def repartition(self, *args, **kwargs):
            self.maps.append(("repartition", kwargs))
            return self

    cfg = load_config(
        {
            "pipeline": {
                "source": {"type": "parquet", "paths": ["in.parquet"]},
                "stages": [
                    {"type": "parse", "memory_mib": 64},
                    {"type": "memory_limiter", "limit_mib": 512,
                     "memory_mib": 128},
                    {"type": "enrich"},
                    {"type": "rebatch", "rows": 1000},
                    {"type": "route"},
                ],
                "sinks": {"mode": "single", "out_dir": "out"},
            }
        }
    )
    ds = _apply_stages(_Recorder(), cfg)
    chains = [(fn, kw) for fn, kw in ds.maps if isinstance(fn, StageChain)]
    assert len(chains) == 2
    (first, kw1), (second, kw2) = chains
    assert len(first.stages) == 3 and len(second.stages) == 1
    assert kw1 == {"batch_format": "pyarrow", "memory": 128 * 1024 * 1024}
    assert kw2 == {"batch_format": "pyarrow"}


def test_memory_limiter_in_pipeline(ray_session, tmp_path):
    """Config-path smoke: a huge-limit memory_limiter stage passes
    rows through unchanged, and memory_mib on the stage schedules fine
    under the test cluster's budget (the Ray memory resource)."""
    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.pipelines.config import load_config

    path = "/root/testdata/sf0.001/events.parquet"
    cfg = load_config(
        {
            "pipeline": {
                "source": {
                    "type": "parquet",
                    "paths": [path],
                    "columns": ["event_id", "event_type"],
                },
                "stages": [
                    {
                        "type": "memory_limiter",
                        "limit_mib": 1 << 20,
                        "memory_mib": 64,
                    },
                ],
                "sinks": {"mode": "single", "out_dir": str(tmp_path)},
            }
        }
    )
    out = build_dataset(cfg)
    n = ray.data.read_parquet(path, columns=["event_id"]).count()
    assert out.count() == n


def test_remote_args_stay_valid_actor_options():
    """Ray actor pools reject retry_exceptions at creation (and Ray
    Data has no per-method retry surface) — the builder must never
    emit it; refusal retryability lives INSIDE the stage as the
    bounded wait instead."""
    args = _stage_remote_args({"memory_mib": 64}, "memory_limiter")
    assert args == {"memory": 64 * 1024 * 1024}


class _SpikeProbe:
    """RSS probe: over the hard limit for the first ``high`` calls,
    recovered below the soft limit afterwards — a transient spike."""

    def __init__(self, high=2):
        self.calls = 0
        self.high = high

    def __call__(self):
        self.calls += 1
        return 10_000.0 if self.calls <= self.high else 1.0


def test_transient_spike_waits_for_recovery_not_crash():
    """Hard-limit trip + still-high post-GC read latches refusal; the
    bounded wait then sees the recovered RSS and the batch FLOWS —
    refusal is backpressure, not a pipeline abort."""
    st = MemoryLimiterStage(
        limit_mib=100,
        rss_probe=_SpikeProbe(high=2),
        recovery_timeout_s=5.0,
        poll_interval_s=0.01,
    )
    assert st(BATCH) is BATCH
    assert not st._refusing  # hysteresis reset after recovery


def test_unrecovered_spike_fails_loudly_after_window():
    st = MemoryLimiterStage(
        limit_mib=100,
        rss_probe=lambda: 10_000.0,
        recovery_timeout_s=0.05,
        poll_interval_s=0.01,
    )
    with pytest.raises(MemoryLimitExceeded, match="did not recover"):
        st(BATCH)


def test_transient_refusal_recovers_end_to_end(ray_session):
    """The wait-for-recovery path live inside a Ray Data actor pool:
    a worker whose RSS spikes transiently stalls its task (the
    backpressure) and the pipeline completes."""

    # nested so cloudpickle serializes it BY VALUE: Ray workers cannot
    # import the pytest-loaded `test_memlimit` module, and a
    # by-reference probe makes the actor constructor retry forever
    class _WorkerSpikeProbe:
        def __init__(self, high=2):
            self.calls = 0
            self.high = high

        def __call__(self):
            self.calls += 1
            return 10_000.0 if self.calls <= self.high else 1.0

    ds = ray.data.from_arrow(pa.table({"x": list(range(100))}))
    out = ds.map_batches(
        MemoryLimiterStage,
        fn_constructor_kwargs={
            "limit_mib": 100,
            "rss_probe": _WorkerSpikeProbe(high=2),
            "recovery_timeout_s": 10.0,
            "poll_interval_s": 0.01,
        },
        batch_format="pyarrow",
        concurrency=1,
        **_stage_remote_args({}, "memory_limiter"),
    ).take_all()
    assert len(out) == 100
