"""Explicit memory-limiter stage (memorylimiterprocessor parity).

The reference's memory limiter (processor/memorylimiterprocessor/
memorylimiter.go:281-352) checks process memory against a hard limit
(``limit_mib``) and a soft limit (``limit_mib - spike_limit_mib``):
crossing the hard limit forces a GC and, if usage stays above it,
trips refusal ON; refusal stays on (hysteresis) until usage drops
below the soft limit. Refused data is a NON-permanent error, so
upstream receivers retry — i.e. backpressure.

Ray restatement: streaming backpressure already prevents the executor
from overcommitting (SCALE.md), so this stage exists for the cases the
scheduler cannot see — per-worker heap growth from payload decode /
model state — and as the user-settable budget surface the reference
exposes. The stage runs inside each map task and guards THAT worker
process's RSS (read from ``/proc/self/statm``, zero dependencies),
which is exactly the per-worker semantics a multi-node deployment
needs: one hot worker PAUSES (bounded wait-for-recovery,
``recovery_timeout_s``) while the rest keep flowing — the stalled task
backpressures its share of the stream, the batch-mode analogue of the
reference's retryable refusal. Only a worker whose RSS never recovers
raises ``MemoryLimitExceeded`` and fails the job loudly. The wait
happens IN the stage because an unhandled refusal exception would abort
the pipeline, which is refusal-as-crash, not backpressure. The
refusal flag only outlives a call that raised, and that raise fails
the job, so running the stage as a plain task loses no state.

The second half of the budget surface is scheduler-side: any stage may
set ``memory_mib`` in its config, which becomes the Ray ``memory``
resource on its stage group's ``map_batches`` (the scheduler then
reserves that heap per task and won't co-locate more tasks than the
node can hold) —
see ``pipelines/builder._stage_remote_args``.
"""

from __future__ import annotations

import gc
import os

import pyarrow as pa


class MemoryLimitExceeded(Exception):
    """Refusal that outlived its recovery window: deliberately NOT a
    sinks.retry.PermanentError — the sink retry chain treats it as
    retryable, matching the reference's non-permanent refusal error."""


_PAGE = os.sysconf("SC_PAGE_SIZE")


def process_rss_mib() -> float:
    """Current resident set size of THIS process in MiB."""
    with open("/proc/self/statm", "rb") as f:
        resident_pages = int(f.read().split()[1])
    return resident_pages * _PAGE / (1024 * 1024)


class MemoryLimiterStage:
    """Pass-through batch stage that refuses when its worker process
    exceeds the memory budget.

    ``limit_mib``: hard limit (reference ``limit_mib``).
    ``spike_limit_mib``: headroom below the hard limit that defines the
    soft limit; defaults to 20% of ``limit_mib`` as in the reference
    (memorylimiter.go factory default).
    ``recovery_timeout_s``: how long a refusing worker waits (polling
    every ``poll_interval_s``) for its RSS to drop below the soft limit
    before giving up — the stalled task IS the backpressure; 0 means
    fail immediately (the pre-wait semantics, used by the unit tests).
    ``rss_probe``: injectable RSS reader (MiB) for deterministic tests.
    """

    def __init__(
        self,
        limit_mib: float,
        spike_limit_mib: float | None = None,
        rss_probe=None,
        recovery_timeout_s: float = 30.0,
        poll_interval_s: float = 0.5,
    ):
        if limit_mib <= 0:
            raise ValueError("limit_mib must be positive")
        if spike_limit_mib is None:
            spike_limit_mib = limit_mib * 0.2
        if not 0 <= spike_limit_mib < limit_mib:
            raise ValueError("spike_limit_mib must be in [0, limit_mib)")
        self.hard = float(limit_mib)
        self.soft = float(limit_mib) - float(spike_limit_mib)
        self._probe = rss_probe or process_rss_mib
        self._refusing = False
        self._timeout = float(recovery_timeout_s)
        self._poll = float(poll_interval_s)

    def _await_recovery(self, rss: float) -> bool:
        """Poll until RSS drops below the soft limit (hysteresis) or
        the recovery window closes. True = recovered."""
        import time

        deadline = time.monotonic() + self._timeout
        while rss >= self.soft:
            if time.monotonic() >= deadline:
                return False
            time.sleep(self._poll)
            rss = self._probe()
        return True

    def __call__(self, batch: pa.Table) -> pa.Table:
        rss = self._probe()
        if self._refusing:
            if rss < self.soft or self._await_recovery(rss):
                self._refusing = False  # hysteresis reset
            else:
                raise MemoryLimitExceeded(
                    f"memory usage {rss:.0f} MiB still above soft limit "
                    f"{self.soft:.0f} MiB after {self._timeout:.0f}s "
                    "(refused until it recovers; it did not)"
                )
        elif rss > self.hard:
            gc.collect()  # forced GC before refusing, as the reference
            rss = self._probe()
            if rss > self.hard:
                self._refusing = True
                if self._await_recovery(rss):
                    self._refusing = False
                else:
                    raise MemoryLimitExceeded(
                        f"memory usage {rss:.0f} MiB above hard limit "
                        f"{self.hard:.0f} MiB and did not recover within "
                        f"{self._timeout:.0f}s"
                    )
        return batch
