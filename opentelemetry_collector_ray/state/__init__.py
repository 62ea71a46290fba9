"""State — metrics counters and checkpoint ledger (SURVEY.md §2.2/§4)."""

from .checkpoint import PartitionLedger, plan_partitions, run_partitioned
from .metrics import MetricsActor

__all__ = [
    "MetricsActor",
    "PartitionLedger",
    "plan_partitions",
    "run_partitioned",
]
