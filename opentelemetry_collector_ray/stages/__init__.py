"""Stages — processor analogues (SURVEY.md §2.3-2.4).

Every stage is a batch transform ``pyarrow.Table -> pyarrow.Table``
(a function or a constructed callable instance), plugged into
``Dataset.map_batches`` — the processorhelper extension point
(processor/processorhelper/logs.go:31-82) re-expressed Arrow-first.
"""

from .parse import parse_batch
from .enrich import enrich_batch
from .route import route_batch, explode_sinks_batch

__all__ = [
    "parse_batch",
    "enrich_batch",
    "route_batch",
    "explode_sinks_batch",
]
