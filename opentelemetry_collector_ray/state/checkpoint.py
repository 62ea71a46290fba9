"""Checkpoint / resume — the persistent-queue analogue.

Reference: the file-storage exporter queue persists read/write/dispatch
indices atomically and re-enqueues unfinished items on startup, giving
at-least-once delivery with no loss on crash
(exporter/exporterhelper/internal/persistent_storage.go:29-50 design
comment, :124-153 init, :213-238 put, :241-277 dispatch+ack, :282-348
crash recovery).

Batch restatement (SURVEY.md §4 row "Checkpoint / resume"): the unit of
work is an **input partition** (a deterministic group of input files —
hash-stable, parallelism-independent). For each partition:

1. run the pipeline on just that partition's files,
2. write its sink output to a temp dir, then publish it as
   ``part-{pid}`` with ``sources.wirefs.publish`` (files and directories
   fsynced, rename, ``out_dir`` fsynced),
3. append a ledger record ``(partition_id, inputs, rows, status)`` to
   ``ledger.jsonl`` and fsync the ledger.

A ledgered partition is therefore complete even after a power loss.
A ledger line torn mid-append (a crash, a full disk) does not parse
and counts as not completed: that partition is reprocessed.

Resume = replay the same plan: ledger-complete partitions are skipped
(their outputs are already final); a partition directory present but
NOT in the ledger is a torn write (crash between rename and ledger
append) — it is deleted and reprocessed. Deterministic partition
assignment + deterministic pipeline content ⇒ a resumed run's final
output equals an uninterrupted run's — effectively exactly-once per
partition (vs the reference's at-least-once with possible duplicates,
persistent_storage.go:44-49).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass


@dataclass
class LedgerEntry:
    partition_id: int
    inputs: list[str]
    rows: int
    status: str = "done"


class PartitionLedger:
    """Append-only JSONL ledger of completed partitions (the ri/wi/di
    index file analogue, minus in-place mutation: append + replay)."""

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, "ledger.jsonl")

    def completed(self) -> dict[int, LedgerEntry]:
        done: dict[int, LedgerEntry] = {}
        if not os.path.exists(self.path):
            return done
        with open(self.path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a torn append: that partition reruns
                if rec.get("status") == "done":
                    done[rec["partition_id"]] = LedgerEntry(**rec)
        return done

    def record(self, entry: LedgerEntry) -> None:
        line = json.dumps(entry.__dict__).encode() + b"\n"
        with open(self.path, "ab+") as f:
            # never glue this entry onto a torn last line
            if f.seek(0, os.SEEK_END):
                f.seek(-1, os.SEEK_END)
                if f.read(1) != b"\n":
                    line = b"\n" + line
            f.write(line)
            f.flush()
            os.fsync(f.fileno())


def _input_key(path: str) -> str:
    """Ledger identity of an input file: full (absolute) path + size +
    mtime_ns. Path, not basename — two shards with the same name in
    different directories must not collide into one identity. mtime so
    an in-place rewrite that happens to keep the same byte size still
    drifts (content hash would be exact but costs a full read)."""
    try:
        st = os.stat(path)
        size, mtime = st.st_size, st.st_mtime_ns
    except OSError:
        size, mtime = -1, -1
    return f"{os.path.abspath(path)}:{size}:{mtime}"


def plan_partitions(input_files: list[str], num_partitions: int) -> list[list[str]]:
    """Deterministic file→partition assignment by path hash.

    Hash-stable, NOT positional: adding new input files to the corpus
    leaves every existing file in its old partition (a round-robin over
    the sorted list would shift assignments and silently invalidate the
    ledger). This is what makes incremental ingestion work: new shards
    land, only the partitions whose input set changed reprocess. The
    hash input is the absolute path (same reason as ``_input_key``:
    same-named shards in different directories are different inputs);
    relocating the corpus therefore reprocesses — the safe direction.
    """
    import zlib

    files = sorted(input_files)
    parts: list[list[str]] = [[] for _ in range(num_partitions)]
    for f in files:
        pid = zlib.crc32(os.path.abspath(f).encode()) % num_partitions
        parts[pid].append(f)
    return parts


def _is_io_failure(e: BaseException) -> bool:
    """Retryable-error classification for distributed sink writes. I/O
    failures inside Ray tasks surface as RayTaskError wrapping the
    OSError — unwrap the cause, or the predicate never fires for
    exactly the distributed write failures the retry sender exists
    for."""
    cause = getattr(e, "cause", None)
    return isinstance(e, OSError) or isinstance(cause, OSError)


def run_partitioned(
    input_files: list[str],
    out_dir: str,
    pipeline_fn,
    *,
    num_partitions: int = 8,
    fail_after: int | None = None,
    run_id: str = "default",
) -> dict:
    """Process partition-wise with atomic writes + ledger; resumable.

    ``pipeline_fn(paths) -> ray.data.Dataset`` builds the (lazy)
    pipeline for one partition's input files; its output is written to
    ``{out_dir}/part-{pid}/``. ``fail_after=k`` injects a crash after k
    newly-processed partitions (for resume tests).

    Each partition run uses the whole cluster (the partitioning is for
    failure isolation, not parallelism — parallelism comes from Ray Data
    inside the partition).

    Each partition is one ``sinks.writers.atomic_write_parquet``, the
    write every engine sink makes: ``WRITE_OPTIONS``, a ``.tmp-`` dir,
    the row count from the footers of the files it landed, then
    ``wirefs.publish``. Partition row counts live in the ledger;
    ``run_id`` names the run for the caller, no state is keyed on it.
    """
    from ..sinks.retry import retry_call
    from ..sinks.writers import atomic_write_parquet

    os.makedirs(out_dir, exist_ok=True)
    ledger = PartitionLedger(out_dir)
    done = ledger.completed()
    plan = plan_partitions(input_files, num_partitions)

    # input-drift detection: a ledger-complete partition whose recorded
    # input set no longer matches the plan is stale — reprocess it.
    # Inputs are recorded as path:bytes:mtime (``_input_key``) so a shard
    # REWRITTEN under the same name (re-delivery, append) also drifts, not only
    # added/removed files. This is the incremental-ingestion path:
    # only changed partitions redo work.
    for pid, files in enumerate(plan):
        if pid in done and sorted(done[pid].inputs) != sorted(
            _input_key(f) for f in files
        ):
            del done[pid]

    # clean torn writes + stale partitions: output dir present but not
    # (or no longer) ledger-valid
    for pid in range(num_partitions):
        pdir = os.path.join(out_dir, f"part-{pid}")
        if pid not in done and os.path.exists(pdir):
            shutil.rmtree(pdir)
    # clean stale temp dirs from crashed runs
    for name in os.listdir(out_dir):
        if name.startswith(".tmp-part-"):
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)

    processed = 0
    skipped = 0
    for pid, files in enumerate(plan):
        if pid in done:
            skipped += 1
            continue
        if not files:
            ledger.record(LedgerEntry(pid, [], 0))
            continue
        if fail_after is not None and processed >= fail_after:
            raise RuntimeError(f"injected crash before partition {pid}")
        final = os.path.join(out_dir, f"part-{pid}")
        # keys of the content about to be processed: an input rewritten
        # while the partition runs (a growing open spool segment) then
        # drifts on the next run instead of being ledgered as done
        keys = [_input_key(f) for f in files]
        # the retry-sender analogue around the sink write: transient
        # write failures back off with the reference's schedule
        # (sinks/retry.py), and each attempt is one atomic sink write
        # (a fresh ``.tmp-part-*`` dir, then the publish). I/O failures
        # only: a user-code error in the pipeline must surface
        # immediately, not after 5 minutes of backoff.
        rows = retry_call(
            lambda: atomic_write_parquet(pipeline_fn(files), final),
            is_retryable=_is_io_failure,
        )
        ledger.record(LedgerEntry(pid, keys, int(rows)))
        processed += 1

    total_rows = sum(e.rows for e in ledger.completed().values())
    return {
        "partitions": num_partitions,
        "processed": processed,
        "skipped": skipped,
        "total_rows": total_rows,
        "out_dir": out_dir,
    }
