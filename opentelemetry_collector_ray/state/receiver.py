"""Push-ingest bridge — the OTLP receiver semantics for a batch engine.

Reference: the OTLP receiver is a live gRPC/HTTP server whose Export
handler pushes each request down the consumer chain and acks only after
acceptance (receiver/otlpreceiver/otlp.go:93-172). A batch engine has
no long-lived server, so the bridge is: a **spool-receiver actor** that
accepts pushed row batches and lands them in parquet **spool segments**;
the existing poll/checkpoint path (``state.tailer.tail_run`` →
``state.checkpoint.run_partitioned``) then processes the spool with
per-partition ledger exactly-once.

Segments (the reference's persistent queue likewise keeps items in a
few storage extents, persistent_storage.go:29-50): each receiver has one
**open segment**, ``{receiver_id}-{seq:08d}.parquet``. Accepted rows
append to its in-memory tables; publishing it rewrites the whole
segment under its fixed name — write a tmp file, then
``sources.wirefs.publish`` it over the segment (fsync the file, rename,
fsync the spool directory). Once the segment holds
``SEGMENT_ROWS`` rows (or on ``flush`` / the non-durable buffer
threshold) it is **sealed**: ``seq`` moves on and the file is never
written again. A drain thus reads a few segments, not one file per
request (above 24 files a parquet read fetches its footers in Ray
tasks — see CLAUDE.md).

Delivery contract: by default ``export`` acks after the rows are in the
actor buffer — an actor crash before the next publish loses up-to-one
buffer of acked rows, a WEAKER window than the reference's
ack-after-acceptance, so clients must re-push since their last durable
ack on receiver restart (at-least-once; a retried acked export
duplicates, same as OTLP). ``export(..., durable=True)`` and ``flush``
ack only after the segment holding the rows is durable — the
reference's contract, at a per-push rewrite + fsync cost. A crash
leaves the last published version of the open segment, which holds
every acked row; the restarted receiver continues at ``max(seq) + 1``
and never writes that segment again. From the spool onward the ledger
makes processing exactly-once: a landed segment is processed by
exactly one completed partition regardless of how many times the run
is killed and resumed (an open segment that grew since its partition
ran drifts and is reprocessed whole).

Consumer rule: a consumer may delete SEALED segments at any time (every
segment except ``stats()["open_segment"]``). Deleting the open segment
is detected — before republishing, the receiver checks that the file
still has the ``(st_ino, st_size)`` of its last publish, and if not it
seals the segment and starts a fresh one with only the new rows, so
deleted rows are never resurrected — but it is unsafe while a durable
export is in flight: a delete between that check and the rename would
bring the consumed rows back.

The hop into the actor: rows cross as Arrow IPC stream bytes
(``ipc_bytes``), which ``export_table`` reads back with
``pa.ipc.open_stream``. Ray sends a ``pa.Table`` argument through its
own Table reducer, and rebuilding that table in the actor imports
``ray.air``'s tensor extensions, which load Ray Data and pandas (about
+48 MB of resident memory and 0.5 s, for a process that only writes
parquet). IPC is also slice-safe: it writes only a slice's rows, where
a pickled slice can carry its parent's whole buffers. ``export_table``
still takes a ``pa.Table`` from an in-process caller.

The actor is num_cpus=0 (it only buffers and writes); at cluster scale
run one receiver actor per ingest endpoint and let them share a spool
directory — segment names are receiver-id-prefixed, so concurrent
receivers never collide. The caller must HOLD the actor handle for the
run's lifetime (a named, non-detached Ray actor dies when its last
handle drops — see CLAUDE.md).
"""

from __future__ import annotations

import os
import re

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..sources import wirefs

# rows at which the open segment is sealed: 64k acked rows of 256-row
# requests then sit in 16 files, under read_parquet's 24-file threshold
SEGMENT_ROWS = 4096


@ray.remote(num_cpus=0)
class SpoolReceiverActor:
    """Buffer pushed rows; publish them into atomic parquet segments."""

    def __init__(
        self,
        spool_dir: str,
        *,
        receiver_id: str = "r0",
        max_buffer_rows: int = 65536,
    ):
        os.makedirs(spool_dir, exist_ok=True)
        self.spool_dir = spool_dir
        self.receiver_id = receiver_id
        self.max_buffer_rows = max_buffer_rows
        self.seg: list[pa.Table] = []  # open segment rows already published
        self.seg_rows = 0
        self.buf: list[pa.Table] = []  # accepted rows not yet published
        self.buffered_rows = 0
        self.published: tuple[int, int] | None = None  # (st_ino, st_size)
        self.accepted = 0
        self.landed_files = 0
        # crash-safe restart: continue the sequence after existing spool
        # files, clean any torn tmp files from a previous incarnation.
        # Names are matched in full: receiver "r0" must neither delete
        # nor count receiver "r0-b"'s files in a shared spool directory
        rid = re.escape(receiver_id)
        tmp_name = re.compile(rf"\.tmp-{rid}-\d+")
        seg_name = re.compile(rf"{rid}-(\d{{8,}})\.parquet")
        seqs = []
        for name in os.listdir(spool_dir):
            if tmp_name.fullmatch(name):
                os.unlink(os.path.join(spool_dir, name))
            elif m := seg_name.fullmatch(name):
                seqs.append(int(m.group(1)))
        self.seq = max(seqs) + 1 if seqs else 0

    def export(self, rows: list[dict], durable: bool = False) -> int:
        """Push a batch of row dicts (the Export RPC shape). Acks the
        cumulative accepted count.

        Ack contract (persistent_storage.go:29-50 parity): with the
        default ``durable=False`` the ack means *buffered* — the rows
        are published once the buffer crosses ``max_buffer_rows`` or on
        ``flush()``, and an actor crash before that loses them, so
        clients wanting reference semantics must either re-push
        everything since their last durable ack on receiver restart,
        or pass ``durable=True``: the open segment, these rows
        included, is republished before the ack (ack = on disk, exactly
        the reference's queue+storage acceptance)."""
        return self.export_table(pa.Table.from_pylist(rows), durable)

    def export_table(self, payload: bytes | pa.Table, durable: bool = False) -> int:
        """Arrow-native push: ``payload`` is the rows as Arrow IPC
        stream bytes (``ipc_bytes``, what every caller through Ray
        sends) or a ``pa.Table`` (an in-process caller). Same ack
        contract as ``export``."""
        table = (
            payload
            if isinstance(payload, pa.Table)
            else pa.ipc.open_stream(payload).read_all()
        )
        if len(table):
            self.buf.append(table)
            self.buffered_rows += len(table)
            self.accepted += len(table)
        if durable:
            self._publish()
            if self.seg_rows >= SEGMENT_ROWS:
                self._seal()
        elif self.buffered_rows >= self.max_buffer_rows:
            self.flush()
        return self.accepted

    def flush(self) -> str | None:
        """Publish and seal the open segment; returns its path (None
        when nothing was waiting to be published). Ack = the segment is
        durable."""
        path = self._publish()
        self._seal()
        return path

    def stats(self) -> dict:
        return {
            "accepted": self.accepted,
            "buffered_rows": self.buffered_rows,
            "landed_files": self.landed_files,
            "next_seq": self.seq,
            "open_segment": self._path(),
        }

    def _path(self) -> str:
        return os.path.join(self.spool_dir, f"{self.receiver_id}-{self.seq:08d}.parquet")

    def _seal(self) -> None:
        if self.seg_rows:
            self.seq += 1
        self.seg, self.seg_rows, self.published = [], 0, None

    def _publish(self) -> str | None:
        if not self.buffered_rows:
            return None
        if self.published is not None:
            try:
                st = os.stat(self._path())
                intact = (st.st_ino, st.st_size) == self.published
            except FileNotFoundError:
                intact = False
            if not intact:  # consumed or replaced: never resurrect it
                self._seal()
        if self.published is None:
            self.landed_files += 1
        final = self._path()
        table = pa.concat_tables(self.seg + self.buf, promote_options="default")
        tmp = os.path.join(self.spool_dir, f".tmp-{self.receiver_id}-{self.seq}")
        pq.write_table(table, tmp)
        wirefs.publish(tmp, final)
        st = os.stat(final)
        self.published = (st.st_ino, st.st_size)
        self.seg, self.seg_rows = [table], len(table)
        self.buf, self.buffered_rows = [], 0
        return final


def ipc_bytes(table: pa.Table) -> bytes:
    """``table`` as one Arrow IPC stream: the form rows take across the
    hop into a receiver actor (see the module docstring)."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue().to_pybytes()


def push_dataset(ds, actor, *, rows_per_push: int = 8192) -> int:
    """Stream a Dataset into a receiver actor batch-by-batch (the test
    client — stands in for the gRPC client): pipelined pushes, never a
    whole-dataset materialization on the driver."""
    pending = []
    total = 0
    for batch in ds.iter_batches(batch_format="pyarrow", batch_size=rows_per_push):
        total += len(batch)
        pending.append(actor.export_table.remote(ipc_bytes(batch)))
        if len(pending) > 8:  # bounded in-flight pushes (backpressure)
            ray.get(pending.pop(0))
    if pending:
        ray.get(pending)
    return total
