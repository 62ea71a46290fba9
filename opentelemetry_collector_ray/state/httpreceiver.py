"""OTLP/HTTP listener — the live push entry point in front of the
spool bridge.

Reference: the OTLP receiver's HTTP handler registers POST
``/v1/{logs,traces,metrics}``, switches decoding on Content-Type
(protobuf vs JSON), and acks an Export only after the consumer chain
accepts it (receiver/otlpreceiver/otlp.go:246-269 + otlphttp.go).
This module is that thin front for the batch engine: a stdlib
``ThreadingHTTPServer`` that decodes real wire bytes (binary
ExportXServiceRequest protobuf or OTLP/JSON; gzip/zstd
Content-Encoding sniffed off payload magic, never the path), flattens
to the engine's flat Arrow schema with the SAME codecs the file
readers use, and pushes to a :class:`state.receiver.SpoolReceiverActor`
with ``durable=True`` — the 200 ack means the rows are fsynced in the
receiver's atomically republished open spool segment (one file per
``SEGMENT_ROWS`` rows, not one per request), exactly the reference's
queue+storage acceptance contract. From the spool onward the checkpoint ledger makes
processing exactly-once (``state.checkpoint.run_partitioned``).

The hop to the actor: each request's flat rows cross as one Arrow IPC
stream (``state.receiver.ipc_bytes``; encoding and decoding a 256-row
request takes about 0.05 ms on one vCPU), never as a ``pa.Table``:
Ray rebuilds a Table argument through ``ray.air``'s tensor extensions,
which would load Ray Data and pandas into the receiver's process.

Decoding is one ``_flatten_request`` for every signal and both wires,
over the URL signal's ``otlp_pb.SIGNALS`` entry: protobuf bodies go
decode → ``typed_trees`` → flatten, JSON bodies go
``otlp_json.decode_json`` (parsed against the signal's ``tree_type``,
the NDJSON file reader's decode) → flatten.

Backpressure (otlphttp's 429 path, confighttp + exporterhelper
Retry-After convention): two independent gates, both answering
``429 Too Many Requests`` with a ``Retry-After`` hint —
- ``max_inflight``: bound on concurrently-decoding requests (the
  bounded-queue analogue; a non-blocking semaphore, so a burst beyond
  the bound is REFUSED, not buffered — memory_limiter semantics).
- ``max_spool_backlog``: bound on landed-but-unprocessed spool
  segments (``*.parquet`` files, the open one included) — backpressure
  from the downstream processor, so a stalled pipeline stops accepting
  instead of filling the disk.

Error mapping mirrors otlp.go: 404 unknown path, 405 non-POST, 415
unknown Content-Type, 400 undecodable payload, 200 + empty
ExportXServiceResponse (pb) / ``{}`` (JSON) on success.

Scale shape: one listener (with its own spool receiver id) per ingest
endpoint; spool segment names are receiver-id-prefixed so any number of
listeners share one spool directory without collisions. The listener
holds the actor handle for its lifetime (a named non-detached actor
dies when the last handle drops — CLAUDE.md).
"""

from __future__ import annotations

import http.server
import json
import os
import socket
import sys
import threading
import time

import pyarrow as pa

import ray

# module-level imports only: worker/thread code must not do
# function-body imports of this package (pickle-by-value contract)
from ..sources.otlp_json import decode_json, decompress_payload, flatten_otlp_batch
from ..sources.otlp_metrics import flatten_otlp_metrics_batch
from ..sources.otlp_pb import (
    SIGNALS,
    _classes,
    decode_logs_request,
    decode_metrics_request,
    decode_traces_request,
    typed_trees,
)
from ..sources.otlp_traces import flatten_otlp_traces_batch
from .receiver import ipc_bytes

_PB_TYPES = ("application/x-protobuf", "application/protobuf")
_JSON_TYPES = ("application/json",)

# signal → the (decode, flatten) pair _flatten_request calls, as the
# NAMES of this module's globals, resolved on every request: perfbench's
# traced run times the listener by rebinding decode_logs_request and
# flatten_otlp_batch here
_CODEC_NAMES = {
    "logs": ("decode_logs_request", "flatten_otlp_batch"),
    "traces": ("decode_traces_request", "flatten_otlp_traces_batch"),
    "metrics": ("decode_metrics_request", "flatten_otlp_metrics_batch"),
}


def _flatten_request(
    body: bytes, signal: str, is_pb: bool, classes: dict
) -> pa.Table:
    """One Export request's wire bytes → flat rows, through the same
    kernels as the file readers: binary protobuf goes decode → typed
    tree (``typed_trees``), OTLP/JSON goes ``decode_json`` against the
    signal's ``tree_type``, and both end in the signal's flatten (a
    request without records flattens to no rows). ``classes`` is the
    caller's ``_classes()``: building it costs about a millisecond, too
    much to repeat per request."""
    sig = SIGNALS[signal]
    decode, flatten = (globals()[name] for name in _CODEC_NAMES[signal])
    if is_pb:
        tree = decode(body, classes[sig.request]).get(sig.root, [])
        return flatten(typed_trees(sig, [tree]))
    return flatten(decode_json(body, pa.schema([(sig.root, sig.tree_type)])))


def _linger(h, limit: int = 1 << 20, timeout: float = 1.0) -> None:
    """Lingering close after a refusal: half-close, then discard the
    request bytes still arriving (at most ``limit`` bytes, ``timeout``
    seconds) before the socket closes. A refusal answers before it
    reads the body, and closing a socket with unread bytes resets the
    connection: a client still sending its body (a chunked POST
    refused 411) then gets a broken pipe instead of the refusal."""
    deadline = time.monotonic() + timeout
    try:
        h.wfile.flush()
        h.connection.shutdown(socket.SHUT_WR)
        while limit > 0:
            left = deadline - time.monotonic()
            if left <= 0:
                break
            h.connection.settimeout(left)
            chunk = h.connection.recv(min(limit, 1 << 16))
            if not chunk:
                break
            limit -= len(chunk)
    except OSError:
        pass  # the client went away: nothing left to deliver


def _content_length(value: str) -> int | None:
    """The body size a ``Content-Length`` value names: a decimal integer
    in [0, ``sys.maxsize``], else None."""
    value = value.strip()
    if not (value.isascii() and value.isdigit()):
        return None
    digits = value.lstrip("0") or "0"
    # int() refuses a string of over 4300 digits; any longer than
    # sys.maxsize is out of range anyway
    if len(digits) > len(str(sys.maxsize)) or int(digits) > sys.maxsize:
        return None
    return int(digits)


class OtlpHttpListener:
    """POST /v1/{logs,traces,metrics} → durable spool landing → ack.

    ``receivers`` maps signal name → SpoolReceiverActor handle; signals
    without a receiver answer 404 (an endpoint that isn't configured
    doesn't exist, matching per-signal receiver registration in the
    reference). ``start()`` binds 127.0.0.1:``port`` (0 = ephemeral)
    and serves on a daemon thread; ``stop()`` shuts the socket down.
    """

    def __init__(
        self,
        receivers: dict,
        *,
        port: int = 0,
        max_inflight: int = 8,
        max_spool_backlog: int | None = None,
        spool_dir: str | None = None,
        retry_after_s: int = 1,
    ):
        unknown = set(receivers) - set(SIGNALS)
        if unknown:
            raise ValueError(f"unknown signals: {sorted(unknown)}")
        if max_spool_backlog is not None and spool_dir is None:
            raise ValueError("max_spool_backlog needs spool_dir to inspect")
        self.receivers = dict(receivers)
        self._sem = threading.BoundedSemaphore(max_inflight)
        self._backlog = max_spool_backlog
        self._spool_dir = spool_dir
        self._retry_after = str(int(retry_after_s))
        self._classes = _classes()  # compiled once, shared by handlers
        self._srv: http.server.ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._port_req = port
        self.accepted = 0  # obsreport receiver-accepted mirror
        self.refused = 0
        # ThreadingHTTPServer = one thread per connection: bare += on
        # the counters is a read-modify-write race that loses updates
        # under concurrent POSTs
        self._count_lock = threading.Lock()

    # ------------------------------------------------------ lifecycle
    def start(self) -> int:
        listener = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *a):  # quiet: tests drive hundreds
                pass

            def do_POST(self):
                listener._handle(self)

            def do_GET(self):
                self.send_response(405)
                self.send_header("Allow", "POST")
                self.send_header("Content-Length", "0")
                self.end_headers()

        self._srv = http.server.ThreadingHTTPServer(
            ("127.0.0.1", self._port_req), Handler
        )
        self._thread = threading.Thread(
            target=self._srv.serve_forever, daemon=True
        )
        self._thread.start()
        return self._srv.server_port

    def stop(self):
        if self._srv is not None:
            self._srv.shutdown()
            self._srv.server_close()
            self._srv = None

    @property
    def port(self) -> int:
        assert self._srv is not None, "listener not started"
        return self._srv.server_port

    # ------------------------------------------------------- handling
    def _spool_saturated(self) -> bool:
        if self._backlog is None:
            return False
        try:
            names = os.listdir(self._spool_dir)
        except FileNotFoundError:
            # the receiver actor creates spool_dir when it starts; a
            # directory removed since then means zero backlog, not 500
            return False
        n = sum(1 for name in names if name.endswith(".parquet"))
        return n >= self._backlog

    def _respond(self, h, code: int, body: bytes, ctype: str, extra=()):
        h.send_response(code)
        h.send_header("Content-Type", ctype)
        h.send_header("Content-Length", str(len(body)))
        for k, v in extra:
            h.send_header(k, v)
        h.end_headers()
        h.wfile.write(body)

    def _refuse(self, h, code: int, msg: str, retry: bool = False):
        with self._count_lock:
            self.refused += 1
        body = json.dumps({"message": msg}).encode()
        extra = [("Retry-After", self._retry_after)] if retry else []
        # refusals answer BEFORE reading the request body; leftover
        # body bytes would be parsed as the next request line on a
        # kept-alive connection (bogus 400, lost retry) — close instead
        # (send_header('Connection','close') also flips the handler's
        # close_connection flag, so the socket is really torn down)
        extra.append(("Connection", "close"))
        self._respond(h, code, body, "application/json", extra)
        _linger(h)

    def _handle(self, h):
        path = h.path.rstrip("/")
        if not path.startswith("/v1/"):
            return self._refuse(h, 404, f"unknown path {path!r}")
        signal = path[len("/v1/") :]
        actor = self.receivers.get(signal)
        if signal not in SIGNALS or actor is None:
            return self._refuse(h, 404, f"unknown path {path!r}")
        ctype = (h.headers.get("Content-Type") or "").split(";")[0].strip()
        is_pb = ctype in _PB_TYPES
        if not is_pb and ctype not in _JSON_TYPES:
            return self._refuse(h, 415, f"unsupported content type {ctype!r}")
        length = h.headers.get("Content-Length")
        if length is None or h.headers.get("Transfer-Encoding"):
            # the body is read by Content-Length only: a chunked or
            # unsized body would be read as empty and acked with
            # nothing landed
            return self._refuse(h, 411, "Content-Length required")
        size = _content_length(length)
        if size is None:
            # parsed before a slot is taken: ``rfile.read(-1)`` reads to
            # EOF and would hold the slot until the client hangs up
            return self._refuse(h, 400, f"bad Content-Length {length!r}")
        if not self._sem.acquire(blocking=False):
            return self._refuse(h, 429, "too many in-flight exports", True)
        try:
            if self._spool_saturated():
                return self._refuse(h, 429, "spool backlog full", True)
            body = h.rfile.read(size)
            try:
                # Content-Encoding by payload MAGIC, never the header
                # alone (read_binary_files quirk generalized: a lying
                # header must not corrupt the decode); a truncated gzip
                # /zstd stream raising here is an undecodable payload
                # (400), not a dropped connection
                body = decompress_payload(body)
                flat = _flatten_request(body, signal, is_pb, self._classes)
            except Exception as e:  # undecodable wire bytes
                return self._refuse(h, 400, f"cannot decode request: {e}")
            # durable=True: the 200 ack means a fsynced spool segment —
            # the reference's ack-after-acceptance contract (an empty
            # Export acks immediately: nothing to land)
            if len(flat):
                try:
                    ray.get(
                        actor.export_table.remote(ipc_bytes(flat), durable=True)
                    )
                except Exception as e:  # spool landing failed
                    # retryable server-side failure (disk full, actor
                    # died): the reference maps consumer errors to 5xx,
                    # never a dropped connection
                    return self._refuse(h, 503, f"spool landing failed: {e}", True)
                with self._count_lock:
                    self.accepted += len(flat)
            if is_pb:
                # empty ExportXServiceResponse serializes to b""
                self._respond(h, 200, b"", ctype)
            else:
                self._respond(h, 200, b"{}", "application/json")
        finally:
            self._sem.release()
