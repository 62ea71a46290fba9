"""Filesystem-agnostic landing for the wire-codec sinks.

The reference's exporters push Export requests over gRPC/HTTP to
whatever endpoint the config names (exporter/otlpexporter/otlp.go); a
batch engine lands the same payloads as files. On a multi-node cluster
those files must NOT go to each worker's local disk — the writers here
resolve the out-dir through ``pyarrow.fs`` so ``s3://``-style URIs (or
an explicit FileSystem handle, e.g. a ``SubTreeFileSystem`` in tests)
work from any worker, and each worker creates the directory itself
(a driver-side ``os.makedirs`` does not exist on other nodes).

Three disciplines, all motivated by real failure modes:

* **Atomic publish** — every engine write (wire files, parquet sinks,
  checkpointed partitions, spool segments) is staged under a ``.tmp-``
  name and made visible by ``publish``, the package's one tmp→final
  commit (fsync'd on a local filesystem); ``recover`` repairs a crashed
  one. A reader listing the directory never sees a torn file: the tmp
  prefix keeps it out of every extension glob, and the rename is the
  commit point. On object stores ``move`` is copy+delete rather than a
  true rename, but the tmp name is still invisible to readers until
  the copy completes.

* **Content-addressed names** — file names are
  ``{prefix}-{md5(payload)}{ext}``. A Ray task retry or lineage
  re-execution of the same batch produces the same bytes and therefore
  the same name: the rename overwrites instead of minting a duplicate
  request file that would silently duplicate rows on read-back
  (uuid-named files had exactly that hazard). md5 here is a stable
  128-bit content key, not a security boundary; Python ``hash()`` is
  per-process randomized and unusable for this (see CLAUDE.md).

  Contract note: content identity is the ONLY identity — two
  *different* writer batches that are byte-identical (a corpus whose
  full multi-thousand-row framed request payloads repeat exactly,
  e.g. synthetic heartbeat data) collapse onto one file, so read-back
  rows can undercount the writer's returned request total. This is
  deliberate: any batch-distinguishing salt would break lineage
  idempotency — Ray re-executes a LOST block under a new task id, and
  a salted name would duplicate every re-executed request. Exact
  whole-payload duplicates are the at-least-once delivery dedup any
  OTLP backend performs; corpora made of literal repeats should set
  ``rows_per_request`` so requests span distinct data.

* **Multi-request framing** — one file per Export request is ~10^8
  files at 10^12 rows, a small-files disaster for any object store.
  Binary-protobuf sinks frame ``requests_per_file`` requests into one
  payload (magic ``OTFR`` + u32-BE length prefixes — 0x4F is an
  invalid protobuf wire-type byte, so the magic can never collide with
  a bare serialized request); NDJSON sinks already frame naturally as
  one request per line. Readers sniff the magic AFTER wire
  decompression, so unframed single-request files (e.g. spool
  landings) keep working unchanged.
"""

from __future__ import annotations

import hashlib
import os
import posixpath
import re
import struct
import uuid

import pyarrow.fs as pafs

# Default requests per landed file: 32 × 8192-row requests ≈ 262k rows
# / tens of MB per file — object-store-friendly sizing that cuts the
# 10^12-row file count from ~10^8 to ~4M.
REQUESTS_PER_FILE = 32

FRAME_MAGIC = b"OTFR"

# Schemes whose filesystems accept credential/storage options as
# constructor kwargs (config/configauth parity: per-source/per-sink
# credentials ride the YAML `storage_options` map straight into the
# constructor). Values are pyarrow.fs class names or, via
# ``register_scheme``, arbitrary factories.
_SCHEME_FS: dict = {
    "s3": "S3FileSystem",
    "gs": "GcsFileSystem",
    "gcs": "GcsFileSystem",
    "hdfs": "HadoopFileSystem",
}


def register_scheme(scheme: str, factory) -> None:
    """Register a filesystem factory for a URI scheme:
    ``factory(**storage_options) -> pyarrow.fs.FileSystem``. The hook
    for custom/fsspec-backed stores — and for tests, which register a
    recording fake to prove config credentials reach the
    constructor."""
    _SCHEME_FS[scheme] = factory


def resolve_fs(
    uri: str,
    filesystem: pafs.FileSystem | None = None,
    storage_options: dict | None = None,
) -> tuple[pafs.FileSystem, str]:
    """URI (or plain local path) → (FileSystem, path-within-fs).

    An explicit ``filesystem`` wins and ``uri`` is taken as a path
    inside it. Otherwise ``scheme://`` URIs resolve via the scheme
    registry or pyarrow (``storage_options`` become
    filesystem-constructor kwargs — the credential plumbing the
    reference does through config/configauth), and scheme-less strings
    are local paths.
    """
    if filesystem is not None:
        return filesystem, uri
    if "://" in uri:
        scheme, rest = uri.split("://", 1)
        entry = _SCHEME_FS.get(scheme)
        if callable(entry):
            return entry(**(storage_options or {})), rest
        if storage_options:
            if entry is None:
                # credentials that silently fall through to from_uri
                # would connect under the AMBIENT identity — loud
                # failure beats auth-at-a-distance (review finding, r4)
                raise ValueError(
                    f"storage_options given but scheme {scheme!r} has no "
                    "registered filesystem factory; use "
                    "wirefs.register_scheme or pass filesystem= explicitly"
                )
            return getattr(pafs, entry)(**storage_options), rest
        fs, path = pafs.FileSystem.from_uri(uri)
        return fs, path
    if storage_options:
        raise ValueError(
            "storage_options require a scheme:// URI or an explicit "
            f"filesystem; got local path {uri!r}"
        )
    return pafs.LocalFileSystem(), os.path.abspath(uri)


def strip_scheme(path: str) -> str:
    """``scheme://rest`` → ``rest``; scheme-less paths pass through.
    For path LISTS that share one resolved filesystem (every entry
    must live on that same filesystem — mixed schemes are the
    caller's error)."""
    return path.split("://", 1)[1] if "://" in path else path


def prepare_dir(fs: pafs.FileSystem, path: str, overwrite: bool = True) -> None:
    """Driver-side sink-dir preparation: create if missing; if it
    exists non-empty, REPLACE its contents (``overwrite=True``, the
    default — matching parquet-sink replace semantics) or refuse
    (``overwrite=False``). Never silently append: Ray task files from
    a previous run mixed with this run's would double rows on
    read-back (the stage+swap invariant, CLAUDE.md)."""
    info = fs.get_file_info(path)
    if info.type == pafs.FileType.NotFound:
        fs.create_dir(path, recursive=True)
        return
    entries = fs.get_file_info(pafs.FileSelector(path, recursive=False))
    if entries:
        if not overwrite:
            raise FileExistsError(
                f"wire sink dir {path!r} is non-empty; pass overwrite=True "
                "to replace its contents (appending is never allowed)"
            )
        fs.delete_dir_contents(path)


def ensure_dir(fs: pafs.FileSystem, path: str) -> None:
    """Worker-side idempotent mkdir -p (the driver's prepare_dir ran on
    a different node)."""
    fs.create_dir(path, recursive=True)


def content_name(prefix: str, payload: bytes, ext: str) -> str:
    return f"{prefix}-{hashlib.md5(payload).hexdigest()}{ext}"


def atomic_write(
    fs: pafs.FileSystem, dir_path: str, filename: str, payload: bytes
) -> str:
    """Land ``payload`` as ``dir_path/filename`` through a ``.tmp-``
    file and ``publish``. Returns the final path. The bytes land as
    given: the stream's compression is off, since pyarrow would
    otherwise detect it from a ``.gz``/``.zst`` name and compress an
    already-compressed payload a second time."""
    final = posixpath.join(dir_path, filename)
    tmp = posixpath.join(dir_path, ".tmp-" + filename)
    with fs.open_output_stream(tmp, compression=None) as f:
        f.write(payload)
    publish(tmp, final, fs)
    return final


def _fs_and_move(fs: pafs.FileSystem | None):
    """(filesystem, move, is-local): local moves are ``os.rename``."""
    if fs is None or isinstance(fs, pafs.LocalFileSystem):
        return pafs.LocalFileSystem(), os.rename, True
    return fs, fs.move, False


def _fsync(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish(tmp: str, final: str, fs: pafs.FileSystem | None = None) -> None:
    """Make the staged file or directory ``tmp`` visible as ``final``,
    replacing whatever ``final`` held. A file renames over ``final``; a
    live directory first moves aside to ``.old-{base}-{pid}-{hex8}``
    and is deleted after the publish (``recover`` resolves a crash in
    between). On a local filesystem (``fs`` None or
    ``LocalFileSystem``) every file and directory under ``tmp`` is
    fsynced before the rename and the parent after it, so the publish
    is durable on return. Other filesystems take the same moves through
    ``fs.move`` without fsync; on an object store that is copy+delete,
    so a crash mid-copy can tear ``final`` until the next rewrite."""
    fs, move, local = _fs_and_move(fs)
    if local:
        for root, _dirs, files in os.walk(tmp, topdown=False):
            for name in files:
                _fsync(os.path.join(root, name))
            _fsync(root)
        if not os.path.isdir(tmp):
            _fsync(tmp)
    old = None
    if fs.get_file_info(final).type == pafs.FileType.Directory:
        parent, base = posixpath.split(final.rstrip("/"))
        old = posixpath.join(
            parent, f".old-{base}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        move(final, old)
    move(tmp, final)
    if local:
        _fsync(posixpath.dirname(os.path.abspath(final)))
    if old is not None:
        fs.delete_dir(old)


def recover(final: str, fs: pafs.FileSystem | None = None) -> None:
    """Repair a crashed ``publish`` of ``final``: put a stranded
    ``.old-`` copy back when ``final`` is missing, then delete the other
    ``.old-``/``.tmp-`` debris of ``final``, whichever process left it
    (one writer per ``final`` is the caller's invariant). Only
    ``.{old,tmp}-{base}-{digits}[-{hex}]`` matches, in full, so a
    sibling's debris (``logs-archive`` beside ``logs``) is never
    touched."""
    fs, move, local = _fs_and_move(fs)
    if local:
        final = os.path.abspath(final)
    parent, base = posixpath.split(final.rstrip("/"))
    debris = re.compile(rf"\.(old|tmp)-{re.escape(base)}-\d+(-[0-9a-f]+)?")
    entries = fs.get_file_info(
        pafs.FileSelector(parent or ".", recursive=False, allow_not_found=True)
    )
    found = sorted(
        (e.path, e.type) for e in entries if debris.fullmatch(e.base_name)
    )
    olds = [e for e in found if posixpath.basename(e[0]).startswith(".old-")]
    if olds and fs.get_file_info(final).type == pafs.FileType.NotFound:
        move(olds[0][0], final)
        found.remove(olds[0])
    for path, kind in found:
        if kind == pafs.FileType.Directory:
            fs.delete_dir(path)
        else:
            fs.delete_file(path)


def frame_requests(blobs: list[bytes]) -> bytes:
    """k request payloads → one framed file payload."""
    parts = [FRAME_MAGIC]
    for b in blobs:
        parts.append(struct.pack(">I", len(b)))
        parts.append(b)
    return b"".join(parts)


def unframe_requests(payload: bytes) -> list[bytes]:
    """Framed payload → request payloads; a payload without the magic
    is ONE bare request (backward compatibility with spool landings and
    pre-framing files)."""
    if not payload.startswith(FRAME_MAGIC):
        return [payload]
    out = []
    i = len(FRAME_MAGIC)
    n_total = len(payload)
    while i < n_total:
        if i + 4 > n_total:
            raise ValueError("torn frame header in wire file")
        (n,) = struct.unpack_from(">I", payload, i)
        i += 4
        if i + n > n_total:
            raise ValueError("torn frame body in wire file")
        out.append(payload[i : i + n])
        i += n
    return out
