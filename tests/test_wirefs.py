"""wirefs: the filesystem-agnostic landing layer under every wire-codec
sink. Verifies the multi-node contract the plain-open() writers
violated (VERDICT r3 finding #1): pyarrow-filesystem routing (driven
through a SubTreeFileSystem so nothing can fall back to ambient local
paths), atomic tmp+rename publish, content-addressed retry idempotency,
multi-request framing, and replace-never-append sink-dir semantics."""

import glob
import os

import pyarrow as pa
import pyarrow.fs as pafs
import pytest
import ray.data

from opentelemetry_collector_ray.sources import wirefs
from opentelemetry_collector_ray.sources.otlp_json import (
    read_otlp_logs_json,
    write_otlp_logs_json,
)
from opentelemetry_collector_ray.sources.otlp_pb import (
    read_otlp_logs_pb,
    write_otlp_logs_pb,
)


def _transcripts(n=10):
    return pa.table(
        {
            "conv_id": [f"c{i % 3}" for i in range(n)],
            "turn_idx": pa.array([i // 3 for i in range(n)], type=pa.int32()),
            "role": ["user", "assistant", "tool"][: 1] * n,
            "text": [f"[INFO] action=a{i} latency_ms={i} msg=m{i}" for i in range(n)],
            "tool": [""] * n,
            "ts": pa.array(range(1000, 1000 + n), type=pa.timestamp("us")),
        }
    )


# ------------------------------------------------------------- framing


def test_frame_roundtrip():
    blobs = [b"", b"\x0a\x02hi", b"x" * 1000]
    framed = wirefs.frame_requests(blobs)
    assert framed.startswith(wirefs.FRAME_MAGIC)
    assert wirefs.unframe_requests(framed) == blobs


def test_unframed_payload_passes_through():
    # a bare serialized request (spool landings, pre-framing files)
    raw = b"\x0a\x05hello"
    assert wirefs.unframe_requests(raw) == [raw]


def test_torn_frame_raises():
    framed = wirefs.frame_requests([b"abcdef"])
    with pytest.raises(ValueError):
        wirefs.unframe_requests(framed[:-2])
    with pytest.raises(ValueError):
        wirefs.unframe_requests(framed[: len(wirefs.FRAME_MAGIC) + 2])


# ------------------------------------------------- atomic writes + names


def test_atomic_write_local_leaves_no_tmp(tmp_path):
    fs, path = wirefs.resolve_fs(str(tmp_path))
    final = wirefs.atomic_write(fs, path, "f.bin", b"payload")
    assert open(final, "rb").read() == b"payload"
    assert not [n for n in os.listdir(path) if n.startswith(".tmp-")]


def test_content_name_is_retry_idempotent(tmp_path):
    """The same payload re-landed (Ray task retry / lineage
    re-execution) overwrites rather than duplicating."""
    fs, path = wirefs.resolve_fs(str(tmp_path))
    p = b"same bytes"
    name = wirefs.content_name("otlp", p, ".binpb")
    wirefs.atomic_write(fs, path, name, p)
    wirefs.atomic_write(fs, path, name, p)
    assert len(os.listdir(path)) == 1


def test_atomic_write_via_subtree_fs(tmp_path):
    """Non-local branch: SubTreeFileSystem exercises the
    open_output_stream + fs.move path the object-store case uses."""
    root = str(tmp_path)
    sub = pafs.SubTreeFileSystem(root, pafs.LocalFileSystem())
    wirefs.ensure_dir(sub, "deep/dir")
    wirefs.atomic_write(sub, "deep/dir", "f.bin", b"xyz")
    assert open(os.path.join(root, "deep/dir/f.bin"), "rb").read() == b"xyz"
    assert not glob.glob(os.path.join(root, "deep/dir/.tmp-*"))


def _log_fs_calls(monkeypatch):
    """Record every os.fsync (by the path its fd names) and os.rename,
    by basename, in call order."""
    log = []
    real_fsync, real_rename = os.fsync, os.rename

    def fsync(fd):
        log.append(("fsync", os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))))
        real_fsync(fd)

    def rename(src, dst):
        log.append(("rename", os.path.basename(src), os.path.basename(dst)))
        real_rename(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "rename", rename)
    return log


def test_local_atomic_write_fsyncs_data_then_directory(tmp_path, monkeypatch):
    fs, path = wirefs.resolve_fs(str(tmp_path / "d"))
    wirefs.ensure_dir(fs, path)
    log = _log_fs_calls(monkeypatch)
    wirefs.atomic_write(fs, path, "f.bin", b"payload")
    assert log == [
        ("fsync", ".tmp-f.bin"),
        ("rename", ".tmp-f.bin", "f.bin"),
        ("fsync", "d"),
    ]


def test_directory_publish_fsync_order(tmp_path, monkeypatch):
    """Publishing a staged directory over a live one: every file and
    directory under the stage is fsynced before the first rename, the
    live directory moves aside, the stage renames into place, the
    parent is fsynced, and only then is the old copy deleted."""
    final = tmp_path / "sink"
    (final / "k=a").mkdir(parents=True)
    (final / "k=a" / "old.parquet").write_bytes(b"old")
    tmp = tmp_path / ".tmp-sink-1-ab"
    for d in ("k=a", "k=b"):
        (tmp / d).mkdir(parents=True)
        (tmp / d / "new.parquet").write_bytes(b"new")
    log = _log_fs_calls(monkeypatch)
    wirefs.publish(str(tmp), str(final))

    first = next(i for i, e in enumerate(log) if e[0] == "rename")
    assert all(e[0] == "fsync" for e in log[:first])
    # each directory after the file in it, the stage last
    order = [e[1] for e in log[:first]]
    assert order in (
        ["new.parquet", "k=a", "new.parquet", "k=b", ".tmp-sink-1-ab"],
        ["new.parquet", "k=b", "new.parquet", "k=a", ".tmp-sink-1-ab"],
    )
    old = log[first][2]
    assert old.startswith(".old-sink-")
    assert log[first:] == [
        ("rename", "sink", old),
        ("rename", ".tmp-sink-1-ab", "sink"),
        ("fsync", tmp_path.name),
    ]
    assert sorted(os.listdir(tmp_path)) == ["sink"]
    assert sorted(os.listdir(final)) == ["k=a", "k=b"]
    assert (final / "k=a" / "new.parquet").read_bytes() == b"new"


def test_recover_matches_only_its_own_debris(tmp_path):
    """Debris of any pid is cleaned; a sibling whose name extends the
    base (``sink-archive``, ``sink2``) and names that do not follow
    ``.{old,tmp}-{base}-{digits}[-{hex}]`` are left alone."""
    mine = [".old-sink-99999", ".old-sink-999-dead", ".tmp-sink-99998",
            ".tmp-sink-7-0123abcd"]
    others = [".old-sink-archive-1-abcdef01", ".tmp-sink-archive-1",
              ".tmp-sink2-5", ".tmp-sink-x", ".old-sink-1-xyz"]
    (tmp_path / "sink").mkdir()
    for name in mine + others:
        (tmp_path / name).mkdir()
    wirefs.recover(str(tmp_path / "sink"))
    assert sorted(os.listdir(tmp_path)) == sorted(others + ["sink"])


# ------------------------------------------------------ dir preparation


def test_prepare_dir_replaces_never_appends(tmp_path):
    fs, path = wirefs.resolve_fs(str(tmp_path / "sink"))
    wirefs.prepare_dir(fs, path)
    wirefs.atomic_write(fs, path, "old.bin", b"stale run")
    wirefs.prepare_dir(fs, path, overwrite=True)
    assert os.listdir(path) == []
    wirefs.atomic_write(fs, path, "new.bin", b"x")
    with pytest.raises(FileExistsError):
        wirefs.prepare_dir(fs, path, overwrite=False)


# --------------------------------------------- end-to-end through wirefs


def test_pb_write_read_through_subtree_fs(ray_session, tmp_path):
    """Drive the full pb sink through an explicit SubTreeFileSystem:
    framing (k requests per file), worker-side dirs, and the read-back
    must all route through the handle — and roundtrip exactly."""
    t = _transcripts(10)
    sub = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    n = write_otlp_logs_pb(
        ray.data.from_arrow(t),
        "wire/pb",
        rows_per_request=3,  # 10 rows -> 4 requests
        filesystem=sub,
    )
    assert n == 4
    files = glob.glob(str(tmp_path / "wire/pb/*.binpb"))
    # framed: 4 requests land in FEWER files than requests
    assert 1 <= len(files) < 4
    back = read_otlp_logs_pb("wire/pb", filesystem=sub).to_pandas()
    assert len(back) == 10
    assert sorted(back["body"]) == sorted(t["text"].to_pylist())


def test_ndjson_write_read_through_subtree_fs(ray_session, tmp_path):
    t = _transcripts(8)
    sub = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    n = write_otlp_logs_json(
        ray.data.from_arrow(t), "wire/js", rows_per_request=2, filesystem=sub
    )
    assert n == 4
    files = glob.glob(str(tmp_path / "wire/js/*.json"))
    assert 1 <= len(files) < 4  # k requests frame as k lines per file
    back = read_otlp_logs_json("wire/js", filesystem=sub).to_pandas()
    assert len(back) == 8


def test_write_replaces_stale_sink_dir(ray_session, tmp_path):
    """The append hazard: a second write into the same out_dir must
    replace the first run's files, not mix with them."""
    out = str(tmp_path / "sink")
    t = _transcripts(6)
    write_otlp_logs_pb(ray.data.from_arrow(t), out, rows_per_request=2)
    write_otlp_logs_pb(ray.data.from_arrow(t), out, rows_per_request=2)
    assert len(read_otlp_logs_pb(out).to_pandas()) == 6


def test_compressed_file_list_sniffing(ray_session, tmp_path):
    """A LIST of .gz NDJSON paths (not a directory string) must route
    through the binary+decompress path (ADVICE r3)."""
    out = str(tmp_path / "gz")
    t = _transcripts(6)
    write_otlp_logs_json(
        ray.data.from_arrow(t), out, compression="gzip", rows_per_request=2
    )
    paths = glob.glob(out + "/*.json.gz")
    assert paths
    back = read_otlp_logs_json(paths).to_pandas()
    assert len(back) == 6


def test_storage_options_never_silently_dropped():
    """Credentials that can't reach a filesystem constructor must fail
    loudly — a fall-through to from_uri or a local path would connect
    under the ambient identity (review finding, r4)."""
    with pytest.raises(ValueError, match="no .* factory|no registered"):
        wirefs.resolve_fs("unknownscheme://x/y", None, {"token": "t"})
    with pytest.raises(ValueError, match="local path"):
        wirefs.resolve_fs("/plain/local", None, {"token": "t"})
    # explicit filesystem still wins (options pre-baked by the caller)
    fs, p = wirefs.resolve_fs("/plain/local", pafs.LocalFileSystem())
    assert isinstance(fs, pafs.LocalFileSystem) and p == "/plain/local"


def test_compressed_sniff_through_subtree_fs(ray_session, tmp_path):
    """Wire-compressed NDJSON behind an explicit filesystem handle must
    route through the decompress path — os.listdir against the local
    cwd mis-detected it (review finding, r4)."""
    sub = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    t = _transcripts(6)
    n = write_otlp_logs_json(
        ray.data.from_arrow(t),
        "wire/gz",
        compression="gzip",
        rows_per_request=2,
        filesystem=sub,
    )
    assert n == 3
    back = read_otlp_logs_json("wire/gz", filesystem=sub).to_pandas()
    assert len(back) == 6
