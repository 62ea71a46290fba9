"""Wire-level payload compression (configgrpc compressor matrix,
config/configgrpc/configgrpc.go): gzip/zstd OTLP payloads round-trip
identically to the plain wire, files carry real compressed magic."""

import glob
import hashlib
import json
import os

import pyarrow as pa
import pytest
import ray.data

from opentelemetry_collector_ray.fixtures import gen_transcripts
from opentelemetry_collector_ray.sources.otlp_json import (
    compress_payload,
    decompress_payload,
    read_otlp_logs_json,
    write_otlp_logs_json,
)
from opentelemetry_collector_ray.sources.otlp_pb import (
    decode_logs_request,
    read_otlp_logs_pb,
    write_otlp_logs_pb,
)
from opentelemetry_collector_ray.sources.wirefs import unframe_requests
from tests.test_otlp_pb import _transcript_batch


def test_payload_helpers_roundtrip():
    data = b"x" * 4096 + b"hello" * 100
    for comp, magic in (("gzip", b"\x1f\x8b"), ("zstd", b"\x28\xb5\x2f\xfd")):
        blob = compress_payload(data, comp)
        assert blob[: len(magic)] == magic
        assert len(blob) < len(data)
        assert decompress_payload(blob) == data
    assert compress_payload(data, None) == data
    assert decompress_payload(data) == data
    with pytest.raises(ValueError):
        compress_payload(data, "lz9")


@pytest.mark.parametrize("compression", ["gzip", "zstd"])
def test_json_wire_compressed_roundtrip(ray_session, tmp_path, compression):
    t = _transcript_batch()
    plain, comp = str(tmp_path / "plain"), str(tmp_path / "comp")
    assert write_otlp_logs_json(ray.data.from_arrow(t), plain) >= 1
    assert write_otlp_logs_json(
        ray.data.from_arrow(t), comp, compression=compression
    ) >= 1
    ext = ".json.gz" if compression == "gzip" else ".json.zst"
    assert glob.glob(comp + "/*" + ext)

    key = ["conv_id", "turn_idx"]
    a = read_otlp_logs_json(plain).to_pandas().sort_values(key)
    b = read_otlp_logs_json(comp).to_pandas().sort_values(key)
    import pandas.testing as pdt

    pdt.assert_frame_equal(
        a.reset_index(drop=True)[sorted(a.columns)],
        b.reset_index(drop=True)[sorted(b.columns)],
    )


def test_pb_wire_gzip_roundtrip(ray_session, tmp_path):
    t = _transcript_batch()
    plain, comp = str(tmp_path / "plain"), str(tmp_path / "comp")
    assert write_otlp_logs_pb(ray.data.from_arrow(t), plain) >= 1
    assert write_otlp_logs_pb(
        ray.data.from_arrow(t), comp, compression="gzip"
    ) >= 1
    assert glob.glob(comp + "/*.binpb.gz")

    key = ["conv_id", "turn_idx"]
    a = read_otlp_logs_pb(plain).to_pandas().sort_values(key)
    b = read_otlp_logs_pb(comp).to_pandas().sort_values(key)
    import pandas.testing as pdt

    pdt.assert_frame_equal(
        a.reset_index(drop=True)[sorted(a.columns)],
        b.reset_index(drop=True)[sorted(b.columns)],
    )


@pytest.mark.parametrize("wire", ["json", "pb"])
@pytest.mark.parametrize("compression", ["gzip", "zstd"])
def test_wire_files_are_compressed_once(ray_session, tmp_path, wire, compression):
    """A compressed wire file is its payload compressed ONCE, so any
    OTLP tool can read it: its md5 is the hex in its content-addressed
    name, and one decompression gives the plain NDJSON or framed
    protobuf. pyarrow's output stream, left on its default
    ``compression="detect"``, gzipped a ``.gz``-named file again."""
    out = str(tmp_path / "wire")
    write = write_otlp_logs_json if wire == "json" else write_otlp_logs_pb
    n = write(
        ray.data.from_arrow(gen_transcripts(20)), out, compression, 50,
        requests_per_file=2,
    )
    names = os.listdir(out)
    assert n >= 2 and len(names) >= 1
    for name in names:
        data = open(os.path.join(out, name), "rb").read()
        assert hashlib.md5(data).hexdigest() in name
        plain = decompress_payload(data)
        if wire == "json":
            requests = [json.loads(line) for line in plain.splitlines()]
        else:
            requests = [decode_logs_request(b) for b in unframe_requests(plain)]
        assert requests and all(r["resourceLogs"] for r in requests)
