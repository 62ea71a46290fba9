"""Pure-numpy baseline JPEG codec (stages/jpegcodec.py).

Pins the determinism contract the ``media_decode_jpeg`` oracle relies
on (decode∘encode is the IDENTITY on constant even-valued 8×8 blocks
at quality 50), lossy accuracy bounds on real content, and the two
decoder paths the 4:4:4 encoder cannot produce — chroma subsampling
and restart intervals — via hand-built bitstreams.
"""

import numpy as np
import pytest

from opentelemetry_collector_ray.stages.imagecodec import decode_image
from opentelemetry_collector_ray.stages.jpegcodec import (
    _AC_CHROMA,
    _AC_LUMA,
    _BitWriter,
    _DC_CHROMA,
    _DC_LUMA,
    _canonical_codes,
    _dht_payload,
    _magnitude,
    _seg,
    decode_jpeg,
    encode_jpeg,
    quality_tables,
    synth_block_image,
)


def test_constant_block_identity_exhaustive():
    """The oracle contract: every even value 0..254 as a constant 8×8
    block at quality 50 (Q[0]=16) round-trips bit-for-bit."""
    ql, _ = quality_tables(50)
    assert ql[0] == 16  # Annex-K base table at the libjpeg 50 point
    for v in range(0, 256, 2):
        img = np.full((8, 8), v, dtype=np.uint8)
        dec = decode_jpeg(encode_jpeg(img, quality=50))
        assert dec.shape == (8, 8, 3)
        assert (dec == v).all(), v


def test_synth_block_image_identity_matches_oracle_rule():
    """synth_block_image through encode→decode equals the closed-form
    rule the media_decode_jpeg SQL oracle regenerates (gray broadcast
    to RGB), including DC differential coding across distinct blocks."""
    for mid in (0, 5, 123, 9999):
        img = synth_block_image(mid, blocks_x=8, blocks_y=6)
        # the documented rule, independently recomputed
        for by in range(6):
            for bx in range(8):
                v = 2 * ((mid * 7 + (by * 8 + bx) * 13) % 128)
                assert img[by * 8, bx * 8] == v
        dec = decode_jpeg(encode_jpeg(img, quality=50))
        assert np.array_equal(dec, np.repeat(img[:, :, None], 3, axis=2))


def test_lossy_roundtrip_bounds():
    """Real lossy content: a smooth gradient stays within ±2 at q90;
    random RGB at q95 (odd size → edge-padding path) reconstructs with
    small mean error and exact shape."""
    x = np.linspace(0, 255, 64).astype(np.uint8)
    grad = np.stack([np.tile(x, (64, 1))] * 3, axis=-1)
    dec = decode_jpeg(encode_jpeg(grad, quality=90))
    assert np.abs(dec.astype(int) - grad.astype(int)).max() <= 2

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(37, 53, 3)).astype(np.uint8)
    enc = encode_jpeg(img, quality=95)
    dec = decode_jpeg(enc)
    assert dec.shape == img.shape
    assert np.abs(dec.astype(int) - img.astype(int)).mean() < 8.0
    # the random stream exercises byte stuffing (0xFF in entropy data)
    assert b"\xff\x00" in enc[enc.index(b"\xff\xda") :]


def test_decode_image_dispatches_jpeg():
    img = synth_block_image(7, blocks_x=2, blocks_y=2)
    dec = decode_image(encode_jpeg(img, quality=50))
    assert np.array_equal(dec, np.repeat(img[:, :, None], 3, axis=2))


def _write_dc_only_block(bw, dc_codes, ac_codes, dcdiff):
    size, bits = _magnitude(dcdiff)
    length, code = dc_codes[size]
    bw.write(length, code)
    if size:
        bw.write(size, bits)
    length, code = ac_codes[0x00]  # EOB
    bw.write(length, code)


def _headers(h, w, comps, dri=0):
    """SOI + DQT(q50 luma/chroma) + SOF0 + DHTs (+DRI) + SOS for the
    given component list [(cid, hv, tq)]."""
    ql, qc = quality_tables(50)
    out = bytearray(b"\xff\xd8")
    out += _seg(0xDB, bytes([0x00]) + bytes(ql.astype(np.uint8)))
    out += _seg(0xDB, bytes([0x01]) + bytes(qc.astype(np.uint8)))
    sof = bytes([8]) + h.to_bytes(2, "big") + w.to_bytes(2, "big")
    sof += bytes([len(comps)])
    for cid, hv, tq in comps:
        sof += bytes([cid, hv, tq])
    out += _seg(0xC0, sof)
    out += _seg(0xC4, _dht_payload(0, 0, _DC_LUMA))
    out += _seg(0xC4, _dht_payload(1, 0, _AC_LUMA))
    out += _seg(0xC4, _dht_payload(0, 1, _DC_CHROMA))
    out += _seg(0xC4, _dht_payload(1, 1, _AC_CHROMA))
    if dri:
        out += _seg(0xDD, dri.to_bytes(2, "big"))
    sos = bytes([len(comps)])
    for cid, _hv, _tq in comps:
        sos += bytes([cid, 0x00 if cid == 1 else 0x11])
    sos += bytes([0, 63, 0])
    out += _seg(0xDA, sos)
    return out


def test_subsampled_420_decode():
    """Hand-built 4:2:0 single-MCU stream (the encoder only emits
    4:4:4): four constant even-valued luma blocks + neutral chroma
    decode EXACTLY, proving MCU interleave order (Y×4, Cb, Cr), the
    per-component block grid and nearest chroma upsampling."""
    vals = [60, 130, 200, 2]  # even → lossless luma DC
    out = _headers(
        16, 16, [(1, 0x22, 0), (2, 0x11, 1), (3, 0x11, 1)]
    )
    dc_l, ac_l = _canonical_codes(*_DC_LUMA), _canonical_codes(*_AC_LUMA)
    dc_c, ac_c = _canonical_codes(*_DC_CHROMA), _canonical_codes(*_AC_CHROMA)
    bw = _BitWriter()
    prev = 0
    for v in vals:  # Y blocks in MCU raster order (by, bx)
        dc = (v - 128) // 2  # quantized DC at Q[0]=16
        _write_dc_only_block(bw, dc_l, ac_l, dc - prev)
        prev = dc
    for _ in range(2):  # Cb, Cr: DC 0 → level 128 → neutral chroma
        _write_dc_only_block(bw, dc_c, ac_c, 0)
    out += bw.flush() + b"\xff\xd9"

    dec = decode_jpeg(bytes(out))
    assert dec.shape == (16, 16, 3)
    exp = np.zeros((16, 16), dtype=np.uint8)
    for k, v in enumerate(vals):
        by, bx = divmod(k, 2)
        exp[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8] = v
    assert np.array_equal(dec, np.repeat(exp[:, :, None], 3, axis=2))


def test_restart_interval_decode():
    """Hand-built grayscale DRI=1 stream: RSTn between MCUs resets the
    DC predictor, so each segment codes its block's FULL DC value."""
    vals = [40, 220, 100]
    out = _headers(8, 24, [(1, 0x11, 0)], dri=1)
    dc_l, ac_l = _canonical_codes(*_DC_LUMA), _canonical_codes(*_AC_LUMA)
    body = bytearray()
    for k, v in enumerate(vals):
        bw = _BitWriter()
        _write_dc_only_block(bw, dc_l, ac_l, (v - 128) // 2)  # full DC
        body += bw.flush()
        if k < len(vals) - 1:
            body += bytes([0xFF, 0xD0 + k])  # RSTn
    out += body + b"\xff\xd9"

    dec = decode_jpeg(bytes(out))
    exp = np.zeros((8, 24), dtype=np.uint8)
    for k, v in enumerate(vals):
        exp[:, k * 8 : k * 8 + 8] = v
    assert np.array_equal(dec, np.repeat(exp[:, :, None], 3, axis=2))


def test_fill_bytes_before_markers_decode_identically():
    """T.81 B.1.1.2: any marker may be preceded by 0xFF fill bytes.
    Padding before header markers, before RSTn and before EOI decodes
    to the same pixels as the unpadded stream."""
    img = np.random.default_rng(3).integers(0, 256, (16, 24), dtype=np.uint8)
    base = encode_jpeg(img, quality=75)
    want = decode_jpeg(base)
    padded = base[:2] + b"\xff\xff\xff" + base[2:]  # before the first DQT
    sos = padded.index(b"\xff\xda")
    padded = padded[:sos] + b"\xff" + padded[sos:]
    padded = padded[:-2] + b"\xff\xff" + padded[-2:]  # before EOI
    assert np.array_equal(decode_jpeg(padded), want)

    vals = [40, 220, 100]
    out = _headers(8, 24, [(1, 0x11, 0)], dri=1)
    dc_l, ac_l = _canonical_codes(*_DC_LUMA), _canonical_codes(*_AC_LUMA)
    for k, v in enumerate(vals):
        bw = _BitWriter()
        _write_dc_only_block(bw, dc_l, ac_l, (v - 128) // 2)
        out += bw.flush()
        if k < len(vals) - 1:
            out += bytes([0xFF, 0xFF, 0xD0 + k])  # fill byte, then RSTn
    dec = decode_jpeg(bytes(out) + b"\xff\xd9")
    for k, v in enumerate(vals):
        assert (dec[:, k * 8 : k * 8 + 8] == v).all()


def test_unsupported_variants_raise_honestly():
    """Progressive / 16-bit-quant / truncated streams raise ValueError
    (→ the per-payload gate upstream), never a wrong decode."""
    base = encode_jpeg(np.full((8, 8), 100, np.uint8), quality=50)
    prog = base.replace(b"\xff\xc0", b"\xff\xc2", 1)  # SOF0 → SOF2
    with pytest.raises(ValueError, match="baseline"):
        decode_jpeg(prog)
    with pytest.raises(ValueError):
        decode_jpeg(base[:40])  # truncated mid-headers
    with pytest.raises(ValueError, match="not a JPEG"):
        decode_jpeg(b"nope")
    # decode_image keeps JPEG variants inside its unified gate
    with pytest.raises(ValueError, match="JPEG variant unsupported"):
        decode_image(prog)


def test_quality_table_scaling():
    """libjpeg convention: 50 → Annex-K base, 100 → all ones, lower
    quality → coarser tables (monotone at the DC position)."""
    q50l, q50c = quality_tables(50)
    assert q50l[0] == 16 and q50c[0] == 17
    q100l, q100c = quality_tables(100)
    assert (q100l == 1).all() and (q100c == 1).all()
    q10l, _ = quality_tables(10)
    assert q10l[0] > q50l[0]
    # explicit table override is honored
    flat = np.ones(64, dtype=np.int64)
    img = np.full((8, 8), 77, np.uint8)  # odd value: exact only at Q=1
    dec = decode_jpeg(
        encode_jpeg(img, quality=50, quant_luma=flat, quant_chroma=flat)
    )
    assert (dec == 77).all()


def _strip_marker(buf: bytes, marker: int) -> bytes:
    """Drop every segment with the given marker byte from a JPEG."""
    out = bytearray(buf[:2])
    i = 2
    while i < len(buf):
        m = buf[i + 1]
        seglen = int.from_bytes(buf[i + 2 : i + 4], "big")
        seg = buf[i : i + 2 + seglen]
        if m != marker:
            out += seg
        i += 2 + seglen
        if m == 0xDA:  # SOS: entropy-coded data follows unframed
            out += buf[i:]
            break
    return bytes(out)


def test_malformed_streams_raise_valueerror_not_raw():
    """Wild corrupt JPEGs must surface as ValueError (the per-payload
    honest gate), never KeyError/StopIteration that would fail the
    whole Ray Data job: a stream whose SOS references a Huffman table
    no DHT defined, and an SOS component id absent from SOF."""
    base = encode_jpeg(np.full((8, 8), 100, np.uint8), quality=50)

    no_dht = _strip_marker(base, 0xC4)
    with pytest.raises(ValueError, match="malformed JPEG"):
        decode_jpeg(no_dht)

    sos_at = base.find(b"\xff\xda")
    bad_comp = bytearray(base)
    bad_comp[sos_at + 5] = 9  # component id 9 not in SOF
    with pytest.raises(ValueError, match="malformed JPEG"):
        decode_jpeg(bytes(bad_comp))
