"""Pure-numpy baseline JPEG codec (SOF0, Huffman, 8-bit).

Promotes JPEG — the most common compressed image format — out of the
per-payload ``NotImplementedError`` gate in ``multimodal.DecodeStage``:
no codec library exists in this container, but baseline JPEG is just
markers + canonical Huffman + dequantize + 8×8 IDCT + YCbCr→RGB, all
expressible with stdlib bytes handling and numpy.

Decoder (``decode_jpeg``): real baseline decode — DQT/SOF0/DHT/DRI/SOS
marker parse, byte-destuffed entropy segments split at RSTn (DC
predictors reset per restart interval), per-block Huffman DC/AC decode
with magnitude ``extend``, then VECTORIZED dequantize → dezigzag →
batched-matmul IDCT → plane assembly over all blocks at once; chroma
subsampling (H,V ∈ {1,2} — covers 4:4:4/4:2:2/4:2:0) upsampled by
nearest repeat; 1-component grayscale broadcast to the (H, W, 3) RGB
contract shared by every ``imagecodec`` decoder. Progressive (SOF2),
arithmetic coding, 12-bit precision and multi-scan files raise
``ValueError`` (→ the honest gate upstream), never a wrong decode.

Encoder (``encode_jpeg``): real baseline encode — grayscale or RGB
4:4:4, JFIF YCbCr, Annex-K standard Huffman tables, quality-scaled
Annex-K quantization (or an explicit table), deterministic
floor(x+0.5) quantizer, DC differential + run-length AC Huffman with
byte stuffing. Entropy coding is per-block sequential (as in every
JPEG codec); the DCT/color transforms are batched numpy.

Determinism contract used by the oracle-gated ``media_decode_jpeg``
query: for an image of CONSTANT 8×8 blocks with EVEN pixel values and
Q[0]=16, the DC coefficient is exactly 8·(v−128) (all AC exactly 0),
which quantizes losslessly to (v−128)/2 — so decode∘encode is the
IDENTITY on such images, bit-for-bit, and a SQL oracle can regenerate
the decoded pixels in closed form while the engine genuinely runs the
whole bitstream → Huffman → dequant → IDCT path. Lossy accuracy on
non-constant content is pinned by pytest (gradient round-trip bounds).

Reference semantics: the multimodal tier of SURVEY.md §2 (decode /
feature-extract / resize as actor-pool stages); format per ITU-T T.81.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------- tables

# zigzag position i → natural (row-major) index
ZIGZAG = np.array(
    [
        0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
        12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
    ],
    dtype=np.int64,
)

# Annex-K base quantization tables (natural order)
_BASE_LUMA_Q = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.int64,
)
_BASE_CHROMA_Q = np.array(
    [
        17, 18, 24, 47, 99, 99, 99, 99,
        18, 21, 26, 66, 99, 99, 99, 99,
        24, 26, 56, 99, 99, 99, 99, 99,
        47, 66, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
    ],
    dtype=np.int64,
)

# Annex-K standard Huffman tables: (16 BITS counts, HUFFVAL symbols)
_DC_LUMA = (
    [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    list(range(12)),
)
_DC_CHROMA = (
    [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    list(range(12)),
)
_AC_LUMA = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
        0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
        0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
        0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
        0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
        0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
        0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
        0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
        0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
        0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
        0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
        0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
        0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
        0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
        0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
        0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
        0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
        0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)
_AC_CHROMA = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
        0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
        0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
        0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
        0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
        0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
        0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
        0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
        0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
        0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
        0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
        0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
        0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
        0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
        0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)
for _counts, _vals in (_DC_LUMA, _DC_CHROMA, _AC_LUMA, _AC_CHROMA):
    assert sum(_counts) == len(_vals), "corrupt standard Huffman table"


def _dct_basis() -> np.ndarray:
    """A[u, x] = c(u)/2 · cos((2x+1)uπ/16): forward F = A f Aᵀ,
    inverse f = Aᵀ F A (orthonormal, so the pair is exact)."""
    u = np.arange(8).reshape(8, 1).astype(np.float64)
    x = np.arange(8).reshape(1, 8).astype(np.float64)
    a = np.cos((2.0 * x + 1.0) * u * np.pi / 16.0) / 2.0
    a[0, :] /= np.sqrt(2.0)
    return a


_A = _dct_basis()


def quality_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """libjpeg-convention quality scaling of the Annex-K base tables."""
    q = min(max(int(quality), 1), 100)
    scale = 5000 // q if q < 50 else 200 - 2 * q
    def scl(base):
        return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)
    return scl(_BASE_LUMA_Q), scl(_BASE_CHROMA_Q)


# --------------------------------------------------------------- huffman


def _canonical_codes(counts, values) -> dict[int, tuple[int, int]]:
    """symbol → (bit length, code), canonical JPEG assignment."""
    out: dict[int, tuple[int, int]] = {}
    code, k = 0, 0
    for length in range(1, 17):
        for _ in range(counts[length - 1]):
            out[values[k]] = (length, code)
            code += 1
            k += 1
        code <<= 1
    return out


def _decode_lut(counts, values) -> list[dict[int, int] | None]:
    """lut[length][code] = symbol (index 1..16; None where no codes)."""
    lut: list[dict[int, int] | None] = [None] * 17
    code, k = 0, 0
    for length in range(1, 17):
        if counts[length - 1]:
            d: dict[int, int] = {}
            for _ in range(counts[length - 1]):
                d[code] = values[k]
                code += 1
                k += 1
            lut[length] = d
        code <<= 1
    return lut


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, length: int, code: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            b = (self.acc >> (self.nbits - 8)) & 0xFF
            self.buf.append(b)
            if b == 0xFF:  # byte stuffing
                self.buf.append(0x00)
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self) -> bytes:
        if self.nbits:
            pad = 8 - self.nbits
            self.write(pad, (1 << pad) - 1)  # 1-pad per T.81 F.1.2.3
        return bytes(self.buf)


class _BitReader:
    """Reads MSB-first bits off a destuffed entropy segment."""

    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self.pos = 0

    def read_bit(self) -> int:
        if self.pos >= len(self.bits):
            raise ValueError("truncated JPEG entropy data")
        b = int(self.bits[self.pos])
        self.pos += 1
        return b

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def read_symbol(self, lut) -> int:
        code = 0
        for length in range(1, 17):
            code = (code << 1) | self.read_bit()
            d = lut[length]
            if d is not None and code in d:
                return d[code]
        raise ValueError("invalid Huffman code in JPEG stream")


def _extend(bits: int, size: int) -> int:
    if size == 0:
        return 0
    if bits < (1 << (size - 1)):
        return bits - (1 << size) + 1
    return bits


def _magnitude(v: int) -> tuple[int, int]:
    """value → (size, raw bits) for DC/AC magnitude coding."""
    if v == 0:
        return 0, 0
    size = int(abs(v)).bit_length()
    return size, (v if v >= 0 else v + (1 << size) - 1)


# ---------------------------------------------------------------- decode


def _destuffed_segments(buf: bytes, start: int) -> tuple[list[bytes], int]:
    """Entropy-coded data from ``start``: destuff 0xFF00 → 0xFF, split
    at RSTn (new segment, DC predictors reset), stop at any other
    marker. Returns (segments, position of the terminating marker)."""
    segs: list[bytes] = []
    cur = bytearray()
    i = start
    n = len(buf)
    while i < n:
        b = buf[i]
        if b != 0xFF:
            cur.append(b)
            i += 1
            continue
        m = buf[i + 1] if i + 1 < n else 0xD9
        if m == 0xFF:  # fill byte before a marker (T.81 B.1.1.2)
            i += 1
        elif m == 0x00:
            cur.append(0xFF)
            i += 2
        elif 0xD0 <= m <= 0xD7:  # RSTn
            segs.append(bytes(cur))
            cur = bytearray()
            i += 2
        else:
            break
    segs.append(bytes(cur))
    return segs, i


def decode_jpeg(buf: bytes) -> np.ndarray:
    """Baseline JPEG bytes → (H, W, 3) uint8 RGB.

    Every malformed-input failure surfaces as ``ValueError`` — the
    honest-gate contract ``DecodeStage._decode_one`` catches per
    payload. Without the translation below, wild corrupt streams leak
    KeyError (DHT segment missing for a referenced table), IndexError
    (fewer RST segments than restart intervals), or StopIteration (SOS
    component id absent from SOF) and fail the whole Ray Data job."""
    try:
        return _decode_jpeg(buf)
    except (KeyError, IndexError, StopIteration, ZeroDivisionError) as e:
        raise ValueError(
            f"malformed JPEG: {type(e).__name__}: {e}"
        ) from e


def _decode_jpeg(buf: bytes) -> np.ndarray:
    if buf[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG payload")
    qt: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], list] = {}
    comps: list[dict] = []
    h = w = None
    scan: list[tuple[int, int, int]] = []  # (comp idx, dc lut id, ac lut id)
    restart = 0
    i = 2
    n = len(buf)
    entropy_at = None
    while i < n:
        if buf[i] != 0xFF:
            raise ValueError("bad JPEG marker stream")
        while i + 1 < n and buf[i + 1] == 0xFF:  # fill bytes (T.81 B.1.1.2)
            i += 1
        m = buf[i + 1]
        if m in (0x01,) or 0xD0 <= m <= 0xD7:
            i += 2
            continue
        if m == 0xD9:  # EOI
            break
        seglen = int.from_bytes(buf[i + 2 : i + 4], "big")
        data = buf[i + 4 : i + 2 + seglen]
        if m == 0xDB:  # DQT (possibly several tables per segment)
            p = 0
            while p < len(data):
                pq, tq = data[p] >> 4, data[p] & 0xF
                if pq != 0:
                    raise ValueError("16-bit quant tables unsupported")
                qt[tq] = np.frombuffer(
                    data[p + 1 : p + 65], dtype=np.uint8
                ).astype(np.int64)
                p += 65
        elif m == 0xC4:  # DHT
            p = 0
            while p < len(data):
                tc, th = data[p] >> 4, data[p] & 0xF
                counts = list(data[p + 1 : p + 17])
                nv = sum(counts)
                values = list(data[p + 17 : p + 17 + nv])
                huff[(tc, th)] = _decode_lut(counts, values)
                p += 17 + nv
        elif m == 0xC0:  # SOF0 baseline
            if data[0] != 8:
                raise ValueError("only 8-bit precision JPEG")
            h = int.from_bytes(data[1:3], "big")
            w = int.from_bytes(data[3:5], "big")
            nf = data[5]
            for c in range(nf):
                cid, hv, tq = data[6 + 3 * c : 9 + 3 * c]
                comps.append(
                    {"id": cid, "h": hv >> 4, "v": hv & 0xF, "tq": tq}
                )
        elif m in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                   0xCD, 0xCE, 0xCF):
            raise ValueError("only baseline (SOF0) JPEG supported")
        elif m == 0xDD:  # DRI
            restart = int.from_bytes(data[0:2], "big")
        elif m == 0xDA:  # SOS
            ns = data[0]
            if ns != len(comps):
                raise ValueError("multi-scan JPEG unsupported")
            for s in range(ns):
                cid, tt = data[1 + 2 * s], data[2 + 2 * s]
                idx = next(
                    k for k, c in enumerate(comps) if c["id"] == cid
                )
                scan.append((idx, tt >> 4, tt & 0xF))
            entropy_at = i + 2 + seglen
            break
        i += 2 + seglen
    if h is None or entropy_at is None:
        raise ValueError("JPEG missing SOF0/SOS")
    for c in comps:
        if c["h"] not in (1, 2) or c["v"] not in (1, 2):
            raise ValueError("JPEG sampling factors beyond 2 unsupported")

    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    n_mcu = mcux * mcuy

    segments, _ = _destuffed_segments(buf, entropy_at)
    coef_lists: list[list[np.ndarray]] = [[] for _ in comps]
    done = 0
    seg_i = 0
    while done < n_mcu:
        reader = _BitReader(segments[seg_i])
        pred = [0] * len(comps)
        in_seg = restart if restart else n_mcu - done
        for _ in range(min(in_seg, n_mcu - done)):
            for ci, dc_id, ac_id in scan:
                c = comps[ci]
                dc_lut = huff[(0, dc_id)]
                ac_lut = huff[(1, ac_id)]
                for _b in range(c["h"] * c["v"]):
                    zz = np.zeros(64, dtype=np.int64)
                    size = reader.read_symbol(dc_lut)
                    pred[ci] += _extend(reader.read_bits(size), size)
                    zz[0] = pred[ci]
                    k = 1
                    while k < 64:
                        rs = reader.read_symbol(ac_lut)
                        run, size = rs >> 4, rs & 0xF
                        if rs == 0x00:  # EOB
                            break
                        if rs == 0xF0:  # ZRL
                            k += 16
                            continue
                        k += run
                        if k > 63:
                            raise ValueError("AC run past block end")
                        zz[k] = _extend(reader.read_bits(size), size)
                        k += 1
                    coef_lists[ci].append(zz)
            done += 1
        seg_i += 1

    # vectorized dequantize → dezigzag → IDCT → plane assembly
    planes: list[np.ndarray] = []
    for ci, c in enumerate(comps):
        bw, bh = mcux * c["h"], mcuy * c["v"]
        zz = np.stack(coef_lists[ci]).astype(np.float64)  # (nb, 64) zigzag
        zz *= qt[c["tq"]].astype(np.float64)  # quant table is zigzag-ordered
        nat = np.zeros_like(zz)
        nat[:, ZIGZAG] = zz
        blocks = nat.reshape(-1, 8, 8)
        px = np.einsum("ux,nuv,vy->nxy", _A, blocks, _A) + 128.0
        px = np.clip(np.floor(px + 0.5), 0, 255).astype(np.uint8)
        # decode order → (block row, block col) within the component grid
        order = np.empty((bh, bw), dtype=np.int64)
        t = 0
        for my in range(mcuy):
            for mx in range(mcux):
                for by in range(c["v"]):
                    for bx in range(c["h"]):
                        order[my * c["v"] + by, mx * c["h"] + bx] = t
                        t += 1
        plane = (
            px[order.reshape(-1)]
            .reshape(bh, bw, 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(bh * 8, bw * 8)
        )
        ch = -(-h * c["v"] // vmax)
        cw = -(-w * c["h"] // hmax)
        plane = plane[:ch, :cw]
        if c["v"] != vmax:
            plane = np.repeat(plane, vmax // c["v"], axis=0)
        if c["h"] != hmax:
            plane = np.repeat(plane, hmax // c["h"], axis=1)
        planes.append(plane[:h, :w])

    if len(planes) == 1:
        return np.repeat(planes[0][:, :, None], 3, axis=2)
    if len(planes) != 3:
        raise ValueError(f"{len(planes)}-component JPEG unsupported")
    y = planes[0].astype(np.float64)
    cb = planes[1].astype(np.float64) - 128.0
    cr = planes[2].astype(np.float64) - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    rgb = np.stack([r, g, b], axis=2)
    return np.clip(np.floor(rgb + 0.5), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------- encode


def _encode_blocks(
    plane: np.ndarray, q: np.ndarray, dc_codes, ac_codes, bw: _BitWriter
):
    """Level-shifted plane (H, W multiples of 8) → quantize + Huffman.
    DCT and quantization are batched numpy; entropy write is per block
    (inherently sequential, as in any JPEG encoder)."""
    h, w = plane.shape
    blocks = (
        plane.reshape(h // 8, 8, w // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
        .astype(np.float64)
    )
    coef = np.einsum("ux,nxy,vy->nuv", _A, blocks, _A).reshape(-1, 64)
    zz = coef[:, ZIGZAG]
    # deterministic floor(x+0.5) quantizer (any quantizer is valid
    # JPEG; this one is what the constant-block oracle mirrors)
    qz = np.floor(zz / q.astype(np.float64) + 0.5).astype(np.int64)
    prev_dc = 0
    for row in qz:
        size, bits = _magnitude(int(row[0]) - prev_dc)
        prev_dc = int(row[0])
        length, code = dc_codes[size]
        bw.write(length, code)
        if size:
            bw.write(size, bits)
        nz = np.nonzero(row[1:])[0]
        k = 0
        for pos in nz:
            run = int(pos) - k
            while run >= 16:
                length, code = ac_codes[0xF0]
                bw.write(length, code)
                run -= 16
            size, bits = _magnitude(int(row[1 + pos]))
            length, code = ac_codes[(run << 4) | size]
            bw.write(length, code)
            bw.write(size, bits)
            k = int(pos) + 1
        if k < 63:
            length, code = ac_codes[0x00]  # EOB
            bw.write(length, code)


def _seg(marker: int, payload: bytes) -> bytes:
    return bytes([0xFF, marker]) + (len(payload) + 2).to_bytes(2, "big") + payload


def _dht_payload(tc: int, th: int, table) -> bytes:
    counts, values = table
    return bytes([tc << 4 | th]) + bytes(counts) + bytes(values)


def _pad8(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    return np.pad(
        plane, ((0, (-h) % 8), (0, (-w) % 8)), mode="edge"
    )


def encode_jpeg(
    arr: np.ndarray,
    *,
    quality: int = 90,
    quant_luma: np.ndarray | None = None,
    quant_chroma: np.ndarray | None = None,
) -> bytes:
    """(H, W) / (H, W, 1) grayscale or (H, W, 3) RGB uint8 → baseline
    JFIF JPEG bytes (4:4:4, standard Huffman tables). ``quant_*``
    override the quality-scaled Annex-K tables (zigzag order)."""
    ql, qc = quality_tables(quality)
    if quant_luma is not None:
        ql = np.asarray(quant_luma, dtype=np.int64)
    if quant_chroma is not None:
        qc = np.asarray(quant_chroma, dtype=np.int64)
    gray = arr.ndim == 2 or arr.shape[2] == 1
    a = arr.reshape(arr.shape[0], arr.shape[1]) if gray else arr[:, :, :3]
    h, w = a.shape[:2]
    if gray:
        planes = [a.astype(np.float64) - 128.0]
    else:
        f = a.astype(np.float64)
        r, g, b = f[:, :, 0], f[:, :, 1], f[:, :, 2]
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
        cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
        planes = [y - 128.0, cb - 128.0, cr - 128.0]

    out = bytearray(b"\xff\xd8")  # SOI
    out += _seg(
        0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    )
    out += _seg(0xDB, bytes([0x00]) + bytes(ql.astype(np.uint8)))
    if not gray:
        out += _seg(0xDB, bytes([0x01]) + bytes(qc.astype(np.uint8)))
    nf = 1 if gray else 3
    sof = bytes([8]) + h.to_bytes(2, "big") + w.to_bytes(2, "big") + bytes([nf])
    for cid in range(1, nf + 1):
        sof += bytes([cid, 0x11, 0 if cid == 1 else 1])  # 4:4:4
    out += _seg(0xC0, sof)
    out += _seg(0xC4, _dht_payload(0, 0, _DC_LUMA))
    out += _seg(0xC4, _dht_payload(1, 0, _AC_LUMA))
    if not gray:
        out += _seg(0xC4, _dht_payload(0, 1, _DC_CHROMA))
        out += _seg(0xC4, _dht_payload(1, 1, _AC_CHROMA))
    sos = bytes([nf])
    for cid in range(1, nf + 1):
        sos += bytes([cid, 0x00 if cid == 1 else 0x11])
    sos += bytes([0, 63, 0])
    out += _seg(0xDA, sos)

    dc_l = _canonical_codes(*_DC_LUMA)
    ac_l = _canonical_codes(*_AC_LUMA)
    dc_c = _canonical_codes(*_DC_CHROMA)
    ac_c = _canonical_codes(*_AC_CHROMA)
    # 4:4:4 interleaved: one block per component per MCU. Stream each
    # component's blocks through a shared writer in MCU order.
    padded = [_pad8(p) for p in planes]
    ph, pw = padded[0].shape
    bw = _BitWriter()
    # per-MCU interleave: iterate block grid, write comps in order
    qs = [ql] + [qc] * (nf - 1)
    dcs = [dc_l] + [dc_c] * (nf - 1)
    acs = [ac_l] + [ac_c] * (nf - 1)
    if nf == 1:
        _encode_blocks(padded[0], ql, dc_l, ac_l, bw)
    else:
        # interleave by slicing each plane into blocks first
        blocks = []
        for p in padded:
            blocks.append(
                p.reshape(ph // 8, 8, pw // 8, 8)
                .transpose(0, 2, 1, 3)
                .reshape(-1, 8, 8)
            )
        coefs = []
        for ci in range(nf):
            c = np.einsum(
                "ux,nxy,vy->nuv", _A, blocks[ci].astype(np.float64), _A
            ).reshape(-1, 64)[:, ZIGZAG]
            coefs.append(
                np.floor(c / qs[ci].astype(np.float64) + 0.5).astype(np.int64)
            )
        preds = [0] * nf
        for bi in range(coefs[0].shape[0]):
            for ci in range(nf):
                row = coefs[ci][bi]
                size, bits = _magnitude(int(row[0]) - preds[ci])
                preds[ci] = int(row[0])
                length, code = dcs[ci][size]
                bw.write(length, code)
                if size:
                    bw.write(size, bits)
                nz = np.nonzero(row[1:])[0]
                k = 0
                for pos in nz:
                    run = int(pos) - k
                    while run >= 16:
                        length, code = acs[ci][0xF0]
                        bw.write(length, code)
                        run -= 16
                    size, bits = _magnitude(int(row[1 + pos]))
                    length, code = acs[ci][(run << 4) | size]
                    bw.write(length, code)
                    bw.write(size, bits)
                    k = int(pos) + 1
                if k < 63:
                    length, code = acs[ci][0x00]
                    bw.write(length, code)
    out += bw.flush()
    out += b"\xff\xd9"  # EOI
    return bytes(out)


def synth_block_image(
    media_id: int, *, blocks_x: int = 2, blocks_y: int = 2
) -> np.ndarray:
    """Deterministic grayscale image of CONSTANT 8×8 blocks with EVEN
    values — the class on which baseline JPEG with Q[0]=16 round-trips
    EXACTLY (see module docstring): block (by, bx) has value
    2·((media_id·7 + (by·blocks_x + bx)·13) mod 128). The
    ``media_decode_jpeg`` oracle regenerates this rule in closed-form
    BIGINT SQL."""
    img = np.zeros((blocks_y * 8, blocks_x * 8), dtype=np.uint8)
    for by in range(blocks_y):
        for bx in range(blocks_x):
            v = 2 * ((media_id * 7 + (by * blocks_x + bx) * 13) % 128)
            img[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8] = v
    return img
