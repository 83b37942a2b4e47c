"""Lossless raster codecs implemented from their public format specs:
PPM (P6, netpbm), BMP (BITMAPINFOHEADER, 24-bit BI_RGB), PNG (RGB8,
zlib DEFLATE, filters per the PNG spec).

All encode/decode functions are bytes <-> numpy uint8 array (h, w, 3).
No external imaging libraries (none are installed in this environment);
these exist so the per-row decoded-pixel invariant from BASELINE.json's
input_hint is testable end-to-end.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np


# --- PPM (P6) ---------------------------------------------------------------

def ppm_encode(img: np.ndarray) -> bytes:
    h, w = img.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + img.astype(np.uint8).tobytes()


def ppm_decode(data: bytes) -> np.ndarray:
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 ppm")
    # header: magic, whitespace-separated w h maxval, single whitespace, raster
    # (a header cut short raises: int(b"") or no comment end)
    idx, n = 2, len(data)
    fields = []
    while len(fields) < 3:
        while data[idx:idx + 1].isspace():
            idx += 1
        if data[idx:idx + 1] == b"#":
            idx = data.find(b"\n", idx)
            if idx < 0:
                raise ValueError("ppm header cut short")
            continue
        start = idx
        while idx < n and not data[idx:idx + 1].isspace():
            idx += 1
        fields.append(int(data[start:idx]))
    idx += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError("only maxval=255 supported")
    return np.frombuffer(data, dtype=np.uint8, count=h * w * 3, offset=idx).reshape(h, w, 3)


# --- BMP (24-bit BI_RGB) ----------------------------------------------------

def bmp_encode(img: np.ndarray) -> bytes:
    h, w = img.shape[:2]
    row_len = (w * 3 + 3) & ~3
    pad = row_len - w * 3
    # BGR, bottom-up rows, each padded to 4 bytes
    bgr = img[::-1, :, ::-1].astype(np.uint8)
    if pad:
        rows = np.zeros((h, row_len), dtype=np.uint8)
        rows[:, : w * 3] = bgr.reshape(h, w * 3)
        pixel_bytes = rows.tobytes()
    else:
        pixel_bytes = bgr.tobytes()
    data_size = row_len * h
    header = struct.pack("<2sIHHI", b"BM", 54 + data_size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, data_size, 2835, 2835, 0, 0)
    return header + info + pixel_bytes


def bmp_decode(data: bytes) -> np.ndarray:
    if data[:2] != b"BM":
        raise ValueError("not a BMP")
    offset = struct.unpack_from("<I", data, 10)[0]
    hdr_size, w, h, _planes, bpp, comp = struct.unpack_from("<IiiHHI", data, 14)
    if bpp != 24 or comp != 0:
        raise ValueError("only 24-bit BI_RGB supported")
    flip = h > 0
    h = abs(h)
    row_len = (w * 3 + 3) & ~3
    rows = np.frombuffer(data, dtype=np.uint8, count=row_len * h, offset=offset)
    rows = rows.reshape(h, row_len)[:, : w * 3].reshape(h, w, 3)
    img = rows[:, :, ::-1]  # BGR -> RGB
    return img[::-1] if flip else img


# --- PNG (8-bit RGB, non-interlaced) ----------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + tag + body + struct.pack(
        ">I", zlib.crc32(tag + body) & 0xFFFFFFFF
    )


def png_encode(img: np.ndarray, level: int = 6) -> bytes:
    h, w = img.shape[:2]
    img = img.astype(np.uint8)
    # filter type 2 (Up) for rows 1.. and 0 (None) for row 0 would need
    # per-row logic; filter 0 everywhere keeps the encoder vectorized.
    raw = np.zeros((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 1:] = img.reshape(h, w * 3)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    idat = zlib.compress(raw.tobytes(), level)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def png_decode(data: bytes) -> np.ndarray:
    if not data.startswith(_PNG_SIG):
        raise ValueError("not a PNG")
    pos = 8
    w = h = None
    idat = bytearray()
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4: pos + 8]
        body = data[pos + 8: pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, ctype, comp, filt, interlace = struct.unpack(">IIBBBBB", body)
            if (depth, ctype, interlace) != (8, 2, 0):
                raise ValueError("only 8-bit RGB non-interlaced supported")
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    stride = 1 + w * 3
    rows = raw.reshape(h, stride)
    ftypes = rows[:, 0]
    out = np.empty((h, w * 3), dtype=np.uint8)
    prev = np.zeros(w * 3, dtype=np.uint8)
    for y in range(h):  # filters are sequential by spec; h is small per image
        ft = ftypes[y]
        line = rows[y, 1:].astype(np.int32)
        if ft == 0:
            cur = line
        elif ft == 2:  # Up
            cur = (line + prev) & 0xFF
        elif ft == 1:  # Sub
            cur = line.copy()
            for x in range(3, w * 3):
                cur[x] = (cur[x] + cur[x - 3]) & 0xFF
        elif ft == 3:  # Average
            cur = line.copy()
            for x in range(w * 3):
                left = cur[x - 3] if x >= 3 else 0
                cur[x] = (cur[x] + ((left + int(prev[x])) >> 1)) & 0xFF
        elif ft == 4:  # Paeth
            cur = line.copy()
            for x in range(w * 3):
                a = cur[x - 3] if x >= 3 else 0
                b = int(prev[x])
                c = int(prev[x - 3]) if x >= 3 else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                cur[x] = (cur[x] + pred) & 0xFF
        else:
            raise ValueError("bad filter %d" % ft)
        out[y] = cur.astype(np.uint8)
        prev = out[y]
    return out.reshape(h, w, 3)
