"""Multimodal columns: image/audio/video as opaque ``binary`` columns
with typed metadata, processed by stateless batch stages: callables a
plain task (or ``map_batches``) calls on a table of rows.

Real (no external libs needed — in-repo codecs):
- :class:`ImageDecodeResize` — decode -> area-resize -> re-encode.
- :class:`ImageFeatures` — decode -> mean color, luma stats, edge
  density, pHash.

STUBBED (decoders for these media types are not installed in this
environment; the Ray-side plumbing — schema, batch size, stage
signature, output layout — is real and tested):
- :class:`VideoFrameSample` — with ``strict=True`` raises
  NotImplementedError (no video codec available); the default
  deterministic-fake mode derives frames from a content hash so
  downstream stages and layouts can be exercised end-to-end.
- :class:`AudioFeatures` — same pattern.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..codecs import decode, encode, phash64, sniff_fmt


def area_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Box/area resampling via reduceat (downscale) or nearest repeat
    (upscale) — pure numpy, deterministic."""
    h, w = img.shape[:2]
    ys = (np.arange(out_h + 1) * h) // out_h
    xs = (np.arange(out_w + 1) * w) // out_w
    if h >= out_h and w >= out_w:
        acc = img.astype(np.float64)
        rows = np.add.reduceat(acc, ys[:-1], axis=0)
        cells = np.add.reduceat(rows, xs[:-1], axis=1)
        counts = np.outer(np.maximum(np.diff(ys), 1), np.maximum(np.diff(xs), 1))
        out = cells / counts[:, :, None]
        return np.clip(np.round(out), 0, 255).astype(np.uint8)
    yi = np.minimum((np.arange(out_h) * h) // out_h, h - 1)
    xi = np.minimum((np.arange(out_w) * w) // out_w, w - 1)
    return img[yi][:, xi]


class ImageDecodeResize:
    """Stateless stage: bytes(fmt) -> decode -> resize -> bytes(out_fmt).
    Rows are wide binaries, so callers keep batches small (the convert
    wave caps a slice's input bytes)."""

    def __init__(self, out_h: int = 32, out_w: int = 32, out_fmt: str = "png"):
        self.out_h, self.out_w, self.out_fmt = out_h, out_w, out_fmt

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_bytes, ok = [], []
        for row in batch.select(["bytes", "fmt"]).to_pylist():
            try:
                img = decode(row["bytes"], row["fmt"] or sniff_fmt(row["bytes"]))
                small = area_resize(img, self.out_h, self.out_w)
                out_bytes.append(encode(small, self.out_fmt))
                ok.append(True)
            except Exception:
                out_bytes.append(b"")
                ok.append(False)
        return (
            batch.drop_columns(["bytes"])
            .append_column("resized", pa.array(out_bytes, type=pa.binary()))
            .append_column("resize_ok", pa.array(ok, type=pa.bool_()))
        )


class ImageFeatures:
    """Stateless stage: decoded-pixel features for dedup/quality."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = {"mean_r": [], "mean_g": [], "mean_b": [], "luma_std": [],
                 "edge_density": [], "phash64": []}
        for row in batch.select(["bytes", "fmt"]).to_pylist():
            img = decode(row["bytes"], row["fmt"] or sniff_fmt(row["bytes"]))
            f = img.astype(np.float64)
            means = f.mean(axis=(0, 1))
            luma = f @ np.array([0.299, 0.587, 0.114])
            gy, gx = np.gradient(luma)
            edge = float(np.sqrt(gy * gy + gx * gx).mean())
            feats["mean_r"].append(float(means[0]))
            feats["mean_g"].append(float(means[1]))
            feats["mean_b"].append(float(means[2]))
            feats["luma_std"].append(float(luma.std()))
            feats["edge_density"].append(edge)
            feats["phash64"].append(phash64(img) & ((1 << 63) - 1))
        out = batch.drop_columns(["bytes"])
        for k, v in feats.items():
            typ = pa.int64() if k == "phash64" else pa.float64()
            out = out.append_column(k, pa.array(v, type=typ))
        return out


class VideoFrameSample:
    """STUB: uniform frame sampling from a video binary column.

    No video decoder exists in this environment. ``strict=True``
    raises NotImplementedError (the honest production signal); the
    default mode emits deterministic fake frames (seeded by the content
    hash) so the schema and downstream layout are real and testable:
    output column ``frames: list<binary>`` of ``n_frames`` PNGs.
    """

    def __init__(self, n_frames: int = 4, frame_h: int = 16, frame_w: int = 16,
                 strict: bool = False):
        self.n = n_frames
        self.h, self.w = frame_h, frame_w
        self.strict = strict

    def _fake_frames(self, payload: bytes) -> list[bytes]:
        seed = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")
        rng = np.random.default_rng(seed)
        frames = []
        for _ in range(self.n):
            img = rng.integers(0, 256, (self.h, self.w, 3), dtype=np.uint8)
            frames.append(encode(img, "png"))
        return frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.strict:
            raise NotImplementedError(
                "no video decoder available in this environment; install an "
                "ffmpeg-backed decoder and replace _fake_frames"
            )
        col = [self._fake_frames(p or b"") for p in batch.column("bytes").to_pylist()]
        return batch.drop_columns(["bytes"]).append_column(
            "frames", pa.array(col, type=pa.list_(pa.binary()))
        )


class AudioFeatures:
    """STUB: audio feature extraction (no audio decoder installed).
    Deterministic fake features derived from the content hash keep the
    plumbing testable; ``strict=True`` raises."""

    def __init__(self, strict: bool = False):
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.strict:
            raise NotImplementedError("no audio decoder available")
        rms, zcr = [], []
        for p in batch.column("bytes").to_pylist():
            h = hashlib.blake2b(p or b"", digest_size=16).digest()
            rms.append(int.from_bytes(h[:8], "little") / 2**64)
            zcr.append(int.from_bytes(h[8:], "little") / 2**64)
        return (
            batch.drop_columns(["bytes"])
            .append_column("rms", pa.array(rms, type=pa.float64()))
            .append_column("zcr", pa.array(zcr, type=pa.float64()))
        )
