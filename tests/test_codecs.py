"""Codec round-trips and the per-row invariant from BASELINE.json
input_hint: decoded-pixel allclose for lossless fmts, PSNR >= 40 dB for
the lossy fmt, caption equality."""

import numpy as np
import pytest

from warcit_ray.codecs import (
    ALL_FMTS,
    LOSSLESS_FMTS,
    decode,
    encode,
    phash64,
    psnr,
    sniff_fmt,
)
from warcit_ray.sources.synth import make_caption, make_image, make_image_table, make_row


@pytest.mark.parametrize("fmt", LOSSLESS_FMTS)
def test_lossless_roundtrip(fmt):
    img = make_image(7)
    out = decode(encode(img, fmt), fmt)
    assert np.array_equal(img, out)


def test_lossy_psnr_gate():
    for idx in range(8):
        img = make_image(idx)
        out = decode(encode(img, "dctq"), "dctq")
        assert psnr(img, out) >= 40.0


def test_lossy_noise_worst_case():
    rng = np.random.default_rng(0)
    noise = rng.integers(0, 256, (56, 72, 3), dtype=np.uint8)
    assert psnr(noise, decode(encode(noise, "dctq"), "dctq")) >= 40.0


def test_odd_sizes():
    rng = np.random.default_rng(1)
    for h, w in [(8, 8), (9, 13), (40, 41), (1, 1), (17, 64)]:
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        for fmt in ALL_FMTS:
            out = decode(encode(img, fmt), fmt)
            assert out.shape == img.shape


def test_sniff_fmt():
    img = make_image(3)
    for fmt in ALL_FMTS:
        assert sniff_fmt(encode(img, fmt)) == fmt


def test_phash_locality():
    img = make_image(11)
    h1 = phash64(img)
    # tiny noise -> small hamming distance; different image -> large
    img2 = np.clip(img.astype(int) + np.random.default_rng(2).integers(-2, 3, img.shape), 0, 255).astype(np.uint8)
    other = make_image(12)
    d_near = bin(h1 ^ phash64(img2)).count("1")
    d_far = bin(h1 ^ phash64(other)).count("1")
    assert d_near < d_far
    assert d_near <= 10


def test_synth_table_deterministic_and_invariant():
    t1 = make_image_table(12)
    t2 = make_image_table(12)
    assert t1.equals(t2)
    for row in t1.to_pylist():
        idx = int(row["image_id"][3:])
        src = make_image(idx)
        dec = decode(row["bytes"], row["fmt"])
        assert (row["h"], row["w"]) == src.shape[:2]
        if row["fmt"] in LOSSLESS_FMTS:
            assert np.array_equal(dec, src)
        else:
            assert psnr(dec, src) >= 40.0
        assert row["caption"] == make_caption(idx)
        assert row["phash"] == make_row(idx)["phash"]


def test_recode_batch_matches_direct_codec_calls():
    """The recode kernel equals the codec calls made one by one: one row
    per (image, target format), image-major, and a payload that does
    not decode comes back ok=False."""
    import pyarrow as pa

    from warcit_ray.functions.digests import sha1_b32
    from warcit_ray.stages.transcode import recode_batch

    t = make_image_table(4).select(["image_id", "bytes", "fmt"])
    t = pa.concat_tables([t, pa.table({
        "image_id": ["broken"], "bytes": [b"P6 not a pixmap"], "fmt": ["ppm"],
    }).cast(t.schema)])
    to_fmts = ("png", "dctq")
    want = []
    for row in t.to_pylist()[:4]:
        img = decode(row["bytes"], row["fmt"])
        for fmt in to_fmts:
            b = encode(img, fmt)
            want.append({"image_id": row["image_id"], "out_fmt": fmt, "ok": True,
                         "digest": sha1_b32(b), "nbytes": len(b),
                         "phash": phash64(img) & ((1 << 63) - 1),
                         "psnr_ok": psnr(img, decode(b, fmt)) >= 40.0})
    for fmt in to_fmts:
        want.append({"image_id": "broken", "out_fmt": fmt, "ok": False,
                     "digest": None, "nbytes": 0, "phash": None,
                     "psnr_ok": False})
    got = recode_batch(t, to_fmts).to_pylist()
    assert got == want
    assert all(r["psnr_ok"] for r in got[:8])


@pytest.mark.parametrize("data", [b"P6", b"P6 broken", b"P6\n4 4", b"P6 # no end",
                                  b"P6\n4 4\n255"])
def test_ppm_header_cut_short_raises(data):
    with pytest.raises(ValueError):
        decode(data, "ppm")
