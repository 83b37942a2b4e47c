"""Byte-exact golden for the WARC/1.0 serializer (fixed clock, fixed
payload) — guards the physical format against regressions."""

import gzip
import io
import random

from warcit_ray.functions.digests import record_id, sha1_b32
from warcit_ray.sinks.warc_sink import parse_warc, serialize_record


def _row():
    payload = b"hello warc\n"
    return {
        "record_type": "resource",
        "target_uri": "http://ex.com/a%20b.txt",
        "warc_date": "2020-01-02T03:04:05Z",
        "creation_date": "2026-01-01T00:00:00Z",
        "source_uri": "file:///tmp/a b.txt",
        "content_type": "text/plain; charset=UTF-8",
        "payload": payload,
        "payload_digest": sha1_b32(payload),
        "record_id": record_id("http://ex.com/a%20b.txt",
                               "2020-01-02T03:04:05Z", sha1_b32(payload),
                               "resource", 7),
    }


EXPECTED = (
    b"WARC/1.0\r\n"
    b"WARC-Type: resource\r\n"
    b"WARC-Record-ID: <urn:uuid:808f128c-c988-5494-8993-e05593deb3d8>\r\n"
    b"WARC-Date: 2020-01-02T03:04:05Z\r\n"
    b"WARC-Target-URI: http://ex.com/a%20b.txt\r\n"
    b"WARC-Creation-Date: 2026-01-01T00:00:00Z\r\n"
    b"WARC-Source-URI: file:///tmp/a b.txt\r\n"
    b"WARC-Payload-Digest: sha1:QYOKKXUYJWVJWLQNLKZANBPUTOMVEG7G\r\n"
    b"WARC-Block-Digest: sha1:QYOKKXUYJWVJWLQNLKZANBPUTOMVEG7G\r\n"
    b"Content-Type: text/plain; charset=UTF-8\r\n"
    b"Content-Length: 11\r\n"
    b"\r\n"
    b"hello warc\n"
    b"\r\n\r\n"
)


def test_serialize_record_golden_bytes():
    raw = serialize_record(_row(), gzip_member=False)
    assert raw == EXPECTED


def test_gzip_member_framing():
    gz = serialize_record(_row(), gzip_member=True)
    assert gz[:2] == b"\x1f\x8b"
    assert gzip.decompress(gz) == EXPECTED
    # two members concatenated parse as two records
    recs = parse_warc(gz + gz)
    assert len(recs) == 2
    assert recs[0]["payload"] == b"hello warc\n"
    assert recs[0]["headers"]["WARC-Payload-Digest"].startswith("sha1:")


def _gzip_file_bytes(raw: bytes) -> bytes:
    out = io.BytesIO()
    with gzip.GzipFile(fileobj=out, mode="wb", mtime=0) as gz:
        gz.write(raw)
    return out.getvalue()


def test_gzip_member_bytes_match_gzip_file():
    """Each member is byte for byte what gzip.GzipFile(mtime=0) writes
    for the record (header, deflate stream, CRC32/ISIZE trailer), for an
    empty payload, a ~3 KB page and a payload past 64 KiB."""
    rng = random.Random(3)
    words = ["warc", "record", "crawl", "frontier", "page", "<p>", "</p>"]
    page = " ".join(rng.choice(words) for _ in range(500)).encode()
    big = bytes(rng.getrandbits(8) for _ in range(40_000)) + page * 10
    for payload in (b"", page, big):
        row = dict(_row(), payload=payload, payload_digest=sha1_b32(payload))
        raw = serialize_record(row, gzip_member=False)
        assert serialize_record(row, gzip_member=True) == _gzip_file_bytes(raw)
    assert 2_500 < len(page) < 4_000 and len(big) > 64 * 1024
