"""WARC/1.0 physical serialization.

Implements the WARC 1.0 record grammar from the public ISO 28500 spec
(the format warcio writes for the reference at warcit.py:409-422):
``WARC/1.0`` version line, CRLF headers, blank line, payload block,
two trailing CRLFs; when gzip is on, each record is its own gzip
member (the standard .warc.gz framing).

Two writers, one shape (:func:`write_shards`):
- :func:`write_warc_shards` — one .warc.gz per range of input files,
  named by the range's index (zero-padded, so lexicographic filename
  order == record order), plus a layout pin and per-part sidecars for
  resume.
- :func:`write_warc_file` — ONE output file, exclusive-create /
  overwrite / append modes exactly like the reference ('xb'/'wb'/'ab',
  warcit.py:143-148,409-419), its parts seq ranges appended in order
  (:func:`write_ranges`).
"""

from __future__ import annotations

import gzip
import io
import json
import os
import re
import shutil
import struct
import tempfile
import zlib
from functools import partial

import numpy as np
import pyarrow as pa

from ..functions.digests import row_bytes
from ..sources.seeds import part_of_seq
from ..stages.shuffle import dataset_blocks, shuffle_blocks

REVISIT_PROFILE = "http://netpreserve.org/warc/1.0/revisit/identical-payload-digest"


def serialize_record(row: dict, gzip_member: bool = True) -> bytes:
    """One WARC record -> bytes (optionally a standalone gzip member)."""
    rtype = row["record_type"]
    warc_type = "resource" if rtype not in (
        "warcinfo", "revisit", "conversion", "metadata", "response", "request", "resource"
    ) else rtype
    headers: list[tuple[str, str]] = [
        ("WARC-Type", warc_type),
        ("WARC-Record-ID", row["record_id"]),
        ("WARC-Date", row["warc_date"]),
    ]
    if rtype == "warcinfo":
        headers.append(("WARC-Filename", row["target_uri"]))
    else:
        headers.append(("WARC-Target-URI", row["target_uri"]))
    if row.get("creation_date"):
        headers.append(("WARC-Creation-Date", row["creation_date"]))
    if row.get("source_uri"):
        headers.append(("WARC-Source-URI", row["source_uri"]))
    if rtype == "revisit":
        headers.append(("WARC-Profile", REVISIT_PROFILE))
        if row.get("refers_to_uri"):
            headers.append(("WARC-Refers-To-Target-URI", row["refers_to_uri"]))
        if row.get("refers_to_date"):
            headers.append(("WARC-Refers-To-Date", row["refers_to_date"]))
    else:
        if row.get("refers_to_id"):
            headers.append(("WARC-Refers-To", row["refers_to_id"]))
        if row.get("refers_to_uri"):
            headers.append(("WARC-Refers-To-Target-URI", row["refers_to_uri"]))
        if row.get("refers_to_date"):
            headers.append(("WARC-Refers-To-Target-Date", row["refers_to_date"]))
    if row.get("json_metadata"):
        headers.append(("WARC-JSON-Metadata", row["json_metadata"]))
    payload = row.get("payload") or b""
    if row.get("payload_digest"):
        headers.append(("WARC-Payload-Digest", row["payload_digest"]))
        if rtype != "revisit":
            headers.append(("WARC-Block-Digest", row["payload_digest"]))
    if row.get("content_type") and rtype != "revisit":
        headers.append(("Content-Type", row["content_type"]))
    headers.append(("Content-Length", str(len(payload))))

    buf = io.BytesIO()
    buf.write(b"WARC/1.0\r\n")
    for k, v in headers:
        buf.write(("%s: %s\r\n" % (k, v)).encode("utf-8"))
    buf.write(b"\r\n")
    buf.write(payload)
    buf.write(b"\r\n\r\n")
    raw = buf.getvalue()
    if gzip_member:
        return _gzip_member(raw)
    return raw


# gzip.GzipFile's header for an unnamed stream at level 9: magic, deflate,
# no flags, mtime 0, XFL 2 (best compression), OS 255 (unknown)
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\xff"


def _gzip_member(raw: bytes) -> bytes:
    """``raw`` as one gzip member, byte for byte what
    ``gzip.GzipFile(fileobj=BytesIO(), mode="wb", mtime=0)`` writes, from
    one raw deflate stream instead of a file object per record.
    (``gzip.compress(raw, mtime=0)`` writes another OS byte on some
    Python versions.)"""
    deflate = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS)
    return b"".join((_GZIP_HEADER, deflate.compress(raw), deflate.flush(),
                     struct.pack("<II", zlib.crc32(raw), len(raw) & 0xFFFFFFFF)))


def serialize_batch(batch: pa.Table, gzip_members: bool = True) -> bytes:
    return b"".join(serialize_record(row, gzip_members) for row in batch.to_pylist())


def serialize_rows(t: pa.Table, gzip_members: bool = True) -> pa.Table:
    """Map side of both WARC sinks: each record of ``t`` as its WARC
    bytes (:func:`serialize_record`), keyed by its seq."""
    warc = [serialize_record(row, gzip_members) for row in t.to_pylist()]
    return pa.table({"seq": t.column("seq"), "warc": pa.array(warc, pa.large_binary())})


def _prepare(prepare, block, *args) -> tuple:
    """``prepare`` over a block, as an Arrow table, and its (min, max) ``seq``."""
    from ray.data.block import BlockAccessor

    t = prepare(BlockAccessor.for_block(block).to_arrow(), *args)
    seq = t.column("seq").to_numpy()
    return t, ((int(seq.min()), int(seq.max())) if len(seq) else None)


def seq_ranges(bounds: list):
    """The single-file sinks' part function: the merged span ``[lo, hi]``
    of the blocks' (min, max) seq ``bounds`` cut into one range per
    block, ``(seq - lo) // ceil((hi - lo + 1) / blocks)`` in uint64."""
    import ray

    got = [b for b in ray.get(bounds) if b] or [(0, 0)]
    lo, hi = min(b[0] for b in got), max(b[1] for b in got)
    width = np.uint64(-(-(hi - lo + 1) // max(1, len(bounds))))
    return lambda seq: ((seq.astype(np.int64, copy=False).view(np.uint64)
                         - np.uint64(lo % 2**64)) // width).astype(np.int64)


def write_shards(ds, prepare, args: tuple, part_of, write_shard,
                 batch_format: str = "pyarrow") -> list[tuple[str, int]]:
    """The sinks' one shape: ``prepare(table, *args)`` runs as a task on
    each block of ``ds`` beside its (min, max) ``seq``, whose refs are the
    ``bounds``; one shuffle sends each row to part ``part_of(bounds)(seq)``;
    ``write_shard(part, rows)`` writes a part and returns its manifest
    row (``path``, ``records``). Returns the manifest, sorted by path."""
    import ray

    prep = ray.remote(_prepare).options(num_returns=2)
    blocks = [(prep.remote(prepare, ref, *args), size) for ref, size in dataset_blocks(ds)]
    key = part_of([b for (_, b), _ in blocks])
    parts = shuffle_blocks([(t, size) for (t, _), size in blocks],
                           lambda t: key(t["seq"].to_numpy()),
                           write_shard, batch_format=batch_format)
    return sorted(row for t in ray.get([ref for ref, meta in parts if meta.num_rows])
                  for row in zip(t["path"].to_pylist(), t["records"].to_pylist()))


def write_ranges(ds, prepare, args: tuple, range_bytes, path: str, mode: str,
                 head: bytes = b"", batch_format: str = "pyarrow") -> int:
    """ONE file from :func:`write_shards`: ``path`` opens in ``mode``
    ('xb'/'ab'/'wb') before any task runs and gets ``head``, then each
    :func:`seq_ranges` range's ``range_bytes(rows)``, which a reduce task
    writes to a private temp directory beside ``path`` and the driver
    copies in range order. Returns the row count."""
    if mode not in ("xb", "wb", "ab"):
        raise ValueError("mode must be xb/wb/ab")
    with open(path, mode) as fh, tempfile.TemporaryDirectory(
            dir=os.path.dirname(os.path.abspath(path))) as tmp:
        fh.write(head)

        def write_range(r: int, rows) -> pa.Table:
            name = os.path.join(tmp, "range-%020d" % r)
            with open(name, "wb") as out:
                out.write(range_bytes(rows))
            return pa.table({"path": [name], "records": [len(rows)]})

        ranges = write_shards(ds, prepare, args, seq_ranges, write_range, batch_format)
        for name, _ in ranges:
            with open(name, "rb") as src:
                shutil.copyfileobj(src, fh)
    return sum(n for _, n in ranges)


def write_warc_file(ds, path: str, mode: str = "xb", gzip_members: bool = True) -> int:
    """The record Dataset (carrying seq) as ONE WARC file in seq order
    (:func:`write_ranges`). Returns the record count."""
    return write_ranges(ds, serialize_rows, (gzip_members,),
                        lambda g: b"".join(row_bytes(g.sort_by("seq").column("warc"))),
                        path, mode)


# every name write_warc_shards writes: its parts, their sidecars, their
# tmp files and the layout pin; mode='wb' deletes these and nothing else
_SINK_NAME = r"part-\d{20}(\.warc(\.gz)?|\.meta\.json)(\.tmp)?|_shards\.json"
_WARC_PART = r"part-\d{20}\.warc(\.gz)?"


def pin_layout(out_dir: str, meta: dict, part_rx: str) -> None:
    """Pin a sharded sink's layout parameters in ``<out_dir>/_shards.json``
    on first write. A resume with different parameters would write a
    second, overlapping set of parts under different names, and a
    directory holding parts (file names matching ``part_rx``) but no
    sidecar cannot be verified at all: both raise."""
    path = os.path.join(out_dir, "_shards.json")
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
        if old != meta:
            raise ValueError(
                "existing shard layout %r does not match requested %r — "
                "a resume would write overlapping parts under different "
                "names" % (old, meta))
        return
    if any(re.fullmatch(part_rx, f) for f in os.listdir(out_dir)):
        raise ValueError(
            "%s contains parts but no _shards.json sidecar — cannot verify "
            "their layout; delete the parts or write the sidecar manually"
            % out_dir)
    with open(path, "w") as fh:
        json.dump(meta, fh)


def write_warc_shards(ds, out_dir: str, mode: str = "xb",
                      gzip_members: bool = True,
                      files_per_part: int = 1024) -> list[str]:
    """Sharded writer with DETERMINISTIC part boundaries: records
    partition on fixed ranges of ``files_per_part`` input files
    (:func:`part_of_seq`), so a rerun under any CPU count or block split
    writes byte-identical parts ``<out_dir>/part-<shard:020d>.warc.gz``
    (tmp + rename; filename order == record order) and resume is safe.
    A ``_shards.json`` pin of (files_per_part, gzip) makes a resume with
    other parameters, or into unpinned parts, fail (:func:`pin_layout`).

    ``mode='ab'`` = resume/append. Every part has a sidecar
    ``part-<shard>.meta.json`` (records, max_seq, sha256), so append is
    not skip-blind: rows at or below the recorded ``max_seq`` are
    digest-verified against the on-disk prefix (identical rerun ->
    skip) and HIGHER seqs are appended (gzip members concatenate). A
    mismatch — the input of a written range changed — raises. A rerun
    of an applied delta byte-verifies the on-disk suffix and no-ops,
    and a crash between the part and meta renames is healed on retry
    by rewriting only the meta — never a double append."""
    import hashlib

    out_dir = os.path.abspath(out_dir)  # workers have their own CWD
    if os.path.isdir(out_dir):
        if mode == "xb" and any(re.fullmatch(_WARC_PART, f)
                                for f in os.listdir(out_dir)):
            raise FileExistsError(
                out_dir + " already contains WARC shards (use mode='wb'/'ab')")
        if mode == "wb":
            for f in os.listdir(out_dir):
                if re.fullmatch(_SINK_NAME, f):
                    os.remove(os.path.join(out_dir, f))
    os.makedirs(out_dir, exist_ok=True)
    ext = ".warc.gz" if gzip_members else ".warc"
    pin_layout(out_dir, {"files_per_part": int(files_per_part),
                         "gzip": bool(gzip_members)}, _WARC_PART)

    def _part_meta_path(shard_id: int) -> str:
        return os.path.join(out_dir, "part-%020d.meta.json" % shard_id)

    def _write_meta(shard_id: int, records: int, max_seq: int,
                    sha256: str) -> None:
        mtmp = _part_meta_path(shard_id) + ".tmp"
        with open(mtmp, "w") as fh:
            json.dump({"records": records, "max_seq": max_seq,
                       "sha256": sha256}, fh)
        os.replace(mtmp, _part_meta_path(shard_id))

    def _write_part(name: str, shard_id: int, payload: bytes,
                    records: int, max_seq: int) -> None:
        tmp = name + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, name)         # part first, then meta: a missing
        _write_meta(shard_id, records, max_seq,   # meta is recoverable
                    hashlib.sha256(payload).hexdigest())

    def write_shard(shard_id: int, g: pa.Table) -> pa.Table:
        g = g.sort_by("seq")
        name = os.path.join(out_dir, "part-%020d%s" % (shard_id, ext))
        seqs = g.column("seq").to_pylist()
        warc = row_bytes(g.column("warc"))  # each record's bytes, in seq order
        if not os.path.exists(name):
            _write_part(name, shard_id, b"".join(warc), g.num_rows, int(seqs[-1]))
            return pa.table({"path": [name], "records": [g.num_rows]})
        # part exists: verify-then-append (never skip-blind — every
        # branch below checks on-disk bytes before writing or no-op'ing)
        pmeta = _part_meta_path(shard_id)
        if os.path.exists(pmeta):
            with open(pmeta) as fh:
                old = json.load(fh)
            n_old = sum(1 for s in seqs if s <= old["max_seq"])
            # disk bytes load lazily: the common pure-no-op resume
            # (prefix hash matches the sidecar, nothing to append)
            # writes nothing, so it need not read+hash a multi-GB part
            # — a desync would be caught by the next actual append
            _disk: list = []

            def _load_disk() -> tuple:
                if not _disk:
                    with open(name, "rb") as fh:
                        data = fh.read()
                    _disk.append((data, hashlib.sha256(data).hexdigest()))
                return _disk[0]

            if n_old:
                prefix = b"".join(warc[:n_old])
                if hashlib.sha256(prefix).hexdigest() != old["sha256"]:
                    # retry of an ALREADY-APPLIED delta: the supplied
                    # "overlap" rows are the part's suffix (appended by
                    # the prior run, whose meta now covers them), not
                    # its prefix — a byte-verified no-op, not an error
                    existing, disk_sha = _load_disk()
                    if not (disk_sha == old["sha256"]
                            and existing.endswith(prefix)):
                        raise ValueError(
                            "%s: rows for already-written seq range <= %d "
                            "differ from the on-disk part (changed input or "
                            "shifted walk order) — refusing to append; use "
                            "mode='wb' to rewrite" % (name, old["max_seq"]))
            if n_old < g.num_rows:  # genuinely new higher-seq rows: append
                tail = b"".join(warc[n_old:])
                existing, disk_sha = _load_disk()
                if disk_sha != old["sha256"]:
                    # part/meta desync — a crash landed between the part
                    # rename and the meta rename. Recoverable IFF the
                    # on-disk extra bytes are exactly this delta's tail
                    # (the append already happened): heal the meta and
                    # do NOT append the same records a second time.
                    if (existing.endswith(tail)
                            and hashlib.sha256(
                                existing[: len(existing) - len(tail)]
                            ).hexdigest() == old["sha256"]):
                        _write_meta(shard_id,
                                    old["records"] + (g.num_rows - n_old),
                                    int(seqs[-1]), disk_sha)
                    else:
                        raise ValueError(
                            "%s: on-disk bytes do not match the recorded "
                            "sha256 and do not end with this run's delta — "
                            "part/meta desync from an unrelated write; use "
                            "mode='wb' to rewrite" % name)
                else:
                    _write_part(name, shard_id, existing + tail,
                                old["records"] + (g.num_rows - n_old),
                                int(seqs[-1]))
        else:
            # part without sidecar: identical rerun skips, any
            # difference is an error (no way to know what's already in it)
            with open(name, "rb") as fh:
                existing = fh.read()
            if existing != b"".join(warc):
                raise ValueError(
                    "%s exists without a .meta.json sidecar and its bytes "
                    "differ from this run's records — refusing to guess; "
                    "use mode='wb' to rewrite" % name)
            # identical initial write whose meta rename was lost to a
            # crash (part-then-meta protocol): heal the sidecar now, or
            # every future delta append to this shard dead-ends on the
            # missing-meta error above
            _write_meta(shard_id, g.num_rows, int(seqs[-1]),
                        hashlib.sha256(existing).hexdigest())
        return pa.table({"path": [name], "records": [g.num_rows]})

    parts = write_shards(ds, serialize_rows, (gzip_members,),
                         lambda _: partial(part_of_seq, files_per_part=files_per_part),
                         write_shard)
    return [path for path, _ in parts]


# --- parser (for round-trip tests) ------------------------------------------

def parse_warc(data: bytes) -> list[dict]:
    """Parse .warc / .warc.gz bytes back into header-dict + payload rows."""
    if data[:2] == b"\x1f\x8b":
        # concatenated gzip members
        data = gzip.decompress(data)
    records = []
    pos = 0
    while pos < len(data):
        nl = data.index(b"\r\n", pos)
        version = data[pos:nl].decode()
        if not version.startswith("WARC/"):
            raise ValueError("bad record start at %d: %r" % (pos, version))
        pos = nl + 2
        headers: dict[str, str] = {}
        while True:
            nl = data.index(b"\r\n", pos)
            line = data[pos:nl].decode("utf-8")
            pos = nl + 2
            if not line:
                break
            k, v = line.split(": ", 1)
            headers[k] = v
        length = int(headers["Content-Length"])
        payload = data[pos: pos + length]
        pos += length + 4  # two CRLFs
        records.append({"headers": headers, "payload": payload})
    return records


def read_warc_dir(out_dir: str) -> list[dict]:
    """The records of the WARC parts in ``out_dir`` (not a crash's .tmp)."""
    recs = []
    for f in sorted(os.listdir(out_dir)):
        if re.fullmatch(_WARC_PART, f):
            with open(os.path.join(out_dir, f), "rb") as fh:
                recs.extend(parse_warc(fh.read()))
    return recs
