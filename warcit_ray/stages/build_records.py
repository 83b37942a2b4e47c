"""The core WARC-record-building stage.

One batch body, run in the convert wave's tasks, turns
payload-bearing candidate rows into WARC-equivalent record rows,
reproducing the per-file expansion order of the reference's serial
loop (warcit.py:426-442):

    resource -> auto-index revisit -> conversion records (results-list
    order) -> transclusion metadata records

Each expansion is assigned ``seq = candidate_seq + sub`` so a single
final ``sort('seq')`` (or the seq column in Parquet) reconstructs the
reference's exact output order under any parallelism (SURVEY §2.5).

Semantics reproduced, with citations:
- include/exclude truth table            warcit.py:466-476
- mapfile suffix match + URL/ts/CT use   warcit.py:332-342,487-501
- mime precedence chain                  warcit.py:620-659
- charset chain (ascii dropped)          warcit.py:661-716
- WARC-Date = mapfile ts | fixed | mtime warcit.py:494-501
- revisit record (digest + date copy)    warcit.py:542-566
- conversion extra headers + JSON meta   warcit.py:568-578
- transclusion urn:embeds + canonical JSON warcit.py:580-618
- SHA-1/base32 payload digest            (warcio parity; warcit.py:544)
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

from ..config import WarcitConfig
from ..functions.charset import charset_suffix
from ..functions.digests import record_id, sha1_b32
from ..functions.filters import IncludeExclude
from ..functions.mime import BUFF_SIZE, resolve_mime
from ..functions.timestamps import (
    epoch_to_iso_date,
    normalize_fixed_dt,
    timestamp_now,
    timestamp_to_iso_date,
)
from ..functions.urls import url_dirname_index
from ..sources.sidetables import match_mapfile

WARC_SCHEMA = pa.schema(
    [
        pa.field("seq", pa.int64()),
        pa.field("record_type", pa.string()),
        pa.field("target_uri", pa.string()),
        pa.field("warc_date", pa.string()),
        pa.field("creation_date", pa.string()),
        pa.field("source_uri", pa.string()),
        pa.field("content_type", pa.string()),
        pa.field("mime", pa.string()),
        pa.field("charset", pa.string()),
        pa.field("payload", pa.binary()),
        pa.field("content_length", pa.int64()),
        pa.field("payload_digest", pa.string()),
        pa.field("record_id", pa.string()),
        pa.field("refers_to_id", pa.string()),
        pa.field("refers_to_uri", pa.string()),
        pa.field("refers_to_date", pa.string()),
        pa.field("json_metadata", pa.string()),
        pa.field("log_file", pa.string()),
        pa.field("mapfile_row", pa.int64()),   # -1 = no match; feeds uniqueness check
    ]
)


def transclusion_metadata_json(url: str, contain_url: str, contain_ts: str,
                               selector: str | None,
                               conversions: list[dict],
                               orig_mime: str | None) -> str:
    """Canonical transclusion-metadata JSON (M10, warcit.py:580-618):
    {webpage_url, webpage_timestamp, selector?, formats:[successful
    conversions... + original{url, ext, mime?, original:true}]},
    serialized byte-exact as ``json.dumps(..., indent=2,
    sort_keys=True)`` (warcit.py:589)."""
    metadata: dict = {"webpage_url": contain_url, "webpage_timestamp": contain_ts}
    if selector:
        metadata["selector"] = selector
    formats = []
    for conv in conversions:
        if not conv.get("success"):
            continue
        m = dict(conv.get("metadata") or {})
        m["url"] = conv["url"]
        m["original_url"] = url
        formats.append(m)
    orig = {"url": url, "ext": url.rsplit(".")[-1], "original": True}
    if orig_mime:
        orig["mime"] = orig_mime
    formats.append(orig)
    metadata["formats"] = formats
    return json.dumps(metadata, indent=2, sort_keys=True)


class RecordBuilder:
    """Stateless batch stage: each task of the convert wave builds one
    from the config (``RecordBuilder(cfg)(batch)``), no actor pool.

    All config (patterns, overrides, broadcast side dicts) comes from
    the one ``cfg`` the driver puts in the object store and is prepared
    in ``__init__`` — the reference holds the same state as instance
    attributes of its single WARCIT object (SURVEY §2.3). Each task has
    its own instance, so the mime cache is per task.
    """

    def __init__(self, cfg: WarcitConfig):
        self.cfg = cfg
        self.filt = IncludeExclude(cfg.include, cfg.exclude)
        self.overrides = cfg.overrides
        self.filemap = cfg.mapfile or []
        self.conversions = cfg.conversions or {}
        self.transclusions = cfg.transclusions or {}
        self._mime_cache: dict = {}

    # -- per-record helpers --------------------------------------------------

    def _new_row(self, out: dict, **kv):
        for name in WARC_SCHEMA.names:
            out[name].append(kv.get(name))

    def _build_one(
        self,
        out: dict,
        seq: int,
        url: str,
        full_filename: str,
        payload: bytes,
        modified_iso: str,
        record_type: str = "resource",
        refers_to_id: str | None = None,
        refers_to_uri: str | None = None,
        refers_to_date: str | None = None,
        json_metadata: str | None = None,
    ):
        """make_record (warcit.py:464-540). Returns the emitted row's
        (url, record_id, warc_date, digest, content_type) or None if
        filtered out."""
        cfg = self.cfg
        if not self.filt.keep(full_filename):
            return None

        map_idx, map_row = (-1, None)
        if self.filemap:
            map_idx, map_row = match_mapfile(full_filename, self.filemap)

        map_ct = map_row.get("Content-Type") if map_row else None
        mime = resolve_mime(
            url, map_ct, self.overrides, cfg.mime_method,
            payload[:BUFF_SIZE], cfg.no_xhtml, self._mime_cache,
        )
        enc = charset_suffix(mime, cfg.charset, payload, map_ct)
        content_type = mime + enc

        if map_row and "URL" in map_row:
            url = map_row["URL"]

        if map_row and "timestamp" in map_row:
            warc_date = normalize_fixed_dt(map_row["timestamp"])
        elif cfg.fixed_dt:
            warc_date = cfg.fixed_dt
        else:
            warc_date = modified_iso

        digest = sha1_b32(payload)
        rid = record_id(url, warc_date, digest, record_type, seq)
        self._new_row(
            out,
            seq=seq,
            record_type=record_type,
            target_uri=url,
            warc_date=warc_date,
            creation_date=cfg.creation_date,
            source_uri="file://" + full_filename,
            content_type=content_type,
            mime=mime,
            charset=enc[10:],  # minus '; charset=' (warcit.py:537)
            payload=payload,
            content_length=len(payload),
            payload_digest=digest,
            record_id=rid,
            refers_to_id=refers_to_id,
            refers_to_uri=refers_to_uri,
            refers_to_date=refers_to_date,
            json_metadata=json_metadata,
            log_file=full_filename,
            mapfile_row=map_idx,
        )
        return url, rid, warc_date, digest, content_type

    def _revisit(self, out: dict, seq: int, url: str, digest: str,
                 warc_date: str, source_uri: str):
        """Auto-index revisit (warcit.py:542-566): same digest, WARC-Date
        inherited, empty payload."""
        index_url = url_dirname_index(url)
        rid = record_id(index_url, warc_date, digest, "revisit", seq)
        self._new_row(
            out,
            seq=seq,
            record_type="revisit",
            target_uri=index_url,
            warc_date=warc_date,
            creation_date=self.cfg.creation_date,
            source_uri=source_uri,
            payload=b"",
            content_length=0,
            payload_digest=digest,
            record_id=rid,
            refers_to_uri=url,
            refers_to_date=warc_date,
            log_file=source_uri[7:],  # shave 'file://' (warcit.py:560)
            mapfile_row=-1,
        )

    def _transclusions_for(self, out: dict, seq: int, url: str, orig_mime: str):
        """Transclusion metadata records (warcit.py:580-618 +
        converter.py:232-277)."""
        for tc in self.transclusions.get(url, []):
            if "url" not in tc:
                continue
            contain_url = tc["url"]
            contain_ts = str(tc.get("timestamp") or timestamp_now())
            if tc.get("metadata_file"):
                with open(tc["metadata_file"], "rt") as fh:
                    content = fh.read().encode("utf-8")
            else:
                content = transclusion_metadata_json(
                    url, contain_url, contain_ts, tc.get("selector"),
                    self.conversions.get(url, []), orig_mime).encode("utf-8")
            warc_date = timestamp_to_iso_date(contain_ts)
            embeds_url = "urn:embeds:" + contain_url
            digest = sha1_b32(content)
            rid = record_id(embeds_url, warc_date, digest, "resource", seq)
            self._new_row(
                out,
                seq=seq,
                record_type="resource",
                target_uri=embeds_url,
                warc_date=warc_date,
                creation_date=self.cfg.creation_date,
                source_uri=None,
                content_type="application/vnd.youtube-dl_formats+json",
                mime="application/vnd.youtube-dl_formats+json",
                charset="",
                payload=content,
                content_length=len(content),
                payload_digest=sha1_b32(content),
                record_id=rid,
                json_metadata=None,
                log_file="-",
                mapfile_row=-1,
            )
            seq += 1
        return seq

    # -- batch entry ----------------------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: dict = {name: [] for name in WARC_SCHEMA.names}
        seqs = batch.column("seq").to_pylist()
        urls = batch.column("url").to_pylist()
        fulls = batch.column("full_filename").to_pylist()
        misos = batch.column("modified_iso").to_pylist()
        payloads = batch.column("payload").to_pylist()

        for seq0, url, full, miso, payload in zip(seqs, urls, fulls, misos, payloads):
            res = self._build_one(out, seq0, url, full, payload or b"", miso)
            if res is None:
                continue
            r_url, r_id, r_date, r_digest, r_ct = res
            sub = 1
            # auto-index revisit (warcit.py:434-436)
            if self.cfg.index_files_tuple and r_url.lower().endswith(self.cfg.index_files_tuple):
                self._revisit(out, seq0 + sub, r_url, r_digest, r_date, "file://" + full)
                sub += 1
            # conversions (warcit.py:438-439, 568-578)
            for conv in self.conversions.get(r_url, []):
                if not conv.get("success"):
                    continue  # converter.py:209-211 skip-with-warning
                conv_path = conv["output"]
                try:
                    with open(conv_path, "rb") as fh:
                        conv_payload = fh.read()
                    conv_miso = epoch_to_iso_date(os.stat(conv_path).st_mtime)
                except OSError:
                    continue
                meta = conv.get("metadata")
                self._build_one(
                    out, seq0 + sub, conv["url"], conv_path, conv_payload, conv_miso,
                    record_type=conv.get("type", "conversion"),
                    refers_to_id=r_id,
                    refers_to_uri=r_url,
                    refers_to_date=r_date,
                    json_metadata=json.dumps(meta) if meta else None,
                )
                sub += 1
            # transclusion metadata (warcit.py:441-442)
            if self.transclusions:
                sub = self._transclusions_for(out, seq0 + sub, r_url, r_ct) - seq0

        return pa.table(out, schema=WARC_SCHEMA)


def warcinfo_row(cfg: WarcitConfig) -> pa.Table:
    """The warcinfo record (warcit.py:450-462), seq = -1 so it sorts
    first. Payload is the standard 'key: value' warcinfo block."""
    fields = [
        ("software", "warcit-ray " + __import__("warcit_ray").__version__),
        ("format", "WARC File Format 1.0"),
        ("cmdline", cfg.cmdline),
    ]
    content = "".join("%s: %s\r\n" % kv for kv in fields).encode("utf-8")
    out: dict = {name: [] for name in WARC_SCHEMA.names}
    rid = record_id(cfg.name, cfg.creation_date, sha1_b32(content),
                    "warcinfo", -1)
    for name in WARC_SCHEMA.names:
        out[name].append(None)
    row = dict(
        seq=-1, record_type="warcinfo", target_uri=cfg.name,
        warc_date=cfg.creation_date, creation_date=cfg.creation_date,
        content_type="application/warc-fields",
        mime="application/warc-fields", charset="",
        payload=content, content_length=len(content),
        payload_digest=sha1_b32(content), record_id=rid,
        log_file="-", mapfile_row=-1,
    )
    for name in WARC_SCHEMA.names:
        out[name][0] = row.get(name)
    return pa.table(out, schema=WARC_SCHEMA)


def check_mapfile_unique(ds, filemap_len: int) -> None:
    """Distributed analogue of the reference's matched-twice hard error
    (warcit.py:335-337): a mapfile row matching two files aborts.
    Each block counts its ``mapfile_row`` values; the driver sums those
    counts, one ``filemap_len`` vector per block."""
    if filemap_len == 0:
        return

    def block_counts(t: pa.Table) -> pa.Table:
        rows = t.column("mapfile_row").to_numpy()
        return pa.table({"n": [np.bincount(rows[rows >= 0], minlength=filemap_len)]})

    counts = ds.select_columns(["mapfile_row"]).map_batches(
        block_counts, batch_format="pyarrow", batch_size=None).take_all()
    dup = np.flatnonzero(sum((np.asarray(row["n"]) for row in counts),
                             np.zeros(filemap_len, np.int64)) > 1)
    if len(dup):
        raise ValueError(
            "Mapfile row(s) %s matched more than one file; ensure file names "
            "in your mapfile are unique" % dup.tolist()
        )
