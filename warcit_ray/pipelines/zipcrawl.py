"""Crawling LOCAL content through the frontier: ``zip://`` (and
``file://``) pseudo-URLs as first-class frontier entries, exactly as the
north rule requires and as the reference treats zip members as
pseudo-paths (base.py:63-79,115-136).

A zip archive is one "host" (``surt_host('zip://a.zip!m') ==
'zip:a.zip'``), so per-host politeness serializes it just like the
reference's serial walk — the crawl-order-vs-serial contract holds by
construction. Links are extracted from HTML payloads (href/src), made
absolute within the archive namespace, and fed back as new frontier
URLs; robots.txt found inside the archive gates the frontier.

Output rows are WARC-equivalent resource records (same digest/mime
semantics as the warc_build pipeline) plus a ``links`` list column.
"""

from __future__ import annotations

import os
import posixpath
import re
import zipfile

import pyarrow as pa

from ..functions.digests import record_id, sha1_b32
from ..functions.mime import guess_mime_filename
from ..functions.urls import surt_hash64
from ..state.robots import parse_robots

_LINK_RX = re.compile(r"""(?:href|src)\s*=\s*["']([^"']+)["']""", re.I)

# zip handles cached per worker process (also serves the WARC build's
# PayloadLoader), each with the archive's stat signature it was opened at
_ZIP_CACHE: dict[str, tuple[tuple, zipfile.ZipFile]] = {}


def zip_url(archive: str, member: str) -> str:
    return "zip://%s!%s" % (archive, member)


def open_zip(archive: str) -> zipfile.ZipFile:
    """The process's cached handle on ``archive``, reopened when the file
    at that path changed: worker processes outlive jobs, so a handle
    must not serve a rewritten archive's old bytes."""
    st = os.stat(archive)
    sig = (st.st_ino, st.st_size, st.st_mtime_ns)
    hit = _ZIP_CACHE.get(archive)
    if hit is None or hit[0] != sig:
        if hit is not None:
            hit[1].close()
        hit = _ZIP_CACHE[archive] = (sig, zipfile.ZipFile(archive))
    return hit[1]


def resolve_member(zp: zipfile.ZipFile, member: str) -> str | None:
    """A link may point at a file, an extensionless page, or a
    directory; try the natural variants (mirrors how a web server would
    resolve the reference corpus's links)."""
    names = set(zp.namelist())
    for cand in (member, member.rstrip("/") + "/index.html",
                 member.rstrip("/") + "/index.htm"):
        if cand in names and not cand.endswith("/"):
            return cand
    return None


def extract_links(html: str, base_member: str, site_root: str) -> list[str]:
    """href/src -> absolute member paths within the archive namespace.
    External (scheme-ful) links are dropped; root-relative paths anchor
    at ``site_root`` (the archive's internal site directory)."""
    out = []
    base_dir = posixpath.dirname(base_member)
    for raw in _LINK_RX.findall(html):
        raw = raw.split("#", 1)[0].split("?", 1)[0].strip()
        if not raw or "://" in raw or raw.startswith(("mailto:", "javascript:", "data:")):
            continue
        if raw.startswith("/"):
            target = posixpath.normpath(site_root + raw)
        else:
            target = posixpath.normpath(posixpath.join(base_dir, raw))
        if target.startswith(".."):
            continue
        out.append(target)
    return out


def zip_fetch_batch(batch: pa.Table, archive: str, site_root: str,
                    clock_iso: str) -> pa.Table:
    """Frontier rows (zip:// URLs) -> WARC-equivalent records + links."""
    zp = open_zip(archive)
    out = {
        "generation": [], "seq": [], "record_type": [], "target_uri": [],
        "host": [], "warc_date": [], "content_type": [], "payload": [],
        "content_length": [], "payload_digest": [], "record_id": [],
        "status": [], "links": [],
    }
    cache: dict = {}
    for row in batch.to_pylist():
        member = row["url"].split("!", 1)[1]
        resolved = resolve_member(zp, member)
        links: list[str] = []
        if resolved is None:
            payload, mime, status = b"", "text/html", 404
        else:
            payload = zp.read(resolved)
            mime = guess_mime_filename("http://x/" + resolved, cache) or "text/html"
            status = 200
            if mime in ("text/html", "text/xml") or (
                "." not in posixpath.basename(resolved)
            ):
                try:
                    html = payload.decode("utf-8", "replace")
                    links = [zip_url(archive, m)
                             for m in extract_links(html, resolved, site_root)]
                except Exception:
                    links = []
        digest = sha1_b32(payload)
        out["generation"].append(row["generation"])
        out["seq"].append(row["seq"])
        out["record_type"].append("resource")
        out["target_uri"].append(row["url"])
        out["host"].append(row["host"])
        out["warc_date"].append(clock_iso)
        out["content_type"].append(mime)
        out["payload"].append(payload)
        out["content_length"].append(len(payload))
        out["payload_digest"].append(digest)
        out["record_id"].append(
            record_id(row["url"], clock_iso, digest, "resource", row["seq"]))
        out["status"].append(status)
        out["links"].append(links)
    schema = pa.schema(
        [
            pa.field("generation", pa.int64()), pa.field("seq", pa.int64()),
            pa.field("record_type", pa.string()), pa.field("target_uri", pa.string()),
            pa.field("host", pa.string()), pa.field("warc_date", pa.string()),
            pa.field("content_type", pa.string()), pa.field("payload", pa.binary()),
            pa.field("content_length", pa.int64()), pa.field("payload_digest", pa.string()),
            pa.field("record_id", pa.string()), pa.field("status", pa.int64()),
            pa.field("links", pa.list_(pa.string())),
        ]
    )
    return pa.table(out, schema=schema)


def zip_frontier_table(urls: list[str]) -> pa.Table:
    """Frontier rows for pseudo-URLs: seq = stable 63-bit hash of the
    URL (content-stable discovery key -> deterministic per-host order)."""
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "priority": pa.array([0] * len(urls), type=pa.int64()),
            "seq": pa.array([int(surt_hash64(u) >> 1) for u in urls], type=pa.int64()),
            "payload_key": pa.array([""] * len(urls), type=pa.string()),
            "depth": pa.array([0] * len(urls), type=pa.int64()),
        }
    )


def zip_explode_links(records: pa.Table) -> pa.Table:
    links = records.column("links")
    if isinstance(links, pa.ChunkedArray):
        links = links.combine_chunks()
    return zip_frontier_table(links.flatten().to_pylist())


def file_url(path: str) -> str:
    return "file://" + path


def file_fetch_batch(batch: pa.Table, root_dir: str, clock_iso: str) -> pa.Table:
    """file:// frontier rows -> WARC-equivalent records + links.
    Same semantics as the zip fetcher, resolving against the local
    filesystem under ``root_dir`` (a directory link resolves to its
    index.html, mirroring a web server)."""
    import os

    out = {
        "generation": [], "seq": [], "record_type": [], "target_uri": [],
        "host": [], "warc_date": [], "content_type": [], "payload": [],
        "content_length": [], "payload_digest": [], "record_id": [],
        "status": [], "links": [],
    }
    cache: dict = {}
    root_parent = os.path.dirname(os.path.abspath(root_dir))
    for row in batch.to_pylist():
        path = row["url"][7:]
        resolved = None
        for cand in (path, os.path.join(path.rstrip("/"), "index.html"),
                     os.path.join(path.rstrip("/"), "index.htm")):
            if os.path.isfile(cand):
                resolved = cand
                break
        links: list[str] = []
        if resolved is None:
            payload, mime, status = b"", "text/html", 404
        else:
            with open(resolved, "rb") as fh:
                payload = fh.read()
            mime = guess_mime_filename("http://x/" + resolved, cache) or "text/html"
            status = 200
            if mime in ("text/html", "text/xml") or "." not in os.path.basename(resolved):
                rel = os.path.relpath(resolved, root_parent)
                members = extract_links(
                    payload.decode("utf-8", "replace"), rel,
                    os.path.basename(os.path.abspath(root_dir)))
                links = [file_url(os.path.join(root_parent, m)) for m in members]
        digest = sha1_b32(payload)
        out["generation"].append(row["generation"])
        out["seq"].append(row["seq"])
        out["record_type"].append("resource")
        out["target_uri"].append(row["url"])
        out["host"].append(row["host"])
        out["warc_date"].append(clock_iso)
        out["content_type"].append(mime)
        out["payload"].append(payload)
        out["content_length"].append(len(payload))
        out["payload_digest"].append(digest)
        out["record_id"].append(
            record_id(row["url"], clock_iso, digest, "resource", row["seq"]))
        out["status"].append(status)
        out["links"].append(links)
    schema = pa.schema(
        [
            pa.field("generation", pa.int64()), pa.field("seq", pa.int64()),
            pa.field("record_type", pa.string()), pa.field("target_uri", pa.string()),
            pa.field("host", pa.string()), pa.field("warc_date", pa.string()),
            pa.field("content_type", pa.string()), pa.field("payload", pa.binary()),
            pa.field("content_length", pa.int64()), pa.field("payload_digest", pa.string()),
            pa.field("record_id", pa.string()), pa.field("status", pa.int64()),
            pa.field("links", pa.list_(pa.string())),
        ]
    )
    return pa.table(out, schema=schema)


def crawl_dir(root_dir: str, seed_files: list[str], *,
              clock_iso: str = "2026-01-01T00:00:00Z", rate: float = 8.0,
              capacity: float = 16.0, max_generations: int = 40,
              num_seen_shards: int = 2, num_host_shards: int = 2,
              checkpoint_dir: str | None = None, resume: bool = False,
              seen_fp_bits: int = 32, track_visits: bool = True) -> dict:
    """Crawl a local directory tree through the frontier machinery
    (file:// pseudo-URLs; robots.txt at the tree root gates paths)."""
    import os

    from .crawl import crawl

    root_dir = os.path.abspath(root_dir)
    robots: dict[str, list[str]] = {}
    rp = os.path.join(root_dir, "robots.txt")
    if os.path.isfile(rp):
        with open(rp) as fh:
            # file:// paths are absolute, so site-relative Disallow
            # prefixes are anchored at the tree root here
            robots["file:"] = [root_dir + d for d in parse_robots(fh.read())]
    seeds = zip_frontier_table([file_url(os.path.join(root_dir, f))
                                for f in seed_files])
    return crawl(
        fetch_fn=file_fetch_batch,
        fetch_args=(root_dir, clock_iso),
        explode_fn=zip_explode_links,
        seeds=seeds,
        robots_map=robots,
        rate=rate, capacity=capacity, max_generations=max_generations,
        num_seen_shards=num_seen_shards, num_host_shards=num_host_shards,
        clock_iso=clock_iso, checkpoint_dir=checkpoint_dir, resume=resume,
        seen_fp_bits=seen_fp_bits, track_visits=track_visits,
    )


def crawl_zip(archive: str, site_root: str, seed_members: list[str], *,
              clock_iso: str = "2026-01-01T00:00:00Z", rate: float = 8.0,
              capacity: float = 16.0, max_generations: int = 40,
              num_seen_shards: int = 2, num_host_shards: int = 2,
              checkpoint_dir: str | None = None, resume: bool = False,
              seen_fp_bits: int = 32, track_visits: bool = True) -> dict:
    """Crawl a zip archive through the full frontier machinery
    (seen-set, politeness, robots, priority, checkpoint)."""
    from .crawl import crawl

    zp = zipfile.ZipFile(archive)
    robots: dict[str, list[str]] = {}
    robots_member = site_root + "/robots.txt"
    if robots_member in set(zp.namelist()):
        robots["zip:" + archive] = parse_robots(
            zp.read(robots_member).decode("utf-8", "replace"))
    zp.close()

    seeds = zip_frontier_table([zip_url(archive, m) for m in seed_members])
    return crawl(
        fetch_fn=zip_fetch_batch,
        fetch_args=(archive, site_root, clock_iso),
        explode_fn=zip_explode_links,
        seeds=seeds,
        robots_map=robots,
        rate=rate, capacity=capacity, max_generations=max_generations,
        num_seen_shards=num_seen_shards, num_host_shards=num_host_shards,
        clock_iso=clock_iso, checkpoint_dir=checkpoint_dir, resume=resume,
        seen_fp_bits=seen_fp_bits, track_visits=track_visits,
    )
