"""URL construction, escaping, SURT canonicalization, zip pseudo-URLs.

Reference semantics reproduced (behavior spec, not code):
- path -> URL escaping: /root/reference/warcit/base.py:106-109
  (``PrefixedFileInfo``): path separators normalized to '/', leading and
  trailing '.'/'/' characters stripped, then each character in the RFC
  2396 reserved set plus '#' and space percent-encoded as LOWERCASE hex.
- zip pseudo-path parsing: /root/reference/warcit/base.py:63-79.

SURT canonicalization is NEW (north rule): the URL-seen set keys on
64-bit hashes of the SURT form.
"""

from __future__ import annotations

import hashlib
import os
import posixpath
import re
import struct
import zipfile
from urllib.parse import urlsplit

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .digests import row_bytes

# Characters escaped by the reference (base.py:107): RFC 2396 reserved
# set plus '#' and ' '. Order matters only in that it is applied
# sequentially to characters that never produce each other.
ESCAPE_CHARS = "#;?:@&=+$, "
_ESCAPE_MAP = {c: "%%%x" % ord(c) for c in ESCAPE_CHARS}


def escape_path(path: str) -> str:
    """Scalar version of the reference's path->URL escaping."""
    url = path.replace(os.path.sep, "/").strip("./")
    for ch, rep in _ESCAPE_MAP.items():
        url = url.replace(ch, rep)
    return url


def escape_path_array(paths: pa.Array | pa.ChunkedArray, url_prefix: str = "") -> pa.Array:
    """Vectorized path->URL escaping over an Arrow string column.

    Applies the same replacement chain as :func:`escape_path` with
    pyarrow compute kernels (no per-row Python).
    """
    arr = paths
    if os.path.sep != "/":  # pragma: no cover - posix container
        arr = pc.replace_substring(arr, os.path.sep, "/")
    # strip('./') == remove any leading/trailing '.' and '/' chars
    arr = pc.replace_substring_regex(arr, r"^[./]+", "")
    arr = pc.replace_substring_regex(arr, r"[./]+$", "")
    for ch, rep in _ESCAPE_MAP.items():
        arr = pc.replace_substring(arr, ch, rep)
    if url_prefix:
        arr = pc.binary_join_element_wise(pa.scalar(url_prefix), arr, "")
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr


def zip_entry_url(internal_name: str, zip_prefix: str, url_prefix: str) -> str:
    """Zip-entry URL (base.py:115-127): prefix stripped, NO percent escaping."""
    name = internal_name
    if zip_prefix and name.startswith(zip_prefix):
        name = name[len(zip_prefix):]
    return url_prefix + name.strip("./")


def parse_zip_pseudo_path(filename: str) -> tuple[bool, str, str]:
    """Walk a possibly-nonexistent path upward to find a real .zip ancestor.

    Returns ``(is_zip, zipfile_path, zip_prefix)`` with the exact truth
    table of the reference (base.py:63-79): a plain existing file ->
    (False, path, ''); an existing dir -> (False, '', ''); a missing
    path under a valid zip -> (True, zip_path, 'joined/inner/prefix');
    otherwise (False, '', '').
    """
    zip_path: list[str] = []
    while filename:
        if os.path.isfile(filename):
            if filename.endswith(".zip") and zipfile.is_zipfile(filename):
                return True, filename, "/".join(zip_path)
            return False, filename, ""
        if os.path.isdir(filename):
            return False, "", ""
        zip_path.insert(0, os.path.basename(filename))
        parent = os.path.dirname(filename)
        if parent == filename:
            break
        filename = parent
    return False, "", ""


# ---------------------------------------------------------------------------
# SURT canonicalization (new; public SURT spec shape: reversed host,
# lowercased, default ports dropped). file:// and zip pseudo-URLs are
# first-class frontier keys per the north rule.
# ---------------------------------------------------------------------------

_DEFAULT_PORTS = {"http": "80", "https": "443"}

# C-speed gate for the simple-host fast path: a host with no port,
# userinfo, IPv6 bracket or other URL punctuation (a python
# `any(c in host ...)` generator here cost ~1us/URL — 4x the match)
_SIMPLE_HOST_RX = re.compile(r"[A-Za-z0-9.\-]+\Z")


def surt(url: str) -> str:
    """Canonical SURT form of a URL.

    ``http://WWW.Example.com:80/a/b?x=1`` -> ``com,example,www)/a/b?x=1``.
    ``file://`` and ``zip://archive!member`` pseudo-URLs canonicalize to
    ``file:<path>`` / ``zip:<archive>!<member>`` (scheme-tagged, host-less).
    """
    if url.startswith("zip://"):
        return "zip:" + url[6:]
    if url.startswith("file://"):
        return "file:" + url[7:]
    # fast path for the overwhelmingly common shape
    # 'http(s)://simplehost/path' (no port/userinfo/query/fragment):
    # string ops only — urlsplit costs ~3us/URL, which dominates the
    # seen-probe stage at frontier scale
    if url.startswith("http://"):
        rest = url[7:]
    elif url.startswith("https://"):
        rest = url[8:]
    else:
        rest = None
    if rest is not None:
        slash = rest.find("/")
        host = rest[:slash] if slash >= 0 else rest
        if host and _SIMPLE_HOST_RX.match(host) and "?" not in rest and "#" not in rest:
            path = rest[slash:] if slash >= 0 else "/"
            return ",".join(reversed(host.lower().rstrip(".").split("."))) + ")" + path
    try:
        parts = urlsplit(url)
    except ValueError:
        return url
    if not parts.netloc:
        return url
    host = parts.hostname or ""
    host = host.lower().rstrip(".")
    port = ""
    try:
        p = parts.port
        if p is not None and str(p) != _DEFAULT_PORTS.get(parts.scheme.lower(), ""):
            port = ":%d" % p
    except ValueError:
        pass
    rev = ",".join(reversed(host.split(".")))
    path = parts.path or "/"
    q = ("?" + parts.query) if parts.query else ""
    return "%s%s)%s%s" % (rev, port, path, q)


def surt_host(url: str) -> str:
    """Politeness partition key: registered host for http(s), scheme tag
    for pseudo-URLs (all file:// traffic shares one 'host', like a local
    disk; each zip archive is its own host). String fast path for
    'http(s)://simplehost/...' (no port/userinfo) — urlsplit costs
    ~3us/URL, which showed up in the offer stage at frontier scale."""
    if url.startswith("zip://"):
        return "zip:" + url[6:].split("!", 1)[0]
    if url.startswith("file://"):
        return "file:"
    if url.startswith("http://"):
        rest = url[7:]
    elif url.startswith("https://"):
        rest = url[8:]
    else:
        rest = None
    if rest is not None:
        slash = rest.find("/")
        host = rest[:slash] if slash >= 0 else rest
        if host and ":" not in host and "@" not in host \
                and "?" not in host and "#" not in host \
                and "[" not in host and "]" not in host:
            return host.lower()
    try:
        h = urlsplit(url).hostname
    except ValueError:
        h = None
    return (h or "").lower()


def _reversed_labels(hosts: pa.Array) -> pa.Array:
    """``",".join(reversed(h.split(".")))`` of each host, in Arrow: one
    element-wise join per distinct label count."""
    labels = pc.split_pattern(hosts, ".")
    counts = pc.list_value_length(labels).to_numpy(zero_copy_only=False)
    out = hosts
    for k in np.unique(counts).tolist():
        sel = pa.array(counts == k)
        sub = labels.filter(sel)
        out = pc.replace_with_mask(out, sel, pc.binary_join_element_wise(
            *(pc.list_element(sub, i) for i in reversed(range(k))), ","))
    return out


def surt_batch(col) -> pa.Array:
    """Vectorized :func:`surt` over a URL column, as an Arrow string array.

    The common ``http(s)://simplehost/path`` shape (no port, userinfo,
    query or fragment) runs in Arrow kernels: scheme strip, regex
    host/path split, lowercase + trailing-dot trim — then the host
    reversal (the only genuinely stringy step) runs once per DISTINCT
    host via dictionary encoding (link batches repeat hosts at fanout
    scale). Rows outside the simple shape fall back to the scalar
    function, keeping the two paths semantically identical
    (parity-tested in tests/test_functions.py). The per-URL scalar
    ``surt`` loop was the largest single cost inside the seen-probe
    task (~3.2us/URL; 52ms of a 107ms 16k-row probe batch)."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    web = pc.or_(pc.starts_with(col, pattern="http://"),
                 pc.starts_with(col, pattern="https://"))
    # one split of the URL: ["http(s):", "", host, tail]; path = '/' +
    # join(parts[3:4]) — exactly '/tail' when a slash follows the host,
    # '/' when not. Other rows split a stand-in and take the scalar path.
    parts = pc.split_pattern(pc.if_else(web, col, "http:///"), "/", max_splits=3)
    # ASCII case folding suffices: a host that is not ASCII fails the
    # regex either way and takes the scalar path
    hostl = pc.ascii_rtrim(pc.ascii_lower(pc.list_element(parts, 2)), ".")
    tail = pc.binary_join(pc.list_slice(parts, 3, 4), "")
    path = pc.binary_join_element_wise(pa.scalar("/"), tail, "")
    simple = pc.and_(
        pc.and_(web, pc.match_substring_regex(hostl, r"^[a-z0-9.\-]+$")),
        pc.invert(pc.match_substring_regex(col, "[?#]")))
    # host reversal once per distinct host
    dic = hostl.dictionary_encode()
    rev = _reversed_labels(dic.dictionary).take(dic.indices)
    joined = pc.binary_join_element_wise(rev, path, ")")
    # ')' separator: rev + ')' + path == the simple-shape SURT; the
    # column stays in Arrow, only the other rows pass through Python
    if pc.all(simple).as_py() is not False:
        return joined
    other = pc.invert(simple)
    fallback = [surt(u) for u in col.filter(other).to_pylist()]
    return pc.replace_with_mask(joined, other, pa.array(fallback, type=pa.string()))


def surt_host_batch(col) -> pa.Array:
    """Vectorized :func:`surt_host` over a URL column, as an Arrow string
    array. The common ``http(s)://simplehost/...`` shape runs entirely in
    Arrow kernels — scheme strip, cut at first '/', lowercase, regex
    validate — so no Python executes per row; only rows outside the
    simple shape (ports, userinfo, IPv6, pseudo-URLs) fall back to the
    scalar function, which keeps the two paths semantically identical
    (parity-tested in tests/test_crawl.py)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    http = pc.starts_with(col, pattern="http://")
    https = pc.starts_with(col, pattern="https://")
    rest = pc.if_else(https, pc.utf8_slice_codeunits(col, 8),
                      pc.utf8_slice_codeunits(col, 7))
    host = pc.list_element(pc.split_pattern(rest, "/", max_splits=1), 0)
    hostl = pc.utf8_lower(host)
    simple = pc.and_(
        pc.or_(http, https),
        pc.and_(pc.not_equal(hostl, ""),
                pc.match_substring_regex(hostl, r"^[a-z0-9.\-]+$")))
    if pc.all(simple).as_py() is not False:
        return hostl
    other = pc.invert(simple)
    fallback = [surt_host(u) for u in col.filter(other).to_pylist()]
    return pc.replace_with_mask(hostl, other, pa.array(fallback, type=pa.string()))


def surt_hash64(s: str) -> int:
    """Stable 64-bit hash of a SURT string (blake2b-8; content-stable
    across processes, unlike Python's salted hash())."""
    return struct.unpack("<Q", hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest())[0]


def surt_hash64_batch(surts) -> np.ndarray:
    """:func:`surt_hash64` of each SURT (an Arrow string array or a
    list of str) as uint64: one blake2b-8 digest per row, one join, one
    little-endian view."""
    raw = (row_bytes(surts) if isinstance(surts, (pa.Array, pa.ChunkedArray))
           else [s.encode("utf-8") for s in surts])
    digests = bytearray().join([hashlib.blake2b(b, digest_size=8).digest()
                                for b in raw])
    return np.frombuffer(digests, dtype="<u8").astype(np.uint64, copy=False)


def url_dirname_index(url: str) -> str:
    """Auto-index revisit target (warcit.py:543): everything up to and
    including the final '/'."""
    return url.rsplit("/", 1)[0] + "/"
