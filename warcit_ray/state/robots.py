"""Minimal robots.txt semantics for the crawl gate: User-agent: * groups,
Disallow path prefixes (empty Disallow = allow all). Standard public
robots exclusion protocol subset — enough to gate a frontier."""

from __future__ import annotations

from urllib.parse import urlsplit

import pyarrow as pa
import pyarrow.compute as pc

# url_path's fast-path shape, 'http(s)://simplehost/path' with no port,
# userinfo, query or fragment: the path is the text from the first '/'
_SIMPLE_PATH = r"^https?://[^/?#:@\[\]]+(?P<path>/[^?#]*)?$"


def parse_robots(text: str) -> list[str]:
    """Extract Disallow prefixes that apply to User-agent: * ."""
    disallows: list[str] = []
    applies = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, val = line.partition(":")
        key = key.strip().lower()
        val = val.strip()
        if key == "user-agent":
            applies = val == "*"
        elif key == "disallow" and applies and val:
            disallows.append(val)
    return disallows


def url_path(url: str) -> str:
    if url.startswith("zip://"):
        # member path after '!', relative to its first segment (the
        # archive's internal site root) — '/secret/x' inside
        # 'zip://a.zip!site/secret/x'
        member = url.split("!", 1)[-1]
        parts = member.split("/", 1)
        return "/" + (parts[1] if len(parts) > 1 else "")
    if url.startswith("file://"):
        return url[7:] or "/"
    # fast path for 'http(s)://simplehost/path' (no port/userinfo/
    # query/fragment) — urlsplit costs ~3us/URL, which dominated the
    # robots gate in HostShard.offer at frontier scale
    if url.startswith("http://"):
        rest = url[7:]
    elif url.startswith("https://"):
        rest = url[8:]
    else:
        rest = None
    if rest is not None and "?" not in rest and "#" not in rest:
        slash = rest.find("/")
        host = rest[:slash] if slash >= 0 else rest
        if host and ":" not in host and "@" not in host \
                and "[" not in host and "]" not in host:
            return rest[slash:] if slash >= 0 else "/"
    try:
        return urlsplit(url).path or "/"
    except ValueError:
        return "/"


def url_path_batch(urls) -> pa.Array:
    """:func:`url_path` of each URL of an Arrow string column: one regex
    kernel for the simple shape, the scalar function for other rows."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    path = pc.struct_field(pc.extract_regex(urls, _SIMPLE_PATH), "path")
    path = pc.if_else(pc.equal(path, ""), "/", path)
    other = pc.is_null(path)
    if not pc.any(other).as_py():
        return path
    fallback = [url_path(u) for u in urls.filter(other).to_pylist()]
    return pc.replace_with_mask(path, other, pa.array(fallback, type=pa.string()))


def allowed(url: str, disallows: list[str] | tuple[str, ...]) -> bool:
    if not disallows:
        return True
    path = url_path(url)
    return not any(path.startswith(d) for d in disallows)
