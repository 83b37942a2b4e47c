"""Property/golden tests for the scalar library against the reference's
observable behaviors (SURVEY §5 item 5)."""

import numpy as np
import pyarrow as pa
import pytest

from warcit_ray.functions.charset import charset_suffix, detect_charset
from warcit_ray.functions.digests import record_id, sha1_b32
from warcit_ray.functions.filters import IncludeExclude
from warcit_ray.functions.mime import MimeOverrides, resolve_mime, sniff_mime
from warcit_ray.functions.timestamps import (
    normalize_fixed_dt,
    pad_timestamp,
    timestamp_to_iso_date,
)
from warcit_ray.functions.urls import (
    escape_path,
    escape_path_array,
    surt,
    surt_hash64,
    surt_host,
    url_dirname_index,
)


def test_escape_path_reference_semantics():
    # base.py:106-109: lowercase %xx for '#;?:@&=+$, ', strip('./')
    assert escape_path("a b/c#d") == "a%20b/c%23d"
    assert escape_path("./x/y.html") == "x/y.html"
    assert escape_path("q?a=1&b=2") == "q%3fa%3d1%26b%3d2"
    assert escape_path("p;q:r@s+t$u,v") == "p%3bq%3ar%40s%2bt%24u%2cv"


def test_escape_path_array_matches_scalar():
    paths = ["a b/c#d", "./x/y.html", "q?a=1&b=2", "plain/path.css", "..//weird"]
    arr = escape_path_array(pa.array(paths), "http://ex.com/")
    assert arr.to_pylist() == ["http://ex.com/" + escape_path(p) for p in paths]


def test_timestamp_pad_down_golden():
    # test_warcit.py:88-95 golden
    assert normalize_fixed_dt("2010-12-26T10:11:12") == "2010-12-26T10:11:12Z"
    # pad-down: partial timestamps floor to the earliest instant
    assert normalize_fixed_dt("2010") == "2010-01-01T00:00:00Z"
    assert normalize_fixed_dt("201006") == "2010-06-01T00:00:00Z"
    assert pad_timestamp("2019") == "20190101000000"
    assert timestamp_to_iso_date("20190102030000") == "2019-01-02T03:00:00Z"


def test_include_exclude_truth_table():
    # warcit.py:466-476
    both = IncludeExclude(["*.html"], ["*.js"])
    assert both.keep("a/b.html")
    assert not both.keep("a/b.js")
    assert both.keep("a/b.css")  # matches neither -> kept
    inc = IncludeExclude(["*.html"], None)
    assert inc.keep("A/B.HTML")  # case-insensitive
    assert not inc.keep("a/b.css")
    exc = IncludeExclude(None, ["*.js"])
    assert exc.keep("a/b.css")
    assert not exc.keep("a/B.JS")


def test_mime_precedence():
    ov = MimeOverrides("*/index.html=custom/mime")
    assert resolve_mime("http://x/index.html", None, ov, "filename", b"", False) == "custom/mime"
    assert resolve_mime("http://x/a.css?v=2", None, None, "filename", b"", False) == "text/css"
    assert resolve_mime("http://x/a.ico", None, None, "filename", b"", False) == "image/x-icon"
    assert resolve_mime("http://x/noext", None, None, "filename", b"", False) == "text/html"
    # mapfile content-type wins, pre-';' only (warcit.py:622-624)
    assert resolve_mime("http://x/a.css", "a/b; charset=x", None, "filename", b"", False) == "a/b"
    # no_xhtml rewrite (warcit.py:654-655)
    assert resolve_mime("http://x/a.xhtml", None, None, "filename", b"", True) == "text/html"


def test_sniff_mime():
    assert sniff_mime(b"\x89PNG\r\n\x1a\nrest") == "image/png"
    assert sniff_mime(b"BMxxxx") == "image/bmp"
    assert sniff_mime(b"  <!DOCTYPE html><html>") == "text/html"
    assert sniff_mime(b"plain words") == "text/plain"
    assert sniff_mime(b"\xff\xfe\x00\x01\x02") == "application/octet-stream"


def test_charset_semantics():
    # ascii detected -> dropped (warcit.py:679-684)
    assert detect_charset(b"hello world") == ""
    assert detect_charset("héllo".encode("utf-8")) == "UTF-8"
    assert detect_charset(b"h\xe9llo") == "windows-1252"
    assert charset_suffix("text/html", "custom", b"x") == "; charset=custom"
    assert charset_suffix("image/png", "custom", b"x") == ""        # non-text
    assert charset_suffix("text/html", None, b"x") == ""            # no mode
    assert charset_suffix("text/html", "detect", b"ascii only") == ""
    # mapfile content-type charset passthrough (warcit.py:662-665)
    assert charset_suffix("text/html", None, b"", "text/html; charset=zz") == "; charset=zz"


def test_digest_parity_format():
    # RFC 4648 base32 of SHA-1, 'sha1:' prefix (warcio format)
    assert sha1_b32(b"") == "sha1:3I42H3S6NNFQ2MSVX7XZKYAYSCX5QBYJ"
    assert sha1_b32(b"abc") == "sha1:VGMT4NSHA2AWVOR6EVYXQUGCNSONBWE5"


def test_record_id_deterministic():
    a = record_id("http://x/", "2020-01-01T00:00:00Z", "d", "resource", 5)
    b = record_id("http://x/", "2020-01-01T00:00:00Z", "d", "resource", 5)
    c = record_id("http://x/", "2020-01-01T00:00:00Z", "d", "resource", 6)
    assert a == b != c
    assert a.startswith("<urn:uuid:") and a.endswith(">")


def test_surt_and_host():
    assert surt("http://WWW.Example.com:80/a/b?x=1") == "com,example,www)/a/b?x=1"
    assert surt("https://example.com:8443/") == "com,example:8443)/"
    assert surt("file:///tmp/a.html") == "file:/tmp/a.html"
    assert surt("zip://ar.zip!m/x.html") == "zip:ar.zip!m/x.html"
    assert surt_host("http://A.B.com/x") == "a.b.com"
    assert surt_host("zip://ar.zip!m/x") == "zip:ar.zip"
    assert surt_host("file:///tmp/x") == "file:"
    assert surt_hash64("x") != surt_hash64("y")


def test_url_dirname_index():
    assert url_dirname_index("http://x/a/index.html") == "http://x/a/"


def test_surt_batch_parity():
    """surt_batch's Arrow fast path + scalar fallback == scalar surt on
    every URL shape the engine routes (simple, ports, userinfo, query,
    fragment, pseudo-URLs, trailing dots, case, no-path, odd chars)."""
    import pyarrow as pa

    from warcit_ray.functions.urls import surt, surt_batch

    urls = [
        "http://h07.example/img/img00000007",
        "https://h1757.example/private/img00001757",
        "http://WWW.Example.com:80/a/b?x=1",
        "https://example.com:8443/",
        "http://example.com",                     # no path
        "https://example.com./x",                 # trailing dot host
        "http://User:pw@example.com/x",           # userinfo
        "http://example.com/a#frag",              # fragment
        "http://example.com/a?x=1&y=2",           # query
        "file:///tmp/a.html",
        "zip://ar.zip!m/x.html",
        "http://[::1]:8080/x",                    # ipv6
        "http://ex_ample.com/x",                  # underscore host
        "http://EXAMPLE.COM/UPPER/path",
        "http://a.b.c.d.example.com/deep/path/x",
        "not-a-url",
        "",
    ]
    got = surt_batch(pa.array(urls, type=pa.string()))
    want = [surt(u) for u in urls]
    assert got.to_pylist() == want
    # every row of the simple shape: the Arrow path alone
    simple = pa.array(urls[:2] + urls[-4:-2], type=pa.string())
    assert surt_batch(simple).to_pylist() == [surt(u) for u in simple.to_pylist()]
    assert surt_batch(pa.array([], type=pa.string())).to_pylist() == []


def test_surt_hash64_batch_parity():
    from warcit_ray.functions.urls import surt_hash64_batch

    surts = ["com,example)/", "", "zip:ar.zip!m/ü.html", "x" * 300]
    want = np.array([surt_hash64(x) for x in surts], dtype=np.uint64)
    for arg in (surts, pa.array(surts), pa.array(["pad"] + surts).slice(1),
                pa.chunked_array([surts[:1], surts[1:]])):
        got = surt_hash64_batch(arg)
        assert got.dtype == np.uint64 and (got == want).all()
    assert len(surt_hash64_batch(pa.array([], type=pa.string()))) == 0


def test_digest_kernels_match_scalar():
    """sha1_b32_batch / record_id_batch equal the scalar functions:
    empty batch, empty and 1-byte payloads, non-ASCII URIs, seq -1 and
    above 2^32, and Arrow inputs that are slices or chunked."""
    from warcit_ray.functions.digests import record_id_batch, sha1_b32_batch

    assert sha1_b32_batch([]).to_pylist() == []
    payloads = [b"", b"a", "päyload".encode(), bytes(range(256)) * 40]
    want = [sha1_b32(p) for p in payloads]
    for arg in (payloads, pa.array(payloads, type=pa.binary()),
                pa.array([b"pad"] + payloads, type=pa.binary()).slice(1),
                pa.chunked_array([payloads[:2], payloads[2:]], type=pa.binary())):
        assert sha1_b32_batch(arg).to_pylist() == want
    uris = ["http://h01.example/img/img00000000", "http://bücher.example/ü?q=1",
            "", "file:///tmp/a b.html"]
    seqs = [0, -1, 2**33 + 7, 17]
    digests = sha1_b32_batch([u.encode() for u in uris])
    got = record_id_batch(pa.array(uris), "2026-01-01T00:00:00Z", digests,
                          "resource", pa.array(seqs, type=pa.int64()))
    assert got.to_pylist() == [
        record_id(u, "2026-01-01T00:00:00Z", d, "resource", s)
        for u, d, s in zip(uris, digests.to_pylist(), seqs)]
    empty = pa.array([], type=pa.string())
    assert record_id_batch(empty, "d", empty, "resource",
                           pa.array([], type=pa.int64())).to_pylist() == []


@pytest.mark.parametrize("kw", [dict(n=120), dict(n=16000, n_hosts=1997, fanout=8,
                                                   private_every=0),
                                dict(n=500, n_hosts=150, fanout=3, private_every=5),
                                dict(n=7, n_hosts=1, fanout=0)])
def test_webgraph_link_kernels_match_scalar(kw):
    """WebGraph.links_batch / urls_batch / idx_batch equal the scalar
    methods, idx 0 and n_hosts >= 100 included, private_every on and off."""
    from warcit_ray.pipelines.crawl import WebGraph

    g = WebGraph(**kw)
    idxs = np.arange(g.n, dtype=np.int64)
    assert g.links_batch(idxs).type == pa.list_(pa.string())
    assert g.links_batch(idxs).to_pylist() == [g.links(i) for i in range(g.n)]
    assert g.urls_batch(idxs).to_pylist() == [g.url(i) for i in range(g.n)]
    assert (g.idx_batch(pa.array([g.url(i) for i in range(g.n)])) == idxs).all()
    assert g.links_batch(idxs[:0]).to_pylist() == []
    with pytest.raises(ValueError):
        g.idx_batch(pa.array(["http://h00.example/img/img12x"]))


def test_bpeish_counts_match_regex():
    """VERDICT r4 #7: the vectorized run-classification piece counter
    (both the ASCII Arrow-buffer path and the Unicode join path) must
    equal len(_BPEISH_RX.findall(t)) for every text."""
    import random

    from warcit_ray.stages.text import (
        _BPEISH_RX,
        _bpeish_counts,
        _bpeish_counts_arrow,
        token_count_batch,
    )

    cases = ["", "hello world", "a1", "a-b", "--a", "x!y?z", "  \t\n ",
             "foo.bar!baz??12ab34", "é!", "naïve café's 123 ٣٤",
             "中文字符 mixed中with ascii", "1٣", " nbsp sep"]
    want = [len(_BPEISH_RX.findall(t)) for t in cases]
    assert list(_bpeish_counts(cases)) == want

    rng = random.Random(7)
    pool = "abcXYZ019 \t\n.,;!-'\"()"
    fuzz = ["".join(rng.choice(pool) for _ in range(rng.randrange(0, 120)))
            for _ in range(300)]
    want_f = [len(_BPEISH_RX.findall(t)) for t in fuzz]
    assert list(_bpeish_counts(fuzz)) == want_f
    # pure-ASCII fuzz goes through the zero-copy Arrow-buffer path
    arrow = _bpeish_counts_arrow(pa.array(fuzz))
    assert arrow is not None and list(arrow) == want_f
    # sliced column (nonzero Arrow offset)
    sl = pa.array(fuzz).slice(37, 120)
    assert list(_bpeish_counts_arrow(sl)) == want_f[37:157]
    # non-ASCII and null columns punt to the join path
    assert _bpeish_counts_arrow(pa.array(["café"])) is None
    out = token_count_batch(pa.table({"text": ["a b", None, "x!"]}))
    assert out.column("bpeish_tokens").to_pylist() == [2, 0, 2]
    # ws_tokens keeps Arrow null semantics for null text (pre-existing)
    assert out.column("ws_tokens").to_pylist() == [2, None, 1]
