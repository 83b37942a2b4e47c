"""zip:// pseudo-URL crawl over the reference's own 22-file corpus —
the frontier machinery (seen-set, politeness, robots, priority) driving
local archive content, per the north rule."""

import os

import pyarrow.parquet as pq

from warcit_ray.pipelines.zipcrawl import (
    crawl_zip,
    extract_links,
    resolve_member,
    zip_url,
)

from .conftest import IANA_ZIP

ROOT = "www.iana.org"


def test_extract_links_resolution():
    html = '<a href="/domains">d</a> <a href="about/">a</a> ' \
           '<img src="../_img/x.png"> <a href="http://ext.example/">e</a>' \
           '<a href="page.html?q=1#frag">p</a>'
    links = extract_links(html, ROOT + "/sub/index.html", ROOT)
    assert links == [
        ROOT + "/domains",
        ROOT + "/sub/about",   # normpath drops the trailing slash form
        ROOT + "/_img/x.png",
        ROOT + "/sub/page.html",
    ]


def test_resolve_member_variants():
    import zipfile

    zp = zipfile.ZipFile(IANA_ZIP)
    assert resolve_member(zp, ROOT + "/index.html") == ROOT + "/index.html"
    # directory link -> index.html
    assert resolve_member(zp, ROOT + "/about") == ROOT + "/about/index.html"
    assert resolve_member(zp, ROOT + "/nope") is None
    # extensionless page resolves directly
    assert resolve_member(zp, ROOT + "/domains/idn-tables") == ROOT + "/domains/idn-tables"
    zp.close()


def test_crawl_zip_end_to_end(tmp_path):
    ck = str(tmp_path / "ck")
    res = crawl_zip(IANA_ZIP, ROOT, [ROOT + "/index.html"],
                    checkpoint_dir=ck, max_generations=40)
    visited = {u for _, _, u in res["visit_log"]}
    # the seed and its direct assets are reached
    assert zip_url(IANA_ZIP, ROOT + "/index.html") in visited
    assert zip_url(IANA_ZIP, ROOT + "/_css/2015.1/screen.css") in visited
    # a healthy portion of the 22-file corpus is reachable by links
    assert len(visited) >= 10
    # single host -> politeness caps per-generation admissions at capacity
    per_gen: dict = {}
    for g, h, u in res["visit_log"]:
        per_gen.setdefault(g, 0)
        per_gen[g] += 1
    assert max(per_gen.values()) <= 16
    # records on disk: digests + payloads verify against the zip itself
    import hashlib
    import zipfile
    import base64

    zp = zipfile.ZipFile(IANA_ZIP)
    rows = []
    for g in sorted(os.listdir(ck)):
        d = os.path.join(ck, g, "records")
        if os.path.isdir(d):
            for f in sorted(os.listdir(d)):
                rows.extend(pq.read_table(os.path.join(d, f)).to_pylist())
    ok = [r for r in rows if r["status"] == 200]
    assert len(ok) >= 10
    for r in ok[:20]:
        member = r["target_uri"].split("!", 1)[1]
        payload = bytes(r["payload"])
        expected = "sha1:" + base64.b32encode(hashlib.sha1(payload).digest()).decode()
        assert r["payload_digest"] == expected
        assert len(payload) == r["content_length"]
    zp.close()
    # determinism: a second run visits the identical URL set in the same
    # per-generation grouping
    res2 = crawl_zip(IANA_ZIP, ROOT, [ROOT + "/index.html"],
                     max_generations=40)
    assert sorted(res["visit_log"]) == sorted(res2["visit_log"])


def test_crawl_zip_robots_gate(tmp_path):
    # synthesize an archive with a robots-disallowed subtree
    import zipfile

    arch = str(tmp_path / "site.zip")
    with zipfile.ZipFile(arch, "w") as zp:
        zp.writestr("site/robots.txt", "User-agent: *\nDisallow: /secret/\n")
        zp.writestr("site/index.html",
                    '<a href="/secret/x.html">s</a><a href="/ok.html">o</a>')
        zp.writestr("site/secret/x.html", "<html>hidden</html>")
        zp.writestr("site/ok.html", "<html>fine</html>")
    res = crawl_zip(arch, "site", ["site/index.html"], max_generations=10)
    visited = {u.split("!", 1)[1] for _, _, u in res["visit_log"]}
    assert "site/ok.html" in visited
    assert "site/secret/x.html" not in visited
    assert res["robots_blocked"] >= 1


def test_crawl_zip_resume(tmp_path):
    full_ck = str(tmp_path / "full")
    crawl_zip(IANA_ZIP, ROOT, [ROOT + "/index.html"],
              checkpoint_dir=full_ck, max_generations=12)
    part_ck = str(tmp_path / "part")
    crawl_zip(IANA_ZIP, ROOT, [ROOT + "/index.html"],
              checkpoint_dir=part_ck, max_generations=3)
    crawl_zip(IANA_ZIP, ROOT, [ROOT + "/index.html"],
              checkpoint_dir=part_ck, max_generations=12, resume=True)

    def all_visited(root):
        out = []
        for g in sorted(os.listdir(root)):
            d = os.path.join(root, g, "records")
            if os.path.isdir(d):
                for f in sorted(os.listdir(d)):
                    out.extend(r["target_uri"]
                               for r in pq.read_table(os.path.join(d, f)).to_pylist())
        return sorted(out)

    assert all_visited(full_ck) == all_visited(part_ck)


def test_crawl_dir_end_to_end(iana_dir, tmp_path):
    from warcit_ray.pipelines.zipcrawl import crawl_dir, file_url

    ck = str(tmp_path / "ck")
    res = crawl_dir(iana_dir, ["index.html"], checkpoint_dir=ck,
                    max_generations=40)
    visited = {u for _, _, u in res["visit_log"]}
    assert file_url(os.path.join(iana_dir, "index.html")) in visited
    # NOTE: which non-seed URLs win admission under this TIGHT budget
    # depends on the hash-ordered priority seq (a function of the tmp
    # dir path) — only budget-independent facts are asserted here;
    # specific deep URLs are asserted on the full-drain crawl below.
    assert len(visited) >= 10
    # all visits share the single 'file:' politeness host
    assert {h for _, h, _ in res["visit_log"]} == {"file:"}
    # visited set matches the zip crawl of the same corpus (same link graph)
    # visited set matches the zip crawl of the same corpus ONLY when both
    # drain the whole reachable graph — with a tight politeness budget the
    # two visit different hash-ordered subsets (priority seq is a hash of
    # the URL string, which differs between zip:// and file:// forms)
    # full drain: the corpus link graph reaches 7,606 URLs (22 real files,
    # the rest 404 targets from idn-tables' link farm)
    zres = crawl_zip(IANA_ZIP, ROOT, [ROOT + "/index.html"],
                     rate=1024.0, capacity=2048.0, max_generations=12)
    fres = crawl_dir(iana_dir, ["index.html"],
                     rate=1024.0, capacity=2048.0, max_generations=12)

    def member_rel(m):
        parts = m.split("/", 1)
        return parts[1] if len(parts) > 1 else "."

    zip_members = {member_rel(u.split("!", 1)[1]) for _, _, u in zres["visit_log"]}
    file_members = {os.path.relpath(u[7:], iana_dir)
                    for _, _, u in fres["visit_log"]}
    assert file_members == zip_members
    # the full drain reaches every real file, deep CSS included
    assert file_url(os.path.join(iana_dir, "_css/2015.1/screen.css")) in \
        {u for _, _, u in fres["visit_log"]}


def test_crawl_dir_robots(tmp_path):
    from warcit_ray.pipelines.zipcrawl import crawl_dir

    root = tmp_path / "site"
    (root / "secret").mkdir(parents=True)
    (root / "robots.txt").write_text("User-agent: *\nDisallow: /secret/\n")
    (root / "index.html").write_text(
        '<a href="/secret/x.html">s</a><a href="/ok.html">o</a>')
    (root / "secret" / "x.html").write_text("<html>hidden</html>")
    (root / "ok.html").write_text("<html>fine</html>")
    res = crawl_dir(str(root), ["index.html"], max_generations=10)
    visited = {os.path.basename(u) for _, _, u in res["visit_log"]}
    assert "ok.html" in visited and "x.html" not in visited
    assert res["robots_blocked"] >= 1


def test_crawl_records_serialize_to_warc(tmp_path):
    """Crawl record rows are WARC-serializable end to end: crawl the
    archive, serialize the checkpointed records to .warc.gz, parse back."""
    import pyarrow as pa

    from warcit_ray.sinks.warc_sink import parse_warc, serialize_batch

    ck = str(tmp_path / "ck")
    crawl_zip(IANA_ZIP, ROOT, [ROOT + "/index.html"],
              checkpoint_dir=ck, max_generations=6)
    tables = []
    for g in sorted(os.listdir(ck)):
        d = os.path.join(ck, g, "records")
        if os.path.isdir(d):
            for f in sorted(os.listdir(d)):
                tables.append(pq.read_table(os.path.join(d, f)))
    records = pa.concat_tables(tables)
    ok = records.filter(pa.compute.equal(records["status"], 200))
    warc_path = tmp_path / "crawl.warc.gz"
    warc_path.write_bytes(serialize_batch(ok.sort_by("seq")))
    parsed = parse_warc(warc_path.read_bytes())
    assert len(parsed) == ok.num_rows > 5
    assert all(p["headers"]["WARC-Type"] == "resource" for p in parsed)
    assert all(p["headers"]["WARC-Target-URI"].startswith("zip://") for p in parsed)
    # payload digests hold through the round trip
    from warcit_ray.functions.digests import sha1_b32

    for p in parsed[:10]:
        assert sha1_b32(p["payload"]) == p["headers"]["WARC-Payload-Digest"]


def test_open_zip_reopens_rewritten_archive(tmp_path):
    """Cached zip handles live as long as the worker process, which
    outlives a job: an archive rewritten at the same path is reopened,
    not served from the old handle."""
    import zipfile

    from warcit_ray.pipelines.zipcrawl import open_zip

    path = str(tmp_path / "a.zip")
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("m", b"old")
    assert open_zip(path).read("m") == b"old"
    assert open_zip(path) is open_zip(path)
    os.remove(path)
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("m", b"new!")
    assert open_zip(path).read("m") == b"new!"
