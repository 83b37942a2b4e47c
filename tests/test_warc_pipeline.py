"""End-to-end file/zip -> WARC pipeline tests, porting the reference's
count/header/ordering assertions (test_warcit.py:39-327) onto the
Ray-Data engine. Uses the reference's own 22-file corpus
(/root/reference/test/www.iana.org.zip, read directly)."""

import json
import os

import numpy as np
import pyarrow as pa
import pytest

from warcit_ray.codecs import encode
from warcit_ray.config import WarcitConfig
from warcit_ray.pipelines.warc_build import build_warc_dataset, logfile_table, run_warcit
from warcit_ray.sinks.warc_sink import parse_warc, write_warc_file, write_warc_shards
from warcit_ray.sources.seeds import SEQ_STRIDE, part_of_seq
from warcit_ray.sources.synth import make_image
from warcit_ray.stages.build_records import check_mapfile_unique

from .conftest import IANA_ZIP

FIXED_CLOCK = "2026-01-01T00:00:00Z"


def cfg_for(inputs, **kw):
    kw.setdefault("creation_date", FIXED_CLOCK)
    return WarcitConfig(url_prefix=kw.pop("url_prefix", "http://www.iana.org/"),
                        inputs=inputs, **kw)


def sorted_rows(ds, cols=None):
    t = ds.sort("seq").to_pandas()
    return t[cols] if cols else t


def test_plain_run_counts_24(iana_dir):
    # test_warcit.py:39-44: 22 resources + 2 auto-index revisits
    ds = build_warc_dataset(cfg_for([iana_dir]))
    t = sorted_rows(ds)
    assert len(t) == 25  # + warcinfo
    assert (t["record_type"] == "warcinfo").sum() == 1
    assert (t["record_type"] == "resource").sum() == 22
    assert (t["record_type"] == "revisit").sum() == 2
    # revisit for the root index (test_warcit.py:63-74)
    rv = t[t["record_type"] == "revisit"]
    assert "http://www.iana.org/" in set(rv["target_uri"])


def test_exclude_js(iana_dir):
    # test_warcit.py:46-51: 22 records with '*.js' excluded
    ds = build_warc_dataset(cfg_for([iana_dir], exclude="*.js"))
    t = sorted_rows(ds)
    assert len(t) - 1 == 22
    assert not any(u.endswith(".js") for u in t["target_uri"])


def test_no_revisit_when_index_files_empty(iana_dir):
    # test_warcit.py:76-86
    ds = build_warc_dataset(cfg_for([iana_dir], index_files=""))
    t = sorted_rows(ds)
    assert (t["record_type"] == "revisit").sum() == 0


def test_fixed_date_golden(iana_dir):
    # test_warcit.py:88-95
    ds = build_warc_dataset(cfg_for([iana_dir], fixed_dt="2010-12-26T10:11:12"))
    t = sorted_rows(ds)
    row = t[t["target_uri"] == "http://www.iana.org/index.html"].iloc[0]
    assert row["warc_date"] == "2010-12-26T10:11:12Z"
    assert row["content_type"] == "text/html"


def test_charset_literal(iana_dir):
    # test_warcit.py:108-117 (literal charset mode)
    ds = build_warc_dataset(cfg_for([iana_dir], charset="custom"))
    t = sorted_rows(ds)
    by_uri = t.set_index("target_uri")
    assert by_uri.loc["http://www.iana.org/index.html", "content_type"] == "text/html; charset=custom"
    assert by_uri.loc["http://www.iana.org/_css/2015.1/print.css", "content_type"] == "text/css; charset=custom"
    # non-text rows unaffected
    assert by_uri.loc["http://www.iana.org/_img/bookmark_icon.ico", "content_type"] == "image/x-icon"


def test_charset_detect_ascii_dropped(iana_dir):
    ds = build_warc_dataset(cfg_for([iana_dir], charset="detect"))
    t = sorted_rows(ds)
    css = t[t["target_uri"] == "http://www.iana.org/_css/2015.1/print.css"].iloc[0]
    # print.css is valid UTF-8 with non-ascii bytes (reference detects utf-8 too)
    assert css["content_type"] == "text/css; charset=UTF-8"


def test_mime_override(iana_dir):
    # test_warcit.py:119-128
    ds = build_warc_dataset(cfg_for([iana_dir], mime_overrides="*/index.html=custom/mime"))
    t = sorted_rows(ds).set_index("target_uri")
    assert t.loc["http://www.iana.org/index.html", "content_type"] == "custom/mime"
    assert t.loc["http://www.iana.org/about/index.html", "content_type"] == "custom/mime"


def test_single_file_no_warcinfo(iana_dir):
    # test_warcit.py:130-142
    ds = build_warc_dataset(
        cfg_for([os.path.join(iana_dir, "index.html")], warcinfo=False)
    )
    t = sorted_rows(ds)
    assert len(t) == 2
    assert set(t["target_uri"]) == {"http://www.iana.org/index.html", "http://www.iana.org/"}
    assert "warcinfo" not in set(t["record_type"])


def test_zip_run(tmp_path):
    # test_warcit.py:144-151: zip input, URL prefix 'http://', zip mtimes
    ds = build_warc_dataset(cfg_for([IANA_ZIP], url_prefix="http://"))
    t = sorted_rows(ds)
    assert len(t) - 1 == 24
    row = t[t["target_uri"] == "http://www.iana.org/index.html"].iloc[0]
    assert row["warc_date"] == "2017-10-17T14:30:26Z"
    assert row["source_uri"].endswith("www.iana.org.zip/www.iana.org/index.html")


def test_zip_prefix_path():
    # test_warcit.py:153-160
    ds = build_warc_dataset(cfg_for([IANA_ZIP + "/www.iana.org/"]))
    t = sorted_rows(ds)
    assert len(t) - 1 == 24
    assert "http://www.iana.org/index.html" in set(t["target_uri"])


def test_zip_bad_prefix():
    # test_warcit.py:162-167: 0 records
    ds = build_warc_dataset(cfg_for([IANA_ZIP + "/www.example.com/"]))
    assert sorted_rows(ds)["record_type"].eq("warcinfo").all()


def test_bad_input_collected():
    from warcit_ray.sources.seeds import enumerate_seeds

    t, errors = enumerate_seeds(["./foo"], "http://x/")
    assert t.num_rows == 0 and "./foo" in errors[0]
    t, errors = enumerate_seeds([IANA_ZIP + "_nosuch"], "http://x/")
    assert t.num_rows == 0 and "not a valid" not in errors[0] or errors


def test_warc_file_roundtrip(iana_dir, tmp_path):
    cfg = cfg_for([iana_dir], charset="custom")
    out = str(tmp_path / "test.warc.gz")
    res = run_warcit(cfg, out, mode="xb")
    assert res["records_written"] == 25
    with open(out, "rb") as fh:
        recs = parse_warc(fh.read())
    assert len(recs) == 25
    assert recs[0]["headers"]["WARC-Type"] == "warcinfo"
    # revisit profile + digest copy
    revisits = [r for r in recs if r["headers"]["WARC-Type"] == "revisit"]
    assert revisits and all("identical-payload-digest" in r["headers"]["WARC-Profile"] for r in revisits)
    root_rv = [r for r in revisits if r["headers"]["WARC-Target-URI"] == "http://www.iana.org/"][0]
    parent = [r for r in recs if r["headers"].get("WARC-Target-URI") == root_rv["headers"]["WARC-Refers-To-Target-URI"]][0]
    assert root_rv["headers"]["WARC-Payload-Digest"] == parent["headers"]["WARC-Payload-Digest"]
    assert root_rv["headers"]["WARC-Date"] == parent["headers"]["WARC-Date"]
    assert len(root_rv["payload"]) == 0
    # payload digest correctness
    from warcit_ray.functions.digests import sha1_b32
    for r in recs:
        if r["headers"]["WARC-Type"] in ("resource", "conversion"):
            assert sha1_b32(r["payload"]) == r["headers"]["WARC-Payload-Digest"]
    # exclusive-create: second run errors (test_warcit.py:53-57)
    with pytest.raises(FileExistsError):
        run_warcit(cfg, out, mode="xb")
    # append mode ok (test_warcit.py:59-62)
    res2 = run_warcit(cfg, out, mode="ab")
    with open(out, "rb") as fh:
        assert len(parse_warc(fh.read())) == 50


def test_warc_shards_order_and_resume(iana_dir, tmp_path):
    cfg = cfg_for([iana_dir])
    ds = build_warc_dataset(cfg).sort("seq")
    out_dir = str(tmp_path / "shards")
    write_warc_shards(ds, out_dir)
    from warcit_ray.sinks.warc_sink import read_warc_dir
    recs = read_warc_dir(out_dir)
    assert len(recs) == 25
    assert recs[0]["headers"]["WARC-Type"] == "warcinfo"
    # same uris in same order as the single-file writer
    single = str(tmp_path / "one.warc.gz")
    write_warc_file(build_warc_dataset(cfg), single)
    with open(single, "rb") as fh:
        ref = parse_warc(fh.read())
    assert [r["headers"].get("WARC-Target-URI") for r in recs] == \
           [r["headers"].get("WARC-Target-URI") for r in ref]


def test_mapfile_remap_and_double_match(iana_dir, tmp_path):
    mapfile = tmp_path / "map.csv"
    mapfile.write_text(
        "file,URL,timestamp,Content-Type\n"
        "index.html,http://remapped.example/,2019,x/y; charset=q\n"
    )
    from warcit_ray.sources.sidetables import load_mapfile

    rows = load_mapfile(str(mapfile))
    # two index.html files exist in the corpus -> double match must raise
    ds = build_warc_dataset(cfg_for([iana_dir], mapfile=rows))
    with pytest.raises(ValueError, match="matched more than one"):
        check_mapfile_unique(ds, len(rows))
    # single-file run: remap applies (URL, pad-down timestamp, content-type + charset)
    ds = build_warc_dataset(
        cfg_for([os.path.join(iana_dir, "index.html")], mapfile=rows, warcinfo=False)
    )
    t = sorted_rows(ds)
    res = t[t["record_type"] == "resource"].iloc[0]
    assert res["target_uri"] == "http://remapped.example/"
    assert res["warc_date"] == "2019-01-01T00:00:00Z"
    assert res["content_type"] == "x/y; charset=q"


def test_mapfile_double_match_synthetic_tree(tmp_path):
    """A one-row mapfile whose file matches an ``index.html`` in each of
    two input dirs raises; either dir alone does not."""
    from warcit_ray.sources.sidetables import load_mapfile

    dirs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        (d / "index.html").write_text("<html>%s</html>" % name)
        (d / "style.css").write_text("p {}")
        dirs.append(str(d))
    mapfile = tmp_path / "map.csv"
    mapfile.write_text("file,URL\nindex.html,http://remapped.example/\n")
    rows = load_mapfile(str(mapfile))
    with pytest.raises(ValueError, match=r"Mapfile row\(s\) \[0\] matched more than one"):
        check_mapfile_unique(build_warc_dataset(cfg_for(dirs, mapfile=rows)), len(rows))
    check_mapfile_unique(build_warc_dataset(cfg_for(dirs[:1], mapfile=rows)), len(rows))


def test_mapfile_validation(tmp_path):
    from warcit_ray.sources.sidetables import MapfileError, load_mapfile

    bad = tmp_path / "bad.csv"
    bad.write_text("file,nope\na,b\n")
    with pytest.raises(MapfileError):
        load_mapfile(str(bad))
    only_file = tmp_path / "one.csv"
    only_file.write_text("file\na\n")
    with pytest.raises(MapfileError):
        load_mapfile(str(only_file))


@pytest.fixture(scope="module")
def convert_setup(tmp_path_factory):
    """A ppm source file + conversion run (the ffmpeg-analogue)."""
    root = tmp_path_factory.mktemp("conv")
    src_dir = root / "convert-test" / "media"
    src_dir.mkdir(parents=True)
    img = make_image(99)
    (src_dir / "scene.ppm").write_bytes(encode(img, "ppm"))

    from warcit_ray.sources.sidetables import load_rules
    from warcit_ray.stages.transcode import convert_all, results_to_dict

    rules = load_rules(None)
    out_dir = str(root / "out")
    results_ds = convert_all([str(root / "convert-test")], "http://www.example.com/",
                             rules["file_types"], out_dir)
    results = results_to_dict(results_ds)
    return root, results


def test_conversion_results(convert_setup):
    # mirrors test_warcit.py:216-245: per-source ordered results, success
    root, results = convert_setup
    convs = results["http://www.example.com/media/scene.ppm"]
    assert [c["url"] for c in convs] == [
        "http://www.example.com/media/scene.ppm.png",
        "http://www.example.com/media/scene.ppm.dctq",
    ]
    assert all(c["success"] for c in convs)
    assert all(os.path.isfile(c["output"]) for c in convs)


def test_conversion_records_ordering(convert_setup):
    # mirrors test_warcit.py:247-265 exact ordering golden
    root, results = convert_setup
    cfg = cfg_for([str(root / "convert-test")], url_prefix="http://www.example.com/",
                  conversions=results)
    t = sorted_rows(build_warc_dataset(cfg))
    got = list(zip(t["record_type"], t["target_uri"]))
    assert got == [
        ("warcinfo", "out.warc.gz"),
        ("resource", "http://www.example.com/media/scene.ppm"),
        ("conversion", "http://www.example.com/media/scene.ppm.png"),
        ("conversion", "http://www.example.com/media/scene.ppm.dctq"),
    ]
    conv = t[t["record_type"] == "conversion"].iloc[0]
    parent = t[t["record_type"] == "resource"].iloc[0]
    assert conv["refers_to_id"] == parent["record_id"]
    assert conv["refers_to_uri"] == parent["target_uri"]
    assert conv["refers_to_date"] == parent["warc_date"]
    assert json.loads(conv["json_metadata"])["ext"] == "png"


def test_transclusions_and_conversions(convert_setup):
    # mirrors test_warcit.py:268-327 ordering + JSON metadata validation
    root, results = convert_setup
    transclusions = {
        "http://www.example.com/media/scene.ppm": [
            {"url": "http://www.example.com/containing/page.html",
             "timestamp": 20190103020000, "selector": "object, embed"}
        ]
    }
    cfg = cfg_for([str(root / "convert-test")], url_prefix="http://www.example.com/",
                  conversions=results, transclusions=transclusions)
    t = sorted_rows(build_warc_dataset(cfg))
    types = list(t["record_type"])
    assert types == ["warcinfo", "resource", "conversion", "conversion", "resource"]
    tc = t.iloc[-1]
    assert tc["target_uri"] == "urn:embeds:http://www.example.com/containing/page.html"
    assert tc["warc_date"] == "2019-01-03T02:00:00Z"
    assert tc["content_type"] == "application/vnd.youtube-dl_formats+json"
    meta = json.loads(bytes(tc["payload"]).decode("utf-8"))
    assert meta["webpage_url"] == "http://www.example.com/containing/page.html"
    assert meta["webpage_timestamp"] == "20190103020000"
    assert meta["selector"] == "object, embed"
    assert [f["ext"] for f in meta["formats"]] == ["png", "dctq", "ppm"]
    assert meta["formats"][-1]["original"] is True
    # canonical JSON: sort_keys + indent=2 byte-exact (warcit.py:589)
    assert bytes(tc["payload"]) == json.dumps(meta, indent=2, sort_keys=True).encode()


def test_logfile_projection(iana_dir):
    cfg = cfg_for([iana_dir])
    t = logfile_table(build_warc_dataset(cfg)).to_pandas()
    assert list(t.columns) == ["file", "Record-Type", "URL", "timestamp",
                               "Content-Type", "mime", "charset"]
    assert len(t) == 24
    assert (t["Record-Type"] == "revisit").sum() == 2
    # revisit rows blank out content-type columns (warcit.py:558-566)
    assert (t.loc[t["Record-Type"] == "revisit", "Content-Type"] == "").all()


def test_record_ids_unique_and_content_stable(iana_dir):
    """VERDICT r3 #9: record_id is uuid5 over (uri, date, digest, type,
    seq) and the digest now actually participates — a full fixture run
    has zero collisions, and changing only the payload changes the id."""
    from warcit_ray.functions.digests import record_id

    cfg = cfg_for([iana_dir])
    df = build_warc_dataset(cfg).select_columns(["record_id"]).to_pandas()
    assert df["record_id"].is_unique
    a = record_id("http://x/", "2020-01-01T00:00:00Z", "sha1:AAA",
                  "resource", 1)
    b = record_id("http://x/", "2020-01-01T00:00:00Z", "sha1:BBB",
                  "resource", 1)
    assert a != b


def test_warc_shards_deterministic_resume(iana_dir, tmp_path):
    """ADVICE fix: shard boundaries are fixed seq ranges, so a rerun
    with a different block structure reproduces identical parts and the
    skip-on-resume cannot drop or duplicate records."""
    import glob
    import os

    import pytest

    cfg = cfg_for([iana_dir])
    ds = build_warc_dataset(cfg)
    out_dir = str(tmp_path / "dshards")
    write_warc_shards(ds, out_dir, files_per_part=8)
    parts1 = sorted(glob.glob(os.path.join(out_dir, "part-*")))
    content1 = {p: open(p, "rb").read() for p in parts1}

    # rerun in append/resume mode with a very different block split:
    # same parts, byte-identical, nothing duplicated
    ds2 = build_warc_dataset(cfg).repartition(13)
    write_warc_shards(ds2, out_dir, mode="ab", files_per_part=8)
    parts2 = sorted(glob.glob(os.path.join(out_dir, "part-*")))
    assert parts1 == parts2
    for p in parts2:
        assert open(p, "rb").read() == content1[p]
    from warcit_ray.sinks.warc_sink import read_warc_dir

    assert len(read_warc_dir(out_dir)) == 25

    # delete one part: resume re-creates exactly it, byte-identical
    victim = parts1[1]
    os.remove(victim)
    write_warc_shards(build_warc_dataset(cfg).repartition(3), out_dir,
                      mode="ab", files_per_part=8)
    assert open(victim, "rb").read() == content1[victim]
    assert len(read_warc_dir(out_dir)) == 25

    # mismatched layout parameters fail loudly instead of mis-skipping
    with pytest.raises(ValueError):
        write_warc_shards(ds, out_dir, mode="ab", files_per_part=16)


def _mini_records(seqs, tag="v1"):
    import pyarrow as pa
    import ray.data as rd

    # file ordinal i -> the seq enumerate_seeds gives its resource record
    t = pa.table({
        "seq": pa.array([i * SEQ_STRIDE for i in seqs], type=pa.int64()),
        "record_type": ["resource"] * len(seqs),
        "record_id": ["<urn:uuid:%05d>" % s for s in seqs],
        "warc_date": ["2026-01-01T00:00:00Z"] * len(seqs),
        "target_uri": ["http://x.example/%d" % s for s in seqs],
        "payload": [("%s-%d" % (tag, s)).encode() for s in seqs],
    })
    return rd.from_arrow(t)


def test_warc_shards_append_into_partial_part(tmp_path, ray_session):
    """ADVICE r2 (medium): 'ab' with NEW rows landing in an existing
    part's seq range must append them (prefix digest-verified), not
    silently drop them; mutated already-written ranges must raise."""
    from warcit_ray.sinks.warc_sink import read_warc_dir

    out_dir = str(tmp_path / "append")
    # first run: files 0..9 -> part0 holds 0-7, part1 holds 8,9 (partial)
    write_warc_shards(_mini_records(range(10)), out_dir, files_per_part=8)
    assert len(read_warc_dir(out_dir)) == 10
    # append run ships the FULL dataset 0..14: 10-15 range rows 10..14
    # land partly in part1's range (10..15) — part1 must gain them
    write_warc_shards(_mini_records(range(15)), out_dir, mode="ab",
                      files_per_part=8)
    recs = read_warc_dir(out_dir)
    assert [r["headers"]["WARC-Target-URI"] for r in recs] == \
        ["http://x.example/%d" % i for i in range(15)]
    # identical rerun: no-op, still 15
    write_warc_shards(_mini_records(range(15)), out_dir, mode="ab",
                      files_per_part=8)
    assert len(read_warc_dir(out_dir)) == 15
    # mutating an already-written range raises instead of keeping stale bytes
    with pytest.raises(ValueError, match="refusing to append"):
        write_warc_shards(_mini_records(range(15), tag="CHANGED"), out_dir,
                          mode="ab", files_per_part=8)


def test_warc_shards_delta_only_append(tmp_path, ray_session):
    """ADVICE r3 (medium): a delta-only 'ab' rerun — the group holds ONLY
    new rows (every seq > the part's recorded max_seq) — must append them
    directly; the empty prefix has nothing to digest-verify and must not
    be compared against the stored full-part digest."""
    from warcit_ray.sinks.warc_sink import read_warc_dir

    out_dir = str(tmp_path / "delta")
    # first run: 0..9 -> part0 full (0-7), part1 partial (8,9)
    write_warc_shards(_mini_records(range(10)), out_dir, files_per_part=8)
    # delta-only rerun: ONLY seqs 10..14 (no previously-written rows),
    # all landing in part1's 8..15 range with n_old == 0
    write_warc_shards(_mini_records(range(10, 15)), out_dir, mode="ab",
                      files_per_part=8)
    recs = read_warc_dir(out_dir)
    assert [r["headers"]["WARC-Target-URI"] for r in recs] == \
        ["http://x.example/%d" % i for i in range(15)]
    # a second delta append continues from the updated max_seq
    write_warc_shards(_mini_records([15, 16]), out_dir, mode="ab",
                      files_per_part=8)
    assert len(read_warc_dir(out_dir)) == 17
    # and a full-coverage rerun over everything is still a no-op
    write_warc_shards(_mini_records(range(17)), out_dir, mode="ab",
                      files_per_part=8)
    assert len(read_warc_dir(out_dir)) == 17


def test_warc_shards_delta_retry_idempotent(tmp_path, ray_session):
    """ADVICE r4 (medium), mode 2: a plain RETRY of an already-applied
    delta must byte-verify the on-disk suffix and no-op — not compute a
    prefix digest over only the delta rows, mismatch the stored
    full-part digest, and spuriously refuse."""
    from warcit_ray.sinks.warc_sink import read_warc_dir

    out_dir = str(tmp_path / "retry")
    write_warc_shards(_mini_records(range(10)), out_dir, files_per_part=8)
    write_warc_shards(_mini_records(range(10, 15)), out_dir, mode="ab",
                      files_per_part=8)
    assert len(read_warc_dir(out_dir)) == 15
    # the retry: same delta again — applied already, must be a no-op
    write_warc_shards(_mini_records(range(10, 15)), out_dir, mode="ab",
                      files_per_part=8)
    recs = read_warc_dir(out_dir)
    assert [r["headers"]["WARC-Target-URI"] for r in recs] == \
        ["http://x.example/%d" % i for i in range(15)]
    # a DIFFERENT payload for the same already-appended seqs still raises
    with pytest.raises(ValueError, match="refusing to append"):
        write_warc_shards(_mini_records(range(10, 15), tag="CHANGED"),
                          out_dir, mode="ab", files_per_part=8)


def test_warc_shards_crash_window_heals_not_doubles(tmp_path, ray_session):
    """ADVICE r4 (medium), mode 1: a crash between the part rename and
    the meta rename leaves appended bytes with a stale meta; the retried
    delta must detect that the on-disk extra bytes ARE this delta (heal
    the meta) instead of blindly appending the same records twice."""
    import hashlib
    import json

    from warcit_ray.sinks.warc_sink import read_warc_dir

    out_dir = str(tmp_path / "crash")
    write_warc_shards(_mini_records(range(10)), out_dir, files_per_part=8)
    meta_path = os.path.join(out_dir, "part-%020d.meta.json"
                             % part_of_seq(9 * SEQ_STRIDE, 8))
    with open(meta_path) as fh:
        pre_delta_meta = fh.read()
    write_warc_shards(_mini_records(range(10, 15)), out_dir, mode="ab",
                      files_per_part=8)
    # simulate the crash: the part carries the delta, the meta does not
    with open(meta_path, "w") as fh:
        fh.write(pre_delta_meta)
    write_warc_shards(_mini_records(range(10, 15)), out_dir, mode="ab",
                      files_per_part=8)
    recs = read_warc_dir(out_dir)  # healed: exactly 15, no seq doubled
    assert [r["headers"]["WARC-Target-URI"] for r in recs] == \
        ["http://x.example/%d" % i for i in range(15)]
    # the meta now matches the on-disk bytes again
    part_path = meta_path.replace(".meta.json", ".warc.gz")
    with open(meta_path) as fh:
        healed = json.load(fh)
    with open(part_path, "rb") as fh:
        assert healed["sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert healed["max_seq"] == 14 * SEQ_STRIDE
    # desync where the extra bytes are NOT this delta: refuse loudly
    with open(part_path, "ab") as fh:
        fh.write(b"garbage-from-another-writer")
    with pytest.raises(ValueError, match="desync"):
        write_warc_shards(_mini_records(range(15, 17)), out_dir, mode="ab",
                          files_per_part=8)


def test_warc_shards_refuse_unpinned_parts_and_spare_foreign_files(
        tmp_path, ray_session):
    """Both sharded sinks share one layout pin: an 'ab' run into a WARC
    directory holding parts but no _shards.json raises (nothing says
    which layout wrote them), and 'wb' deletes only the names the sink
    itself writes."""
    from warcit_ray.sinks.warc_sink import read_warc_dir

    out_dir = tmp_path / "pin"
    write_warc_shards(_mini_records(range(3)), str(out_dir))
    os.unlink(out_dir / "_shards.json")
    with pytest.raises(ValueError, match="no _shards.json"):
        write_warc_shards(_mini_records(range(3)), str(out_dir), mode="ab")
    (out_dir / "other.warc.gz").write_bytes(b"foreign")
    write_warc_shards(_mini_records(range(2)), str(out_dir), mode="wb")
    assert (out_dir / "other.warc.gz").read_bytes() == b"foreign"
    assert len(read_warc_dir(str(out_dir))) == 2


def test_sharded_sinks_write_nothing_for_no_records(tmp_path, ray_session):
    """An input tree with no files and no warcinfo record gives both
    sharded sinks an empty record set: each returns no part and still
    pins its layout. The single-file sinks write no record: an empty
    WARC and a CSV holding only its header; the logfile projection is
    an empty table of the logfile columns."""
    from warcit_ray.pipelines.warc_build import (
        LOGFILE_COLUMNS,
        write_logfile_csv,
        write_logfile_shards,
    )

    empty = tmp_path / "empty"
    empty.mkdir()
    cfg = cfg_for([str(empty)], url_prefix="http://x/", warcinfo=False)
    for sink in (write_warc_shards, write_logfile_shards):
        out_dir = tmp_path / sink.__name__
        assert sink(build_warc_dataset(cfg), str(out_dir)) == []
        assert os.listdir(out_dir) == ["_shards.json"]
    assert write_warc_file(build_warc_dataset(cfg), str(tmp_path / "one.warc.gz")) == 0
    assert write_logfile_csv(build_warc_dataset(cfg), str(tmp_path / "one.csv")) == 0
    assert (tmp_path / "one.warc.gz").read_bytes() == b""
    assert (tmp_path / "one.csv").read_bytes() == (
        b"file,Record-Type,URL,timestamp,Content-Type,mime,charset\r\n")
    log = logfile_table(build_warc_dataset(cfg))
    assert log.num_rows == 0 and log.column_names == LOGFILE_COLUMNS
    assert set(log.schema.types) == {pa.string()}


def test_warc_parts_hold_whole_file_ranges(tmp_path):
    """Parts are ranges of input files in the seq units enumerate_seeds
    assigns: a 24-file tree is one part under the defaults, and with
    files_per_part=8 each part holds every record (revisits included)
    of exactly 8 files."""
    from warcit_ray.sinks.warc_sink import read_warc_dir

    site = tmp_path / "site"
    for i in range(24):
        d = site / ("d%02d" % (i // 3))
        d.mkdir(parents=True, exist_ok=True)
        (d / ("index.html" if i % 3 == 0 else "p%d.txt" % i)).write_text(
            "page %d" % i)
    cfg = cfg_for([str(site)], url_prefix="http://s.example/")

    one = tmp_path / "one"
    assert len(write_warc_shards(build_warc_dataset(cfg), str(one))) == 1
    assert len(read_warc_dir(str(one))) == 1 + 24 + 8  # warcinfo, revisits

    eight = tmp_path / "eight"
    parts = write_warc_shards(build_warc_dataset(cfg), str(eight),
                              files_per_part=8)
    assert len(parts) == 3
    seen: set = set()
    for path in parts:
        with open(path, "rb") as fh:
            recs = [r["headers"] for r in parse_warc(fh.read())
                    if r["headers"]["WARC-Type"] != "warcinfo"]
        files = {h["WARC-Source-URI"] for h in recs}
        revisits = sum(h["WARC-Type"] == "revisit" for h in recs)
        assert len(files) == 8 and not files & seen
        assert len(recs) == 8 + revisits
        assert revisits == sum(f.endswith("/index.html") for f in files)
        seen |= files


def test_logfile_shards_order_and_resume(iana_dir, tmp_path):
    """VERDICT r3 #4 (K3 distributed sink): the sharded CSV logfile
    writes distributed with deterministic seq-range parts, reruns are
    byte-identical no-ops under a different block split, and the merged
    parts reproduce the single-file projection exactly."""
    import glob
    import os

    import pandas as pd
    import pytest

    from warcit_ray.pipelines.warc_build import (
        write_logfile_csv,
        write_logfile_shards,
    )

    cfg = cfg_for([iana_dir])
    out_dir = str(tmp_path / "logshards")
    parts = write_logfile_shards(build_warc_dataset(cfg), out_dir,
                                 files_per_part=8)
    assert parts == sorted(glob.glob(os.path.join(out_dir, "part-*.csv")))
    content1 = {p: open(p, "rb").read() for p in parts}

    # rerun with a different block structure: identical parts, no dupes
    parts2 = write_logfile_shards(build_warc_dataset(cfg).repartition(13),
                                  out_dir, files_per_part=8)
    assert parts2 == parts
    for p in parts:
        assert open(p, "rb").read() == content1[p]

    # merged shard rows (lexicographic part order) == streamed single CSV
    single = str(tmp_path / "log.csv")
    n = write_logfile_csv(build_warc_dataset(cfg), single)
    merged = pd.concat([pd.read_csv(p) for p in parts], ignore_index=True)
    one = pd.read_csv(single)
    assert n == 24 and len(merged) == 24
    pd.testing.assert_frame_equal(merged, one)
    assert list(one.columns) == ["file", "Record-Type", "URL", "timestamp",
                                 "Content-Type", "mime", "charset"]

    # deleted part is re-created byte-identically on resume
    victim = parts[1]
    os.remove(victim)
    write_logfile_shards(build_warc_dataset(cfg).repartition(3), out_dir,
                         files_per_part=8)
    assert open(victim, "rb").read() == content1[victim]

    # a mutated input for an already-written range fails loudly
    cfg2 = cfg_for([iana_dir])
    cfg2.fixed_dt = "1999-09-09T09:09:09Z"
    with pytest.raises(ValueError, match="refusing to overwrite"):
        write_logfile_shards(build_warc_dataset(cfg2), out_dir,
                             files_per_part=8)

    # ADVICE r4: resuming with a different files_per_part would write a
    # second overlapping part set under different names — the
    # _shards.json sidecar refuses before any row is written
    with pytest.raises(ValueError, match="shard layout"):
        write_logfile_shards(build_warc_dataset(cfg), out_dir,
                             files_per_part=16)
    assert os.path.exists(os.path.join(out_dir, "_shards.json"))
    # and the original layout still resumes cleanly
    parts3 = write_logfile_shards(build_warc_dataset(cfg), out_dir,
                                  files_per_part=8)
    assert parts3 == parts


def test_warc_shards_initial_crash_window_heals_sidecar(tmp_path, ray_session):
    """Code-review r5: a crash between the INITIAL part rename and its
    meta rename leaves a part with no sidecar. The identical rerun must
    backfill the sidecar (not just no-op), or every later delta append
    dead-ends on the missing-meta error."""
    import glob

    from warcit_ray.sinks.warc_sink import read_warc_dir

    out_dir = str(tmp_path / "heal0")
    write_warc_shards(_mini_records(range(6)), out_dir, files_per_part=8)
    metas = glob.glob(os.path.join(out_dir, "*.meta.json"))
    assert len(metas) == 1
    os.unlink(metas[0])  # simulate the crash window
    # identical retry (resume mode): byte-verified no-op that HEALS
    # the sidecar
    write_warc_shards(_mini_records(range(6)), out_dir, mode="ab",
                      files_per_part=8)
    assert glob.glob(os.path.join(out_dir, "*.meta.json"))
    # the delta append now works instead of raising missing-meta
    write_warc_shards(_mini_records([6, 7]), out_dir, mode="ab",
                      files_per_part=8)
    recs = read_warc_dir(out_dir)
    assert [r["headers"]["WARC-Target-URI"] for r in recs] == \
        ["http://x.example/%d" % i for i in range(8)]
