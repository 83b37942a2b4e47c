"""Crawl CLI (warcit_ray/cli_crawl.py): the ray-job-submit entry point
for the flagship frontier over dir / zip / parquet-corpus inputs."""

import json
import os
import zipfile

import pyarrow.parquet as pq
import pytest

from warcit_ray.cli_crawl import main


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return rc, json.loads(out)


@pytest.fixture()
def site_dir(tmp_path):
    d = tmp_path / "site"
    d.mkdir()
    (d / "index.html").write_text(
        '<a href="a.html">a</a> <a href="sub/b.html">b</a>')
    (d / "a.html").write_text("<a href=\"index.html\">back</a>")
    (d / "sub").mkdir()
    (d / "sub" / "b.html").write_text("leaf")
    (d / "robots.txt").write_text("User-agent: *\nDisallow: /private/\n")
    (d / "private").mkdir()
    (d / "private" / "secret.html").write_text("no")
    return str(d)


def test_cli_dir_mode_with_warc_out(site_dir, tmp_path, capsys, ray_session):
    ck = str(tmp_path / "ck")
    warc = str(tmp_path / "out.warc.gz")
    rc, res = _run(capsys, [site_dir, "--checkpoint", ck,
                            "--warc-out", warc, "--max-generations", "10"])
    assert rc == 0 and res["mode"] == "dir"
    assert res["admitted"] >= 3
    assert set(res["plane"]) == {"reused", "spawned", "lease_s"}
    assert set(res["task_s"]) == {"fetch", "explode", "probe", "offer"}
    assert res["task_s"]["fetch"] > 0
    assert res["plane"]["reused"] + res["plane"]["spawned"] == 4  # 2 + 2 shards
    assert res["warc_records"] == res["admitted"]
    from warcit_ray.sinks.warc_sink import parse_warc

    recs = parse_warc(open(warc, "rb").read())
    uris = [r["headers"]["WARC-Target-URI"] for r in recs]
    assert any(u.endswith("index.html") for u in uris)
    # resume continues (no new URLs -> no new admits)
    rc2, res2 = _run(capsys, [site_dir, "--checkpoint", ck, "--resume",
                              "--max-generations", "10"])
    assert rc2 == 0 and res2["admitted"] == 0


def test_cli_zip_mode(site_dir, tmp_path, capsys, ray_session):
    archive = str(tmp_path / "site.zip")
    with zipfile.ZipFile(archive, "w") as zp:
        for root, _, files in os.walk(site_dir):
            for f in files:
                full = os.path.join(root, f)
                zp.write(full, "site/" + os.path.relpath(full, site_dir))
    rc, res = _run(capsys, [archive, "--max-generations", "10"])
    assert rc == 0 and res["mode"] == "zip"
    assert res["admitted"] >= 3


def test_cli_corpus_mode_with_fragments(tmp_path, capsys, ray_session):
    from warcit_ray.sources.synth import make_image_table

    corpus = str(tmp_path / "corpus.parquet")
    pq.write_table(make_image_table(120), corpus)
    rc, res = _run(capsys, [corpus, "--checkpoint", str(tmp_path / "ck"),
                            "--corpus-fragments", str(tmp_path / "frags"),
                            "--max-generations", "8"])
    assert rc == 0 and res["mode"] == "corpus"
    assert res["admitted"] > 50
    assert os.path.exists(str(tmp_path / "frags" / "_corpus.json"))
    assert 0 < res["seen_load_factor"] < 1 and res["seen_fp_skips_est"] > 0


def test_cli_bad_input(tmp_path, capsys, ray_session):
    assert main([str(tmp_path / "nope.bin")]) == 1
    assert main([str(tmp_path), "--warc-out", "x.warc.gz"]) == 1


def test_cli_refuses_used_checkpoint_without_resume(site_dir, tmp_path,
                                                    capsys, ray_session):
    """A fresh crawl over a populated checkpoint dir would leave the old
    run's later generations on disk (and --warc-out would mix two
    crawls) — the CLI requires --resume or a fresh dir."""
    ck = str(tmp_path / "ck")
    rc, _ = _run(capsys, [site_dir, "--checkpoint", ck,
                          "--max-generations", "6"])
    assert rc == 0
    assert main([site_dir, "--checkpoint", ck, "--max-generations", "6"]) == 1
    assert "--resume" in capsys.readouterr().err


def test_cli_zip_site_root_inference(tmp_path, capsys, ray_session):
    """site_root inference skips root-level files and errors cleanly on
    archives with no directory entries."""
    archive = str(tmp_path / "lead.zip")
    with zipfile.ZipFile(archive, "w") as zp:
        zp.writestr("README.txt", "root-level file first")
        zp.writestr("site/index.html", '<a href="a.html">a</a>')
        zp.writestr("site/a.html", "leaf")
    rc, res = _run(capsys, [archive, "--max-generations", "8"])
    assert rc == 0 and res["admitted"] >= 2
    flat = str(tmp_path / "flat.zip")
    with zipfile.ZipFile(flat, "w") as zp:
        zp.writestr("only.html", "x")
    assert main([flat]) == 1
    assert "--site-root" in capsys.readouterr().err
