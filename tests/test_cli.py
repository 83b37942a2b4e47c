"""CLI surface tests (reference console scripts, setup.py:45-46)."""

import logging
import os

import numpy as np

from warcit_ray.cli import _make_name, converter_main, main
from warcit_ray.codecs import encode
from warcit_ray.sinks.warc_sink import parse_warc
from warcit_ray.sources.synth import make_image


def test_make_name():
    # warcit.py:373-393 derivation rules
    assert _make_name(None, ["/a/b/site"], True) == "site.warc.gz"
    assert _make_name(None, ["/a/b/site"], False) == "site.warc"
    assert _make_name("x", [""], True) == "x.warc.gz"
    assert _make_name("x.warc", [""], True) == "x.warc.gz"
    assert _make_name("x.warc.gz", [""], False) == "x.warc"


def test_cli_warc_roundtrip(iana_dir, tmp_path, capsys):
    os.chdir(tmp_path)
    rc = main(["-n", "out", "http://www.iana.org/", iana_dir])
    assert rc == 0
    assert "Wrote 24 resources to out.warc.gz" in capsys.readouterr().out
    with open(tmp_path / "out.warc.gz", "rb") as fh:
        recs = parse_warc(fh.read())
    assert len(recs) == 25
    # exclusive create (default xb): second run fails with rc 1
    assert main(["-n", "out", "-q", "http://www.iana.org/", iana_dir]) == 1
    # append
    assert main(["-a", "-n", "out", "-q", "http://www.iana.org/", iana_dir]) == 0
    # overwrite
    assert main(["-o", "-n", "out", "-q", "http://www.iana.org/", iana_dir]) == 0
    with open(tmp_path / "out.warc.gz", "rb") as fh:
        assert len(parse_warc(fh.read())) == 25


def test_cli_logfile_and_shards(iana_dir, tmp_path):
    os.chdir(tmp_path)
    rc = main(["-o", "-n", "sharded", "--shards", "--logfile", "log.csv",
               "-q", "http://www.iana.org/", iana_dir])
    assert rc == 0
    import pandas as pd

    log = pd.read_csv(tmp_path / "log.csv")
    assert list(log.columns) == ["file", "Record-Type", "URL", "timestamp",
                                 "Content-Type", "mime", "charset"]
    assert len(log) == 24
    from warcit_ray.sinks.warc_sink import read_warc_dir

    assert len(read_warc_dir(str(tmp_path / "sharded.warc.gz.d"))) == 25


def test_cli_converter(tmp_path, capsys):
    src = tmp_path / "media"
    src.mkdir()
    (src / "a.ppm").write_bytes(encode(make_image(1), "ppm"))
    (src / "b.bmp").write_bytes(encode(make_image(2), "bmp"))
    out_dir = str(tmp_path / "conv")
    rc = converter_main(["--output-dir", out_dir, "http://x.example/", str(src)])
    assert rc == 0
    assert os.path.isfile(os.path.join(out_dir, "warcit-conversion-results.yaml"))
    import yaml

    with open(os.path.join(out_dir, "warcit-conversion-results.yaml")) as fh:
        res = yaml.safe_load(fh)
    convs = res["conversions"]
    # URLs are relative to the input dir (base.py:36-41 relpath semantics)
    assert set(convs) == {"http://x.example/a.ppm", "http://x.example/b.bmp"}
    # ppm matches two rules (png, dctq); bmp one (png); all succeed
    assert [c["url"].rsplit(".", 1)[1] for c in convs["http://x.example/a.ppm"]] == ["png", "dctq"]
    assert all(c["success"] for v in convs.values() for c in v)
    for v in convs.values():
        for c in v:
            assert os.path.isfile(c["output"])


def test_missing_input_is_logged(tmp_path, capsys, caplog, monkeypatch):
    # base.py:49: warcit logs each invalid input at ERROR and goes on;
    # the output (a warcinfo-only WARC, no conversion) and rc 0 stay
    monkeypatch.chdir(tmp_path)
    missing = str(tmp_path / "nosuch.zip")
    with caplog.at_level(logging.ERROR, logger="warcit_ray"):
        assert main(["-n", "out", "http://x.example/", missing]) == 0
        assert converter_main(["--output-dir", str(tmp_path / "conv"),
                               "http://x.example/", missing]) == 0
    msg = '"%s" not a valid file or directory' % missing
    assert [(r.levelno, r.getMessage()) for r in caplog.records
            if r.name.startswith("warcit_ray")] == [(logging.ERROR, msg)] * 2
    out = capsys.readouterr().out
    assert "Wrote 0 resources to out.warc.gz" in out
    assert "Converted 0 outputs for 0 sources" in out
    with open(tmp_path / "out.warc.gz", "rb") as fh:
        assert [r["headers"]["WARC-Type"] for r in parse_warc(fh.read())] == ["warcinfo"]
