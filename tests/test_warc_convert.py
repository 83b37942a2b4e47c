"""The file/ZIP -> WARC convert wave on a synthetic tree and ZIP (no
reference corpus needed): sharded parts and sidecars equal an
in-process build, an append rerun writes nothing, and the records are
built once per slice however many consumers read them."""

import hashlib
import json
import os
import zipfile

import pyarrow as pa
import pytest

from warcit_ray.config import WarcitConfig
from warcit_ray.pipelines import warc_build
from warcit_ray.pipelines.warc_build import (
    build_warc_dataset,
    slice_bounds,
    write_logfile_shards,
)
from warcit_ray.sinks.warc_sink import read_warc_dir, serialize_batch, write_warc_shards
from warcit_ray.sources.seeds import PayloadLoader, enumerate_seeds, part_of_seq
from warcit_ray.stages.build_records import RecordBuilder, warcinfo_row

FILES_PER_PART = 4


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A tree of 30 pages and a ZIP of 12: directory indexes (each adds
    a revisit record) and latin-1 pages in both."""
    root = tmp_path_factory.mktemp("convert")
    site = root / "site"
    for i in range(30):
        d = site / ("d%d" % (i % 6))
        d.mkdir(parents=True, exist_ok=True)
        name = "index.html" if i < 6 else "page%02d.%s" % (i, ("html", "txt", "css")[i % 3])
        body = ("<html><body><p>caf\xe9 page %d</p></body></html>" % i).encode("latin-1") \
            if i % 7 == 3 else ("<!doctype html><html><body>page %d %s</body></html>"
                                % (i, "word " * i)).encode()
        (d / name).write_bytes(body)
    zpath = root / "bundle.zip"
    with zipfile.ZipFile(zpath, "w") as zf:
        for i in range(12):
            name = "z%d/%s" % (i % 3, "index.html" if i < 3 else "item%02d.html" % i)
            body = ("<p>na\xefve %d</p>" % i).encode("latin-1") if i == 5 \
                else ("<html><body>item %d</body></html>" % i).encode()
            zf.writestr(name, body)
    return [str(site), str(zpath)]


def _cfg(inputs, gzip):
    return WarcitConfig(url_prefix="http://c.example/", inputs=inputs,
                        name="c.warc.gz", fixed_dt="20260101000000",
                        mime_method="magic", charset="detect",
                        creation_date="2026-01-01T00:00:00Z", gzip=gzip)


def _reference_parts(cfg) -> dict:
    """File name -> bytes of each part and its sidecar, from an
    in-process build: every candidate through one PayloadLoader and
    RecordBuilder, sorted by seq, serialized per part by
    serialize_batch."""
    table, _ = enumerate_seeds(cfg.inputs, cfg.url_prefix)
    records = pa.concat_tables([warcinfo_row(cfg),
                                RecordBuilder(cfg)(PayloadLoader()(table))])
    records = records.sort_by("seq")
    parts = part_of_seq(records.column("seq").to_numpy(), FILES_PER_PART)
    ext = ".warc.gz" if cfg.gzip else ".warc"
    want = {}
    for p in sorted(set(parts.tolist())):
        rows = records.filter(pa.array(parts == p))
        data = serialize_batch(rows, cfg.gzip)
        meta = {"records": rows.num_rows,
                "max_seq": rows.column("seq")[-1].as_py(),
                "sha256": hashlib.sha256(data).hexdigest()}
        want["part-%020d%s" % (p, ext)] = data
        want["part-%020d.meta.json" % p] = json.dumps(meta).encode()
    return want


def _snapshot(out_dir) -> dict:
    snap = {}
    for f in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, f)
        with open(path, "rb") as fh:
            snap[f] = (fh.read(), os.stat(path).st_mtime_ns)
    return snap


@pytest.mark.parametrize("gzip", [True, False])
def test_convert_parts_match_in_process_build(ray_session, corpus, tmp_path, gzip):
    cfg = _cfg(corpus, gzip)
    ds = build_warc_dataset(cfg)
    assert ds.num_blocks() >= 1 + 3  # warcinfo + at least 3 slices
    want = _reference_parts(cfg)
    assert sum(f.endswith(".meta.json") for f in want) >= 3
    out_dir = str(tmp_path / "shards")
    paths = write_warc_shards(ds, out_dir, gzip_members=gzip,
                              files_per_part=FILES_PER_PART)
    assert paths == sorted(os.path.join(out_dir, f) for f in want
                           if not f.endswith(".meta.json"))
    got = _snapshot(out_dir)
    assert got.pop("_shards.json")[0] == json.dumps(
        {"files_per_part": FILES_PER_PART, "gzip": gzip}).encode()
    assert {f: data for f, (data, _) in got.items()} == want
    types = [r["headers"].get("Content-Type", "") for r in read_warc_dir(out_dir)]
    assert len(types) == 1 + 42 + 9  # warcinfo, resources, index revisits
    assert sum(t.endswith("charset=windows-1252") for t in types) == 4  # latin-1

    # an append rerun over a fresh build finds every part complete and
    # writes nothing: same files, same bytes, not even rewritten
    write_warc_shards(build_warc_dataset(cfg), out_dir, mode="ab",
                      gzip_members=gzip, files_per_part=FILES_PER_PART)
    again = _snapshot(out_dir)
    again.pop("_shards.json")
    assert again == got


def test_convert_builds_each_slice_once(ray_session, corpus, tmp_path, monkeypatch):
    """Shards, count() and the logfile shards read the same record
    blocks: RecordBuilder runs once per slice, counted in the workers,
    and none of it starts Ray Data's executor."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    log = str(tmp_path / "calls.log")
    build_slice = warc_build._build_slice

    def counted_build_slice(cfg, candidates):
        from warcit_ray.stages.build_records import RecordBuilder as Builder

        call = Builder.__call__

        def counted(self, batch):
            with open(log, "a") as fh:
                fh.write("%d\n" % batch.num_rows)
            return call(self, batch)

        Builder.__call__ = counted
        try:
            return build_slice(cfg, candidates)
        finally:
            Builder.__call__ = call

    executions = []
    execute = StreamingExecutor.execute

    def recorded(self, *args, **kwargs):
        executions.append(self)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(warc_build, "_build_slice", counted_build_slice)
    monkeypatch.setattr(StreamingExecutor, "execute", recorded)
    cfg = _cfg(corpus, True)
    ds = build_warc_dataset(cfg)
    parts = write_warc_shards(ds, str(tmp_path / "w"), files_per_part=FILES_PER_PART)
    n = ds.count()
    logs = write_logfile_shards(ds, str(tmp_path / "l"), files_per_part=FILES_PER_PART)
    with open(log) as fh:
        calls = [int(line) for line in fh]
    assert sum(calls) == 42  # every candidate, once
    assert n == 1 + 42 + 9  # warcinfo, resources, index revisits
    assert executions == []
    assert len(calls) == ds.num_blocks() - 1 >= 3  # a call a slice; + warcinfo
    assert len(parts) == len(logs) >= 3


def test_slice_bounds():
    import numpy as np

    # near-equal row counts, at least min_slices of them
    assert slice_bounds(np.full(10, 5), 4, 1000) == [0, 2, 5, 8, 10]
    assert slice_bounds(np.full(3, 5), 4, 1000) == [0, 1, 2, 3]
    assert slice_bounds(np.zeros(0, np.int64), 4, 1000) == [0, 0]
    # each cut again before its files pass max_bytes; a file over it
    # is a slice of its own
    assert slice_bounds(np.array([4, 4, 4, 9, 1, 1]), 2, 8) == [0, 2, 3, 4, 6]
    assert slice_bounds(np.array([4, 4, 4, 9, 1, 1]), 1, 8) == [0, 2, 3, 4, 6]
