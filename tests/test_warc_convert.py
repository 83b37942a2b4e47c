"""The file/ZIP -> WARC convert wave on a synthetic tree and ZIP (no
reference corpus needed): sharded parts and sidecars, the single WARC
file and the CSV logfile equal an in-process build, an append rerun
writes nothing, and the records are built once per slice however many
consumers read them. Crawl-shaped records (sparse 63-bit seqs in
overlapping blocks) make the same single file."""

import csv
import hashlib
import io
import json
import os
import zipfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from warcit_ray.config import WarcitConfig
from warcit_ray.pipelines import warc_build
from warcit_ray.pipelines.warc_build import (
    LOGFILE_COLUMNS,
    build_warc_dataset,
    logfile_rows,
    logfile_table,
    slice_bounds,
    write_logfile_csv,
    write_logfile_shards,
)
from warcit_ray.sinks.warc_sink import (
    read_warc_dir,
    seq_ranges,
    serialize_batch,
    write_warc_file,
    write_warc_shards,
)
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


def _records(cfg) -> pa.Table:
    """An in-process build: every candidate through one PayloadLoader
    and RecordBuilder, sorted by seq."""
    table, _ = enumerate_seeds(cfg.inputs, cfg.url_prefix)
    records = pa.concat_tables([warcinfo_row(cfg),
                                RecordBuilder(cfg)(PayloadLoader()(table))])
    return records.sort_by("seq")


def csv_reference(records: pa.Table) -> bytes:
    """The logfile of ``records`` by csv.writer, header first."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(LOGFILE_COLUMNS)
    w.writerows([r[c] for c in LOGFILE_COLUMNS]
                for r in logfile_rows(records.sort_by("seq")).to_pylist())
    return buf.getvalue().encode()


def crawl_records(seqs) -> pa.Table:
    """Crawl-shaped record rows with these seqs: the columns the WARC
    and logfile sinks read, seq -1 being the warcinfo row."""
    n = len(seqs)
    return pa.table({
        "seq": pa.array(seqs, pa.int64()),
        "record_type": ["warcinfo" if s == -1 else "resource" for s in seqs],
        "record_id": ["<urn:uuid:%x>" % (s % 2**64) for s in seqs],
        "warc_date": ["2026-01-01T00:00:%02dZ" % (s % 60) for s in seqs],
        "target_uri": ["file:///site/%d.html" % s for s in seqs],
        "payload": pa.array([b"<p>page %d</p>" % s for s in seqs], pa.binary()),
        "payload_digest": ["sha1:%d" % (s % 997) for s in seqs],
        "content_type": ["text/html; charset=utf-8"] * n,
        "log_file": ["%d.html" % s for s in seqs],
        "mime": ["text/html"] * n,
        "charset": [None if s % 3 else "utf-8" for s in seqs],
    })


def _reference_parts(cfg) -> dict:
    """File name -> bytes of each part and its sidecar, from an
    in-process build (:func:`_records`) serialized per part by
    serialize_batch."""
    records = _records(cfg)
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
    # a part write cut short by a crash leaves its .tmp: not a part
    first = next(f for f in want if not f.endswith(".meta.json"))
    with open(os.path.join(out_dir, first + ".tmp"), "wb") as fh:
        fh.write(want[first])
    assert len(read_warc_dir(out_dir)) == len(types)
    os.remove(os.path.join(out_dir, first + ".tmp"))

    # an append rerun over a fresh build finds every part complete and
    # writes nothing: same files, same bytes, not even rewritten
    write_warc_shards(build_warc_dataset(cfg), out_dir, mode="ab",
                      gzip_members=gzip, files_per_part=FILES_PER_PART)
    again = _snapshot(out_dir)
    again.pop("_shards.json")
    assert again == got


@pytest.mark.parametrize("gzip", [True, False])
def test_single_file_matches_in_process_build(ray_session, corpus, tmp_path, gzip):
    """The one-file WARC is the in-process build serialized in seq
    order; 'ab' appends it again, 'xb' refuses an existing file without
    touching it, and no range directory is left behind. The CSV logfile
    and logfile_table are the build's logfile rows in seq order."""
    cfg = _cfg(corpus, gzip)
    records = _records(cfg)
    want = serialize_batch(records, gzip)
    path = str(tmp_path / ("c.warc.gz" if gzip else "c.warc"))
    ds = build_warc_dataset(cfg)
    assert write_warc_file(ds, path, gzip_members=gzip) == records.num_rows == 1 + 42 + 9
    with open(path, "rb") as fh:
        assert fh.read() == want
    assert write_warc_file(build_warc_dataset(cfg), path, mode="ab",
                           gzip_members=gzip) == records.num_rows
    with open(path, "rb") as fh:
        assert fh.read() == want + want
    with pytest.raises(FileExistsError):
        write_warc_file(ds, path, gzip_members=gzip)
    with open(path, "rb") as fh:
        assert fh.read() == want + want
    log = str(tmp_path / "log.csv")
    assert write_logfile_csv(ds, log) == records.num_rows - 1  # no warcinfo row
    with open(log, "rb") as fh:
        assert fh.read() == csv_reference(records)
    assert sorted(os.listdir(tmp_path)) == sorted(["log.csv", os.path.basename(path)])
    assert logfile_table(ds).equals(logfile_rows(records).drop_columns(["seq"]))


def test_single_file_crawl_shaped(ray_session, tmp_path, monkeypatch):
    """Crawl records arrive out of seq order: sparse 63-bit seqs (up to
    2**63 - 1, and -1) spread over overlapping parquet parts, one of
    them empty. The one-file WARC still equals serialize_batch over the
    rows sorted by seq, the lazy read executes once, and a failed write
    leaves no range directory."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    rng = np.random.default_rng(11)
    seqs = np.concatenate([rng.integers(0, 2**63 - 1, 200, dtype=np.int64),
                           [2**63 - 1, 2**63 - 2, 2**62, 0, -1]])
    rng.shuffle(seqs)
    table = crawl_records(seqs.tolist())
    src = tmp_path / "records"
    src.mkdir()
    for i, rows in enumerate([table.slice(0, 80), table.slice(80, 0),
                              table.slice(80, 70), table.slice(150)]):
        pq.write_table(rows, src / ("part-%d.parquet" % i))
    executions = []
    execute = StreamingExecutor.execute

    def recorded(self, *args, **kwargs):
        executions.append(self)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", recorded)
    path = str(tmp_path / "crawl.warc.gz")
    assert write_warc_file(rd.read_parquet(str(src)), path, mode="wb") == table.num_rows
    assert len(executions) == 1
    with open(path, "rb") as fh:
        assert fh.read() == serialize_batch(table.sort_by("seq"))
    assert sorted(os.listdir(tmp_path)) == ["crawl.warc.gz", "records"]
    # a failed write removes its range directory too
    with pytest.raises(KeyError):
        write_warc_file(rd.from_arrow(table.drop_columns(["record_id"])),
                        str(tmp_path / "bad.warc.gz"))
    assert sorted(os.listdir(tmp_path)) == ["bad.warc.gz", "crawl.warc.gz", "records"]
    # the range key is monotone over the whole span a seq can take
    bounds = [(5, 9), None, (2**62, 2**63 - 1), (-1, 0)]
    key = seq_ranges(bounds)(np.array([-1, 0, 2**62, 2**63 - 2, 2**63 - 1]))
    assert key.tolist() == [0, 0, 1, 3, 3]


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
