"""The engine's one task wave (``task`` and ``gather`` in
stages/shuffle.py): a warm job decorates no function and reads no CPU
count, and a wave with a failing task raises that task's error, leaves
no task of it running and no error for Ray to log."""

import contextlib
import gc
import logging
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from warcit_ray.stages.shuffle import block_meta, gather, shuffle_blocks, task

from .test_warc_convert import _cfg, corpus, crawl_records  # noqa: F401  (corpus: a fixture)


class WaveError(Exception):
    """The one failing task's own error type."""


def test_block_meta_of_an_empty_pandas_block_logs_nothing(caplog):
    """A reduce part with no rows, built from pandas batches with object
    columns (the no-pair part of a string-id Hamming emit), gets its
    metadata without Ray's size estimate logging an error."""
    log = logging.getLogger("ray.data")
    log.addHandler(caplog.handler)
    try:
        with caplog.at_level(logging.WARNING, logger="ray.data"):
            meta = block_meta(pd.DataFrame({"id_a": pd.Series([], dtype=object),
                                            "id_b": pd.Series([], dtype=object)}))
    finally:
        log.removeHandler(caplog.handler)
    assert [r.getMessage() for r in caplog.records] == []
    assert (meta.num_rows, meta.size_bytes) == (0, 0)
    assert list(meta.schema.names) == ["id_a", "id_b"]


def test_warm_jobs_decorate_nothing(ray_session, corpus, tmp_path, monkeypatch):
    """A second run of the convert job and its sinks, the near-dup
    families, connected components and a 2-generation crawl makes no
    ``ray.remote`` call and reads no cluster resources: every task is
    decorated once per process and the CPU count once per session."""
    from warcit_ray.pipelines.crawl import WebGraph, crawl
    from warcit_ray.pipelines.warc_build import build_warc_dataset, write_logfile_csv
    from warcit_ray.sinks.warc_sink import write_warc_shards
    from warcit_ray.sources.synth import make_image_table
    from warcit_ray.stages.components import connected_components
    from warcit_ray.stages.dedup import banded_hamming_pairs, near_dup_pairs

    cfg = _cfg(corpus, True)
    rows = [{"doc_id": i, "text": "w%d alpha beta gamma delta" % (i % 9)} for i in range(40)]
    docs = rd.from_arrow([pa.Table.from_pylist(rows[i::4]) for i in range(4)])
    rng = np.random.default_rng(3)
    sig = rng.integers(0, 2**62, 30)
    sigs = rd.from_arrow(pa.table({"image_id": ["img%03d" % i for i in range(60)],
                                   "sig": np.concatenate([sig, sig ^ 1])}))
    pairs = rd.from_arrow(pa.table({"id_a": [1, 2, 7, 9], "id_b": [2, 3, 5, 7]}))
    images = make_image_table(60)

    def jobs(run: int) -> None:
        ds = build_warc_dataset(cfg)
        write_warc_shards(ds, str(tmp_path / ("shards%d" % run)))
        write_logfile_csv(ds, str(tmp_path / ("log%d.csv" % run)))
        near_dup_pairs(docs, threshold=0.9)
        assert len(banded_hamming_pairs(sigs, sig_col="sig", id_col="image_id",
                                        max_hamming=3)) == 30
        connected_components(pairs)
        assert crawl(images, graph=WebGraph(60), max_generations=2)["generations"] == 2

    jobs(0)
    calls = []
    for name in ("remote", "cluster_resources"):
        def counted(*a, _name=name, _fn=getattr(ray, name), **k):
            calls.append(_name)
            return _fn(*a, **k)

        monkeypatch.setattr(ray, name, counted)
    jobs(1)
    assert calls == []


def _sleep_or_fail(i: int, bad: int, marks: str) -> tuple:
    """A wave task: task ``bad`` raises at once, every other one sleeps,
    then leaves a marker file and returns a block and its metadata."""
    if i == bad:
        raise WaveError("task %d failed" % i)
    time.sleep(2)
    open(os.path.join(marks, "task-%d" % i), "w").close()
    t = pa.table({"i": [i]})
    return t, block_meta(t)


@contextlib.contextmanager
def _unhandled_errors():
    """The "Unhandled error" reports Ray logs while the block runs and
    once its refs are freed."""
    logged = []

    class Catch(logging.Handler):
        def emit(self, record):
            logged.append(record.getMessage())

    handler = Catch()
    log = logging.getLogger("ray._private.worker")
    log.addHandler(handler)
    try:
        yield logged
        gc.collect()
        time.sleep(2)  # the report runs when a ref is freed
        gc.collect()
    finally:
        log.removeHandler(handler)
    logged[:] = [m for m in logged if "Unhandled error" in m]


def _fails_alone(call, marks: str, match: str) -> BaseException:
    """``call()`` raises one error of the failing task's own type, no
    marker appears in ``marks`` once it has returned, and Ray logs no
    unhandled error."""
    with _unhandled_errors() as logged:
        with pytest.raises(Exception) as info:
            call()
        before = sorted(os.listdir(marks))
        time.sleep(3)
        assert sorted(os.listdir(marks)) == before
    assert info.type.__name__ != "TaskCancelledError"
    assert info.match(match)
    assert logged == []
    return info.value


def test_block_wave_fails_as_its_task(ray_session, tmp_path):
    marks = str(tmp_path)
    wave = task(_sleep_or_fail, num_returns=2)
    err = _fails_alone(lambda: gather([wave.remote(i, 1, marks) for i in range(6)]),
                       marks, "task 1 failed")
    assert isinstance(err, WaveError)


def test_shuffle_fails_as_its_reduce(ray_session, tmp_path):
    """One part's ``per_bucket`` raises at once; every other one sleeps
    and then leaves a marker."""
    marks = str(tmp_path)

    def per_bucket(b: int, rows: pa.Table) -> pa.Table:
        _sleep_or_fail(b, 0, marks)
        return rows

    blocks = [(ray.put(t), block_meta(t)) for t in
              (pa.table({"id": list(range(k, 40, 4))}) for k in range(4))]
    err = _fails_alone(lambda: shuffle_blocks(blocks, lambda t: t["id"].to_numpy() % 4,
                                              per_bucket), marks, "task 0 failed")
    assert isinstance(err, WaveError)


def test_sharded_sink_fails_as_its_task(ray_session, tmp_path):
    """A record block without ``record_id`` fails its serialize task:
    the sink raises that KeyError and writes no part."""
    from warcit_ray.sinks.warc_sink import write_warc_shards

    records = crawl_records(list(range(40)))
    blocks = [records.slice(i, 10) for i in range(0, 40, 10)]
    blocks[2] = blocks[2].drop_columns(["record_id"])
    out = tmp_path / "out"
    err = _fails_alone(lambda: write_warc_shards(rd.from_arrow(blocks), str(out)),
                       str(tmp_path), "record_id")
    assert isinstance(err, KeyError)
    assert [f for f in os.listdir(out) if f.startswith("part-")] == []
