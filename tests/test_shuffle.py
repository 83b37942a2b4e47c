"""The bucket shuffle: one per_bucket call per non-empty bucket, with
every row of the bucket, whatever the input block layout."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from warcit_ray.sinks.warc_sink import serialize_batch
from warcit_ray.stages.shuffle import (
    _group_blocks,
    block_meta,
    blocks_dataset,
    bucket_shuffle,
    dataset_blocks,
    mix_buckets,
    shuffle_blocks,
)

from .test_dedup import _near_dup_ref, _triples
from .test_warc_convert import (  # noqa: F401  (corpus: a fixture)
    _cfg,
    _records,
    corpus,
    crawl_records,
    csv_reference,
)

N = 600


@pytest.fixture
def per_block_split(monkeypatch):
    """Every non-empty block its own map group, as a block of at least
    ``target_min_block_size`` is: these tests' blocks are tiny, and they
    check how rows of many map tasks come together."""
    from ray.data import DataContext

    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", 1)


def _buckets(t: pa.Table) -> np.ndarray:
    # buckets 0, 2, 4, 6, 8 only: the odd ones stay empty
    return (t.column("id").to_numpy() % 5) * 2


def _spread(ds) -> dict:
    """bucket -> number of input blocks holding some of its rows."""
    seen: dict = {}
    for t in ray.get(ds.to_arrow_refs()):
        for b in set(_buckets(t).tolist()):
            seen[b] = seen.get(b, 0) + 1
    return seen


def test_bucket_shuffle_one_call_per_bucket(ray_session, per_block_split):
    ds = rd.range(N, override_num_blocks=6).materialize()
    assert all(n >= 4 for n in _spread(ds).values())

    def per_bucket(b: int, rows: pa.Table) -> pa.Table:
        return pa.table({"bucket": [b], "cols": [",".join(rows.column_names)],
                         "ids": [sorted(rows.column("id").to_pylist())]})

    got = bucket_shuffle(ds, _buckets, per_bucket).to_pandas()
    assert sorted(got["bucket"]) == [0, 2, 4, 6, 8]  # one call each, none empty
    for b, cols, ids in zip(got["bucket"], got["cols"], got["ids"]):
        assert cols == "id"  # the tag is stripped
        assert list(ids) == [i for i in range(N) if (i % 5) * 2 == b]


def test_bucket_shuffle_two_sides(ray_session, per_block_split):
    left = rd.range(N, override_num_blocks=6).materialize()
    # the right side brings its own columns and skips bucket 8, which
    # then reaches per_bucket with right=None
    right = rd.from_items([{"id": i, "r": str(i)} for i in range(N) if i % 5 != 4],
                          override_num_blocks=5).materialize()
    assert all(n >= 4 for n in _spread(left).values())
    assert all(n >= 4 for n in _spread(right).values())

    def per_bucket(b: int, sides: tuple):
        import pandas as pd

        l, r = sides
        if r is None:  # no right rows in this bucket
            r = pd.DataFrame({"id": [], "r": []})
        return pd.DataFrame({"bucket": [b], "lcols": [",".join(l.columns)],
                             "rcols": [",".join(r.columns)],
                             "lids": [sorted(l["id"].tolist())],
                             "rids": [sorted(r["id"].tolist())],
                             "rvals": [sorted(r["r"].tolist())]})

    got = bucket_shuffle((left, right), _buckets, per_bucket,
                         batch_format="pandas").to_pandas()
    assert sorted(got["bucket"]) == [0, 2, 4, 6, 8]
    for _, row in got.iterrows():
        want = [i for i in range(N) if (i % 5) * 2 == row["bucket"]]
        assert (row["lcols"], row["rcols"]) == ("id", "id,r")
        assert list(row["lids"]) == want
        want_r = [] if row["bucket"] == 8 else want
        assert list(row["rids"]) == want_r
        assert list(row["rvals"]) == sorted(str(i) for i in want_r)


@pytest.mark.parametrize("blocks", [1, 6])
def test_bucket_shuffle_unifies_output_types(ray_session, per_block_split, blocks):
    # one block: every bucket reduces in one task; six: across tasks
    ds = rd.range(N, override_num_blocks=blocks).materialize()

    def per_bucket(b: int, rows: pa.Table):
        if b == 4:
            return pd.DataFrame()
        if b == 6:
            return pa.table({})
        item = pa.float32() if b == 0 else pa.float64()
        return pa.table({"bucket": [b], "v": pa.array([[1.5]], pa.list_(item))})

    got = bucket_shuffle(ds, _buckets, per_bucket).to_pandas()
    assert sorted(got["bucket"]) == [0, 2, 8]
    assert [list(v) for v in got["v"]] == [[1.5]] * 3


def test_bucket_shuffle_raises_the_callers_error(ray_session):
    def per_bucket(b: int, rows: pa.Table):
        raise ValueError("refusing bucket %d" % b)

    with pytest.raises(ValueError, match="refusing bucket"):
        bucket_shuffle(rd.range(N, override_num_blocks=3), _buckets,
                       per_bucket).materialize()


def test_bucket_shuffle_pandas_and_empty_blocks(ray_session):
    # Arrow, pandas and zero-row blocks (one of them without columns)
    ds = rd.from_arrow([pa.table({"id": list(range(0, 300))}),
                        pa.table({"id": pa.array([], pa.int64())}),
                        pa.table({})]).union(
        rd.from_pandas([pd.DataFrame({"id": range(300, N)}), pd.DataFrame()]))

    def per_bucket(b: int, rows: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"bucket": [b], "ids": [sorted(rows["id"].tolist())]})

    got = bucket_shuffle(ds, _buckets, per_bucket, batch_format="pandas").to_pandas()
    assert sorted(got["bucket"]) == [0, 2, 4, 6, 8]
    for b, ids in zip(got["bucket"], got["ids"]):
        assert list(ids) == [i for i in range(N) if (i % 5) * 2 == b]


def test_bucket_shuffle_empty_input(ray_session):
    def per_bucket(b: int, rows):
        raise AssertionError("called for bucket %d" % b)

    empty = rd.range(N).filter(lambda r: False)
    for sides in (empty, (empty, rd.from_arrow(pa.table({"id": []})))):
        out = bucket_shuffle(sides, _buckets, per_bucket)
        assert out.count() == 0 and len(out.to_pandas()) == 0


def test_bucket_shuffle_one_side_empty(ray_session):
    left = rd.range(N, override_num_blocks=4)
    right = rd.range(N).filter(lambda r: False)
    for pair, flip in (((left, right), False), ((right, left), True)):
        def per_bucket(b: int, sides: tuple, flip=flip) -> pa.Table:
            l, r = sides[::-1] if flip else sides
            assert r is None
            return pa.table({"bucket": [b], "n": [l.num_rows]})

        got = bucket_shuffle(pair, _buckets, per_bucket).to_pandas()
        assert sorted(got["bucket"]) == [0, 2, 4, 6, 8]
        assert got["n"].sum() == N


def test_mix_buckets_formula():
    k = np.array([0, 1, 2, -1, (1 << 62) + 7], dtype=np.int64)
    phi, c = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F
    m = (1 << 64) - 1
    want = [((int(x) & m) * phi & m) >> 33 for x in k]
    assert mix_buckets(7, k).tolist() == [w % 7 for w in want]
    j = k[::-1].copy()
    want2 = [((((int(x) & m) * phi) & m) ^ (((int(y) & m) * c) & m)) >> 33
             for x, y in zip(k, j)]
    assert mix_buckets(7, k, j).tolist() == [w % 7 for w in want2]


def test_bucket_shuffle_consumes_every_reduce_error(ray_session, per_block_split):
    """per_bucket raising in every bucket of a 3-bucket shuffle over 4
    blocks raises once, and no failed part is left for Ray to log as an
    unhandled error."""
    import gc
    import logging
    import time

    def per_bucket(b: int, rows: pa.Table):
        raise ValueError("refusing bucket %d" % b)

    logged = []

    class Catch(logging.Handler):
        def emit(self, record):
            logged.append(record.getMessage())

    handler = Catch()
    log = logging.getLogger("ray._private.worker")
    log.addHandler(handler)
    try:
        ds = rd.range(N, override_num_blocks=4).materialize()
        with pytest.raises(ValueError, match="refusing bucket 0"):
            bucket_shuffle(ds, lambda t: t.column("id").to_numpy() % 3, per_bucket)
        gc.collect()
        time.sleep(2)  # the unhandled-error report runs when a ref is freed
        gc.collect()
    finally:
        log.removeHandler(handler)
    assert not [m for m in logged if "Unhandled error" in m], logged


def test_group_blocks():
    # runs of blocks under the minimum share a map group, closed once
    # they reach it; a block at or over it, or of unknown size, is alone
    sizes = [10, 10, 100, 5, 5, 5, None, 50, 20, 1]
    assert _group_blocks(list(enumerate(sizes)), 20, 1) == [
        [0, 1], [2], [3, 4, 5], [6], [7], [8], [9]]
    assert _group_blocks([(i, 20) for i in range(4)], 20, 1) == [[0], [1], [2], [3]]
    assert _group_blocks([], 20, 4) == []
    # a side of 12 x 10 bytes keeps 4 groups, not 1, at min_groups=4
    assert _group_blocks([(i, 10) for i in range(12)], 1000, 1) == [list(range(12))]
    assert _group_blocks([(i, 10) for i in range(12)], 1000, 4) == [
        [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]


def test_bucket_shuffle_tiny_blocks_same_buckets(ray_session, monkeypatch):
    """Two sides of one-row blocks give every bucket the same rows, in
    input order, whether their blocks share map groups or not."""
    from ray.data import DataContext

    left = rd.from_items([{"id": i, "v": i * 3} for i in range(200)]).materialize()
    right = rd.from_arrow([pa.table({"id": [i], "r": [str(i)]})
                           for i in range(199, -1, -2)]).materialize()
    assert left.num_blocks() == 200 and right.num_blocks() == 100

    def per_bucket(b: int, sides: tuple) -> pa.Table:
        l, r = sides
        return pa.table({"bucket": [b], "l": [l.column("id").to_pylist()],
                         "r": [r.column("id").to_pylist() if r is not None else []]})

    def run():
        got = bucket_shuffle((left, right), _buckets, per_bucket).to_pandas()
        return {b: (list(l), list(r)) for b, l, r in
                zip(got["bucket"], got["l"], got["r"])}

    grouped = run()
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", 1)
    assert run() == grouped
    assert sorted(grouped) == [0, 2, 4, 6, 8]
    for b, (l, r) in grouped.items():
        assert l == [i for i in range(200) if (i % 5) * 2 == b]
        assert r == [i for i in range(199, -1, -2) if (i % 5) * 2 == b]


@pytest.mark.parametrize("two_sides", [False, True])
def test_bucket_shuffle_equals_its_block_core(ray_session, per_block_split, two_sides):
    """bucket_shuffle over Datasets and shuffle_blocks over the same
    blocks' refs give every bucket the same rows, in input order."""
    left = rd.from_arrow([pa.table({"id": list(range(i, N, 7)), "v": list(range(i, N, 7))})
                          for i in range(7)]).materialize()
    right = rd.range(N, override_num_blocks=5).map_batches(
        lambda t: t.append_column("r", pa.array([str(i) for i in t["id"].to_pylist()])),
        batch_format="pyarrow").materialize()

    def per_bucket(b: int, rows) -> pa.Table:
        sides = rows if two_sides else (rows,)
        return pa.table({"bucket": [b]} | {
            "ids%d" % k: [s.column("id").to_pylist() if s is not None else []]
            for k, s in enumerate(sides)})

    def rows_of(blocks) -> dict:
        got = [r for t in ray.get(blocks) for r in t.to_pylist()]
        assert len({r["bucket"] for r in got}) == len(got)  # one call a bucket
        return {r.pop("bucket"): r for r in got}

    sides = (left, right) if two_sides else left
    blocks = (tuple(map(dataset_blocks, sides)) if two_sides
              else dataset_blocks(sides))
    assert all(len(side) >= 5 for side in (blocks if two_sides else (blocks,)))
    via_ds = rows_of(bucket_shuffle(sides, _buckets, per_bucket).to_arrow_refs())
    via_refs = rows_of([ref for ref, _ in shuffle_blocks(blocks, _buckets, per_bucket)])
    assert via_ds == via_refs
    assert sorted(via_refs) == [0, 2, 4, 6, 8]
    order = [i for k in range(7) for i in range(k, N, 7)]  # left's input order
    for b, row in via_refs.items():
        assert row["ids0"] == [i for i in order if (i % 5) * 2 == b]
        if two_sides:
            assert row["ids1"] == [i for i in range(N) if (i % 5) * 2 == b]


def test_engine_runs_no_ray_data_shuffle(ray_session, monkeypatch, tmp_path):
    """Every grouped step of the engine runs on the one bucket shuffle
    or a driver merge of per-block partials: with Ray Data's groupby,
    repartition, join, sort and sum raising, components, top-k search,
    sessions, the mapfile double-match check, the top-customers query
    and the single-file WARC and logfile sinks still return their
    references."""
    from warcit_ray.pipelines import queries
    from warcit_ray.pipelines.warc_build import logfile_rows, logfile_table, write_logfile_csv
    from warcit_ray.sinks.warc_sink import write_warc_file
    from warcit_ray.stages.build_records import check_mapfile_unique
    from warcit_ray.stages.components import connected_components
    from warcit_ray.stages.dedup import components_from_pairs
    from warcit_ray.stages.similarity import brute_topk, ivf_topk
    from warcit_ray.stages.windows import sessionize

    rng = np.random.default_rng(7)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 60, (50, 2)) if a != b]
    pairs = rd.from_arrow([pa.Table.from_pylist(
        [{"id_a": a, "id_b": b} for a, b in edges[i::3]]) for i in range(3)])
    vecs = rng.normal(size=(300, 8))
    vectors = rd.from_arrow([pa.table({
        "vec_id": np.arange(i, 300, 3),
        "embedding": pa.array(vecs[i::3].tolist(), pa.list_(pa.float32()))})
        for i in range(3)])
    queries_m = rng.normal(size=(4, 8))
    events = pd.DataFrame({
        "event_id": np.arange(400),
        "user_id": rng.integers(0, 12, 400),
        "ts": pd.Timestamp("2026-01-01") + pd.to_timedelta(
            np.sort(rng.integers(0, 24 * 60, 400)), unit="min"),
        "value": rng.random(400)})
    orders = pd.DataFrame({"o_custkey": rng.integers(0, 60, 600),
                           "o_totalprice": rng.integers(100, 100_000, 600) / 100})
    orders.to_parquet(tmp_path / "orders.parquet")
    pd.DataFrame({"c_custkey": np.arange(60), "c_name": ["c%d" % i for i in range(60)]}
                 ).to_parquet(tmp_path / "customer.parquet")
    mapped = rd.from_arrow([pa.table({"mapfile_row": [-1, 0, 2]}),
                            pa.table({"mapfile_row": [1, -1, 2]})])
    records = crawl_records(rng.permutation([-1] + list(range(0, 2**40, 2**34))).tolist())
    records_ds = rd.from_arrow([records.slice(i, 13) for i in range(0, records.num_rows, 13)])

    def refuse(*_a, **_k):
        raise AssertionError("a Ray Data shuffle ran")

    for name in ("groupby", "repartition", "join", "sort", "sum"):
        monkeypatch.setattr(rd.Dataset, name, refuse)
    comp = connected_components(pairs).to_pandas()
    brute = brute_topk(vectors, queries_m, k=5, dtype=np.float64)
    ivf = ivf_topk(vectors, queries_m, k=5, n_clusters=4, nprobe=4)
    sessions = sessionize(rd.from_pandas(events)).to_pandas()
    with pytest.raises(ValueError, match=r"Mapfile row\(s\) \[2\] matched more than one"):
        check_mapfile_unique(mapped, 3)
    check_mapfile_unique(rd.from_arrow(pa.table({"mapfile_row": [0, 1, -1, -1]})), 2)
    top = queries.top_customers(str(tmp_path))
    warc_n = write_warc_file(records_ds, str(tmp_path / "r.warc.gz"))
    log_n = write_logfile_csv(records_ds, str(tmp_path / "r.csv"))
    log = logfile_table(records_ds)
    monkeypatch.undo()

    assert dict(zip(comp["member"], comp["component"])) == dict(components_from_pairs(edges))
    # exact cosine top-k, and IVF probing every list is exact too
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = (queries_m / np.linalg.norm(queries_m, axis=1, keepdims=True)) @ unit.T
    want = np.argsort(-sims, axis=1, kind="stable")[:, :5]
    for got in (brute, ivf):
        assert list(got.columns) == ["query_id", "vec_id", "score", "rank"]
        assert got["vec_id"].tolist() == want.ravel().tolist()
        assert got["rank"].tolist() == [1, 2, 3, 4, 5] * 4
        np.testing.assert_allclose(got["score"], np.take_along_axis(sims, want, 1).ravel(),
                                   rtol=1e-5)
    ref = []
    for user, g in events.sort_values(["user_id", "ts", "event_id"]).groupby("user_id"):
        sid = (g["ts"].diff() > pd.Timedelta(minutes=30)).cumsum()
        for _, s in g.groupby(sid):
            ref.append((user, s["ts"].min(), len(s), s["value"].sum()))
    got = sessions.sort_values(["user_id", "session_start"])
    assert list(sessions.columns) == ["user_id", "session_start", "n_events", "sum_value"]
    assert [r[:3] for r in ref] == list(zip(got["user_id"], got["session_start"],
                                            got["n_events"]))
    np.testing.assert_allclose(got["sum_value"], [r[3] for r in ref])
    spend = orders.groupby("o_custkey")["o_totalprice"].agg(["sum", "size"]).reset_index()
    spend["sum"] = spend["sum"].round(2)
    spend = spend.sort_values(["sum", "o_custkey"], ascending=[False, True]).head(10)
    assert top["c_custkey"].tolist() == spend["o_custkey"].tolist()
    assert top["c_name"].tolist() == ["c%d" % k for k in spend["o_custkey"]]
    assert top["n_orders"].tolist() == spend["size"].tolist()
    np.testing.assert_allclose(top["total_spend"], spend["sum"])
    assert warc_n == log_n + 1 == records.num_rows
    assert (tmp_path / "r.warc.gz").read_bytes() == serialize_batch(records.sort_by("seq"))
    assert (tmp_path / "r.csv").read_bytes() == csv_reference(records)
    assert log.equals(logfile_rows(records.sort_by("seq")).drop_columns(["seq"]))


def test_blocks_dataset_matches_from_arrow(ray_session):
    """A Dataset over existing blocks is the one ``rd.from_arrow`` makes
    of the same tables: the same fields (a Ray release that adds one to
    ``Dataset.__init__`` fails here), rows, blocks and schema, and Ray
    Data operators applied to it give the same results."""
    tables = [pa.table({"seq": pa.array([9, 3, 7], pa.int64()), "name": ["i", "c", "g"]}),
              pa.table({"seq": pa.array([1, 8], pa.int64()), "name": ["a", "h"]}),
              pa.table({"seq": pa.array([5], pa.int64()), "name": ["e"]})]
    ours = blocks_dataset([(ray.put(t), block_meta(t)) for t in tables])
    ref = rd.from_arrow(tables)
    assert type(ours) is type(ref)
    assert set(vars(ours)) == set(vars(ref))
    assert ours.get_dataset_id() != ref.get_dataset_id()
    assert ours.count() == ref.count() == 6
    assert ours.num_blocks() == ref.num_blocks() == 3
    assert ours.schema() == ref.schema()
    assert ours.take_all() == ref.take_all()
    assert ours.sort("seq").take_all() == ref.sort("seq").take_all()
    assert ours.select_columns(["name"]).to_pandas().equals(
        ref.select_columns(["name"]).to_pandas())
    assert ours.repartition(3).count() == ref.repartition(3).count() == 6


def test_engine_datasets_ask_no_stats_actor(ray_session, corpus, tmp_path, monkeypatch):
    """A job of plain tasks builds its Datasets without Ray Data's stats
    actor (starting it is about a second of a session's first job): with
    the actor's dataset-id call raising, the convert wave and its three
    sinks, near-dup over existing blocks and connected components still
    give their references."""
    from ray.data._internal.stats import StatsManager

    from warcit_ray.pipelines.warc_build import build_warc_dataset, write_logfile_csv
    from warcit_ray.sinks.warc_sink import read_warc_dir, write_warc_file, write_warc_shards
    from warcit_ray.stages.components import connected_components
    from warcit_ray.stages.dedup import components_from_pairs, near_dup_pairs

    cfg = _cfg(corpus, True)
    texts = ["w%d alpha beta gamma delta epsilon" % (i % 25) for i in range(60)]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    docs = rd.from_arrow([pa.Table.from_pylist(rows[i::4]) for i in range(4)])
    edges = [(1, 2), (2, 3), (7, 5), (9, 8), (8, 7)]
    pairs = rd.from_arrow([pa.Table.from_pylist([{"id_a": a, "id_b": b} for a, b in edges])])
    no_pairs = rd.from_arrow(pa.table({"id_a": pa.array([], pa.int64()),
                                       "id_b": pa.array([], pa.int64())}))

    def refuse():
        raise AssertionError("a Dataset asked the stats actor for its id")

    monkeypatch.setattr(StatsManager, "get_dataset_id_from_stats_actor", refuse)
    ds = build_warc_dataset(cfg)
    shards = write_warc_shards(ds, str(tmp_path / "shards"))
    warc_n = write_warc_file(ds, str(tmp_path / "c.warc.gz"))
    log_n = write_logfile_csv(ds, str(tmp_path / "c.csv"))
    verified, stats = near_dup_pairs(docs, threshold=0.9)
    comp = connected_components(pairs)
    empty = connected_components(no_pairs)
    monkeypatch.undo()

    records = _records(cfg)
    assert shards and len(read_warc_dir(str(tmp_path / "shards"))) == records.num_rows
    assert warc_n == log_n + 1 == records.num_rows
    assert (tmp_path / "c.warc.gz").read_bytes() == serialize_batch(records)
    assert (tmp_path / "c.csv").read_bytes() == csv_reference(records)
    assert _triples(verified) == _near_dup_ref(rows, 0.9) != []
    assert stats["docs"] == len(rows)
    got = pa.concat_tables(ray.get(comp.to_arrow_refs()))
    assert dict(zip(got["member"].to_pylist(), got["component"].to_pylist())) \
        == dict(components_from_pairs(edges))
    assert empty.count() == 0
    assert empty.schema().names == ["member", "component"]
