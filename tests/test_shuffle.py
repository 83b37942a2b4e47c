"""The bucket shuffle: one per_bucket call per non-empty bucket, with
every row of the bucket, whatever the input block layout."""

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from warcit_ray.stages.shuffle import bucket_shuffle, mix_buckets

N = 600


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


def test_bucket_shuffle_one_call_per_bucket(ray_session):
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


def test_bucket_shuffle_two_sides(ray_session):
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
