"""Large-large joins: the bucketed hash and anti joins."""

import pandas as pd
import pytest

from warcit_ray.stages.joins import bucketed_hash_join


@pytest.fixture(scope="module")
def sides():
    import ray.data as rd

    left = rd.from_items([{"k": i, "lval": i * 10} for i in range(200)])
    right = rd.from_items(
        [{"k": i % 150, "rval": i} for i in range(300)]  # dup keys on the right
    )
    return left, right


def _expected(sides, how="inner"):
    import ray.data as rd  # noqa: F401

    l = pd.DataFrame({"k": range(200), "lval": [i * 10 for i in range(200)]})
    r = pd.DataFrame({"k": [i % 150 for i in range(300)], "rval": range(300)})
    return l.merge(r, on="k", how=how).sort_values(["k", "rval"]).reset_index(drop=True)


def test_bucketed_hash_join(sides):
    left, right = sides
    # more buckets than keys: most buckets then hold one side only
    # (left keys 150-199 have no right rows)
    for how, num_buckets in [("inner", 8), ("inner", 256), ("left", 256)]:
        got = (
            bucketed_hash_join(left, right, "k", num_buckets=num_buckets, how=how)
            .to_pandas()
            .sort_values(["k", "rval"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[["k", "lval", "rval"]],
                                      _expected(sides, how)[["k", "lval", "rval"]],
                                      check_dtype=False)


def test_bucketed_join_keeps_63bit_ids_exact(ray_session):
    # ids >= 2^53 are NOT representable in float64: any pandas float
    # widening in the join transit silently rounds them to wrong
    # neighbours. surt_hash64-style 63-bit keys are exactly the regime
    # the large dedup/components tiers run in.
    import ray.data as rd

    base = (1 << 62) + 1  # odd offsets stress the float53 boundary
    keys = [base + i for i in range(7)]
    left = rd.from_items([{"k": k, "lval": k + 1} for k in keys])
    right = rd.from_items([{"k": k, "rval": k + 2} for k in keys[:5]])
    got = (bucketed_hash_join(left, right, "k", num_buckets=4)
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert got["k"].tolist() == keys[:5]
    assert got["lval"].tolist() == [k + 1 for k in keys[:5]]
    assert got["rval"].tolist() == [k + 2 for k in keys[:5]]
    assert str(got["lval"].dtype).lower() in ("int64", "Int64".lower())


def test_bucketed_anti_join_keeps_63bit_ids_exact(ray_session):
    import ray.data as rd

    from warcit_ray.stages.joins import bucketed_anti_join

    base = (1 << 62) + 1
    keys = [base + i for i in range(9)]
    left = rd.from_items([{"k": k, "payload": k ^ 0x5A5A} for k in keys])
    drop = rd.from_items([{"k": k} for k in keys[::2]])  # drop evens
    got = (bucketed_anti_join(left, drop, "k", num_buckets=4)
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert got["k"].tolist() == keys[1::2]
    assert got["payload"].tolist() == [k ^ 0x5A5A for k in keys[1::2]]
    assert str(got["payload"].dtype) == "int64"  # no float widening at all


def test_bucketed_join_keeps_a_column_null_in_one_bucket(ray_session):
    # ``note`` is null on exactly the keys of bucket 0: that bucket's
    # output block must still carry it, and the nulls must stay None
    import numpy as np
    import ray
    import ray.data as rd

    from warcit_ray.stages.shuffle import mix_buckets

    keys = np.arange(64, dtype=np.int64)
    in_b0 = mix_buckets(4, keys) == 0
    assert 0 < in_b0.sum() < len(keys)
    left = rd.from_items([{"k": int(k), "note": None if z else "n%d" % k}
                          for k, z in zip(keys, in_b0)])
    right = rd.from_items([{"k": int(k), "rval": int(k) * 3} for k in keys])
    joined = bucketed_hash_join(left, right, "k", num_buckets=4).materialize()
    cols = {tuple(t.column_names) for t in ray.get(joined.to_arrow_refs())
            if t.num_rows}
    assert cols == {("k", "note", "rval")}
    got = joined.to_pandas().sort_values("k").reset_index(drop=True)
    assert got["k"].tolist() == keys.tolist()
    assert got["note"].tolist() == [None if z else "n%d" % k
                                    for k, z in zip(keys, in_b0)]
    assert got["rval"].tolist() == (keys * 3).tolist()
