"""connected_components (min-label propagation with pointer jumping and
hooking on shuffle_blocks) against the driver union-find,
components_from_pairs."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from warcit_ray.stages.components import connected_components
from warcit_ray.stages.dedup import components_from_pairs


def _graph_edges():
    # chain 0-1-2-3-4 (diameter > 1 forces several propagation rounds),
    # a 4-clique {10,11,12,13}, one isolated pair (20, 21), and a star
    # 30 <- {31, 32, 33}; edges given in unhelpful orders
    return [(1, 0), (1, 2), (3, 2), (3, 4),
            (10, 11), (12, 10), (13, 11), (12, 13),
            (21, 20),
            (31, 30), (30, 32), (33, 30)]


EXPECTED = {
    0: 0, 1: 0, 2: 0, 3: 0, 4: 0,
    10: 10, 11: 10, 12: 10, 13: 10,
    20: 20, 21: 20,
    30: 30, 31: 30, 32: 30, 33: 30,
}


def _pairs(edges, blocks: int = 4):
    a = np.array([x for x, _ in edges], dtype=np.int64)
    b = np.array([y for _, y in edges], dtype=np.int64)
    return rd.from_arrow([pa.table({"id_a": a[i::blocks], "id_b": b[i::blocks]})
                          for i in range(blocks)])


def _labels(ds) -> dict:
    df = ds.to_pandas()
    assert list(df.columns) == ["member", "component"]
    assert not df["member"].duplicated().any()
    return dict(zip(df["member"].astype("int64").tolist(),
                    df["component"].astype("int64").tolist()))


def _check(edges, **kw):
    got = _labels(connected_components(_pairs(edges), **kw))
    assert got == dict(components_from_pairs(edges))
    return got


def test_components_graph(ray_session):
    assert _check(_graph_edges()) == EXPECTED
    # one row per pair, as rd.from_items makes them
    got = connected_components(rd.from_items(
        [{"id_a": a, "id_b": b} for a, b in _graph_edges()]))
    assert _labels(got) == EXPECTED


def test_components_random_graph_matches_unionfind(ray_session):
    # random sparse graph: multi-node merged components of small diameter
    rng = np.random.default_rng(5)
    n = 48
    a = rng.integers(0, n, 60)
    b = rng.integers(0, n, 60)
    keep = a != b
    _check(list(zip(a[keep].tolist(), b[keep].tolist())))


def test_components_63bit_ids_exact(ray_session):
    # ids >= 2^53 (63-bit hashes) must survive exactly: any float64
    # transit would round them to wrong components
    base = (1 << 62) + 1
    got = _check([(base + 0, base + 1), (base + 1, base + 2), (base + 10, base + 11)])
    assert got == {base + 0: base + 0, base + 1: base + 0, base + 2: base + 0,
                   base + 10: base + 10, base + 11: base + 10}


def test_components_empty(ray_session):
    out = connected_components(rd.from_items([]))
    # stable schema even for zero pairs (empty Dataset.to_pandas drops
    # columns — a Ray quirk — so assert on the Dataset schema)
    assert out.schema().names == ["member", "component"]
    assert out.count() == 0


def test_components_raises_when_iteration_budget_exhausted(ray_session):
    # a 10-node chain cannot settle in 2 rounds: the call must refuse
    # to return labels it has not certified
    chain = [(i, i + 1) for i in range(9)]
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components(_pairs(chain), max_iters=2)
    # and with budget to spare the same graph converges exactly
    assert set(_check(chain).values()) == {0}


def test_components_long_chains_settle_in_log_rounds(ray_session):
    # pointer jumping doubles the distance a label moves per round: a
    # 1,000-link chain settles (and is certified) within 12 rounds, where
    # one hop per round would need 1,000
    _check([(i, i + 1) for i in range(1000)], max_iters=12)
    # hooking: with shuffled ids the labels form many short trees, which
    # pointer jumping alone merges about one hop per round
    ids = np.random.default_rng(3).permutation(1001).tolist()
    _check([(ids[i], ids[i + 1]) for i in range(1000)], max_iters=16)
