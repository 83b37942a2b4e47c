"""Connected components over a pair Dataset.

The dedup family reduces a corpus to verified duplicate PAIRS
(id_a, id_b); turning pairs into duplicate GROUPS is a connected-
components pass. :func:`connected_components` runs it on the engine's
one all-to-all (:func:`~.shuffle.shuffle_blocks`), and no label reaches
the driver. It is min-label propagation with the two steps of
Shiloach-Vishkin that make the round count logarithmic: pointer
jumping (an id takes its label's label) and hooking (a label whose
child found a lower label takes that label too). One shuffle of the
pairs gives every id the smallest of itself and its neighbours as its
label; each round then runs two shuffles on ``mix(id)``:

- the first brings each id's label together with its pairs, with the
  ids whose label it is, and with those of them whose label dropped in
  the last round; it lowers the label to the lowest of those, then
  proposes it to the id, to each neighbour and, as their grand-parent
  label, to each id whose label it is;
- the second keeps the smallest proposal per id; one small task per
  part splits off the ids whose label dropped, and their count goes to
  the driver.

A label only ever names an id of the same component and never grows,
so a round in which no label drops certifies that every id carries the
smallest id it reaches. A chain of 1,000 links settles in 11 rounds,
one of 20,000 links with shuffled ids in 21.

``components_from_pairs`` (stages/dedup.py), the driver union-find,
stays as the near-dup dup map's step and as the tests' reference.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import (block_meta, blocks_dataset, dataset_blocks, gather, key_buckets,
                      shuffle_blocks, task)

_EMPTY = pa.schema([pa.field("member", pa.int64()),
                    pa.field("component", pa.int64())])


def connected_components(pairs, *, id_a: str = "id_a", id_b: str = "id_b",
                         max_iters: int = 64):
    """Dataset[(id_a, id_b, ...)] -> Dataset[(member, component)]: one
    row per distinct id of ``pairs``, component = the smallest id it
    reaches (the representative maps to itself).

    ``max_iters`` bounds the rounds INCLUDING the final no-change round
    that certifies the fixpoint; a change in the last allowed round
    leaves convergence unknown, and the call raises rather than return
    labels it cannot certify."""
    import ray

    from .dedup import _coarse_bucket_count

    edges = dataset_blocks(pairs)
    # a pair row holds at least two int64 ids
    num_buckets = _coarse_bucket_count(sum(meta.size_bytes or 0 for _, meta in edges) // 16)
    split = task(_split_dropped, num_returns=3)

    def by(col: str):
        return key_buckets(col, num_buckets)

    def settled(parts) -> tuple:
        """The min shuffle's parts -> (labels, dropped) parts."""
        outs = gather([split.remote(ref) for ref, meta in parts if meta.num_rows])
        return ([(labels, meta) for labels, _, (meta, _) in outs],
                [(dropped, meta) for _, dropped, (_, meta) in outs])

    def seed(_bucket: int, rows: tuple) -> pa.Table:
        ids, lbls, own = [], [], []
        for t, near, far in zip(rows, (id_a, id_b), (id_b, id_a)):
            if t is not None:
                ids += [_ids(t, near)] * 2
                lbls += [_ids(t, far), _ids(t, near)]
                own += [np.zeros(t.num_rows, bool), np.ones(t.num_rows, bool)]
        return _min_labels(*map(np.concatenate, (ids, lbls, own)))

    def propose(_bucket: int, rows: tuple) -> pa.Table:
        labels, by_a, by_b, children, dropped = rows
        ids, current = _ids(labels, "member"), _ids(labels, "component")
        order = np.argsort(ids)
        ids, current = ids[order], current[order]
        lbl = current.copy()
        if dropped is not None:  # hooking
            np.minimum.at(lbl, np.searchsorted(ids, _ids(dropped, "prev")),
                          _ids(dropped, "component"))
        hooked = lbl < current
        to, props = [ids, ids[hooked]], [current, lbl[hooked]]
        for t, near, far in ((by_a, id_a, id_b), (by_b, id_b, id_a),
                             (children, "component", "member")):  # pointer jumping
            if t is not None:
                to.append(_ids(t, far))
                props.append(lbl[np.searchsorted(ids, _ids(t, near))])
        own = np.zeros(sum(map(len, to)), bool)
        own[:len(ids)] = True
        return pa.table({"id": np.concatenate(to), "label": np.concatenate(props),
                         "own": own})

    def keep_min(_bucket: int, t: pa.Table) -> pa.Table:
        return _min_labels(_ids(t, "id"), _ids(t, "label"), t.column("own").to_numpy())

    labels, _ = settled(shuffle_blocks((edges, edges), (by(id_a), by(id_b)), seed))
    dropped = []
    for _ in range(max_iters):
        proposals = shuffle_blocks(
            (labels, edges, edges, labels, dropped),
            (by("member"), by(id_a), by(id_b), by("component"), by("prev")), propose)
        labels, dropped = settled(shuffle_blocks(proposals, by("id"), keep_min))
        if not any(meta.num_rows for _, meta in dropped):
            empty = _EMPTY.empty_table()  # no pair: no label, but a schema
            return blocks_dataset(labels or [(ray.put(empty), block_meta(empty))])
    # callers treat the output as exact; a component whose labels still
    # dropped in the last round would come back unconverged
    raise RuntimeError(
        "connected_components did not converge within max_iters=%d rounds; "
        "rerun with a larger max_iters" % max_iters)


def _ids(t: pa.Table, col: str) -> np.ndarray:
    return t.column(col).to_numpy().astype(np.int64, copy=False)


def _min_labels(ids: np.ndarray, lbls: np.ndarray, own: np.ndarray) -> pa.Table:
    """Proposals ``(id, label)``, ``own`` marking the rows that carry an
    id's current label -> one row per id: (member, component = its
    smallest proposal, prev = its current label)."""
    order = np.lexsort((lbls, ids))
    ids, lbls, own = ids[order], lbls[order], own[order]
    first = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    prev = np.minimum.reduceat(np.where(own, lbls, np.iinfo(np.int64).max), first)
    return pa.table({"member": ids[first], "component": lbls[first], "prev": prev})


def _split_dropped(block) -> tuple:
    """A part of the min shuffle -> (its (member, component) block, its
    rows whose label dropped, both blocks' ``block_meta``)."""
    labels = block.select(["member", "component"])
    dropped = block.filter(pc.less(block.column("component"), block.column("prev")))
    return labels, dropped, (block_meta(labels), block_meta(dropped))
