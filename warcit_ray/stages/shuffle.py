"""The bucket shuffle: the engine's one hand-rolled all-to-all.

The bucketed joins, q3, the large candidate tier and its pair dedup,
the near-dup Jaccard verify, embedding near-dup, the corpus fragment
writer and both sharded sinks all run :func:`bucket_shuffle`: a
two-stage hash shuffle over plain Ray tasks and objects (the
Exoshuffle design), not a Ray Data operator. With ``R`` non-empty
input blocks, :func:`split_block` runs once per block and returns
``R`` slices, row ``i`` in slice ``bucket_of(block)[i] % R``;
:func:`reduce_part` runs once per part, groups that part's slices by
bucket and calls ``per_bucket(bucket_id, rows)`` once per bucket
holding rows, so an empty bucket gets no call. No row reaches the
driver, and ``bucket_of`` and ``per_bucket`` run only in workers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

TAG = "__bucket"


def mix_buckets(num_buckets: int, a: np.ndarray,
                b: np.ndarray | None = None) -> np.ndarray:
    """Bucket ids of integer keys (``b``: a pair's second key):
    ``(a·0x9E3779B97F4A7C15 [^ b·0xC2B2AE3D27D4EB4F]) >> 33 mod B``,
    a splitmix-style multiply so sequential keys spread out."""
    h = a.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    if b is not None:
        h ^= b.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    return ((h >> np.uint64(33)) % np.uint64(num_buckets)).astype(np.int64)


def key_buckets(key: str, num_buckets: int):
    """``bucket_of`` over the integer column ``key``. A null key raises:
    it would astype to INT64_MIN and bucket a garbage key."""

    def bucket_of(t: pa.Table) -> np.ndarray:
        col = t.column(key)
        if col.null_count:
            raise ValueError("key %r contains %d null(s)" % (key, col.null_count))
        return mix_buckets(num_buckets, col.to_numpy().astype(np.int64, copy=False))

    return bucket_of


def split_block(block, bucket_of, num_parts: int):
    """Map stage: one input block as ``num_parts`` Arrow tables, each
    row tagged with its bucket and placed in part ``bucket % num_parts``
    (input order kept within a part), ``None`` for an empty part: an
    empty table costs a schema to ship, and a block count of tiny
    blocks makes mostly empty parts."""
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    bucket = np.asarray(bucket_of(t), dtype=np.int64)
    t = t.append_column(TAG, pa.array(bucket))
    part = bucket % num_parts
    bounds = np.cumsum(np.bincount(part, minlength=num_parts))[:-1]
    order = np.argsort(part, kind="stable")
    slices = [t.take(i) if len(i) else None for i in np.split(order, bounds)]
    return slices if num_parts > 1 else slices[0]


def _by_bucket(slices) -> dict:
    """bucket -> one side's rows of a part, tag dropped, input order kept."""
    from ray.data._internal.delegating_block_builder import DelegatingBlockBuilder

    rows = DelegatingBlockBuilder()
    for s in slices:
        if s is not None:
            rows.add_block(s)  # unifies slice schemas as Ray Data's blocks do
    t = rows.build()
    if t.num_rows == 0:
        return {}
    tag = t.column(TAG).to_numpy()
    order = np.argsort(tag, kind="stable")
    t = t.drop_columns([TAG]).take(order)
    buckets, starts, counts = np.unique(tag[order], return_index=True,
                                        return_counts=True)
    return {b: t.slice(s, n) for b, s, n in
            zip(buckets.tolist(), starts.tolist(), counts.tolist())}


def reduce_part(per_bucket, batch_format: str, multi: bool, blocks_per_side,
                *slices):
    """Reduce stage: one part's slices, ``blocks_per_side[i]`` of them
    for side ``i`` in side order, -> (one block of ``per_bucket``
    outputs, one call per bucket with rows on some side, ascending;
    its row count, a small return whose ``ray.get`` surfaces the task's
    error without fetching the block). The outputs concatenate in Ray
    Data's block builder, which unifies their schemas and skips empty
    ones."""
    from ray.data._internal.delegating_block_builder import DelegatingBlockBuilder
    from ray.data.block import BlockAccessor

    ends = np.cumsum(blocks_per_side).tolist()
    sides = [_by_bucket(slices[end - n:end]) for n, end in zip(blocks_per_side, ends)]
    out = DelegatingBlockBuilder()
    for b in sorted(set().union(*sides)):
        rows = [BlockAccessor.for_block(s[b]).to_batch_format(batch_format)
                if b in s else None for s in sides]
        out.add_batch(per_bucket(b, tuple(rows) if multi else rows[0]))
    block = out.build()
    return block, BlockAccessor.for_block(block).num_rows()


def bucket_shuffle(sides, bucket_of, per_bucket, *, batch_format: str = "pyarrow"):
    """Dataset of ``per_bucket(bucket_id, rows)`` over the buckets that
    ``bucket_of(table) -> int64 array`` assigns the rows of ``sides``
    (a Dataset, or a tuple of Datasets). ``rows`` is one
    ``batch_format`` batch; for a tuple it is one batch per side holding
    exactly that side's columns and types, or ``None`` where the side
    has no rows in the bucket. The inputs run to completion first, the
    output is materialized, and an exception raised in ``per_bucket``
    reaches the caller as its own type: every part's error is consumed
    (none is left for Ray to log as unhandled) and the first, in part
    order, raised. Output row order is by part, then bucket: callers
    that need an order sort."""
    import ray
    import ray.data as rd
    from ray.exceptions import RayError

    multi = isinstance(sides, tuple)
    blocks = [[ref for bundle in ds.iter_internal_ref_bundles()
               for ref, meta in bundle.blocks if meta.num_rows != 0]
              for ds in (sides if multi else (sides,))]
    num_parts = sum(map(len, blocks))
    split = ray.remote(split_block).options(num_returns=num_parts)
    bucket_of = ray.put(bucket_of)
    slices = [split.remote(ref, bucket_of, num_parts) for side in blocks for ref in side]
    if num_parts == 1:
        slices = [[s] for s in slices]
    reduce = ray.remote(reduce_part).options(num_returns=2)
    per_bucket = ray.put(per_bucket)
    counts = [len(side) for side in blocks]
    parts = [reduce.remote(per_bucket, batch_format, multi, counts, *(s[p] for s in slices))
             for p in range(num_parts)]
    errors = []
    for block, rows in parts:
        try:
            ray.get(rows)
        except RayError as e:
            errors.append(e)
            try:
                ray.get(block)  # the same error: consumed, not logged
            except RayError:
                pass
    if errors:
        raise errors[0]
    return rd.from_arrow_refs([block for block, _ in parts])
