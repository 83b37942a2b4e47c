"""The bucket shuffle: the engine's one hand-rolled all-to-all.

The bucketed joins, q3, the LSH candidate emit and its pair dedup,
the near-dup Jaccard verify, embedding near-dup, the corpus fragment
writer and both sharded sinks all run :func:`bucket_shuffle`: a
two-stage hash shuffle over plain Ray tasks and objects (the
Exoshuffle design), not a Ray Data operator. The non-empty input
blocks form ``R`` map groups: a block of Ray Data's
``target_min_block_size`` or more is a group of its own, and runs of
smaller consecutive blocks of one side share a group (a shuffle makes
``R``² slices, so a Dataset of one-row blocks would otherwise cost
``rows``² objects), a side keeping one group per cluster CPU where it
has the blocks. :func:`split_block` runs once per group and returns
``R`` slices, row ``i`` in slice ``bucket_of(group)[i] % R``;
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


def split_block(bucket_of, num_parts: int, *blocks):
    """Map stage: one map group's input blocks, concatenated in order,
    as ``num_parts`` Arrow tables, each row tagged with its bucket and
    placed in part ``bucket % num_parts`` (input order kept within a
    part), ``None`` for an empty part: an empty table costs a schema to
    ship, and many map groups make mostly empty parts."""
    from ray.data._internal.delegating_block_builder import DelegatingBlockBuilder
    from ray.data.block import BlockAccessor

    rows = DelegatingBlockBuilder()
    for block in blocks:
        # without the pandas metadata a pandas-derived block carries: it
        # makes the schema unhashable, and Ray's schema unification (here
        # and in the reduce) then logs a warning and takes its slow path
        rows.add_block(BlockAccessor.for_block(block).to_arrow().replace_schema_metadata())
    t = rows.build()  # one block: that block as it is
    bucket = np.asarray(bucket_of(t), dtype=np.int64)
    t = t.append_column(TAG, pa.array(bucket))
    part = bucket % num_parts
    bounds = np.cumsum(np.bincount(part, minlength=num_parts))[:-1]
    order = np.argsort(part, kind="stable")
    slices = [t.take(i) if len(i) else None for i in np.split(order, bounds)]
    return slices if num_parts > 1 else slices[0]


def _group_blocks(blocks, min_bytes: int, min_groups: int) -> list[list]:
    """One side's non-empty ``(ref, size_bytes)`` blocks, in order, as
    map groups of refs: a block of ``min_bytes`` or more (or of unknown
    size) alone, and each run of smaller consecutive blocks together,
    a run closing once its blocks sum to ``min_bytes``. ``min_bytes``
    is first lowered to the side's bytes over ``min_groups``: a
    shuffle's input size says little of its ``per_bucket`` work (the
    LSH emit turns 32k band rows of 2k docs into 470k pairs), so a
    small side still spreads over the cluster's CPUs."""
    min_bytes = min(min_bytes, sum(size or 0 for _, size in blocks) // min_groups)
    groups, run_bytes = [], min_bytes  # >= min_bytes: the next block opens a group
    for ref, size in blocks:
        big = size is None or size >= min_bytes
        if big or run_bytes >= min_bytes:
            groups.append([ref])
            run_bytes = min_bytes if big else size
        else:
            groups[-1].append(ref)
            run_bytes += size
    return groups


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


def reduce_part(per_bucket, batch_format: str, multi: bool, groups_per_side,
                *slices):
    """Reduce stage: one part's slices, one per map group,
    ``groups_per_side[i]`` of them for side ``i`` in side order, -> (one
    block of ``per_bucket`` outputs, one call per bucket with rows on
    some side, ascending; its row count, a small return whose
    ``ray.get`` surfaces the task's error without fetching the block).
    The outputs concatenate in Ray Data's block builder, which unifies
    their schemas and skips empty ones."""
    from ray.data._internal.delegating_block_builder import DelegatingBlockBuilder
    from ray.data.block import BlockAccessor

    ends = np.cumsum(groups_per_side).tolist()
    sides = [_by_bucket(slices[end - n:end]) for n, end in zip(groups_per_side, ends)]
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
    from ray.data import DataContext
    from ray.exceptions import RayError

    multi = isinstance(sides, tuple)
    min_bytes = DataContext.get_current().target_min_block_size
    cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
    groups = [_group_blocks([(ref, meta.size_bytes)
                             for bundle in ds.iter_internal_ref_bundles()
                             for ref, meta in bundle.blocks if meta.num_rows != 0],
                            min_bytes, cpus)
              for ds in (sides if multi else (sides,))]
    num_parts = sum(map(len, groups))
    split = ray.remote(split_block).options(num_returns=num_parts)
    bucket_of = ray.put(bucket_of)
    slices = [split.remote(bucket_of, num_parts, *g) for side in groups for g in side]
    if num_parts == 1:
        slices = [[s] for s in slices]
    reduce = ray.remote(reduce_part).options(num_returns=2)
    per_bucket = ray.put(per_bucket)
    counts = [len(side) for side in groups]
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
