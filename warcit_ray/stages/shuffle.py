"""The bucket shuffle: the engine's one hand-rolled all-to-all.

The bucketed joins, q3, the LSH candidate emit and its pair dedup,
the near-dup Jaccard verify, embedding near-dup, the corpus fragment
writer and the WARC and CSV sinks all run :func:`bucket_shuffle`: a
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
:func:`shuffle_blocks` is the shuffle itself, over block refs: each
reduce task returns its part's block metadata (rows, bytes, schema)
beside the block, so a caller learns every part's size without a
``count()`` and a Dataset over the parts (:func:`blocks_dataset`) needs
no metadata task. :func:`bucket_shuffle` runs it on Datasets.
"""

from __future__ import annotations

from uuid import uuid4

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
    some side, ascending; its :func:`block_meta`, a small return whose
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
    return block, block_meta(block)


def block_meta(block):
    """A block's ``BlockMetadataWithSchema`` (rows, bytes, schema), as
    ``rd.from_arrow_refs`` computes it in a task of its own: a task that
    builds a block returns this beside it."""
    from ray.data.block import BlockExecStats, BlockMetadataWithSchema

    return BlockMetadataWithSchema.from_block(block, stats=BlockExecStats.builder().build())


def blocks_dataset(parts):
    """``rd.from_arrow_refs`` over ``(block ref, block_meta)`` parts
    whose producers returned their metadata: the same
    ``MaterializedDataset``, built without the metadata tasks and with
    a locally made id. ``Dataset.__init__`` asks Ray Data's named stats
    actor for the id, and on a session's first Dataset starts that
    actor, a worker that imports ``ray.data`` and pandas (about 1 s on
    4 CPUs); this sets the same fields it does, with the ``uuid4().hex``
    Ray itself falls back to when the actor is unreachable. A Ray Data
    operator applied to the result starts the actor as usual."""
    from ray.data import DataContext
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.dataset import MaterializedDataset

    refs = [ref for ref, _ in parts]
    metas = [meta for _, meta in parts]
    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": metas}, parent=None),
                         DataContext.get_current().copy())
    ds = MaterializedDataset.__new__(MaterializedDataset)
    ds._plan = plan
    ds._logical_plan = LogicalPlan(FromArrow(refs, metas), plan._context)
    plan.link_logical_plan(ds._logical_plan)
    ds._current_executor = None
    ds._write_ds = None
    ds._set_uuid(uuid4().hex)
    return ds


def dataset_blocks(ds) -> list:
    """``(block ref, size in bytes)`` of each non-empty block of ``ds``,
    in order. A Dataset whose blocks already exist (``from_arrow_refs``,
    ``materialize``) hands them over as they are; any other runs to
    completion first. Ray Data's own ``iter_internal_ref_bundles``
    starts its streaming executor even for the first kind, 30-40 ms a
    call."""
    from ray.data._internal.logical.interfaces import SourceOperator

    dag = ds._logical_plan.dag
    bundles = dag.output_data() if isinstance(dag, SourceOperator) else None
    if bundles is None:
        bundles = ds.iter_internal_ref_bundles()
    return [(ref, meta.size_bytes) for bundle in bundles
            for ref, meta in bundle.blocks if meta.num_rows != 0]


def shuffle_blocks(sides, bucket_of, per_bucket, *, batch_format: str = "pyarrow") -> list:
    """The shuffle over blocks already in the object store: ``sides`` is
    one list of ``(block ref, size in bytes or None)`` or a tuple of
    such lists, one per side; ``bucket_of`` is one function for every
    side or a tuple of one per side (a block list given twice, keyed
    on two columns, is two sides); ``per_bucket`` is called as for
    :func:`bucket_shuffle`. Returns ``(block ref, block_meta)`` per
    part, in part order, once every part has run: every part's error is
    consumed (none is left for Ray to log as unhandled) and the first,
    in part order, raised as its own type."""
    import ray
    from ray.data import DataContext
    from ray.exceptions import RayError

    multi = isinstance(sides, tuple)
    min_bytes = DataContext.get_current().target_min_block_size
    cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
    groups = [_group_blocks(side, min_bytes, cpus) for side in (sides if multi else (sides,))]
    num_parts = sum(map(len, groups))
    split = ray.remote(split_block).options(num_returns=num_parts)
    keyed = (tuple(map(ray.put, bucket_of)) if isinstance(bucket_of, tuple)
             else (ray.put(bucket_of),) * len(groups))
    slices = [split.remote(key, num_parts, *g) for key, side in zip(keyed, groups) for g in side]
    if num_parts == 1:
        slices = [[s] for s in slices]
    reduce = ray.remote(reduce_part).options(num_returns=2)
    per_bucket = ray.put(per_bucket)
    counts = [len(side) for side in groups]
    parts = [reduce.remote(per_bucket, batch_format, multi, counts, *(s[p] for s in slices))
             for p in range(num_parts)]
    out, errors = [], []
    for block, meta in parts:
        try:
            out.append((block, ray.get(meta)))
        except RayError as e:
            errors.append(e)
            try:
                ray.get(block)  # the same error: consumed, not logged
            except RayError:
                pass
    if errors:
        raise errors[0]
    return out


def bucket_shuffle(sides, bucket_of, per_bucket, *, batch_format: str = "pyarrow"):
    """Dataset of ``per_bucket(bucket_id, rows)`` over the buckets that
    ``bucket_of(table) -> int64 array`` assigns the rows of ``sides``
    (a Dataset, or a tuple of Datasets). ``rows`` is one
    ``batch_format`` batch; for a tuple it is one batch per side holding
    exactly that side's columns and types, or ``None`` where the side
    has no rows in the bucket. The inputs run to completion first, the
    output is materialized, and an exception raised in ``per_bucket``
    reaches the caller as its own type (:func:`shuffle_blocks`, which
    this runs on the Datasets' blocks). Output row order is by part,
    then bucket: callers that need an order sort."""
    blocks = (tuple(map(dataset_blocks, sides)) if isinstance(sides, tuple)
              else dataset_blocks(sides))
    return blocks_dataset(shuffle_blocks(blocks, bucket_of, per_bucket,
                                         batch_format=batch_format))
