"""The engine's one task wave and its one all-to-all, the bucket shuffle.

Every plain Ray task of the engine is decorated once per process by
:func:`task`, and each wave of them is waited for by :func:`gather`,
which fails it with its first task error. Blocks travel as ``(block
ref, block_meta)`` (:func:`dataset_blocks`; a task that builds a block
returns its :func:`block_meta` beside it), so the driver sums row
counts and :func:`blocks_dataset` makes a Dataset without reading one.

The bucketed joins, q3, top customers, sessionize and the corpus
fragment writer run :func:`bucket_shuffle` on Datasets; the dedup
family (exact dedup, the LSH candidate emit and its pair dedup, the
near-dup Jaccard verify, embedding near-dup), connected components
and the WARC and CSV sinks run :func:`shuffle_blocks` on block pairs.
Both are one two-stage hash shuffle over plain Ray tasks and objects
(the Exoshuffle design), not a Ray Data operator. The non-empty input
blocks form ``R`` map groups: a block of Ray Data's
``target_min_block_size`` or more is a group of its own, and runs of
smaller consecutive blocks of one side share a group (a shuffle makes
``R``² slices, so a Dataset of one-row blocks would otherwise cost
``rows``² objects), that minimum lowered to the whole shuffle's bytes
per cluster CPU. :func:`split_block` runs once per group and returns
``R`` slices, row ``i`` in slice ``bucket_of(group)[i] % R``;
:func:`reduce_part` runs once per part, groups that part's slices by
bucket and calls ``per_bucket(bucket_id, rows)`` once per bucket
holding rows, so an empty bucket gets no call, and returns its part's
block and ``block_meta``. No row reaches the driver, and ``bucket_of``
and ``per_bucket`` run only in workers.
"""

from __future__ import annotations

import contextlib
import functools
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


def _group_blocks(sides, min_bytes: int, cpus: int) -> list[list[list]]:
    """Each side's non-empty ``(ref, block_meta)`` blocks as map groups
    of refs, in order: a block of ``min_bytes`` or more (or of unknown
    size) alone, and each run of a side's smaller blocks together until
    they sum to ``min_bytes``, first lowered to the whole shuffle's
    bytes over ``cpus``: input size says little of ``per_bucket``'s work
    (the LSH emit turns 32k band rows of 2k docs into 470k pairs), so a
    small shuffle still spreads over the cluster."""
    sides = [[(ref, meta.size_bytes) for ref, meta in side if meta.num_rows != 0]
             for side in sides]
    min_bytes = min(min_bytes, sum(size or 0 for side in sides for _, size in side) // cpus)
    out = []
    for side in sides:
        groups, run_bytes = [], min_bytes  # >= min_bytes: the next block opens a group
        for ref, size in side:
            big = size is None or size >= min_bytes
            if big or run_bytes >= min_bytes:
                groups.append([ref])
                run_bytes = min_bytes if big else size
            else:
                groups[-1].append(ref)
                run_bytes += size
        out.append(groups)
    return out


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
    some side, ascending; its :func:`block_meta`).
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
    ``rd.from_arrow_refs`` computes it in a task of its own; an empty
    block is 0 bytes (Ray's estimate samples a pandas block's object
    columns, which logs a warning on zero rows)."""
    from ray.data.block import (BlockAccessor, BlockExecStats, BlockMetadata,
                                BlockMetadataWithSchema)

    stats = BlockExecStats.builder().build()
    acc = BlockAccessor.for_block(block)
    if acc.num_rows():
        return BlockMetadataWithSchema.from_block(block, stats=stats)
    return BlockMetadataWithSchema(BlockMetadata(num_rows=0, size_bytes=0, input_files=None,
                                                 exec_stats=stats), acc.schema())


def blocks_dataset(parts):
    """``rd.from_arrow_refs`` over ``(block ref, block_meta)`` parts
    whose producers returned their metadata: the same
    ``MaterializedDataset``, built without the metadata tasks and with
    a locally made id. ``Dataset.__init__`` asks Ray Data's named stats
    actor for the id, and on a session's first Dataset starts that
    actor, a worker that imports ``ray.data`` and pandas (about 1 s on
    4 CPUs); this sets the same fields it does, with the ``uuid4().hex``
    Ray itself falls back to when the actor is unreachable. A Ray Data
    operator applied to the result starts the actor as usual.

    The plan also holds its computed output, the snapshot that
    ``ExecutionPlan.execute()`` takes of a source's blocks (as
    ``materialize`` leaves it), so ``to_pandas``, ``count`` and
    ``take_all`` read the blocks without starting Ray Data's streaming
    executor. It is set here, not by ``execute()``, which asks the
    cluster for its available resources on every call."""
    from ray.data import DataContext
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.block import _take_first_non_empty_schema
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
    plan._snapshot_bundle = RefBundle(
        list(zip(refs, metas)), owns_blocks=False,
        schema=_take_first_non_empty_schema(m.schema for m in metas))
    plan._snapshot_operator = ds._logical_plan.dag
    plan._snapshot_stats = plan._in_stats
    return ds


def dataset_blocks(ds) -> list:
    """``(block ref, block_meta)`` of each non-empty block of ``ds``, in
    order. A Dataset whose blocks already exist (``from_arrow_refs``,
    ``materialize``) hands them over as they are; any other runs to
    completion first. Ray Data's own ``iter_internal_ref_bundles``
    starts its streaming executor even for the first kind, 30-40 ms a
    call."""
    from ray.data._internal.logical.interfaces import SourceOperator
    from ray.data.block import BlockMetadataWithSchema

    dag = ds._logical_plan.dag
    bundles = dag.output_data() if isinstance(dag, SourceOperator) else None
    if bundles is None:
        bundles = ds.iter_internal_ref_bundles()
    return [(ref, BlockMetadataWithSchema(meta, bundle.schema)) for bundle in bundles
            for ref, meta in bundle.blocks if meta.num_rows != 0]


def session_key() -> tuple:
    """The Ray session: (job id, node id), new for each driver and cluster."""
    import ray

    ctx = ray.get_runtime_context()
    return ctx.get_job_id(), ctx.get_node_id()


def cluster_cpus() -> int:
    """The cluster's CPU count, read once per Ray session."""
    return _cpus(session_key())


@functools.lru_cache(maxsize=1)
def _cpus(_session: tuple) -> int:
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))


_REMOTE: dict = {}


def task(fn, **options):
    """``fn`` as a Ray task with ``options``, decorated (so exported to
    the workers) once per process for each function object: a function
    a tracer wraps later is a new one. ``fn`` is module-level; a closure
    goes to it as an argument."""
    import ray

    if fn not in _REMOTE:
        _REMOTE[fn] = ray.remote(fn)
    return _REMOTE[fn].options(**options)


def gather(outs: list) -> list:
    """Wait for a wave: ``outs`` holds each task's ref, or its list of
    refs whose last is a small value (a ``block_meta``, counts). Returns
    per task that value, or its other refs then that value. If a task
    fails, the tasks submitted after the first one seen failed are
    cancelled, the ones before it run to their end (so which error is
    raised does not depend on which failure arrived first), every error
    is consumed (none is left for Ray to log as unhandled) and the first
    task error in submission order raised as its own type."""
    import ray
    from ray.exceptions import RayError, TaskCancelledError

    outs = [(out,) if isinstance(out, ray.ObjectRef) else tuple(out) for out in outs]
    last = [refs[-1] for refs in outs]
    try:
        return [refs[:-1] + (v,) if refs[:-1] else v
                for refs, v in zip(outs, ray.get(last))]
    except BaseException as e:
        caught = e
    ready, cut = set(ray.wait(last, num_returns=len(last), timeout=0)[0]), 0
    for i, ref in enumerate(last):
        try:
            if ref in ready:
                ray.get(ref)
        except RayError:
            cut = i + 1
            break
    for ref in last[cut:]:
        ray.cancel(ref)
    ray.wait(last, num_returns=len(last))
    first = None
    for refs in outs:
        try:
            ray.get(refs[-1])
        except RayError as e:  # a cancelled task's error is ours, not its own
            first = first or (None if isinstance(e, TaskCancelledError) else e)
            for ref in refs[:-1]:  # the same error: consumed, not logged
                with contextlib.suppress(RayError):
                    ray.get(ref)
    raise first if first is not None and isinstance(caught, RayError) else caught


def shuffle_blocks(sides, bucket_of, per_bucket, *, batch_format: str = "pyarrow") -> list:
    """The shuffle over blocks already in the object store: ``sides`` is
    one list of ``(block ref, block_meta)`` or a tuple of such lists,
    one per side, empty blocks skipped; ``bucket_of`` is one function
    for every side or a tuple of one per side (a block list given
    twice, keyed on two columns, is two sides); ``per_bucket`` is called
    as for :func:`bucket_shuffle`. Returns ``(block ref, block_meta)``
    per part, empty parts included, in part order, once every part has
    run; a failed part fails the wave as :func:`gather` does."""
    import ray
    from ray.data import DataContext

    multi = isinstance(sides, tuple)
    groups = _group_blocks(sides if multi else (sides,),
                           DataContext.get_current().target_min_block_size, cluster_cpus())
    num_parts = sum(map(len, groups))
    split = task(split_block, num_returns=num_parts)
    keyed = (tuple(map(ray.put, bucket_of)) if isinstance(bucket_of, tuple)
             else (ray.put(bucket_of),) * len(groups))
    slices = [split.remote(key, num_parts, *g) for key, side in zip(keyed, groups) for g in side]
    if num_parts == 1:
        slices = [[s] for s in slices]
    reduce = task(reduce_part, num_returns=2)
    per_bucket = ray.put(per_bucket)
    counts = [len(side) for side in groups]
    parts = [reduce.remote(per_bucket, batch_format, multi, counts, *(s[p] for s in slices))
             for p in range(num_parts)]
    return gather(parts)


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
