"""The bucket shuffle: the engine's one hand-rolled all-to-all.

The bucketed joins, q3, the large candidate tier and its pair dedup,
the near-dup Jaccard verify, embedding near-dup, the corpus fragment
writer and both sharded sinks all run :func:`bucket_shuffle`: tag each
row with ``bucket_of(table)``, shuffle on the tag
(``groupby(tag).map_groups``, Ray Data's sort shuffle), and hand each
non-empty bucket's rows, tag stripped, to ``per_bucket(bucket_id,
rows)`` exactly once. Ray calls the group UDF once per group boundary,
so an empty bucket gets no call.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TAG = "__bucket"
SIDE = "__side"


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


def _as_format(t: pa.Table, batch_format: str):
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(t).to_batch_format(batch_format)


def bucket_shuffle(sides, bucket_of, per_bucket, *, batch_format: str = "pyarrow"):
    """Dataset of ``per_bucket(bucket_id, rows)`` over the buckets that
    ``bucket_of(table) -> int64 array`` assigns the rows of ``sides``.
    ``rows`` is one ``batch_format`` batch; for a tuple of Datasets it
    is one batch per side holding exactly that side's columns and types
    (a column null on all of a bucket's rows is kept, and one side's
    nulls never widen another's ints), or ``None`` where the side has
    no rows in the bucket. Both UDFs handed to Ray carry
    ``per_bucket``'s ``__module__`` and ``__qualname__``, so operator
    and span names name the caller's step."""
    multi = isinstance(sides, tuple)
    wraps = functools.wraps(per_bucket)

    def tagger(side):
        @wraps
        def tag(t: pa.Table) -> pa.Table:
            bucket = bucket_of(t)
            if side is not None:  # prefix: each side's columns stay its own
                t = t.rename_columns(["%d:%s" % (side, n) for n in t.column_names])
                t = t.append_column(SIDE, pa.array(np.full(len(bucket), side, np.int8)))
            return t.append_column(TAG, pa.array(bucket, type=pa.int64()))

        return tag

    if multi:
        tagged = [ds.map_batches(tagger(i), batch_format="pyarrow")
                  for i, ds in enumerate(sides)]
        ds = tagged[0].union(*tagged[1:])
    else:
        ds = sides.map_batches(tagger(None), batch_format="pyarrow")

    def side_rows(t: pa.Table, side: int):
        rows = t.filter(pc.equal(t.column(SIDE), side))
        if rows.num_rows == 0:
            return None  # the shuffle drops empty slices: no columns known
        prefix = "%d:" % side
        names = [n for n in t.column_names if n.startswith(prefix)]
        rows = rows.select(names).rename_columns([n[len(prefix):] for n in names])
        return _as_format(rows, batch_format)

    @wraps
    def per_group(t: pa.Table):
        if multi:
            rows = tuple(side_rows(t, i) for i in range(len(sides)))
        else:
            rows = _as_format(t.drop_columns([TAG]), batch_format)
        return per_bucket(t.column(TAG)[0].as_py(), rows)

    return ds.groupby(TAG).map_groups(per_group, batch_format="pyarrow")
