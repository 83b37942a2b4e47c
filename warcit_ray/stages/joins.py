"""Large-large joins.

The reference has only broadcast-small-side lookups (SURVEY §2.4); a
complete engine also needs the both-sides-large case. Two
implementations:

- :func:`hash_join` — Ray Data's native ``Dataset.join`` (hash
  partitioned on the key) when available in the running Ray version.
- :func:`bucketed_hash_join` — the portable explicit pattern from the
  Ray guide: add ``bucket = hash(key) % B`` to both sides, tag the
  side, union, group by bucket, and pandas-merge the two sides inside
  ``map_groups``. One shuffle; B chosen so a bucket's rows fit a
  worker; salt a hot key by splitting its bucket if a single key
  dominates (document the skew assumption at call sites).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _with_bucket(ds, key: str, num_buckets: int, side: int):
    def f(t: pa.Table) -> pa.Table:
        # zero-copy for null-free int keys (to_pylist would round-trip
        # every key through Python objects on every batch of every join)
        col = t.column(key)
        if col.null_count:
            # a NaN would silently astype to INT64_MIN and hash-bucket
            # a garbage key instead of surfacing the data problem
            raise ValueError("join key %r contains %d null(s)"
                             % (key, col.null_count))
        k = col.combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64, copy=False)
        # splitmix-style mix so sequential keys spread across buckets
        h = (k.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
        bucket = (h % np.uint64(num_buckets)).astype(np.int64)
        return t.append_column("__bucket", pa.array(bucket)).append_column(
            "__side", pa.array(np.full(len(k), side, dtype=np.int8))
        )

    return ds.map_batches(f, batch_format="pyarrow")


# Arrow -> pandas mapper keeping integer columns integral. The tagged
# union leaves each side's columns null on the other side's rows; a
# plain to_pandas would widen those int64 columns to float64 and
# silently round values >= 2^53 (the dedup/components callers join on
# 63-bit hashes, exactly the regime the large tiers exist for).
_NULLABLE_INTS = {
    pa.int8(): pd.Int8Dtype(), pa.int16(): pd.Int16Dtype(),
    pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype(),
    pa.uint8(): pd.UInt8Dtype(), pa.uint16(): pd.UInt16Dtype(),
    pa.uint32(): pd.UInt32Dtype(), pa.uint64(): pd.UInt64Dtype(),
}


def bucketed_hash_join(left, right, key: str, *, num_buckets: int = 32,
                       how: str = "inner"):
    """Explicit partitioned hash join -> Dataset of merged rows.
    Column sets of the two sides must be disjoint apart from ``key``.
    Integer columns stay integral end to end (nullable Int64 transit,
    never float64), so 63-bit hash ids join exactly."""
    tagged = _with_bucket(left, key, num_buckets, 0).union(
        _with_bucket(right, key, num_buckets, 1)
    )

    def merge(t: pa.Table) -> pd.DataFrame:
        group = t.to_pandas(types_mapper=_NULLABLE_INTS.get)
        side = group["__side"]
        group = group.drop(columns=["__bucket", "__side"])
        l, r = group[side == 0], group[side == 1]
        if len(l) == 0 or len(r) == 0:
            # one-sided bucket: no key matches, and dropna would strip
            # every column (the key too) from the empty side. The
            # unmatched rows, other side's columns null, are the result
            # where the join keeps them.
            rows, kept = (l, "left") if len(l) else (r, "right")
            return rows if how in (kept, "outer") else pd.DataFrame()
        return l.dropna(axis=1, how="all").merge(
            r.dropna(axis=1, how="all"), on=key, how=how)

    return tagged.groupby("__bucket").map_groups(merge, batch_format="pyarrow")


def bucketed_anti_join(left, right_keys, key: str, *, num_buckets: int = 32):
    """Rows of ``left`` whose ``key`` does NOT appear in ``right_keys``
    (a Dataset carrying only the key column). Same one-shuffle bucketed
    pattern as :func:`bucketed_hash_join`; the right side ships nothing
    but keys. Runs entirely in Arrow — left rows come back with their
    original column types and exact values (no pandas float widening)."""
    import pyarrow.compute as pc

    tagged = _with_bucket(left, key, num_buckets, 0).union(
        _with_bucket(right_keys, key, num_buckets, 1)
    )

    def anti(t: pa.Table) -> pa.Table:
        side = t.column("__side").combine_chunks().to_numpy(
            zero_copy_only=False)
        lmask = side == 0
        l = t.filter(pa.array(lmask)).drop_columns(["__bucket", "__side"])
        if l.num_rows == 0:
            return l
        rk = t.filter(pa.array(~lmask)).column(key).combine_chunks()
        if len(rk):
            keep = pc.invert(pc.is_in(l.column(key).combine_chunks(),
                                      value_set=rk))
            l = l.filter(keep)
        return l

    return tagged.groupby("__bucket").map_groups(anti, batch_format="pyarrow")


def hash_join(left, right, key: str, *, num_partitions: int = 32,
              join_type: str = "inner"):
    """Ray Data native hash join (requires Dataset.join in this Ray)."""
    return left.join(right, join_type, num_partitions, on=(key,))
