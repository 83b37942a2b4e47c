"""Large-large joins.

The reference has only broadcast-small-side lookups (SURVEY §2.4); a
complete engine also needs the both-sides-large case.
:func:`bucketed_hash_join` and :func:`bucketed_anti_join` run one
:func:`~.shuffle.bucket_shuffle` of both sides on ``mix(key) % B``
(:func:`~.shuffle.key_buckets`); each bucket's left and right rows
arrive as separate tables with their own columns, and merge there. B
is chosen so a bucket's rows fit a worker; salt a hot key by splitting
its bucket if a single key dominates (document the skew assumption at
call sites).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from .shuffle import bucket_shuffle, key_buckets

# Arrow -> pandas mapper keeping integer columns integral: an outer or
# left join fills the unmatched side's columns with nulls, and a plain
# to_pandas would widen those int64 columns to float64 and silently
# round values >= 2^53 (63-bit hash keys and ids would no longer join
# exactly).
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

    def merge(_bucket: int, sides: tuple) -> pd.DataFrame:
        l, r = (s if s is None else s.to_pandas(types_mapper=_NULLABLE_INTS.get)
                for s in sides)
        if l is None or r is None:
            # one-sided bucket: no key matches. The unmatched rows,
            # other side's columns null, are the result where the join
            # keeps them.
            rows, kept = (l, "left") if r is None else (r, "right")
            return rows if how in (kept, "outer") else pd.DataFrame()
        return l.merge(r, on=key, how=how)

    return bucket_shuffle((left, right), key_buckets(key, num_buckets), merge)


def bucketed_anti_join(left, right_keys, key: str, *, num_buckets: int = 32):
    """Rows of ``left`` whose ``key`` does NOT appear in ``right_keys``
    (a Dataset of which only the ``key`` column is read). Same
    one-shuffle bucketed pattern as :func:`bucketed_hash_join`. Runs
    entirely in Arrow — left rows come back with their original column
    types and exact values (no pandas float widening)."""
    import pyarrow.compute as pc

    def anti(_bucket: int, sides: tuple) -> pa.Table:
        l, r = sides
        if l is None or r is None:
            return pa.table({}) if l is None else l
        keys = r.column(key).combine_chunks()
        return l.filter(pc.invert(pc.is_in(l.column(key), value_set=keys)))

    return bucket_shuffle((left, right_keys), key_buckets(key, num_buckets), anti)

