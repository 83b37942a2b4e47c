"""Stream-shaped windowing over the events table.

Ray Data has no event-time windows or watermarks (and the reference has
no streaming semantics either, SURVEY §2.7); a window is expressed as
one :func:`~.shuffle.bucket_shuffle` on the key, so that all rows of a
key meet in one bucket, and one vectorized pandas pass per bucket that
sorts by (key, ts) and windows every key of the bucket at once. The
ordering assumption — rows of one key fit a bucket and are processed in
ts order — is the documented partitioning contract. Fixed (tumbling)
windows need no shuffle at all: ``queries.events_hourly`` combines
per-batch partials on the driver.
"""

from __future__ import annotations

import pandas as pd

from .shuffle import bucket_shuffle, key_buckets


def sessionize(ds, *, gap_minutes: int = 30, key: str = "user_id",
               ts_col: str = "ts", val_col: str = "value",
               tiebreak: str = "event_id"):
    """Gap-based sessions per (integer) key -> Dataset(user_id,
    session_start, n_events, sum_value). A new session starts at a
    key's first event and when the gap to the previous event exceeds
    ``gap_minutes``."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(_bucket: int, df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, ts_col, tiebreak])
        starts = df[key].ne(df[key].shift()) | (df[ts_col].diff() > gap)
        out = df.groupby(starts.cumsum().to_numpy()).agg(**{
            key: (key, "first"),
            "session_start": (ts_col, "min"),
            "n_events": (ts_col, "size"),
            "sum_value": (val_col, "sum"),
        }).reset_index(drop=True)
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return bucket_shuffle(ds, key_buckets(key, 32), per_bucket, batch_format="pandas")
