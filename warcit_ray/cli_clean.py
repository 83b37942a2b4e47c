"""CLI for the training-data corpus-cleaning pipeline:

    ray job submit -- python -m warcit_ray.cli_clean <documents.parquet> \\
        --out cleaned/ [--min-quality 0.5] [--near-dup] [--lang]

Chains the engine's cleaning stages over a documents table
(``doc_id:int64, text:string``):

  exact dedup (keep min doc_id per content hash, one shuffle of the
  hashed rows — stages/dedup.distinct_rows) -> [optional MinHash+LSH
  near-dup removal] -> quality scoring + threshold filter -> token
  counts [-> optional language ID] -> partitioned parquet out.

Output is written with ``Dataset.write_parquet`` (one file per block —
resumable, never one giant file). Prints ONE JSON stats line; with
``--near-dup`` it carries the near-dup stage's own stats (rows per
layer, phase seconds) under ``near_dup``. Owns a Ray session only
when run as a script (guarded init)."""

from __future__ import annotations

import json
import os
import sys
from argparse import ArgumentParser


def build_parser() -> ArgumentParser:
    p = ArgumentParser(
        "warcit-ray-clean",
        description="Clean a documents corpus: exact dedup, optional "
                    "near-dup removal, quality filter, token counts.")
    p.add_argument("input", help="parquet file/dir with doc_id + text columns")
    p.add_argument("--out", required=True, help="output parquet directory")
    p.add_argument("--min-quality", type=float, default=0.5)
    p.add_argument("--near-dup", action="store_true",
                   help="also remove MinHash+LSH near-duplicates")
    p.add_argument("--near-dup-threshold", type=float, default=0.5)
    p.add_argument("--lang", action="store_true",
                   help="append a pred_lang column (heuristic language ID)")
    p.add_argument("--id-col", default="doc_id")
    p.add_argument("--text-col", default="text")
    return p


def clean(ns) -> dict:
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from warcit_ray.stages.dedup import distinct_rows
    from warcit_ray.stages.text import (
        lang_id_batch,
        quality_score_batch,
        token_count_batch,
    )

    ds = rd.read_parquet(ns.input, columns=[ns.id_col, ns.text_col])
    n_in = ds.count()
    kept = distinct_rows(ds, id_col=ns.id_col, text_col=ns.text_col)

    n_near = 0
    near_stats = {}
    if ns.near_dup:
        from warcit_ray.stages.dedup import minhash_lsh_dedup

        # the MinHash stage reads the text from a column named "text";
        # Datasets are re-executable, so re-consume `ds` with a rename
        # rather than re-declaring the read
        nd_ds = ds
        if ns.text_col != "text":
            nd_ds = ds.map_batches(
                lambda t: t.rename_columns(
                    ["text" if c == ns.text_col else c
                     for c in t.schema.names]),
                batch_format="pyarrow")
        dup, near_stats = minhash_lsh_dedup(
            nd_ds, threshold=ns.near_dup_threshold, id_col=ns.id_col)
        n_near = dup.count()
        if n_near:
            # bucketed anti-join on the id: the drop set of a
            # high-dup-rate corpus can be corpus-scale, so it never
            # reaches the driver
            from warcit_ray.stages.dedup import filter_out_ids

            kept = filter_out_ids(kept, dup, ns.id_col)

    min_q = ns.min_quality

    def filter_score(df: pd.DataFrame) -> pd.DataFrame:
        out = quality_score_batch(df, text_col=ns.text_col)
        return out[out["quality"] >= min_q]

    cleaned = (
        kept.map_batches(filter_score, batch_format="pandas")
        .map_batches(
            lambda t: token_count_batch(
                t.select([ns.id_col, ns.text_col, "quality"]),
                text_col=ns.text_col),
            batch_format="pyarrow")
    )
    if ns.lang:
        cleaned = cleaned.map_batches(lang_id_batch, batch_format="pyarrow")
    cleaned.write_parquet(ns.out)

    import glob

    import pyarrow.parquet as pq

    n_out = sum(pq.read_metadata(f).num_rows
                for f in glob.glob(os.path.join(ns.out, "*.parquet")))
    stats = {"rows_in": n_in, "rows_out": n_out,
             "near_dups_removed": n_near, "min_quality": min_q,
             "out": os.path.abspath(ns.out)}
    if ns.near_dup:
        stats["near_dup"] = near_stats
    return stats


def main(args=None) -> int:
    ns = build_parser().parse_args(args)

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    if os.path.isdir(ns.out) and os.listdir(ns.out):
        print("output dir %s is not empty (refusing to mix runs; the "
              "per-block parquet layout is the resume unit)" % ns.out,
              file=sys.stderr)
        return 1
    print(json.dumps(clean(ns)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
