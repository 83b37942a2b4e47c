"""CLI for the flagship crawl frontier (north rule: "the job runs via
``ray job submit``"):

    ray job submit -- python -m warcit_ray.cli_crawl <input> [options]

``<input>`` selects the fetcher:

- a **directory** — crawl the tree through the frontier machinery
  (file:// pseudo-URLs, robots.txt at the root, politeness, priority);
- a **.zip archive** — crawl the archive's members (zip:// pseudo-URLs,
  in-zip robots.txt) exactly as warcit treats zip inputs (SURVEY S3/S4);
- a **parquet corpus** (file or directory of the image+caption
  ``input_hint`` schema) — the synthetic-web corpus crawl
  (pipelines/crawl.WebGraph), optionally with the fragment-backed
  corpus dispatch (``--corpus-fragments``).

``--checkpoint`` makes every generation durable (records partitions,
seen-set deltas, host-shard snapshots, next-frontier parts) and
``--resume`` continues bit-identically. ``--warc-out`` serializes the
checkpointed record partitions to one ``.warc.gz`` in seq order
(sinks/warc_sink.write_warc_file).

Prints ONE JSON stats line. This module owns a Ray session only when
run as a script (guarded init — the driver contract forbids module-level
ray.init).
"""

from __future__ import annotations

import glob
import json
import os
import sys
import zipfile
from argparse import ArgumentParser


def build_parser() -> ArgumentParser:
    p = ArgumentParser(
        "warcit-ray-crawl",
        description="Crawl a directory / zip archive / parquet corpus "
                    "through the Ray-Data frontier (seen-set, politeness, "
                    "robots, priority, checkpoint lineage).")
    p.add_argument("input", help="directory, .zip archive, or parquet corpus")
    p.add_argument("--seeds", default="index.html",
                   help="comma-separated seed files/members (dir/zip modes)")
    p.add_argument("--site-root",
                   help="zip mode: member prefix of the site tree "
                        "(default: the archive's first top-level directory)")
    p.add_argument("--n-seeds", type=int, default=8,
                   help="corpus mode: number of seed URLs")
    p.add_argument("--checkpoint", help="checkpoint/lineage directory")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--warc-out",
                   help="serialize checkpointed records to WARC shards here "
                        "(requires --checkpoint)")
    p.add_argument("--corpus-fragments",
                   help="corpus mode: pre-bucket the corpus to parquet "
                        "fragments here (fetch tasks read only their buckets)")
    p.add_argument("--rate", type=float, default=8.0)
    p.add_argument("--capacity", type=float, default=16.0)
    p.add_argument("--max-generations", type=int, default=40)
    p.add_argument("--seen-shards", type=int, default=2)
    p.add_argument("--host-shards", type=int, default=2)
    p.add_argument("--fixed-dt", default="2026-01-01T00:00:00Z",
                   help="pinned WARC-Date clock (ISO-8601Z)")
    p.add_argument("-q", "--quiet", action="store_true")
    return p


def _is_parquet_input(path: str) -> bool:
    if path.endswith(".parquet"):
        return True
    return os.path.isdir(path) and bool(glob.glob(os.path.join(path, "*.parquet")))


def _records_to_warc(checkpoint_dir: str, warc_out: str) -> int:
    """Serialize the checkpointed record partitions to ONE .warc.gz in
    seq order (reference parity: one output file per run; crawl seqs
    for dir/zip inputs are sparse URL hashes, for which the seq-RANGED
    shard writer would degenerate to a part per record)."""
    import ray.data as rd

    from warcit_ray.sinks.warc_sink import write_warc_file

    part_files = sorted(glob.glob(
        os.path.join(checkpoint_dir, "gen=*", "records", "*.parquet")))
    if not part_files:
        return 0
    ds = rd.read_parquet(part_files)
    return write_warc_file(ds, warc_out, mode="wb")


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

    if ns.warc_out and not ns.checkpoint:
        print("--warc-out requires --checkpoint", file=sys.stderr)
        return 1
    if ns.checkpoint and not ns.resume:
        from warcit_ray.pipelines.crawl import CrawlCheckpoint

        if CrawlCheckpoint(ns.checkpoint).complete_generations():
            # a fresh crawl over a used checkpoint dir would leave the
            # old run's later generations on disk and --warc-out would
            # silently mix two crawls' records
            print("checkpoint dir %s already holds completed generations; "
                  "pass --resume to continue that crawl or use a fresh "
                  "directory" % ns.checkpoint, file=sys.stderr)
            return 1

    common = dict(
        rate=ns.rate, capacity=ns.capacity,
        max_generations=ns.max_generations,
        num_seen_shards=ns.seen_shards, num_host_shards=ns.host_shards,
        checkpoint_dir=ns.checkpoint, resume=ns.resume,
        clock_iso=ns.fixed_dt,
    )
    inp = os.path.abspath(ns.input)
    if os.path.isfile(inp) and zipfile.is_zipfile(inp):
        from warcit_ray.pipelines.zipcrawl import crawl_zip

        site_root = ns.site_root
        if not site_root:
            # first DIRECTORY-bearing member, not namelist()[0]: archives
            # often lead with root-level files (README etc.), and an
            # empty archive must error cleanly
            with zipfile.ZipFile(inp) as zp:
                site_root = next(
                    (m.split("/", 1)[0] for m in zp.namelist() if "/" in m),
                    None)
            if site_root is None:
                print("cannot infer a site root from %s (no directory "
                      "entries); pass --site-root" % ns.input, file=sys.stderr)
                return 1
        seeds = ["%s/%s" % (site_root, s) for s in ns.seeds.split(",")]
        res = crawl_zip(inp, site_root, seeds, track_visits=False, **common)
        mode = "zip"
    elif _is_parquet_input(inp):
        from warcit_ray.pipelines.crawl import crawl

        if ns.corpus_fragments:
            # 100 TB path end to end: the corpus goes straight from
            # parquet to the on-disk fragments as a streaming Dataset —
            # the DRIVER never holds it (to_table() here would defeat
            # the fragment mode's whole point)
            import ray.data as rd

            from warcit_ray.pipelines.crawl import (
                WebGraph,
                corpus_affinity_fn,
                explode_links,
                fetch_batch,
                seeds_table,
                write_corpus_fragments,
            )

            ds = rd.read_parquet(inp)
            n = ds.count()
            num_parts = max(8, int(ds.size_bytes() // (64 << 20)))
            ref = write_corpus_fragments(ds, ns.corpus_fragments, num_parts)
            graph = WebGraph(n)
            res = crawl(
                fetch_fn=fetch_batch,
                fetch_args=(ref, graph, ns.fixed_dt),
                explode_fn=lambda t: explode_links(t, graph),
                seeds=seeds_table(graph, ns.n_seeds),
                robots_map=graph.robots_map(),
                seen_capacity=max(4096, 4 * n),
                fetch_affinity_fn=corpus_affinity_fn(graph, num_parts),
                **common)
        else:
            import pyarrow.dataset as pads

            corpus = pads.dataset(inp).to_table()
            res = crawl(corpus, n_seeds=ns.n_seeds, **common)
        mode = "corpus"
    elif os.path.isdir(inp):
        from warcit_ray.pipelines.zipcrawl import crawl_dir

        res = crawl_dir(inp, ns.seeds.split(","), track_visits=False, **common)
        mode = "dir"
    else:
        print("input is neither a directory, a zip archive, nor parquet: %s"
              % ns.input, file=sys.stderr)
        return 1

    warc_records = None
    if ns.warc_out:
        warc_records = _records_to_warc(ns.checkpoint, ns.warc_out)

    out = {
        "mode": mode,
        "admitted": res["admitted"],
        "offered": res["offered"],
        "generations": res["generations"],
        "seen": res["seen"],
        "seen_load_factor": res["seen_load_factor"],
        "seen_fp_skips_est": res["seen_fp_skips_est"],
        "robots_blocked": res["robots_blocked"],
        "phase_times": res.get("phase_times"),
        "task_s": res["task_s"],
        "plane": res["plane"],
        "checkpoint": ns.checkpoint,
        "warc_records": warc_records,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
