"""file/ZIP -> WARC as a Ray Data pipeline.

Reference lifecycle reproduced (warcit.py:395-448) as:

    enumerate_seeds (driver, ordering frozen into `seq`)
      -> Dataset
      -> map_batches(PayloadLoader())      # stateless tasks; zip handles
                                           # cached per worker process
      -> map_batches(RecordBuilder(cfg))   # stateless tasks: resource/
                                           # revisit/conversion/
                                           # transclusion expansion
      -> union(warcinfo row)
      -> [sort('seq')] only at physical WARC emission; the Parquet sink
         keeps the seq column instead (SURVEY §2.5 ordering note).

Both stages are callable instances, not classes, so Ray Data runs them
as tasks on warm worker processes instead of starting an actor pool per
job. The sharded sinks write one part per range of input files
(:func:`part_of_seq`).
"""

from __future__ import annotations

import os

import pyarrow as pa

from ..config import WarcitConfig
from ..sinks.warc_sink import pin_layout, write_warc_file
from ..sources.seeds import PayloadLoader, part_of_seq, seeds_dataset
from ..stages.build_records import RecordBuilder, warcinfo_row
from ..stages.shuffle import bucket_shuffle

# small because payload rows are wide (binary blobs): blocks stay within
# the object-store target block size
BATCH_SIZE = 64


def build_warc_dataset(cfg: WarcitConfig):
    """The record Dataset (lazy)."""
    import ray.data as rd

    ds = seeds_dataset(cfg.inputs, cfg.url_prefix, strict=False)
    ds = ds.map_batches(PayloadLoader(), batch_size=BATCH_SIZE,
                        batch_format="pyarrow")
    ds = ds.map_batches(RecordBuilder(cfg), batch_size=BATCH_SIZE,
                        batch_format="pyarrow")
    if cfg.warcinfo:
        ds = rd.from_arrow(warcinfo_row(cfg)).union(ds)
    return ds


LOGFILE_COLUMNS = ["file", "Record-Type", "URL", "timestamp",
                   "Content-Type", "mime", "charset"]


def logfile_dataset(records_ds):
    """The CSV logfile projection (warcit.py:316-330) as a DISTRIBUTED
    Dataset: fixed 7 columns plus the ``seq`` ordering key, one row per
    written record except warcinfo. The projection runs inside
    map_batches — the full table never lands on the driver (VERDICT r3
    #2: at 10^10 records the K3 log is corpus-sized). Consume with
    :func:`write_logfile_shards` (sharded, resumable), stream with
    :func:`write_logfile_csv` (single file, one batch in memory), or
    small-collect with :func:`logfile_table` (fixture/test scale)."""
    cols = ["seq", "log_file", "record_type", "target_uri", "warc_date",
            "content_type", "mime", "charset"]

    def project(t: pa.Table) -> pa.Table:
        # all-Arrow projection (zero pandas transit in the K3 hot path)
        import pyarrow.compute as pc

        rt = pc.cast(t.column("record_type"), pa.string())
        t = t.filter(pc.fill_null(pc.invert(pc.equal(rt, "warcinfo")), True))
        rt = pc.cast(t.column("record_type"), pa.string())
        # revisit/metadata rows only log file/type/url/timestamp
        # (warcit.py:558-566,609-618); null-safe like the pandas
        # predicate this replaces (null -> not a meta row)
        meta_mask = pc.or_(
            pc.fill_null(pc.equal(rt, "revisit"), False),
            pc.fill_null(
                pc.equal(pc.cast(t.column("log_file"), pa.string()), "-"),
                False))
        empty = pa.scalar("", type=pa.string())

        def blank(col: str):
            return pc.if_else(meta_mask, empty,
                              pc.cast(t.column(col), pa.string()))

        return pa.table({
            "seq": t.column("seq"),
            "file": t.column("log_file"),
            "Record-Type": rt,
            "URL": t.column("target_uri"),
            "timestamp": t.column("warc_date"),
            "Content-Type": blank("content_type"),
            "mime": blank("mime"),
            "charset": blank("charset"),
        })

    return records_ds.select_columns(cols).map_batches(
        project, batch_format="pyarrow")


def logfile_table(records_ds) -> "pa.Table":
    """Small-collect convenience over :func:`logfile_dataset` (CLI
    single-file mode and the fixture oracle query): sorts by seq and
    drops the key. Collects on the driver — test/fixture scale only;
    the scale path is :func:`write_logfile_shards`."""
    t = logfile_dataset(records_ds).sort("seq").to_pandas()
    return pa.Table.from_pandas(t.drop(columns=["seq"]).reset_index(drop=True),
                                preserve_index=False)


def write_logfile_csv(records_ds, path: str) -> int:
    """Stream the logfile projection into ONE CSV in seq order
    (DictWriter-parity: QUOTE_MINIMAL, CRLF — warcit.py:316-330). The
    driver holds one batch at a time (same discipline as
    write_warc_file). Returns the row count."""
    import csv

    n = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(LOGFILE_COLUMNS)
        for batch in logfile_dataset(records_ds).sort("seq").iter_batches(
                batch_size=4096, batch_format="pandas"):
            w.writerows(batch[LOGFILE_COLUMNS].itertuples(index=False,
                                                          name=None))
            n += len(batch)
    return n


def write_logfile_shards(records_ds, out_dir: str,
                         files_per_part: int = 1024) -> list:
    """Distributed sharded K3 sink with DETERMINISTIC shard boundaries
    (the write_warc_shards discipline, warc_sink.py): rows partition on
    fixed ranges of ``files_per_part`` input files
    (:func:`part_of_seq`), each part ``part-<shard:020d>.csv`` (header +
    rows in seq order) written atomically via tmp+rename; lexicographic
    filename order == record order. A rerun reproduces byte-identical
    parts, so resume skips existing identical parts and raises on a
    content mismatch instead of mis-skipping. A ``_shards.json``
    sidecar pins files_per_part on first write (:func:`pin_layout`):
    resuming with a different value would write a second, overlapping
    set of part files under different names — refused."""
    out_dir = os.path.abspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    pin_layout(out_dir, {"files_per_part": int(files_per_part)},
               r"part-\d{20}\.csv")

    def write_shard(shard_id: int, g: "pd.DataFrame") -> "pd.DataFrame":
        import csv
        import io

        import pandas as pd

        g = g.sort_values("seq")
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(LOGFILE_COLUMNS)
        w.writerows(g[LOGFILE_COLUMNS].itertuples(index=False, name=None))
        payload = buf.getvalue().encode("utf-8")
        name = os.path.join(out_dir, "part-%020d.csv" % shard_id)
        if os.path.exists(name):
            with open(name, "rb") as fh:
                if fh.read() == payload:
                    return pd.DataFrame({"path": [name], "records": [len(g)]})
            raise ValueError(
                "%s exists with different content (changed input or walk "
                "order) — refusing to overwrite on resume" % name)
        tmp = name + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, name)
        return pd.DataFrame({"path": [name], "records": [len(g)]})

    manifest = bucket_shuffle(
        logfile_dataset(records_ds),
        lambda t: part_of_seq(t["seq"].to_numpy(), files_per_part),
        write_shard, batch_format="pandas").to_pandas()
    return sorted(manifest.get("path", []))  # no column: no records


def run_warcit(cfg: WarcitConfig, output_path: str | None = None,
               mode: str = "xb") -> dict:
    """Full run: build records, optionally serialize physical WARC,
    return summary counts (the reference's 'Wrote N resources' line,
    warcit.py:444, as data)."""
    ds = build_warc_dataset(cfg)
    if output_path:
        n = write_warc_file(ds, output_path, mode=mode, gzip_members=cfg.gzip)
    else:
        n = ds.count()
    n_resources = n - (1 if cfg.warcinfo else 0)
    return {"records_written": n, "resources": n_resources, "name": cfg.name}
