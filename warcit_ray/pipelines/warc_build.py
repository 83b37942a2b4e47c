"""file/ZIP -> WARC as one wave of plain Ray tasks.

Reference lifecycle reproduced (warcit.py:395-448) as:

    enumerate_seeds (driver, ordering frozen into `seq`)
      -> slices of the candidate table (:func:`slice_wave`)
      -> one task per slice: RecordBuilder(cfg)(PayloadLoader()(slice))
                                           # resource/revisit/conversion/
                                           # transclusion expansion; zip
                                           # handles cached per worker
      -> a Dataset over [warcinfo row] + the slices' record blocks
      -> a sink, whose reduce tasks sort each part by seq (SURVEY §2.5
         ordering note).

No Ray Data operator runs: the record Dataset holds blocks that exist
when :func:`build_warc_dataset` returns, so every consumer (a sink,
``count()``, the logfile) reads the same blocks and the records are
built once. The sharded sinks write one part per range of input files
(:func:`part_of_seq`), the single-file sinks one per seq range
(:func:`write_ranges`).
"""

from __future__ import annotations

import logging
import os
from functools import partial

import numpy as np
import pyarrow as pa

from ..config import WarcitConfig
from ..sinks.warc_sink import _prepare, pin_layout, write_ranges, write_shards, write_warc_file
from ..sources.seeds import PayloadLoader, enumerate_seeds, part_of_seq
from ..stages.build_records import RecordBuilder, warcinfo_row
from ..stages.shuffle import block_meta, blocks_dataset, cluster_cpus, dataset_blocks, gather, task

logger = logging.getLogger(__name__)


def slice_bounds(sizes: np.ndarray, min_slices: int, max_bytes: int) -> list[int]:
    """Row bounds of the convert wave's slices of candidates whose input
    files have ``sizes`` bytes: ``min_slices`` runs of consecutive rows
    of near-equal row count (fewer when there are fewer rows, one empty
    slice when there are none), each cut again where its files would
    sum past ``max_bytes`` (a larger file is a slice of its own)."""
    n = len(sizes)
    even = np.linspace(0, n, max(1, min(n, min_slices)) + 1).round().astype(int).tolist()
    bounds = []
    for a, b in zip(even[:-1], even[1:]):
        bounds.append(a)
        if sizes[a:b].sum() > max_bytes:
            run = 0
            for i in range(a, b):
                if run and run + sizes[i] > max_bytes:
                    bounds.append(i)
                    run = 0
                run += sizes[i]
    return bounds + [n]


def _run_slice(fn, *args) -> tuple:
    """One task of a convert wave, whose last three args are the wave's
    table and one slice's bounds ``lo, n``: ``fn(*rest,
    table.slice(lo, n))`` and that block's ``block_meta``."""
    *args, table, lo, n = args
    block = fn(*args, table.slice(lo, n))
    return block, block_meta(block)


def slice_wave(table: pa.Table, sizes, fn, *args, lead=()):
    """The convert wave: ``table`` cut into slices, at least one per
    cluster CPU and none holding more than
    ``DataContext.target_max_block_size`` input bytes (``sizes``, one
    per row; :func:`slice_bounds`), and one plain task per slice running
    ``fn(*args, slice)``. ``fn``, each arg and the table are put once; a
    task gets their refs and its slice's bounds, and slices in the
    worker. Returns, once every slice has run, a ``blocks_dataset`` over
    the ``lead`` tables (put from the driver) and the slices' blocks, in
    slice order: however many consumers read it, each slice runs once."""
    import ray
    from ray.data import DataContext

    bounds = slice_bounds(np.asarray(sizes), cluster_cpus(),
                          DataContext.get_current().target_max_block_size)
    run = task(_run_slice, num_returns=2)
    refs = [ray.put(a) for a in (fn, *args, table)]
    return blocks_dataset([(ray.put(t), block_meta(t)) for t in lead] + gather(
        [run.remote(*refs, a, b - a) for a, b in zip(bounds[:-1], bounds[1:])]))


def _build_slice(cfg: WarcitConfig, candidates: pa.Table) -> pa.Table:
    """One task of the convert wave: a slice of candidate rows -> its
    records."""
    return RecordBuilder(cfg)(PayloadLoader()(candidates))


def build_warc_dataset(cfg: WarcitConfig):
    """The record Dataset, built by the time this returns: the seeds are
    enumerated on the driver and one :func:`slice_wave` task per slice
    loads its payloads and builds its records. The Dataset's blocks are
    the warcinfo row and the slices' records, in seq order. An invalid
    input is logged at ERROR, as the reference logs it (base.py:49), and
    left out."""
    table, errors = enumerate_seeds(cfg.inputs, cfg.url_prefix, strict=False)
    for msg in errors:
        logger.error(msg)
    lead = [warcinfo_row(cfg)] if cfg.warcinfo else []
    return slice_wave(table, table.column("size"), _build_slice, cfg, lead=lead)


LOGFILE_COLUMNS = ["file", "Record-Type", "URL", "timestamp",
                   "Content-Type", "mime", "charset"]


def logfile_rows(t: pa.Table) -> pa.Table:
    """The CSV logfile projection (warcit.py:316-330) of record rows:
    fixed 7 columns plus the ``seq`` ordering key, one row per record
    except warcinfo. All-Arrow (no pandas transit)."""
    import pyarrow.compute as pc

    rt = pc.cast(t.column("record_type"), pa.string())
    t = t.filter(pc.fill_null(pc.invert(pc.equal(rt, "warcinfo")), True))
    rt = pc.cast(t.column("record_type"), pa.string())
    # revisit/metadata rows only log file/type/url/timestamp
    # (warcit.py:558-566,609-618); a null is not a meta row
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


def _csv_bytes(rows) -> bytes:
    """CSV lines, DictWriter-parity (QUOTE_MINIMAL, CRLF; warcit.py:316-330)."""
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def logfile_csv(g: "pd.DataFrame") -> bytes:
    """A pandas batch of :func:`logfile_rows` as CSV lines in seq order."""
    return _csv_bytes(g.sort_values("seq")[LOGFILE_COLUMNS].itertuples(index=False, name=None))


def logfile_table(records_ds) -> "pa.Table":
    """The logfile projection, one :func:`logfile_rows` task per block,
    collected on the driver and sorted by seq, without the key: fixture
    scale only (the scale path is :func:`write_logfile_shards`)."""
    import ray

    prep = task(_prepare, num_returns=2)
    tables = ray.get([t for t, _ in gather([prep.remote(logfile_rows, ref)
                                            for ref, _ in dataset_blocks(records_ds)])])
    if not tables:
        return pa.table({c: pa.array([], pa.string()) for c in LOGFILE_COLUMNS})
    return pa.concat_tables(tables).sort_by("seq").drop_columns(["seq"])


def write_logfile_csv(records_ds, path: str) -> int:
    """The logfile projection as ONE CSV in seq order, header first
    (:func:`write_ranges`). Returns the row count."""
    return write_ranges(records_ds, logfile_rows, (), logfile_csv, path, "wb",
                        head=_csv_bytes([LOGFILE_COLUMNS]), batch_format="pandas")


def write_logfile_shards(records_ds, out_dir: str,
                         files_per_part: int = 1024) -> list:
    """Sharded K3 sink with DETERMINISTIC part boundaries (the
    write_warc_shards discipline, on ``write_shards``): rows partition
    on fixed ranges of ``files_per_part`` input files
    (:func:`part_of_seq`), each part ``part-<shard:020d>.csv`` (header +
    rows in seq order, tmp + rename; filename order == record order).
    Resume skips identical parts and raises on a content mismatch; a
    ``_shards.json`` pin of files_per_part refuses a resume with another
    value (:func:`pin_layout`)."""
    out_dir = os.path.abspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    pin_layout(out_dir, {"files_per_part": int(files_per_part)},
               r"part-\d{20}\.csv")

    def write_shard(shard_id: int, g: "pd.DataFrame") -> pa.Table:
        payload = _csv_bytes([LOGFILE_COLUMNS]) + logfile_csv(g)
        name = os.path.join(out_dir, "part-%020d.csv" % shard_id)
        if os.path.exists(name):
            with open(name, "rb") as fh:
                if fh.read() == payload:
                    return pa.table({"path": [name], "records": [len(g)]})
            raise ValueError(
                "%s exists with different content (changed input or walk "
                "order) — refusing to overwrite on resume" % name)
        tmp = name + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, name)
        return pa.table({"path": [name], "records": [len(g)]})

    parts = write_shards(records_ds, logfile_rows, (),
                         lambda _: partial(part_of_seq, files_per_part=files_per_part),
                         write_shard, batch_format="pandas")
    return [path for path, _ in parts]


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
