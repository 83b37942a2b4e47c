"""Seed expansion: directories, single files, and ZIP archives become a
candidate Dataset with a deterministic ``seq`` ordering key.

Reference behavior reproduced (base.py:34-61 ``iter_inputs``):
- a directory input walks with os.walk, one row per file, URL built
  from the relpath via the percent-escaper;
- a plain file input becomes one row with URL = prefix + basename;
- a ``.zip`` input (or a pseudo-path pointing inside one, base.py:63-79)
  enumerates ``infolist()`` in order, skipping directory entries and
  honoring an optional internal prefix filter.

Design difference from the reference (by intent): enumeration yields
only *metadata* rows on the driver — paths, sizes, mtimes, seq — while
payload bytes are read later, distributed, by :class:`PayloadLoader`
inside the tasks that build the records. The reference's walk order IS its output order
(SURVEY §2.5); we freeze that order into ``seq`` at enumeration time so
it survives any downstream parallelism or shuffle.
"""

from __future__ import annotations

import datetime
import os
import zipfile

import numpy as np
import pyarrow as pa

from ..functions.timestamps import datetime_to_iso_date, epoch_to_iso_date
from ..functions.urls import escape_path, parse_zip_pseudo_path, zip_entry_url
from ..pipelines.zipcrawl import open_zip

CANDIDATE_SCHEMA = pa.schema(
    [
        pa.field("seq", pa.int64()),          # global walk-order key
        pa.field("url", pa.string()),
        pa.field("full_filename", pa.string()),
        pa.field("root_dir", pa.string()),
        pa.field("source_kind", pa.string()),  # 'file' | 'zip'
        pa.field("zip_file", pa.string()),
        pa.field("zip_member", pa.string()),
        pa.field("modified_iso", pa.string()),
        pa.field("size", pa.int64()),
    ]
)

# Room for sub-records per candidate (resource=0, revisit=1,
# conversions 2.., transclusions after) when expanding seq.
SEQ_STRIDE = 4096


def part_of_seq(seq, files_per_part: int):
    """Output part id of a record ``seq`` (an int or a numpy array) when
    each part holds ``files_per_part`` input files: every record of one
    input file lands in the same part, and the warcinfo row (seq -1)
    clamps into part 0."""
    return np.maximum(seq, 0) // (SEQ_STRIDE * files_per_part)


class SeedError(ValueError):
    """Raised for invalid inputs (reference logs an error; base.py:49)."""


def enumerate_seeds(inputs: list[str], url_prefix: str,
                    strict: bool = False) -> tuple[pa.Table, list[str]]:
    """Enumerate all inputs into a candidate Arrow table.

    Returns (table, errors). With ``strict=True`` an invalid input
    raises :class:`SeedError` instead of being collected.
    """
    rows = {name: [] for name in CANDIDATE_SCHEMA.names}
    errors: list[str] = []
    seq = 0

    def add(url, full, root, kind, zfile, zmember, miso, size):
        nonlocal seq
        rows["seq"].append(seq * SEQ_STRIDE)
        rows["url"].append(url)
        rows["full_filename"].append(full)
        rows["root_dir"].append(root)
        rows["source_kind"].append(kind)
        rows["zip_file"].append(zfile)
        rows["zip_member"].append(zmember)
        rows["modified_iso"].append(miso)
        rows["size"].append(size)
        seq += 1

    for input_ in inputs:
        if os.path.isdir(input_):
            root_dir = os.path.dirname(input_)
            for root, _dirs, files in os.walk(input_):
                for name in files:
                    filename = os.path.join(root, name)
                    path = os.path.relpath(filename, input_)
                    st = os.stat(filename)
                    add(
                        url_prefix + escape_path(path), filename, root_dir,
                        "file", "", "", epoch_to_iso_date(st.st_mtime), st.st_size,
                    )
        else:
            is_zip, filename, zip_prefix = parse_zip_pseudo_path(input_)
            if not is_zip:
                if filename and not zip_prefix:
                    st = os.stat(input_)
                    add(
                        url_prefix + escape_path(os.path.basename(input_)), input_, "",
                        "file", "", "", epoch_to_iso_date(st.st_mtime), st.st_size,
                    )
                else:
                    msg = '"{0}" not a valid file or directory'.format(input_)
                    if strict:
                        raise SeedError(msg)
                    errors.append(msg)
            else:
                with zipfile.ZipFile(filename) as zp:
                    for zinfo in zp.infolist():
                        if zinfo.filename.endswith("/"):
                            continue
                        if zip_prefix and not zinfo.filename.startswith(zip_prefix):
                            continue
                        miso = datetime_to_iso_date(datetime.datetime(*zinfo.date_time))
                        add(
                            zip_entry_url(zinfo.filename, zip_prefix, url_prefix),
                            filename + "/" + zinfo.filename, "",
                            "zip", filename, zinfo.filename, miso, zinfo.file_size,
                        )

    return pa.table(rows, schema=CANDIDATE_SCHEMA), errors


class PayloadLoader:
    """Stateless batch stage: resolve payload bytes for
    candidate rows. ZIP handles come from the per-worker-process cache
    shared with the zip crawl (:func:`open_zip`), so each archive opens
    once per process, not once per batch.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch.column("source_kind").to_pylist()
        fulls = batch.column("full_filename").to_pylist()
        zfiles = batch.column("zip_file").to_pylist()
        zmembers = batch.column("zip_member").to_pylist()
        payloads = []
        for kind, full, zfile, zmember in zip(kinds, fulls, zfiles, zmembers):
            if kind == "zip":
                payloads.append(open_zip(zfile).read(zmember))
            else:
                with open(full, "rb") as fh:
                    payloads.append(fh.read())
        return batch.append_column("payload", pa.array(payloads, type=pa.binary()))
