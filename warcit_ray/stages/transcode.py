"""Conversion (transcode) stage — the reference's warcit-converter
re-expressed as a stateless stage on the convert wave
(``warc_build.slice_wave``), plus the engine's one image recode kernel
(:func:`recode_batch`).

Reference semantics reproduced (converter.py:136-195):
- rule matching: first by ``ext`` suffix on the URL, else by compiled
  ``regex`` match; ALL matching file_types apply;
- per matched rule: ``skip: true`` rules are skipped; the output path
  mirrors the source tree under ``output_dir``
  (``abspath(output_dir / basename(root_dir) / relpath(input, root_dir))``);
- result bookkeeping per conversion: derived URL = ``url + '.' + ext``,
  output path, the rule dict as metadata, type 'conversion', success flag;
- results grouped by source URL in input order (asserted by the
  reference's ordering test, test_warcit.py:238-242 — we keep ``seq``).

The conversion itself runs one of two ways, matching the reference's
extension model (converter.py:158-167):
- the built-in ``codec-recode {input} {output}`` command re-encodes
  through the in-repo image codecs (the ffmpeg analogue that works in
  this sandbox);
- ANY other command template is executed as a real subprocess —
  ``subprocess.call(command.split(' '), shell=False)``, success = rc 0,
  stdout/stderr captured to ``convert_stdout`` when configured
  (converter.py:117-126) — so a user with ffmpeg installed and their
  own rules YAML gets exactly the reference behavior. If the source
  file isn't present on the worker's filesystem (payloads travel in the
  Dataset at scale), the payload is spilled to a scratch file and
  ``{input}`` formats to that local copy; the executed command is
  recorded in the ``command`` result column.
"""

from __future__ import annotations

import contextlib
import logging
import os
import subprocess
import tempfile

import pyarrow as pa

from ..codecs import decode, encode, phash64, psnr, sniff_fmt
from ..functions.digests import sha1_b32
from ..sources.seeds import PayloadLoader

logger = logging.getLogger(__name__)

RESULT_SCHEMA = pa.schema(
    [
        pa.field("seq", pa.int64()),
        pa.field("source_url", pa.string()),
        pa.field("url", pa.string()),
        pa.field("output", pa.string()),
        pa.field("metadata_json", pa.string()),
        pa.field("type", pa.string()),
        pa.field("success", pa.bool_()),
        pa.field("command", pa.string()),
    ]
)


def _codec(fn, *args):
    """``fn(*args)``, or None where it raises ValueError/KeyError."""
    try:
        return fn(*args)
    except (ValueError, KeyError):
        return None


def recode(payload: bytes, fmt: str | None, to_fmts) -> tuple:
    """The recode step: ``payload`` decoded once as ``fmt`` (sniffed
    when None) and encoded to each of ``to_fmts`` -> (image, [bytes per
    format]), None where the decode or an encode fails."""
    img = _codec(decode, payload, fmt or sniff_fmt(payload))
    return img, [None if img is None else _codec(encode, img, to) for to in to_fmts]


def recode_batch(t: pa.Table, to_fmts) -> pa.Table:
    """The image recode kernel: ``(image_id, bytes, fmt)`` rows -> one
    row per (image, target format), image-major. Each image is decoded
    once and pHashed (``phash``, low 63 bits); each format's encoding
    is decoded back and recorded as ``digest`` (:func:`sha1_b32`),
    ``nbytes`` and ``psnr_ok`` (PSNR >= 40 dB; lossless is infinite).
    A row whose :func:`recode` failed has ``ok`` False, no digest, 0
    bytes, ``psnr_ok`` False, and no ``phash`` if the decode failed."""
    schema = pa.schema([("image_id", pa.string()), ("out_fmt", pa.string()),
                        ("ok", pa.bool_()), ("digest", pa.string()),
                        ("nbytes", pa.int64()), ("phash", pa.int64()),
                        ("psnr_ok", pa.bool_())])
    rows = []
    for image_id, payload, fmt in zip(*(t.column(c).to_pylist()
                                        for c in ("image_id", "bytes", "fmt"))):
        img, encoded = recode(payload, fmt, to_fmts)
        ph = None if img is None else phash64(img) & ((1 << 63) - 1)
        for to, b in zip(to_fmts, encoded):
            ok = b is not None
            rows.append((image_id, to, ok, sha1_b32(b) if ok else None,
                         len(b) if ok else 0, ph,
                         ok and psnr(img, decode(b, to)) >= 40.0))
    return pa.Table.from_pylist([dict(zip(schema.names, r)) for r in rows],
                                schema=schema)


def match_file_types(url: str, file_types: list[dict]) -> list[dict]:
    """converter.py:136-150: ext-suffix first, else regex.match."""
    matched = []
    for ft in file_types:
        if "ext" in ft and url.endswith(ft["ext"]):
            matched.append(ft)
        elif "regex" in ft and ft["regex"].match(url):
            matched.append(ft)
    return matched


def output_filename(convert_filename: str, output_dir: str, root_dir: str) -> str:
    """converter.py:180-187 path mirroring."""
    rel = os.path.relpath(convert_filename, root_dir)
    return os.path.abspath(os.path.join(output_dir, os.path.basename(root_dir), rel))


class TranscodeStage:
    """Stateless stage: candidate rows (+payload) -> result rows, called
    once per slice of the converter's wave (:func:`convert_all`); each
    call is pure work plus the output files it writes.
    """

    def __init__(self, file_types: list[dict], output_dir: str,
                 dry_run: bool = False, convert_stdout: str | None = None):
        self.file_types = file_types
        self.output_dir = output_dir
        self.dry_run = dry_run
        self.convert_stdout = convert_stdout

    def _stdout(self):
        """converter.py:117-126 convert_stdout capture, opened per batch
        in append mode (concurrent tasks share the path; writes are
        record-interleaved, line-atomic at OS pipe granularity). Without
        a log, a context yielding None: commands inherit stdout."""
        if not self.convert_stdout:
            return contextlib.nullcontext()
        os.makedirs(os.path.dirname(os.path.abspath(self.convert_stdout)),
                    exist_ok=True)
        return open(self.convert_stdout, "at")

    def _convert_one(self, payload: bytes, out_path: str, to_ext: str) -> bool:
        _, (out_bytes,) = recode(payload, None, (to_ext,))
        if out_bytes is None:
            return False
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        with open(out_path, "wb") as fh:
            fh.write(out_bytes)
        return True

    def _run_rule(self, rule: dict, row: dict, out_path: str,
                  log) -> tuple[bool, str]:
        """Execute one conversion rule -> (success, executed command).

        ``codec-recode`` dispatches to the in-repo codecs; any other
        template is a REAL subprocess exactly like the reference
        (converter.py:158-167): format {input}/{output}, split on
        spaces, shell=False, success = returncode 0."""
        template = rule["command"]
        if template.split(" ", 1)[0] == "codec-recode":
            command = template.format(input=row["full_filename"], output=out_path)
            return self._convert_one(row["payload"], out_path, rule["ext"]), command

        in_path = row["full_filename"]
        spill = None
        if not os.path.exists(in_path):
            # distributed worker without the source tree: the payload
            # column is the source of truth; give the command a local copy
            suffix = os.path.splitext(in_path)[1] or ".bin"
            fd, spill = tempfile.mkstemp(suffix=suffix)
            with os.fdopen(fd, "wb") as fh:
                fh.write(row["payload"] or b"")
            in_path = spill
        command = rule["command"].format(input=in_path, output=out_path)
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        try:
            rc = subprocess.call(command.split(" "), shell=False,
                                 stdout=log, stderr=log)
        except OSError:
            rc = -1
        finally:
            if spill:
                os.unlink(spill)
        return rc == 0, command

    def __call__(self, batch: pa.Table) -> pa.Table:
        with self._stdout() as log:
            return self._transcode(batch, log)

    def _transcode(self, batch: pa.Table, log) -> pa.Table:
        out = {name: [] for name in RESULT_SCHEMA.names}
        for row in batch.select(
            ["seq", "url", "full_filename", "root_dir", "payload"]
        ).to_pylist():
            sub = 0
            for ft in match_file_types(row["url"], self.file_types):
                for rule in ft["conversion_rules"]:
                    if rule.get("skip"):
                        continue
                    out_path = output_filename(
                        row["full_filename"] + "." + rule["ext"],
                        self.output_dir,
                        row["root_dir"],
                    )
                    if self.dry_run:
                        continue
                    ok, command = self._run_rule(rule, row, out_path, log)
                    meta = {k: v for k, v in rule.items() if k != "regex"}
                    out["seq"].append(row["seq"] + sub)
                    out["source_url"].append(row["url"])
                    out["url"].append(row["url"] + "." + rule["ext"])
                    out["output"].append(out_path)
                    out["metadata_json"].append(__import__("json").dumps(meta))
                    out["type"].append("conversion")
                    out["success"].append(ok)
                    out["command"].append(command)
                    sub += 1
        return pa.table(out, schema=RESULT_SCHEMA)


def _convert_slice(stage: TranscodeStage, candidates: pa.Table) -> pa.Table:
    """One task of the converter's wave: a slice of candidate rows ->
    its conversion results."""
    return stage(PayloadLoader()(candidates))


def convert_all(inputs: list[str], url_prefix: str, file_types: list[dict],
                output_dir: str, *, dry_run: bool = False,
                convert_stdout: str | None = None):
    """warcit-converter pipeline: the seeds enumerated on the driver,
    then one ``slice_wave`` task per slice loads its payloads and
    transcodes them. The result Dataset's blocks are in seq order. An
    invalid input is logged at ERROR (base.py:49) and left out."""
    from ..pipelines.warc_build import slice_wave
    from ..sources.seeds import enumerate_seeds

    table, errors = enumerate_seeds(inputs, url_prefix, strict=False)
    for msg in errors:
        logger.error(msg)
    return slice_wave(table, table.column("size"), _convert_slice,
                      TranscodeStage(file_types, output_dir, dry_run, convert_stdout))


def results_to_dict(results_ds) -> dict[str, list[dict]]:
    """The {source_url: [result, ...]} map (converter.py:171-178), in
    input order, list order = rule order (the wave's blocks are in seq
    order), ready for RecordBuilder's broadcast join."""
    import json

    out: dict[str, list[dict]] = {}
    for row in results_ds.to_pandas().itertuples(index=False):
        out.setdefault(row.source_url, []).append(
            {
                "url": row.url,
                "output": row.output,
                "metadata": json.loads(row.metadata_json),
                "type": row.type,
                "success": bool(row.success),
            }
        )
    return out


def write_results_yaml(results: dict, output_dir: str,
                       results_file: str = "warcit-conversion-results.yaml") -> str:
    """Merge-write the results YAML exactly like converter.py:97-115."""
    import yaml

    path = os.path.join(output_dir, results_file)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    try:
        with open(path, "rt") as fh:
            root = yaml.safe_load(fh.read()) or {}
    except OSError:
        root = {}
    root.setdefault("conversions", {}).update(results)
    with open(path, "wt") as fh:
        fh.write(yaml.dump(root, default_flow_style=False))
    return path
