"""Small broadcast side tables: mapfile, conversion rules, conversion
results, transclusion manifests.

These are driver-loaded, validated, and broadcast (ray.put / closure
capture) — never shuffled. The reference loads them fully into memory
too (warcit.py:271-306, converter.py:70-95,198-277); at engine scale
they remain small relative to the data.
"""

from __future__ import annotations

import csv
import re

try:
    import yaml
except ImportError:  # pragma: no cover
    yaml = None

MAPFILE_ALLOWED = {"file", "URL", "timestamp", "Content-Type"}


class MapfileError(ValueError):
    pass


def load_mapfile(path: str) -> list[dict]:
    """CSV/TSV mapfile (warcit.py:271-306): dialect by extension,
    header whitelist, 'file' mandatory, >= 2 columns."""
    with open(path, "r", newline="") as fh:
        if path.lower().endswith(".tsv"):
            reader = csv.DictReader(fh, dialect=csv.excel_tab)
        else:
            reader = csv.DictReader(fh)
        rows = list(reader)
        fields = reader.fieldnames or []

    bad = [f for f in fields if f not in MAPFILE_ALLOWED]
    if bad:
        raise MapfileError(
            "Invalid mapfile column(s): {0}. Allowed columns: file, URL, "
            "timestamp, Content-Type".format(", ".join(bad))
        )
    if "file" not in fields:
        raise MapfileError('Mapfile must contain a "file" column')
    if len(fields) < 2:
        raise MapfileError("Mapfile must contain at least two columns")
    return rows


def match_mapfile(filename: str, filemap: list[dict]) -> tuple[int, dict | None]:
    """First row whose 'file' is a suffix of ``filename``
    (warcit.py:332-342). Returns (row_index, row) — the index feeds the
    distributed double-match check (per-block counts summed on the
    driver, since per-process mutable 'matched' flags don't
    distribute)."""
    for i, row in enumerate(filemap):
        if filename.endswith(row["file"]):
            return i, row
    return -1, None


DEFAULT_RULES = {
    # In-repo analogue of warcit's default-conversion-rules.yaml: the
    # external ffmpeg video rules become image re-encodes through the
    # in-repo codecs (same bookkeeping: ext, command template, mime,
    # skip flags; converter.py:136-178 semantics).
    "url_prefix": "",
    "file_types": [
        {
            "ext": ".ppm",
            "conversion_rules": [
                {"name": "png", "ext": "png", "mime": "image/png",
                 "command": "codec-recode {input} {output}"},
                {"name": "dctq", "ext": "dctq", "mime": "image/x-dctq",
                 "command": "codec-recode {input} {output}"},
            ],
        },
        {
            "ext": ".bmp",
            "conversion_rules": [
                {"name": "png", "ext": "png", "mime": "image/png",
                 "command": "codec-recode {input} {output}"},
            ],
        },
    ],
}


def load_rules(path: str | None):
    """Conversion rules YAML (converter.py:70-95): compile regex file
    matchers; default rules when no path given."""
    if path is None:
        rules = {k: (v.copy() if isinstance(v, dict) else v) for k, v in DEFAULT_RULES.items()}
        rules["file_types"] = [dict(ft, conversion_rules=[dict(r) for r in ft["conversion_rules"]])
                               for ft in DEFAULT_RULES["file_types"]]
    else:
        if yaml is None:  # pragma: no cover
            raise RuntimeError("pyyaml unavailable")
        with open(path, "rt") as fh:
            rules = yaml.safe_load(fh.read())
    for ft in rules["file_types"]:
        if "regex" in ft:
            ft["regex"] = re.compile(ft["regex"])
    return rules


def load_conversion_results(path: str) -> dict[str, list[dict]]:
    """YAML {conversions: {url: [result, ...]}} (converter.py:198-216)."""
    if yaml is None:  # pragma: no cover
        raise RuntimeError("pyyaml unavailable")
    with open(path, "rt") as fh:
        results = yaml.safe_load(fh.read())
    return results.get("conversions", {}) if results else {}


def load_transclusions(path: str) -> dict[str, list[dict]]:
    """YAML {transclusions: {url: [tc, ...]}} (converter.py:220-230)."""
    if yaml is None:  # pragma: no cover
        raise RuntimeError("pyyaml unavailable")
    with open(path, "rt") as fh:
        results = yaml.safe_load(fh.read())
    return results.get("transclusions", {}) if results else {}
