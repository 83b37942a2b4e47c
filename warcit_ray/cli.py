"""CLI entry points mirroring the reference's console scripts
(setup.py:45-46: ``warcit`` and ``warcit-converter``), argument surface
per warcit.py:37-141 / converter.py:26-50, executing on Ray Data.

Run standalone (``python -m warcit_ray.cli ...``) this module owns the
Ray session (guarded init + shutdown); imported as a library it never
calls ray.init().

Also usable via ``ray job submit -- python -m warcit_ray.cli <args>``
on a cluster — the entry point is a plain driver script by design.
"""

from __future__ import annotations

import os
import sys
from argparse import ArgumentParser


def _make_name(name: str | None, inputs: list[str], gzip: bool) -> str:
    """Output name derivation (warcit.py:373-393): default = basename of
    the first input + .warc(.gz); explicit name keeps/strips extension."""
    if not name:
        name = os.path.basename(inputs[0].rstrip(os.path.sep)) or "out"
    if name.endswith(".warc.gz"):
        return name if gzip else name[: -len(".gz")]
    if name.endswith(".warc"):
        return name + ".gz" if gzip else name
    return name + (".warc.gz" if gzip else ".warc")


def build_parser() -> ArgumentParser:
    p = ArgumentParser(
        description="Create WARC files from directories, files and zip "
                    "files — Ray Data engine")
    p.add_argument("-V", "--version", action="version",
                   version="warcit-ray " + __import__("warcit_ray").__version__)
    p.add_argument("-a", "--append", action="store_true")
    p.add_argument("-o", "--overwrite", action="store_true")
    p.add_argument("-q", "--quiet", action="store_true")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument("-n", "--name")
    p.add_argument("-d", "--fixed-dt")
    p.add_argument("--no-gzip", action="store_true")
    p.add_argument("--no-warcinfo", action="store_true")
    p.add_argument("--no-xhtml", action="store_true")
    p.add_argument("--use-magic", default="filename",
                   choices=["filename", "magic", "tika"])
    p.add_argument("--charset",
                   metavar="{<ENCODING>, detect, cchardet, tika, none}")
    p.add_argument("--index-files", default="index.html,index.htm")
    p.add_argument("--mime-overrides")
    p.add_argument("--include")
    p.add_argument("--exclude")
    p.add_argument("--mapfile")
    p.add_argument("--conversions")
    p.add_argument("--transclusions")
    p.add_argument("--logfile")
    p.add_argument("--shards", action="store_true",
                   help="write a sharded .warc.gz directory (resumable) "
                        "instead of one file")
    p.add_argument("url_prefix")
    p.add_argument("inputs", nargs="+")
    return p


def main(args=None) -> int:
    import ray

    r = build_parser().parse_args(args=args)
    mode = "ab" if r.append else ("wb" if r.overwrite else "xb")
    gzip_on = not r.no_gzip
    name = _make_name(r.name, r.inputs, gzip_on)

    from .config import WarcitConfig
    from .pipelines.warc_build import build_warc_dataset, write_logfile_csv
    from .sinks.warc_sink import write_warc_file, write_warc_shards
    from .sources.sidetables import (
        load_conversion_results,
        load_mapfile,
        load_transclusions,
    )
    from .stages.build_records import check_mapfile_unique

    # fail-fast parity with the reference's load_magic/load_tika (exit 1
    # before any work when the selected backend is unavailable,
    # warcit.py:396-407 / test_warcit.py:186-194)
    if r.use_magic == "tika" or r.charset == "tika":
        print("Apache Tika backend is not available in this build "
              "(strict stub); use --use-magic filename|magic and "
              "--charset <encoding>|detect|cchardet|none", file=sys.stderr)
        return 1

    own_session = not ray.is_initialized()
    if own_session:
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    try:
        mapfile = load_mapfile(r.mapfile) if r.mapfile else None
        cfg = WarcitConfig(
            url_prefix=r.url_prefix,
            inputs=r.inputs,
            name=name,
            fixed_dt=r.fixed_dt,
            index_files=r.index_files,
            mime_method=r.use_magic,
            mime_overrides=r.mime_overrides,
            no_xhtml=r.no_xhtml,
            charset=r.charset,
            include=r.include,
            exclude=r.exclude,
            mapfile=mapfile,
            conversions=load_conversion_results(r.conversions) if r.conversions else None,
            transclusions=load_transclusions(r.transclusions) if r.transclusions else None,
            warcinfo=not r.no_warcinfo,
            gzip=gzip_on,
            cmdline=" ".join(["warcit"] + (args or sys.argv[1:])),
        )
        ds = build_warc_dataset(cfg)
        if mapfile:
            check_mapfile_unique(ds, len(mapfile))
        if r.shards:
            write_warc_shards(ds, name + ".d", mode=mode, gzip_members=gzip_on)
            n = ds.count()
        else:
            n = write_warc_file(ds, name, mode=mode, gzip_members=gzip_on)
        if r.logfile:
            # written by tasks and appended in seq order, not collected
            write_logfile_csv(ds, r.logfile)
        if not r.quiet:
            print("Wrote %d resources to %s" % (n - (1 if cfg.warcinfo else 0), name))
        return 0
    except FileExistsError:
        print("File exists: %s (use -a to append or -o to overwrite)" % name,
              file=sys.stderr)
        return 1
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 1
    finally:
        if own_session:
            ray.shutdown()


def converter_main(args=None) -> int:
    import ray

    p = ArgumentParser(description="Format conversion based on rules "
                                   "(Ray Data engine)")
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--output-dir", default=".")
    p.add_argument("-q", "--quiet", action="store_true")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument("--results", default="warcit-conversion-results.yaml")
    p.add_argument("--rules")
    p.add_argument("--convert-stdout",
                   help="file capturing the stdout/stderr of executed "
                        "conversion commands (converter.py:78,119-126)")
    p.add_argument("url_prefix")
    p.add_argument("inputs", nargs="+")
    r = p.parse_args(args=args)

    from .sources.sidetables import load_rules
    from .stages.transcode import convert_all, results_to_dict, write_results_yaml

    own_session = not ray.is_initialized()
    if own_session:
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    try:
        rules = load_rules(r.rules)
        out_dir = r.output_dir or rules.get("output_dir", ".")
        ds = convert_all(r.inputs, r.url_prefix, rules["file_types"], out_dir,
                         dry_run=r.dry_run, convert_stdout=r.convert_stdout)
        results = results_to_dict(ds)
        if not r.dry_run:
            write_results_yaml(results, out_dir, r.results)
        if not r.quiet:
            n = sum(len(v) for v in results.values())
            print("Converted %d outputs for %d sources" % (n, len(results)))
        return 0
    finally:
        if own_session:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
