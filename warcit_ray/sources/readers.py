"""Reader shim: one entry point for the engine's columnar table reads.

SURVEY §1: the input tables are Arrow-native columnar data that may be
stored as Lance or Parquet; the engine reads either through this shim
(``ray.data.read_lance`` / ``ray.data.read_parquet``) with identical
column pruning. Format is sniffed from the on-disk layout: a
``<name>.lance`` dataset directory wins over ``<name>.parquet``.

pylance is not installed in this sandbox, so the lance branch is
import-guarded: selecting a lance table without the dependency raises
a clear RuntimeError rather than an obscure attribute error (the
parquet path is exercised everywhere; the branch selection is
unit-tested in tests/test_readers.py — sniffing, pruned parquet
reads, and the lance strict-stub).
"""

from __future__ import annotations

import os

from ..stages.shuffle import cluster_cpus


def table_path(sf_dir: str, name: str) -> tuple[str, str]:
    """-> (format, path); lance dataset dirs take precedence."""
    lance = os.path.join(sf_dir, name + ".lance")
    if os.path.isdir(lance):
        return "lance", lance
    return "parquet", os.path.join(sf_dir, name + ".parquet")


def read_table(sf_dir: str, name: str, columns=None,
               blocks: int | None = None):
    """Pruned columnar read -> ray.data.Dataset.

    Parquet reads get explicit block splitting (the driver-generated
    files are single-row-group; without override_num_blocks every
    downstream map would run as ONE task). Lance datasets come
    pre-fragmented, so Ray's default parallelism applies.
    """
    import ray
    import ray.data as rd

    fmt, path = table_path(sf_dir, name)
    if fmt == "lance":
        if not hasattr(rd, "read_lance"):
            raise RuntimeError(
                "lance table at %s but this Ray build has no read_lance" % path)
        try:
            return rd.read_lance(path, columns=columns)
        except ImportError as e:  # pylance missing
            raise RuntimeError(
                "lance table at %s requires the 'pylance' package, which "
                "is not installed in this environment" % path) from e
    if blocks is None:
        cpus = cluster_cpus() if ray.is_initialized() else 8
        # ~0.75 MB of file per block, capped by cluster CPUs
        blocks = max(1, min(2 * cpus, os.path.getsize(path) // 786_432))
    return rd.read_parquet(path, columns=columns, override_num_blocks=int(blocks))
