"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the engine: :func:`install` replaces the
engine's public layer functions (and a few methods) with wrappers, in
the driver and - through Ray's ``worker_process_setup_hook`` - in every
worker and actor process. A wrapper records one span per call:

    [run_id, pid, span_id, parent_id, name, start, end,
     self_wall_s, self_cpu_s, counts]

``parent_id`` is the enclosing span of the same thread (cross-process
parents are not known from outside; spans are attributed to a job by
their start time). Self time is the span's wall time minus the wall
time of its in-process children; ``self_cpu_s`` is the same on the
thread's CPU clock, so ``self_wall_s - self_cpu_s`` is time the layer
spent blocked (waiting on actors, tasks or the object store).

Per-item leaf functions (``sha1_b32``, ``resolve_mime``,
``charset_suffix``) are aggregated per (parent span, name) into one
record carrying ``calls``, instead of one record per call.

Each process keeps its spans in memory and appends them to
``<trace_dir>/spans-<pid>.jsonl`` when its outermost span ends: actors
are killed by ``ray.kill`` at the end of a crawl, so a process cannot be
relied on to flush at exit.

Ray Data UDFs that are closures inside engine functions (for example
``verify_jaccard_pairs.<locals>.row_jaccard``) cannot be replaced by
attribute; the driver wraps them where they enter ``map_batches`` /
``map_groups`` and records them as ``udf:<module>.<qualname>`` spans
with ``rows_in``/``rows_out`` counts.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
RUN_ID_ENV = "PERFBENCH_RUN_ID"

_TRACER = None  # the process tracer, set by install()


def _rows(x) -> int:
    if x is None:
        return 0
    n = getattr(x, "num_rows", None)
    if n is not None:
        return int(n)
    if isinstance(x, dict):
        return len(next(iter(x.values()), ()))
    return len(x)


class Tracer:
    def __init__(self, trace_dir: str, run_id: str):
        self.path = os.path.join(trace_dir, "spans-%d.jsonl" % os.getpid())
        self.run_id = run_id
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buf: list = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, fn, args, kwargs, counts_fn=None, leaf=False):
        stack = self._stack()
        if leaf and stack:
            t0, c0 = time.monotonic(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                wall, cpu = time.monotonic() - t0, time.thread_time() - c0
                frame = stack[-1]
                frame[3] += wall
                frame[4] += cpu
                agg = frame[5].setdefault(name, [t0, 0, 0.0, 0.0])
                agg[1] += 1
                agg[2] += wall
                agg[3] += cpu
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        # frame: [span_id, start, cpu_start, child_wall, child_cpu, leaf_aggs]
        frame = [span_id, time.monotonic(), time.thread_time(), 0.0, 0.0, {}]
        stack.append(frame)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end, cpu_end = time.monotonic(), time.thread_time()
            stack.pop()
            wall, cpu = end - frame[1], cpu_end - frame[2]
            if stack:
                stack[-1][3] += wall
                stack[-1][4] += cpu
            counts = None
            if counts_fn is not None:
                try:
                    counts = counts_fn(args, kwargs, result)
                except Exception as e:  # a counter must never fail the call
                    counts = {"count_error": repr(e)}
            recs = [[self.run_id, os.getpid(), span_id, parent, name, frame[1],
                     end, wall - frame[3], cpu - frame[4], counts]]
            for leaf_name, (t_first, n, lw, lc) in frame[5].items():
                recs.append([self.run_id, os.getpid(), None, span_id, leaf_name,
                             t_first, end, lw, lc, {"calls": n}])
            with self._lock:
                self._buf.extend(recs)
                if not stack:
                    self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._buf:
            return
        data = "".join(json.dumps(r, separators=(",", ":")) + "\n"
                       for r in self._buf).encode()
        self._buf = []
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()


# ---------------------------------------------------------------------------
# counters: (args, kwargs, result) -> {name: number}
# ---------------------------------------------------------------------------

def _c_seen_add(a, k, r):
    return {"keys": len(a[1]), "added": int(r.sum())}


def _c_seen_count(a, k, r):
    f = a[0].filter
    return {"filled": int(r), "slots": int(f.nbuckets) * 4}


def _c_offer(a, k, r):
    return {"urls": len(a[2]), "accepted": int(r)}


def _c_admit_table(a, k, r):
    if r is None:
        return {"admitted": 0}
    return {"admitted": len(r["url"]) if isinstance(r, dict) else r.num_rows}


def _c_probe(a, k, r):
    return {"rows_in": _rows(a[0]), "rows_out": _rows(r)}


def _c_rows_in(a, k, r):
    return {"rows_in": _rows(a[0])}


def _c_fetch(a, k, r):
    import pyarrow.compute as pc

    return {"rows": _rows(a[0]),
            "payload_bytes": int(pc.sum(r.column("content_length")).as_py() or 0)}


def _c_rows_out(a, k, r):
    return {"rows_out": _rows(r)}


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def _c_write_generation(a, k, r):
    return {"bytes": _dir_bytes(a[0].gen_dir(a[1]))}


def _c_enumerate(a, k, r):
    return {"files": r[0].num_rows}


def _c_payload_loader(a, k, r):
    import pyarrow.compute as pc

    return {"payload_bytes": int(pc.sum(pc.binary_length(r.column("payload"))).as_py() or 0)}


def _c_record_builder(a, k, r):
    import pyarrow.compute as pc

    revisits = pc.sum(pc.equal(r.column("record_type"), "revisit")).as_py() or 0
    return {"records_out": r.num_rows, "revisits": int(revisits)}


def _c_serialize(a, k, r):
    return {"bytes": len(r)}


def _c_parts(a, k, r):
    return {"parts": len(r)}


def _c_components(a, k, r):
    return {"groups": len({root for _m, root in r})}


# (span name, module, attribute path, counter, leaf)
TARGETS = [
    ("state.seen.add_if_absent", "warcit_ray.state.shards",
     "SeenShardState.add_if_absent", _c_seen_add, False),
    ("state.seen.count", "warcit_ray.state.shards",
     "SeenShardState.count", _c_seen_count, False),
    ("state.seen.flush_delta", "warcit_ray.state.shards",
     "SeenShardState.flush_delta", None, False),
    ("state.host.offer", "warcit_ray.state.shards",
     "HostShardState.offer", _c_offer, False),
    ("state.host.admit_table", "warcit_ray.state.shards",
     "HostShardState.admit_table", _c_admit_table, False),
    ("state.host.checkpoint_state", "warcit_ray.state.shards",
     "HostShardState.checkpoint_state", None, False),
    ("functions.surt_batch", "warcit_ray.functions.urls", "surt_batch", None, False),
    ("functions.surt_hash64_batch", "warcit_ray.functions.urls",
     "surt_hash64_batch", None, False),
    ("functions.surt_host_batch", "warcit_ray.functions.urls",
     "surt_host_batch", None, False),
    ("functions.sha1_b32", "warcit_ray.functions.digests", "sha1_b32", None, True),
    ("functions.mime", "warcit_ray.functions.mime", "resolve_mime", None, True),
    ("functions.charset", "warcit_ray.functions.charset", "charset_suffix", None, True),
    ("crawl.seen_probe_batch", "warcit_ray.pipelines.crawl",
     "seen_probe_batch", _c_probe, False),
    ("crawl.offer_batch", "warcit_ray.pipelines.crawl", "offer_batch",
     _c_rows_in, False),
    ("crawl.fetch", "warcit_ray.pipelines.crawl", "light_fetch_batch", _c_fetch, False),
    ("crawl.fetch", "warcit_ray.pipelines.crawl", "fetch_batch", _c_fetch, False),
    ("crawl.explode_links", "warcit_ray.pipelines.crawl", "explode_links",
     _c_rows_out, False),
    ("crawl.checkpoint.write_generation", "warcit_ray.pipelines.crawl",
     "CrawlCheckpoint.write_generation", _c_write_generation, False),
    ("sources.enumerate_seeds", "warcit_ray.sources.seeds", "enumerate_seeds",
     _c_enumerate, False),
    ("sources.payload_loader", "warcit_ray.sources.seeds", "PayloadLoader.__call__",
     _c_payload_loader, False),
    ("build_records.record_builder", "warcit_ray.stages.build_records",
     "RecordBuilder.__call__", _c_record_builder, False),
    ("sinks.serialize_batch", "warcit_ray.sinks.warc_sink", "serialize_batch",
     _c_serialize, False),
    ("sinks.write_warc_shards", "warcit_ray.sinks.warc_sink", "write_warc_shards",
     _c_parts, False),
    ("dedup.minhash_sig_batch", "warcit_ray.stages.dedup", "minhash_sig_batch",
     _c_rows_in, False),
    ("dedup.lsh_band_rows", "warcit_ray.stages.dedup", "lsh_band_rows",
     _c_rows_out, False),
    ("dedup.emit_pairs", "warcit_ray.stages.dedup", "_emit_pairs_bulk",
     _c_rows_out, False),
    ("dedup.near_dup_pairs", "warcit_ray.stages.dedup", "near_dup_pairs",
     None, False),
    ("components.components_from_pairs", "warcit_ray.stages.dedup",
     "components_from_pairs", _c_components, False),
    ("components.connected_components", "warcit_ray.stages.components",
     "connected_components", None, False),
]


def _wrap(tracer: Tracer, name: str, fn, counts_fn, leaf: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, counts_fn, leaf)

    traced.__perfbench_original__ = fn
    return traced


def _run_udf(name: str, fn, args, kwargs):
    """Worker side of a wrapped Ray Data UDF (module-level, so a pickled
    UDF wrapper finds this process's tracer, not the driver's)."""
    if _TRACER is None:
        return fn(*args, **kwargs)
    return _TRACER.call(name, fn, args, kwargs, _c_udf)


def _c_udf(a, k, r):
    return {"rows_in": _rows(a[0]), "rows_out": _rows(r)}


def _udf_wrapper(fn):
    qual = getattr(fn, "__qualname__", "")
    mod = getattr(fn, "__module__", None) or ""
    if (not mod.startswith("warcit_ray") or isinstance(fn, type)
            or "<locals>" not in qual):
        return fn  # module-level UDFs are already wrapped by attribute
    name = "udf:%s.%s" % (mod.rsplit(".", 1)[-1], qual)

    @functools.wraps(fn)
    def udf(*args, **kwargs):
        return _run_udf(name, fn, args, kwargs)

    return udf


def _patch_ray_data_udfs() -> None:
    from ray.data import Dataset
    from ray.data.grouped_data import GroupedData

    for cls, meth in ((Dataset, "map_batches"), (GroupedData, "map_groups")):
        orig = getattr(cls, meth)
        if hasattr(orig, "__perfbench_original__"):
            continue

        def patched(self, fn, *args, __orig=orig, **kwargs):
            return __orig(self, _udf_wrapper(fn), *args, **kwargs)

        functools.update_wrapper(patched, orig)
        patched.__perfbench_original__ = orig
        setattr(cls, meth, patched)


def install(trace_dir: str, run_id: str) -> Tracer:
    """Wrap every TARGETS entry in this process. Module-level names are
    replaced in every loaded ``warcit_ray`` module that imported them,
    so ``from ..functions.urls import surt_batch`` call sites see the
    wrapper too. Idempotent."""
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    import sys

    tracer = Tracer(trace_dir, run_id)
    for _name, mod_name, _attr, _c, _leaf in TARGETS:
        importlib.import_module(mod_name)
    for mod_name in ("warcit_ray.pipelines.warc_build", "warcit_ray.stages.joins"):
        importlib.import_module(mod_name)
    for name, mod_name, attr, counts_fn, leaf in TARGETS:
        mod = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _wrap(tracer, name, cls.__dict__[meth], counts_fn, leaf))
            continue
        orig = getattr(mod, attr)
        wrapped = _wrap(tracer, name, orig, counts_fn, leaf)
        for m_name, m in list(sys.modules.items()):
            if m_name.startswith("warcit_ray") and m is not None \
                    and m.__dict__.get(attr) is orig:
                setattr(m, attr, wrapped)
    _patch_ray_data_udfs()
    _TRACER = tracer
    return tracer


def worker_setup() -> None:
    """``worker_process_setup_hook``: install the same wrappers in each
    Ray worker and actor process, from the environment the driver set."""
    install(os.environ[TRACE_DIR_ENV], os.environ[RUN_ID_ENV])


def read_spans(trace_dir: str) -> list:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans
