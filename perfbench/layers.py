"""Per-layer metrics, derived from the spans of the traced run.

Each job of the traced run's timed loop yields one value per metric;
the run reports the median over its jobs. ``busy_s`` is a layer's self
CPU time (span time minus in-process children, on the thread's CPU
clock), ``wait_s`` its self wall time minus ``busy_s``: time it was
blocked on actors, tasks or the object store. ``wall_s`` is the whole
span, children included. Spans of every process count, so ``busy_s``
sums across workers and can exceed the job's wall time.
"""

from __future__ import annotations

import statistics

# record fields (see trace.Tracer.call)
_NAME, _START, _END, _SELF_WALL, _SELF_CPU, _COUNTS = 4, 5, 6, 7, 8, 9

_CRAWL_PHASES = ("probe_offer", "admit", "fetch", "explode", "checkpoint")


class _JobSpans:
    def __init__(self, spans: list):
        self.by_name: dict = {}
        for s in spans:
            self.by_name.setdefault(s[_NAME], []).append(s)

    def _match(self, names) -> list:
        out = []
        for n in names:
            if n.endswith("*"):
                out += [s for k, v in self.by_name.items() if k.startswith(n[:-1])
                        for s in v]
            else:
                out += self.by_name.get(n, [])
        return out

    def busy(self, *names) -> float:
        return sum(s[_SELF_CPU] for s in self._match(names))

    def wait(self, *names) -> float:
        return sum(max(0.0, s[_SELF_WALL] - s[_SELF_CPU]) for s in self._match(names))

    def wall(self, *names) -> float:
        return sum(s[_END] - s[_START] for s in self._match(names))

    def calls(self, *names) -> int:
        return sum((s[_COUNTS] or {}).get("calls", 1) for s in self._match(names))

    def count(self, key: str, *names) -> float:
        return sum((s[_COUNTS] or {}).get(key, 0) for s in self._match(names))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


_MB = 1 << 20

# name -> (unit, better, fn(spans: _JobSpans, info: dict) -> number)
METRICS = {
    # state
    "state.seen.add_if_absent.calls": ("count", "lower",
        lambda s, i: s.calls("state.seen.add_if_absent")),
    "state.seen.add_if_absent.keys": ("count", "lower",
        lambda s, i: s.count("keys", "state.seen.add_if_absent")),
    "state.seen.add_if_absent.busy_s": ("s", "lower",
        lambda s, i: s.busy("state.seen.add_if_absent")),
    "state.seen.fresh_ratio": ("ratio", "higher",
        lambda s, i: _ratio(s.count("added", "state.seen.add_if_absent"),
                            s.count("keys", "state.seen.add_if_absent"))),
    "state.seen.load_factor": ("ratio", "higher",
        lambda s, i: _ratio(s.count("filled", "state.seen.count"),
                            s.count("slots", "state.seen.count"))),
    "state.seen.fp_skips": ("count", "lower", lambda s, i: i.get("fp_skips", 0)),
    "state.host.offer.calls": ("count", "lower", lambda s, i: s.calls("state.host.offer")),
    "state.host.offer.urls": ("count", "lower",
        lambda s, i: s.count("urls", "state.host.offer")),
    "state.host.offer.busy_s": ("s", "lower", lambda s, i: s.busy("state.host.offer")),
    "state.host.admit_table.busy_s": ("s", "lower",
        lambda s, i: s.busy("state.host.admit_table")),
    "state.host.admit_ratio": ("ratio", "higher",
        lambda s, i: _ratio(s.count("admitted", "state.host.admit_table"),
                            s.count("accepted", "state.host.offer"))),
    "state.host.robots_blocked": ("count", "lower",
        lambda s, i: i.get("robots_blocked", 0)),
    "state.host.evicted": ("count", "lower", lambda s, i: i.get("evicted", 0)),
    "state.checkpoint.busy_s": ("s", "lower",
        lambda s, i: s.busy("state.seen.flush_delta", "state.host.checkpoint_state")),
    "state.shard_cpus": ("cpu", "lower", lambda s, i: i.get("shard_cpus", 0)),
    # functions
    "functions.surt.busy_s": ("s", "lower",
        lambda s, i: s.busy("functions.surt_batch", "functions.surt_hash64_batch",
                            "functions.surt_host_batch")),
    "functions.sha1_b32.calls": ("count", "lower", lambda s, i: s.calls("functions.sha1_b32")),
    "functions.sha1_b32.busy_s": ("s", "lower", lambda s, i: s.busy("functions.sha1_b32")),
    "functions.mime.busy_s": ("s", "lower", lambda s, i: s.busy("functions.mime")),
    "functions.charset.busy_s": ("s", "lower", lambda s, i: s.busy("functions.charset")),
    # pipelines.crawl
    "crawl.seen_probe_batch.rows_in": ("count", "lower",
        lambda s, i: s.count("rows_in", "crawl.seen_probe_batch")),
    "crawl.seen_probe_batch.rows_out": ("count", "lower",
        lambda s, i: s.count("rows_out", "crawl.seen_probe_batch")),
    "crawl.seen_probe_batch.busy_s": ("s", "lower",
        lambda s, i: s.busy("crawl.seen_probe_batch")),
    "crawl.seen_probe_batch.wait_s": ("s", "lower",
        lambda s, i: s.wait("crawl.seen_probe_batch")),
    "crawl.offer_batch.busy_s": ("s", "lower", lambda s, i: s.busy("crawl.offer_batch")),
    "crawl.offer_batch.wait_s": ("s", "lower", lambda s, i: s.wait("crawl.offer_batch")),
    "crawl.fetch.rows": ("count", "lower", lambda s, i: s.count("rows", "crawl.fetch")),
    "crawl.fetch.payload_mb": ("MB", "lower",
        lambda s, i: s.count("payload_bytes", "crawl.fetch") / _MB),
    "crawl.fetch.busy_s": ("s", "lower", lambda s, i: s.busy("crawl.fetch")),
    "crawl.explode_links.links_out": ("count", "lower",
        lambda s, i: s.count("rows_out", "crawl.explode_links")),
    "crawl.explode_links.busy_s": ("s", "lower", lambda s, i: s.busy("crawl.explode_links")),
    "crawl.checkpoint.write_generation.mb": ("MB", "lower",
        lambda s, i: s.count("bytes", "crawl.checkpoint.write_generation") / _MB),
    "crawl.checkpoint.write_generation.busy_s": ("s", "lower",
        lambda s, i: s.busy("crawl.checkpoint.write_generation")),
    "crawl.generations": ("count", "lower", lambda s, i: i.get("generations", 0)),
    "crawl.ingest_s": ("s", "lower", lambda s, i: i.get("ingest_s", 0.0)),
    # sources
    "sources.enumerate_seeds.files": ("count", "higher",
        lambda s, i: s.count("files", "sources.enumerate_seeds")),
    "sources.enumerate_seeds.busy_s": ("s", "lower",
        lambda s, i: s.busy("sources.enumerate_seeds")),
    "sources.payload_loader.mb": ("MB", "higher",
        lambda s, i: s.count("payload_bytes", "sources.payload_loader") / _MB),
    "sources.payload_loader.busy_s": ("s", "lower",
        lambda s, i: s.busy("sources.payload_loader")),
    # stages.build_records
    "build_records.record_builder.records_out": ("count", "higher",
        lambda s, i: s.count("records_out", "build_records.record_builder")),
    "build_records.record_builder.revisits": ("count", "higher",
        lambda s, i: s.count("revisits", "build_records.record_builder")),
    "build_records.record_builder.busy_s": ("s", "lower",
        lambda s, i: s.busy("build_records.record_builder")),
    # sinks.warc_sink
    "sinks.serialize_batch.mb": ("MB", "lower",
        lambda s, i: s.count("bytes", "sinks.serialize_batch") / _MB),
    "sinks.serialize_batch.busy_s": ("s", "lower", lambda s, i: s.busy("sinks.serialize_batch")),
    "sinks.write_shards_udfs.busy_s": ("s", "lower",
        lambda s, i: s.busy("udf:warc_sink.write_warc_shards.*")),
    "sinks.write_warc_shards.wall_s": ("s", "lower",
        lambda s, i: s.wall("sinks.write_warc_shards")),
    "sinks.parts_written": ("count", "lower",
        lambda s, i: s.count("parts", "sinks.write_warc_shards")),
    "sinks.records_per_part": ("count", "higher",
        lambda s, i: _ratio(i.get("records", 0), s.count("parts", "sinks.write_warc_shards"))),
    # stages.dedup
    "dedup.minhash_sig_batch.docs": ("count", "higher",
        lambda s, i: s.count("rows_in", "dedup.minhash_sig_batch")),
    "dedup.minhash_sig_batch.busy_s": ("s", "lower",
        lambda s, i: s.busy("dedup.minhash_sig_batch")),
    "dedup.lsh_band_rows.rows": ("count", "lower",
        lambda s, i: s.count("rows_out", "dedup.lsh_band_rows")),
    "dedup.lsh_band_rows.busy_s": ("s", "lower", lambda s, i: s.busy("dedup.lsh_band_rows")),
    "dedup.candidate_pairs.pairs": ("count", "lower",
        lambda s, i: s.count("rows_out", "dedup.emit_pairs")),
    "dedup.candidate_pairs.busy_s": ("s", "lower",
        lambda s, i: s.busy("dedup.emit_pairs", "udf:dedup.candidate_pairs_from_bands.*")),
    "dedup.verify.busy_s": ("s", "lower",
        lambda s, i: s.busy("udf:dedup.verify_jaccard_pairs.*", "udf:joins.*")),
    "dedup.verify_yield": ("ratio", "higher",
        lambda s, i: _ratio(
            s.count("rows_out", "udf:dedup.verify_jaccard_pairs.<locals>.row_jaccard"),
            s.count("rows_in", "udf:dedup.verify_jaccard_pairs.<locals>.row_jaccard"))),
    "dedup.near_dup_pairs.wall_s": ("s", "lower", lambda s, i: s.wall("dedup.near_dup_pairs")),
    "dedup.tier_large": ("count", "lower", lambda s, i: i.get("tier_large", 0)),
    # stages.components
    "components.wall_s": ("s", "lower",
        lambda s, i: s.wall("components.components_from_pairs",
                            "components.connected_components")),
    "components.groups": ("count", "lower",
        lambda s, i: s.count("groups", "components.components_from_pairs")),
}
METRICS.update({
    "crawl.phase.%s_s" % p: ("s", "lower", lambda s, i, p=p: i.get("phase.%s_s" % p, 0.0))
    for p in _CRAWL_PHASES
})
# whole-run metrics, filled in by run.py rather than per job
RUN_METRICS = {
    "trace.items_per_s": ("1/s", "higher"),
    "trace.untraced_items_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans_per_job": ("count", "lower"),
}


def per_layer(spans: list, windows: list, infos: list) -> dict:
    """Median over jobs of every METRICS value. ``windows`` holds each
    timed job's (start, end) on the monotonic clock; a span belongs to
    the job whose window contains its start."""
    jobs = [[] for _ in windows]
    for s in spans:
        for k, (t0, t1) in enumerate(windows):
            if t0 <= s[_START] <= t1:
                jobs[k].append(s)
                break
    values = {name: [] for name in METRICS}
    for job_spans, info in zip(jobs, infos):
        js = _JobSpans(job_spans)
        for name, (_unit, _better, fn) in METRICS.items():
            values[name].append(float(fn(js, info)))
    out = {name: statistics.median(v) if v else 0.0 for name, v in values.items()}
    out["trace.spans_per_job"] = statistics.median(len(j) for j in jobs) if jobs else 0
    return out
