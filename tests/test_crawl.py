"""Crawl-layer tests (north rule): cuckoo seen-set, politeness,
robots, crawl-order equivalence vs an INDEPENDENT serial oracle,
per-row decode invariants, and bit-identical resume from checkpoint."""

import heapq
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from warcit_ray.codecs import decode, psnr
from warcit_ray.functions.urls import surt, surt_host
from warcit_ray.pipelines.crawl import CrawlCheckpoint, WebGraph, crawl
from warcit_ray.sources.synth import make_caption, make_image, make_image_table
from warcit_ray.state.cuckoo import CuckooFilter
from warcit_ray.state.robots import allowed, parse_robots
from warcit_ray.state.shards import HostShardState

N = 120
CLOCK = "2026-01-01T00:00:00Z"


@pytest.fixture(scope="module")
def corpus():
    return make_image_table(N)


# --- unit: state structures --------------------------------------------------

def test_cuckoo_filter():
    f = CuckooFilter(10000)
    rng = np.random.default_rng(3)
    keys = rng.integers(1, 2**63, 5000, dtype=np.uint64)
    added = f.add_if_absent_batch(keys)
    uniq = np.unique(keys)
    assert added.sum() == len(uniq)
    # no false negatives
    assert f.contains_batch(uniq).all()
    # re-add -> nothing new
    assert f.add_if_absent_batch(keys).sum() == 0
    # duplicate within one batch counts once
    dup = np.array([7, 7, 7], dtype=np.uint64)
    a = f.add_if_absent_batch(dup)
    assert list(a) == [True, False, False]
    # false-positive rate sane on fresh keys
    fresh = rng.integers(2**63, 2**64 - 1, 20000, dtype=np.uint64)
    fp = f.contains_batch(fresh).mean()
    assert fp < 0.01
    # the false-positive skip estimate tracks the skips of a filling
    # filter (narrow fingerprints so skips are countable)
    g = CuckooFilter(100_000, fp_bits=10)
    keys = np.unique(rng.integers(0, 2**64 - 1, 80_000, dtype=np.uint64))
    rng.shuffle(keys)
    skipped = sum(int((~g.add_if_absent_batch(keys[i:i + 500])).sum())
                  for i in range(0, len(keys), 500))
    assert 0.7 < skipped / g.expected_fp_skips() < 1.3


def test_robots():
    txt = """
# comment
User-agent: *
Disallow: /private/
Disallow: /tmp

User-agent: evilbot
Disallow: /
"""
    dis = parse_robots(txt)
    assert dis == ["/private/", "/tmp"]
    assert not allowed("http://h/private/x", dis)
    assert allowed("http://h/public/x", dis)


def test_hostshard_politeness_order():
    hs = HostShardState(0, rate=1.0, capacity=2.0, robots_map={"a": ["/private/"]})
    hs.offer(
        ["a", "a", "a", "b", "a"],
        ["http://a/x", "http://a/private/y", "http://a/z", "http://b/q", "http://a/w"],
        [1, 0, 0, 0, 2],
        [10, 11, 12, 13, 14],
        ["", "", "", "", ""],
        [0, 0, 0, 0, 0],
    )
    assert hs.get_stats()["robots_blocked"] == 1
    # tick 1: host a has capacity 2 -> pops 2 best-priority; host b pops 1
    out = hs.admit()
    assert out["url"][:2] == ["http://a/z", "http://a/x"]  # (pri, seq) order
    assert "http://b/q" in out["url"]
    # tick 2: refill 1 token -> the remaining a URL
    out2 = hs.admit()
    assert out2["url"] == ["http://a/w"]
    assert hs.pending() == 0


# --- serial oracle (independent implementation) ------------------------------

def serial_oracle(graph: WebGraph, n_seeds: int, max_generations: int,
                  rate: float, capacity: float):
    robots = graph.robots_map()
    seen: set[str] = set()
    heaps: dict[str, list] = {}
    tokens: dict[str, float] = {}
    frontier = [(u, graph.priority(graph.idx_of(u)), graph.idx_of(u))
                for u in graph.seed_urls(n_seeds)]
    visit_log = []
    blocked = 0
    for g in range(max_generations):
        for url, pri, seq in frontier:
            s = surt(url)
            if s in seen:
                continue
            seen.add(s)
            host = surt_host(url)
            if not allowed(url, robots.get(host, ())):
                blocked += 1
                continue
            heapq.heappush(heaps.setdefault(host, []), (pri, seq, url))
        frontier = []
        admitted = []
        for host in sorted(heaps):
            heap = heaps[host]
            if not heap:
                continue
            tokens[host] = min(capacity, tokens.get(host, capacity) + rate)
            k = int(tokens[host])
            for _ in range(min(k, len(heap))):
                pri, seq, url = heapq.heappop(heap)
                admitted.append((host, url))
                tokens[host] -= 1.0
        if not admitted and not any(heaps.values()):
            break
        for host, url in admitted:
            visit_log.append((g, host, url))
            idx = graph.idx_of(url)
            for lnk in graph.links(idx):
                frontier.append((lnk, graph.priority(graph.idx_of(lnk)),
                                 graph.idx_of(lnk)))
    return {"visit_log": visit_log, "seen": seen, "robots_blocked": blocked}


def test_crawl_matches_serial_oracle(corpus):
    graph = WebGraph(N)
    kw = dict(n_seeds=6, max_generations=30, rate=1.0, capacity=2.0,
              track_visits=True)
    oracle = serial_oracle(graph, kw["n_seeds"], kw["max_generations"],
                           kw["rate"], kw["capacity"])
    res = crawl(corpus, graph=graph, num_seen_shards=3, num_host_shards=3,
                clock_iso=CLOCK, seen_fp_bits=32, **kw)
    _assert_matches_oracle(res, oracle, num_seen_shards=3)


def _assert_matches_oracle(res, oracle, num_seen_shards):
    # per-host visit sequences identical (the politeness contract)
    def per_host(log):
        out: dict[str, list] = {}
        for g, h, u in log:
            out.setdefault(h, []).append(u)
        return out

    assert per_host(res["visit_log"]) == per_host(oracle["visit_log"])
    # per-generation admitted SETS identical (global order may interleave
    # differently across shards; the set per tick is the contract)
    def per_gen(log):
        out: dict[int, set] = {}
        for g, h, u in log:
            out.setdefault(g, set()).add(u)
        return out

    assert per_gen(res["visit_log"]) == per_gen(oracle["visit_log"])
    # URL-seen set identical
    visited_engine = {u for _, _, u in res["visit_log"]}
    visited_oracle = {u for _, _, u in oracle["visit_log"]}
    assert visited_engine == visited_oracle
    assert res["robots_blocked"] == oracle["robots_blocked"]
    assert res["seen"] == len(oracle["seen"])
    # shards of max(4096, 4N) capacity; 32-bit fingerprints
    slots = num_seen_shards * CuckooFilter(4096).nbuckets * 4
    assert res["seen_load_factor"] == pytest.approx(len(oracle["seen"]) / slots,
                                                    abs=1e-6)
    assert 0 < res["seen_fp_skips_est"] < 1e-3


def test_crawl_records_invariants(corpus, tmp_path):
    graph = WebGraph(N)
    ck = str(tmp_path / "ck")
    crawl(corpus, graph=graph, n_seeds=6, max_generations=8,
          num_seen_shards=2, num_host_shards=2, clock_iso=CLOCK,
          checkpoint_dir=ck)
    # read all records partitions; verify decode + caption invariants
    rows = []
    for g in sorted(os.listdir(ck)):
        rec_dir = os.path.join(ck, g, "records")
        if os.path.isdir(rec_dir):
            for f in sorted(os.listdir(rec_dir)):
                rows.extend(pq.read_table(os.path.join(rec_dir, f)).to_pylist())
    assert rows
    for row in rows[:40]:
        idx = int(row["image_id"][3:])
        src = make_image(idx)
        dec = decode(row["payload"], row["fmt"])
        if row["fmt"] == "dctq":
            assert psnr(dec, src) >= 40.0
        else:
            assert np.array_equal(dec, src)
        assert row["caption"] == make_caption(idx)
        from warcit_ray.functions.digests import sha1_b32
        assert row["payload_digest"] == sha1_b32(row["payload"])


def _load_records(root, drop=()):
    """Every checkpointed record of ``root`` (minus the ``drop``
    columns), sorted by (generation, host, seq)."""
    out = []
    for g in CrawlCheckpoint(root).complete_generations():
        d = os.path.join(root, "gen=%05d" % g, "records")
        if os.path.isdir(d):
            for f in sorted(os.listdir(d)):
                t = pq.read_table(os.path.join(d, f))
                out.extend(t.drop_columns([c for c in drop if c in t.column_names])
                           .to_pylist())
    return sorted(out, key=lambda r: (r["generation"], r["host"], r["seq"]))


def _next_frontier_paths(root):
    return [p for g in os.listdir(root) for p in (
        os.path.join(root, g, "next_frontier"),
        os.path.join(root, g, "next_frontier.parquet")) if os.path.exists(p)]


RESUME_KW = dict(n_seeds=6, max_generations=12, num_seen_shards=2,
                 num_host_shards=2, clock_iso=CLOCK, seen_fp_bits=32,
                 track_visits=True)


def test_crawl_resume_bit_identical(corpus, tmp_path):
    graph = WebGraph(N)
    ck_full = str(tmp_path / "full")
    crawl(corpus, graph=graph, checkpoint_dir=ck_full, **RESUME_KW)
    a = _load_records(ck_full)

    ck_part = str(tmp_path / "part")
    crawl(corpus, graph=graph, checkpoint_dir=ck_part,
          stop_after_generation=3, **RESUME_KW)
    # each generation offered its own links: the host-shard snapshots
    # hold them, and no checkpoint keeps a next frontier
    assert _next_frontier_paths(ck_part) == []
    resumed = crawl(corpus, graph=graph, checkpoint_dir=ck_part,
                    resume=True, **RESUME_KW)
    assert resumed["plane"]["spawned"] == 0  # restored into pooled actors

    # same complete generations on disk
    assert CrawlCheckpoint(ck_full).complete_generations() == \
           CrawlCheckpoint(ck_part).complete_generations()
    b = _load_records(ck_part)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra == rb
    # the resumed run continued, not restarted: its visit log only
    # covers generations after the stop point
    assert all(g > 3 for g, _, _ in resumed["visit_log"])


def test_resume_past_max_generations(corpus, tmp_path):
    """A crawl cut short by max_generations offers its last generation's
    links too (``seen`` counts them, as a serial crawl one generation
    longer has seen them), so a resume with a larger budget continues
    from the host state alone and writes an uninterrupted crawl's
    records."""
    graph = WebGraph(N)
    ck_full = str(tmp_path / "full")
    crawl(corpus, graph=graph, checkpoint_dir=ck_full, **RESUME_KW)
    ck = str(tmp_path / "cut")
    cut = crawl(corpus, graph=graph, checkpoint_dir=ck,
                **dict(RESUME_KW, max_generations=4))
    assert cut["generations"] == 4 and _next_frontier_paths(ck) == []
    oracle = serial_oracle(graph, RESUME_KW["n_seeds"], 5, rate=1.0, capacity=2.0)
    assert cut["seen"] == len(oracle["seen"])
    crawl(corpus, graph=graph, checkpoint_dir=ck, resume=True, **RESUME_KW)
    assert _load_records(ck) == _load_records(ck_full)


# a crawl stopped after generation 3 by the code that checkpointed each
# generation's links as an unoffered next_frontier/ (same RESUME_KW);
# its records parts keep every column but the payload bytes, which
# payload_digest pins
NEXT_FRONTIER_CKPT = os.path.join(os.path.dirname(__file__), "fixtures",
                                  "ckpt_next_frontier_n120")


@pytest.mark.parametrize("legacy_file", [False, True])
def test_resume_from_next_frontier_checkpoint(corpus, tmp_path, legacy_file):
    """A checkpoint that still holds a next frontier (a next_frontier/
    part directory, or the single next_frontier.parquet older ones
    wrote) resumes bit-identically: the frontier is probed and offered
    before the first admit, and the records it wrote equal a fresh
    crawl's."""
    graph = WebGraph(N)
    ck_full = str(tmp_path / "full")
    crawl(corpus, graph=graph, checkpoint_dir=ck_full, **RESUME_KW)
    ck = str(tmp_path / "old")
    shutil.copytree(NEXT_FRONTIER_CKPT, ck)
    if legacy_file:
        d = CrawlCheckpoint(ck).gen_dir(3)
        front = pq.read_table(os.path.join(d, "next_frontier"))
        assert front.num_rows > 0
        shutil.rmtree(os.path.join(d, "next_frontier"))
        pq.write_table(front, os.path.join(d, "next_frontier.parquet"))
    resumed = crawl(corpus, graph=graph, checkpoint_dir=ck, resume=True, **RESUME_KW)
    assert all(g > 3 for g, _, _ in resumed["visit_log"])
    assert CrawlCheckpoint(ck_full).complete_generations() == \
           CrawlCheckpoint(ck).complete_generations()
    a, b = _load_records(ck_full, drop=("payload",)), _load_records(ck, drop=("payload",))
    assert len(a) == len(b) and a == b
    new = [r for r in _load_records(ck_full) if r["generation"] > 3]
    assert new == [r for r in _load_records(ck) if r["generation"] > 3]


def test_hot_host_cap():
    # skew guard: a hot host's frontier is capped; best-(priority,seq)
    # entries are retained, eviction counted
    hs = HostShardState(0, rate=1.0, capacity=2.0, max_pending_per_host=4)
    n = 20
    hs.offer(["hot"] * n, ["http://hot/p%02d" % i for i in range(n)],
             [i % 3 for i in range(n)], list(range(n)), [""] * n, [0] * n)
    assert hs.pending() <= 5  # cap 4 with 1.2x amortization slack
    assert hs.get_stats()["evicted"] > 0
    out = hs.admit()
    # the best-priority entries survived the trim
    assert out["url"][0] == "http://hot/p00"


def test_dataset_path_equivalent_to_direct_path(tmp_path):
    """The fetch wave with and without a checkpoint (its tasks write
    their records, or nothing leaves them but meta) runs the same
    crawl, and every in-task step is timed."""
    on = _wide_crawl(checkpoint_dir=str(tmp_path / "ck"))
    off = _wide_crawl()
    assert max(on["gen_admits"]) > 256  # multi-slice waves
    for k in ("visit_log", "admitted", "seen", "offered"):
        assert on[k] == off[k], k
    for res in (on, off):
        assert all(res["task_s"][k] > 0 for k in ("fetch", "explode", "probe", "offer"))


def test_offer_batch_top_per_host_trim():
    """Skew lever: a batch dominated by one host ships only its best
    top_per_host entries; other hosts are untouched."""
    import pyarrow as pa
    import ray

    from warcit_ray.pipelines.crawl import offer_batch
    from warcit_ray.state.shards import make_actors, release_actors

    lease = make_actors(0, 1, rate=100.0, capacity=100.0)
    host_actors = lease.host
    n = 50
    batch = pa.table({
        "url": (["http://hot.example/p%02d" % i for i in range(n)]
                + ["http://cold.example/x"]),
        "priority": pa.array([i % 3 for i in range(n)] + [0], type=pa.int64()),
        "seq": pa.array(list(range(n)) + [999], type=pa.int64()),
        "payload_key": pa.array([""] * (n + 1), type=pa.string()),
        "depth": pa.array([0] * (n + 1), type=pa.int64()),
    })
    out = offer_batch(batch, host_actors, top_per_host=5)
    assert out["offered"][0].as_py() == 6  # 5 hot + 1 cold
    admitted = ray.get(host_actors[0].admit.remote())
    hot = [u for u in admitted["url"] if "hot" in u]
    # the kept 5 are the best (priority, seq): priorities 0 come first
    assert len(hot) == 5
    assert hot[0] == "http://hot.example/p00"
    assert "http://cold.example/x" in admitted["url"]
    release_actors(lease)


def _records_by_uri(root):
    """target_uri -> (image_id, payload_digest, fmt, caption) over every
    checkpointed records part."""
    out = {}
    for g in CrawlCheckpoint(root).complete_generations():
        d = os.path.join(root, "gen=%05d" % g, "records")
        if os.path.isdir(d):
            for f in sorted(os.listdir(d)):
                t = pq.read_table(os.path.join(d, f), columns=[
                    "target_uri", "image_id", "payload_digest", "fmt", "caption"])
                for uri, *rest in zip(*(c.to_pylist() for c in t.columns)):
                    assert uri not in out
                    out[uri] = tuple(rest)
    return out


def _assert_payloads_match_corpus(records, corpus):
    from warcit_ray.functions.digests import sha1_b32

    want = {r["image_id"]: (sha1_b32(r["bytes"]), r["fmt"], r["caption"])
            for r in corpus.to_pylist()}
    assert records
    for image_id, digest, fmt, caption in records.values():
        assert (digest, fmt, caption) == want[image_id]


def test_partitioned_corpus_equivalent(corpus, tmp_path):
    """One bucket (P = 1) and five object-store buckets must produce the
    identical crawl, down to every record's payload digest, fmt and
    caption."""
    graph = WebGraph(N)
    kw = dict(n_seeds=6, max_generations=10, num_seen_shards=2,
              num_host_shards=2, clock_iso=CLOCK, seen_fp_bits=32,
              track_visits=True)
    one = crawl(corpus, graph=graph, corpus_partitions=1,
                checkpoint_dir=str(tmp_path / "p1"), **kw)
    parts = crawl(corpus, graph=graph, corpus_partitions=5,
                  checkpoint_dir=str(tmp_path / "p5"), **kw)
    assert sorted(one["visit_log"]) == sorted(parts["visit_log"])
    assert one["admitted"] == parts["admitted"]
    assert one["seen"] == parts["seen"]
    recs = _records_by_uri(str(tmp_path / "p1"))
    assert recs == _records_by_uri(str(tmp_path / "p5"))
    assert len(recs) == one["admitted"]
    _assert_payloads_match_corpus(recs, corpus)


def test_bucket_lookup_matches_dict(corpus, ray_session):
    import ray

    from warcit_ray.pipelines.crawl import CorpusLookup, _bucket_tables

    full = {r["image_id"]: (r["bytes"], r["fmt"], r["caption"])
            for r in corpus.to_pylist()}
    lookup = CorpusLookup([ray.put(t) for t in _bucket_tables(corpus, 7)])
    keys = list(full)[:40] + ["img-nonexistent"]
    assert lookup.rows(keys, ("", "", "")) == [full[k] for k in keys[:-1]] + [("", "", "")]


def test_checkpointed_resume_dataset_tier(wide_full, tmp_path):
    """Resume is bit-identical on a crawl whose generations span several
    records parts, and the checkpoint keeps no next frontier (the wave
    offered every link)."""
    ck_part = str(tmp_path / "part")
    _wide_crawl(checkpoint_dir=ck_part, stop_after_generation=1)
    assert _next_frontier_paths(ck_part) == []
    resumed = _wide_crawl(checkpoint_dir=ck_part, resume=True)
    assert all(g > 1 for g, _, _ in resumed["visit_log"])
    assert CrawlCheckpoint(ck_part).complete_generations() == \
        CrawlCheckpoint(wide_full).complete_generations()
    assert max(len(_parts(ck_part, g)) for g in range(2, 4)) > 1
    a, b = _load_records(wide_full), _load_records(ck_part)
    assert len(a) == len(b) and a == b


def test_resume_clears_stale_records_tmp(wide_full, tmp_path):
    """A crashed attempt's part left in records.tmp/ (no manifest) never
    reaches records/: the rerun starts from an empty records.tmp/ and
    writes one part per slice of its own."""
    ck = str(tmp_path / "ck")
    _wide_crawl(checkpoint_dir=ck, stop_after_generation=1)
    cp = CrawlCheckpoint(ck)
    stale_dir = os.path.join(cp.gen_dir(2), "records.tmp")
    os.makedirs(stale_dir)
    shutil.copy(os.path.join(cp.gen_dir(1), "records", _parts(ck, 1)[0]),
                os.path.join(stale_dir, "part-999999.parquet"))
    _wide_crawl(checkpoint_dir=ck, resume=True)
    assert not os.path.exists(stale_dir)
    assert _parts(ck, 2) == _parts(wide_full, 2) == [
        "part-%06d.parquet" % i for i in range(len(_parts(ck, 2)))]
    assert _load_records(ck) == _load_records(wide_full)


def test_fragment_corpus_equivalent(corpus, tmp_path):
    """Fragment-backed corpus (on-disk parquet buckets, no driver-held
    table, no ray.put) must produce the identical crawl, down to every
    record's payload digest, fmt and caption."""
    graph = WebGraph(N)
    kw = dict(n_seeds=6, max_generations=10, num_seen_shards=2,
              num_host_shards=2, clock_iso=CLOCK, seen_fp_bits=32,
              track_visits=True)
    one = crawl(corpus, graph=graph, corpus_partitions=1,
                checkpoint_dir=str(tmp_path / "p1"), **kw)
    frag = crawl(corpus, graph=graph,
                 corpus_fragments_dir=str(tmp_path / "frags"),
                 corpus_partitions=5, checkpoint_dir=str(tmp_path / "fr"), **kw)
    assert sorted(one["visit_log"]) == sorted(frag["visit_log"])
    assert one["admitted"] == frag["admitted"]
    assert one["seen"] == frag["seen"]
    recs = _records_by_uri(str(tmp_path / "fr"))
    assert recs == _records_by_uri(str(tmp_path / "p1"))
    _assert_payloads_match_corpus(recs, corpus)


def test_fragment_lookup_matches_dict(corpus, tmp_path, ray_session):
    import ray.data as rd

    from warcit_ray.pipelines.crawl import write_corpus_fragments

    full = {r["image_id"]: (r["bytes"], r["fmt"], r["caption"])
            for r in corpus.to_pylist()}
    keys = list(full)[:40]
    # table write path
    ref = write_corpus_fragments(corpus, str(tmp_path / "t"), 7)
    assert ref.rows(keys, None) == [full[k] for k in keys]
    assert ref.rows(["img-nonexistent"], ("", "", "")) == [("", "", "")]
    # Dataset write path (distributed bucket write) -> same layout
    ref2 = write_corpus_fragments(rd.from_arrow(corpus), str(tmp_path / "d"), 7)
    assert ref2.rows(keys, None) == [full[k] for k in keys]
    # idempotent reuse of an existing layout (each call carries its own
    # fresh registry actor; the layout identity is dir + P)
    ref3 = write_corpus_fragments(corpus, str(tmp_path / "t"), 7)
    assert ref3.sources == ref.sources
    assert ref3.reg is not None
    with pytest.raises(ValueError):
        write_corpus_fragments(corpus, str(tmp_path / "t"), 9)
    # a DIFFERENT corpus must not silently reuse the stale fragments
    with pytest.raises(ValueError, match="stale"):
        write_corpus_fragments(make_image_table(N + 5), str(tmp_path / "t"), 7)


def test_fragment_manifest_pins_bucket_hash(corpus, tmp_path, ray_session):
    """A layout whose manifest names no bucket hash (written before the
    hash was pinned) or another hash raises instead of being misread."""
    import json

    from warcit_ray.pipelines.crawl import write_corpus_fragments

    d = str(tmp_path / "t")
    write_corpus_fragments(corpus, d, 7)
    meta_path = os.path.join(d, "_corpus.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    for manifest in ({"num_buckets": 7},
                     {k: v for k, v in meta.items() if k != "hash"},
                     dict(meta, hash="blake2b-32")):
        with open(meta_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="bucketed by hash") as err:
            write_corpus_fragments(corpus, d, 7)
        assert d in str(err.value)


def test_fragments_dir_refuses_foreign_files(corpus, tmp_path, ray_session):
    """A manifest-less fragments dir is populated only when it holds
    nothing but bucket files and .tmp leftovers; anything else raises
    and every file stays."""
    from warcit_ray.pipelines.crawl import write_corpus_fragments

    d = tmp_path / "mixed"
    d.mkdir()
    (d / "notes.txt").write_text("keep me")
    (d / "bucket-00000.parquet").write_bytes(b"stale")
    with pytest.raises(ValueError, match="notes.txt"):
        write_corpus_fragments(corpus, str(d), 7)
    assert sorted(os.listdir(d)) == ["bucket-00000.parquet", "notes.txt"]
    assert (d / "notes.txt").read_text() == "keep me"
    # a crashed population of ours is cleared and rewritten
    (d / "notes.txt").unlink()
    (d / "bucket-00003.parquet.tmp").write_bytes(b"partial")
    ref = write_corpus_fragments(corpus, str(d), 7)
    assert not (d / "bucket-00003.parquet.tmp").exists()
    key = corpus.column("image_id")[0].as_py()
    assert ref.rows([key], None)[0][0] == corpus.column("bytes")[0].as_py()


def test_corpus_cache_lru():
    """ADVICE r2: eviction removes only the LRU entry, never the whole
    cache — a recently-touched (e.g. broadcast) entry survives misses."""
    from warcit_ray.pipelines import crawl as c

    saved, saved_max = dict(c._CORPUS_CACHE), c._CORPUS_CACHE_MAX
    try:
        c._CORPUS_CACHE.clear()
        c._CORPUS_CACHE_MAX = 3
        builds = []
        for k in "abc":
            c._cache_get(k, lambda k=k: builds.append(k) or k.upper())
        assert c._cache_get("a", lambda: "REBUILT") == "A"  # hit -> MRU
        c._cache_get("d", lambda: "D")  # evicts only LRU ('b')
        assert set(c._CORPUS_CACHE) == {"c", "a", "d"}
        assert c._cache_get("a", lambda: "REBUILT") == "A"
        assert c._cache_get("b", lambda: "B2") == "B2"  # b was evicted
    finally:
        c._CORPUS_CACHE.clear()
        c._CORPUS_CACHE.update(saved)
        c._CORPUS_CACHE_MAX = saved_max


def test_ref_tier_promotion_to_dataset_equivalent(wide_full):
    """A generation of more than 256 admits writes one records part per
    256-row slice, and its parts, in sorted name order, hold exactly
    the generation's admitted rows in dispatch order."""
    import pyarrow as pa

    cp = CrawlCheckpoint(wide_full)
    wide = 0
    for g in cp.complete_generations():
        admitted = pq.read_table(os.path.join(cp.gen_dir(g), "admitted.parquet"))
        if admitted.num_rows <= 256:
            continue
        wide += 1
        parts = _parts(wide_full, g)
        assert len(parts) == -(-admitted.num_rows // 256)
        rec = pa.concat_tables(pq.read_table(os.path.join(cp.gen_dir(g), "records", f))
                               for f in parts)
        assert rec.column("target_uri").to_pylist() == admitted.column("url").to_pylist()
        for c in ("generation", "host", "seq"):
            assert rec.column(c).to_pylist() == admitted.column(c).to_pylist(), c
    assert wide >= 2


def test_surt_host_batch_parity():
    """Vectorized host extraction (offer_batch hot path) is semantically
    identical to the scalar surt_host on every URL shape."""
    import pyarrow as pa

    from warcit_ray.functions.urls import surt_host, surt_host_batch

    urls = [
        "http://h01.example/page/1",
        "https://WWW.Example.COM/a/b",
        "http://host.example",                 # no path
        "http://host.example:8080/x",          # port -> fallback
        "http://user:pw@host.example/x",       # userinfo -> fallback
        "http://[2001:db8::1]/x",              # IPv6 -> fallback
        "http://host_name.example/x",          # underscore -> fallback
        "http://host.example./x",              # trailing dot
        "file:///tmp/some/file.txt",
        "zip://arch.zip!member/path",
        "ftp://odd.example/x",
        "not a url at all",
        "",
    ]
    got = surt_host_batch(pa.array(urls, type=pa.string()))
    want = [surt_host(u) for u in urls]
    assert list(got) == want


def test_resume_bit_identical_under_eviction_pressure(corpus, tmp_path):
    """VERDICT r4 #9: an entry evicted by max_pending is gone from the
    checkpointed frontier too — the invariant is that a stopped+resumed
    crawl evicts EXACTLY as an uninterrupted one (max_pending now rides
    in the host-shard checkpoint), so the record sets are bit-identical
    even when eviction is actively firing."""
    graph = WebGraph(N)
    kw = dict(n_seeds=6, max_generations=12, num_seen_shards=2,
              num_host_shards=2, clock_iso=CLOCK, seen_fp_bits=32,
              max_pending_per_host=2)  # tiny cap -> constant eviction
    ck_full = str(tmp_path / "full")
    full = crawl(corpus, graph=graph, checkpoint_dir=ck_full, **kw)
    assert full["evicted"] > 0  # the pressure is real

    ck_part = str(tmp_path / "part")
    crawl(corpus, graph=graph, checkpoint_dir=ck_part,
          stop_after_generation=3, **kw)
    resumed = crawl(corpus, graph=graph, checkpoint_dir=ck_part,
                    resume=True, **kw)
    assert resumed["evicted"] >= 0
    assert resumed["plane"]["spawned"] == 0  # restored into pooled actors

    def load_all(root):
        out = []
        for g in CrawlCheckpoint(root).complete_generations():
            d = os.path.join(root, "gen=%05d" % g, "records")
            if os.path.isdir(d):
                for f in sorted(os.listdir(d)):
                    out.extend(pq.read_table(os.path.join(d, f)).to_pylist())
        return sorted(out, key=lambda r: (r["generation"], r["host"], r["seq"]))

    a, b = load_all(ck_full), load_all(ck_part)
    assert len(a) == len(b) and len(a) > 0
    for ra, rb in zip(a, b):
        assert ra == rb


def test_fragment_registry_single_decode(corpus, tmp_path, ray_session):
    """The registry hands every caller the SAME plasma ref per bucket:
    one decode per cluster, zero per-worker duplicate builds."""
    import ray

    from warcit_ray.pipelines.crawl import _ArrowRows, write_corpus_fragments

    ref = write_corpus_fragments(corpus, str(tmp_path / "t"), 5)
    path = os.path.join(str(tmp_path / "t"), "bucket-00002.parquet")
    assert ref.sources[2] == path
    r1 = ray.get(ref.reg.get_or_build.remote(path))
    r2 = ray.get(ref.reg.get_or_build.remote(path))
    assert r1 == r2  # same ObjectRef -> the decode ran once
    rows = _ArrowRows(ray.get(r1))
    want = {r["image_id"]: (r["bytes"], r["fmt"], r["caption"])
            for r in pq.read_table(path).to_pylist()}
    assert want
    for k, v in list(want.items())[:10]:
        assert rows.get(k, None) == v
    # a bucket no key hashed to resolves to an empty table
    missing = ray.get(ray.get(ref.reg.get_or_build.remote(
        os.path.join(str(tmp_path / "t"), "bucket-99999.parquet"))))
    assert missing.num_rows == 0


def test_fetch_affinity_dispatch_equivalent(corpus, tmp_path):
    """Bucket-affine dispatch (sorted + segment-sliced fetch tasks) must
    not change WHAT is crawled — only which task fetches which row."""
    graph = WebGraph(N)
    kw = dict(n_seeds=6, max_generations=10, num_seen_shards=2,
              num_host_shards=2, clock_iso=CLOCK, seen_fp_bits=32,
              track_visits=True, corpus_partitions=5)
    # one constant bucket id: unsorted dispatch, one segment
    base = crawl(corpus, graph=graph, checkpoint_dir=str(tmp_path / "base"),
                 fetch_affinity_fn=lambda t: np.zeros(t.num_rows, dtype=np.int64),
                 **kw)
    # default: crawl() wires corpus_affinity_fn over the 5 buckets
    aff = crawl(corpus, graph=graph, checkpoint_dir=str(tmp_path / "aff"), **kw)
    assert sorted(base["visit_log"]) == sorted(aff["visit_log"])
    assert base["admitted"] == aff["admitted"]
    assert base["seen"] == aff["seen"]
    recs = _records_by_uri(str(tmp_path / "aff"))
    assert recs == _records_by_uri(str(tmp_path / "base"))
    _assert_payloads_match_corpus(recs, corpus)


# --- the state plane: shard actors leased from a per-session pool ----------

@pytest.fixture()
def leases(monkeypatch):
    """Every ShardLease crawl() takes, in order."""
    from warcit_ray.state import shards

    got = []
    make = shards.make_actors

    def recording(*a, **k):
        got.append(make(*a, **k))
        return got[-1]

    monkeypatch.setattr(shards, "make_actors", recording)
    return got


def _fetch_failing_after_gen0(batch, graph, clock_iso):
    from warcit_ray.pipelines.crawl import light_fetch_batch

    if max(batch.column("generation").to_pylist()) >= 1:
        raise RuntimeError("fetch failed in generation 1")
    return light_fetch_batch(batch, graph, clock_iso)


def _light_crawl(graph, fetch_fn=None, **kw):
    """crawl() on the payload-light fetcher, which takes a robots map."""
    import functools

    from warcit_ray.pipelines.crawl import (explode_links, light_fetch_batch,
                                            seeds_table)

    return crawl(fetch_fn=fetch_fn or light_fetch_batch, fetch_args=(graph, CLOCK),
                 explode_fn=functools.partial(explode_links, graph=graph),
                 seeds=seeds_table(graph, 6), num_seen_shards=2, num_host_shards=2,
                 seen_capacity=4 * N, clock_iso=CLOCK, max_generations=30,
                 track_visits=True, **kw)


# 13 hosts at capacity 64 admit up to 832 rows a generation: the fetch
# wave spans several 256-row slices
WIDE = WebGraph(2000, n_hosts=13, fanout=4, private_every=0)


def _wide_crawl(fetch_fn=None, explode_fn=None, **kw):
    """A 4-generation payload-light crawl of :data:`WIDE` from 600 seeds."""
    import functools

    from warcit_ray.pipelines.crawl import (explode_links, light_fetch_batch,
                                            seeds_table)

    return crawl(fetch_fn=fetch_fn or light_fetch_batch, fetch_args=(WIDE, CLOCK),
                 explode_fn=explode_fn or functools.partial(explode_links, graph=WIDE),
                 seeds=seeds_table(WIDE, 600), robots_map=WIDE.robots_map(),
                 num_seen_shards=2, num_host_shards=2, seen_capacity=4 * WIDE.n,
                 rate=64.0, capacity=64.0, clock_iso=CLOCK, seen_fp_bits=32,
                 max_generations=4, track_visits=True, **kw)


@pytest.fixture(scope="module")
def wide_full(tmp_path_factory):
    """The checkpoint of an uninterrupted :func:`_wide_crawl`."""
    ck = str(tmp_path_factory.mktemp("wide") / "full")
    _wide_crawl(checkpoint_dir=ck)
    return ck


def _parts(root, g):
    """Generation ``g``'s records part names, sorted."""
    return sorted(os.listdir(os.path.join(CrawlCheckpoint(root).gen_dir(g), "records")))


def _fetch_failing_last_slice(batch, graph, clock_iso):
    """Raises on the short last slice of a wave; the full slices are
    slow and then succeed."""
    import time

    from warcit_ray.pipelines.crawl import light_fetch_batch

    if batch.num_rows < 256:
        raise RuntimeError("fetch failed on the last slice")
    time.sleep(3)
    return light_fetch_batch(batch, graph, clock_iso)


def _no_links(records):
    from warcit_ray.pipelines.crawl import FRONTIER_SCHEMA

    return FRONTIER_SCHEMA.empty_table()


def test_failed_wave_leaves_no_writer(tmp_path):
    """A wave whose one slice raises cancels and awaits its other tasks
    before crawl() raises: no records part appears afterwards. The
    other slices find no links, so they would reach their write
    without any call to the (killed) shard actors."""
    import time

    ck = str(tmp_path / "ck")
    with pytest.raises(RuntimeError, match="last slice"):
        _wide_crawl(fetch_fn=_fetch_failing_last_slice, explode_fn=_no_links,
                    checkpoint_dir=ck)
    tmp = os.path.join(CrawlCheckpoint(ck).gen_dir(0), "records.tmp")
    before = sorted(os.listdir(tmp))
    time.sleep(5)
    assert sorted(os.listdir(tmp)) == before


def test_failed_crawl_kills_its_actors(corpus, leases):
    """A crawl that raises kills the actors it leased instead of leaving
    them alive or pooling them; the next crawl still matches the oracle."""
    import ray
    from ray.exceptions import RayActorError

    graph = WebGraph(N)
    with pytest.raises(RuntimeError, match="generation 1"):
        _light_crawl(graph, fetch_fn=_fetch_failing_after_gen0,
                     robots_map=graph.robots_map())
    dead = list(leases[0][0]) + list(leases[0][1])
    assert len(dead) == 4
    for a in dead:
        with pytest.raises(RayActorError):
            ray.get(a.__ray_ready__.remote(), timeout=30)

    kw = dict(n_seeds=6, max_generations=30, rate=1.0, capacity=2.0)
    res = crawl(corpus, graph=graph, num_seen_shards=2, num_host_shards=2,
                clock_iso=CLOCK, seen_fp_bits=32, track_visits=True, **kw)
    assert not set(leases[1].seen + leases[1].host) & set(dead)
    _assert_matches_oracle(res, serial_oracle(graph, **kw), num_seen_shards=2)


def test_pooled_actors_reset_to_fresh_state(monkeypatch, leases):
    """Back-to-back crawls with different fingerprint widths, politeness
    and robots maps reuse the same actors, and each equals a crawl on
    freshly spawned actors."""
    from warcit_ray.state import shards

    graph = WebGraph(N)
    a_kw = dict(seen_fp_bits=32, rate=1.0, capacity=2.0,
                robots_map=graph.robots_map())
    b_kw = dict(seen_fp_bits=16, rate=2.0, capacity=3.0, robots_map={},
                max_pending_per_host=2)
    fresh = []
    for kw in (a_kw, b_kw):
        monkeypatch.setattr(shards, "_POOL", (None, {}))  # nothing to reuse
        fresh.append(_light_crawl(graph, **kw))
        assert fresh[-1]["plane"]["spawned"] == 4
    reused = [_light_crawl(graph, **kw) for kw in (a_kw, b_kw)]
    ids = [set(lease.seen + lease.host) for lease in leases[2:]]
    assert ids[0] == ids[1] == set(leases[1].seen + leases[1].host)
    for f, r in zip(fresh, reused):
        assert r["plane"]["reused"] == 4 and r["plane"]["spawned"] == 0
        for k in ("visit_log", "gen_admits", "seen", "robots_blocked", "evicted"):
            assert r[k] == f[k], k
    assert reused[0]["robots_blocked"] > 0 and reused[1]["evicted"] > 0


def test_dead_pooled_actor_is_replaced(corpus, leases):
    import ray

    graph = WebGraph(N)
    kw = dict(n_seeds=6, max_generations=30, rate=1.0, capacity=2.0)
    oracle = serial_oracle(graph, **kw)
    for i in range(2):
        res = crawl(corpus, graph=graph, num_seen_shards=2, num_host_shards=2,
                    clock_iso=CLOCK, seen_fp_bits=32, track_visits=True, **kw)
        _assert_matches_oracle(res, oracle, num_seen_shards=2)
        if i == 0:
            victim = leases[0].host[1]
            ray.kill(victim)
    assert (res["plane"]["reused"], res["plane"]["spawned"]) == (3, 1)
    assert victim not in leases[1].host
    assert set(leases[1].seen) == set(leases[0].seen)


def test_shard_actors_reserve_no_cpu():
    import time

    import ray

    from warcit_ray.state.shards import make_actors, release_actors

    total = ray.cluster_resources()["CPU"]
    lease = make_actors(2, 2)
    try:
        # the resource view lags task ends and placements: wait for the
        # earlier tests' tasks to hand their CPUs back
        deadline = time.monotonic() + 10
        while (ray.available_resources().get("CPU") != total
               and time.monotonic() < deadline):
            time.sleep(0.1)
        assert ray.available_resources().get("CPU") == total
    finally:
        release_actors(lease)


def test_pool_never_crosses_sessions(monkeypatch):
    """An idle handle pooled under another session key is never leased."""
    from warcit_ray.state import shards

    stale = object()  # leasing it would fail on stale.reset
    monkeypatch.setattr(shards, "_POOL", (("old-job", "old-node"),
                                          {shards.SeenShardState: [stale],
                                           shards.HostShardState: []}))
    lease = shards.make_actors(1, 0)
    assert lease.spawned == 1 and lease.seen[0] is not stale
    shards.release_actors(lease)


def test_pool_leases_each_actor_once_under_threads(monkeypatch):
    """More leasing threads than CPUs, with a short switch interval: no
    actor is ever held by two leases at once, and every actor returns
    to the pool exactly once."""
    import sys
    import threading

    import ray

    from warcit_ray.state import shards

    monkeypatch.setattr(shards, "_POOL", (None, {}))
    held, errors, guard = set(), [], threading.Lock()

    def worker():
        try:
            for _ in range(4):
                lease = shards.make_actors(1, 0)
                with guard:
                    assert lease.seen[0] not in held
                    held.add(lease.seen[0])
                assert ray.get(lease.seen[0].count.remote()) == 0
                with guard:
                    held.discard(lease.seen[0])
                shards.release_actors(lease)
        except BaseException as e:  # surfaced by the assertion below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    idle = shards._POOL[1][shards.SeenShardState]
    assert len(idle) == len(set(idle)) <= 6
