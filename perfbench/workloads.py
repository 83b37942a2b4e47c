"""The four benchmark workloads: seeded input generators, the engine call
each job makes, and the output checks.

Every workload takes a seed and a size dict; the engine receives only
the generated inputs. ``run_job`` is the timed call. ``check`` is
untimed: it turns the job's output into a :class:`JobResult` whose
``failed`` counts items that are wrong or missing. ``item`` names what
``items_per_s`` counts, and ``job_s`` is the nominal length of one warm
full-size job on a 4-CPU machine, which fixes how many jobs fill a run.
"""

from __future__ import annotations

import base64
import collections
import functools
import glob
import hashlib
import os
import shutil
import zipfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CLOCK = "2026-01-01T00:00:00Z"

# Shapes per workload: "full" is what a timed run measures, "smoke" is a
# seconds-long shape the smoke mode uses to run every check once.
SIZES = {
    "frontier": {
        "full": {"n": 16000, "hosts": 1997, "seeds": 256},
        "smoke": {"n": 600, "hosts": 61, "seeds": 16},
    },
    "image_crawl": {
        "full": {"n": 6000, "hosts": 97, "seeds": 64},
        "smoke": {"n": 400, "hosts": 13, "seeds": 8},
    },
    "warc_convert": {
        "full": {"files": 320, "zip_files": 80, "dirs": 30},
        "smoke": {"files": 60, "zip_files": 20, "dirs": 6},
    },
    "near_dup": {
        "full": {"base": 1000, "copies": 20, "planted": 200},
        "smoke": {"base": 250, "copies": 2, "planted": 200},
    },
}

NUM_BANDS = 16  # minhash_lsh_dedup default, used to force the large tier


class JobResult:
    def __init__(self, items: int, failed: int, info: dict | None = None):
        self.items = items
        self.failed = failed
        self.info = info or {}


def sha1_b32_ref(payload: bytes) -> str:
    """Independent WARC payload digest, to check the engine's digests."""
    return "sha1:" + base64.b32encode(hashlib.sha1(payload).digest()).decode()


# ---------------------------------------------------------------------------
# crawls
# ---------------------------------------------------------------------------

def seeds_for(graph, idxs) -> pa.Table:
    from warcit_ray.pipelines.crawl import FRONTIER_SCHEMA

    idxs = [int(i) for i in idxs]
    return pa.table({
        "url": [graph.url(i) for i in idxs],
        "priority": pa.array([graph.priority(i) for i in idxs], type=pa.int64()),
        "seq": pa.array(idxs, type=pa.int64()),
        "payload_key": ["img%08d" % i for i in idxs],
        "depth": pa.array(np.zeros(len(idxs), dtype=np.int64)),
    }, schema=FRONTIER_SCHEMA)


def bfs_oracle(graph, seed_idxs) -> set:
    """URLs a drained crawl must admit: BFS from the seeds, where only a
    robots-allowed page is fetched and so has its links followed."""
    from warcit_ray.state.robots import allowed

    robots = graph.robots_map()

    def ok(i: int) -> bool:
        return allowed(graph.url(i), robots.get(graph.host(i), ()))

    seen = set(int(i) for i in seed_idxs)
    queue = collections.deque(i for i in seen if ok(i))
    admitted = set(queue)
    while queue:
        i = queue.popleft()
        for url in graph.links(i):
            j = graph.idx_of(url)
            if j not in seen:
                seen.add(j)
                if ok(j):
                    admitted.add(j)
                    queue.append(j)
    return {graph.url(i) for i in admitted}


class _Crawl:
    """Shared crawl checks: each admitted URL once, every one in the BFS
    oracle, every oracle URL admitted except cuckoo false-positive skips."""

    item = "urls"
    max_generations = 100

    def __init__(self, seed: int, size: dict, workdir: str, shards: tuple):
        self.size = size
        self.workdir = workdir
        self.num_seen, self.num_host = shards
        self.rng = np.random.default_rng(seed)

    def _pick_seeds(self, n: int):
        idxs = self.rng.choice(n, size=self.size["seeds"], replace=False)
        self.seeds = seeds_for(self.graph, idxs)
        self.oracle = bfs_oracle(self.graph, idxs)

    def expected_items(self) -> int:
        return len(self.oracle)

    def fp_allowance(self) -> int:
        # 16-bit cuckoo fingerprints: ~1.2e-4 of probes are false
        # positives; more missing URLs than this is a bug, not chance
        return max(3, len(self.oracle) // 1000)

    def _check_admitted(self, urls: list, res: dict) -> tuple[int, dict]:
        counts = collections.Counter(urls)
        dupes = sum(c - 1 for c in counts.values())
        unexpected = sum(1 for u in counts if u not in self.oracle)
        missing = len(self.oracle) - (len(counts) - unexpected)
        drained = res["generations"] < self.max_generations
        fp_skips = missing if drained and missing <= self.fp_allowance() else 0
        failed = dupes + unexpected + (missing - fp_skips)
        info = {
            "fp_skips": fp_skips,
            "generations": res["generations"],
            "robots_blocked": res.get("robots_blocked", 0),
            "evicted": res.get("evicted", 0),
            "admitted": res["admitted"],
            "offered": res["offered"],
            "shard_cpus": 0.25 * (self.num_seen + self.num_host),
        }
        info.update(("phase.%s_s" % k, v) for k, v in res["phase_times"].items())
        return failed, info


class Frontier(_Crawl):
    """Payload-light crawl of a ~2k-host web graph: the seen set and the
    host shards do almost all the work."""

    job_s = 4.5

    def __init__(self, seed, size, workdir, shards):
        super().__init__(seed, size, workdir, shards)
        from warcit_ray.pipelines.crawl import WebGraph

        self.graph = WebGraph(size["n"], n_hosts=size["hosts"], fanout=8,
                              private_every=0)
        self._pick_seeds(size["n"])

    def setup(self, k: int) -> dict:
        return {}

    def run_job(self, j: int):
        from warcit_ray.pipelines.crawl import (crawl, explode_links,
                                                light_fetch_batch)

        return crawl(
            fetch_fn=light_fetch_batch, fetch_args=(self.graph, CLOCK),
            explode_fn=functools.partial(explode_links, graph=self.graph),
            seeds=self.seeds, robots_map=self.graph.robots_map(),
            rate=64.0, capacity=128.0, max_generations=self.max_generations,
            num_seen_shards=self.num_seen, num_host_shards=self.num_host,
            clock_iso=CLOCK, batch_size=32768,
            small_frontier_threshold=8192, small_admit_threshold=262144,
            track_visits=True,
        )

    def check(self, res) -> JobResult:
        from warcit_ray.pipelines.crawl import light_fetch_batch

        visits = res["visit_log"]
        urls = [u for _g, _h, u in visits]
        failed, info = self._check_admitted(urls, res)
        # re-fetch the admitted URLs with the job's fetch function and
        # check every record against an independent digest
        table = pa.table({
            "generation": pa.array([g for g, _h, _u in visits], type=pa.int64()),
            "seq": pa.array([self.graph.idx_of(u) for u in urls], type=pa.int64()),
            "host": [h for _g, h, _u in visits],
            "url": urls,
        })
        recs = light_fetch_batch(table, self.graph, CLOCK)
        for uri, payload, digest in zip(recs.column("target_uri").to_pylist(),
                                        recs.column("payload").to_pylist(),
                                        recs.column("payload_digest").to_pylist()):
            if payload != uri.encode() or digest != sha1_b32_ref(payload):
                failed += 1
        return JobResult(len(urls), failed, info)

    def cleanup(self, j: int) -> None:
        pass


class ImageCrawl(_Crawl):
    """Image-corpus crawl with fragment-backed corpus, checkpoints and
    robots-blocked /private/ pages: fetch, SHA-1 and checkpoint writes
    dominate and the frontier is small."""

    job_s = 3.3
    num_buckets = 8

    def __init__(self, seed, size, workdir, shards):
        super().__init__(seed, size, workdir, shards)
        from warcit_ray.codecs import ALL_FMTS
        from warcit_ray.pipelines.crawl import WebGraph

        n = size["n"]
        self.graph = WebGraph(n, n_hosts=size["hosts"], fanout=6)
        lens = self.rng.integers(2048, 12288, size=n)
        blob = self.rng.bytes(int(lens.sum()))
        ends = np.cumsum(lens)
        payloads = [blob[e - ln:e] for e, ln in zip(ends.tolist(), lens.tolist())]
        self.corpus = pa.table({
            "image_id": ["img%08d" % i for i in range(n)],
            "bytes": pa.array(payloads, type=pa.binary()),
            "fmt": [ALL_FMTS[i % len(ALL_FMTS)] for i in range(n)],
            "caption": ["caption %d" % i for i in range(n)],
        })
        self.payload_of = dict(zip(self.corpus.column("image_id").to_pylist(), payloads))
        self._pick_seeds(n)

    def setup(self, k: int) -> dict:
        """Engine-side ingest: bucket the corpus into on-disk fragments."""
        import time

        from warcit_ray.pipelines.crawl import write_corpus_fragments

        frags = os.path.join(self.workdir, "frags-%d" % k)
        t0 = time.perf_counter()
        self.frag_ref = write_corpus_fragments(self.corpus, frags, self.num_buckets)
        return {"ingest_s": time.perf_counter() - t0}

    def _ckpt(self, j: int) -> str:
        return os.path.join(self.workdir, "ckpt-%d" % j)

    def run_job(self, j: int):
        from warcit_ray.pipelines.crawl import (corpus_affinity_fn, crawl,
                                                explode_links, fetch_batch)

        res = crawl(
            fetch_fn=fetch_batch, fetch_args=(self.frag_ref, self.graph, CLOCK),
            explode_fn=functools.partial(explode_links, graph=self.graph),
            seeds=self.seeds, robots_map=self.graph.robots_map(),
            seen_capacity=max(4096, 4 * self.graph.n),
            fetch_affinity_fn=corpus_affinity_fn(self.graph, self.num_buckets),
            rate=16.0, capacity=32.0, max_generations=self.max_generations,
            num_seen_shards=self.num_seen, num_host_shards=self.num_host,
            clock_iso=CLOCK, checkpoint_dir=self._ckpt(j), batch_size=16384,
            small_frontier_threshold=8192, small_admit_threshold=262144,
        )
        res["checkpoint_dir"] = self._ckpt(j)
        return res

    def check(self, res) -> JobResult:
        gens = sorted(glob.glob(os.path.join(res["checkpoint_dir"], "gen=*")))
        urls: list = []
        records: dict = collections.defaultdict(list)
        for d in gens:
            urls += pq.read_table(os.path.join(d, "admitted.parquet"),
                                  columns=["url"]).column("url").to_pylist()
            rec_dir = os.path.join(d, "records")
            if not os.path.isdir(rec_dir):
                continue
            t = pq.read_table(rec_dir, columns=["target_uri", "image_id",
                                                "payload", "payload_digest"])
            for uri, iid, payload, digest in zip(*(t.column(c).to_pylist()
                                                   for c in t.column_names)):
                records[uri].append((iid, payload, digest))
        failed, info = self._check_admitted(urls, res)
        for uri in set(urls):
            recs = records.get(uri, [])
            if len(recs) != 1:
                failed += 1
                continue
            iid, payload, digest = recs[0]
            if payload != self.payload_of.get(iid) or digest != sha1_b32_ref(payload):
                failed += 1
        failed += sum(1 for uri in records if uri not in self.oracle)
        return JobResult(len(urls), failed, info)

    def cleanup(self, j: int) -> None:
        shutil.rmtree(self._ckpt(j), ignore_errors=True)


# ---------------------------------------------------------------------------
# warc_convert
# ---------------------------------------------------------------------------

_WORDS = ("archive crawl record payload digest header revisit frontier host "
          "robots politeness shard bucket filter convert mime charset").split()


class WarcConvert:
    """warcit's own job: a directory tree plus a ZIP of text/html files
    (some ``index.html``, so revisits occur) -> records -> WARC parts."""

    item = "records"
    job_s = 6.0
    url_prefix = "http://bench.example/"

    def __init__(self, seed, size, workdir, shards):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.expected: dict = {}   # url -> payload bytes
        self.site = os.path.join(workdir, "site")
        names = []
        for i in range(size["files"]):
            d = "d%03d" % rng.integers(size["dirs"])
            # ~1 in 8 files is a directory index, which adds a revisit
            leaf = "index.html" if rng.random() < 0.125 else (
                "page%05d.%s" % (i, ("html", "htm", "txt", "css")[i % 4]))
            names.append("%s/%s" % (d, leaf))
        self.zip_path = os.path.join(workdir, "bundle.zip")
        zip_names = ["zip/z%03d/%s" % (rng.integers(size["dirs"]),
                                       "index.html" if rng.random() < 0.125
                                       else "item%05d.html" % i)
                     for i in range(size["zip_files"])]
        os.makedirs(self.site)
        for name in dict.fromkeys(names):
            path = os.path.join(self.site, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            body = self._page(rng)
            with open(path, "wb") as fh:
                fh.write(body)
            self.expected[self.url_prefix + name] = body
        with zipfile.ZipFile(self.zip_path, "w", zipfile.ZIP_STORED) as zf:
            for name in dict.fromkeys(zip_names):
                body = self._page(rng)
                zf.writestr(name, body)
                self.expected[self.url_prefix + name] = body
        self.revisits = sum(1 for u in self.expected if u.endswith("/index.html"))

    @staticmethod
    def _page(rng) -> bytes:
        words = [_WORDS[i] for i in rng.integers(len(_WORDS), size=int(rng.integers(150, 700)))]
        text = " ".join(words)
        if rng.random() < 0.2:  # some latin-1 pages for the charset detector
            return ("<html><body><p>caf\xe9 " + text + "</p></body></html>").encode("latin-1")
        return ("<!doctype html><html><body><p>" + text + "</p></body></html>").encode()

    def expected_items(self) -> int:
        return len(self.expected) + self.revisits + 1

    def setup(self, k: int) -> dict:
        return {}

    def _out(self, j: int) -> str:
        return os.path.join(self.workdir, "warc-%d" % j)

    def run_job(self, j: int):
        from warcit_ray.config import WarcitConfig
        from warcit_ray.pipelines.warc_build import build_warc_dataset
        from warcit_ray.sinks.warc_sink import write_warc_shards

        cfg = WarcitConfig(url_prefix=self.url_prefix,
                           inputs=[self.site, self.zip_path],
                           name="bench.warc.gz", fixed_dt="20260101000000",
                           mime_method="magic", charset="detect",
                           creation_date=CLOCK)
        return write_warc_shards(build_warc_dataset(cfg), self._out(j))

    def check(self, parts) -> JobResult:
        from warcit_ray.sinks.warc_sink import parse_warc

        recs = []
        for path in parts:
            with open(path, "rb") as fh:
                recs.extend(parse_warc(fh.read()))
        by_type = collections.defaultdict(list)
        for r in recs:
            by_type[r["headers"]["WARC-Type"]].append(r)
        failed = abs(len(by_type["warcinfo"]) - 1)
        digests = {}
        for r in by_type["resource"]:
            h = r["headers"]
            url = h["WARC-Target-URI"]
            want = self.expected.get(url)
            if want is None or r["payload"] != want or url in digests \
                    or h["WARC-Payload-Digest"] != sha1_b32_ref(r["payload"]):
                failed += 1
            digests[url] = h["WARC-Payload-Digest"]
        failed += sum(1 for u in self.expected if u not in digests)
        revisited = set()
        for r in by_type["revisit"]:
            h = r["headers"]
            src = h.get("WARC-Refers-To-Target-URI", "")
            if (not src.endswith("/index.html") or src in revisited
                    or h["WARC-Target-URI"] != src[: -len("index.html")]
                    or h["WARC-Payload-Digest"] != digests.get(src)):
                failed += 1
            revisited.add(src)
        failed += max(0, self.revisits - len(revisited))
        failed += len(recs) - sum(len(v) for k, v in by_type.items()
                                  if k in ("warcinfo", "resource", "revisit"))
        return JobResult(len(recs), failed,
                         {"records": len(recs), "parts": len(parts)})

    def cleanup(self, j: int) -> None:
        shutil.rmtree(self._out(j), ignore_errors=True)


# ---------------------------------------------------------------------------
# near_dup
# ---------------------------------------------------------------------------

class NearDup:
    """MinHash-LSH near-dup over token-shuffled copies of random documents
    plus planted near-duplicates, with the large candidate tier forced."""

    item = "docs"
    job_s = 2.5   # 4 timed jobs at --seconds 10; the median of 3 spread 0.12-0.16 over seeds

    def __init__(self, seed, size, workdir, shards):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        base, copies, planted = size["base"], size["copies"], size["planted"]
        vocab = np.array(["t%05d" % i for i in range(20000)])
        docs = [vocab[rng.integers(len(vocab), size=int(rng.integers(30, 60)))]
                for _ in range(base)]
        ids, texts = [], []
        for c in range(copies):
            for b, toks in enumerate(docs):
                ids.append(c * base + b)
                texts.append(" ".join(toks if c == 0 else rng.permutation(toks)))
        # planted near-dups: a base doc with its first token replaced
        self.planted = {}
        for p, b in enumerate(rng.choice(base, size=planted, replace=False)):
            pid = copies * base + p
            ids.append(pid)
            texts.append(" ".join(["zz%d" % p] + list(docs[b][1:])))
            self.planted[pid] = int(b)
        self.n_docs = len(ids)
        self.ids = set(ids)
        self.small_threshold = self.n_docs * NUM_BANDS - 1  # force the large tier
        self.docs_dir = os.path.join(workdir, "docs")
        os.makedirs(self.docs_dir)
        table = pa.table({"doc_id": pa.array(ids, type=pa.int64()), "text": texts})
        step = -(-self.n_docs // 4)
        for i in range(4):
            pq.write_table(table.slice(i * step, step),
                           os.path.join(self.docs_dir, "part-%d.parquet" % i))

    def expected_items(self) -> int:
        return self.n_docs

    def setup(self, k: int) -> dict:
        return {}

    def run_job(self, j: int):
        import ray.data as rd

        from warcit_ray.stages.dedup import minhash_lsh_dedup

        ds = rd.read_parquet(self.docs_dir)
        dup, _ = minhash_lsh_dedup(ds, num_bands=NUM_BANDS,
                                   small_threshold=self.small_threshold)
        return dup.to_pandas()

    def check(self, df) -> JobResult:
        # the only near-dups are the planted ones: each must map to its
        # source doc, and no other doc may be reported
        got = {}
        failed = 0
        for d, r in zip(df["doc_id"].tolist() if len(df) else [],
                        df["dup_of"].tolist() if len(df) else []):
            if d in got or r not in self.ids or self.planted.get(d) != r:
                failed += 1
            got[int(d)] = int(r)
        failed += sum(1 for d in self.planted if d not in got)
        return JobResult(self.n_docs, failed,
                         {"dups": len(got), "tier_large": 1})

    def cleanup(self, j: int) -> None:
        pass


WORKLOADS = {
    "frontier": Frontier,
    "image_crawl": ImageCrawl,
    "warc_convert": WarcConvert,
    "near_dup": NearDup,
}


def make(name: str, seed: int, shape: str, workdir: str, shards: tuple):
    return WORKLOADS[name](seed, SIZES[name][shape], workdir, shards)
