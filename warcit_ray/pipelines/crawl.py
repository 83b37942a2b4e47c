"""The crawl frontier + fetch scheduler (north rule).

Dataflow (driver loop over bounded generations — Ray Data has no
unbounded streams and none are needed, SURVEY §2.7), one phase
function each:

    _probe_offer   initial carrier only: the seed slices, or a resumed
                     checkpoint's legacy next frontier
                     -> seen_probe_batch -> offer_batch
    per generation:
    _admit         HostShard.admit_table()  # deterministic per-host pops
    _fetch         one wave of fetch_wave_batch tasks, one per slice of
                     admitted rows:
                     fetch_fn          # corpus lookup, WARC row + links
                     -> explode_fn     # links -> (url, priority, seq,
                                       #   payload_key, depth) rows
                     -> seen_probe_batch  # SURT -> hash64 -> sharded
                                          #   cuckoo add_if_absent
                     -> offer_batch       # route by hash(host) % H to
                                          #   the HostShard actors
    _checkpoint    ckpt/gen=g/{records,admitted,seen deltas,host state}

A generation is one admit plus one task wave. There is no frontier
carrier between generations: a wave task offers its links before it
returns, so they sit in the host shards' frontier tables — and in the
host-state snapshot of the generation's checkpoint — before the next
admit. The wave has one tier at every size: plain Ray tasks, one per
CPU, or a multiple of the CPU count where a slice would pass
:data:`SLICE_MAX_ROWS` rows, the rows split evenly; the admitted table
is put once per wave and the wave's constant arguments once per crawl,
so a task gets refs and its slice's bounds. When the crawl
checkpoints, each task writes its own records part into
``gen=g/records.tmp/`` after its offer returns, and
:meth:`CrawlCheckpoint.write_generation` renames the directory to
``records/``; only a small meta tuple reaches the driver, so no record
table ever passes through it or the object store. The initial carrier
runs as plain tasks too, one per ref.

State partitioning is explicit: the URL-seen set shards on
``hash64(surt(url)) % S`` (uniform), politeness shards on
``blake2(host) % H`` (politeness local to one actor per host). Skewed
hosts are handled by batch-level pre-dedup (np.unique per batch before
probing) and by the salt hook in :func:`host_shard_of` — a hot host's
probe traffic spreads across salts while its token bucket stays on one
shard. Every generation writes a lineage manifest (records partition,
seen-set deltas, host-shard snapshots) so a killed crawl resumes
bit-identically (tested in tests/test_crawl.py).

The "web" being crawled is the image+caption corpus itself
(BASELINE.json input_hint): each row is a page whose URL, host, robots
visibility, out-links and priority are pure functions of its index —
see :class:`WebGraph`. The corpus is always ``P`` hash buckets on
``image_id`` (one vectorized hash, :func:`corpus_buckets`) read through
one :class:`CorpusLookup`: an in-memory table becomes ``P`` object-store
bucket tables (``P = 1`` for a small corpus), the 100 TB path ``P``
parquet fragments whose ``_corpus.json`` pins the hash that wrote them
(:func:`write_corpus_fragments`). Fetch dispatch is bucket-affine and a
fetch task resolves only the buckets its keys hash to, so no worker
ever holds the whole corpus; ``P = 1``, ``P > 1`` and fragments are
equivalence-tested down to the payload digests
(tests/test_crawl.py::test_partitioned_corpus_equivalent).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import time
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..codecs import MIME_BY_FMT
from ..functions.digests import record_id_batch, sha1_b32_batch
from ..functions.urls import surt_batch, surt_hash64_batch, surt_host_batch
from ..stages.shuffle import bucket_shuffle
from ..state.shards import ADMIT_SCHEMA, _pylist

FRONTIER_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("priority", pa.int64()),
        pa.field("seq", pa.int64()),
        pa.field("payload_key", pa.string()),
        pa.field("depth", pa.int64()),
    ]
)


# ---------------------------------------------------------------------------
# Deterministic web graph over the corpus
# ---------------------------------------------------------------------------

class WebGraph:
    """URLs, hosts, robots, links, priorities as pure functions of the
    image index — the synthetic 'web' whose pages are the corpus rows."""

    def __init__(self, n: int, n_hosts: int = 13, fanout: int = 4,
                 private_every: int = 17):
        self.n = n
        self.n_hosts = n_hosts
        self.fanout = fanout
        self.private_every = private_every

    def host(self, idx: int) -> str:
        return "h%02d.example" % (idx % self.n_hosts)

    def path(self, idx: int) -> str:
        prefix = "private" if (self.private_every and idx % self.private_every == 0
                               and idx > 0) else "img"
        return "/%s/img%08d" % (prefix, idx)

    def url(self, idx: int) -> str:
        return "http://%s%s" % (self.host(idx), self.path(idx))

    def idx_of(self, url: str) -> int:
        return int(url.rsplit("img", 1)[-1])

    def links(self, idx: int) -> list[str]:
        return [
            self.url((idx * 31 + 7 * (j + 1) + (j + 1) * (j + 1)) % self.n)
            for j in range(self.fanout)
        ]

    def urls_batch(self, idxs: np.ndarray) -> pa.Array:
        """:meth:`url` of each index, in Arrow kernels."""
        private = ((idxs % self.private_every == 0) & (idxs > 0) if self.private_every
                   else np.zeros(len(idxs), dtype=bool))
        return pc.binary_join_element_wise(
            "http://h", _zero_padded(idxs % self.n_hosts, 2), ".example",
            pc.if_else(pa.array(private), "/private/img", "/img/img"),
            _zero_padded(idxs, 8), "")

    def links_batch(self, idxs: np.ndarray) -> pa.ListArray:
        """:meth:`links` of each index as one ``list<string>`` array:
        the targets in numpy, their URLs in :meth:`urls_batch`."""
        j = np.arange(1, self.fanout + 1, dtype=np.int64)
        targets = (np.asarray(idxs, dtype=np.int64)[:, None] * 31 + 7 * j + j * j) % self.n
        offsets = np.arange(len(idxs) + 1, dtype=np.int32) * self.fanout
        return pa.ListArray.from_arrays(pa.array(offsets),
                                        self.urls_batch(targets.ravel()))

    def idx_batch(self, urls) -> np.ndarray:
        """:meth:`idx_of` of each URL of an Arrow string array: one regex
        kernel, or the scalar method when some URL does not end in
        ``img<digits>`` (it raises as :meth:`idx_of` does)."""
        digits = pc.extract_regex(urls, r"img(?P<i>[0-9]+)$")
        if digits.null_count:
            return np.array([self.idx_of(u) for u in urls.to_pylist()], dtype=np.int64)
        return pc.cast(pc.struct_field(digits, "i"), pa.int64()).to_numpy()

    def priority(self, idx: int) -> int:
        return idx % 3

    def robots_map(self) -> dict[str, list[str]]:
        return {"h%02d.example" % i: ["/private/"] for i in range(self.n_hosts)}

    def seed_urls(self, n_seeds: int) -> list[str]:
        return [self.url(i * 7 % self.n) for i in range(n_seeds)]


def _zero_padded(ints: np.ndarray, width: int) -> pa.Array:
    """``"%0<width>d" % i`` of each non-negative int, in Arrow."""
    return pc.utf8_lpad(pc.cast(pa.array(ints, type=pa.int64()), pa.string()), width, "0")


@functools.lru_cache(maxsize=1 << 16)
def host_shard_of(host: str, num_shards: int) -> int:
    """Politeness routing: stable hash of the host, memoized per process
    (hosts repeat across every wave task's offers). The authoritative
    token bucket for a host deliberately CANNOT be salted across shards
    — politeness must be a local decision on one actor. Hot-host skew is
    handled upstream instead: batch URL dedup before probing
    (seen_probe_batch), the per-host frontier cap
    (HostShardState.max_pending), and columnar offers."""
    h = hashlib.blake2b(host.encode(), digest_size=4).digest()
    return int.from_bytes(h, "little") % num_shards


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def seen_probe_batch(batch: pa.Table, seen_actors) -> pa.Table:
    """Stateless-task stage: canonicalize -> hash -> sharded
    add_if_absent. Batch-level pre-dedup (np.unique) runs before any
    actor round-trip (skew guard: a hot URL costs one probe); per-shard
    probes go out concurrently (one ray.get on the set). Plain tasks,
    not an actor pool: there is no per-batch state to amortize, and the
    generation loop would otherwise pay actor startup every tick."""
    import ray

    if batch.num_rows == 0:
        return batch
    n = len(seen_actors)
    # dedup raw URL strings FIRST via Arrow dictionary encoding (C
    # speed; only the DISTINCT urls cross into Python), so surt+hash
    # run once per distinct URL — link batches repeat heavily at
    # fanout>1
    col = batch.column("url")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    dic = col.dictionary_encode()
    url_inverse = dic.indices.to_numpy(zero_copy_only=False)
    # vectorized SURT over the distinct URLs (Arrow kernels + per-
    # distinct-host reversal) — the scalar surt() loop was the largest
    # single cost inside the probe task
    uniq_hashes = surt_hash64_batch(surt_batch(dic.dictionary))
    hashes = uniq_hashes[url_inverse]
    # first_of[j] = index in `hashes` of the FIRST occurrence of uniq[j]
    uniq, first_of, inverse = np.unique(hashes, return_index=True,
                                        return_inverse=True)
    shard = (uniq % np.uint64(n)).astype(np.int64)
    refs, idxs = [], []
    for s in range(n):
        sel = np.nonzero(shard == s)[0]
        if len(sel):
            refs.append(seen_actors[s].add_if_absent.remote(uniq[sel]))
            idxs.append(sel)
    added_uniq = np.zeros(len(uniq), dtype=bool)
    for ref, sel in zip(ray.get(refs), idxs):
        added_uniq[sel] = ref
    # a row survives iff its hash is new AND it is the first
    # occurrence of that hash in this batch (pure mask arithmetic —
    # this stage dominates frontier wall time, no per-row Python)
    keep = added_uniq[inverse] & (np.arange(len(hashes)) == first_of[inverse])
    return batch.filter(pa.array(keep))


def offer_batch(batch: pa.Table, host_actors) -> pa.Table:
    """Stateless-task stage: route new URLs to their HostShard actors,
    each shard's rows as six Arrow arrays (no per-row Python)."""
    import ray

    if batch.num_rows == 0:
        return pa.table({"offered": pa.array([], type=pa.int64())})
    n = len(host_actors)
    hosts = surt_host_batch(batch.column("url"))
    # hosts repeat heavily in link batches: route each DISTINCT host once,
    # then all grouping is integer-code arithmetic
    dic = hosts.dictionary_encode()
    shard_of_host = np.array([host_shard_of(h, n) for h in
                              dic.dictionary.to_numpy(zero_copy_only=False)], dtype=np.int64)
    shard_codes = shard_of_host[dic.indices.to_numpy(zero_copy_only=False)]
    order = np.argsort(shard_codes, kind="stable")  # rows stay in batch order per shard
    sc = shard_codes[order]
    bounds = np.concatenate(([0], 1 + np.nonzero(sc[1:] != sc[:-1])[0], [len(sc)]))
    rows = batch.select(["url", "priority", "seq", "payload_key", "depth"]) \
        .add_column(0, "host", hosts)
    refs = [host_actors[int(sc[lo])].offer.remote(
                *rows.take(pa.array(order[lo:hi])).combine_chunks().columns)
            for lo, hi in zip(bounds[:-1], bounds[1:])]
    offered = sum(ray.get(refs))
    return pa.table({"offered": pa.array([offered], type=pa.int64())})


def probe_and_offer_batch(batch: pa.Table, seen_actors, host_actors) -> int:
    """Seen-probe + offer of frontier rows -> the offered count. The
    seen_probe_batch and offer_batch globals are looked up per call, so
    a wrapper installed on the module (a tracer) sees both."""
    fresh = seen_probe_batch(batch, seen_actors)
    if fresh.num_rows == 0:
        return 0
    return int(offer_batch(fresh, host_actors)["offered"][0].as_py())


# the wave's per-slice counters, in fetch_wave_batch's meta order
WAVE_META = ("links", "offered", "fetch_s", "explode_s", "probe_s", "offer_s")


def fetch_wave_batch(table: pa.Table, lo: int, n: int, fetch_fn, fetch_args,
                     explode_fn, seen_actors, host_actors,
                     part_path: str | None) -> tuple:
    """One generation's work after admit on one slice of admitted rows,
    ``table.slice(lo, n)``, in one task: fetch -> explode links ->
    seen-probe -> offer. The new
    links go straight into the host shards' frontiers, so no next frontier
    leaves the task. With a ``part_path`` the records, without their
    links, are written there once the offer has returned (a task whose
    offer failed writes nothing); no record leaves the task. Returns
    the meta in :data:`WAVE_META` order: link rows, offered count and
    the in-task seconds of each step."""
    t0 = time.perf_counter()
    rec = fetch_fn(table.slice(lo, n), *fetch_args)
    t1 = time.perf_counter()
    links = explode_fn(rec)
    t2 = time.perf_counter()
    fresh = seen_probe_batch(links, seen_actors)
    t3 = time.perf_counter()
    offered = (int(offer_batch(fresh, host_actors)["offered"][0].as_py())
               if fresh.num_rows else 0)
    t4 = time.perf_counter()
    if part_path is not None:
        # records are payload-dominated (already-encoded image bytes):
        # snappy costs 3.6x the write time for a 1% size win (measured
        # on a 339 MB generation) — store them raw
        pq.write_table(rec.drop_columns(["links"]), part_path, compression="NONE")
    return links.num_rows, offered, t1 - t0, t2 - t1, t3 - t2, t4 - t3


RECORD_SCHEMA = pa.schema([
    pa.field("generation", pa.int64()), pa.field("seq", pa.int64()),
    pa.field("record_type", pa.string()), pa.field("target_uri", pa.string()),
    pa.field("host", pa.string()), pa.field("warc_date", pa.string()),
    pa.field("content_type", pa.string()), pa.field("payload", pa.binary()),
    pa.field("content_length", pa.int64()), pa.field("payload_digest", pa.string()),
    pa.field("record_id", pa.string()), pa.field("image_id", pa.string()),
    pa.field("fmt", pa.string()), pa.field("caption", pa.string()),
    pa.field("links", pa.list_(pa.string())),
])


def _records(batch: pa.Table, clock_iso: str, payloads: pa.Array,
             content_types, image_ids, fmts, captions, links) -> pa.Table:
    """One fetcher's RECORD_SCHEMA table for the admitted ``batch``,
    built column by column; a ``str`` column value repeats on every row."""
    n = batch.num_rows

    def col(v):
        return pa.repeat(pa.scalar(v, type=pa.string()), n) if isinstance(v, str) else v

    urls = batch.column("url")
    seqs = batch.column("seq")
    digests = sha1_b32_batch(payloads)
    return pa.table({
        "generation": batch.column("generation"),
        "seq": seqs,
        "record_type": col("resource"),
        "target_uri": urls,
        "host": batch.column("host"),
        "warc_date": col(clock_iso),
        "content_type": col(content_types),
        "payload": payloads,
        "content_length": pc.cast(pc.binary_length(payloads), pa.int64()),
        "payload_digest": digests,
        "record_id": record_id_batch(urls, clock_iso, digests, "resource", seqs),
        "image_id": col(image_ids),
        "fmt": col(fmts),
        "caption": col(captions),
        "links": links,
    }, schema=RECORD_SCHEMA)


def light_fetch_batch(batch: pa.Table, graph: WebGraph, clock_iso: str) -> pa.Table:
    """Payload-light fetch for frontier-throughput benchmarking: the
    record payload is the URL itself (no image corpus lookup), but the
    full record/digest/link bookkeeping is identical. Used to measure
    sustained frontier URLs/sec with the seen/offer/admit machinery at
    full tilt. Column-wise: SHA-1 and uuid5 hash per row, everything
    else runs in Arrow and numpy kernels."""
    urls = batch.column("url")
    return _records(batch, clock_iso, pc.cast(urls, pa.binary()), "text/plain",
                    "", "", "", graph.links_batch(graph.idx_batch(urls)))


# worker-process cache: a corpus bucket's key index is built once per
# worker process, not once per task (bounded by entry count; one entry
# is one bucket)
_CORPUS_CACHE: dict = {}
_CORPUS_CACHE_MAX = 64


def _cache_get(key: str, build):
    """LRU: a hit moves the entry to MRU position; a miss evicts only
    the single least-recently-used entry (never the whole cache — a
    worker touching >_CORPUS_CACHE_MAX buckets would otherwise thrash
    and rebuild every bucket index per fetch task)."""
    got = _CORPUS_CACHE.pop(key, None)
    if got is None:
        while len(_CORPUS_CACHE) >= _CORPUS_CACHE_MAX:
            _CORPUS_CACHE.pop(next(iter(_CORPUS_CACHE)))
        got = build()
    _CORPUS_CACHE[key] = got
    return got


# the bucket hash by name: every fragment layout's _corpus.json records
# it, since a layout bucketed by any other hash would be misread
_CORPUS_HASH_KEY = "0123456789123456"
CORPUS_HASH = "pandas.hash_array:siphash24:key=%s:utf8" % _CORPUS_HASH_KEY


def corpus_buckets(keys, num_buckets: int) -> np.ndarray:
    """``image_id`` keys (a list, numpy or Arrow array) -> corpus bucket
    ids in ``[0, num_buckets)``: one vectorized keyed-SipHash call, the
    one bucket function every corpus writer and reader uses."""
    import pandas as pd

    if isinstance(keys, (pa.Array, pa.ChunkedArray)):
        keys = keys.to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(np.asarray(keys, dtype=object), encoding="utf8",
                           hash_key=_CORPUS_HASH_KEY, categorize=False)
    return (h % np.uint64(num_buckets)).astype(np.int64)


def corpus_affinity_fn(graph: WebGraph, num_buckets: int):
    """Admitted-table -> per-row corpus bucket ids (a :class:`WebGraph`
    URL ends in its image_id). Passed to crawl() as ``fetch_affinity_fn``
    so fetch dispatch becomes the map side of a co-partitioned join: one
    task per bucket, not every task faulting every bucket. It runs on
    the DRIVER once per generation: one Arrow regex kernel plus one
    hash call (~0.2 s for 524k rows)."""
    import pyarrow.compute as pc

    def affinity(t: pa.Table) -> np.ndarray:
        ex = pc.extract_regex(t.column("url"), r"(?P<key>img\d+)$")
        return corpus_buckets(pc.struct_field(ex, "key"), num_buckets)

    return affinity


_BUCKET_SCHEMA = pa.schema([("image_id", pa.string()), ("bytes", pa.binary()),
                            ("fmt", pa.string()), ("caption", pa.string())])


def _bucket_tables(table: pa.Table, num_buckets: int) -> list[pa.Table]:
    """The corpus columns split into their ``num_buckets`` hash buckets."""
    sub = table.select(_BUCKET_SCHEMA.names)
    bk = corpus_buckets(sub.column("image_id"), num_buckets)
    order = np.argsort(bk, kind="stable")
    bounds = np.searchsorted(bk[order], np.arange(num_buckets + 1))
    return [sub.take(pa.array(order[lo:hi]))
            for lo, hi in zip(bounds[:-1], bounds[1:])]


class _ArrowRows:
    """dict-like ``.get`` over an Arrow corpus table, lazily: building
    the lookup costs only the key column (a str -> row-index dict);
    payload bytes stay in the table's Arrow buffers until the row is
    actually fetched, so a bucket build is ~the bucket decode alone."""

    __slots__ = ("_bytes", "_fmt", "_cap", "_idx")

    def __init__(self, table: pa.Table):
        t = table.combine_chunks()
        self._bytes = t.column("bytes")
        self._fmt = t.column("fmt")
        self._cap = t.column("caption")
        self._idx = {k: i for i, k in
                     enumerate(_pylist(t.column("image_id")))}

    def get(self, key: str, default=None):
        i = self._idx.get(key)
        if i is None:
            return default
        return (self._bytes[i].as_py(), self._fmt[i].as_py(),
                self._cap[i].as_py())


class CorpusLookup:
    """The corpus as ``P`` hash buckets on ``image_id``, one source per
    bucket: the ObjectRef of an in-memory bucket table (crawl() puts
    them) or the path of a parquet fragment
    (:func:`write_corpus_fragments`), decoded once per cluster into
    plasma by the registry ``reg``. Either way a worker maps the table
    zero-copy and builds its :class:`_ArrowRows` index once. This is
    the ``corpus_ref`` :func:`fetch_batch` takes."""

    def __init__(self, sources: list, reg=None):
        self.sources = sources
        self.reg = reg

    def rows(self, keys: list[str], default) -> list:
        """Each key's ``(bytes, fmt, caption)``, or ``default`` when the
        corpus lacks it: one hash call, each distinct bucket resolved
        once."""
        bk = corpus_buckets(keys, len(self.sources))
        out = [default] * len(keys)
        for b in np.unique(bk).tolist():
            src = self.sources[b]
            index = _cache_get(src if isinstance(src, str) else src.hex(),
                               lambda src=src: self._build(src))
            for i in np.flatnonzero(bk == b).tolist():
                out[i] = index.get(keys[i], default)
        return out

    def _build(self, src) -> _ArrowRows:
        import ray

        if not isinstance(src, str):
            return _ArrowRows(ray.get(src))
        for attempt in range(2):
            ref = ray.get(self.reg.get_or_build.remote(src))
            try:
                return _ArrowRows(ray.get(ref))
            except Exception:
                if attempt:
                    raise
                # failed read task: invalidate so the registry launches
                # a fresh read, then retry once
                ray.get(self.reg.invalidate.remote(src, ref))


def _read_fragment_table(path: str) -> pa.Table:
    if not os.path.exists(path):  # a bucket no corpus key hashed to
        return _BUCKET_SCHEMA.empty_table()
    return pq.read_table(path, columns=_BUCKET_SCHEMA.names)


class _FragmentRegistry:
    """Cluster-shared index: fragment path -> plasma ObjectRef of the
    decoded bucket table. The FIRST demand for a bucket launches one
    read task (num_cpus=0 so blocked fetch tasks can't starve it);
    every later demand — any worker, any generation — gets the same ref
    and maps the table ZERO-COPY (per-worker decodes cost minutes at
    100k urls / 17 fragments). Cold buckets spill under plasma pressure
    and fault back on demand. Decorated at use site
    (``_frag_registry()``) so importing this module never needs Ray."""

    def __init__(self):
        self._refs: dict = {}
        import ray

        self._read = ray.remote(num_cpus=0)(_read_fragment_table)

    def get_or_build(self, path: str):
        ref = self._refs.get(path)
        if ref is None:
            ref = self._read.remote(path)
            self._refs[path] = ref
        return ref

    def invalidate(self, path: str, ref) -> None:
        """Drop a cached ref that resolved to an error (transient
        storage blip on the one read task) so the next demand launches
        a fresh read — without this, one failed read poisons the bucket
        for the whole crawl. Compared by identity so a racing caller
        can't evict a newer, healthy ref."""
        if self._refs.get(path) == ref:
            del self._refs[path]


def _frag_registry():
    import ray

    return ray.remote(num_cpus=0)(_FragmentRegistry).remote()


def write_corpus_fragments(corpus, out_dir: str, num_buckets: int) -> CorpusLookup:
    """Pre-bucket the corpus to on-disk Parquet fragments — the 100 TB
    corpus path: the driver never holds the corpus. Accepts a
    ``ray.data.Dataset`` (one bucket shuffle writes each bucket from a
    worker) or a ``pa.Table`` (buckets written from the caller).
    Idempotent: a layout whose ``_corpus.json`` matches (bucket hash,
    bucket count, corpus shape) is reused; any other manifest raises.
    At multi-node scale ``out_dir`` is shared storage."""
    import fnmatch

    out_dir = os.path.abspath(out_dir)
    meta_path = os.path.join(out_dir, "_corpus.json")
    # identity pin: hash, num_buckets AND the corpus shape — a layout of
    # a DIFFERENT corpus must not be silently reused (stale payload
    # bytes with no error); the id-span tightens the check for tables
    if isinstance(corpus, pa.Table):
        num_rows = corpus.num_rows
        ids = corpus.column("image_id")
        id_span = [str(pa.compute.min(ids).as_py()),
                   str(pa.compute.max(ids).as_py())] if num_rows else ["", ""]
    else:
        num_rows = corpus.count()
        id_span = None  # Dataset path: row count only (span needs a scan)
    meta = {"hash": CORPUS_HASH, "num_buckets": int(num_buckets),
            "num_rows": int(num_rows), "id_span": id_span}
    paths = [os.path.join(out_dir, "bucket-%05d.parquet" % b)
             for b in range(num_buckets)]
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            old = json.load(fh)
        if old.get("hash") != CORPUS_HASH:
            raise ValueError(
                "corpus fragments in %s were bucketed by hash %r, not %r — "
                "reading them would look rows up in the wrong buckets; "
                "repopulate a fresh directory"
                % (out_dir, old.get("hash"), CORPUS_HASH))
        comparable = dict(meta)
        if old.get("id_span") is None or meta["id_span"] is None:
            comparable["id_span"] = old.get("id_span")
        if old != comparable:
            raise ValueError(
                "existing corpus fragment layout %r does not match the "
                "offered corpus %r — refusing to reuse stale fragments; "
                "point corpus_fragments_dir at a fresh directory" % (old, meta))
        return CorpusLookup(paths, _frag_registry())
    # no manifest: only a crashed population of ours (bucket files, .tmp
    # leftovers) is cleared; anything else raises and every file stays
    os.makedirs(out_dir, exist_ok=True)
    names = os.listdir(out_dir)
    foreign = sorted(n for n in names if not (
        os.path.isfile(os.path.join(out_dir, n))
        and (fnmatch.fnmatch(n, "bucket-*.parquet") or n.endswith(".tmp"))))
    if foreign:
        raise ValueError(
            "corpus fragments dir %s has no _corpus.json and holds files "
            "the engine did not write (%s) — refusing to populate it; "
            "point corpus_fragments_dir at an empty directory"
            % (out_dir, ", ".join(foreign[:5])))
    for n in names:
        os.remove(os.path.join(out_dir, n))
    if isinstance(corpus, pa.Table):
        for path, t in zip(paths, _bucket_tables(corpus, num_buckets)):
            if t.num_rows:
                pq.write_table(t, path)
    else:  # ray.data.Dataset
        def write_bucket(b: int, g: pa.Table) -> pa.Table:
            tmp = paths[b] + ".tmp"
            pq.write_table(g.sort_by("image_id"), tmp)
            os.replace(tmp, paths[b])
            return pa.table({"bucket": [b], "rows": [g.num_rows]})

        bucket_shuffle(
            corpus.select_columns(_BUCKET_SCHEMA.names),
            lambda t: corpus_buckets(t.column("image_id"), num_buckets),
            write_bucket).materialize()
    # manifest last and atomic: its presence marks the layout complete
    with open(meta_path + ".tmp", "w") as fh:
        json.dump(meta, fh)
    os.replace(meta_path + ".tmp", meta_path)
    return CorpusLookup(paths, _frag_registry())


def fetch_batch(batch: pa.Table, corpus_ref: CorpusLookup, graph: WebGraph,
                clock_iso: str) -> pa.Table:
    """Stateless-task fetch/convert: admitted URL -> corpus row -> WARC
    resource row + discovered links."""
    idxs = graph.idx_batch(batch.column("url"))
    image_ids = pc.binary_join_element_wise("img", _zero_padded(idxs, 8), "")
    rows = corpus_ref.rows(_pylist(image_ids), (b"", "", ""))
    fmts = [r[1] for r in rows]
    return _records(
        batch, clock_iso, pa.array([r[0] for r in rows], type=pa.binary()),
        pa.array([MIME_BY_FMT.get(f, "application/octet-stream") for f in fmts],
                 type=pa.string()),
        image_ids, pa.array(fmts, type=pa.string()),
        pa.array([r[2] for r in rows], type=pa.string()), graph.links_batch(idxs))


def explode_links(batch: pa.Table, graph: WebGraph) -> pa.Table:
    """Vectorized 1->N link expansion to next-generation frontier rows:
    pyarrow list-flatten for the explode, slice+cast kernels for the
    index (WebGraph URLs end in the 8-digit index), arithmetic for
    priority — no per-row Python."""
    import pyarrow.compute as pc

    links = batch.column("links")
    if isinstance(links, pa.ChunkedArray):
        links = links.combine_chunks()
    flat = links.flatten()
    if len(flat) == 0:
        return pa.table({n: [] for n in FRONTIER_SCHEMA.names},
                        schema=FRONTIER_SCHEMA)
    tail = pc.utf8_slice_codeunits(flat, start=-8)
    idxs = pc.cast(tail, pa.int64())
    pri = pc.subtract(idxs, pc.multiply(pc.divide(idxs, 3), pa.scalar(3, type=pa.int64())))
    key = pc.binary_join_element_wise(pa.scalar("img"), tail, "")
    return pa.table(
        {
            "url": flat,
            "priority": pri,
            "seq": idxs,  # stable discovery key
            "payload_key": key,
            "depth": pa.array(np.zeros(len(flat), dtype=np.int64)),
        },
        schema=FRONTIER_SCHEMA,
    )


# ---------------------------------------------------------------------------
# Driver loop + checkpoint lineage
# ---------------------------------------------------------------------------

def seeds_table(graph: WebGraph, n_seeds: int) -> pa.Table:
    urls = graph.seed_urls(n_seeds)
    idxs = [graph.idx_of(u) for u in urls]
    return pa.table(
        {
            "url": urls,
            "priority": pa.array([graph.priority(i) for i in idxs], type=pa.int64()),
            "seq": pa.array(idxs, type=pa.int64()),
            "payload_key": ["img%08d" % i for i in idxs],
            "depth": pa.array(np.zeros(len(urls), dtype=np.int64)),
        },
        schema=FRONTIER_SCHEMA,
    )


class CrawlCheckpoint:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def gen_dir(self, g: int) -> str:
        return os.path.join(self.root, "gen=%05d" % g)

    def complete_generations(self) -> list[int]:
        out = []
        if not os.path.isdir(self.root):
            return out
        for name in sorted(os.listdir(self.root)):
            if name.startswith("gen=") and os.path.exists(
                os.path.join(self.root, name, "manifest.json")
            ):
                out.append(int(name.split("=")[1]))
        return out

    def records_tmp(self, g: int) -> str:
        """Generation ``g``'s empty ``records.tmp/`` directory, into which
        the fetch wave's tasks write their parts: a crashed attempt
        (manifest absent) may have left parts there, and a rerun must
        not merge them with its own."""
        import shutil

        tmp_dir = os.path.join(self.gen_dir(g), "records.tmp")
        shutil.rmtree(tmp_dir, ignore_errors=True)
        os.makedirs(tmp_dir)
        return tmp_dir

    def write_generation(self, g: int, *, admitted: pa.Table,
                         seen_deltas: list[np.ndarray], host_states: list[dict],
                         stats: dict) -> None:
        """Make generation ``g`` durable: ``records.tmp/`` (the wave's
        parts) is renamed to ``records/`` (removed when the wave wrote no
        part), then admitted rows, seen deltas and host state are
        written, and the manifest last."""
        import shutil

        d = self.gen_dir(g)
        os.makedirs(d, exist_ok=True)
        # a crashed attempt written by an older version may have left a
        # next frontier here, which load_next_frontier would replay
        shutil.rmtree(os.path.join(d, "next_frontier"), ignore_errors=True)
        if os.path.exists(os.path.join(d, "next_frontier.parquet")):
            os.remove(os.path.join(d, "next_frontier.parquet"))
        rec_dir = os.path.join(d, "records")
        tmp_dir = rec_dir + ".tmp"
        shutil.rmtree(rec_dir, ignore_errors=True)
        if os.path.isdir(tmp_dir) and os.listdir(tmp_dir):
            os.rename(tmp_dir, rec_dir)
        else:
            shutil.rmtree(tmp_dir, ignore_errors=True)
        pq.write_table(admitted, os.path.join(d, "admitted.parquet"))
        for i, delta in enumerate(seen_deltas):
            pq.write_table(
                pa.table({"hash": pa.array(delta, type=pa.uint64())}),
                os.path.join(d, "seen_delta_%04d.parquet" % i),
            )
        with open(os.path.join(d, "host_state.json"), "w") as fh:
            json.dump(host_states, fh)
        # manifest written LAST: its presence marks the generation durable
        tmp = os.path.join(d, "manifest.json.tmp")
        with open(tmp, "w") as fh:
            json.dump({"generation": g, **stats}, fh)
        os.rename(tmp, os.path.join(d, "manifest.json"))

    def load_seen_deltas(self, upto_gen: int, num_shards: int) -> list[np.ndarray]:
        parts: list[list[np.ndarray]] = [[] for _ in range(num_shards)]
        for g in self.complete_generations():
            if g > upto_gen:
                continue
            d = self.gen_dir(g)
            for i in range(num_shards):
                p = os.path.join(d, "seen_delta_%04d.parquet" % i)
                if os.path.exists(p):
                    parts[i].append(pq.read_table(p).column("hash").to_numpy())
        return [
            np.concatenate(p) if p else np.empty(0, dtype=np.uint64) for p in parts
        ]

    def load_host_states(self, g: int) -> list[dict]:
        with open(os.path.join(self.gen_dir(g), "host_state.json")) as fh:
            return json.load(fh)

    def restore(self, seen_actors, host_actors) -> int:
        """Resume: replay the last complete generation's seen deltas and
        host snapshots into the actors -> the next generation (0 when no
        generation is complete). Pending URLs, the last generation's
        links included, live in the restored host shards."""
        import ray

        done = self.complete_generations()
        if not done:
            return 0
        last = done[-1]
        deltas = self.load_seen_deltas(last, len(seen_actors))
        ray.get([a.replay.remote(d) for a, d in zip(seen_actors, deltas)])
        states = self.load_host_states(last)
        ray.get([a.restore_state.remote(s) for a, s in zip(host_actors, states)])
        return last + 1

    def load_next_frontier(self, g: int):
        """The links of generation ``g`` that a checkpoint written before
        each generation offered its own links kept unoffered (a
        ``next_frontier/`` part directory or, older still, one
        ``next_frontier.parquet``), or None. The parts load via remote
        read tasks into the OBJECT STORE — the driver gets back (ref,
        rows) pairs (row counts from the parquet footers, no data read
        driver-side), the carrier crawl() probes before its first admit."""
        import glob

        import ray

        d = self.gen_dir(g)
        legacy = os.path.join(d, "next_frontier.parquet")
        paths = [legacy] if os.path.exists(legacy) else sorted(
            glob.glob(os.path.join(d, "next_frontier", "*.parquet")))

        def _load(path: str) -> pa.Table:
            return pq.read_table(path)

        load = ray.remote(num_cpus=0.5)(_load)
        out = []
        for p in paths:
            rows = pq.ParquetFile(p).metadata.num_rows
            if rows:
                out.append((load.remote(p), rows))
        return out or None


class _Layer(NamedTuple):
    """One phase of one generation: rows in and out and its wall
    seconds."""

    rows_in: int
    rows_out: int
    s: float


@dataclasses.dataclass(frozen=True)
class _Plane:
    """What every phase of one crawl() run shares."""

    seen_actors: list
    host_actors: list
    # refs of fetch_wave_batch's constant args, put once per crawl:
    # fetch_fn, fetch_args, explode_fn, seen_actors, host_actors
    wave_args: tuple
    affinity_fn: object
    ckpt: CrawlCheckpoint | None
    # the cluster's CPUs, read once per crawl: a fetch wave's slice count
    # is a multiple of it (_slice_count)
    cpus: int


def _put_slices(table: pa.Table, rows: int) -> list | None:
    """Seeds -> the ref carrier: ``rows``-row slices put into the object
    store once (Ray Data's Arrow serializer ships only a slice's rows)."""
    import ray

    return [(ray.put(table.slice(lo, rows)), min(rows, table.num_rows - lo))
            for lo in range(0, table.num_rows, rows)] or None


def _probe_offer(plane: _Plane, carrier) -> tuple[int, _Layer]:
    """Seen-probe + offer the initial carrier (the seed slices, or a
    resumed checkpoint's legacy next frontier) -> (offered, layer): one
    ref-tier task per ref, each reading its table from the object
    store. Every later link is offered inside the fetch wave."""
    import ray

    t0 = time.monotonic()
    if not carrier:
        return 0, _Layer(0, 0, time.monotonic() - t0)
    offered = sum(ray.get([
        _task(probe_and_offer_batch).remote(r, plane.seen_actors, plane.host_actors)
        for r, _ in carrier]))
    return offered, _Layer(sum(c for _, c in carrier), offered, time.monotonic() - t0)


def _admit(plane: _Plane, g: int, offered: int) -> tuple[pa.Table | None, _Layer]:
    """Phase 2: one politeness tick -> (admitted rows plus a
    ``generation`` column, or None once the crawl is drained; layer).
    The actors build the tables (fixed shard order -> deterministic
    concat); the admit set, bounded by rate x hosts, is the only
    driver-held state. Rows in: this generation's offers."""
    import ray

    t0 = time.monotonic()
    tables = [t for t in ray.get([a.admit_table.remote() for a in plane.host_actors])
              if t is not None]
    body = pa.concat_tables(tables) if tables else ADMIT_SCHEMA.empty_table()
    n = body.num_rows
    # buckets may be empty this tick while URLs remain: the next refills
    if n == 0 and not sum(ray.get([a.pending.remote() for a in plane.host_actors])):
        return None, _Layer(offered, 0, time.monotonic() - t0)
    admitted = body.add_column(0, "generation",
                               pa.array(np.full(n, g, dtype=np.int64)))
    return admitted, _Layer(offered, n, time.monotonic() - t0)


# the most admitted rows one fetch wave task takes
SLICE_MAX_ROWS = 4096


def _slice_count(n: int, cpus: int) -> int:
    """A fetch wave's task count for ``n`` admitted rows: one slice per
    CPU, or the least multiple of ``cpus`` whose slices hold at most
    :data:`SLICE_MAX_ROWS` rows; never more slices than rows."""
    return min(n, cpus * -(-n // (cpus * SLICE_MAX_ROWS)))


def _split(n: int, m: int) -> list[tuple[int, int]]:
    """``n`` rows as ``m`` consecutive (start, rows) slices whose sizes
    differ by at most one row."""
    return [(n * i // m, n * (i + 1) // m - n * i // m) for i in range(m)]


@functools.lru_cache(maxsize=8)
def _task(fn):
    """``fn`` as a one-CPU Ray task, decorated once per process and
    function: each fresh ``ray.remote`` exports the function again and
    every worker fetches it again."""
    import ray

    return ray.remote(num_cpus=1)(fn)


def _fetch_plan(admitted: pa.Table, affinity_fn) -> pa.Table:
    """Bucket-affine dispatch (the map side of a co-partitioned join):
    rows sort by corpus bucket, so each even slice of the dispatch table
    touches a few adjacent buckets instead of faulting all of them into
    its worker's cache (at 100k urls / 17 fragments: 108 s of duplicate
    builds for a 0.6 s fetch)."""
    if affinity_fn is None:
        return admitted
    order = np.argsort(np.asarray(affinity_fn(admitted)), kind="stable")
    return admitted.take(pa.array(order))


def _fetch(plane: _Plane, g: int, admitted: pa.Table) -> tuple[dict, _Layer]:
    """Phase 3, the fetch wave: the dispatch table (:func:`_fetch_plan`)
    is split evenly into :func:`_slice_count` slices, and each slice is
    fetched, its links exploded,
    seen-probed and offered in one :func:`fetch_wave_batch` task ->
    (meta summed over the slices plus their count, ``slices``; layer).
    With a checkpoint, slice ``i`` writes its records to
    ``gen=g/records.tmp/part-<i>.parquet``, so sorted part names keep
    dispatch order. If the wave fails, every task still in flight is
    cancelled and waited for before the error propagates: none can
    write into a later run's ``records.tmp``."""
    import ray

    t0 = time.monotonic()
    n = admitted.num_rows
    if n == 0:
        return dict.fromkeys(WAVE_META + ("slices",), 0), _Layer(0, 0, time.monotonic() - t0)
    slices = _split(n, _slice_count(n, plane.cpus))
    dispatch = ray.put(_fetch_plan(admitted, plane.affinity_fn))
    part_dir = plane.ckpt.records_tmp(g) if plane.ckpt is not None else None
    fetch_task = _task(fetch_wave_batch)
    refs = [fetch_task.remote(dispatch, lo, rows, *plane.wave_args,
                              None if part_dir is None
                              else os.path.join(part_dir, "part-%06d.parquet" % i))
            for i, (lo, rows) in enumerate(slices)]
    try:
        metas = ray.get(refs)
    except BaseException:
        for r in refs:
            ray.cancel(r)
        ray.wait(refs, num_returns=len(refs))
        raise
    meta = dict(zip(WAVE_META, map(sum, zip(*metas))), slices=len(refs))
    return meta, _Layer(n, meta["links"], time.monotonic() - t0)


def _checkpoint(plane: _Plane, g: int, admitted: pa.Table) -> _Layer:
    """Phase 4: make generation ``g`` durable: its records parts (written
    by the fetch wave), admitted rows, seen deltas and host snapshots
    (which hold this generation's links, offered by the fetch wave).
    Rows out: the admitted rows made durable."""
    import ray

    t0 = time.monotonic()
    n = admitted.num_rows
    if plane.ckpt is None:
        return _Layer(n, 0, time.monotonic() - t0)
    plane.ckpt.write_generation(
        g,
        admitted=admitted,
        seen_deltas=ray.get([a.flush_delta.remote() for a in plane.seen_actors]),
        host_states=ray.get([a.checkpoint_state.remote() for a in plane.host_actors]),
        stats={"admitted": n},
    )
    return _Layer(n, n, time.monotonic() - t0)


def crawl(
    corpus_table: pa.Table | None = None,
    *,
    graph: WebGraph | None = None,
    fetch_fn=None,
    fetch_args: tuple = (),
    explode_fn=None,
    seeds: pa.Table | None = None,
    robots_map: dict | None = None,
    n_seeds: int = 8,
    max_generations: int = 10,
    num_seen_shards: int = 4,
    num_host_shards: int = 4,
    rate: float = 1.0,
    capacity: float = 2.0,
    clock_iso: str = "2026-01-01T00:00:00Z",
    checkpoint_dir: str | None = None,
    resume: bool = False,
    stop_after_generation: int | None = None,
    batch_size: int = 4096,
    # ignored; kept because perfbench/workloads.py still passes them
    small_frontier_threshold: int | None = None,
    small_admit_threshold: int | None = None,
    track_visits: bool = False,
    seen_fp_bits: int = 16,
    corpus_partitions: int | None = None,
    corpus_fragments_dir: str | None = None,
    seen_capacity: int | None = None,
    fetch_affinity_fn=None,
    max_pending_per_host: int = 100_000,
) -> dict:
    """Run the crawl; returns stats + (if checkpointing) the output layout.

    Each generation's fetch wave runs as plain tasks, one per slice of
    admitted rows; with ``checkpoint_dir`` each task writes its own
    records part (see the module docstring). Stats carry
    ``phase_times`` (wall seconds: ``probe_offer`` covers only the
    initial carrier, ``fetch`` the fused fetch wave and its records
    writes, ``checkpoint`` the rest of the generation's lineage),
    ``task_s`` (the wave tasks' in-task seconds summed: ``fetch``,
    ``explode``, ``probe``, ``offer``), ``gen_slices`` (each
    generation's wave task count, beside ``gen_admits``), the seen set's
    ``seen_load_factor`` (filled over total cuckoo slots, all shards)
    and ``seen_fp_skips_est`` (new URLs expected to be skipped as
    false positives at ``seen_fp_bits``), and ``plane``: the shard
    actors ``reused`` from the Ray session's idle pool and ``spawned``,
    and ``lease_s``, the seconds until all of them were ready.

    Every generation offers the links it finds, the last one too: on a
    crawl cut short by ``max_generations`` or ``stop_after_generation``,
    ``offered`` and ``seen`` count the last generation's links, and its
    checkpoint holds them in the host shards' state.

    A ``corpus_table`` is read as ``corpus_partitions`` hash buckets
    (default: one per 64 MB), put into the object store or, with
    ``corpus_fragments_dir``, written there as parquet fragments.

    ``resume=True`` restores seen/host state from the last complete
    generation in ``checkpoint_dir`` and continues; finished
    generations are never recomputed (their records partitions stay).

    ``track_visits`` defaults to FALSE: the in-memory visit log grows
    with total crawl size (a driver OOM at 10^10 URLs). The durable
    visit record at scale is the per-generation ``admitted.parquet``
    in the checkpoint; opt in to the in-memory log only for
    test-scale equivalence checks."""
    import ray

    from ..state.shards import kill_actors, make_actors, release_actors

    # fetcher plumbing: default = the corpus/WebGraph fetcher; callers
    # may pass any (fetch_fn(batch, *fetch_args) -> records-with-links,
    # explode_fn(records) -> frontier, seeds, robots_map) — e.g. the
    # zip-archive crawler in pipelines/zipcrawl.py (file://and zip://
    # pseudo-URLs are first-class frontier entries per the north rule).
    if fetch_fn is None:
        if corpus_table is None:
            raise ValueError("need corpus_table or an explicit fetch_fn")
        n = corpus_table.num_rows
        graph = graph or WebGraph(n)
        num_parts = corpus_partitions or max(1, corpus_table.nbytes // (64 << 20))
        corpus_ref = (
            write_corpus_fragments(corpus_table, corpus_fragments_dir, num_parts)
            if corpus_fragments_dir is not None else CorpusLookup(
                [ray.put(t) for t in _bucket_tables(corpus_table, num_parts)]))
        fetch_fn = fetch_batch
        fetch_args = (corpus_ref, graph, clock_iso)
        # bucket-affine fetch dispatch (_fetch_plan)
        fetch_affinity_fn = fetch_affinity_fn or corpus_affinity_fn(graph, num_parts)
        explode_fn = lambda t: explode_links(t, graph)  # noqa: E731
        seeds = seeds_table(graph, n_seeds)
        robots_map = graph.robots_map()
        if seen_capacity is None:
            seen_capacity = max(4096, 4 * n)
    else:
        if seeds is None or explode_fn is None:
            raise ValueError("custom fetch_fn needs seeds and explode_fn")
        if seen_capacity is None:
            seen_capacity = 1 << 20

    ckpt = CrawlCheckpoint(checkpoint_dir) if checkpoint_dir else None
    if resume and ckpt is None:
        raise ValueError("resume requires checkpoint_dir")
    t0 = time.monotonic()
    lease = make_actors(
        num_seen_shards, num_host_shards, seen_capacity=seen_capacity, rate=rate,
        capacity=capacity, robots_map=robots_map, seen_fp_bits=seen_fp_bits,
        max_pending_per_host=max_pending_per_host)
    plane_stats = {"reused": lease.reused, "spawned": lease.spawned,
                   "lease_s": round(time.monotonic() - t0, 3)}
    plane = _Plane(
        seen_actors=lease.seen, host_actors=lease.host,
        wave_args=tuple(ray.put(a) for a in (fetch_fn, fetch_args, explode_fn,
                                             lease.seen, lease.host)),
        affinity_fn=fetch_affinity_fn, ckpt=ckpt,
        cpus=max(1, int(ray.cluster_resources().get("CPU", 1))),
    )
    try:
        start_gen = ckpt.restore(lease.seen, lease.host) if resume else 0
        # built in the call, not bound here: the loop alone pins the carrier
        totals = _generations(
            plane, ckpt.load_next_frontier(start_gen - 1) if start_gen
            else _put_slices(seeds, batch_size),
            range(start_gen, max_generations), stop_after_generation, track_visits)
        stats = ray.get([a.get_stats.remote() for a in lease.host])
        totals["seen"] = sum(ray.get([a.count.remote() for a in lease.seen]))
        fill = ray.get([a.fill.remote() for a in lease.seen])
    except BaseException:
        # a probe task still in flight could write into the plane after
        # a later crawl has reset it: a failed crawl's actors never pool
        # (a failed wave has already cancelled and awaited its tasks)
        kill_actors(lease.seen + lease.host)
        raise
    release_actors(lease)
    totals["seen_load_factor"] = round(totals["seen"] / sum(f[0] for f in fill), 6)
    totals["seen_fp_skips_est"] = sum(f[1] for f in fill)
    totals["robots_blocked"] = sum(s.get("robots_blocked", 0) for s in stats)
    totals["evicted"] = sum(s.get("evicted", 0) for s in stats)
    totals["plane"] = plane_stats
    return totals


def _generations(plane: _Plane, carrier, gens: range,
                 stop_after_generation: int | None, track_visits: bool) -> dict:
    """The generation loop: the initial carrier's probe/offer, then per
    generation admit, the fetch wave (which offers the generation's
    links) and checkpoint, until the crawl drains, the generation budget
    runs out or ``stop_after_generation`` is reached. Returns crawl()'s
    counters, visit log, per-phase times and in-task times."""
    totals = {"admitted": 0, "offered": 0, "generations": 0, "gen_admits": [],
              "gen_slices": []}
    visit_log: list[tuple] = []
    phase_times = dict.fromkeys(("probe_offer", "admit", "fetch", "checkpoint"), 0.0)
    task_s = dict.fromkeys(("fetch", "explode", "probe", "offer"), 0.0)

    offered = 0
    if gens:
        offered, layer = _probe_offer(plane, carrier)
        phase_times["probe_offer"] += layer.s
        totals["offered"] += offered
    carrier = None  # probed: release its refs
    for g in gens:
        admitted, layer = _admit(plane, g, offered)
        phase_times["admit"] += layer.s
        if admitted is None:
            break
        n = admitted.num_rows
        totals["admitted"] += n
        totals["gen_admits"].append(n)
        totals["generations"] = g + 1
        if track_visits:
            visit_log.extend((g, h, u) for h, u in zip(
                _pylist(admitted.column("host")), _pylist(admitted.column("url"))))
        meta, layer = _fetch(plane, g, admitted)
        phase_times["fetch"] += layer.s
        offered = meta["offered"]
        totals["offered"] += offered
        totals["gen_slices"].append(meta["slices"])
        for k in task_s:
            task_s[k] += meta[k + "_s"]
        phase_times["checkpoint"] += _checkpoint(plane, g, admitted).s
        if stop_after_generation is not None and g >= stop_after_generation:
            break
    totals["visit_log"] = visit_log
    totals["phase_times"] = {k: round(v, 3) for k, v in phase_times.items()}
    totals["task_s"] = {k: round(v, 3) for k, v in task_s.items()}
    return totals
