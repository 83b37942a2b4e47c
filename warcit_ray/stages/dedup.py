"""Deduplication operators — exact, MinHash+LSH, SimHash, n-gram
Jaccard verification, embedding-cosine near-dup.

Shuffle discipline (the 100 TB design point):
- exact dedup: hash computed per batch (vectorized) -> PARTIAL
  aggregation inside map_batches (one row per hash per batch) -> one
  bucket shuffle of the partials on the hash. The full rows never
  shuffle.
- MinHash LSH: the input executes once, into a materialized (id, text)
  corpus; one pass over it computes each batch's signatures and
  explodes them straight to (band_hash, doc) rows (signatures never
  materialize) -> DISTRIBUTED candidate-pair emit (a bucket shuffle on
  the band key with a per-bucket member cap) -> DISTRIBUTED
  exact-Jaccard verify in two more shuffles: pair halves meet their
  doc (the corpus's only shuffle, which also drops the cross-band
  duplicate pairs), then the two halves of each pair meet and one
  sorted-merge pass computes every pair's Jaccard. Beyond that one
  (id, text) shuffle, only (band, hash, id) triples, pair halves and
  per-half shingle arrays cross the wire; nothing corpus-sized ever
  lands on the driver.
- SimHash / pHash: 64-bit signature per doc; chunk banding (pigeonhole:
  ``n_chunks >= max_hamming + 1`` exact chunks guarantee every
  qualifying pair shares a bucket); candidates emitted AND
  popcount-verified inside the band emit, distributed.
- embedding near-dup: random-hyperplane signatures bucket the vectors;
  exact cosine verifies within buckets with a blocked (memory-bounded)
  pairwise matmul and a deterministic per-bucket member cap.

Candidate generation has one path at every size: band rows go straight
to the bucket shuffle (stages/shuffle.py), which emits pairs inside
its tasks — member rows never materialize on the driver.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from .shuffle import bucket_shuffle, key_buckets, mix_buckets
from .text import md5_batch

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup_groups(ds, id_col: str = "doc_id", text_col: str = "text"):
    """-> Dataset(text_md5, keep_id, n_dups): one row per distinct text,
    keeping the minimum id. Partial-aggregates each batch, then one
    bucket shuffle on the hash combines the partials (min of the
    minimum ids, sum of the counts)."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        g = md5_batch(batch, text_col).group_by(["text_md5", "text_md5_i64"]).aggregate(
            [(id_col, "min"), (id_col, "count", pc.CountOptions(mode="all"))])
        return pa.table({"text_md5": g["text_md5"], "text_md5_i64": g["text_md5_i64"],
                         "pmin": pc.cast(g[id_col + "_min"], pa.int64()),
                         "pcnt": g[id_col + "_count"]})

    def combine(_bucket: int, t: pa.Table) -> pa.Table:
        g = t.group_by("text_md5").aggregate([("pmin", "min"), ("pcnt", "sum")])
        return pa.table({"text_md5": g["text_md5"], "keep_id": g["pmin_min"],
                         "n_dups": g["pcnt_sum"]})

    # materialized: its row count, from block metadata, sizes the buckets
    partials = ds.map_batches(partial, batch_format="pyarrow").materialize()
    return bucket_shuffle(partials, key_buckets("text_md5_i64",
                                                _coarse_bucket_count(partials.count())),
                          combine)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64."""
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _keep_pair_key(ids: np.ndarray, md5_i64: np.ndarray) -> np.ndarray:
    """64-bit key of a (keeper id, content hash) PAIR: the keep filter
    must match both — an id-only filter silently keeps duplicate-id
    rows of unrelated text. A pair-key collision (~2^-64/row) can only
    KEEP an extra row, never drop one."""
    return _splitmix64(ids.astype(np.int64).view(np.uint64)) ^ \
        md5_i64.astype(np.int64).view(np.uint64)


def _md5_hex_prefix_i64(hexes: list) -> np.ndarray:
    """int64 from the first 16 hex chars — identical to md5_batch's
    text_md5_i64 (digest[:8] big-endian, signed)."""
    return np.array([int(x[:16], 16) - (1 << 63) for x in hexes],
                    dtype=np.int64)


def distinct_rows(ds, id_col: str = "doc_id", text_col: str = "text",
                  broadcast_threshold: int = 50_000_000):
    """Exact dedup keeping whole rows.

    NOT a per-group UDF: Ray invokes a grouped UDF once per GROUP,
    and at ~1-2 ms of pandas frame overhead per call a 100k-distinct
    corpus costs ~15 s (measured) — per-group dispatch is the wrong
    shape for high-cardinality dedup. Instead: the partial-aggregated
    ``exact_dedup_groups`` shuffle produces (hash, keep_id) pairs; the
    keeper (id, hash) PAIR KEYS — one int64 each, 8 bytes/row on the
    driver (the hash/id columns are projected to the key remotely) —
    broadcast into a vectorized ``searchsorted`` filter. Above
    ``broadcast_threshold`` kept rows, fall back to a bucketed hash
    join of the rows against the keep pairs on the md5-prefix int key
    (one corpus shuffle — the honest cost when even the key set
    outgrows broadcast), verifying full hash + keeper id after the
    merge.

    PRECONDITION: ``id_col`` values are unique across the input (true
    for every engine-generated table; documented for cli_clean over
    arbitrary parquet). Exact duplicate ROWS — same id AND same text —
    would each match the keeper pair key; a cheap within-batch pair
    dedup below drops same-batch copies, but copies of one (id, text)
    row split across blocks require the unique-id precondition (the
    global pass would be a second shuffle for a non-occurring input
    shape)."""
    import ray

    # materialized: consumed twice (count + block refs) — an
    # unmaterialized Dataset would re-run the whole aggregate shuffle
    groups = exact_dedup_groups(ds, id_col=id_col,
                                text_col=text_col).materialize()
    ds_hashed = ds.map_batches(lambda b: md5_batch(b, text_col),
                               batch_format="pyarrow")
    n_keep = groups.count()
    if n_keep <= broadcast_threshold:
        def to_pair_keys(t: pa.Table) -> pa.Table:
            # the aggregate can emit schema-less empty blocks
            if t.num_rows == 0 or "keep_id" not in t.schema.names:
                return pa.table({"pk": pa.array([], type=pa.int64())})
            ids = t.column("keep_id").to_numpy(zero_copy_only=False)
            md5i = _md5_hex_prefix_i64(t.column("text_md5").to_pylist())
            return pa.table({"pk": _keep_pair_key(ids, md5i).view(np.int64)})

        pk_ds = groups.map_batches(to_pair_keys, batch_format="pyarrow")
        # driver holds ONLY the packed key column: 8 bytes per kept row
        pk_parts = [
            t.column("pk").to_numpy(zero_copy_only=False)
            for t in ray.get(pk_ds.to_arrow_refs()) if t.num_rows
        ]
        keep = np.sort(np.concatenate(pk_parts).view(np.uint64)) if pk_parts \
            else np.empty(0, dtype=np.uint64)
        keep_ref = ray.put(keep)

        def keep_filter(t: pa.Table, _ref=keep_ref) -> pa.Table:
            from ..stages.similarity import _resolve

            k = _resolve(_ref)
            if len(k) == 0:
                return t.slice(0, 0)
            ids = t.column(id_col).combine_chunks().to_numpy(
                zero_copy_only=False)
            md5i = t.column("text_md5_i64").combine_chunks().to_numpy(
                zero_copy_only=False)
            pk = _keep_pair_key(ids, md5i)
            pos = np.minimum(np.searchsorted(k, pk), len(k) - 1)
            keep_mask = k[pos] == pk
            # within-batch pair dedup: exact duplicate (id, text) rows in
            # one block keep only their first copy (see precondition note)
            _, first_idx = np.unique(pk, return_index=True)
            first_mask = np.zeros(len(pk), dtype=bool)
            first_mask[first_idx] = True
            return t.filter(pa.array(keep_mask & first_mask))

        return ds_hashed.map_batches(keep_filter, batch_format="pyarrow")
    # join fallback: join on the md5-prefix int64 carried by md5_batch
    # (no extra pass over the corpus), verify FULL hash + keeper id
    # after the merge (a 64-bit prefix collision must not adopt another
    # group's keeper)
    from .joins import bucketed_hash_join

    _KEEPS_SCHEMA = pa.schema([pa.field("keep_md5", pa.string()),
                               pa.field("keep_id", pa.int64()),
                               pa.field("text_md5_i64", pa.int64())])

    def _keeps_batch(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "keep_id" not in t.schema.names:
            return _KEEPS_SCHEMA.empty_table()
        md5i = _md5_hex_prefix_i64(t.column("text_md5").to_pylist())
        return pa.table({"keep_md5": t.column("text_md5"),
                         "keep_id": t.column("keep_id"),
                         "text_md5_i64": pa.array(md5i)})

    keeps = groups.map_batches(_keeps_batch, batch_format="pyarrow")
    joined = bucketed_hash_join(ds_hashed, keeps, "text_md5_i64")

    def only_kept(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.and_(pc.equal(t[id_col], t["keep_id"]),
                       pc.equal(t["text_md5"], t["keep_md5"]))
        t = t.filter(mask).drop_columns(["keep_id", "keep_md5"])
        # within-batch pair dedup (same rule as the broadcast tier)
        ids = t.column(id_col).combine_chunks().to_numpy(zero_copy_only=False)
        md5i = t.column("text_md5_i64").combine_chunks().to_numpy(
            zero_copy_only=False)
        pk = _keep_pair_key(ids, md5i)
        _, first_idx = np.unique(pk, return_index=True)
        if len(first_idx) == len(pk):
            return t
        return t.take(pa.array(np.sort(first_idx)))

    return joined.map_batches(only_kept, batch_format="pyarrow")


def filter_out_ids(ds, drop_ids_ds, id_col: str = "doc_id", *,
                   broadcast_threshold: int = 50_000_000,
                   num_buckets: int = 32):
    """Anti-join: remove the rows whose id appears in ``drop_ids_ds``
    (e.g. the near-dup drop list). Size-gated exactly like
    ``distinct_rows`` (VERDICT r3 #3 — a 10^10-doc corpus with a high
    dup rate makes the drop set itself corpus-scale):

    - at or below ``broadcast_threshold`` ids: the sorted int64 id
      array broadcasts (ray.put once, worker-process cached) into a
      vectorized searchsorted filter — 8 bytes per dropped id on the
      driver, no shuffle;
    - above it: a bucketed anti-join (stages/joins.bucketed_anti_join)
      keeps both sides distributed — the honest one-shuffle price when
      even the id set outgrows broadcast."""
    import ray

    n_drop = drop_ids_ds.count()
    if n_drop == 0:
        return ds
    ids_only = drop_ids_ds.select_columns([id_col])
    if n_drop <= broadcast_threshold:
        parts = [
            t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            for t in ray.get(ids_only.to_arrow_refs()) if t.num_rows
        ]
        drop = np.sort(np.concatenate(parts))
        ref = ray.put(drop)

        def keep(t: pa.Table, _ref=ref) -> pa.Table:
            from .similarity import _resolve

            d = _resolve(_ref)
            ids = t.column(id_col).combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64, copy=False)
            pos = np.minimum(np.searchsorted(d, ids), len(d) - 1)
            return t.filter(pa.array(d[pos] != ids))

        return ds.map_batches(keep, batch_format="pyarrow")
    from .joins import bucketed_anti_join

    return bucketed_anti_join(ds, ids_only, id_col, num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

_MERSENNE = np.uint64((1 << 61) - 1)


def _tok_hash_plain(tok: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest(), "little"
    )


def _tok_hash_md5le(tok: str) -> int:
    """Lower 64 bits of md5 (the last 8 digest bytes, little-endian) —
    bit-identical to DuckDB's ``md5_number_lower(tok)``, so a SimHash
    built on it is exactly SQL-reproducible (the oracle-checked
    ``simhash_dedup`` query uses it; blake2b stays the default)."""
    return int.from_bytes(hashlib.md5(tok.encode("utf-8")).digest()[8:],
                          "little")


_SIMHASH_TOK_HASHES = {"blake2b": _tok_hash_plain, "md5le": _tok_hash_md5le}


def shingle_hashes(text: str, k: int = 3,
                   tok_hash=None) -> np.ndarray:
    """Unique 64-bit hashes of the k-token shingles of ``text`` — the
    set whose Jaccard similarity defines near-duplication. Token hashes
    come from blake2b; shingle hashes are a vectorized rolling
    polynomial over the token-hash array (no per-shingle hashlib)."""
    toks = text.split()
    if not toks:
        return np.empty(0, dtype=np.uint64)
    th = np.array([(tok_hash or _tok_hash_plain)(t) for t in toks], dtype=np.uint64)
    k = min(k, len(th))
    acc = th[: len(th) - k + 1].copy()
    for j in range(1, k):
        acc = acc * np.uint64(0x9E3779B97F4A7C15) + th[j: len(th) - k + 1 + j]
    return np.unique(acc)


def _dedup_doc_shingles(flat_sh: np.ndarray, counts: np.ndarray) -> tuple:
    """Per-doc shingle-SET dedup, vectorized across docs: (flat uint64
    shingles, per-doc counts) -> the same with repeats dropped. The
    affine stage is O(num_perm x shingles), and repetitive docs — the
    norm in near-dup corpora — would otherwise multiply its work
    (measured 9x shingle inflation on a repeat-heavy batch).

    One argsort of a single uint64 key, the doc in the top ``nb`` bits
    and the shingle's top ``64 - nb`` bits below, keeps docs contiguous
    and in order (9 ms on 210k keys, against 88 ms for a lexsort of the
    two columns). A row drops only when its full (doc, shingle) equals
    the row before it, so no distinct shingle is ever lost; where
    truncated keys tie, a duplicate may survive, and a duplicate cannot
    change a minimum."""
    n = len(counts)
    nb = n.bit_length()
    doc = np.repeat(np.arange(n, dtype=np.int64), counts)
    order = np.argsort((doc.view(np.uint64) << np.uint64(64 - nb))
                       | (flat_sh >> np.uint64(nb)))
    fs = flat_sh[order]
    dd = doc[order]
    keep = np.empty(len(fs), dtype=bool)
    keep[:1] = True
    keep[1:] = (dd[1:] != dd[:-1]) | (fs[1:] != fs[:-1])
    return fs[keep], np.bincount(dd[keep], minlength=n).astype(np.int64)


class MinHasher:
    """Word-shingle MinHash signatures. One instance per worker process
    (``minhash_sig_batch``'s cache, run by stateless tasks): the
    permutation table AND a token-hash cache live for the process's
    lifetime, so each distinct token is blake2b-hashed once per worker
    (until the cache starts over at ``_VOCAB_MAX``); shingle hashes
    are then a vectorized rolling polynomial over the token-hash array
    (no per-shingle hashlib calls)."""

    # token-hash cache entries kept before the cache starts over
    _VOCAB_MAX = 1_000_000

    def __init__(self, num_perm: int = 64, shingle_k: int = 3, seed: int = 1):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.k = shingle_k
        self._tok_cache: dict[str, int] = {}

    def _token_hashes(self, tokens: pa.Array) -> np.ndarray:
        """uint64 hash of each DISTINCT token of a batch (a dictionary).
        The tokens cross into Python as one object array (``to_numpy``;
        ``to_pylist`` costs 20x more) and look up this worker's cache;
        only tokens not seen before are blake2b-hashed. The cost is
        O(batch vocabulary), whatever the cache holds: an Arrow
        ``index_in`` against the cached vocabulary rebuilds its hash
        table every call (264 ms per 17k tokens at 1M cached, measured,
        against 18 ms here)."""
        cache = self._tok_cache
        toks = tokens.to_numpy(zero_copy_only=False)
        new = [t for t in toks if t not in cache]
        if len(cache) + len(new) > self._VOCAB_MAX:
            cache.clear()
            new = toks  # every token of the batch rehashes into the fresh cache
        cache.update(zip(new, map(_tok_hash_plain, new)))
        return np.fromiter(map(cache.__getitem__, toks), dtype=np.uint64,
                           count=len(toks))

    def shingles(self, text: str) -> np.ndarray:
        return shingle_hashes(text, self.k)

    def signature(self, text: str) -> np.ndarray:
        sh = self.shingles(text)
        if len(sh) == 0:
            return np.zeros(self.num_perm, dtype=np.uint64)
        # (num_perm, n_shingles) affine transform mod mersenne, min over shingles
        v = (self.a[:, None] * (sh[None, :] & np.uint64(0x1FFFFFFFFFFFFFFF))
             + self.b[:, None]) % _MERSENNE
        return v.min(axis=1)

    # (num_perm, shingles) affine slab: 4096 shingles x 64 perms x 8 B
    # = 2 MB — CACHE-RESIDENT. This is a concurrency lever, not a batch
    # knob: at 32 MB (the old 1<<16) sixteen concurrent signature tasks
    # thrash DRAM on the slab + mod temporaries and each runs 12 s;
    # at 2 MB the same tasks run 0.7 s (17x, measured on a 9.4k-doc
    # block at 16-way). Single-task speed is flat across 2-32 MB.
    _SHINGLE_SLAB = 1 << 12

    _ROLL = np.uint64(0x9E3779B97F4A7C15)

    def _flat_shingles(self, batch: pa.Table) -> tuple:
        """Cross-doc vectorized shingling -> (flat uint64 shingle array
        in doc order, per-doc shingle counts). Tokenization is one
        Arrow kernel; each DISTINCT token of the batch is looked up once
        (dictionary encode, then ``_token_hashes``); the k-token rolling
        polynomial runs GLOBALLY over the flat token-hash array with
        doc-crossing windows masked out. Each doc's shingle SET comes
        out, up to a few surviving duplicates (see the dedup below),
        which cannot change the affine MINIMA the signature takes."""
        import pyarrow.compute as pc

        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        n = len(text)
        text = pc.fill_null(pc.cast(text, pa.string()), "")
        toks = pc.utf8_split_whitespace(text)
        flat = pc.list_flatten(toks)
        raw = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(flat) == 0:
            return np.empty(0, dtype=np.uint64), np.zeros(n, dtype=np.int64)
        # str.split parity: the Arrow kernel emits '' for leading/
        # trailing whitespace — drop empty tokens
        valid = pc.binary_length(flat).to_numpy(zero_copy_only=False) > 0
        dic = flat.dictionary_encode()
        vh = self._token_hashes(dic.dictionary)
        th = vh[dic.indices.to_numpy(zero_copy_only=False)][valid]
        ends_raw = np.cumsum(raw)
        cv = np.concatenate([[0], np.cumsum(valid)])
        m = cv[ends_raw] - cv[ends_raw - raw]  # valid tokens per doc
        k = self.k
        sc = np.where(m >= k, m - k + 1,
                      np.where(m > 0, 1, 0)).astype(np.int64)
        total = int(sc.sum())
        if total == 0:
            return np.empty(0, dtype=np.uint64), sc
        flat_sh = np.empty(total, dtype=np.uint64)
        ends_f = np.cumsum(m)
        starts_f = ends_f - m
        n_th = len(th)
        if n_th >= k:
            acc = th[: n_th - k + 1].copy()
            for j in range(1, k):
                acc *= self._ROLL
                acc += th[j: n_th - k + 1 + j]
            # a window starting at end - j (0 < j < k) crosses that doc end
            ok = np.ones(len(acc), dtype=bool)
            for j in range(1, k):
                p = ends_f - j
                ok[p[(p >= 0) & (p < len(ok))]] = False
            flat_sh[np.repeat(m >= k, sc)] = acc[ok]
        short = np.nonzero((m > 0) & (m < k))[0]
        if len(short):
            out_ends = np.cumsum(sc)
            for d in short:  # rare: docs with fewer than k tokens
                seg = th[starts_f[d]: ends_f[d]]
                a = seg[:1].copy()
                for j in range(1, int(m[d])):
                    a = a * self._ROLL + seg[j: j + 1]
                flat_sh[out_ends[d] - 1] = a[0]
        return _dedup_doc_shingles(flat_sh, sc)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Batched signatures, value-identical to per-doc ``signature``
        (equivalence-tested): tokenize/hash/shingle vectorize ACROSS
        docs (_flat_shingles — the per-doc shingle_hashes calls were
        ~80% of signature wall time at 150k docs), then
        ``_affine_minima``."""
        n = batch.num_rows
        sigs = self._affine_minima(*self._flat_shingles(batch))
        values = pa.array(sigs.view(np.int64).reshape(-1))
        offsets = pa.array(
            np.arange(0, (n + 1) * self.num_perm, self.num_perm,
                      dtype=np.int32))
        arr = pa.ListArray.from_arrays(offsets, values)
        return batch.append_column("minhash", arr)

    def _affine_minima(self, flat: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """(flat shingles, per-doc counts) -> (docs, num_perm) uint64
        minima of ``(a * sh + b) mod (2^61 - 1)``, 0 for a doc without
        shingles. The affine transforms run in place in one
        (num_perm, slab) buffer, and each slab's per-doc minima come
        from one ``np.minimum.reduceat`` over its doc segments."""
        sigs = np.zeros((len(counts), self.num_perm), dtype=np.uint64)
        nz = np.nonzero(counts)[0]
        if len(nz) == 0:
            return sigs
        flat = flat & np.uint64(0x1FFFFFFFFFFFFFFF)
        ends = np.cumsum(counts[nz])
        starts = ends - counts[nz]
        a, b = self.a[:, None], self.b[:, None]
        # a slab stops at the first doc that takes it to _SHINGLE_SLAB
        width = self._SHINGLE_SLAB + int(counts.max())
        buf = np.empty((2, self.num_perm * width), dtype=np.uint64)
        lo = 0
        while lo < len(nz):
            # grow the slab doc-by-doc up to _SHINGLE_SLAB shingles
            # (always at least one doc)
            hi = lo + 1
            while hi < len(nz) and ends[hi - 1] - starts[lo] < self._SHINGLE_SLAB:
                hi += 1
            seg = flat[None, starts[lo]: ends[hi - 1]]
            size = self.num_perm * seg.shape[1]
            v = buf[0, :size].reshape(self.num_perm, -1)
            t = buf[1, :size].reshape(self.num_perm, -1)
            np.multiply(a, seg, out=v)  # wraps mod 2^64, as ``%`` sees it
            v += b
            # one Mersenne fold (hi*2^61 + lo == hi + lo): v < 2p after
            # it, so one wrapping subtract-and-min finishes the mod
            np.right_shift(v, np.uint64(61), out=t)
            v &= _MERSENNE
            v += t
            np.subtract(v, _MERSENNE, out=t)
            np.minimum(v, t, out=v)
            sigs[nz[lo:hi]] = np.minimum.reduceat(
                v, starts[lo:hi] - starts[lo], axis=1).T
            lo = hi
        return sigs


# worker-process MinHasher cache: signature state (permutation table +
# token-hash cache) is built once per worker and reused across batches
# AND across pipeline invocations — a per-invocation actor pool pays
# ~1.5 s of actor startup every call, which dominated the signature
# stage wall time (same stateless-task reasoning as stages/similarity.py)
_MINHASHER_CACHE: dict = {}


def minhash_sig_batch(batch: pa.Table, num_perm: int = 64,
                      shingle_k: int = 3, seed: int = 1) -> pa.Table:
    key = (num_perm, shingle_k, seed)
    mh = _MINHASHER_CACHE.get(key)
    if mh is None:
        if len(_MINHASHER_CACHE) > 4:
            _MINHASHER_CACHE.clear()
        mh = _MINHASHER_CACHE[key] = MinHasher(num_perm, shingle_k, seed)
    return mh(batch)


def _band_keys_matrix(sig: np.ndarray, num_bands: int) -> np.ndarray:
    """(n_docs, num_perm) uint64 signatures -> (n_docs, num_bands)
    non-negative int64 band keys via a vectorized splitmix64 chain over
    each band's columns (seeded per band). Replaces the per-(doc, band)
    blake2b call — equal band chunks map to equal keys; a 63-bit mixer
    collision can only ADD a candidate pair, which the exact verify
    stage rejects (VERDICT r3 #4)."""
    n, width = sig.shape
    rpb = width // num_bands
    keys = np.empty((num_bands, n), dtype=np.uint64)
    for b in range(num_bands):
        x = _splitmix64(np.full(n, np.uint64(b + 1), dtype=np.uint64))
        for j in range(b * rpb, (b + 1) * rpb):
            x = _splitmix64(x ^ sig[:, j])
        keys[b] = x >> np.uint64(1)
    return keys.T.astype(np.int64)  # doc-major, matches old row order


def lsh_band_rows(batch: pa.Table, num_bands: int = 16,
                  id_col: str = "doc_id") -> pa.Table:
    """Explode signatures to (band, band_hash, id) rows — the only data
    that reaches the LSH groupby. Fully vectorized: the uniform-width
    minhash list column flattens zero-copy to a (n, num_perm) matrix and
    the band keys come from the splitmix64 chain; no per-row Python."""
    col = batch.column("minhash")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return pa.table({"bkey": pa.array([], type=pa.int64()),
                         id_col: pa.array([], type=pa.int64())})
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    widths = np.diff(offsets)
    if not (widths == widths[0]).all():
        raise ValueError("minhash signatures must be uniform-width")
    width = int(widths[0])
    sig = col.flatten().to_numpy(zero_copy_only=False).astype(
        np.int64, copy=False).view(np.uint64).reshape(n, width)
    keys = _band_keys_matrix(sig, num_bands)
    ids = batch.column(id_col)
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    ids_np = ids.to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "bkey": pa.array(keys.reshape(-1)),
            id_col: pa.array(np.repeat(ids_np, num_bands)),
        }
    )


# ---------------------------------------------------------------------------
# distributed candidate-pair generation (shared by minhash / simhash / phash)
# ---------------------------------------------------------------------------

def _seg_arange(lengths: np.ndarray) -> np.ndarray:
    """``concat(arange(n) for n in lengths)`` without a Python loop."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - lengths, lengths)


def _emit_pairs_bulk(df: pd.DataFrame, bkey_col: str, id_col: str,
                     bucket_cap: int, extra_cols: list[str]) -> pd.DataFrame:
    """ALL within-bucket pairs for EVERY bucket in ``df``, in one
    vectorized pass: segment arithmetic over the bucket sizes, no
    per-bucket Python or pandas objects (a bucket frame costs 1-2 ms,
    which dominates at thousands of collision buckets).

    All pairs, not just bucket-min pairs: an LSH false positive as the
    bucket minimum must not hide true pairs among the other members.
    Deterministic cap: members sorted by id, first ``bucket_cap`` kept,
    so a degenerate bucket costs O(cap^2) not O(n^2). Pairs come out
    bucket by bucket, each bucket's in ``np.triu_indices`` order."""
    cols = ["id_a", "id_b"] + ["%s_a" % c for c in extra_cols] \
        + ["%s_b" % c for c in extra_cols]
    df = df.drop_duplicates([bkey_col, id_col]).sort_values([bkey_col, id_col])
    keys = df[bkey_col].to_numpy()
    ids = df[id_col].to_numpy()
    _, starts, counts = np.unique(keys, return_index=True, return_counts=True)
    m = np.minimum(counts, bucket_cap)
    # one "row" per (bucket, first member i): i pairs with i+1 .. m-1
    rows = np.maximum(m - 1, 0)
    bucket = np.repeat(np.arange(len(m)), rows)
    first = _seg_arange(rows)
    row_len = m[bucket] - 1 - first
    IA = np.repeat(starts[bucket] + first, row_len)
    IB = IA + 1 + _seg_arange(row_len)
    out = pd.DataFrame({"id_a": ids[IA], "id_b": ids[IB]})
    for c in extra_cols:
        v = df[c].to_numpy()
        out["%s_a" % c] = v[IA]
        out["%s_b" % c] = v[IB]
    return out[cols]


def candidate_pairs_from_bands(bands, bkey_col: str, id_col: str, *,
                               extra_cols: list[str] | None = None,
                               bucket_cap: int = 256,
                               n_rows_hint: int | None = None,
                               pair_filter=None):
    """Band rows -> Dataset of DISTINCT candidate pairs
    (id_a, id_b [, extra_a/extra_b...]), entirely distributed.

    Two bucket shuffles: the emit shuffle (:func:`_band_pair_rows`),
    then a second one on ``mix(id_a, id_b) % B`` that dedups cross-band
    duplicates with an in-frame ``drop_duplicates``. Dispatch count is
    B, not one pandas group per collision bucket or per candidate PAIR
    — per-group frame overhead is 1-2 ms (measured, see
    _emit_pairs_bulk), which at a 10^10-doc corpus' candidate rate would
    be tens of millions of dispatches. ``near_dup_pairs`` runs only the
    emit shuffle: its verify drops the duplicates in the shuffle it
    needs anyway.

    Pair emit happens inside the shuffle's tasks; member rows never
    reach the driver. ``pair_filter(df)`` (optional) runs inside the
    emit step — e.g. hamming verification — so rejected pairs never
    shuffle further."""

    extra_cols = extra_cols or []
    n_rows = n_rows_hint
    if n_rows is None:
        n_rows = bands.count()

    nbb = _coarse_bucket_count(n_rows)

    def pair_buckets(t: pa.Table) -> np.ndarray:
        return mix_buckets(nbb, _id_hash_u64(t.column("id_a")),
                           _id_hash_u64(t.column("id_b")))

    def dedup_bucket(_bucket: int, g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["id_a", "id_b"])

    pairs = _band_pair_rows(bands, bkey_col, id_col, n_rows,
                            extra_cols=extra_cols, bucket_cap=bucket_cap,
                            pair_filter=pair_filter)
    return bucket_shuffle(pairs, pair_buckets, dedup_bucket, batch_format="pandas")


def _band_pair_rows(bands, bkey_col: str, id_col: str, n_rows: int, *,
                    extra_cols=(), bucket_cap: int = 256, pair_filter=None):
    """The candidate emit shuffle: one bulk emit per coarse bucket of
    band rows on ``mix(bkey) % B`` (~1M rows each), then the in-frame
    pair dedup. Pairs are distinct within a bucket only: a pair that
    collides in bands hashing to different buckets comes out once per
    such bucket."""

    def emit_bucket(_bucket: int, g: pd.DataFrame) -> pd.DataFrame:
        # holds every collision bucket whose bkey hashes here
        out = _emit_pairs_bulk(g, bkey_col, id_col, bucket_cap, extra_cols)
        if pair_filter is not None:
            out = pair_filter(out)  # applied to empties too: uniform schema
        return out.drop_duplicates(["id_a", "id_b"])

    return bucket_shuffle(bands, key_buckets(bkey_col, _coarse_bucket_count(n_rows)),
                          emit_bucket, batch_format="pandas")


def _coarse_bucket_count(n_rows: int) -> int:
    """Coarse shuffle-bucket count for the candidate shuffles: ~1M band
    rows per bucket so a group frame fits a worker, floored at 32 so
    small runs still parallelize, capped at 64k so the group count
    never itself becomes a dispatch problem."""
    return int(max(32, min(1 << 16, n_rows // 1_000_000 + 1)))


def _id_hash_u64(col: pa.ChunkedArray) -> np.ndarray:
    """Per-row uint64 hash of an id column for coarse pair bucketing.
    Integer ids pass through; string ids (phash_near_dup buckets on
    image_id strings) hash via pandas' vectorized siphash — bucketing
    only needs within-run consistency, which hash_array guarantees."""
    a = col.to_numpy()
    if a.dtype.kind in "iu":
        return a.astype(np.uint64, copy=False)
    return pd.util.hash_array(a.astype(object), categorize=False)


def _jaccard_sorted_merge(ia: np.ndarray, ib: np.ndarray, sets) -> tuple:
    """Exact Jaccard of the pairs among half rows: row r is one side of
    the pair (ia[r], ib[r]) and ``sets[r]`` (a list array) that side's
    unique hashes. One lexsort over (pair, hash) merges every pair's
    two sets: an element of both lands next to its twin, so the
    intersection is the count of adjacent equal keys, and the union is
    |a| + |b| minus that (1.0 when both are empty). Returns, per
    distinct pair, (id_a, id_b, jaccard, half rows)."""
    import pyarrow.compute as pc

    o = np.lexsort((ib, ia))
    ia, ib = ia[o], ib[o]
    first = np.ones(len(o), dtype=bool)
    first[1:] = (ia[1:] != ia[:-1]) | (ib[1:] != ib[:-1])
    pair = np.empty(len(o), dtype=np.int64)
    pair[o] = np.cumsum(first) - 1
    lens = pc.list_value_length(sets).to_numpy(zero_copy_only=False)
    h, p = sets.flatten().to_numpy(), np.repeat(pair, lens)
    order = np.lexsort((h, p))
    h, p = h[order], p[order]
    inter = np.bincount(p[1:][(h[1:] == h[:-1]) & (p[1:] == p[:-1])],
                        minlength=int(first.sum()))
    union = np.bincount(pair, weights=lens).astype(np.int64) - inter
    j = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
    return ia[first], ib[first], j, np.bincount(pair)


def verify_jaccard_pairs(pairs_ds, docs_ds, *, id_col: str = "doc_id",
                         text_col: str = "text", threshold: float = 0.8,
                         shingle_k: int = 3, num_buckets: int = 8):
    """Distributed exact-Jaccard verification of candidate pairs in two
    bucket shuffles, with no per-pair group dispatch (a pandas group
    per pair costs 1-2 ms of frame overhead, hours of pure dispatch at
    10^10-doc candidate rates).

    - Attach: each pair (a, b), a != b, splits into two halves keyed on
      doc a and on doc b, and one two-sided shuffle on that key brings
      every half to its doc: the corpus, projected to (id, text), moves
      once. All copies of a half land in one bucket, so dropping
      duplicate halves there dedups pairs repeated across bands or emit
      frames (``pairs_ds`` need not be distinct). Each referenced doc
      is shingled once per bucket (sorted unique ``shingle_hashes``).
    - Combine: a shuffle on the pair brings its two halves together and
      one ``_jaccard_sorted_merge`` per bucket scores every pair.

    Returns a Dataset of (id_a, id_b, jaccard), id_a the smaller id,
    for pairs passing ``threshold``; a pair with a side missing from
    the corpus drops, and a corpus is assumed to carry one row per id.
    A ``docs_ds`` whose schema is known to be exactly (``id_col``,
    ``text_col``) — ``near_dup_pairs`` passes its materialized corpus —
    enters the attach shuffle as it is; any other is projected to those
    columns first."""
    import pyarrow.compute as pc

    sets_type = pa.large_list(pa.uint64())

    def halves(t: pa.Table) -> pa.Table:
        # keyed on id_col, so one bucket_of serves both shuffle sides
        a, b = t.column("id_a").to_numpy(), t.column("id_b").to_numpy()
        return pa.table({id_col: np.concatenate([a, b]), "id_a": np.tile(a, 2),
                         "id_b": np.tile(b, 2)})

    def attach(_bucket: int, sides) -> pa.Table:
        h, docs = sides
        if h is None or docs is None:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "shingles": pa.array([], sets_type)})
        h = h.group_by([id_col, "id_a", "id_b"]).aggregate([])  # one copy per half
        row = pc.index_in(h[id_col], value_set=docs[id_col].combine_chunks())
        h = h.filter(row.is_valid())  # drop halves whose doc is not in the corpus
        used, inv = np.unique(row.drop_null().to_numpy(), return_inverse=True)
        sets = pa.array([shingle_hashes(x if isinstance(x, str) else "", shingle_k)
                         for x in docs[text_col].take(used).to_pylist()], sets_type)
        return pa.table({"id_a": h["id_a"], "id_b": h["id_b"],
                         "shingles": sets.take(inv)})

    def pair_buckets(t: pa.Table) -> np.ndarray:
        return mix_buckets(num_buckets, t.column("id_a").to_numpy(),
                           t.column("id_b").to_numpy())

    def row_jaccard(_bucket: int, t: pa.Table) -> pa.Table:
        a, b, j, n_halves = _jaccard_sorted_merge(
            t.column("id_a").to_numpy(), t.column("id_b").to_numpy(),
            t.column("shingles").combine_chunks())
        keep = (n_halves == 2) & (j >= threshold)  # one half: a side missing
        a, b = a[keep], b[keep]
        return pa.table({"id_a": np.minimum(a, b), "id_b": np.maximum(a, b),
                         "jaccard": j[keep]})

    schema = docs_ds.schema(fetch_if_missing=False)
    if schema is None or sorted(schema.names) != sorted([id_col, text_col]):
        docs_ds = docs_ds.select_columns([id_col, text_col])
    attached = bucket_shuffle(
        (pairs_ds.map_batches(halves, batch_format="pyarrow"), docs_ds),
        key_buckets(id_col, num_buckets), attach)
    return bucket_shuffle(attached, pair_buckets, row_jaccard)


def components_from_pairs(pairs: list[tuple]) -> list[tuple]:
    """Union-find over verified duplicate pairs -> sorted
    (member, component_min) rows, members != min only. Runs on the
    driver: verified pairs are the job's small output, and connected
    components are inherently sequential."""
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo
    members = {m for p in pairs for m in p}
    return sorted((m, find(m)) for m in members)


def minhash_lsh_dedup(ds, *, num_perm: int = 64, num_bands: int = 16,
                      shingle_k: int = 3, threshold: float = 0.8,
                      id_col: str = "doc_id", concurrency: int | None = None,
                      bucket_cap: int = 256,
                      # ignored: near-dup has one path; kept because
                      # perfbench/workloads.py still passes it
                      small_threshold: int | None = None):
    """Full near-dup pipeline -> (Dataset(doc_id, dup_of) for docs whose
    verified Jaccard >= threshold with a lower-id doc, stats dict:
    ``near_dup_pairs``' stats plus ``dups``, the dup map's rows).

    Every stage is distributed: signatures (stateless tasks over warm
    worker processes) -> band rows -> candidate pairs (coarse-bucketed
    groupby, all-pairs with cap) -> exact-Jaccard verify (pair halves
    meet their docs in one corpus shuffle, which also drops repeated
    pairs; a pair shuffle then runs one sorted-merge Jaccard per
    bucket). Only the verified pair list — the actual result — reaches
    the driver, for the union-find component labels. ``concurrency``
    (optional int) caps the task pools of the map_batches stages for
    callers that must bound the job's footprint."""
    import ray.data as rd

    verified, stats = near_dup_pairs(
        ds, num_perm=num_perm, num_bands=num_bands, shingle_k=shingle_k,
        threshold=threshold, id_col=id_col, bucket_cap=bucket_cap,
        concurrency=concurrency)
    keep = list(zip(verified["id_a"].astype("int64"),
                    verified["id_b"].astype("int64")))
    rows = [(d, r) for d, r in components_from_pairs(keep) if d != r]
    # one block, typed even when empty (from_items makes a block per row)
    dup = pa.table({id_col: pa.array([d for d, _ in rows], pa.int64()),
                    "dup_of": pa.array([r for _, r in rows], pa.int64())})
    return rd.from_arrow(dup), dict(stats, dups=len(rows))


def _pairs_frame(ds, score: str) -> pd.DataFrame:
    """``ds.to_pandas()`` of a pair Dataset, typed (id_a int64, id_b
    int64, score float64) also when it has no rows: ``to_pandas`` of an
    empty Dataset has no columns, whatever its blocks' schemas say."""
    df = ds.to_pandas()
    if len(df):
        return df
    return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                         "id_b": pd.Series([], dtype="int64"),
                         score: pd.Series([], dtype="float64")})


def near_dup_pairs(ds, *, num_perm: int = 64, num_bands: int = 16,
                   shingle_k: int = 3, threshold: float = 0.8,
                   id_col: str = "doc_id", bucket_cap: int = 256,
                   concurrency: int | None = None):
    """The MinHash+LSH pipeline up to (and including) the exact-Jaccard
    verify: returns (verified pairs DataFrame(id_a, id_b, jaccard),
    stats dict). The verified pair list is the job's output-sized
    result, so it lands on the driver; callers needing components feed
    it to components_from_pairs / stages.components.connected_components.

    ``ds`` executes once: its (id, text) projection is materialized as
    the corpus (a materialized ``ds`` of exactly those columns is the
    corpus as it is), one pass over it computes signatures and band rows
    together (the signatures never materialize), and the verify reads
    that corpus. Three bucket shuffles follow: the candidate emit
    (``_band_pair_rows``, pairs not yet distinct) and the two of
    ``verify_jaccard_pairs``. ``concurrency`` (optional int) is
    forwarded as the task cap of the signature pass.

    The stats: ``docs``, ``band_rows``, ``candidate_rows`` (emitted
    pair rows; a pair repeats once per emit bucket it collides in),
    ``verified_pairs``, and the wall seconds of each phase: ``read_s``
    (materializing the corpus), ``signature_s`` (signatures + band
    rows), ``emit_s`` (candidate pairs) and ``verify_s``."""
    import time

    from ray.data.dataset import MaterializedDataset

    kw = {} if concurrency is None else {"concurrency": concurrency}
    t0 = time.perf_counter()
    docs = ds
    if not (isinstance(ds, MaterializedDataset) and ds.columns() == [id_col, "text"]):
        docs = ds.select_columns([id_col, "text"]).materialize()
    t1 = time.perf_counter()
    bands = docs.map_batches(
        lambda b: lsh_band_rows(minhash_sig_batch(b, num_perm, shingle_k),
                                num_bands, id_col),
        batch_format="pyarrow", **kw,
    ).materialize()
    n_rows = bands.count()
    t2 = time.perf_counter()
    pairs = _band_pair_rows(bands, "bkey", id_col, n_rows, bucket_cap=bucket_cap)
    n_cand = pairs.count()
    t3 = time.perf_counter()
    # repeated pairs are fine: the verify's attach shuffle drops them
    verified = _pairs_frame(verify_jaccard_pairs(
        pairs, docs, id_col=id_col, threshold=threshold,
        shingle_k=shingle_k), "jaccard")
    t4 = time.perf_counter()
    return verified, {
        "docs": docs.count(), "band_rows": n_rows, "candidate_rows": n_cand,
        "verified_pairs": len(verified), "read_s": t1 - t0,
        "signature_s": t2 - t1, "emit_s": t3 - t2, "verify_s": t4 - t3}


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

class SimHasher:
    """64-bit SimHash over word tokens (public Charikar construction).
    Actor-pool class: token-hash cache amortized across batches; the
    bit-vote accumulation is one vectorized (n_toks, 64) reduction."""

    _SHIFTS = np.arange(64, dtype=np.uint64)

    def __init__(self, tok_hash: str = "blake2b"):
        # the hash primitive is a named choice (not a callable) so the
        # actor-pool constructor args stay trivially serializable
        self._hash_fn = _SIMHASH_TOK_HASHES[tok_hash]
        self._tok_cache: dict[str, int] = {}

    def _tok_hash(self, tok: str) -> int:
        h = self._tok_cache.get(tok)
        if h is None:
            if len(self._tok_cache) > 1_000_000:
                self._tok_cache.clear()
            h = self._hash_fn(tok)
            self._tok_cache[tok] = h
        return h

    # (tokens, 64) int32 vote slab: 4096 tokens = 1 MB — CACHE-RESIDENT
    # (same concurrency lever as MinHasher._SHINGLE_SLAB: the old 16 MB
    # slab ran 5.3 s/task at 16 concurrent tasks vs 0.5 s at 1-2 MB,
    # 11x measured — DRAM thrash, not compute)
    _TOK_SLAB = 1 << 12

    def simhash(self, text: str) -> int:
        toks = text.lower().split()
        if not toks:
            return 0
        th = np.array([self._tok_hash(t) for t in toks], dtype=np.uint64)
        acc = self._vote(th, np.array([0], dtype=np.int64))[0]
        return int(self._pack(acc[None, :]).view(np.uint64)[0])

    def _vote(self, th: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Segment-summed bit votes: (docs, 64) int64 from the flat
        token-hash array; one reduceat per <=_TOK_SLAB-token slab."""
        bits = ((th[:, None] >> self._SHIFTS[None, :]) & np.uint64(1)).astype(np.int32)
        votes = 2 * bits - 1
        return np.add.reduceat(votes, starts, axis=0).astype(np.int64)

    @staticmethod
    def _pack(acc: np.ndarray) -> np.ndarray:
        """(docs, 64) vote sums -> int64 signatures (sign-bit pack,
        two's-complement view — identical values to the per-bit
        ``out |= 1 << i`` construction)."""
        pos = (acc > 0).astype(np.uint64)
        sig = (pos << SimHasher._SHIFTS[None, :]).sum(axis=1, dtype=np.uint64)
        return sig.view(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n = len(texts)
        tok_lists = [t.lower().split() if t else [] for t in texts]
        counts = np.fromiter((len(tl) for tl in tok_lists), dtype=np.int64,
                             count=n)
        total = int(counts.sum())
        acc = np.zeros((n, 64), dtype=np.int64)
        if total:
            th = np.fromiter(
                (self._tok_hash(t) for tl in tok_lists for t in tl),
                dtype=np.uint64, count=total)
            ends = np.cumsum(counts)
            starts = ends - counts
            nz = np.nonzero(counts)[0]
            # slab over docs so the (tokens, 64) vote matrix stays small;
            # empty docs contribute no rows, so reduceat over the
            # nonzero docs' starts segments exactly per doc
            lo = 0
            while lo < len(nz):
                hi = lo + 1
                while hi < len(nz) and ends[nz[hi - 1]] - starts[nz[lo]] < self._TOK_SLAB:
                    hi += 1
                sel = nz[lo:hi]
                base = starts[sel[0]]
                acc[sel] = self._vote(th[base: ends[sel[-1]]],
                                      starts[sel] - base)
                lo = hi
        return batch.append_column("simhash", pa.array(self._pack(acc)))


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def hamming64_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a ^ b over uint64 arrays (8-bit LUT)."""
    x = (np.asarray(a, dtype=np.uint64) ^ np.asarray(b, dtype=np.uint64))
    out = np.zeros(x.shape, dtype=np.int64)
    for s in range(0, 64, 8):
        out += _POP8[((x >> np.uint64(s)) & np.uint64(0xFF)).astype(np.int64)]
    return out


def sig_chunk_rows(batch: pa.Table, *, sig_col: str, id_col: str,
                   n_chunks: int) -> pa.Table:
    """Explode a 64-bit signature into ``n_chunks`` equal-width chunk
    buckets (pigeonhole banding: two sigs within hamming distance
    ``n_chunks - 1`` share at least one exact chunk). Vectorized: the
    chunk keys come from ``n_chunks`` shift/mask passes over the
    signature array, ids/sigs replicate via numpy tile."""
    width = 64 // n_chunks
    mask = np.uint64((1 << width) - 1)
    n = batch.num_rows
    sig_arr = batch.column(sig_col)
    if isinstance(sig_arr, pa.ChunkedArray):
        sig_arr = sig_arr.combine_chunks()
    u = sig_arr.to_numpy(zero_copy_only=False).astype(np.uint64)
    keys = np.empty((n_chunks, n), dtype=np.int64)
    for c in range(n_chunks):
        keys[c] = ((((u >> np.uint64(width * c)) & mask)
                    << np.uint64(4)) | np.uint64(c)).astype(np.int64)
    ids = batch.column(id_col)
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    idx = pa.array(np.tile(np.arange(n, dtype=np.int64), n_chunks))
    return pa.table(
        {
            "bkey": pa.array(keys.reshape(-1)),
            id_col: ids.take(idx),
            "sig": sig_arr.take(idx),
        }
    )


def banded_hamming_pairs(ds, *, sig_col: str, id_col: str, max_hamming: int,
                         bucket_cap: int = 256) -> pd.DataFrame:
    """Distributed near-dup pairs by signature hamming distance (used by
    SimHash text near-dup and pHash image near-dup).

    Chunk count adapts to the threshold: pigeonhole requires
    ``n_chunks >= max_hamming + 1`` (8x8-bit chunks cover hamming<=7;
    4x16-bit only covers <=3 — using 4 chunks at hamming 6 silently
    loses pairs whose differing bits span all four chunks).
    Hamming verification runs inside the emit group (vectorized LUT
    popcount), so non-qualifying pairs never shuffle."""
    if max_hamming > 7:
        raise ValueError("banded_hamming_pairs supports max_hamming <= 7 "
                         "(8 chunks of 8 bits); got %d" % max_hamming)
    n_chunks = 4 if max_hamming <= 3 else 8
    n_docs = ds.count()

    chunks = ds.map_batches(
        lambda b: sig_chunk_rows(b, sig_col=sig_col, id_col=id_col,
                                 n_chunks=n_chunks),
        batch_format="pyarrow",
    )

    def ham_filter(df: pd.DataFrame) -> pd.DataFrame:
        d = hamming64_arrays(df["sig_a"].to_numpy().astype(np.uint64),
                             df["sig_b"].to_numpy().astype(np.uint64))
        out = df.assign(hamming=d)
        return out[out["hamming"] <= max_hamming]

    pairs = candidate_pairs_from_bands(
        chunks, "bkey", id_col, extra_cols=["sig"], bucket_cap=bucket_cap,
        n_rows_hint=n_docs * n_chunks, pair_filter=ham_filter,
    )
    out = pairs.to_pandas()
    if len(out) == 0:
        return pd.DataFrame({"id_a": pd.Series([], dtype="object"),
                             "id_b": pd.Series([], dtype="object"),
                             "hamming": pd.Series([], dtype="int64")})
    out["hamming"] = out["hamming"].astype("int64")
    return out[["id_a", "id_b", "hamming"]].sort_values(
        ["id_a", "id_b"]).reset_index(drop=True)


def simhash_near_dups(ds, *, max_hamming: int = 3, id_col: str = "doc_id",
                      concurrency: int | tuple = (2, 8),
                      tok_hash: str = "blake2b") -> pd.DataFrame:
    """SimHash near-dup pairs, fully distributed (see
    banded_hamming_pairs for the banding + verify discipline).
    ``tok_hash`` picks the token-hash primitive ('md5le' makes the
    signatures DuckDB-reproducible for oracle checking)."""
    with_sig = ds.map_batches(SimHasher, batch_format="pyarrow",
                              fn_constructor_kwargs={"tok_hash": tok_hash},
                              concurrency=concurrency).materialize()
    pairs = banded_hamming_pairs(
        with_sig, sig_col="simhash", id_col=id_col, max_hamming=max_hamming)
    if len(pairs):
        pairs = pairs.astype({"id_a": "int64", "id_b": "int64"})
    else:
        pairs = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                              "id_b": pd.Series([], dtype="int64"),
                              "hamming": pd.Series([], dtype="int64")})
    return pairs


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------

class HyperplaneBucketer:
    """Random-hyperplane LSH bucket ids (int64 array) of an embedding
    column: the ``bucket_of`` of embedding near-dup's bucket shuffle, run
    as a stateless task over a callable instance. The plane matrix is
    seeded, so every copy of the instance derives the identical matrix,
    and cached per copy by dimensionality."""

    def __init__(self, vec_col: str = "embedding", num_planes: int = 12,
                 seed: int = 5):
        self.vec_col = vec_col
        self.num_planes = num_planes
        self.seed = seed
        self._planes: dict[int, np.ndarray] = {}

    def _planes_for(self, dim: int) -> np.ndarray:
        p = self._planes.get(dim)
        if p is None:
            p = np.random.default_rng(self.seed).normal(
                size=(dim, self.num_planes)).astype(np.float32)
            self._planes[dim] = p
        return p

    def __call__(self, batch: pa.Table) -> np.ndarray:
        from .similarity import _as_matrix

        vecs = _as_matrix(batch.column(self.vec_col), np.float32)
        if len(vecs) == 0:
            return np.empty(0, dtype=np.int64)
        signs = (vecs @ self._planes_for(vecs.shape[1])) > 0
        return signs.dot(1 << np.arange(self.num_planes)).astype(np.int64)


def _blocked_cosine_pairs(ids: np.ndarray, v: np.ndarray, threshold: float,
                          block: int = 1024):
    """All-pairs cosine >= threshold with memory bounded at
    O(block^2): the similarity matrix is computed block x block, never
    n x n, so a degenerate bucket cannot blow a worker's heap."""
    out_a, out_b, out_s = [], [], []
    n = len(ids)
    for i0 in range(0, n, block):
        vi = v[i0: i0 + block]
        for j0 in range(i0, n, block):
            sims = vi @ v[j0: j0 + block].T
            if i0 == j0:
                ia, ib = np.nonzero(np.triu(sims >= threshold, k=1))
            else:
                ia, ib = np.nonzero(sims >= threshold)
            out_a.append(ids[i0 + ia])
            out_b.append(ids[j0 + ib])
            out_s.append(sims[ia, ib].astype("float64"))
    if not out_a:
        return np.array([]), np.array([]), np.array([])
    return np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_s)


def embedding_near_dups(ds, *, threshold: float = 0.95, id_col: str = "vec_id",
                        vec_col: str = "embedding", num_planes: int = 12,
                        seed: int = 5, bucket_cap: int = 4096) -> pd.DataFrame:
    """Random-hyperplane LSH buckets + exact cosine verify within bucket.
    Returns (id_a, id_b, cosine) pairs with cosine >= threshold.

    Scale guards: the bucketer is a stateless task (HyperplaneBucketer
    instance, planes derived from the seed) feeding one bucket shuffle;
    the per-bucket verify caps members deterministically (sorted by id,
    first ``bucket_cap``) and runs a blocked matmul so both compute and
    memory stay bounded on a degenerate bucket (e.g. all-zero vectors
    all landing in bucket 0)."""

    def emit_pairs(_bucket: int, group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(id_col)
        if len(g) > bucket_cap:
            g = g.head(bucket_cap)
        ids = g[id_col].to_numpy()
        vecs = np.asarray(g[vec_col].tolist(), dtype=np.float32)
        norm = np.linalg.norm(vecs, axis=1, keepdims=True)
        norm[norm == 0] = 1
        v = vecs / norm
        a, b, s = _blocked_cosine_pairs(ids, v, threshold)
        return pd.DataFrame({"id_a": a, "id_b": b, "cosine": s})

    pairs = bucket_shuffle(ds, HyperplaneBucketer(vec_col, num_planes, seed),
                           emit_pairs, batch_format="pandas")
    return _pairs_frame(pairs, "cosine")
