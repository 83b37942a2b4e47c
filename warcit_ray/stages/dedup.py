"""Deduplication operators — exact, MinHash+LSH, SimHash, n-gram
Jaccard verification, embedding-cosine near-dup.

Shuffle discipline (the 100 TB design point):
- exact dedup: one plain task per input block hashes its texts, then
  ONE bucket shuffle on the hash. Whole-row dedup (``distinct_rows``)
  shuffles the hashed corpus itself and keeps each hash's min-id row
  in its bucket; the (hash, keep_id, n_dups) groups shuffle only
  per-block PARTIAL aggregates (one row per hash per block). One tier
  at every size: no key or id set reaches the driver, and the near-dup
  drop (``filter_out_ids``) is the bucketed anti-join on the id.
- MinHash LSH: the input executes once, into its blocks, and plain
  task waves run from there (no Ray Data operator): one task per
  block projects it to the (id, text) corpus, computes its signatures
  and explodes them straight to (band_hash, doc) rows (signatures
  never leave the task), and returns both blocks' row counts and
  sizes -> DISTRIBUTED candidate-pair emit (a bucket shuffle on
  the band key with a per-bucket member cap) -> DISTRIBUTED
  exact-Jaccard verify in two more shuffles: pair halves meet their
  doc (the corpus's only shuffle, which also drops the cross-band
  duplicate pairs), then the two halves of each pair meet and one
  sorted-merge pass computes every pair's Jaccard. Beyond that one
  (id, text) shuffle, only (band, hash, id) triples, pair halves and
  per-half shingle arrays cross the wire; nothing corpus-sized ever
  lands on the driver.
- SimHash / pHash: the same block path as MinHash. One plain task per
  block explodes its 64-bit signatures into chunk rows (SimHash signs
  the block's texts inside that task, so signatures never leave it);
  chunk banding is pigeonhole-complete (``n_chunks >= max_hamming + 1``
  exact chunks guarantee every qualifying pair shares a bucket); the
  band emit popcount-verifies its candidates, and one more shuffle on
  the pair keeps each distinct pair once.
- embedding near-dup: random-hyperplane signatures bucket the vectors;
  exact cosine verifies within buckets with a blocked (memory-bounded)
  pairwise matmul and a deterministic per-bucket member cap.

Every near-dup family takes its input's blocks once and runs plain
tasks and shuffles over block refs from there (stages/shuffle.py);
its pair parts are read back by one reader (``_pairs_frame``). Pairs
are emitted inside the shuffle's tasks: member rows never materialize
on the driver. The three LSH families share one candidate emit
(``_emit_pairs_bulk``) over Arrow tables: one sort of each coarse
bucket's band rows, segment arithmetic over row positions and a numpy
pair dedup, no pandas frame per bucket.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from .shuffle import (
    block_meta,
    blocks_dataset,
    dataset_blocks,
    gather,
    key_buckets,
    mix_buckets,
    shuffle_blocks,
    task,
)
from .text import md5_batch

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def _shuffle_on_md5(wave_fn, ds, args: tuple, per_bucket):
    """Exact dedup's one shape: ``ds`` executes once, into its blocks;
    one plain task per block runs ``wave_fn(block, *args)`` (a table
    carrying ``text_md5_i64``, and its ``block_meta``); one bucket
    shuffle of those tables on ``text_md5_i64``, sized by their row
    counts, runs ``per_bucket``. Returns a Dataset over the parts. No
    Ray Data operator runs after the read."""
    wave = task(wave_fn, num_returns=2)
    blocks = gather([wave.remote(ref, *args) for ref, _ in dataset_blocks(ds)])
    n_rows = sum(meta.num_rows for _, meta in blocks)
    return blocks_dataset(shuffle_blocks(
        blocks, key_buckets("text_md5_i64", _coarse_bucket_count(n_rows)), per_bucket))


def _partial_groups(block, id_col: str, text_col: str) -> tuple:
    """One task of exact dedup's partial wave: a block -> (one row per
    distinct text in it: ``text_md5``, ``text_md5_i64``, the minimum id
    ``pmin`` and the row count ``pcnt``; that table's ``block_meta``)."""
    import pyarrow.compute as pc
    from ray.data.block import BlockAccessor

    t = md5_batch(BlockAccessor.for_block(block).to_arrow(), text_col)
    g = t.group_by(["text_md5", "text_md5_i64"]).aggregate(
        [(id_col, "min"), (id_col, "count", pc.CountOptions(mode="all"))])
    out = pa.table({"text_md5": g["text_md5"], "text_md5_i64": g["text_md5_i64"],
                    "pmin": pc.cast(g[id_col + "_min"], pa.int64()),
                    "pcnt": g[id_col + "_count"]})
    return out, block_meta(out)


def exact_dedup_groups(ds, id_col: str = "doc_id", text_col: str = "text"):
    """-> Dataset(text_md5, keep_id, n_dups): one row per distinct text,
    keeping the minimum id. One plain task per block partial-aggregates
    it (``_partial_groups``), then one bucket shuffle on the hash
    combines the partials (min of the minimum ids, sum of the counts)."""

    def combine(_bucket: int, t: pa.Table) -> pa.Table:
        g = t.group_by("text_md5").aggregate([("pmin", "min"), ("pcnt", "sum")])
        return pa.table({"text_md5": g["text_md5"], "keep_id": g["pmin_min"],
                         "n_dups": g["pcnt_sum"]})

    return _shuffle_on_md5(_partial_groups, ds, (id_col, text_col), combine)


def _md5_block(block, text_col: str) -> tuple:
    """One task of exact dedup's hash wave: a block -> (the block as
    Arrow with ``md5_batch``'s two hash columns, its ``block_meta``)."""
    from ray.data.block import BlockAccessor

    out = md5_batch(BlockAccessor.for_block(block).to_arrow(), text_col)
    return out, block_meta(out)


def distinct_rows(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Exact dedup keeping whole rows: the row with the minimum id of
    each distinct text (by md5), plus its ``text_md5`` and
    ``text_md5_i64`` columns. Rows come out in bucket order.

    One plain task per block hashes it (``_md5_block``), and one bucket
    shuffle of the hashed rows brings every copy of a text to one
    bucket, which sorts its rows by (``text_md5``, id) and keeps the
    first of each hash: one sort per bucket, not a grouped UDF per text
    (~1-2 ms of frame overhead per group, ~15 s at 100k distinct texts,
    measured). No key set reaches the driver, only the parts' block
    metadata. A row repeated whole (same id, same text) keeps one copy,
    wherever its copies sit."""
    import pyarrow.compute as pc

    def first_per_text(_bucket: int, t: pa.Table) -> pa.Table:
        t = t.sort_by([("text_md5", "ascending"), (id_col, "ascending")])
        md5 = t.column("text_md5").combine_chunks()
        keep = np.ones(t.num_rows, dtype=bool)
        keep[1:] = pc.not_equal(md5[1:], md5[:-1]).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(keep))

    return _shuffle_on_md5(_md5_block, ds, (text_col,), first_per_text)


def filter_out_ids(ds, drop_ids_ds, id_col: str = "doc_id"):
    """Anti-join: remove the rows whose id appears in ``drop_ids_ds``
    (e.g. the near-dup drop list; only its ``id_col`` is read). One
    bucketed anti-join (stages/joins.bucketed_anti_join) keeps both
    sides distributed, so a drop set as large as the corpus never
    reaches the driver. An empty drop set returns ``ds`` as it is,
    with no shuffle."""
    from .joins import bucketed_anti_join

    if not dataset_blocks(drop_ids_ds):
        return ds
    return bucketed_anti_join(ds, drop_ids_ds, id_col)


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

    # (num_perm, shingles) affine slab: 1024 shingles x 64 perms x 8 B
    # = 512 KB, so its two buffers fit a core's 2 MB L2. At 32 MB (the
    # old 1<<16) sixteen concurrent signature tasks thrashed DRAM and
    # each ran 12 s, against 0.7 s at 2 MB (1<<12, a 9.4k-doc block);
    # on one 2,525-doc block ``_affine_minima`` took 35-38 ms at 1<<10,
    # 37-41 at 1<<9, 40-42 at 1<<11 and 46-47 at 1<<12, alone and with
    # 4 processes at once.
    _SHINGLE_SLAB = 1 << 10

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


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64."""
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


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


def _emit_pairs_bulk(t: pa.Table, bkey_col: str, id_col: str,
                     bucket_cap: int, extra_cols: list[str]) -> pa.Table:
    """ALL within-bucket pairs for EVERY bucket in ``t``, in one
    vectorized pass over an Arrow table: the rows whose key repeats,
    sorted by (bucket key, id), then segment arithmetic over the bucket
    sizes; no per-bucket Python and no pandas frame.

    All pairs, not just bucket-min pairs: an LSH false positive as the
    bucket minimum must not hide true pairs among the other members.
    Deterministic cap: members sorted by id (string ids in byte order),
    a repeated (key, id) row kept once, first ``bucket_cap`` kept, so a
    degenerate bucket costs O(cap^2) not O(n^2). Returns (id_a, id_b,
    each extra column's ``_a`` then its ``_b`` copy), gathered with
    ``take``; pairs come out bucket by bucket, each bucket's in
    ``np.triu_indices`` order."""
    import pyarrow.compute as pc

    # only a key on two or more rows can pair: at LSH rates most band
    # keys sit on one row, and those rows leave before the two-key sort
    keys = t.column(bkey_col).to_numpy()
    o = np.argsort(keys)
    twin = keys[o[1:]] == keys[o[:-1]]
    shared = np.zeros(len(keys), dtype=bool)
    shared[o[1:][twin]] = shared[o[:-1][twin]] = True
    t = t.filter(shared).sort_by([(bkey_col, "ascending"), (id_col, "ascending")])
    keys = t.column(bkey_col).to_numpy()
    ids = t.column(id_col).combine_chunks()
    # the first row of each (key, id) run: the sort is stable, so that
    # is a repeated row's first occurrence
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]) | pc.not_equal(ids[1:], ids[:-1]).to_numpy(
        zero_copy_only=False)
    pos = np.flatnonzero(new)
    keys = keys[pos]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    m = np.minimum(np.diff(np.r_[starts, len(keys)]), bucket_cap)
    # one "row" per (bucket, first member i): i pairs with i+1 .. m-1
    rows = np.maximum(m - 1, 0)
    bucket = np.repeat(np.arange(len(m)), rows)
    first = _seg_arange(rows)
    row_len = m[bucket] - 1 - first
    ia = np.repeat(starts[bucket] + first, row_len)
    sides = {"a": pa.array(pos[ia]), "b": pa.array(pos[ia + 1 + _seg_arange(row_len)])}
    out = {"id_" + s: ids.take(i) for s, i in sides.items()}
    for s, i in sides.items():
        out.update(("%s_%s" % (c, s), t.column(c).take(i)) for c in extra_cols)
    return pa.table(out)


def _first_pairs(t: pa.Table) -> pa.Table:
    """The rows of ``t`` holding each (id_a, id_b) pair's first
    occurrence, in order: one dictionary over both id columns gives
    every id a code, and a pair its two codes' one int64 key."""
    ids = pa.concat_arrays([t.column(c).combine_chunks() for c in ("id_a", "id_b")])
    codes = ids.dictionary_encode()
    code = codes.indices.to_numpy().astype(np.int64)
    n = t.num_rows
    _, first = np.unique(code[:n] * len(codes.dictionary) + code[n:], return_index=True)
    return t if len(first) == n else t.take(np.sort(first))


def _band_pair_rows(bands: list, bkey_col: str, id_col: str, n_rows: int, *,
                    extra_cols=(), bucket_cap: int = 256, pair_filter=None) -> list:
    """The candidate emit shuffle over band blocks: one bulk emit per
    coarse bucket of band rows on ``mix(bkey) % B`` (~1M rows each),
    then the bucket's pair dedup (:func:`_first_pairs`). Returns the
    parts. Pairs are distinct within a bucket only: a pair that collides
    in bands hashing to different buckets comes out once per such
    bucket (:func:`_distinct_pairs` keeps one). ``pair_filter(table)``
    (optional, e.g. the Hamming test) runs inside the emit, so rejected
    pairs never shuffle further."""

    def emit_bucket(_bucket: int, t: pa.Table) -> pa.Table:
        # holds every collision bucket whose bkey hashes here
        out = _emit_pairs_bulk(t, bkey_col, id_col, bucket_cap, extra_cols)
        if pair_filter is not None:
            out = pair_filter(out)
        return _first_pairs(out)

    return shuffle_blocks(bands, key_buckets(bkey_col, _coarse_bucket_count(n_rows)),
                          emit_bucket)


def _distinct_pairs(parts: list, n_rows: int) -> list:
    """The parts of :func:`_band_pair_rows` over ``n_rows`` band rows,
    each pair once: one bucket shuffle on ``mix(id_a, id_b) % B`` (B
    the emit's coarse bucket count, not one group per pair) keeping
    each pair's first row (:func:`_first_pairs`). ``near_dup_pairs``
    needs no such step: its verify drops repeated pairs in a shuffle it
    runs anyway."""
    nbb = _coarse_bucket_count(n_rows)

    def pair_buckets(t: pa.Table) -> np.ndarray:
        return mix_buckets(nbb, _id_hash_u64(t.column("id_a")),
                           _id_hash_u64(t.column("id_b")))

    return shuffle_blocks(parts, pair_buckets, lambda _bucket, t: _first_pairs(t))


def _coarse_bucket_count(n_rows: int) -> int:
    """Coarse shuffle-bucket count for the candidate shuffles: ~1M band
    rows per bucket so a bucket's rows fit a worker, floored at 32 so
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


def _pair_halves(block, id_col: str) -> tuple:
    """One task of the verify: a block of pairs (a, b) -> (its halves,
    keyed on doc a and on doc b in ``id_col``; their ``block_meta``)."""
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    a, b = t.column("id_a").to_numpy(), t.column("id_b").to_numpy()
    h = pa.table({id_col: np.concatenate([a, b]), "id_a": np.tile(a, 2),
                  "id_b": np.tile(b, 2)})
    return h, block_meta(h)


def _verify_blocks(pairs: list, docs: list, *, id_col: str, text_col: str,
                   threshold: float, shingle_k: int, num_buckets: int) -> list:
    """Distributed exact-Jaccard verification of candidate pairs in two
    bucket shuffles, with no per-pair group dispatch (a pandas group
    per pair costs 1-2 ms of frame overhead, hours of pure dispatch at
    10^10-doc candidate rates). ``pairs`` (blocks of (id_a, id_b)) and
    ``docs`` (the corpus, exactly (``id_col``, ``text_col``), one row
    per id) are ``(ref, block_meta)`` blocks:

    - Attach: each pair (a, b), a != b, splits into two halves keyed on
      doc a and on doc b (one plain task per block of pairs), and one
      two-sided shuffle on that key brings every half to its doc: the
      corpus moves once. All copies of a half land in one bucket, so
      dropping duplicate halves there dedups pairs repeated across
      bands or emit buckets (``pairs`` need not be distinct). Each
      referenced doc is shingled once per bucket (sorted unique
      ``shingle_hashes``).
    - Combine: a shuffle on the pair brings its two halves together and
      one ``_jaccard_sorted_merge`` per bucket scores every pair.

    Returns the parts of (id_a, id_b, jaccard), id_a the smaller id,
    for pairs passing ``threshold``; no part when there is no pair. A
    pair with a side missing from the corpus drops."""
    import pyarrow.compute as pc

    if not any(meta.num_rows for _, meta in pairs):
        return []
    sets_type = pa.large_list(pa.uint64())

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

    # keyed on id_col, so one bucket_of serves both shuffle sides
    halve = task(_pair_halves, num_returns=2)
    halves = gather([halve.remote(ref, id_col) for ref, meta in pairs if meta.num_rows])
    attached = shuffle_blocks((halves, docs), key_buckets(id_col, num_buckets), attach)
    return shuffle_blocks(attached, pair_buckets, row_jaccard)


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
                      id_col: str = "doc_id", bucket_cap: int = 256,
                      # ignored: near-dup has one path; kept because
                      # perfbench/workloads.py still passes it
                      small_threshold: int | None = None):
    """Full near-dup pipeline -> (Dataset(doc_id, dup_of) for docs whose
    verified Jaccard >= threshold with a lower-id doc, stats dict:
    ``near_dup_pairs``' stats plus ``dups``, the dup map's rows).

    Every stage is distributed, as plain tasks over the corpus blocks
    (``near_dup_pairs``): signatures and band rows (one task per block,
    over warm worker processes) -> candidate pairs (coarse-bucketed
    shuffle, all-pairs with cap) -> exact-Jaccard verify (pair halves
    meet their docs in one corpus shuffle, which also drops repeated
    pairs; a pair shuffle then runs one sorted-merge Jaccard per
    bucket). Only the verified pair list — the actual result — reaches
    the driver, for the union-find component labels; the dup map is one
    block put from the driver."""
    import ray

    verified, stats = near_dup_pairs(
        ds, num_perm=num_perm, num_bands=num_bands, shingle_k=shingle_k,
        threshold=threshold, id_col=id_col, bucket_cap=bucket_cap)
    keep = list(zip(verified["id_a"].astype("int64"),
                    verified["id_b"].astype("int64")))
    rows = [(d, r) for d, r in components_from_pairs(keep) if d != r]
    # one block, typed even when empty (from_items makes a block per row)
    dup = pa.table({id_col: pa.array([d for d, _ in rows], pa.int64()),
                    "dup_of": pa.array([r for _, r in rows], pa.int64())})
    return blocks_dataset([(ray.put(dup), block_meta(dup))]), dict(stats, dups=len(rows))


def _pairs_frame(parts: list, score: str, *, id_dtype: str = "int64",
                 score_dtype: str = "float64") -> pd.DataFrame:
    """The rows of pair parts (``(ref, block_meta)``, as the shuffles
    return them) whose metadata counts rows, read from their refs, in
    part order; typed (id_a ``id_dtype``, id_b ``id_dtype``, ``score``
    ``score_dtype``) also when there is no row."""
    import ray
    from ray.data.block import BlockAccessor

    frames = [BlockAccessor.for_block(b).to_pandas()
              for b in ray.get([ref for ref, meta in parts if meta.num_rows])]
    if frames:
        return pd.concat(frames, ignore_index=True)
    return pd.DataFrame({"id_a": pd.Series([], dtype=id_dtype),
                         "id_b": pd.Series([], dtype=id_dtype),
                         score: pd.Series([], dtype=score_dtype)})


def _signature_block(block, id_col: str, num_perm: int, shingle_k: int,
                     num_bands: int) -> tuple:
    """One task of near-dup's signature wave: a corpus block -> (its
    (id, text) projection, ``None`` when the block is an Arrow table of
    exactly those columns already; its band rows; (that as-is flag, the
    projection's and the band rows' ``block_meta``))."""
    from ray.data.block import BlockAccessor

    as_is = isinstance(block, pa.Table) and block.column_names == [id_col, "text"]
    docs = BlockAccessor.for_block(block).to_arrow().select([id_col, "text"])
    bands = lsh_band_rows(minhash_sig_batch(docs, num_perm, shingle_k),
                          num_bands, id_col)
    return None if as_is else docs, bands, (as_is, block_meta(docs), block_meta(bands))


def near_dup_pairs(ds, *, num_perm: int = 64, num_bands: int = 16,
                   shingle_k: int = 3, threshold: float = 0.8,
                   id_col: str = "doc_id", bucket_cap: int = 256):
    """The MinHash+LSH pipeline up to (and including) the exact-Jaccard
    verify: returns (verified pairs DataFrame(id_a, id_b, jaccard),
    stats dict). The verified pair list is the job's output-sized
    result, so it lands on the driver; callers needing components feed
    it to components_from_pairs (the driver union-find, as
    minhash_lsh_dedup does) or, as a Dataset, to
    stages.components.connected_components (no label on the driver).

    ``ds`` executes once, into its blocks (``dataset_blocks``); from
    there on no Ray Data operator runs, only plain tasks and the object
    store. One signature task per block projects it to (id, text) — a
    block of exactly those columns is the corpus as it is, no copy —
    and computes its signatures and band rows together (the signatures
    never leave the task); each task returns its blocks' ``block_meta``
    beside them, which the driver sums. Three bucket shuffles follow
    over those blocks: the candidate emit (``_band_pair_rows``, pairs
    not yet distinct) and the two of ``_verify_blocks``; each skips the
    empty parts of the one before.

    The stats: ``docs``, ``band_rows``, ``candidate_rows`` (emitted
    pair rows; a pair repeats once per emit bucket it collides in),
    ``verified_pairs``, and the wall seconds of each phase: ``read_s``
    (running ``ds`` into its blocks), ``signature_s`` (signatures +
    band rows), ``emit_s`` (candidate pairs) and ``verify_s``."""
    import time

    t0 = time.perf_counter()
    blocks = dataset_blocks(ds)
    t1 = time.perf_counter()
    sign = task(_signature_block, num_returns=3)
    corpus, bands = [], []
    for (ref, _), (docs, band, (as_is, docs_meta, band_meta)) in zip(blocks, gather([
            sign.remote(ref, id_col, num_perm, shingle_k, num_bands) for ref, _ in blocks])):
        corpus.append((ref if as_is else docs, docs_meta))
        bands.append((band, band_meta))
    n_rows = sum(meta.num_rows for _, meta in bands)
    t2 = time.perf_counter()
    pairs = _band_pair_rows(bands, "bkey", id_col, n_rows, bucket_cap=bucket_cap)
    t3 = time.perf_counter()
    # repeated pairs are fine: the verify's attach shuffle drops them
    verified = _pairs_frame(_verify_blocks(
        pairs, corpus, id_col=id_col, text_col="text", threshold=threshold,
        shingle_k=shingle_k, num_buckets=8), "jaccard")
    t4 = time.perf_counter()
    return verified, {
        "docs": sum(meta.num_rows for _, meta in corpus), "band_rows": n_rows,
        "candidate_rows": sum(meta.num_rows for _, meta in pairs),
        "verified_pairs": len(verified), "read_s": t1 - t0,
        "signature_s": t2 - t1, "emit_s": t3 - t2, "verify_s": t4 - t3}


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

class SimHasher:
    """64-bit SimHash over word tokens (public Charikar construction).
    One instance per worker process and token hash
    (``_chunk_block``'s cache, run by stateless tasks): the
    token-hash cache lives for the process's lifetime; the bit-vote
    accumulation is one vectorized (n_toks, 64) reduction."""

    _SHIFTS = np.arange(64, dtype=np.uint64)

    def __init__(self, tok_hash: str = "blake2b"):
        # the hash primitive is a named choice (not a callable): the
        # worker cache keys on it
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


# worker-process SimHasher cache, one per token hash (as _MINHASHER_CACHE:
# an actor pool per call cost 1.5-2 s of startup on 2,000 docs)
_SIMHASHER_CACHE: dict = {}


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


def _chunk_block(block, sig_col: str, id_col: str, n_chunks: int,
                 tok_hash: str | None) -> tuple:
    """One task of the Hamming families' chunk wave: a block -> (its
    ``sig_chunk_rows``, their ``block_meta``). With a ``tok_hash`` the
    task first signs the block's texts with that SimHasher (into
    ``simhash``), as ``_signature_block`` signs and bands for MinHash:
    the signatures never leave the task."""
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    if tok_hash is not None:
        sh = _SIMHASHER_CACHE.get(tok_hash)
        if sh is None:
            sh = _SIMHASHER_CACHE[tok_hash] = SimHasher(tok_hash)
        t = sh(t)
    out = sig_chunk_rows(t, sig_col=sig_col, id_col=id_col, n_chunks=n_chunks)
    return out, block_meta(out)


def _hamming_pairs(ds, *, sig_col: str, id_col: str, max_hamming: int,
                   bucket_cap: int, tok_hash: str | None) -> pd.DataFrame:
    """``banded_hamming_pairs``, whose chunk tasks first sign ``ds``'s
    texts with SimHash when ``tok_hash`` is given (``sig_col`` is then
    ``simhash``)."""
    if max_hamming > 7:
        raise ValueError("banded_hamming_pairs supports max_hamming <= 7 "
                         "(8 chunks of 8 bits); got %d" % max_hamming)
    n_chunks = 4 if max_hamming <= 3 else 8
    chunk = task(_chunk_block, num_returns=2)
    chunks = gather([chunk.remote(ref, sig_col, id_col, n_chunks, tok_hash)
                     for ref, _ in dataset_blocks(ds)])
    n_rows = sum(meta.num_rows for _, meta in chunks)

    def ham_filter(t: pa.Table) -> pa.Table:
        d = hamming64_arrays(t.column("sig_a").to_numpy().astype(np.uint64),
                             t.column("sig_b").to_numpy().astype(np.uint64))
        keep = d <= max_hamming
        return pa.table({"id_a": t.column("id_a").filter(keep),
                         "id_b": t.column("id_b").filter(keep), "hamming": d[keep]})

    emitted = _band_pair_rows(chunks, "bkey", id_col, n_rows, extra_cols=["sig"],
                              bucket_cap=bucket_cap, pair_filter=ham_filter)
    out = _pairs_frame(_distinct_pairs(emitted, n_rows), "hamming",
                       id_dtype="object", score_dtype="int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def banded_hamming_pairs(ds, *, sig_col: str, id_col: str, max_hamming: int,
                         bucket_cap: int = 256) -> pd.DataFrame:
    """Distributed near-dup pairs by signature hamming distance (used by
    SimHash text near-dup and pHash image near-dup): a DataFrame of
    (id_a, id_b, hamming), id_a the smaller id, sorted by the pair
    (ids typed ``object`` when there is no pair).

    Chunk count adapts to the threshold: pigeonhole requires
    ``n_chunks >= max_hamming + 1`` (8x8-bit chunks cover hamming<=7;
    4x16-bit only covers <=3 — using 4 chunks at hamming 6 silently
    loses pairs whose differing bits span all four chunks).
    Hamming verification runs inside the emit group (vectorized LUT
    popcount), so non-qualifying pairs never shuffle. ``ds`` executes
    once, into its blocks; from there one ``_chunk_block`` task per
    block, the band emit and ``_distinct_pairs`` run as plain tasks and
    shuffles over block refs, no Ray Data operator."""
    return _hamming_pairs(ds, sig_col=sig_col, id_col=id_col,
                          max_hamming=max_hamming, bucket_cap=bucket_cap,
                          tok_hash=None)


def simhash_near_dups(ds, *, max_hamming: int = 3, id_col: str = "doc_id",
                      tok_hash: str = "blake2b") -> pd.DataFrame:
    """SimHash near-dup pairs (id_a, id_b, hamming), all int64, fully
    distributed (see banded_hamming_pairs for the banding + verify
    discipline). Each block's chunk task signs its texts
    (``_chunk_block``), so no signed copy of the input is written.
    ``tok_hash`` picks the token-hash primitive ('md5le' makes the
    signatures DuckDB-reproducible for oracle checking)."""
    pairs = _hamming_pairs(ds, sig_col="simhash", id_col=id_col,
                           max_hamming=max_hamming, bucket_cap=256,
                           tok_hash=tok_hash)
    return pairs.astype({"id_a": "int64", "id_b": "int64"})


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

    parts = shuffle_blocks(dataset_blocks(ds),
                           HyperplaneBucketer(vec_col, num_planes, seed), emit_pairs,
                           batch_format="pandas")
    return _pairs_frame(parts, "cosine")
