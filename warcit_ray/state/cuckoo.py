"""Cuckoo filter over uint64 key hashes — the approximate-membership
structure for the URL-seen set (north rule; cf. the cuckoo-filter
literature surveyed in PAPERS.md).

Parameters sized for the 10^10-key design point: 16-bit fingerprints,
4 slots/bucket, ~0.84 max load -> ~19 bits/key -> a 10^10-key seen set
is ~24 GB total, sharded across O(cluster) actors (e.g. 256 shards x
~95 MB). False-positive rate ~= 2*4/2^16 ~ 1.2e-4: a false positive
skips a URL (acceptable for crawl dedup); false negatives are
impossible, so the seen set never revisits.

The batch API is vectorized: membership probes are pure numpy gathers;
only genuinely-new keys take the per-key insert path.
"""

from __future__ import annotations

import numpy as np

_FP_MIX = np.uint64(0x5BD1E995)


class CuckooFilter:
    def __init__(self, capacity: int, seed: int = 7, max_kicks: int = 500,
                 fp_bits: int = 16):
        """``fp_bits``: fingerprint width. 16 (default) is the scale
        design point (~19 bits/key, fp ~1.2e-4 — a false positive skips
        one URL in ~8k, acceptable for crawl dedup). 32 doubles memory
        but drops the fp rate to ~2e-9 — used where exact visit-set
        equivalence is asserted."""
        nbuckets = 1
        while nbuckets * 4 * 0.84 < capacity:
            nbuckets <<= 1
        self.nbuckets = nbuckets
        self.mask = np.uint64(nbuckets - 1)
        self.fp_bits = fp_bits
        self._fp_dtype = np.uint16 if fp_bits <= 16 else np.uint32
        self._fp_mask = np.uint64((1 << fp_bits) - 1)
        self._fp_shift = np.uint64(64 - fp_bits)
        self.table = np.zeros((nbuckets, 4), dtype=self._fp_dtype)
        self.max_kicks = max_kicks
        self.count = 0
        self._rng = np.random.default_rng(seed)

    # -- hashing ---------------------------------------------------------

    def _fingerprints(self, h: np.ndarray) -> np.ndarray:
        fp = ((h >> self._fp_shift) & self._fp_mask).astype(self._fp_dtype)
        fp[fp == 0] = 1  # 0 marks an empty slot
        return fp

    def _i1(self, h: np.ndarray) -> np.ndarray:
        return (h & self.mask).astype(np.uint64)

    def _i2(self, i1: np.ndarray, fp: np.ndarray) -> np.ndarray:
        return ((i1 ^ (fp.astype(np.uint64) * _FP_MIX)) & self.mask).astype(np.uint64)

    # -- vectorized probe --------------------------------------------------

    def contains_batch(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=np.uint64)
        fp = self._fingerprints(h)
        i1 = self._i1(h)
        i2 = self._i2(i1, fp)
        t = self.table
        hit1 = (t[i1] == fp[:, None]).any(axis=1)
        hit2 = (t[i2] == fp[:, None]).any(axis=1)
        return hit1 | hit2

    # -- insert (per-key path only for new keys) --------------------------

    def _insert_one(self, i1: int, i2: int, fp: int) -> bool:
        for idx in (i1, i2):
            row = self.table[idx]
            empty = np.nonzero(row == 0)[0]
            if len(empty):
                row[empty[0]] = fp
                return True
        # evict loop
        idx = i1 if (self._rng.integers(2) == 0) else i2
        cur = self._fp_dtype(fp)
        for _ in range(self.max_kicks):
            slot = int(self._rng.integers(4))
            cur, self.table[idx, slot] = self.table[idx, slot], cur
            idx = int((np.uint64(idx) ^ (np.uint64(cur) * _FP_MIX)) & self.mask)
            row = self.table[idx]
            empty = np.nonzero(row == 0)[0]
            if len(empty):
                row[empty[0]] = cur
                return True
        raise RuntimeError("cuckoo filter full (capacity exceeded)")

    def _bulk_insert(self, fp: np.ndarray, i1: np.ndarray,
                     i2: np.ndarray) -> np.ndarray:
        """Vectorized placement of new keys into empty slots: each pass
        gathers the pending keys' candidate buckets, finds first empty
        slots, and scatters fingerprints with first-wins-per-bucket
        semantics (np.unique guards intra-batch bucket collisions; the
        loser retries next pass against the updated table). Keys that
        find no empty slot in either bucket after a few passes return
        as the remainder for the per-key eviction path (rare below the
        0.84 design load)."""
        pending = np.arange(len(fp))
        for _ in range(6):
            if not len(pending):
                break
            progress = False
            for buckets in (i1, i2):
                if not len(pending):
                    break
                b = buckets[pending]
                rows = self.table[b]
                slot = np.argmax(rows == 0, axis=1)
                has_empty = rows[np.arange(len(b)), slot] == 0
                _, first = np.unique(b, return_index=True)
                first_mask = np.zeros(len(b), dtype=bool)
                first_mask[first] = True
                ok = has_empty & first_mask
                if ok.any():
                    progress = True
                    self.table[b[ok], slot[ok]] = fp[pending[ok]]
                    pending = pending[~ok]
            if not progress:
                break
        return pending

    def add_if_absent_batch(self, h: np.ndarray) -> np.ndarray:
        """For each key: True if it was newly added (i.e. NOT seen
        before), False if already present. Duplicate keys within the
        batch count once (first occurrence wins)."""
        h = np.asarray(h, dtype=np.uint64)
        added = np.zeros(len(h), dtype=bool)
        if len(h) == 0:
            return added
        uniq, first_idx = np.unique(h, return_index=True)
        present = self.contains_batch(uniq)
        new_keys = uniq[~present]
        new_first = first_idx[~present]
        fp = self._fingerprints(new_keys)
        i1 = self._i1(new_keys)
        i2 = self._i2(i1, fp)
        rest = self._bulk_insert(fp, i1, i2)
        for k in rest:  # eviction path — rare below design load
            self._insert_one(int(i1[k]), int(i2[k]), int(fp[k]))
        self.count += len(new_keys)
        added[new_first] = True
        return added

    def expected_fp_skips(self) -> float:
        """Expected new keys wrongly reported present while the filter
        filled to ``count``: the i-th insert probed 2 buckets x 4 slots
        at load i/slots, each slot matching its nonzero fingerprint with
        probability 1/(2^fp_bits - 1); summed over i that is
        4 count^2 / (slots (2^fp_bits - 1))."""
        slots = self.nbuckets * 4
        return 4.0 * self.count * self.count / (slots * ((1 << self.fp_bits) - 1))

    def memory_bytes(self) -> int:
        return self.table.nbytes
