"""Similarity search over embedding columns (list<float>).

- :func:`brute_topk` — exact cosine top-k: every batch does one numpy
  matmul against the BROADCAST query matrix (ray.put once; each worker
  process resolves and caches it once) and emits its batch-local top-k.
  Only those (query, candidate, score) triples, k per query per batch,
  reach the driver, which merges them into the global top-k (as
  ``partial_then_combine`` does in pipelines/queries.py); nothing
  shuffles.
- :func:`ivf_topk` — the scale path: k-means-lite centroids (sampled,
  driver-side numpy), vectors assigned to their nearest centroid once
  (a partitioning key!), queries probe only ``nprobe`` nearest lists;
  its per-batch top-k merge the same way.

Both run as stateless tasks, not actor pools: the only per-stage state
is the broadcast matrix, which the worker-process cache amortizes just
as well — and a task stage can never deadlock a small CPU budget the
way a min-size actor pool feeding an all-to-all can.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# broadcast objects resolved once per worker process (not once per task)
_BCAST_CACHE: dict = {}


def _resolve(ref):
    if not hasattr(ref, "hex"):
        return ref
    import ray

    key = ref.hex()
    val = _BCAST_CACHE.get(key)
    if val is None:
        if len(_BCAST_CACHE) > 8:
            _BCAST_CACHE.clear()
        val = ray.get(ref)
        _BCAST_CACHE[key] = val
    return val


def _as_matrix(col, dtype=np.float32) -> np.ndarray:
    """Embedding column -> (n, d) matrix. Zero-copy flatten+reshape for
    fixed-size-list columns and for plain list columns whose rows are
    uniform-width (the common Arrow layouts); the to_pylist fallback
    only runs for ragged input."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_fixed_size_list(t) and col.null_count == 0:
        flat = col.flatten().to_numpy(zero_copy_only=False)
        return flat.reshape(len(col), t.list_size).astype(dtype, copy=False)
    if (pa.types.is_list(t) or pa.types.is_large_list(t)) and col.null_count == 0:
        offsets = col.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offsets)
        if len(widths) and (widths == widths[0]).all() and widths[0] > 0:
            flat = col.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(len(col), int(widths[0])).astype(dtype, copy=False)
    return np.asarray(col.to_pylist(), dtype=dtype)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1
    return m / n


def _batch_topk(batch: pa.Table, q_ref, k: int, id_col: str, vec_col: str,
                dtype) -> pa.Table:
    """Batch-local exact top-k vs the broadcast (pre-normalized) queries."""
    q = _resolve(q_ref)
    ids = batch.column(id_col).combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.int64, copy=False)
    if len(ids) == 0:
        return pa.table({"query_id": pa.array([], type=pa.int64()),
                         "vec_id": pa.array([], type=pa.int64()),
                         "score": pa.array([], type=pa.float64())})
    vecs = _normalize(_as_matrix(batch.column(vec_col), dtype))
    sims = q @ vecs.T  # (nq, nb)
    k = min(k, sims.shape[1])
    top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    nq = sims.shape[0]
    qid = np.repeat(np.arange(nq, dtype=np.int64), k)
    vid = ids[top.ravel()]
    score = sims[np.arange(nq)[:, None], top].ravel()
    return pa.table(
        {
            "query_id": pa.array(qid),
            "vec_id": pa.array(vid),
            "score": pa.array(score.astype(np.float64)),
        }
    )


def _merge_topk(partials, k: int) -> pd.DataFrame:
    """The per-batch top-k triples -> DataFrame(query_id, vec_id, score,
    rank): the global top-k per query by (score desc, vec_id), merged on
    the driver."""
    df = partials.to_pandas().sort_values(["query_id", "score", "vec_id"],
                                          ascending=[True, False, True])
    df = df.groupby("query_id", sort=False).head(k).reset_index(drop=True)
    df["rank"] = df.groupby("query_id").cumcount().astype("int64") + 1
    return df


def brute_topk(ds, queries: np.ndarray, k: int = 10, *, id_col: str = "vec_id",
               vec_col: str = "embedding", dtype=np.float32) -> pd.DataFrame:
    """-> DataFrame(query_id, vec_id, score, rank), global exact top-k.
    dtype=float64 when bit-stable ranking vs a float64 oracle matters;
    float32 (default) halves bandwidth at scale."""
    import ray

    q_ref = ray.put(_normalize(np.asarray(queries, dtype=dtype)))
    partials = ds.map_batches(
        _batch_topk, fn_args=(q_ref, k, id_col, vec_col, dtype),
        batch_format="pyarrow",
    )
    return _merge_topk(partials, k)


def kmeans_lite(sample: np.ndarray, n_clusters: int, iters: int = 10,
                seed: int = 11) -> np.ndarray:
    """Plain numpy Lloyd's on a driver-side sample (centroids are tiny)."""
    rng = np.random.default_rng(seed)
    x = _normalize(sample.astype(np.float32))
    idx = rng.choice(len(x), size=min(n_clusters, len(x)), replace=False)
    c = x[idx].copy()
    for _ in range(iters):
        assign = np.argmax(x @ c.T, axis=1)
        for j in range(len(c)):
            members = x[assign == j]
            if len(members):
                m = members.mean(axis=0)
                n = np.linalg.norm(m)
                if n > 0:
                    c[j] = m / n
    return c


def _assign_and_search(batch: pa.Table, c_ref, q: np.ndarray,
                       probe_lists: list, k: int, id_col: str,
                       vec_col: str) -> pa.Table:
    c = _resolve(c_ref)
    ids = batch.column(id_col).combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.int64, copy=False)
    if len(ids) == 0:
        return pa.table({"query_id": pa.array([], type=pa.int64()),
                         "vec_id": pa.array([], type=pa.int64()),
                         "score": pa.array([], type=pa.float64())})
    vecs = _normalize(_as_matrix(batch.column(vec_col)))
    assign = np.argmax(vecs @ c.T, axis=1)
    out_q, out_v, out_s = [], [], []
    for qi, plist in enumerate(probe_lists):
        mask = np.isin(assign, plist)
        if not mask.any():
            continue
        sims = vecs[mask] @ q[qi]
        kk = min(k, len(sims))
        top = np.argpartition(-sims, kk - 1)[:kk] if kk < len(sims) else np.arange(len(sims))
        out_q.extend([qi] * len(top))
        out_v.extend(ids[mask][top].tolist())
        out_s.extend(sims[top].astype(np.float64).tolist())
    return pa.table(
        {
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "score": pa.array(out_s, type=pa.float64()),
        }
    )


def ivf_topk(ds, queries: np.ndarray, k: int = 10, *, n_clusters: int = 16,
             nprobe: int = 4, id_col: str = "vec_id", vec_col: str = "embedding",
             sample_rows: int = 2048) -> pd.DataFrame:
    """IVF-flat ANN: assign each vector to its centroid (one pass), then
    search only the nprobe closest lists per query. The centroid id is
    the partitioning key a cluster deployment would co-locate on."""
    import ray

    # hash-spread centroid sample: a plain limit(sample_rows) sees only
    # the first blocks (first-id-range bias); instead every block keeps
    # ids whose splitmix64 hash falls in a 1/stride slice, so the
    # sample covers the whole id range regardless of block order
    n_total = ds.count()
    stride = max(1, n_total // sample_rows)

    def spread_pick(t: pa.Table) -> pa.Table:
        from ..stages.dedup import _splitmix64

        ids = t.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        keep = (_splitmix64(ids.view(np.uint64)) % np.uint64(stride)) == 0
        return t.filter(pa.array(keep))

    sample = np.asarray(
        ds.map_batches(spread_pick, batch_format="pyarrow")
        .limit(sample_rows).to_pandas()[vec_col].tolist(), dtype=np.float32
    )
    if len(sample) == 0:  # degenerate hash slice: fall back to head sample
        sample = np.asarray(
            ds.limit(sample_rows).to_pandas()[vec_col].tolist(),
            dtype=np.float32)
    centroids = kmeans_lite(sample, n_clusters)
    c_ref = ray.put(centroids)
    q = _normalize(np.asarray(queries, dtype=np.float32))
    probe = np.argsort(-(q @ centroids.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    probe_lists = [row.tolist() for row in probe]

    partials = ds.map_batches(
        _assign_and_search, fn_args=(c_ref, q, probe_lists, k, id_col, vec_col),
        batch_format="pyarrow",
    )
    return _merge_topk(partials, k)
