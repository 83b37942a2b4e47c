"""Dedup-stack unit tests: distributed candidate generation (skew,
caps), banding coverage (pigeonhole), pair-emit completeness, blocked
cosine verification, union-find labels."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from warcit_ray.stages.dedup import (
    HyperplaneBucketer,
    SimHasher,
    _band_pair_rows,
    _blocked_cosine_pairs,
    _distinct_pairs,
    _emit_pairs_bulk,
    _first_pairs,
    _pairs_frame,
    _verify_blocks,
    banded_hamming_pairs,
    components_from_pairs,
    embedding_near_dups,
    hamming64,
    hamming64_arrays,
    lsh_band_rows,
    minhash_lsh_dedup,
    minhash_sig_batch,
    near_dup_pairs,
    shingle_hashes,
    sig_chunk_rows,
    simhash_near_dups,
)


def _put_blocks(*tables):
    """Arrow tables as the ``(ref, block_meta)`` blocks the block functions take."""
    from warcit_ray.stages.shuffle import block_meta

    return [(ray.put(t), block_meta(t)) for t in tables]


def _candidate_pairs(bands, n_rows, bucket_cap=256):
    """The Hamming families' candidate path over band blocks: the emit
    shuffle, then the distinct-pair shuffle, read back as one frame."""
    emitted = _band_pair_rows(bands, "bkey", "doc_id", n_rows, bucket_cap=bucket_cap)
    return _pairs_frame(_distinct_pairs(emitted, n_rows), "unused")


def test_hamming64_arrays_matches_scalar():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 63, 200, dtype=np.int64)
    b = rng.integers(0, 1 << 63, 200, dtype=np.int64)
    got = hamming64_arrays(a.astype(np.uint64), b.astype(np.uint64))
    want = [hamming64(int(x), int(y)) for x, y in zip(a, b)]
    assert got.tolist() == want


def _emit_pairs_loop(df, bkey_col, id_col, cap, extra_cols):
    """Reference: every pair of each bucket's first ``cap`` members by id."""
    df = df.drop_duplicates([bkey_col, id_col]).sort_values([bkey_col, id_col])
    rows = []
    for _, g in df.groupby(bkey_col, sort=True):
        g = g.head(cap).to_dict("records")
        for i in range(len(g)):
            for j in range(i + 1, len(g)):
                row = {"id_a": g[i][id_col], "id_b": g[j][id_col]}
                row.update({"%s_a" % c: g[i][c] for c in extra_cols})
                row.update({"%s_b" % c: g[j][c] for c in extra_cols})
                rows.append(row)
    cols = ["id_a", "id_b"] + ["%s_a" % c for c in extra_cols] \
        + ["%s_b" % c for c in extra_cols]
    return pd.DataFrame(rows, columns=cols)


@pytest.mark.parametrize("string_ids", [False, True])
def test_emit_pairs_bulk_matches_loop(string_ids):
    cap = 6
    rng = np.random.default_rng(3)
    sizes = {11: 1, 7: 2, -4: cap, 3: cap + 5, 99: 1}  # bkey -> members
    bkeys = np.concatenate([np.full(n, k) for k, n in sizes.items()])
    ids = rng.permutation(len(bkeys)) * 10
    df = pd.DataFrame({"bkey": bkeys, "doc": ids, "sig": ids * 7 + 1})
    df = pd.concat([df, df.iloc[[0, 5]]]).sample(frac=1, random_state=1)
    extra = []
    if string_ids:
        df["doc"] = ["img-%05d" % i for i in df["doc"]]
        extra = ["sig"]
    t = pa.Table.from_pandas(df, preserve_index=False)
    got = _emit_pairs_bulk(t, "bkey", "doc", cap, extra).to_pandas()
    want = _emit_pairs_loop(df, "bkey", "doc", cap, extra)
    assert len(want) == 1 + 2 * cap * (cap - 1) // 2
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    empty = _emit_pairs_bulk(t.slice(0, 0), "bkey", "doc", cap, extra)
    assert empty.column_names == list(want.columns) and empty.num_rows == 0


@pytest.mark.parametrize("string_ids", [False, True])
def test_first_pairs_keeps_first_occurrences(string_ids):
    # the emit's and _distinct_pairs' pair dedup equals pandas'
    # drop_duplicates on (id_a, id_b): first row of each pair, in order
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, 6, 300), rng.integers(0, 6, 300)
    df = pd.DataFrame({"id_a": a, "id_b": b, "hamming": np.arange(300)})
    if string_ids:
        df["id_a"] = ["img%d" % i for i in a]
        df["id_b"] = ["img%d" % i for i in b]
    got = _first_pairs(pa.Table.from_pandas(df, preserve_index=False)).to_pandas()
    want = df.drop_duplicates(["id_a", "id_b"]).reset_index(drop=True)
    assert len(want) == 36
    pd.testing.assert_frame_equal(got, want)
    empty = _first_pairs(pa.Table.from_pandas(df.iloc[:0], preserve_index=False))
    assert empty.num_rows == 0 and empty.column_names == list(df.columns)


def test_components_from_pairs():
    rows = components_from_pairs([(5, 3), (3, 1), (10, 11), (7, 7)])
    labels = dict(rows)
    assert labels[5] == 1 and labels[3] == 1 and labels[1] == 1
    assert labels[11] == 10 and labels[10] == 10


def test_banding_covers_hamming_6_across_chunks(ray_session):
    # Two sigs differing in 6 bits spread over ALL four 16-bit chunks:
    # the old 4x16 banding could never bucket them together; the
    # 8x8-bit banding (pigeonhole for <=7) must find the pair.
    base = 0x0123456789ABCDEF
    diff = base ^ (1 << 0) ^ (1 << 1) ^ (1 << 17) ^ (1 << 33) ^ (1 << 49) ^ (1 << 50)
    assert hamming64(base, diff) == 6
    ds = rd.from_items([
        {"doc_id": 1, "sig": base - (1 << 64) if base >= 1 << 63 else base},
        {"doc_id": 2, "sig": diff - (1 << 64) if diff >= 1 << 63 else diff},
        {"doc_id": 3, "sig": 0},
    ])
    pairs = banded_hamming_pairs(ds, sig_col="sig", id_col="doc_id", max_hamming=6)
    assert [(1, 2, 6)] == list(
        pairs[["id_a", "id_b", "hamming"]].itertuples(index=False, name=None))


def test_banding_rejects_unsupported_threshold(ray_session):
    ds = rd.from_items([{"doc_id": 1, "sig": 0}])
    with pytest.raises(ValueError):
        banded_hamming_pairs(ds, sig_col="sig", id_col="doc_id", max_hamming=9)


def test_all_pairs_emitted_not_just_bucket_min(ray_session):
    # doc 1 (bucket min) is an LSH false positive; docs 2 and 3 are the
    # true near-dup pair. Bucket-min-only pairing would miss (2, 3).
    far = 0x5555555555555555  # 32 bits away from 0
    ds = rd.from_items([
        {"doc_id": 1, "sig": far},
        {"doc_id": 2, "sig": 1},
        {"doc_id": 3, "sig": 3},
    ])
    # all three share the zero chunks in the upper bytes -> same buckets
    pairs = banded_hamming_pairs(ds, sig_col="sig", id_col="doc_id", max_hamming=6)
    assert (2, 3, 1) in list(
        pairs[["id_a", "id_b", "hamming"]].itertuples(index=False, name=None))


def test_hamming_filter_drops_chunk_sharing_pairs(ray_session):
    # "far" sigs share chunk 0 with a base sig but sit 12 bits away: the
    # emit pairs them, the Hamming pair_filter must drop them, and the
    # result equals a brute-force scan (string ids, two blocks)
    rng = np.random.default_rng(11)
    base = rng.integers(0, 1 << 63, 40, dtype=np.int64)

    def flip(s, n, low):
        for bit in rng.choice(np.arange(low, 63), n, replace=False):
            s ^= 1 << int(bit)
        return s

    sigs = (base.tolist() + [flip(int(s), 3, 0) for s in base[:20]]
            + [flip(int(s), 12, 8) for s in base[20:]])
    ids = ["img%03d" % i for i in rng.permutation(len(sigs))]
    t = pa.table({"image_id": ids, "phash": pa.array(sigs, pa.int64())})
    got = banded_hamming_pairs(rd.from_arrow([t.slice(0, 50), t.slice(50)]),
                               sig_col="phash", id_col="image_id", max_hamming=6)
    want = sorted((min(a, b), max(a, b), hamming64(x, y))
                  for i, (a, x) in enumerate(zip(ids, sigs))
                  for b, y in zip(ids[i + 1:], sigs[i + 1:]) if hamming64(x, y) <= 6)
    assert list(got.itertuples(index=False, name=None)) == want
    assert len(want) == 20 and set(got["hamming"]) == {3}
    rows = sig_chunk_rows(t, sig_col="phash", id_col="image_id", n_chunks=8)
    emitted = _band_pair_rows(_put_blocks(rows), "bkey", "image_id", rows.num_rows,
                              extra_cols=["sig"])
    cands = _pairs_frame(_distinct_pairs(emitted, rows.num_rows), "unused")
    assert len(cands) >= len(want) + 20  # every far pair was a candidate


def test_candidate_pairs_skewed_bucket_distributed(ray_session):
    # One bucket with 1e5 members: must complete without materializing
    # member rows on the driver, bounded by bucket_cap.
    n = 100_000
    bands = _put_blocks(pa.table({
        "bkey": pa.array(np.zeros(n, dtype=np.int64)),
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
    }))
    df = _candidate_pairs(bands, n, bucket_cap=64)
    assert len(df) == 64 * 63 // 2  # capped all-pairs
    assert df["id_a"].max() < 64 and df["id_b"].max() < 64


def test_candidate_pairs_paths_agree(ray_session):
    # the distributed candidate path equals one in-process bulk emit
    # over every band row plus the distinct-pair dedup, also when a doc
    # collides with another in several bands
    rng = np.random.default_rng(3)
    df = pd.DataFrame({"bkey": rng.integers(0, 50, 600),
                       "doc_id": np.tile(np.arange(300, dtype=np.int64), 2)})
    bands = _put_blocks(*(pa.Table.from_pandas(d, preserve_index=False)
                          for d in (df.iloc[:200], df.iloc[200:])))
    got = _candidate_pairs(bands, 600).sort_values(
        ["id_a", "id_b"]).reset_index(drop=True)
    want = _emit_pairs_bulk(pa.Table.from_pandas(df, preserve_index=False), "bkey",
                            "doc_id", 256, []).to_pandas().drop_duplicates(
        ["id_a", "id_b"]).sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert len(want) > len(want.drop_duplicates("id_a"))
    pd.testing.assert_frame_equal(got[["id_a", "id_b"]], want, check_dtype=False)


def test_minhash_distributed_matches_planted(ray_session):
    texts = ["alpha beta gamma delta epsilon zeta eta theta %d" % (i % 7)
             for i in range(60)]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    # exact-style dups: same text as doc 0
    rows.append({"doc_id": 1000, "text": texts[0]})
    rows.append({"doc_id": 1001, "text": texts[0] + " tail"})
    dup, _ = minhash_lsh_dedup(rd.from_items(rows), threshold=0.5)
    df = dup.to_pandas()
    got = dict(zip(df["doc_id"], df["dup_of"]))
    assert got.get(1000) == 0
    assert got.get(1001) == 0
    # LSH-path dup labels never point upward
    assert (df["dup_of"] < df["doc_id"]).all()


def test_minhash_dup_table_typed_with_or_without_dups(ray_session):
    # the dup map is one int64 table whether or not any dup was found,
    # and equals the in-process reference's
    texts = ["w%d alpha beta gamma delta epsilon" % i for i in range(30)]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    with_dup = rows + [{"doc_id": 100, "text": texts[0]}]
    got = [minhash_lsh_dedup(rd.from_items(r), threshold=0.9)[0]
           for r in (with_dup, rows)]
    assert [d.count() for d in got] == [1, 0]
    want = pa.schema([("doc_id", pa.int64()), ("dup_of", pa.int64())])
    tables = [pa.concat_tables(ray.get(d.to_arrow_refs())) for d in got]
    assert [t.schema for t in tables] == [want] * 2
    assert [d.schema().names for d in got] == [want.names] * 2
    assert tables[0].to_pylist() == [{"doc_id": 100, "dup_of": 0}]
    assert [_dup_map_ref(r, 0.9) for r in (with_dup, rows)] == [[(100, 0)], []]


def test_minhash_forced_large_path_same_result(ray_session):
    # the pipeline's dup map equals the in-process reference's, and a
    # small_threshold (accepted and ignored) does not change it
    rows = [{"doc_id": i, "text": "w%d x y z common tokens here" % (i % 5)}
            for i in range(40)]
    d1, _ = minhash_lsh_dedup(rd.from_items(rows), threshold=0.6)
    d2, _ = minhash_lsh_dedup(rd.from_items(rows), threshold=0.6,
                              small_threshold=0)
    p1 = d1.to_pandas().sort_values("doc_id").reset_index(drop=True)
    p2 = d2.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(p1, p2)
    want = _dup_map_ref(rows, 0.6)
    assert len(want) >= 35  # every repeat of a text at least
    assert list(p1.itertuples(index=False, name=None)) == want


def _blocks(rows, n):
    """``rows`` as a Dataset of ``n`` Arrow blocks, in order."""
    step = -(-len(rows) // n)
    return rd.from_arrow([pa.Table.from_pylist(rows[i:i + step])
                          for i in range(0, len(rows), step)])


def _distinct_ref(rows):
    """pandas reference of ``distinct_rows``: the row with the minimum
    id of each text, one copy, sorted by id."""
    df = pd.DataFrame(rows).sort_values(["text", "doc_id"], kind="stable")
    return (df.drop_duplicates("text").sort_values("doc_id", kind="stable")
            .reset_index(drop=True))


def _sorted_frame(ds, cols):
    return ds.to_pandas()[cols].sort_values(cols).reset_index(drop=True)


def test_distinct_rows_matches_pandas_reference(ray_session):
    """Exact whole-row dedup over multi-block inputs keeps, per distinct
    text, exactly one copy of its min-id row, as pandas does: a row
    whose (id, text) repeats in another block is kept once, and a
    duplicate id of unrelated text is not kept just because the id is
    some other text's keeper."""
    from warcit_ray.stages.dedup import distinct_rows

    rows = [{"doc_id": i, "text": "body %d" % (i % 40)} for i in range(200)]
    out = distinct_rows(_blocks(rows, 4))
    assert sorted(out.to_pandas()["doc_id"]) == list(range(40))
    assert set(out.columns()) == {"doc_id", "text", "text_md5", "text_md5_i64"}
    pd.testing.assert_frame_equal(_sorted_frame(out, ["doc_id", "text"]),
                                  _distinct_ref(rows))
    rows2 = [{"doc_id": 3, "text": "unique B"},
             {"doc_id": 5, "text": "shared A"},
             {"doc_id": 5, "text": "unique B"},  # dup id, not B's keeper
             {"doc_id": 9, "text": "shared A"}]
    got = _sorted_frame(distinct_rows(_blocks(rows2, 2)), ["doc_id", "text"])
    assert list(got.itertuples(index=False, name=None)) == \
        [(3, "unique B"), (5, "shared A")]
    # one (id, text) row in two blocks
    rows3 = [{"doc_id": 1, "text": "same"}, {"doc_id": 2, "text": "other"},
             {"doc_id": 1, "text": "same"}, {"doc_id": 4, "text": "other"}]
    got = _sorted_frame(distinct_rows(_blocks(rows3, 2)), ["doc_id", "text"])
    assert list(got.itertuples(index=False, name=None)) == [(1, "same"), (2, "other")]
    pd.testing.assert_frame_equal(got, _distinct_ref(rows3))


def test_simhash_batched_matches_per_doc():
    """The vectorized batch path (flat token array + reduceat segment
    votes + sign-bit pack) must be byte-identical to the single-doc
    construction, including empty docs, slab boundaries and the
    sign-bit (bit 63) wrap."""
    import pyarrow as pa

    from warcit_ray.stages.dedup import SimHasher

    texts = ["", "one", "a b c d", " ".join("t%d" % i for i in range(500)),
             "", "repeat repeat repeat", "Mixed CASE Tokens x Y z"]
    h = SimHasher()
    per_doc = [h.simhash(t) for t in texts]
    signed = [x - (1 << 64) if x >= (1 << 63) else x for x in per_doc]
    small_slab = SimHasher()
    small_slab._TOK_SLAB = 16  # force multiple reduction slabs
    for hasher in (SimHasher(), small_slab):
        out = hasher(pa.table({"text": texts}))
        assert out.column("simhash").to_pylist() == signed


def test_simhash_hamming_verified(ray_session):
    rows = [{"doc_id": i,
             "text": " ".join("tok%d" % ((i * 13 + j) % 400) for j in range(40))}
            for i in range(30)]
    rows.append({"doc_id": 500, "text": rows[0]["text"]})
    pairs = simhash_near_dups(rd.from_items(rows), max_hamming=3)
    assert ((pairs["id_a"] == 0) & (pairs["id_b"] == 500)).any()
    assert (pairs["hamming"] <= 3).all()


def test_blocked_cosine_pairs_matches_naive():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(300, 16)).astype(np.float32)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    ids = np.arange(300)
    a, b, s = _blocked_cosine_pairs(ids, v, 0.5, block=64)
    sims = v @ v.T
    ia, ib = np.nonzero(np.triu(sims >= 0.5, k=1))
    got = set(zip(a.tolist(), b.tolist()))
    want = set(zip(ids[ia].tolist(), ids[ib].tolist()))
    assert got == want


def test_embedding_degenerate_bucket_bounded(ray_session):
    # 10^4 identical vectors all land in one bucket: the deterministic
    # member cap + blocked matmul keep memory bounded.
    n = 10_000
    vec = np.ones(8, dtype=np.float32).tolist()
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([vec] * n, type=pa.list_(pa.float32())),
    }))
    pairs = embedding_near_dups(ds, threshold=0.99, bucket_cap=256)
    assert len(pairs) == 256 * 255 // 2
    assert pairs["id_a"].max() < 256


def test_hyperplane_bucketer_deterministic_across_actors():
    b1 = HyperplaneBucketer()
    b2 = HyperplaneBucketer()
    t = pa.table({
        "vec_id": pa.array([0, 1], type=pa.int64()),
        "embedding": pa.array([[0.5] * 8, [-0.5] * 8], type=pa.list_(pa.float32())),
    })
    assert b1(t).tolist() == b2(t).tolist()


def test_fingerprint_is_true_horner():
    # the vectorized fingerprint must equal the exact per-byte Horner
    # recurrence h = (h*B + byte+1) mod 2^61-1 (the r1 numpy-scalar loop
    # silently overflowed uint64 at h*B and was NOT this polynomial)
    import random
    import string

    from warcit_ray.stages.text import _FP_BASE, _FP_MOD, _WS, fingerprint

    def ref_fp(text):
        h = 0
        for b in _WS.sub(" ", text.strip().lower()).encode("utf-8"):
            h = (h * _FP_BASE + b + 1) % _FP_MOD
        return h

    rng = random.Random(7)
    cases = ["", "a", "hello  world", "x" * 65535, "x" * 65536, "y" * 65537,
             "日本語テキスト" * 50]
    cases += ["".join(rng.choices(string.printable, k=rng.randint(0, 2000)))
              for _ in range(50)]
    for t in cases:
        assert fingerprint(t) == ref_fp(t)


def test_minhash_batched_matches_per_doc():
    """VERDICT r3 #2: the batched signature path (flat concat + slabbed
    affine + segment reduceat-min) is byte-identical to the per-doc
    signature() construction, including empty / short / repeated docs
    and across slab boundaries."""
    from warcit_ray.stages.dedup import MinHasher

    texts = (
        ["alpha beta gamma delta %d epsilon" % i for i in range(30)]
        + ["", "solo", "two words", "alpha beta gamma delta 0 epsilon"]
        + ["repeat " * 200 + "tail%d" % i for i in range(3)]
        # r5 cross-doc tokenizer edges: leading/trailing/odd whitespace,
        # unicode space (nbsp), null text
        + ["  lead pad", "trail pad  ", "a\t\nb c", " \t ",
           "nb sp one two", "ümlaut café drei vier"]
    )
    mh = MinHasher(num_perm=64, shingle_k=3)
    batch = pa.table({"doc_id": pa.array(range(len(texts) + 1),
                                         type=pa.int64()),
                      "text": pa.array(texts + [None])})
    out = mh(batch)
    got = np.asarray(out.column("minhash").to_pylist(), dtype=np.int64)
    ref = MinHasher(num_perm=64, shingle_k=3)
    want = np.stack([ref.signature(t).view(np.int64)
                     for t in texts + [""]])
    assert (got == want).all()
    batch = batch.slice(0, len(texts))  # slab rerun on non-null rows
    # tiny slab forces multi-slab stitching on the same batch
    mh2 = MinHasher(num_perm=64, shingle_k=3)
    mh2._SHINGLE_SLAB = 16
    got2 = np.asarray(mh2(batch).column("minhash").to_pylist(), dtype=np.int64)
    assert (got2 == want[: len(texts)]).all()


def test_lsh_band_rows_vectorized_semantics():
    """Band keys: equal band chunks collide, any differing chunk value
    separates (splitmix64 chain), and the row layout is doc-major with
    num_bands rows per doc."""
    from warcit_ray.stages.dedup import MinHasher, lsh_band_rows

    mh = MinHasher(num_perm=64, shingle_k=3)
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array(["same text here okay fine", 
                          "same text here okay fine",
                          "entirely different words apply now"]),
    })
    bands = lsh_band_rows(mh(batch), num_bands=16)
    assert bands.num_rows == 48
    df = bands.to_pandas()
    assert (df["doc_id"].to_numpy() == np.repeat([1, 2, 3], 16)).all()
    k1 = df[df["doc_id"] == 1]["bkey"].to_numpy()
    k2 = df[df["doc_id"] == 2]["bkey"].to_numpy()
    k3 = df[df["doc_id"] == 3]["bkey"].to_numpy()
    assert (k1 == k2).all()            # identical sigs -> identical keys
    assert (k1 != k3).all()            # disjoint shingles -> no collision
    assert (df["bkey"] >= 0).all()     # 63-bit non-negative keys


def test_filter_out_ids_tier_equivalence(ray_session):
    """The near-dup drop filter (one bucketed anti-join on the id) keeps
    exactly the rows pandas' ``isin`` keeps, and passes the input
    through unchanged on an empty drop set."""
    from warcit_ray.stages.dedup import filter_out_ids

    rows = [{"doc_id": i, "text": "doc %d text" % i} for i in range(200)]
    dropped = list(range(0, 200, 7))
    drop = _blocks([{"doc_id": i, "dup_of": 0} for i in dropped], 3)
    got = _sorted_frame(filter_out_ids(_blocks(rows, 4), drop, "doc_id"),
                        ["doc_id", "text"])
    df = pd.DataFrame(rows)
    pd.testing.assert_frame_equal(
        got, df[~df["doc_id"].isin(dropped)].reset_index(drop=True))
    assert len(got) == 200 - len(dropped)
    # empty drop set: pass-through
    docs = _blocks(rows, 4)
    assert filter_out_ids(docs, rd.from_items([]), "doc_id") is docs


def test_exact_dedup_runs_no_ray_data_operator(ray_session, monkeypatch):
    """Once their inputs' blocks are taken, exact dedup runs plain tasks
    only: with Dataset.map_batches, .materialize and .count raising,
    distinct_rows, filter_out_ids and exact_dedup_groups still give
    their references on a 4-block input."""
    import hashlib

    from warcit_ray.stages import dedup

    rows = [{"doc_id": i, "text": "t%d" % (i % 13), "extra": -i} for i in range(60)]
    docs = _blocks(rows, 4)
    drop = _blocks([{"doc_id": i} for i in range(0, 60, 5)], 4)

    def refuse(*_a, **_k):
        raise AssertionError("a Ray Data operator ran")

    for name in ("map_batches", "materialize", "count"):
        monkeypatch.setattr(rd.Dataset, name, refuse)
    kept = dedup.distinct_rows(docs)
    filtered = dedup.filter_out_ids(docs, drop)
    groups = dedup.exact_dedup_groups(docs)
    monkeypatch.undo()
    pd.testing.assert_frame_equal(_sorted_frame(kept, ["doc_id", "text", "extra"]),
                                  _distinct_ref(rows))
    df = pd.DataFrame(rows)
    pd.testing.assert_frame_equal(
        _sorted_frame(filtered, ["doc_id", "text", "extra"]),
        df[df["doc_id"] % 5 != 0].reset_index(drop=True))
    got = groups.to_pandas().sort_values("text_md5")
    want = df.groupby("text")["doc_id"].agg(["min", "count"]).reset_index()
    want["text_md5"] = [hashlib.md5(t.encode()).hexdigest() for t in want["text"]]
    want = want.sort_values("text_md5")
    assert got["text_md5"].tolist() == want["text_md5"].tolist()
    assert got["keep_id"].tolist() == want["min"].tolist()
    assert got["n_dups"].tolist() == want["count"].tolist()


def test_banded_hamming_string_ids_large_tier(ray_session):
    """Code-review r5: the candidate path's pair bucketing must accept
    STRING ids (phash_near_dup buckets on image_id strings) — the
    uint64 fast path only applies to integer ids."""
    rows = [{"doc_id": "img%04d" % i, "sig": 0} for i in range(6)]
    rows += [{"doc_id": "imgfar", "sig": 0x5555555555555555},
             {"doc_id": "imgnear", "sig": 0b111}]
    ds = rd.from_items(rows)
    got = banded_hamming_pairs(ds, sig_col="sig", id_col="doc_id",
                               max_hamming=3)
    # brute-force reference: every id pair within the hamming bound
    want = sorted((min(a["doc_id"], b["doc_id"]), max(a["doc_id"], b["doc_id"]),
                   hamming64(a["sig"], b["sig"]))
                  for i, a in enumerate(rows) for b in rows[i + 1:]
                  if hamming64(a["sig"], b["sig"]) <= 3)
    assert len(want) == 15 + 6  # C(6,2) identical-sig pairs + imgnear's
    assert list(got.itertuples(index=False, name=None)) == want


def _verify_ref(pairs, texts, threshold, k=3):
    """Python-set reference of the Jaccard verify: each distinct pair
    with both docs in ``texts`` whose shingle-set Jaccard passes
    ``threshold``, as sorted (lo, hi, jaccard)."""
    out = set()
    for a, b in set(pairs):
        if a not in texts or b not in texts:
            continue
        sa, sb = (set(shingle_hashes(texts[x] or "", k).tolist()) for x in (a, b))
        j = 1.0 if not sa and not sb else len(sa & sb) / max(1, len(sa | sb))
        if j >= threshold:
            out.add((min(a, b), max(a, b), j))
    return sorted(out)


def _triples(df):
    return sorted((int(a), int(b), float(j)) for a, b, j in
                  df[["id_a", "id_b", "jaccard"]].itertuples(index=False, name=None))


def _near_dup_ref(rows, threshold, num_bands=16):
    """In-process reference of ``near_dup_pairs``: signatures and band
    rows of all rows in one batch, one bulk emit over every band row,
    then the Python-set verify of the distinct pairs."""
    t = pa.table({"doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
                  "text": [r["text"] for r in rows]})
    bands = lsh_band_rows(minhash_sig_batch(t, 64, 3), num_bands, "doc_id")
    pairs = _emit_pairs_bulk(bands, "bkey", "doc_id", 256, []).to_pandas()
    return _verify_ref(list(pairs.itertuples(index=False, name=None)),
                       {r["doc_id"]: r["text"] for r in rows}, threshold)


def _dup_map_ref(rows, threshold):
    """In-process reference of ``minhash_lsh_dedup``'s dup map."""
    pairs = [(a, b) for a, b, _ in _near_dup_ref(rows, threshold)]
    return [(d, r) for d, r in components_from_pairs(pairs) if d != r]


def _verify(pair_frames, doc_frames, num_buckets):
    """``_verify_blocks`` over frames of pairs and of (doc_id, text)
    docs, each frame one block, at threshold 0.5."""
    def blocks(frames):
        return _put_blocks(*(pa.Table.from_pandas(f, preserve_index=False)
                             for f in frames))

    return _verify_blocks(blocks(pair_frames), blocks(doc_frames), id_col="doc_id",
                          text_col="text", threshold=0.5, shingle_k=3,
                          num_buckets=num_buckets)


@pytest.mark.parametrize("num_buckets", [1, 8])
def test_verify_jaccard_pairs_matches_set_reference(ray_session, num_buckets):
    base = (1 << 60) + 1  # 63-bit ids: neighbours differ below float precision
    named = {
        "six": "t1 t2 t3 t4 t5 t6",      # 4 shingles
        "four": "t1 t2 t3 t4",           # 2 of them: Jaccard exactly 0.5
        "copy": "t1 t2 t3 t4 t5 t6",     # 1.0
        "near": "t1 t2 t3 t4 t5 t9",     # 3 / 5 = 0.6
        "far": "t1 t2 t3 x y z",         # 1 / 7
        "none": None,
        "empty": "",
        "short": "t1 t2",                # fewer than k tokens
        "short2": "t1 t2",
        "one": "t1",
    }
    ids = {name: base + i for i, name in enumerate(named)}
    texts = {ids[n]: t for n, t in named.items()}
    rng = np.random.default_rng(5)
    for i in range(40):  # edits of 3 templates: Jaccard on both sides of 0.5
        toks = ["w%d_%d" % (i % 3, t) for t in range(12)]
        for pos in rng.integers(0, 12, int(rng.integers(0, 3))):
            toks[pos] = "x%d" % rng.integers(0, 3)
        texts[base + 100 + i] = " ".join(toks)
    missing = base + 999
    pairs = [(ids[a], ids[b]) for a, b in [
        ("six", "four"), ("six", "copy"), ("six", "far"), ("none", "empty"),
        ("none", "six"), ("short", "short2"), ("short", "one"), ("four", "far")]]
    pairs += [(ids["six"], missing), (missing, ids["four"])]
    pairs += [(base + 100 + a, base + 100 + b) for a in range(40)
              for b in range(a + 3, 40, 3)]  # same template
    twice = (ids["six"], ids["near"])  # within one frame and across frames
    frames = [pd.DataFrame(pairs[:80] + [twice] * 20, columns=["id_a", "id_b"]),
              pd.DataFrame(pairs[80:] + [twice] * 5, columns=["id_a", "id_b"])]
    docs = [pd.DataFrame({"doc_id": k, "text": [texts[i] for i in k]})
            for k in (sorted(texts)[:25], sorted(texts)[25:])]
    want = _verify_ref(pairs + [twice], texts, 0.5)
    assert (ids["six"], ids["four"], 0.5) in want  # kept at the threshold
    assert (ids["six"], ids["far"]) not in [w[:2] for w in want]
    assert (ids["none"], ids["empty"], 1.0) in want
    assert any(0 < w[2] < 1 for w in want) and len(want) > 10

    got = _pairs_frame(_verify(frames, docs, num_buckets), "jaccard")
    assert _triples(got) == want  # repeats verified once, exact floats


def test_verify_reused_ids_get_own_texts(ray_session):
    """Two corpora reuse the same doc ids with different texts: verified
    back to back in one session, each gets its own pairs."""
    pairs = [pd.DataFrame({"id_a": [1, 3], "id_b": [2, 4]})]
    first = {1: "a b c d e", 2: "a b c d e", 3: "a b c d e", 4: "v w x y z"}
    second = {1: "a b c d e", 2: "v w x y z", 3: "k l m n o", 4: "k l m n o"}
    for texts, want in ((first, [(1, 2, 1.0)]), (second, [(3, 4, 1.0)])):
        docs = [pd.DataFrame({"doc_id": list(texts), "text": list(texts.values())})]
        for nb in (1, 8):
            got = _pairs_frame(_verify(pairs, docs, nb), "jaccard")
            assert _triples(got) == want


def test_doc_shingle_dedup_keeps_every_distinct_value():
    """The per-doc shingle-set dedup sorts on a truncated (doc, top
    shingle bits) key: values that share their top bits and duplicates
    interleaved between them must still come out as exactly each doc's
    set (np.unique), docs contiguous and in order."""
    from warcit_ray.stages.dedup import _dedup_doc_shingles

    rng = np.random.default_rng(11)
    n = 1000  # nb = 10: the key keeps a shingle's top 54 bits
    counts = rng.integers(0, 12, n)
    counts[[0, 7, n - 1]] = [0, 40, 25]
    segs = []
    for c in counts:
        # a few bases, high bit set or not, each with low-bit variants that
        # tie on the truncated key, drawn with repeats and interleaved
        high = rng.integers(0, 2, 3).astype(np.uint64) << np.uint64(63)
        bases = rng.integers(0, 1 << 63, 3, dtype=np.uint64) | high
        pool = bases[:, None] ^ rng.integers(0, 1 << 10, (3, 4), dtype=np.uint64)
        segs.append(rng.choice(pool.reshape(-1), int(c)))
    flat = np.concatenate(segs).astype(np.uint64)
    fs, got_counts = _dedup_doc_shingles(flat, counts)
    assert got_counts.sum() == len(fs) and len(got_counts) == n
    ends = np.cumsum(got_counts)
    for d, seg in enumerate(segs):
        got = fs[ends[d] - got_counts[d]: ends[d]]
        assert set(got.tolist()) == set(np.unique(seg).tolist())
        assert len(got) <= len(seg)
    # one doc of equal-top-bit values, duplicates alternating
    x = np.array([5, 9, 5, 9, 5, 3, 3, 9], dtype=np.uint64) | np.uint64(0xABC << 40)
    fs, got_counts = _dedup_doc_shingles(x, np.array([len(x)]))
    assert sorted(set(fs.tolist())) == np.unique(x).tolist()


def test_minhasher_vocab_cache_matches_fresh_hasher():
    """One MinHasher over batches whose vocabularies overlap, are
    disjoint, and cross the cache reset gives the signatures of a
    fresh hasher per batch and of the per-doc ``signature()``."""
    from warcit_ray.stages.dedup import MinHasher

    rng = np.random.default_rng(2)

    def batch(vocab, n):
        texts = [" ".join(rng.choice(vocab, int(rng.integers(0, 12))))
                 for _ in range(n)]
        return pa.table({"doc_id": pa.array(range(n), pa.int64()),
                         "text": pa.array(texts)})

    v1 = ["a%d" % i for i in range(40)]
    v2 = v1[20:] + ["b%d" % i for i in range(40)]  # overlaps v1
    v3 = ["c%d" % i for i in range(60)]             # disjoint
    batches = [batch(v, 50) for v in (v1, v2, v3, v1, v3, v2)]
    shared = MinHasher()
    shared._VOCAB_MAX = 100  # resets several times over these batches
    sizes = []
    for b in batches:
        got = shared(b).column("minhash").to_pylist()
        sizes.append(len(shared._tok_cache))
        assert got == MinHasher()(b).column("minhash").to_pylist()
        want = [MinHasher().signature(t).view(np.int64).tolist()
                for t in b.column("text").to_pylist()]
        assert got == want
    assert max(sizes) <= 100
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # it did reset


def test_affine_minima_exact_at_the_fold_boundary():
    """The one-fold Mersenne reduction equals ``%`` also where a * x + b
    (mod 2^64) folds to [p, 2p): shingles crafted per odd multiplier to
    land there, one doc each so every value is its doc's minimum."""
    from warcit_ray.stages.dedup import MinHasher

    mh = MinHasher()
    p = (1 << 61) - 1
    xs = []
    for a, b in zip(mh.a.tolist(), mh.b.tolist()):
        if a % 2:
            inv = pow(a, -1, 1 << 64)
            xs += [x for hi in range(8) for lo in range(p - hi, p + 1)
                   for x in [((hi << 61 | lo) - b) * inv % (1 << 64)] if x < 1 << 61]
    assert len(xs) > 20
    x = np.array(xs + [0, 1, p - 1, p, p + 1, (1 << 61) - 2], dtype=np.uint64)
    xm = x & np.uint64(p)  # the kernel keeps a shingle's low 61 bits
    want = ((mh.a[:, None] * xm[None, :] + mh.b[:, None]) % np.uint64(p)).T
    assert (mh._affine_minima(x, np.ones(len(x), dtype=np.int64)) == want).all()
    counts = np.array([len(x) - 5, 0, 5])
    got = mh._affine_minima(x, counts)
    assert (got[0] == want[:-5].min(axis=0)).all() and (got[1] == 0).all()
    assert (got[2] == want[-5:].min(axis=0)).all()


def test_near_dup_pairs_reads_input_once(tmp_path, ray_session):
    """Each input row executes exactly once: the corpus is materialized
    once and every later stage reads that. The pairs equal the
    in-process reference's."""
    from warcit_ray.stages.dedup import near_dup_pairs

    texts = ["w%d alpha beta gamma delta epsilon" % (i % 25) for i in range(60)]
    rows = [{"doc_id": i, "text": t, "extra": i * 2} for i, t in enumerate(texts)]
    log = tmp_path / "rows.txt"

    def count_rows(t: pa.Table, _log=str(log)) -> pa.Table:
        with open(_log, "a") as fh:
            fh.write("%d\n" % t.num_rows)
        return t

    ds = rd.from_items(rows, override_num_blocks=4).map_batches(
        count_rows, batch_format="pyarrow")
    verified, stats = near_dup_pairs(ds, threshold=0.9)
    assert sum(map(int, log.read_text().split())) == len(rows)
    assert stats["docs"] == len(rows)
    assert stats["band_rows"] == len(rows) * 16
    # 25 texts, each 2-3 times: every copy pair verifies at 1.0
    assert stats["verified_pairs"] == len(verified) == 25 * 1 + 10 * 2
    assert stats["candidate_rows"] >= len(verified)
    assert all(stats[k] >= 0 for k in ("read_s", "signature_s", "emit_s",
                                       "verify_s"))
    assert _triples(verified) == _near_dup_ref(rows, 0.9)


def test_near_dup_pairs_reuses_a_materialized_corpus(ray_session, monkeypatch):
    """A materialized input of exactly (id, text) is the corpus itself:
    the verify reads the input's own blocks, no copy."""
    from warcit_ray.stages import dedup

    texts = ["w%d alpha beta gamma delta epsilon" % (i % 25) for i in range(60)]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in enumerate(texts)],
                       override_num_blocks=4).materialize()
    seen = []
    verify = dedup._verify_blocks

    def spy(pairs, docs, **kw):
        seen.append(docs)
        return verify(pairs, docs, **kw)

    monkeypatch.setattr(dedup, "_verify_blocks", spy)
    verified, stats = dedup.near_dup_pairs(ds, threshold=0.9)
    assert len(verified) == 25 * 1 + 10 * 2
    assert _triples(verified) == _near_dup_ref(ds.take_all(), 0.9)

    def block_refs(d):
        return [ref for bundle in d.iter_internal_ref_bundles()
                for ref, _ in bundle.blocks]

    assert len(seen) == 1 and [ref for ref, _ in seen[0]] == block_refs(ds)


def _hamming_ref(ids, sigs, max_hamming):
    """Brute-force reference of the Hamming families: every id pair
    whose signatures lie within ``max_hamming`` bits, as sorted
    (lo, hi, hamming)."""
    rows = list(zip(ids, sigs))
    return sorted((min(a, b), max(a, b), hamming64(x, y))
                  for i, (a, x) in enumerate(rows) for b, y in rows[i + 1:]
                  if hamming64(x, y) <= max_hamming)


def _simhash_ref(table, tok_hash, max_hamming):
    """``_hamming_ref`` over the SimHash signatures of ``table``'s texts,
    signed in process in one batch."""
    sigs = SimHasher(tok_hash)(table).column("simhash").to_pylist()
    return _hamming_ref(table.column("doc_id").to_pylist(), sigs, max_hamming)


def _hamming_rows(df):
    return list(df[["id_a", "id_b", "hamming"]].itertuples(index=False, name=None))


def _cosine_ref(ids, vecs, threshold):
    """Brute-force reference of embedding near-dup: every id pair whose
    float64 cosine passes ``threshold``, as sorted (lo, hi, cosine)."""
    v = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = v @ v.T
    ia, ib = np.nonzero(np.triu(sims >= threshold, k=1))
    return sorted((min(ids[i], ids[j]), max(ids[i], ids[j]), sims[i, j])
                  for i, j in zip(ia.tolist(), ib.tolist()))


def test_near_dup_runs_no_ray_data_operator(ray_session, monkeypatch):
    """Once the input blocks are taken, every near-dup family runs plain
    tasks only: with Dataset.map_batches, .materialize, .count and
    .to_pandas raising, MinHash's two entry points, SimHash (on the
    same corpus with its extra column), banded Hamming on string ids
    and embedding near-dup still give their references' results."""
    from warcit_ray.stages import dedup

    texts = ["w%d alpha beta gamma delta epsilon" % (i % 25) for i in range(60)]
    rows = [{"doc_id": i, "text": t, "extra": -i} for i, t in enumerate(texts)]
    tables = [pa.Table.from_pylist(rows[i * 15:(i + 1) * 15]) for i in range(4)]
    ds = rd.from_arrow(tables)
    names = ["img%04d" % i for i in range(6)] + ["imgfar", "imgnear"]
    sigs = [0] * 6 + [0x5555555555555555, 0b111]
    sig_ds = rd.from_arrow(pa.table({"doc_id": names, "sig": pa.array(sigs, pa.int64())}))
    rng = np.random.default_rng(4)
    vecs = rng.normal(size=(60, 8)).astype(np.float32)
    vecs = np.concatenate([vecs, vecs[:10] * 1.001 + 1e-4])  # 10 planted copies
    vec_ids = np.concatenate([np.arange(60), 1000 + np.arange(10)]).astype(np.int64)
    vec_ds = rd.from_arrow(pa.table({
        "vec_id": vec_ids, "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32()))}))

    def refuse(*_a, **_k):
        raise AssertionError("a Ray Data operator ran")

    for name in ("map_batches", "materialize", "count", "to_pandas"):
        monkeypatch.setattr(rd.Dataset, name, refuse)
    verified, stats = dedup.near_dup_pairs(ds, threshold=0.9)
    dup, dup_stats = dedup.minhash_lsh_dedup(ds, threshold=0.9)
    simhash = dedup.simhash_near_dups(ds, max_hamming=3)
    hamming = dedup.banded_hamming_pairs(sig_ds, sig_col="sig", id_col="doc_id",
                                         max_hamming=3)
    cosine = dedup.embedding_near_dups(vec_ds, threshold=0.99)
    monkeypatch.undo()
    assert _triples(verified) == _near_dup_ref(rows, 0.9)
    assert stats["docs"] == dup_stats["docs"] == len(rows)
    got = pa.concat_tables(ray.get(dup.to_arrow_refs()))
    assert list(zip(got["doc_id"].to_pylist(), got["dup_of"].to_pylist())) \
        == _dup_map_ref(rows, 0.9) != []
    want = _simhash_ref(pa.concat_tables(tables), "blake2b", 3)
    assert _hamming_rows(simhash) == want and len(want) >= 45
    assert _hamming_rows(hamming) == _hamming_ref(names, sigs, 3) != []
    want = _cosine_ref(vec_ids.tolist(), vecs.astype(np.float64), 0.99)
    got = sorted(cosine.itertuples(index=False, name=None))
    assert [g[:2] for g in got] == [w[:2] for w in want] \
        == [(i, 1000 + i) for i in range(10)]
    assert np.allclose([g[2] for g in got], [w[2] for w in want], atol=1e-5)


def _simhash_corpus():
    """300 docs with an extra column: 150 random 100-token texts and a
    copy of each with 0-4 tokens replaced, rows shuffled."""
    rng = np.random.default_rng(7)
    vocab = np.array(["t%d" % i for i in range(2000)])
    base = [vocab[rng.integers(len(vocab), size=100)] for _ in range(150)]
    texts = [" ".join(t) for t in base]
    for toks in base:
        toks = toks.copy()
        toks[rng.integers(len(toks), size=int(rng.integers(0, 5)))] = "zz"
        texts.append(" ".join(toks))
    order = rng.permutation(len(texts))
    return pa.table({"doc_id": pa.array(order * 3, pa.int64()),
                     "text": [texts[i] for i in order],
                     "extra": pa.array(-order, pa.int64())})


@pytest.mark.parametrize("max_hamming", [3, 6])
@pytest.mark.parametrize("tok_hash", ["blake2b", "md5le"])
@pytest.mark.parametrize("n_blocks", [1, 4])
def test_simhash_near_dups_match_all_pairs_reference(ray_session, n_blocks,
                                                     tok_hash, max_hamming):
    """SimHash near-dup finds exactly the pairs an all-pairs scan of the
    in-process signatures finds (the banding is pigeonhole-complete),
    with their Hamming distances, sorted by the pair, all int64, however
    the input is blocked."""
    table = _simhash_corpus()
    step = -(-table.num_rows // n_blocks)
    ds = rd.from_arrow([table.slice(i * step, step) for i in range(n_blocks)])
    got = simhash_near_dups(ds, max_hamming=max_hamming, tok_hash=tok_hash)
    want = _simhash_ref(table, tok_hash, max_hamming)
    assert got.dtypes.astype(str).to_dict() == {
        "id_a": "int64", "id_b": "int64", "hamming": "int64"}
    assert _hamming_rows(got) == want
    assert len(want) > 40 and len({w[2] for w in want}) > 2


def test_near_dup_block_layouts_agree(tmp_path, ray_session):
    """One ~2k-doc corpus as 1, 4 and 16 materialized blocks and as a
    lazy parquet read of 4 files: the same verified triples, dup map
    and counts."""
    rng = np.random.default_rng(11)
    vocab = np.array(["t%d" % i for i in range(3000)])
    base = [vocab[rng.integers(len(vocab), size=int(rng.integers(20, 40)))]
            for _ in range(1000)]
    texts = [" ".join(t) for t in base]
    for b in rng.choice(len(base), size=1000, replace=False):
        toks = base[b].copy()  # a copy with 0-5 tokens replaced
        toks[rng.integers(len(toks), size=int(rng.integers(0, 6)))] = "zz"
        texts.append(" ".join(toks))
    order = rng.permutation(len(texts))  # copies spread over the blocks
    table = pa.table({"doc_id": pa.array(order, pa.int64()),
                      "text": [texts[i] for i in order]})
    for i in range(4):
        pq.write_table(table.slice(i * 500, 500), str(tmp_path / ("p%d.parquet" % i)))

    def blocks(n):
        step = -(-table.num_rows // n)
        return rd.from_arrow([table.slice(i * step, step) for i in range(n)])

    keys = ("docs", "band_rows", "candidate_rows", "verified_pairs")
    runs = []
    for ds in (blocks(1), blocks(4), blocks(16), rd.read_parquet(str(tmp_path))):
        verified, stats = near_dup_pairs(ds, threshold=0.5)
        dup, _ = minhash_lsh_dedup(ds, threshold=0.5)
        dup = pa.concat_tables(ray.get(dup.to_arrow_refs()))
        runs.append((_triples(verified), [stats[k] for k in keys],
                     sorted(zip(dup["doc_id"].to_pylist(), dup["dup_of"].to_pylist()))))
    assert all(run == runs[0] for run in runs[1:])
    triples, counts, dups = runs[0]
    assert counts[:2] == [2000, 2000 * 16] and counts[3] == len(triples) > 500
    assert counts[2] > len(triples) and len(dups) > 500


def test_empty_pair_results_are_typed(ray_session):
    """No pair passing the threshold, or no input row at all, still
    gives typed results: near-dup's (id_a, id_b, jaccard) and its empty
    int64 dup map, banded hamming's (id_a, id_b, hamming) and embedding
    near-dup's (id_a, id_b, cosine)."""
    from warcit_ray.stages.dedup import near_dup_pairs

    rng = np.random.default_rng(0)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(40, dtype=np.int64)),
        "embedding": pa.array(rng.normal(size=(40, 8)).tolist(),
                              type=pa.list_(pa.float32()))}))
    pairs = embedding_near_dups(ds, threshold=0.9999)
    assert len(pairs) == 0
    assert pairs.dtypes.astype(str).to_dict() == {
        "id_a": "int64", "id_b": "int64", "cosine": "float64"}
    docs = rd.from_items([{"doc_id": i, "text": "d%d only its own words here" % i}
                          for i in range(30)])
    jaccard = {"id_a": "int64", "id_b": "int64", "jaccard": "float64"}
    verified, stats = near_dup_pairs(docs)
    assert len(verified) == 0 and stats["verified_pairs"] == 0
    assert verified.dtypes.astype(str).to_dict() == jaccard

    no_docs = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                      "text": pa.array([], pa.string())}))
    verified, stats = near_dup_pairs(no_docs)
    assert verified.dtypes.astype(str).to_dict() == jaccard
    assert (stats["docs"], stats["band_rows"], stats["candidate_rows"],
            stats["verified_pairs"]) == (0, 0, 0, 0)
    dup, stats = minhash_lsh_dedup(no_docs)
    assert stats["dups"] == 0 and dup.count() == 0
    assert pa.concat_tables(ray.get(dup.to_arrow_refs())).schema == pa.schema(
        [("doc_id", pa.int64()), ("dup_of", pa.int64())])
    no_sigs = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                      "sig": pa.array([], pa.int64())}))
    pairs = banded_hamming_pairs(no_sigs, sig_col="sig", id_col="doc_id",
                                 max_hamming=3)
    assert len(pairs) == 0 and list(pairs.columns) == ["id_a", "id_b", "hamming"]
    assert pairs["hamming"].dtype == "int64"
