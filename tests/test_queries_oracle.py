"""Driver-mimicking correctness harness: run every queries() entry at
sf0.001 and, where an oracle_sql() exists, compare row count, schema
(column names) and order-insensitive values against DuckDB on the same
parquet tables."""

import importlib.util
import os
import sys

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _load_entry():
    spec = importlib.util.spec_from_file_location("ray_entry", "/root/repo/__ray_entry__.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def entry_mod():
    return _load_entry()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            "CREATE VIEW %s AS SELECT * FROM read_parquet('%s/%s.parquet')"
            % (t, SF_DIR, t)
        )
    return c


def _to_df(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # Dataset


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype("bool")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _sql_names(entry_mod):
    return sorted(entry_mod.oracle_sql().keys())


def test_entry_smoke(entry_mod):
    res = entry_mod.entry()
    df = _to_df(res)
    assert len(df) >= 0
    assert list(df.columns)


@pytest.mark.parametrize("name", sorted([
    "q1_pricing_summary", "q3_top_orders", "top_customers", "events_hourly",
    "sessionize_events", "priority_revenue",
    "lang_stats", "url_escape", "mime_by_extension", "include_exclude",
    "iso_timestamps", "revisit_expansion", "warc_build_docs", "dedup_exact",
    "token_counts", "embedding_topk",
    "mapfile_remap", "charset_suffixes", "conversion_records",
    "transclusion_json", "jaccard_pairs",
    "dir_walk", "zip_enumerate", "mapfile_load", "conversion_results_yaml",
    "warcinfo_record", "logfile_rows", "rules_load", "transclusions_load",
    "embedding_near_dup", "quality_scores", "warc_digests_sha256",
    "fingerprints", "clean_corpus_exact", "repetition_scores",
    "clean_corpus_near", "components",
    "minhash_dedup", "simhash_dedup", "lang_id", "clean_corpus",
]))
def test_query_vs_oracle(entry_mod, con, name):
    qs = entry_mod.queries()
    sqls = entry_mod.oracle_sql()
    assert name in qs and name in sqls
    got = _canon(_to_df(qs[name](SF_DIR)))
    want = _canon(con.execute(sqls[name]).fetchdf())
    assert list(got.columns) == list(want.columns), (
        "column mismatch: %s vs %s" % (list(got.columns), list(want.columns)))
    assert len(got) == len(want), "row count %d vs %d" % (len(got), len(want))
    pd.testing.assert_frame_equal(got, want, check_dtype=False, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("name", sorted([
    "warc_digests", "ann_ivf", "crawl_demo",
    "crawl_records", "image_transcode", "image_features", "phash_near_dup",
    "image_resize",
]))
def test_rows_only_queries_run(entry_mod, name):
    df = _to_df(entry_mod.queries()[name](SF_DIR))
    assert df is not None
    # deterministic across two invocations
    df2 = _to_df(entry_mod.queries()[name](SF_DIR))
    pd.testing.assert_frame_equal(df.reset_index(drop=True), df2.reset_index(drop=True))


def test_every_query_has_oracle_or_reason(entry_mod):
    qs = set(entry_mod.queries())
    sqls = set(entry_mod.oracle_sql())
    assert sqls <= qs
    # rows-only ops are exactly the non-SQL-expressible ones (r5 moved
    # minhash_dedup/simhash_dedup/lang_id/clean_corpus to SQL-checked)
    rows_only = qs - sqls
    expected_rows_only = {
        "warc_digests", "ann_ivf", "crawl_demo",
        "crawl_records", "image_transcode", "image_features", "phash_near_dup",
        "image_resize",
    }
    assert rows_only == expected_rows_only


def test_lang_id_heuristic():
    # The testdata 'lang' column is a synthetic label unrelated to the
    # text content (every doc is the same English-ish word set), so the
    # classifier is validated on constructed texts instead.
    from warcit_ray.stages.text import LangId

    li = LangId()
    assert li.classify("the cat and the dog ran to a house in the field for it") == "en"
    assert li.classify("der Hund und die Katze sind nicht mit dem Mann auf der Bank") == "de"
    assert li.classify("le chat est dans la maison et les enfants sont pour que") == "fr"
    assert li.classify("el perro y la casa es una cosa que los gatos en por") == "es"
    assert li.classify("这是一个中文句子，包含很多汉字来测试语言识别功能。") == "zh"
    assert li.classify("") == "und"


def test_lang_id_query_runs(entry_mod):
    df = _to_df(entry_mod.queries()["lang_id"](SF_DIR))
    assert set(df["pred_lang"]) <= {"en", "de", "fr", "es", "zh", "und"}


def test_near_dup_queries_find_planted_dups(entry_mod):
    mh = _to_df(entry_mod.queries()["minhash_dedup"](SF_DIR))
    assert (mh["doc_id"] >= 1_000_000).sum() >= 15  # planted perturbed copies
    sh = _to_df(entry_mod.queries()["simhash_dedup"](SF_DIR))
    assert ((sh["id_b"] - sh["id_a"]).eq(1_000_000)).sum() >= 15
    em = _to_df(entry_mod.queries()["embedding_near_dup"](SF_DIR))
    assert ((em["id_b"] - em["id_a"]).eq(1_000_000)).sum() >= 9
    ph = _to_df(entry_mod.queries()["phash_near_dup"](SF_DIR))
    planted = ph[ph["id_b"].astype(str).str.startswith("dup")
                 | ph["id_a"].astype(str).str.startswith("dup")]
    assert len(planted) >= 5


def test_ann_recall_vs_brute(entry_mod):
    brute = _to_df(entry_mod.queries()["embedding_topk"](SF_DIR))
    ann = _to_df(entry_mod.queries()["ann_ivf"](SF_DIR))
    recall = []
    for qid in brute["query_id"].unique():
        b = set(brute.loc[brute["query_id"] == qid, "vec_id"])
        a = set(ann.loc[ann["query_id"] == qid, "vec_id"])
        recall.append(len(a & b) / max(1, len(b)))
    assert sum(recall) / len(recall) >= 0.5, recall


def test_image_transcode_all_ok(entry_mod):
    df = _to_df(entry_mod.queries()["image_transcode"](SF_DIR))
    assert df["ok"].all() and df["psnr_ok"].all()


def test_entry_compiles_without_warnings():
    """The oracle SQL strings hold no invalid escape sequence: each
    would warn on every import (a SyntaxWarning from Python 3.12)."""
    import warnings

    path = os.path.join(os.path.dirname(__file__), os.pardir, "__ray_entry__.py")
    with open(path) as fh:
        src = fh.read()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(src, "__ray_entry__.py", "exec")
