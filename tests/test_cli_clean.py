"""Corpus-cleaning CLI (warcit_ray/cli_clean.py)."""

import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from warcit_ray.cli_clean import main


@pytest.fixture()
def docs_parquet(tmp_path):
    texts = (["the cat and the dog ran to a house for it is that good"] * 3
             + ["xx yy zz " * 5, "low q !!!! ;;;; ####", ""]
             + ["unique doc %d with the usual and normal words for it" % i
                for i in range(20)])
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": texts})
    p = tmp_path / "documents.parquet"
    pq.write_table(t, p)
    return str(p)


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return rc, json.loads(out)


def test_clean_cli_dedup_quality_tokens(docs_parquet, tmp_path, capsys,
                                        ray_session):
    out_dir = str(tmp_path / "cleaned")
    rc, stats = _run(capsys, [docs_parquet, "--out", out_dir, "--lang"])
    assert rc == 0
    assert stats["rows_in"] == 26
    # 3 exact dups -> 1 kept; junk/empty rows fail the quality filter
    assert stats["rows_out"] < 26 - 2
    import glob

    import pandas as pd

    df = pd.concat([pq.read_table(f).to_pandas()
                    for f in glob.glob(out_dir + "/*.parquet")])
    assert stats["rows_out"] == len(df)
    assert (df["doc_id"] == 0).sum() == 1 and 1 not in set(df["doc_id"])
    assert {"quality", "ws_tokens", "pred_lang"} <= set(df.columns)
    assert (df["quality"] >= 0.5).all()
    # refuses to mix runs into a non-empty output dir
    assert main([docs_parquet, "--out", out_dir]) == 1


def test_clean_cli_near_dup(docs_parquet, tmp_path, capsys, ray_session):
    out_dir = str(tmp_path / "cleaned_nd")
    rc, stats = _run(capsys, [docs_parquet, "--out", out_dir, "--near-dup"])
    assert rc == 0
    assert stats["near_dups_removed"] >= 2  # the exact-dup copies collide
    nd = stats["near_dup"]
    assert nd["docs"] == 26
    assert nd["band_rows"] == 26 * 16
    assert nd["dups"] == stats["near_dups_removed"]
    assert nd["candidate_rows"] >= nd["verified_pairs"] >= nd["dups"]
