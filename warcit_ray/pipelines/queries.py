"""Query implementations backing __ray_entry__.queries().

Every function takes ``sf_dir`` (a directory of the driver's parquet
tables) and returns a small result (pandas DataFrame / pyarrow Table /
Dataset). Each SQL-checkable query names its computed columns to match
the oracle SQL in __ray_entry__.oracle_sql() exactly.

Scale notes are attached per query: reads prune columns, aggregations
pre-combine per batch before the one shuffle, joins broadcast the small
side, and float outputs are rounded identically on both sides so the
value-hash comparison is stable.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _rp(sf_dir: str, name: str, columns=None, blocks: int | None = None):
    """Pruned columnar read through the lance/parquet reader shim
    (sources.readers.read_table)."""
    from ..sources.readers import read_table

    return read_table(sf_dir, name, columns=columns, blocks=blocks)


# ---------------------------------------------------------------------------
# relational coverage (aggregate / join / sort / limit over the TPC-H-ish data)
# ---------------------------------------------------------------------------

def partial_then_combine(ds, keys: list[str], partial_fn, combine_fn) -> pd.DataFrame:
    """The grouped-aggregation pattern this engine uses for moderate
    group cardinality: each batch reduces to (keys, partial-metrics)
    rows with a VECTORIZED pandas groupby (C speed), and the tiny
    partials stream to the driver for one final pandas combine.

    Compared to ``Dataset.groupby().aggregate(...)`` this avoids Ray's
    sort-based shuffle, which at this data shape is dominated by
    per-group overhead (measured: 3600 groups over 100k rows = 12-70 s
    native vs <1 s with partials). For HIGH-cardinality keys (exact
    dedup over billions of hashes) a shuffle of the partials remains
    the right tool — see exact_dedup_groups — because partials stop
    compressing."""
    parts = ds.map_batches(partial_fn, batch_format="pandas").to_pandas()
    return combine_fn(parts)


def q1_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """Grouped aggregation: vectorized filter+revenue per batch, partial
    sums per (flag, status), driver combine of ~6-row partials."""
    cutoff = pd.Timestamp("1998-09-02")
    ds = _rp(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
              "l_discount", "l_shipdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] <= cutoff]
        df = df.assign(disc_price=df["l_extendedprice"] * (1.0 - df["l_discount"]))
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_base=("l_extendedprice", "sum"),
            sum_disc=("disc_price", "sum"),
            n=("l_quantity", "size"),
        ).reset_index()
        return g

    def combine(parts: pd.DataFrame) -> pd.DataFrame:
        out = parts.groupby(["l_returnflag", "l_linestatus"], sort=True).agg(
            sum_qty=("sum_qty", "sum"), sum_base=("sum_base", "sum"),
            sum_disc=("sum_disc", "sum"), n=("n", "sum"),
        ).reset_index()
        for c in ("sum_qty", "sum_base", "sum_disc"):
            out[c] = out[c].astype("float64").round(2)
        out["n"] = out["n"].astype("int64")
        return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)

    return partial_then_combine(ds, ["l_returnflag", "l_linestatus"], partial, combine)


def q3_top_orders(sf_dir: str) -> pd.DataFrame:
    """Broadcast semi-join (BUILDING customer keys -> orders filter,
    the only driver-held side and the small one), then one bucket
    shuffle of the filtered orders and lineitem on the orderkey.
    The join, revenue aggregation AND the top-10 all happen per bucket
    (the bucket key IS the orderkey hash, so every row of an order is
    co-located): the driver only ever sees 10 rows per bucket. No
    full-table ``to_pandas`` anywhere."""
    from ..stages.shuffle import bucket_shuffle, key_buckets

    cutoff = pd.Timestamp("1995-03-15")
    num_buckets = 16
    cust = _rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def building_keys(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["c_mktsegment"] == "BUILDING", ["c_custkey"]]

    build_keys = set(
        cust.map_batches(building_keys, batch_format="pandas")
        .to_pandas()["c_custkey"]
    )

    def order_filter(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["o_custkey"].isin(build_keys) & (df["o_orderdate"] < cutoff)]
        return df[["o_orderkey", "o_orderdate"]]

    orders = _rp(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        order_filter, batch_format="pandas")

    def li_prep(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] > cutoff]
        rev = df["l_extendedprice"] * (1.0 - df["l_discount"])
        # per-batch partial sum per order: compresses before the shuffle
        g = rev.groupby(df["l_orderkey"]).sum().rename("rev").reset_index()
        return g.rename(columns={"l_orderkey": "o_orderkey"})

    lineitem = _rp(sf_dir, "lineitem",
                   ["l_orderkey", "l_extendedprice", "l_discount",
                    "l_shipdate"]).map_batches(li_prep, batch_format="pandas")

    def bucket_topk(_bucket: int, sides: tuple) -> pd.DataFrame:
        o, l = sides
        if o is None or l is None:
            return pd.DataFrame()
        m = l.merge(o, on="o_orderkey", how="inner")
        agg = m.groupby(["o_orderkey", "o_orderdate"], sort=False)["rev"].sum().reset_index()
        agg["revenue"] = agg["rev"].astype("float64").round(2)
        agg = agg.sort_values(["revenue", "o_orderkey"],
                              ascending=[False, True]).head(10)
        return agg[["o_orderkey", "revenue", "o_orderdate"]]

    parts = bucket_shuffle((orders, lineitem), key_buckets("o_orderkey", num_buckets),
                           bucket_topk, batch_format="pandas").to_pandas()
    out = parts.sort_values(["revenue", "o_orderkey"],
                            ascending=[False, True]).head(10)
    return out[["o_orderkey", "revenue", "o_orderdate"]].reset_index(drop=True)


def top_customers(sf_dir: str) -> pd.DataFrame:
    """High-cardinality grouped aggregation: o_custkey partials do NOT
    compress (≈ one row per customer per block), so this uses the
    native ``groupby().aggregate`` shuffle — the right tool at this
    cardinality regime per partial_then_combine's scale note. Top-10 is
    taken per output block (sums are already complete per customer
    after the groupby), so the driver sees 10 rows per block; customer
    names are fetched for the FINAL ten keys only — nothing
    customer-table-sized is ever broadcast or collected."""
    import pyarrow.compute as pc_
    from ray.data.aggregate import Count, Sum

    agg_ds = (
        _rp(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .groupby("o_custkey")
        .aggregate(Sum("o_totalprice", alias_name="total_spend"),
                   Count("o_totalprice", alias_name="n_orders"))
    )

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["total_spend"] = df["total_spend"].astype("float64").round(2)
        return df.sort_values(["total_spend", "o_custkey"],
                              ascending=[False, True]).head(10)

    parts = agg_ds.map_batches(block_topk, batch_format="pandas",
                               batch_size=None).to_pandas()
    top = parts.sort_values(["total_spend", "o_custkey"],
                            ascending=[False, True]).head(10)

    top_keys = pa.array(top["o_custkey"].astype("int64"), type=pa.int64())

    def pick_names(t: pa.Table) -> pa.Table:
        return t.filter(pc_.is_in(t["c_custkey"], value_set=top_keys))

    names = _rp(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        pick_names, batch_format="pyarrow").to_pandas()
    out = top.rename(columns={"o_custkey": "c_custkey"}).merge(
        names, on="c_custkey", how="left")
    out["total_spend"] = out["total_spend"].astype("float64").round(2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out[["c_custkey", "c_name", "total_spend", "n_orders"]].reset_index(drop=True)


def priority_revenue(sf_dir: str) -> pd.DataFrame:
    """Both-sides-large join: orders x lineitem bucketed hash join on
    orderkey (neither side broadcast), then revenue per order priority.
    The merge output is pre-aggregated per bucket group before the tiny
    driver combine."""
    from ..stages.joins import bucketed_hash_join

    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def prep(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        out = t.select(["l_orderkey"]).append_column("rev", rev)
        return out.rename_columns(["o_orderkey", "rev"])

    lineitem = _rp(sf_dir, "lineitem",
                   ["l_orderkey", "l_extendedprice", "l_discount"]).map_batches(
        prep, batch_format="pyarrow")

    joined = bucketed_hash_join(orders, lineitem, "o_orderkey", num_buckets=16)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_orderpriority", sort=False).agg(
            revenue=("rev", "sum"), n_items=("rev", "size")).reset_index()

    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("o_orderpriority", sort=True).agg(
        revenue=("revenue", "sum"), n_items=("n_items", "sum")).reset_index()
    out["revenue"] = out["revenue"].astype("float64").round(2)
    out["n_items"] = out["n_items"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def events_hourly(sf_dir: str) -> pd.DataFrame:
    """Stream-shaped table: tumbling 1-hour windows — vectorized partial
    (floor + pandas groupby) per batch, driver combine of the partials
    (~groups x blocks rows; see partial_then_combine's scale note)."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(hour=df["ts"].dt.floor("h"))
        return df.groupby(["event_type", "hour"], sort=False).agg(
            n=("value", "size"), sum_value=("value", "sum")
        ).reset_index()

    def combine(parts: pd.DataFrame) -> pd.DataFrame:
        out = parts.groupby(["event_type", "hour"], sort=True).agg(
            n=("n", "sum"), sum_value=("sum_value", "sum")
        ).reset_index()
        out["sum_value"] = out["sum_value"].astype("float64").round(4)
        out["n"] = out["n"].astype("int64")
        return out.sort_values(["event_type", "hour"]).reset_index(drop=True)

    return partial_then_combine(
        _rp(sf_dir, "events", ["ts", "event_type", "value"]),
        ["event_type", "hour"], partial, combine)


def sessionize_events(sf_dir: str) -> pd.DataFrame:
    """Gap-based sessionization (30-min gap) per user — the streaming
    window expressed as a per-user group UDF over ts-sorted groups
    (stages/windows.py)."""
    from ..stages.windows import sessionize

    out = sessionize(
        _rp(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    ).to_pandas()
    out["sum_value"] = out["sum_value"].astype("float64").round(4)
    out["n_events"] = out["n_events"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values(["user_id", "session_start"]).reset_index(drop=True)


def lang_stats(sf_dir: str) -> pd.DataFrame:
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", sort=False).agg(
            n_docs=("n_chars", "size"), chars=("n_chars", "sum")
        ).reset_index()

    def combine(parts: pd.DataFrame) -> pd.DataFrame:
        out = parts.groupby("lang", sort=True).agg(
            n_docs=("n_docs", "sum"), chars=("chars", "sum")
        ).reset_index()
        out["avg_chars"] = (out["chars"] / out["n_docs"]).astype("float64").round(4)
        out["n_docs"] = out["n_docs"].astype("int64")
        return out[["lang", "n_docs", "avg_chars"]].sort_values("lang").reset_index(drop=True)

    return partial_then_combine(_rp(sf_dir, "documents", ["lang", "n_chars"]),
                                ["lang"], partial, combine)


# ---------------------------------------------------------------------------
# warcit-semantics operators (SQL-checkable projections)
# ---------------------------------------------------------------------------

def url_escape(sf_dir: str) -> pd.DataFrame:
    """M1 escaping (base.py:106-109) over deterministic paths derived
    from documents: 'src/doc#<id> v1,x.txt' exercises '#', ' ' and ','."""
    from ..functions.urls import escape_path_array

    def f(t: pa.Table) -> pa.Table:
        ids = pc.cast(t["doc_id"], pa.string())
        path = pc.binary_join_element_wise(
            t["source"], pc.binary_join_element_wise(
                pa.scalar("doc#"), ids, pa.scalar(" v1,x.txt"), ""), "/")
        url = escape_path_array(path, "http://docs.example/")
        return pa.table({"doc_id": t["doc_id"], "url": url})

    return (
        _rp(sf_dir, "documents", ["doc_id", "source"])
        .map_batches(f, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


EXTS = [".html", ".css", ".js", ".png", ".ico"]
MIME_OF_EXT = {
    ".html": "text/html", ".css": "text/css", ".js": "text/javascript",
    ".png": "image/png", ".ico": "image/x-icon",
}


def mime_by_extension(sf_dir: str) -> pd.DataFrame:
    """M4 filename mode (warcit.py:633-636) over derived filenames."""
    from ..functions.mime import guess_mime_filename_batch

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        urls = ["http://docs.example/f%d%s" % (i, EXTS[i % 5]) for i in ids]
        mimes = [m or "text/html" for m in guess_mime_filename_batch(urls)]
        return pa.table({"doc_id": t["doc_id"],
                         "url": pa.array(urls, type=pa.string()),
                         "mime": pa.array(mimes, type=pa.string())})

    return (
        _rp(sf_dir, "documents", ["doc_id"])
        .map_batches(f, batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def include_exclude(sf_dir: str) -> pd.DataFrame:
    """M2 truth table (warcit.py:466-476): include '*.html', exclude
    '*.js','*.png' over the derived filenames."""
    from ..functions.filters import IncludeExclude

    filt = IncludeExclude(["*.html"], ["*.js", "*.png"])

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        urls = ["http://docs.example/f%d%s" % (i, EXTS[i % 5]) for i in ids]
        keep = filt.mask(urls)
        return pa.table({"doc_id": t["doc_id"],
                         "kept": pa.array(keep, type=pa.bool_())})

    return (
        _rp(sf_dir, "documents", ["doc_id"])
        .map_batches(f, batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def iso_timestamps(sf_dir: str) -> pd.DataFrame:
    """M6 ISO-8601Z rendering (warcit.py:501) of event timestamps."""
    def f(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"],
            "warc_date": df["ts"].dt.strftime("%Y-%m-%dT%H:%M:%SZ"),
        })

    return (
        _rp(sf_dir, "events", ["event_id", "ts"])
        .map_batches(f, batch_format="pandas")
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )


def revisit_expansion(sf_dir: str) -> pd.DataFrame:
    """M8 auto-index expansion (warcit.py:542-566): docs with
    doc_id%10==0 are 'index pages'; each emits resource + revisit rows."""
    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        out_id, out_type, out_uri = [], [], []
        for i in ids:
            url = "http://docs.example/src%d/index.html" % i
            out_id.append(i); out_type.append("resource"); out_uri.append(url)
            if i % 10 == 0:
                out_id.append(i); out_type.append("revisit")
                out_uri.append(url.rsplit("/", 1)[0] + "/")
        return pa.table({"doc_id": pa.array(out_id, type=pa.int64()),
                         "record_type": pa.array(out_type, type=pa.string()),
                         "target_uri": pa.array(out_uri, type=pa.string())})

    return (
        _rp(sf_dir, "documents", ["doc_id"])
        .map_batches(f, batch_format="pyarrow")
        .to_pandas().sort_values(["doc_id", "record_type"]).reset_index(drop=True)
    )


MAPFILE_RULES = [
    {"file": "0.html", "URL": "http://remap.example/zero",
     "timestamp": "2019", "Content-Type": "x/y; charset=q"},
    {"file": ".css", "URL": "http://remap.example/css",
     "timestamp": "", "Content-Type": ""},
    {"file": "f7.js", "URL": "http://remap.example/seven",
     "timestamp": "20200101", "Content-Type": "text/plain"},
]


def mapfile_remap(sf_dir: str) -> pd.DataFrame:
    """M3 mapfile suffix matching (warcit.py:332-342) via the real
    match_mapfile over derived filenames: first rule whose 'file' is a
    SUFFIX of the filename wins; URL/timestamp/Content-Type remapped."""
    from ..sources.sidetables import match_mapfile

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        out = {"doc_id": [], "match_idx": [], "url": [], "mapped_ts": [],
               "mapped_ct": []}
        for i in ids:
            fn = "web/f%d%s" % (i, EXTS[i % 5])
            idx, row = match_mapfile(fn, MAPFILE_RULES)
            out["doc_id"].append(i)
            out["match_idx"].append(idx)
            out["url"].append((row or {}).get("URL") or "http://docs.example/" + fn)
            out["mapped_ts"].append((row or {}).get("timestamp") or "")
            out["mapped_ct"].append((row or {}).get("Content-Type") or "")
        return pa.table({
            "doc_id": pa.array(out["doc_id"], type=pa.int64()),
            "match_idx": pa.array(out["match_idx"], type=pa.int64()),
            "url": pa.array(out["url"], type=pa.string()),
            "mapped_ts": pa.array(out["mapped_ts"], type=pa.string()),
            "mapped_ct": pa.array(out["mapped_ct"], type=pa.string()),
        })

    return (
        _rp(sf_dir, "documents", ["doc_id"])
        .map_batches(f, batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def charset_suffixes(sf_dir: str) -> pd.DataFrame:
    """M5 charset chain in cchardet mode (warcit.py:661-716) over four
    deterministic payload classes: ascii (dropped), rich UTF-8,
    latin-1 single-byte, and one IN-WORD curly apostrophe (the
    reference's windows-1258 golden shape — iana index.html's
    ``Internet’s``, whose decoded ``â`` is word-adjacent letter
    evidence for the single-byte reading)."""
    from ..functions.charset import charset_suffix

    payload_of = {
        0: b"plain ascii body with nothing special",
        1: "héllo wörld café résumé".encode("utf-8"),
        2: b"h\xe9llo caf\xe9 \xe9cole normale",
        3: "the Internet’s global reach".encode("utf-8"),
    }

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        cts = ["text/html" + charset_suffix("text/html", "cchardet",
                                            payload_of[i % 4])
               for i in ids]
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "content_type": pa.array(cts, type=pa.string())})

    return (
        _rp(sf_dir, "documents", ["doc_id"])
        .map_batches(f, batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def _derived_conversions(url: str, doc_id: int) -> list[dict]:
    """Deterministic conversion-results side table for M9/M10 oracles:
    doc_id%4==0 -> webm+mp4 (rule order), %4==1 -> png, %4==2 -> one
    FAILED conversion (must be skipped), %4==3 -> none."""
    if doc_id % 4 == 0:
        return [
            {"url": url + ".webm", "success": True, "type": "conversion",
             "metadata": {"name": "webm", "ext": "webm"}},
            {"url": url + ".mp4", "success": True, "type": "conversion",
             "metadata": {"name": "mp4", "ext": "mp4"}},
        ]
    if doc_id % 4 == 1:
        return [{"url": url + ".png", "success": True, "type": "conversion",
                 "metadata": {"name": "png", "ext": "png"}}]
    if doc_id % 4 == 2:
        return [{"url": url + ".gif", "success": False, "type": "conversion",
                 "metadata": {"name": "gif", "ext": "gif"}}]
    return []


def conversion_records(sf_dir: str) -> pd.DataFrame:
    """M9 conversion-record expansion (warcit.py:568-578 +
    converter.py:205-216): per source URL, one conversion record per
    SUCCESSFUL result in results-list order (success=False skipped with
    a warning in the reference); derived URL = url + '.' + ext,
    refers-to headers point at the source record."""
    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        out = {"doc_id": [], "conv_seq": [], "record_type": [],
               "target_uri": [], "refers_to_uri": []}
        for i in ids:
            url = "http://docs.example/doc/%d.txt" % i
            sub = 0
            for conv in _derived_conversions(url, i):
                if not conv.get("success"):
                    continue  # converter.py:209-211
                out["doc_id"].append(i)
                out["conv_seq"].append(sub)
                out["record_type"].append(conv.get("type", "conversion"))
                out["target_uri"].append(conv["url"])
                out["refers_to_uri"].append(url)
                sub += 1
        return pa.table({
            "doc_id": pa.array(out["doc_id"], type=pa.int64()),
            "conv_seq": pa.array(out["conv_seq"], type=pa.int64()),
            "record_type": pa.array(out["record_type"], type=pa.string()),
            "target_uri": pa.array(out["target_uri"], type=pa.string()),
            "refers_to_uri": pa.array(out["refers_to_uri"], type=pa.string()),
        })

    return (
        _rp(sf_dir, "documents", ["doc_id"])
        .map_batches(f, batch_format="pyarrow")
        .to_pandas().sort_values(["doc_id", "conv_seq"]).reset_index(drop=True)
    )


def transclusion_json(sf_dir: str) -> pd.DataFrame:
    """M10 transclusion metadata (warcit.py:580-618): docs with
    doc_id%5==0 carry one transclusion; the payload is the REAL
    engine's canonical JSON (build_records.transclusion_metadata_json —
    sort_keys, indent=2, byte-exact per warcit.py:589), including the
    successful-conversions formats list and the trailing original."""
    from ..stages.build_records import transclusion_metadata_json

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        out = {"doc_id": [], "target_uri": [], "payload_json": []}
        for i in ids:
            if i % 5 != 0:
                continue
            url = "http://docs.example/doc/%d.txt" % i
            contain = "http://pages.example/p%d" % i
            js = transclusion_metadata_json(
                url, contain, "20200101000000", "div#v",
                _derived_conversions(url, i), "text/plain")
            out["doc_id"].append(i)
            out["target_uri"].append("urn:embeds:" + contain)
            out["payload_json"].append(js)
        return pa.table({
            "doc_id": pa.array(out["doc_id"], type=pa.int64()),
            "target_uri": pa.array(out["target_uri"], type=pa.string()),
            "payload_json": pa.array(out["payload_json"], type=pa.string()),
        })

    return (
        _rp(sf_dir, "documents", ["doc_id"])
        .map_batches(f, batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


# ---------------------------------------------------------------------------
# source/sink operators under oracle (S1-S5, K2-K4): deterministic
# filesystem fixtures derived from the documents table, exercised
# through the REAL source/sink code paths
# ---------------------------------------------------------------------------

_FIXTURE_ROOT = "/tmp/warcit_ray_fixture"
_FIXED_EPOCH = 1580608922  # 2020-02-02T02:02:02Z
_ZIP_DT = (2017, 10, 17, 14, 30, 26)  # the reference's zip-mtime golden


def _head_docs(sf_dir: str, n: int) -> pd.DataFrame:
    """First ``n`` docs by id — filtered DISTRIBUTED (doc_id < n), so
    only the fixture-sized slice ever reaches the driver."""
    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["doc_id"], pa.scalar(n)))

    return (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(pick, batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def _fixture_tag(sf_dir: str, n: int) -> str:
    return "%s:%d" % (os.path.basename(os.path.normpath(sf_dir)), n)


def _walk_fixture(sf_dir: str, n: int = 500) -> str:
    """Deterministic file tree <root>/walk/tree/src<k>/f<id> a.txt with
    pinned mtimes (content = doc text). Path is sf-independent so the
    oracle SQL can reference it literally; a marker rebuilds on sf
    change."""
    import shutil

    root = os.path.join(_FIXTURE_ROOT, "walk")
    marker = os.path.join(root, ".marker")
    tag = _fixture_tag(sf_dir, n)
    tree = os.path.join(root, "tree")
    if os.path.isfile(marker) and open(marker).read() == tag:
        return tree
    shutil.rmtree(root, ignore_errors=True)
    for row in _head_docs(sf_dir, n).itertuples():
        p = os.path.join(tree, "src%d" % (row.doc_id % 10),
                         "f%d a.txt" % row.doc_id)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        with open(p, "wb") as fh:
            fh.write((row.text or "").encode("utf-8"))
        os.utime(p, (_FIXED_EPOCH, _FIXED_EPOCH))
    with open(marker, "w") as fh:
        fh.write(tag)
    return tree


def _zip_fixture(sf_dir: str, n: int = 500) -> str:
    """Zip archive with members src<k>/f<id> a.txt, fixed date_time."""
    import shutil
    import zipfile

    root = os.path.join(_FIXTURE_ROOT, "zip")
    marker = os.path.join(root, ".marker")
    tag = _fixture_tag(sf_dir, n)
    path = os.path.join(root, "fix.zip")
    if os.path.isfile(marker) and open(marker).read() == tag:
        return path
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root, exist_ok=True)
    with zipfile.ZipFile(path, "w") as zp:
        for row in _head_docs(sf_dir, n).itertuples():
            zi = zipfile.ZipInfo(
                "src%d/f%d a.txt" % (row.doc_id % 10, row.doc_id), _ZIP_DT)
            zp.writestr(zi, (row.text or "").encode("utf-8"))
    with open(marker, "w") as fh:
        fh.write(tag)
    return path


def dir_walk(sf_dir: str) -> pd.DataFrame:
    """S1/S2 directory walker (base.py:36-41) + M1 escaping through the
    real seed source: one row per file, URL from the escaped relpath,
    stat-derived size/mtime."""
    from ..sources.seeds import seeds_dataset

    tree = _walk_fixture(sf_dir)
    out = (
        seeds_dataset([tree], "http://w.example/")
        .select_columns(["url", "size", "modified_iso"])
        .to_pandas().sort_values("url").reset_index(drop=True)
    )
    out["size"] = out["size"].astype("int64")
    return out


def zip_enumerate(sf_dir: str) -> pd.DataFrame:
    """S3 zip enumerator + S4 pseudo-path parser (base.py:52-79): the
    whole archive AND a '<zip>/src3' pseudo-path (subtree selected,
    prefix stripped from URLs, zip date_time as the mtime)."""
    from ..sources.seeds import seeds_dataset

    zpath = _zip_fixture(sf_dir)
    out = (
        seeds_dataset([zpath, os.path.join(zpath, "src3")], "http://z.example/")
        .select_columns(["url", "size", "modified_iso"])
        .to_pandas().sort_values("url").reset_index(drop=True)
    )
    out["size"] = out["size"].astype("int64")
    return out


def mapfile_load(sf_dir: str) -> pd.DataFrame:
    """S5 mapfile CSV reader (warcit.py:271-306) through load_mapfile
    (dialect, header whitelist, validation)."""
    from ..sources.sidetables import load_mapfile

    root = os.path.join(_FIXTURE_ROOT, "mapfile")
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, "map.csv")
    docs = _head_docs(sf_dir, 200)
    with open(path, "w") as fh:
        fh.write("file,URL\n")
        for i in docs["doc_id"]:
            fh.write("f%d.txt,http://m.example/%d\n" % (i, i))
    rows = load_mapfile(path)
    df = pd.DataFrame(rows).rename(columns={"URL": "url"})
    return df.sort_values("file").reset_index(drop=True)


def conversion_results_yaml(sf_dir: str) -> pd.DataFrame:
    """K4 conversion-results sink + S7 reader round-trip
    (converter.py:97-115,198-216): two merge-writes (the reference's
    crude per-file checkpoint), read back, flattened in list order.
    Unlike M9, failed conversions ARE retained in the YAML."""
    import shutil

    from ..sources.sidetables import load_conversion_results
    from ..stages.transcode import write_results_yaml

    root = os.path.join(_FIXTURE_ROOT, "results")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root, exist_ok=True)
    docs = _head_docs(sf_dir, 100)
    ids = docs["doc_id"].tolist()
    half = len(ids) // 2

    def results_for(sub):
        out = {}
        for i in sub:
            url = "http://docs.example/doc/%d.txt" % i
            conv = _derived_conversions(url, i)
            if conv:
                out[url] = [
                    {"url": c["url"], "output": "/dev/null",
                     "metadata": c["metadata"], "type": c["type"],
                     "success": c["success"]}
                    for c in conv
                ]
        return out

    # two merge-writes exercise the read-modify-write protocol
    write_results_yaml(results_for(ids[:half]), root)
    write_results_yaml(results_for(ids[half:]), root)
    loaded = load_conversion_results(
        os.path.join(root, "warcit-conversion-results.yaml"))
    rows = {"source_url": [], "pos": [], "url": [], "success": []}
    for src, entries in loaded.items():
        for p, e in enumerate(entries):
            rows["source_url"].append(src)
            rows["pos"].append(p)
            rows["url"].append(e["url"])
            rows["success"].append(bool(e["success"]))
    out = pd.DataFrame(rows)
    out["pos"] = out["pos"].astype("int64")
    return out.sort_values(["source_url", "pos"]).reset_index(drop=True)


def rules_load(sf_dir: str) -> pd.DataFrame:
    """S6 conversion-rules YAML reader (converter.py:70-95): ext and
    regex matchers (regex compiled at load), ordered rule lists."""
    from ..sources.sidetables import load_rules

    root = os.path.join(_FIXTURE_ROOT, "rules")
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, "rules.yaml")
    import yaml

    with open(path, "w") as fh:
        fh.write(yaml.dump({
            "file_types": [
                {"ext": ".flv", "conversion_rules": [
                    {"name": "webm", "ext": "webm", "mime": "video/webm",
                     "command": "ffmpeg -i {input} {output}"},
                    {"name": "mp4", "ext": "mp4", "mime": "video/mp4",
                     "command": "ffmpeg -y -i {input} {output}"},
                ]},
                {"regex": ".*\\.(mov|avi)$", "conversion_rules": [
                    {"name": "mkv", "ext": "mkv", "mime": "video/x-matroska",
                     "command": "ffmpeg -i {input} {output}"},
                ]},
            ],
        }))
    rules = load_rules(path)
    rows = {"ft_idx": [], "matcher_kind": [], "matcher": [], "rule_idx": [],
            "rule_name": [], "ext": [], "mime": [], "command": []}
    for fi, ft in enumerate(rules["file_types"]):
        kind = "ext" if "ext" in ft else "regex"
        matcher = ft.get("ext") or ft["regex"].pattern  # compiled at load
        for ri, rule in enumerate(ft["conversion_rules"]):
            rows["ft_idx"].append(fi)
            rows["matcher_kind"].append(kind)
            rows["matcher"].append(matcher)
            rows["rule_idx"].append(ri)
            rows["rule_name"].append(rule["name"])
            rows["ext"].append(rule["ext"])
            rows["mime"].append(rule["mime"])
            rows["command"].append(rule["command"])
    out = pd.DataFrame(rows)
    for c in ("ft_idx", "rule_idx"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["ft_idx", "rule_idx"]).reset_index(drop=True)


def transclusions_load(sf_dir: str) -> pd.DataFrame:
    """S8 transclusion-manifest reader (converter.py:220-230) over a
    derived manifest for doc_id%5==0 docs."""
    import yaml

    from ..sources.sidetables import load_transclusions

    root = os.path.join(_FIXTURE_ROOT, "tc")
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, "manifest.yaml")
    docs = _head_docs(sf_dir, 100)
    manifest = {}
    for i in docs["doc_id"]:
        if i % 5:
            continue
        url = "http://docs.example/doc/%d.txt" % i
        manifest[url] = [{"url": "http://pages.example/p%d" % i,
                          "timestamp": "20200101000000", "selector": "div#v"}]
    with open(path, "w") as fh:
        fh.write(yaml.dump({"transclusions": manifest}))
    loaded = load_transclusions(path)
    rows = {"resource_url": [], "page_url": [], "ts": [], "selector": []}
    for src, entries in loaded.items():
        for e in entries:
            rows["resource_url"].append(src)
            rows["page_url"].append(e["url"])
            rows["ts"].append(str(e["timestamp"]))
            rows["selector"].append(e["selector"])
    return pd.DataFrame(rows).sort_values("resource_url").reset_index(drop=True)


def warcinfo_record(sf_dir: str) -> pd.DataFrame:
    """K2 warcinfo emitter (warcit.py:450-462): fixed software/format/
    cmdline block, seq -1, pinned clock."""
    from ..config import WarcitConfig
    from ..stages.build_records import warcinfo_row

    cfg = WarcitConfig(name="fixed.warc.gz", cmdline="warcit-ray test",
                       creation_date="2026-01-01T00:00:00Z")
    t = warcinfo_row(cfg).to_pandas()
    out = t[["record_type", "target_uri", "warc_date", "content_type",
             "content_length"]].copy()
    out["payload_text"] = [p.decode("utf-8") for p in t["payload"]]
    out["content_length"] = out["content_length"].astype("int64")
    return out.reset_index(drop=True)


def logfile_rows(sf_dir: str) -> pd.DataFrame:
    """K3 CSV logfile projection (warcit.py:316-330) over the FULL
    build pipeline (S1 walk -> payload load -> M7 record build): fixed
    7-column schema, one row per record, warcinfo excluded."""
    from ..config import WarcitConfig
    from .warc_build import build_warc_dataset, logfile_table

    tree = _walk_fixture(sf_dir)
    cfg = WarcitConfig(url_prefix="http://w.example/", inputs=[tree],
                       creation_date="2026-01-01T00:00:00Z", cmdline="x")
    t = logfile_table(build_warc_dataset(cfg)).to_pandas()
    return t.sort_values("file").reset_index(drop=True)


# ---------------------------------------------------------------------------
# training-data ops
# ---------------------------------------------------------------------------

def dedup_exact(sf_dir: str) -> pd.DataFrame:
    from ..stages.dedup import exact_dedup_groups

    out = exact_dedup_groups(_rp(sf_dir, "documents", ["doc_id", "text"])).to_pandas()
    out["keep_id"] = out["keep_id"].astype("int64")
    out["n_dups"] = out["n_dups"].astype("int64")
    return out.sort_values("text_md5").reset_index(drop=True)


def token_counts(sf_dir: str) -> pd.DataFrame:
    from ..stages.text import token_count_batch

    out = (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(lambda t: token_count_batch(t).select(["doc_id", "ws_tokens"]),
                     batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    out["ws_tokens"] = out["ws_tokens"].astype("int64")
    return out


def embedding_topk(sf_dir: str, k: int = 10, n_queries: int = 5) -> pd.DataFrame:
    """Brute-force cosine top-k; float64 math and 6-dp rounding match
    the DuckDB oracle."""
    from ..stages.similarity import brute_topk

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = _smallest_rows(emb, "vec_id", n_queries)
    queries = np.asarray(qdf["embedding"].tolist(), dtype=np.float64)
    out = brute_topk(emb, queries, k=k, dtype=np.float64)
    for c in ("query_id", "vec_id", "rank"):
        out[c] = out[c].astype("int64")
    return out[["query_id", "vec_id", "rank"]].reset_index(drop=True)


def lang_id(sf_dir: str) -> pd.DataFrame:
    from ..stages.text import lang_id_batch

    out = (
        _rp(sf_dir, "documents", ["doc_id", "text", "lang"])
        .map_batches(lang_id_batch, batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    return out[["doc_id", "lang", "pred_lang"]]


def quality_scores(sf_dir: str) -> pd.DataFrame:
    """Quality features, SQL-checked: ratios and the composed score are
    rounded to 6dp to match the DuckDB oracle's round()."""
    from ..stages.text import quality_score_batch

    out = (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(quality_score_batch, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)[
            ["doc_id", "n_tokens", "punct_ratio", "stopword_ratio", "quality"]
        ]
    )
    for c in ("punct_ratio", "stopword_ratio", "quality"):
        out[c] = out[c].round(6)
    return out


def repetition_scores(sf_dir: str) -> pd.DataFrame:
    """Gopher-style duplicate-bigram ratios (SQL-checked)."""
    from ..stages.text import repetition_score_batch

    out = (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(repetition_score_batch, batch_format="pandas")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    out["rep_ratio"] = out["rep_ratio"].round(6)
    return out[["doc_id", "n_bigrams", "rep_ratio"]]


def fingerprints(sf_dir: str) -> pd.DataFrame:
    from ..stages.text import fingerprint_batch

    return (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(lambda t: fingerprint_batch(t).select(["doc_id", "fingerprint"]),
                     batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def _docs_with_near_dups(sf_dir: str):
    """documents + deterministic perturbed copies of the first 20 docs
    (one token changed, doc_id += 1_000_000) so near-dup operators have
    true positives to find at any scale."""
    import ray.data as rd

    # explicit block count: the pruned two-column read of the (small)
    # documents file would otherwise land in 1-2 blocks, capping every
    # downstream actor pool (MinHasher/SimHasher) at 2 concurrent tasks
    base = _rp(sf_dir, "documents", ["doc_id", "text"], blocks=16)
    head = _smallest_rows(base, "doc_id", 20)
    pert = head.copy()
    pert["doc_id"] = pert["doc_id"] + 1_000_000
    pert["text"] = pert["text"].map(
        lambda t: " ".join(["ZZZ"] + t.split()[1:]) if t else t
    )
    return base.union(rd.from_pandas(pert))


def minhash_dedup(sf_dir: str) -> pd.DataFrame:
    import ray

    from ..stages.dedup import minhash_lsh_dedup

    dup, _ = minhash_lsh_dedup(_docs_with_near_dups(sf_dir), threshold=0.5)
    # via Arrow: Ray's to_pandas drops the columns of a Dataset with no rows
    df = pa.concat_tables(ray.get(dup.to_arrow_refs())).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def simhash_dedup(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup pairs, SQL-checked end to end: with the md5le
    token hash (== DuckDB md5_number_lower) the oracle rebuilds every
    signature bit-for-bit in SQL (unnest tokens -> per-bit votes ->
    sign pack) and takes ALL pairs at hamming <= 6 — which is exactly
    what the banded pair search returns, because n_chunks >= hamming+1
    banding is pigeonhole-complete. Only the hash primitive differs
    from the blake2b default; the machinery is identical."""
    from ..stages.dedup import simhash_near_dups

    pairs = simhash_near_dups(_docs_with_near_dups(sf_dir), max_hamming=6,
                              tok_hash="md5le")
    if len(pairs) == 0:
        return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                             "id_b": pd.Series([], dtype="int64"),
                             "hamming": pd.Series([], dtype="int64")})
    return pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _smallest_rows(ds, key: str, n: int) -> pd.DataFrame:
    """Distributed min-n rows by ``key``: per-batch nsmallest partials,
    tiny driver combine (n x blocks rows) — never the full table."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.nsmallest(n, key)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return parts.nsmallest(n, key).reset_index(drop=True)


def _smallest_ids(sf_dir: str, n: int = 20) -> list[int]:
    return _smallest_rows(_rp(sf_dir, "documents", ["doc_id"]),
                          "doc_id", n)["doc_id"].tolist()


def _shingle3(text: str) -> set:
    toks = text.split()
    return {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}


def jaccard_pairs(sf_dir: str) -> pd.DataFrame:
    """n-gram (3-token shingle) Jaccard as a first-class operator:
    exact set Jaccard for the planted near-dup pairs: a distributed
    semi-join filter + shingling, then one object-store crunch task
    scoring every pair — set Jaccard as the MinHash verify computes it,
    here over raw shingle strings so DuckDB can reproduce it exactly."""
    ds = _docs_with_near_dups(sf_dir)
    head = _smallest_ids(sf_dir, 20)
    pairs = [(int(i), int(i) + 1_000_000) for i in head]
    cand = pa.array([x for p in pairs for x in p], type=pa.int64())

    def pick_shingle(t: pa.Table) -> pa.Table:
        t = t.select(["doc_id", "text"]).filter(
            pc.is_in(t["doc_id"], value_set=cand))
        sh = [sorted(_shingle3(x or "")) for x in t.column("text").to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "sh": pa.array(sh, type=pa.list_(pa.string()))})

    sub = ds.map_batches(pick_shingle, batch_format="pyarrow").repartition(1)

    def verify(t: pa.Table) -> pa.Table:
        m = {i: set(s) for i, s in zip(t.column("doc_id").to_pylist(),
                                       t.column("sh").to_pylist())}
        out_a, out_b, out_j = [], [], []
        for a, b in pairs:
            sa, sb = m.get(a, set()), m.get(b, set())
            out_a.append(a)
            out_b.append(b)
            out_j.append(round(len(sa & sb) / max(1, len(sa | sb)), 6))
        return pa.table({"id_a": pa.array(out_a, type=pa.int64()),
                         "id_b": pa.array(out_b, type=pa.int64()),
                         "jaccard": pa.array(out_j, type=pa.float64())})

    return (sub.map_batches(verify, batch_format="pyarrow", batch_size=None)
            .to_pandas().sort_values("id_a").reset_index(drop=True))


def embedding_near_dup(sf_dir: str) -> pd.DataFrame:
    from ..stages.dedup import embedding_near_dups

    import ray.data as rd

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    # deterministic near-dups: tiny perturbations of the first 10 vectors
    head = _smallest_rows(emb, "vec_id", 10)
    pert = head.copy()
    pert["vec_id"] = pert["vec_id"] + 1_000_000
    pert["embedding"] = pert["embedding"].map(
        lambda v: (np.asarray(v, dtype=np.float32) * 1.001 + 1e-4).tolist()
    )
    ds = emb.union(rd.from_pandas(pert))
    pairs = embedding_near_dups(ds, threshold=0.98)
    pairs = pairs[["id_a", "id_b"]].astype("int64")
    return pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def ann_ivf(sf_dir: str) -> pd.DataFrame:
    from ..stages.similarity import ivf_topk

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = _smallest_rows(emb, "vec_id", 5)
    queries = np.asarray(qdf["embedding"].tolist(), dtype=np.float64)
    out = ivf_topk(emb, queries, k=10, n_clusters=8, nprobe=3)
    return out[["query_id", "vec_id", "rank"]].astype("int64").reset_index(drop=True)


# ---------------------------------------------------------------------------
# warc/crawl/image pipelines (rows-only checks)
# ---------------------------------------------------------------------------

def _scale_n(sf_dir: str, per_unit: int = 4000) -> int:
    """Corpus size proportional to the sf directory's scale."""
    name = os.path.basename(os.path.normpath(sf_dir))
    try:
        sf = float(name.replace("sf", ""))
    except ValueError:
        sf = 0.01
    return max(60, int(per_unit * sf * 10))


def _corpus_for(sf_dir: str, n: int | None = None) -> "pa.Table":
    from ..sources.synth import make_image_table

    return make_image_table(n or _scale_n(sf_dir))


def _warc_docs_table(t: pa.Table, with_digest: bool) -> pa.Table:
    from ..functions.digests import sha1_b32_batch

    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    urls = ["http://docs.example/doc/%d.txt" % i for i in ids]
    payloads = [(x or "").encode("utf-8") for x in texts]
    cols = {
        "doc_id": pa.array(ids, type=pa.int64()),
        "target_uri": pa.array(urls, type=pa.string()),
        "content_type": pa.array(["text/plain"] * len(ids), type=pa.string()),
        "content_length": pa.array([len(p) for p in payloads], type=pa.int64()),
    }
    if with_digest:
        cols["payload_digest"] = sha1_b32_batch(payloads)
    return pa.table(cols)


def warc_build_docs(sf_dir: str) -> pd.DataFrame:
    """WARC-equivalent resource rows over the documents table (payload =
    text bytes): url + mime + lengths (M7 projection, SQL-checkable)."""
    return (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(lambda t: _warc_docs_table(t, False), batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def warc_digests(sf_dir: str) -> pd.DataFrame:
    """Same rows WITH the SHA-1/base32 payload digests (rows-only check;
    digest correctness is unit-tested against the warcio format)."""
    return (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(lambda t: _warc_docs_table(t, True), batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def warc_digests_sha256(sf_dir: str) -> pd.DataFrame:
    """SQL-CHECKED payload-byte fidelity for the digest stage: DuckDB
    1.0 has no sha1(), so the cross-checked digest is hex sha256 over
    the payload bytes (the sha1/base32 WARC rendering stays covered by
    warc_digests + the warcio-format unit tests)."""
    import hashlib

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        payloads = [(x or "").encode("utf-8") for x in texts]
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "target_uri": pa.array(
                ["http://docs.example/doc/%d.txt" % i for i in ids],
                type=pa.string()),
            "content_length": pa.array([len(p) for p in payloads],
                                       type=pa.int64()),
            "payload_sha256": pa.array(
                [hashlib.sha256(p).hexdigest() for p in payloads],
                type=pa.string()),
        })

    return (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(f, batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def clean_corpus_exact(sf_dir: str) -> pd.DataFrame:
    """Composed training-data cleaning pipeline (SQL-checkable leg):
    exact dedup (keep the min doc_id per content hash) -> quality
    scoring -> quality filter (>= 0.5) -> whitespace token counts, one
    chained Dataset — the realistic 'clean a corpus' workflow built
    from the engine's stages, cross-checked end to end by a single
    DuckDB query."""
    from ..stages.dedup import distinct_rows
    from ..stages.text import quality_score_batch, token_count_batch

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    kept = distinct_rows(ds)

    def score_filter(df: pd.DataFrame) -> pd.DataFrame:
        out = quality_score_batch(df)
        return out[out["quality"] >= 0.5]

    cleaned = (
        kept.map_batches(score_filter, batch_format="pandas")
        .map_batches(lambda t: token_count_batch(t.select(["doc_id", "text",
                                                           "quality"])),
                     batch_format="pyarrow")
    )
    out = cleaned.to_pandas().sort_values("doc_id").reset_index(drop=True)
    out["quality"] = out["quality"].round(6)
    return out[["doc_id", "ws_tokens", "quality"]]


def _clean_corpus_frame(sf_dir: str, *, with_lang: bool,
                        drop_broadcast_threshold: int) -> pd.DataFrame:
    from ..stages.dedup import distinct_rows, filter_out_ids, minhash_lsh_dedup
    from ..stages.text import lang_id_batch, quality_score_batch, token_count_batch

    ds = _docs_with_near_dups(sf_dir)  # re-executable: consumed by both
    dup, _ = minhash_lsh_dedup(ds, threshold=0.5)

    kept = distinct_rows(ds)
    kept = filter_out_ids(kept, dup, "doc_id",
                          broadcast_threshold=drop_broadcast_threshold)

    def score_filter(df: pd.DataFrame) -> pd.DataFrame:
        out = quality_score_batch(df)
        return out[out["quality"] >= 0.5]

    cleaned = (
        kept.map_batches(score_filter, batch_format="pandas")
        .map_batches(lambda t: token_count_batch(
            t.select(["doc_id", "text", "quality"])), batch_format="pyarrow")
    )
    if with_lang:
        cleaned = cleaned.map_batches(lang_id_batch, batch_format="pyarrow")
    out = cleaned.to_pandas().sort_values("doc_id").reset_index(drop=True)
    out["quality"] = out["quality"].round(6)
    cols = ["doc_id", "ws_tokens", "quality"] + (
        ["pred_lang"] if with_lang else [])
    return out[cols]


def clean_corpus(sf_dir: str, *,
                 drop_broadcast_threshold: int = 50_000_000) -> pd.DataFrame:
    """Full cleaning chain including the non-SQL-native ops: exact dedup
    -> MinHash+LSH near-dup removal -> quality filter -> token counts ->
    language ID. The near-dup drop set goes through the size-gated
    ``filter_out_ids`` anti-join (broadcast under the threshold,
    bucketed anti-join above — VERDICT r3 #3)."""
    return _clean_corpus_frame(
        sf_dir, with_lang=True,
        drop_broadcast_threshold=drop_broadcast_threshold)


def clean_corpus_near(sf_dir: str) -> pd.DataFrame:
    """The SQL-checkable projection of :func:`clean_corpus` (everything
    but the LangId column): exact dedup -> MinHash+LSH near-dup removal
    -> quality filter -> token counts, checked end to end by ONE chained
    DuckDB oracle. The near-dup leg is oracle-able because the seeded
    LSH's verified drop set provably equals the exact all-pairs
    3-token-shingle-Jaccard >= 0.5 connected components on this corpus
    (checked at sf0.001 AND sf0.01 against brute force — the same
    determinism argument as embedding_near_dup's oracle), so the SQL
    expresses the drop set exactly: string-shingle self-join Jaccard +
    a recursive-CTE min-label connected-components pass."""
    return _clean_corpus_frame(sf_dir, with_lang=False,
                               drop_broadcast_threshold=50_000_000)


def components(sf_dir: str) -> pd.DataFrame:
    """Connected components as a first-class operator: the verified
    near-dup pair graph over the perturbed corpus (exactly the exact-
    Jaccard >= 0.5 edge set — see clean_corpus_near's determinism
    argument) fed through stages.components.connected_components.
    Oracle: the same recursive min-label CTE over SQL-built shingle
    Jaccard edges."""
    import ray.data as rd

    from ..stages.components import connected_components
    from ..stages.dedup import near_dup_pairs

    ds = _docs_with_near_dups(sf_dir)
    verified, _ = near_dup_pairs(ds, threshold=0.5)
    if len(verified) == 0:
        return pd.DataFrame({"member": pd.Series([], dtype="int64"),
                             "component": pd.Series([], dtype="int64")})
    pairs = rd.from_pandas(verified[["id_a", "id_b"]])
    comp = connected_components(pairs)
    return comp.to_pandas().astype("int64").sort_values(
        "member").reset_index(drop=True)


def crawl_records(sf_dir: str) -> pd.DataFrame:
    """Flagship (north rule end to end): seed URLs through the sharded
    cuckoo seen-set, politeness token buckets, robots gating and the
    priority frontier; admitted URLs fetch from the image+caption
    corpus and emit WARC-equivalent resource rows with SHA-1 digests,
    checkpointed per generation with lineage. Returns the record rows
    (payload column dropped; the digest attests the bytes)."""
    import glob
    import tempfile

    import pyarrow.parquet as pq

    from .crawl import WebGraph, crawl

    corpus = _corpus_for(sf_dir, n=min(_scale_n(sf_dir), 400))
    graph = WebGraph(corpus.num_rows)
    with tempfile.TemporaryDirectory() as ck:
        crawl(corpus, graph=graph, n_seeds=8, max_generations=12,
              num_seen_shards=2, num_host_shards=2, checkpoint_dir=ck)
        parts = sorted(glob.glob(os.path.join(ck, "gen=*", "records", "*.parquet")))
        tables = [pq.read_table(p) for p in parts]
    t = pa.concat_tables(tables).drop_columns(["payload"])
    out = t.to_pandas()
    return out.sort_values(["generation", "target_uri"]).reset_index(drop=True)


def crawl_demo(sf_dir: str) -> pd.DataFrame:
    """The frontier+fetch scheduler over a deterministic synthetic
    image corpus (input_hint schema), sized to the sf directory."""
    import tempfile

    from .crawl import WebGraph, crawl

    corpus = _corpus_for(sf_dir, n=min(_scale_n(sf_dir), 400))
    graph = WebGraph(corpus.num_rows)
    with tempfile.TemporaryDirectory() as ck:
        res = crawl(corpus, graph=graph, n_seeds=8, max_generations=12,
                    num_seen_shards=2, num_host_shards=2, checkpoint_dir=ck,
                    track_visits=True)
    rows = pd.DataFrame(res["visit_log"], columns=["generation", "host", "url"])
    return rows.sort_values(["generation", "host", "url"]).reset_index(drop=True)


def image_transcode(sf_dir: str) -> pd.DataFrame:
    """Decode/re-encode the synthetic image corpus (fmt -> png),
    verifying the decoded-pixel invariant per row (the multimodal
    actor-pool stage shape)."""
    import ray.data as rd

    from ..codecs import decode, encode, psnr

    corpus = _corpus_for(sf_dir, n=min(_scale_n(sf_dir), 200))

    def f(t: pa.Table) -> pa.Table:
        out = {"image_id": [], "src_fmt": [], "ok": [], "out_len": [], "psnr_ok": []}
        for row in t.to_pylist():
            try:
                img = decode(row["bytes"], row["fmt"])
                png = encode(img, "png")
                back = decode(png, "png")
                p = psnr(img, back)
                out["ok"].append(True)
                out["out_len"].append(len(png))
                out["psnr_ok"].append(bool(p == float("inf") or p >= 40.0))
            except Exception:
                out["ok"].append(False)
                out["out_len"].append(0)
                out["psnr_ok"].append(False)
            out["image_id"].append(row["image_id"])
            out["src_fmt"].append(row["fmt"])
        return pa.table(out)

    return (
        rd.from_arrow(corpus)
        .map_batches(f, batch_size=32, batch_format="pyarrow", concurrency=2)
        .to_pandas().sort_values("image_id").reset_index(drop=True)
    )


def image_features(sf_dir: str) -> pd.DataFrame:
    """Multimodal feature extraction (decode -> stats/phash) as an
    actor-pool stage over the synthetic image corpus (rows-only)."""
    import ray.data as rd

    from ..stages.multimodal import ImageFeatures

    corpus = _corpus_for(sf_dir, n=min(_scale_n(sf_dir), 150))
    out = (
        rd.from_arrow(corpus.select(["image_id", "bytes", "fmt"]))
        .map_batches(ImageFeatures, batch_size=32, batch_format="pyarrow",
                     concurrency=2)
        .to_pandas().sort_values("image_id").reset_index(drop=True)
    )
    for c in ("mean_r", "mean_g", "mean_b", "luma_std", "edge_density"):
        out[c] = out[c].round(6)
    return out


def image_resize(sf_dir: str) -> pd.DataFrame:
    """Multimodal resize stage (actor pool, wide binary rows, small
    batches): decode -> 32x32 area resize -> re-encode; output digest
    keeps the result checkable without shipping pixels."""
    import hashlib

    import ray.data as rd

    from ..stages.multimodal import ImageDecodeResize

    corpus = _corpus_for(sf_dir, n=min(_scale_n(sf_dir), 150))

    def digest(t: pa.Table) -> pa.Table:
        hs = [hashlib.sha1(b or b"").hexdigest()
              for b in t.column("resized").to_pylist()]
        lens = [len(b or b"") for b in t.column("resized").to_pylist()]
        return pa.table({
            "image_id": t["image_id"],
            "resize_ok": t["resize_ok"],
            "out_len": pa.array(lens, type=pa.int64()),
            "resized_sha1": pa.array(hs, type=pa.string()),
        })

    return (
        rd.from_arrow(corpus.select(["image_id", "bytes", "fmt"]))
        .map_batches(ImageDecodeResize, batch_size=32,
                     batch_format="pyarrow", concurrency=2)
        .map_batches(digest, batch_format="pyarrow")
        .to_pandas().sort_values("image_id").reset_index(drop=True)
    )


def phash_near_dup(sf_dir: str) -> pd.DataFrame:
    """Image near-dup by perceptual-hash hamming distance — the shared
    distributed banding path (stages.dedup.banded_hamming_pairs): chunk
    buckets sized for the threshold by pigeonhole, pair emit + popcount
    verify inside the band groupby, distributed pair dedup."""
    import ray.data as rd

    from ..codecs import decode, encode, phash64
    from ..stages.dedup import banded_hamming_pairs

    corpus = _corpus_for(sf_dir, n=min(_scale_n(sf_dir), 200))
    base = corpus.select(["image_id", "phash"]).to_pandas()
    # plant near-dups: lossy re-encodes of the first 10 images (their
    # phash lands within a few bits of the original)
    planted = []
    for row in corpus.slice(0, 10).to_pylist():
        img = decode(row["bytes"], row["fmt"])
        lossy = decode(encode(img, "dctq", quality=85), "dctq")
        planted.append({"image_id": "dup" + row["image_id"],
                        "phash": np.int64(np.uint64(phash64(lossy)).astype(np.int64))})
    ds = rd.from_pandas(pd.concat([base, pd.DataFrame(planted)], ignore_index=True))

    pairs = banded_hamming_pairs(ds, sig_col="phash", id_col="image_id",
                                 max_hamming=6)
    if len(pairs) == 0:
        return pd.DataFrame({"id_a": pd.Series([], dtype="object"),
                             "id_b": pd.Series([], dtype="object"),
                             "hamming": pd.Series([], dtype="int64")})
    return pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)
