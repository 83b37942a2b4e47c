"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in warcit_ray) calls ray.init()/ray.shutdown().

- entry(): flagship pipeline on /root/testdata/sf0.001.
- queries(): one entry per implemented operator/pipeline (SURVEY.md §2 +
  the training-data ops). Each callable takes sf_dir.
- oracle_sql(): DuckDB-equivalent SQL for the SQL-expressible queries;
  genuinely non-SQL ops (crawl scheduling, LSH/minhash/simhash
  candidates, language ID, image codecs, IVF ANN) are omitted and get
  the driver's rows-only check.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship (north rule): the crawl frontier + fetch scheduler over
    the deterministic image+caption corpus at sf0.001 — sharded
    cuckoo URL-seen, politeness, robots, priority heap, per-generation
    lineage checkpoints — returning the WARC-equivalent record rows."""
    from warcit_ray.pipelines import queries as q

    return q.crawl_records("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from warcit_ray.pipelines import queries as q

    return {
        # relational coverage (sources, filters, aggregates, joins, sort/limit)
        "q1_pricing_summary": q.q1_pricing_summary,
        "q3_top_orders": q.q3_top_orders,
        "top_customers": q.top_customers,
        "priority_revenue": q.priority_revenue,
        "events_hourly": q.events_hourly,
        "sessionize_events": q.sessionize_events,
        "lang_stats": q.lang_stats,
        # warcit operator semantics (SURVEY §2: M1-M10)
        "url_escape": q.url_escape,
        "mime_by_extension": q.mime_by_extension,
        "include_exclude": q.include_exclude,
        "iso_timestamps": q.iso_timestamps,
        "revisit_expansion": q.revisit_expansion,
        "warc_build_docs": q.warc_build_docs,
        "warc_digests": q.warc_digests,
        "warc_digests_sha256": q.warc_digests_sha256,
        "mapfile_remap": q.mapfile_remap,
        "charset_suffixes": q.charset_suffixes,
        "conversion_records": q.conversion_records,
        "transclusion_json": q.transclusion_json,
        # source/sink operators (SURVEY §2: S1-S5, S7, K2-K4)
        "dir_walk": q.dir_walk,
        "zip_enumerate": q.zip_enumerate,
        "mapfile_load": q.mapfile_load,
        "conversion_results_yaml": q.conversion_results_yaml,
        "warcinfo_record": q.warcinfo_record,
        "logfile_rows": q.logfile_rows,
        "rules_load": q.rules_load,
        "transclusions_load": q.transclusions_load,
        # training-data ops
        "dedup_exact": q.dedup_exact,
        "token_counts": q.token_counts,
        "embedding_topk": q.embedding_topk,
        "embedding_near_dup": q.embedding_near_dup,
        "jaccard_pairs": q.jaccard_pairs,
        "minhash_dedup": q.minhash_dedup,
        "simhash_dedup": q.simhash_dedup,
        "lang_id": q.lang_id,
        "quality_scores": q.quality_scores,
        "fingerprints": q.fingerprints,
        "ann_ivf": q.ann_ivf,
        "clean_corpus_exact": q.clean_corpus_exact,
        "clean_corpus": q.clean_corpus,
        "clean_corpus_near": q.clean_corpus_near,
        "components": q.components,
        "repetition_scores": q.repetition_scores,
        # crawl + image pipelines (north rule; rows-only)
        "crawl_demo": q.crawl_demo,
        "crawl_records": q.crawl_records,
        "image_transcode": q.image_transcode,
        "image_features": q.image_features,
        "image_resize": q.image_resize,
        "phash_near_dup": q.phash_near_dup,
    }


# The percent-escape chain for url_escape (reference base.py:107):
# every char of '#;?:@&=+$, ' -> lowercase %xx. Expressed in SQL as a
# nested replace chain (replacement strings contain no escaped chars, so
# order is irrelevant).
_ESCAPE_SQL = "s"
for _c, _r in [("#", "%23"), (";", "%3b"), ("?", "%3f"), (":", "%3a"),
               ("@", "%40"), ("&", "%26"), ("=", "%3d"), ("+", "%2b"),
               ("$", "%24"), (",", "%2c"), (" ", "%20")]:
    _ESCAPE_SQL = "replace(%s, '%s', '%s')" % (_ESCAPE_SQL, _c, _r)


def _tc_template(variant: int) -> str:
    """Expected canonical transclusion JSON (M10 oracle) with IDTOKEN
    placeholders — built with the same stdlib canonicalization the
    reference mandates (json.dumps indent=2 sort_keys, warcit.py:589)."""
    import json

    url = "http://docs.example/doc/IDTOKEN.txt"
    formats = []
    if variant == 0:
        formats = [
            {"name": "webm", "ext": "webm", "url": url + ".webm", "original_url": url},
            {"name": "mp4", "ext": "mp4", "url": url + ".mp4", "original_url": url},
        ]
    elif variant == 1:
        formats = [{"name": "png", "ext": "png", "url": url + ".png",
                    "original_url": url}]
    formats.append({"url": url, "ext": "txt", "original": True,
                    "mime": "text/plain"})
    return json.dumps(
        {"webpage_url": "http://pages.example/pIDTOKEN",
         "webpage_timestamp": "20200101000000", "selector": "div#v",
         "formats": formats},
        indent=2, sort_keys=True)


def _warcinfo_sql() -> str:
    """K2 oracle: the spec-derived warcinfo block (warcit.py:450-462
    field order, CRLF-joined) for the pinned test config."""
    import warcit_ray

    payload = ("software: warcit-ray %s\r\n"
               "format: WARC File Format 1.0\r\n"
               "cmdline: warcit-ray test\r\n") % warcit_ray.__version__
    return """
        SELECT 'warcinfo' AS record_type,
               'fixed.warc.gz' AS target_uri,
               '2026-01-01T00:00:00Z' AS warc_date,
               'application/warc-fields' AS content_type,
               CAST({n} AS BIGINT) AS content_length,
               '{p}' AS payload_text
    """.format(n=len(payload.encode("utf-8")), p=payload.replace("'", "''"))


def oracle_sql() -> dict[str, str]:
    return {
        "q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(l_extendedprice), 2) AS sum_base,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc,
                   count(*) AS n
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "q3_top_orders": """
            SELECT o.o_orderkey,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
                   o.o_orderdate
            FROM customer c
            JOIN orders o ON o.o_custkey = c.c_custkey
            JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND o.o_orderdate < TIMESTAMP '1995-03-15'
              AND l.l_shipdate > TIMESTAMP '1995-03-15'
            GROUP BY o.o_orderkey, o.o_orderdate
            ORDER BY revenue DESC, o.o_orderkey
            LIMIT 10
        """,
        "top_customers": """
            SELECT o.o_custkey AS c_custkey,
                   max(c.c_name) AS c_name,
                   round(sum(o.o_totalprice), 2) AS total_spend,
                   count(*) AS n_orders
            FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
            GROUP BY o.o_custkey
            ORDER BY total_spend DESC, c_custkey
            LIMIT 10
        """,
        "priority_revenue": """
            SELECT o.o_orderpriority,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
                   count(*) AS n_items
            FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderpriority
            ORDER BY o.o_orderpriority
        """,
        "events_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   count(*) AS n, round(sum(value), 4) AS sum_value
            FROM events
            GROUP BY event_type, date_trunc('hour', ts)
            ORDER BY event_type, hour
        """,
        "sessionize_events": """
            WITH marked AS (
                SELECT user_id, ts, value, event_id,
                       CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS brk
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), sess AS (
                SELECT user_id, ts, value,
                       sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                      ROWS UNBOUNDED PRECEDING) AS sid
                FROM marked
            )
            SELECT user_id, min(ts) AS session_start,
                   count(*) AS n_events, round(sum(value), 4) AS sum_value
            FROM sess GROUP BY user_id, sid
            ORDER BY user_id, session_start
        """,
        "lang_stats": """
            SELECT lang, count(*) AS n_docs,
                   round(avg(n_chars), 4) AS avg_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "url_escape": """
            SELECT doc_id,
                   'http://docs.example/' || {esc} AS url
            FROM (
                SELECT doc_id,
                       source || '/' || 'doc#' || CAST(doc_id AS VARCHAR)
                              || ' v1,x.txt' AS s
                FROM documents
            ) ORDER BY doc_id
        """.format(esc=_ESCAPE_SQL),
        "mime_by_extension": """
            SELECT doc_id,
                   'http://docs.example/f' || CAST(doc_id AS VARCHAR) || ext AS url,
                   CASE ext WHEN '.html' THEN 'text/html'
                            WHEN '.css' THEN 'text/css'
                            WHEN '.js' THEN 'text/javascript'
                            WHEN '.png' THEN 'image/png'
                            WHEN '.ico' THEN 'image/x-icon' END AS mime
            FROM (
                SELECT doc_id,
                       CASE doc_id % 5 WHEN 0 THEN '.html' WHEN 1 THEN '.css'
                            WHEN 2 THEN '.js' WHEN 3 THEN '.png'
                            ELSE '.ico' END AS ext
                FROM documents
            ) ORDER BY doc_id
        """,
        "include_exclude": """
            SELECT doc_id,
                   CASE WHEN (doc_id % 5) = 0 THEN TRUE           -- *.html: include wins
                        WHEN (doc_id % 5) IN (2, 3) THEN FALSE    -- *.js / *.png excluded
                        ELSE TRUE END AS kept
            FROM documents ORDER BY doc_id
        """,
        "iso_timestamps": """
            SELECT event_id, strftime(ts, '%Y-%m-%dT%H:%M:%SZ') AS warc_date
            FROM events ORDER BY event_id
        """,
        "revisit_expansion": """
            SELECT doc_id, record_type, target_uri FROM (
                SELECT doc_id, 'resource' AS record_type,
                       'http://docs.example/src' || CAST(doc_id AS VARCHAR)
                           || '/index.html' AS target_uri
                FROM documents
                UNION ALL
                SELECT doc_id, 'revisit' AS record_type,
                       'http://docs.example/src' || CAST(doc_id AS VARCHAR)
                           || '/' AS target_uri
                FROM documents WHERE doc_id % 10 = 0
            ) ORDER BY doc_id, record_type
        """,
        "dir_walk": """
            SELECT 'http://w.example/src' || CAST(doc_id % 10 AS VARCHAR)
                       || '/f' || CAST(doc_id AS VARCHAR) || '%20a.txt' AS url,
                   CAST(octet_length(encode(text)) AS BIGINT) AS size,
                   '2020-02-02T02:02:02Z' AS modified_iso
            FROM documents WHERE doc_id < 500 ORDER BY url
        """,
        "zip_enumerate": """
            SELECT url, size, modified_iso FROM (
                SELECT 'http://z.example/src' || CAST(doc_id % 10 AS VARCHAR)
                           || '/f' || CAST(doc_id AS VARCHAR) || ' a.txt' AS url,
                       CAST(octet_length(encode(text)) AS BIGINT) AS size,
                       '2017-10-17T14:30:26Z' AS modified_iso
                FROM documents WHERE doc_id < 500
                UNION ALL
                SELECT 'http://z.example/f' || CAST(doc_id AS VARCHAR)
                           || ' a.txt' AS url,
                       CAST(octet_length(encode(text)) AS BIGINT) AS size,
                       '2017-10-17T14:30:26Z' AS modified_iso
                FROM documents WHERE doc_id < 500 AND doc_id % 10 = 3
            ) ORDER BY url
        """,
        "mapfile_load": """
            SELECT 'f' || CAST(doc_id AS VARCHAR) || '.txt' AS file,
                   'http://m.example/' || CAST(doc_id AS VARCHAR) AS url
            FROM documents WHERE doc_id < 200 ORDER BY file
        """,
        "conversion_results_yaml": """
            SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR)
                       || '.txt' AS source_url,
                   pos,
                   'http://docs.example/doc/' || CAST(doc_id AS VARCHAR)
                       || '.txt' || ext AS url,
                   success
            FROM (
                SELECT doc_id, CAST(0 AS BIGINT) AS pos, '.webm' AS ext,
                       TRUE AS success
                FROM documents WHERE doc_id < 100 AND doc_id % 4 = 0
                UNION ALL
                SELECT doc_id, 1, '.mp4', TRUE
                FROM documents WHERE doc_id < 100 AND doc_id % 4 = 0
                UNION ALL
                SELECT doc_id, 0, '.png', TRUE
                FROM documents WHERE doc_id < 100 AND doc_id % 4 = 1
                UNION ALL
                SELECT doc_id, 0, '.gif', FALSE
                FROM documents WHERE doc_id < 100 AND doc_id % 4 = 2
            ) ORDER BY source_url, pos
        """,
        "rules_load": """
            SELECT * FROM (VALUES
                (CAST(0 AS BIGINT), 'ext', '.flv', CAST(0 AS BIGINT),
                 'webm', 'webm', 'video/webm', 'ffmpeg -i {input} {output}'),
                (0, 'ext', '.flv', 1,
                 'mp4', 'mp4', 'video/mp4', 'ffmpeg -y -i {input} {output}'),
                (1, 'regex', '.*\\.(mov|avi)$', 0,
                 'mkv', 'mkv', 'video/x-matroska', 'ffmpeg -i {input} {output}')
            ) AS t(ft_idx, matcher_kind, matcher, rule_idx,
                   rule_name, ext, mime, command)
            ORDER BY ft_idx, rule_idx
        """,
        "transclusions_load": """
            SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR)
                       || '.txt' AS resource_url,
                   'http://pages.example/p' || CAST(doc_id AS VARCHAR) AS page_url,
                   '20200101000000' AS ts,
                   'div#v' AS selector
            FROM documents WHERE doc_id < 100 AND doc_id % 5 = 0
            ORDER BY resource_url
        """,
        "warcinfo_record": _warcinfo_sql(),
        "logfile_rows": """
            SELECT '/tmp/warcit_ray_fixture/walk/tree/src'
                       || CAST(doc_id % 10 AS VARCHAR) || '/f'
                       || CAST(doc_id AS VARCHAR) || ' a.txt' AS "file",
                   'resource' AS "Record-Type",
                   'http://w.example/src' || CAST(doc_id % 10 AS VARCHAR)
                       || '/f' || CAST(doc_id AS VARCHAR) || '%20a.txt' AS "URL",
                   '2020-02-02T02:02:02Z' AS "timestamp",
                   'text/plain' AS "Content-Type",
                   'text/plain' AS mime,
                   '' AS charset
            FROM documents WHERE doc_id < 500 ORDER BY "file"
        """,
        "mapfile_remap": """
            SELECT doc_id,
                   CASE WHEN ext = '.html' AND doc_id % 10 = 0 THEN 0
                        WHEN ext = '.css' THEN 1
                        WHEN doc_id = 7 THEN 2
                        ELSE -1 END AS match_idx,
                   CASE WHEN ext = '.html' AND doc_id % 10 = 0
                            THEN 'http://remap.example/zero'
                        WHEN ext = '.css' THEN 'http://remap.example/css'
                        WHEN doc_id = 7 THEN 'http://remap.example/seven'
                        ELSE 'http://docs.example/web/f'
                             || CAST(doc_id AS VARCHAR) || ext END AS url,
                   CASE WHEN ext = '.html' AND doc_id % 10 = 0 THEN '2019'
                        WHEN doc_id = 7 THEN '20200101'
                        ELSE '' END AS mapped_ts,
                   CASE WHEN ext = '.html' AND doc_id % 10 = 0 THEN 'x/y; charset=q'
                        WHEN doc_id = 7 THEN 'text/plain'
                        ELSE '' END AS mapped_ct
            FROM (
                SELECT doc_id,
                       CASE doc_id % 5 WHEN 0 THEN '.html' WHEN 1 THEN '.css'
                            WHEN 2 THEN '.js' WHEN 3 THEN '.png'
                            ELSE '.ico' END AS ext
                FROM documents
            ) ORDER BY doc_id
        """,
        "charset_suffixes": """
            SELECT doc_id,
                   CASE doc_id % 4
                        WHEN 0 THEN 'text/html'
                        WHEN 1 THEN 'text/html; charset=UTF-8'
                        WHEN 2 THEN 'text/html; charset=windows-1252'
                        ELSE 'text/html; charset=windows-1258' END AS content_type
            FROM documents ORDER BY doc_id
        """,
        "conversion_records": """
            SELECT doc_id, conv_seq, 'conversion' AS record_type,
                   'http://docs.example/doc/' || CAST(doc_id AS VARCHAR)
                       || '.txt' || ext AS target_uri,
                   'http://docs.example/doc/' || CAST(doc_id AS VARCHAR)
                       || '.txt' AS refers_to_uri
            FROM (
                SELECT doc_id, CAST(0 AS BIGINT) AS conv_seq, '.webm' AS ext
                FROM documents WHERE doc_id % 4 = 0
                UNION ALL
                SELECT doc_id, 1, '.mp4' FROM documents WHERE doc_id % 4 = 0
                UNION ALL
                SELECT doc_id, 0, '.png' FROM documents WHERE doc_id % 4 = 1
            ) ORDER BY doc_id, conv_seq
        """,
        "transclusion_json": """
            SELECT doc_id,
                   'urn:embeds:http://pages.example/p'
                       || CAST(doc_id AS VARCHAR) AS target_uri,
                   replace(CASE doc_id %% 4
                               WHEN 0 THEN '%s'
                               WHEN 1 THEN '%s'
                               ELSE '%s' END,
                           'IDTOKEN', CAST(doc_id AS VARCHAR)) AS payload_json
            FROM documents WHERE doc_id %% 5 = 0 ORDER BY doc_id
        """ % (_tc_template(0), _tc_template(1), _tc_template(2)),
        "warc_build_docs": """
            SELECT doc_id,
                   'http://docs.example/doc/' || CAST(doc_id AS VARCHAR)
                       || '.txt' AS target_uri,
                   'text/plain' AS content_type,
                   CAST(octet_length(encode(text)) AS BIGINT) AS content_length
            FROM documents ORDER BY doc_id
        """,
        "repetition_scores": """
            -- duplicate-bigram ratio: 1 - distinct/total over token
            -- bigrams (Gopher-style repetition filter feature)
            WITH t AS (
                SELECT doc_id,
                       CASE WHEN trim(coalesce(text, ''),
                                      ' ' || chr(9) || chr(10) || chr(13)
                                      || chr(12) || chr(11)) = ''
                            THEN CAST([] AS VARCHAR[])
                            ELSE regexp_split_to_array(
                                trim(text, ' ' || chr(9) || chr(10)
                                     || chr(13) || chr(12) || chr(11)),
                                '[ \\t\\n\\r\\f\\v]+')
                       END AS toks
                FROM documents
            ), b AS (
                SELECT doc_id,
                       CASE WHEN len(toks) < 2 THEN CAST([] AS VARCHAR[])
                            ELSE list_transform(range(1, len(toks)),
                                i -> toks[i] || chr(0) || toks[i + 1])
                       END AS bigrams
                FROM t
            )
            SELECT doc_id,
                   CAST(len(bigrams) AS BIGINT) AS n_bigrams,
                   CASE WHEN len(bigrams) = 0 THEN 0.0
                        ELSE round(1.0 - CAST(len(list_distinct(bigrams))
                                              AS DOUBLE) / len(bigrams), 6)
                   END AS rep_ratio
            FROM b ORDER BY doc_id
        """,
        "clean_corpus_exact": """
            -- composed cleaning chain: exact dedup (min doc_id per
            -- content hash) -> quality score -> filter >= 0.5 -> token
            -- counts; whitespace semantics as in quality_scores
            WITH keep AS (
                SELECT min(doc_id) AS doc_id
                FROM documents GROUP BY md5(coalesce(text, ''))
            ), t AS (
                SELECT d.doc_id, coalesce(d.text, '') AS text,
                       CASE WHEN trim(coalesce(d.text, ''),
                                      ' ' || chr(9) || chr(10) || chr(13)
                                      || chr(12) || chr(11)) = ''
                            THEN CAST([] AS VARCHAR[])
                            ELSE regexp_split_to_array(
                                trim(d.text, ' ' || chr(9) || chr(10)
                                     || chr(13) || chr(12) || chr(11)),
                                '[ \\t\\n\\r\\f\\v]+')
                       END AS toks
                FROM documents d JOIN keep k ON k.doc_id = d.doc_id
            ), f AS (
                SELECT doc_id,
                       CAST(len(toks) AS BIGINT) AS ws_tokens,
                       CAST(length(text) AS DOUBLE) AS n_chars,
                       CAST(length(regexp_replace(text,
                            '[\\w \\t\\n\\r\\f\\v]', '', 'g'))
                            AS DOUBLE) AS punct,
                       CAST(len(list_filter(toks, s -> lower(s) IN
                            ('the','and','of','a','to','in','is','it',
                             'that','for'))) AS DOUBLE) AS stop_hits
                FROM t
            ), q AS (
                SELECT doc_id, ws_tokens,
                       least(greatest(ws_tokens / 64.0, 0), 1) * 0.4
                       + least(greatest(1 - (punct / greatest(n_chars, 1)) * 4,
                                        0), 1) * 0.3
                       + least(greatest((stop_hits
                                         / greatest(CAST(ws_tokens AS DOUBLE),
                                                    1)) * 4, 0), 1) * 0.3
                           AS quality
                FROM f
            )
            SELECT doc_id, ws_tokens, round(quality, 6) AS quality
            FROM q WHERE quality >= 0.5 ORDER BY doc_id
        """,
        "clean_corpus_near": """
            -- clean_corpus_near oracle: corpus = documents + perturbed head-20
            -- (doc_id+1e6, first token -> ZZZ); near-dup drop = connected
            -- components of exact 3-token-shingle Jaccard >= 0.5 (the seeded LSH
            -- provably finds exactly this set on this corpus); chain = exact dedup
            -- (min doc_id per content hash) -> near-dup drop -> quality >= 0.5 ->
            -- whitespace token counts.
            WITH RECURSIVE corpus AS (
                SELECT doc_id, coalesce(text, '') AS text FROM documents
                UNION ALL
                SELECT doc_id + 1000000 AS doc_id,
                       regexp_replace(coalesce(text, ''), '^\\S+', 'ZZZ') AS text
                FROM documents
                WHERE doc_id IN (SELECT doc_id FROM documents ORDER BY doc_id LIMIT 20)
            ), toks AS (
                SELECT doc_id, string_split(text, ' ') AS t FROM corpus
            ), shingles AS (
                SELECT DISTINCT doc_id,
                       unnest(list_transform(range(1, len(t) - 1),
                           i -> t[i] || chr(31) || t[i+1] || chr(31) || t[i+2])) AS sh
                FROM toks
            ), sizes AS (
                SELECT doc_id, count(*) AS n FROM shingles GROUP BY doc_id
            ), inter AS (
                SELECT a.doc_id AS ida, b.doc_id AS idb, count(*) AS m
                FROM shingles a JOIN shingles b ON a.sh = b.sh AND a.doc_id < b.doc_id
                GROUP BY a.doc_id, b.doc_id
            ), edges AS (
                SELECT ida, idb FROM inter
                JOIN sizes sa ON sa.doc_id = ida JOIN sizes sb ON sb.doc_id = idb
                WHERE m >= 0.5 * (sa.n + sb.n - m)
            ), sym AS (
                SELECT ida AS a, idb AS b FROM edges
                UNION ALL SELECT idb, ida FROM edges
            ), reach AS (
                SELECT a AS id, a AS lbl FROM sym
                UNION
                SELECT s.b, r.lbl FROM reach r JOIN sym s ON s.a = r.id
            ), drop_ids AS (
                SELECT id AS doc_id FROM reach GROUP BY id HAVING min(lbl) < id
            ), keep AS (
                SELECT min(doc_id) AS doc_id FROM corpus GROUP BY md5(text)
            ), t AS (
                SELECT c.doc_id, c.text, string_split(c.text, ' ') AS toks
                FROM corpus c JOIN keep k ON k.doc_id = c.doc_id
                WHERE c.doc_id NOT IN (SELECT doc_id FROM drop_ids)
            ), f AS (
                SELECT doc_id,
                       CAST(len(toks) AS BIGINT) AS ws_tokens,
                       CAST(length(text) AS DOUBLE) AS n_chars,
                       CAST(length(regexp_replace(text,
                            '[\\w \t\n\r\f\v]', '', 'g')) AS DOUBLE) AS punct,
                       CAST(len(list_filter(toks, s -> lower(s) IN
                            ('the','and','of','a','to','in','is','it',
                             'that','for'))) AS DOUBLE) AS stop_hits
                FROM t
            ), q AS (
                SELECT doc_id, ws_tokens,
                       least(greatest(ws_tokens / 64.0, 0), 1) * 0.4
                       + least(greatest(1 - (punct / greatest(n_chars, 1)) * 4, 0), 1) * 0.3
                       + least(greatest((stop_hits / greatest(CAST(ws_tokens AS DOUBLE), 1))
                                        * 4, 0), 1) * 0.3 AS quality
                FROM f
            )
            SELECT doc_id, ws_tokens, round(quality, 6) AS quality
            FROM q WHERE quality >= 0.5 ORDER BY doc_id
        """,
        "clean_corpus": """
            -- full cleaning chain = clean_corpus_near + language ID:
            -- same corpus / edge / drop / keep / quality CTEs (see the
            -- clean_corpus_near determinism argument), plus the LangId
            -- stopword-argmax heuristic re-expressed in SQL (lang_id's
            -- oracle) for the pred_lang column.
            WITH RECURSIVE corpus AS (
                SELECT doc_id, coalesce(text, '') AS text FROM documents
                UNION ALL
                SELECT doc_id + 1000000 AS doc_id,
                       regexp_replace(coalesce(text, ''), '^\\S+', 'ZZZ') AS text
                FROM documents
                WHERE doc_id IN (SELECT doc_id FROM documents ORDER BY doc_id LIMIT 20)
            ), toks AS (
                SELECT doc_id, string_split(text, ' ') AS t FROM corpus
            ), shingles AS (
                SELECT DISTINCT doc_id,
                       unnest(list_transform(range(1, len(t) - 1),
                           i -> t[i] || chr(31) || t[i+1] || chr(31) || t[i+2])) AS sh
                FROM toks
            ), sizes AS (
                SELECT doc_id, count(*) AS n FROM shingles GROUP BY doc_id
            ), inter AS (
                SELECT a.doc_id AS ida, b.doc_id AS idb, count(*) AS m
                FROM shingles a JOIN shingles b ON a.sh = b.sh AND a.doc_id < b.doc_id
                GROUP BY a.doc_id, b.doc_id
            ), edges AS (
                SELECT ida, idb FROM inter
                JOIN sizes sa ON sa.doc_id = ida JOIN sizes sb ON sb.doc_id = idb
                WHERE m >= 0.5 * (sa.n + sb.n - m)
            ), sym AS (
                SELECT ida AS a, idb AS b FROM edges
                UNION ALL SELECT idb, ida FROM edges
            ), reach AS (
                SELECT a AS id, a AS lbl FROM sym
                UNION
                SELECT s.b, r.lbl FROM reach r JOIN sym s ON s.a = r.id
            ), drop_ids AS (
                SELECT id AS doc_id FROM reach GROUP BY id HAVING min(lbl) < id
            ), keep AS (
                SELECT min(doc_id) AS doc_id FROM corpus GROUP BY md5(text)
            ), t AS (
                SELECT c.doc_id, c.text, string_split(c.text, ' ') AS toks
                FROM corpus c JOIN keep k ON k.doc_id = c.doc_id
                WHERE c.doc_id NOT IN (SELECT doc_id FROM drop_ids)
            ), f AS (
                SELECT doc_id,
                       CAST(len(toks) AS BIGINT) AS ws_tokens,
                       CAST(length(text) AS DOUBLE) AS n_chars,
                       CAST(length(regexp_replace(text,
                            '[\\w \t\n\r\f\v]', '', 'g')) AS DOUBLE) AS punct,
                       CAST(len(list_filter(toks, s -> lower(s) IN
                            ('the','and','of','a','to','in','is','it',
                             'that','for'))) AS DOUBLE) AS stop_hits
                FROM t
            ), q AS (
                SELECT doc_id, ws_tokens,
                       least(greatest(ws_tokens / 64.0, 0), 1) * 0.4
                       + least(greatest(1 - (punct / greatest(n_chars, 1)) * 4, 0), 1) * 0.3
                       + least(greatest((stop_hits / greatest(CAST(ws_tokens AS DOUBLE), 1))
                                        * 4, 0), 1) * 0.3 AS quality
                FROM f
            ), lw AS (
                SELECT doc_id,
                       regexp_extract_all(lower(substr(text, 1, 2000)),
                                          '[a-z]+') AS words,
                       text
                FROM t
            ), lh AS (
                SELECT doc_id, text, words,
                    len(list_filter(words, x -> x IN ('the','and','of','a','to',
                        'in','is','it','that','for'))) AS en,
                    len(list_filter(words, x -> x IN ('der','die','das','und',
                        'ist','ein','nicht','mit','sich','auf'))) AS de,
                    len(list_filter(words, x -> x IN ('le','la','les','et','est',
                        'un','une','dans','pour','que'))) AS fr,
                    len(list_filter(words, x -> x IN ('el','la','los','y','es',
                        'un','una','en','por','que'))) AS es
                FROM lw
            ), lp AS (
                SELECT doc_id,
                    CASE WHEN text IS NULL OR text = '' THEN 'und'
                         WHEN len(words) = 0 THEN 'und'
                         WHEN greatest(en, de, fr, es) <= 0 THEN 'und'
                         WHEN en >= de AND en >= fr AND en >= es THEN 'en'
                         WHEN de >= fr AND de >= es THEN 'de'
                         WHEN fr >= es THEN 'fr'
                         ELSE 'es' END AS pred_lang
                FROM lh
            )
            SELECT q.doc_id, q.ws_tokens, round(q.quality, 6) AS quality,
                   lp.pred_lang
            FROM q JOIN lp ON lp.doc_id = q.doc_id
            WHERE q.quality >= 0.5 ORDER BY q.doc_id
        """,
        "minhash_dedup": """
            -- MinHash+LSH near-dup (doc_id, dup_of): the seeded LSH's
            -- verified pair set provably yields exactly the exact
            -- 3-token-shingle-Jaccard >= 0.5 connected components on
            -- this corpus (the clean_corpus_near determinism argument),
            -- and the union-find root is the component min — so dup_of
            -- is each member's min reachable id.
            WITH RECURSIVE corpus AS (
                SELECT doc_id, coalesce(text, '') AS text FROM documents
                UNION ALL
                SELECT doc_id + 1000000 AS doc_id,
                       regexp_replace(coalesce(text, ''), '^\\S+', 'ZZZ') AS text
                FROM documents
                WHERE doc_id IN (SELECT doc_id FROM documents ORDER BY doc_id LIMIT 20)
            ), toks AS (
                SELECT doc_id, string_split(text, ' ') AS t FROM corpus
            ), shingles AS (
                SELECT DISTINCT doc_id,
                       unnest(list_transform(range(1, len(t) - 1),
                           i -> t[i] || chr(31) || t[i+1] || chr(31) || t[i+2])) AS sh
                FROM toks
            ), sizes AS (
                SELECT doc_id, count(*) AS n FROM shingles GROUP BY doc_id
            ), inter AS (
                SELECT a.doc_id AS ida, b.doc_id AS idb, count(*) AS m
                FROM shingles a JOIN shingles b ON a.sh = b.sh AND a.doc_id < b.doc_id
                GROUP BY a.doc_id, b.doc_id
            ), edges AS (
                SELECT ida, idb FROM inter
                JOIN sizes sa ON sa.doc_id = ida JOIN sizes sb ON sb.doc_id = idb
                WHERE m >= 0.5 * (sa.n + sb.n - m)
            ), sym AS (
                SELECT ida AS a, idb AS b FROM edges
                UNION ALL SELECT idb, ida FROM edges
            ), reach AS (
                SELECT a AS id, a AS lbl FROM sym
                UNION
                SELECT s.b, r.lbl FROM reach r JOIN sym s ON s.a = r.id
            )
            SELECT id AS doc_id, min(lbl) AS dup_of
            FROM reach GROUP BY id HAVING min(lbl) < id ORDER BY doc_id
        """,
        "simhash_dedup": """
            -- SimHash rebuilt bit-for-bit in SQL: md5le token hash ==
            -- md5_number_lower; per-bit votes over token occurrences;
            -- sign pack to a two's-complement BIGINT; ALL pairs at
            -- hamming <= 6 (the banded pair search is pigeonhole-
            -- complete at n_chunks >= hamming+1, so it returns exactly
            -- this set). Empty docs sign to 0 via the left join.
            WITH corpus AS (
                SELECT doc_id, coalesce(text, '') AS text FROM documents
                UNION ALL
                SELECT doc_id + 1000000 AS doc_id,
                       regexp_replace(coalesce(text, ''), '^\\S+', 'ZZZ') AS text
                FROM documents
                WHERE doc_id IN (SELECT doc_id FROM documents ORDER BY doc_id LIMIT 20)
            ), toks AS (
                SELECT doc_id, unnest(list_filter(
                    regexp_split_to_array(lower(text), '\\s+'),
                    s -> s <> '')) AS tok
                FROM corpus
            ), votes AS (
                SELECT doc_id, b,
                       sum(CASE WHEN (md5_number_lower(tok) >> b) & 1 = 1
                                THEN 1 ELSE -1 END) AS v
                FROM toks, range(64) r(b)
                GROUP BY doc_id, b
            ), sigs AS (
                SELECT doc_id,
                       sum(CASE WHEN v > 0 THEN CAST(1 AS HUGEINT) << b
                                ELSE CAST(0 AS HUGEINT) END) AS s
                FROM votes GROUP BY doc_id
            ), allsig AS (
                SELECT c.doc_id,
                       CAST(CASE WHEN coalesce(s.s, 0)
                                      >= CAST('9223372036854775808' AS HUGEINT)
                                 THEN coalesce(s.s, 0)
                                      - CAST('18446744073709551616' AS HUGEINT)
                                 ELSE coalesce(s.s, 0) END AS BIGINT) AS sig
                FROM corpus c LEFT JOIN sigs s USING (doc_id)
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(bit_count(xor(a.sig, b.sig)) AS BIGINT) AS hamming
            FROM allsig a JOIN allsig b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.sig, b.sig)) <= 6
            ORDER BY id_a, id_b
        """,
        "lang_id": """
            -- LangId heuristic in SQL (corpus is pure ASCII, so the
            -- CJK branch is vacuous and [^\\W\\d_]+ == [a-z]+ after
            -- lower()): stopword-hit argmax over en/de/fr/es with
            -- first-wins tie order and 'und' when nothing hits.
            WITH w AS (
                SELECT doc_id, lang, text,
                       regexp_extract_all(lower(substr(coalesce(text, ''),
                                                       1, 2000)),
                                          '[a-z]+') AS words
                FROM documents
            ), h AS (
                SELECT doc_id, lang, text, words,
                    len(list_filter(words, x -> x IN ('the','and','of','a','to',
                        'in','is','it','that','for'))) AS en,
                    len(list_filter(words, x -> x IN ('der','die','das','und',
                        'ist','ein','nicht','mit','sich','auf'))) AS de,
                    len(list_filter(words, x -> x IN ('le','la','les','et','est',
                        'un','une','dans','pour','que'))) AS fr,
                    len(list_filter(words, x -> x IN ('el','la','los','y','es',
                        'un','una','en','por','que'))) AS es
                FROM w
            )
            SELECT doc_id, lang,
                CASE WHEN text IS NULL OR text = '' THEN 'und'
                     WHEN len(words) = 0 THEN 'und'
                     WHEN greatest(en, de, fr, es) <= 0 THEN 'und'
                     WHEN en >= de AND en >= fr AND en >= es THEN 'en'
                     WHEN de >= fr AND de >= es THEN 'de'
                     WHEN fr >= es THEN 'fr'
                     ELSE 'es' END AS pred_lang
            FROM h ORDER BY doc_id
        """,
        "components": """
            -- connected components of the exact shingle-Jaccard >= 0.5
            -- pair graph (same corpus + edge CTEs as clean_corpus_near;
            -- see its determinism argument): min reachable id per member
            -- clean_corpus_near oracle: corpus = documents + perturbed head-20
            -- (doc_id+1e6, first token -> ZZZ); near-dup drop = connected
            -- components of exact 3-token-shingle Jaccard >= 0.5 (the seeded LSH
            -- provably finds exactly this set on this corpus); chain = exact dedup
            -- (min doc_id per content hash) -> near-dup drop -> quality >= 0.5 ->
            -- whitespace token counts.
            WITH RECURSIVE corpus AS (
                SELECT doc_id, coalesce(text, '') AS text FROM documents
                UNION ALL
                SELECT doc_id + 1000000 AS doc_id,
                       regexp_replace(coalesce(text, ''), '^\\S+', 'ZZZ') AS text
                FROM documents
                WHERE doc_id IN (SELECT doc_id FROM documents ORDER BY doc_id LIMIT 20)
            ), toks AS (
                SELECT doc_id, string_split(text, ' ') AS t FROM corpus
            ), shingles AS (
                SELECT DISTINCT doc_id,
                       unnest(list_transform(range(1, len(t) - 1),
                           i -> t[i] || chr(31) || t[i+1] || chr(31) || t[i+2])) AS sh
                FROM toks
            ), sizes AS (
                SELECT doc_id, count(*) AS n FROM shingles GROUP BY doc_id
            ), inter AS (
                SELECT a.doc_id AS ida, b.doc_id AS idb, count(*) AS m
                FROM shingles a JOIN shingles b ON a.sh = b.sh AND a.doc_id < b.doc_id
                GROUP BY a.doc_id, b.doc_id
            ), edges AS (
                SELECT ida, idb FROM inter
                JOIN sizes sa ON sa.doc_id = ida JOIN sizes sb ON sb.doc_id = idb
                WHERE m >= 0.5 * (sa.n + sb.n - m)
            ), sym AS (
                SELECT ida AS a, idb AS b FROM edges
                UNION ALL SELECT idb, ida FROM edges
            ), reach AS (
                SELECT a AS id, a AS lbl FROM sym
                UNION
                SELECT s.b, r.lbl FROM reach r JOIN sym s ON s.a = r.id
            )
            SELECT id AS member, min(lbl) AS component
            FROM reach GROUP BY id ORDER BY member
        """,
        "fingerprints": """
            -- Horner rolling hash h = (h*B + byte+1) mod 2^61-1 over the
            -- whitespace-normalized lowercased text, HUGEINT intermediate
            -- (h*B < 2^81). ascii(c)+1 == utf-8 byte+1 because the
            -- documents corpus is pure ASCII (checked by the engine's
            -- equivalence tests for the general byte path).
            SELECT doc_id,
                   CAST(CASE WHEN norm = '' THEN 0 ELSE list_reduce(
                       list_prepend(CAST(0 AS HUGEINT),
                           list_transform(split(norm, ''),
                               c -> CAST(ascii(c) + 1 AS HUGEINT))),
                       (h, b) -> (h * 1000003 + b) % 2305843009213693951
                   ) END AS BIGINT) AS fingerprint
            FROM (
                SELECT doc_id,
                       regexp_replace(lower(trim(coalesce(text, ''),
                                                 ' ' || chr(9) || chr(10)
                                                 || chr(13) || chr(12)
                                                 || chr(11))),
                                      '\\s+', ' ', 'g') AS norm
                FROM documents
            ) ORDER BY doc_id
        """,
        "warc_digests_sha256": """
            SELECT doc_id,
                   'http://docs.example/doc/' || CAST(doc_id AS VARCHAR)
                       || '.txt' AS target_uri,
                   CAST(octet_length(encode(coalesce(text, ''))) AS BIGINT)
                       AS content_length,
                   sha256(coalesce(text, '')) AS payload_sha256
            FROM documents ORDER BY doc_id
        """,
        "quality_scores": """
            -- whitespace class written out as [ \\t\\n\\r\\f\\v]: the engine
            -- tokenizes with Python str.split()/\\s, and RE2's \\s (and
            -- DuckDB's default trim) excludes \\v / non-space edges.
            -- Equivalence is exact for ASCII corpora (this one);
            -- Unicode spaces (NBSP, U+2000..) would still split only
            -- on the Python side
            WITH t AS (
                SELECT doc_id, coalesce(text, '') AS text,
                       CASE WHEN trim(coalesce(text, ''),
                                      ' ' || chr(9) || chr(10) || chr(13)
                                      || chr(12) || chr(11)) = ''
                            THEN CAST([] AS VARCHAR[])
                            ELSE regexp_split_to_array(
                                trim(text, ' ' || chr(9) || chr(10)
                                     || chr(13) || chr(12) || chr(11)),
                                '[ \\t\\n\\r\\f\\v]+')
                       END AS toks
                FROM documents
            ), f AS (
                SELECT doc_id,
                       CAST(len(toks) AS BIGINT) AS n_tokens,
                       CAST(length(text) AS DOUBLE) AS n_chars,
                       CAST(length(regexp_replace(text,
                            '[\\w \\t\\n\\r\\f\\v]', '', 'g'))
                            AS DOUBLE) AS punct,
                       CAST(len(list_filter(toks, s -> lower(s) IN
                            ('the','and','of','a','to','in','is','it',
                             'that','for'))) AS DOUBLE) AS stop_hits
                FROM t
            )
            SELECT doc_id, n_tokens,
                   round(punct / greatest(n_chars, 1), 6) AS punct_ratio,
                   round(stop_hits / greatest(CAST(n_tokens AS DOUBLE), 1), 6)
                       AS stopword_ratio,
                   round(least(greatest(n_tokens / 64.0, 0), 1) * 0.4
                         + least(greatest(1 - (punct / greatest(n_chars, 1)) * 4,
                                          0), 1) * 0.3
                         + least(greatest((stop_hits
                                           / greatest(CAST(n_tokens AS DOUBLE), 1))
                                          * 4, 0), 1) * 0.3, 6) AS quality
            FROM f ORDER BY doc_id
        """,
        "dedup_exact": """
            SELECT md5(text) AS text_md5, min(doc_id) AS keep_id,
                   count(*) AS n_dups
            FROM documents GROUP BY md5(text) ORDER BY text_md5
        """,
        "token_counts": """
            SELECT doc_id,
                   CAST(len(regexp_split_to_array(trim(text), '\\s+')) AS BIGINT)
                       AS ws_tokens
            FROM documents ORDER BY doc_id
        """,
        "embedding_near_dup": """
            -- exact all-pairs cosine over the same corpus + planted
            -- perturbations. The engine's hyperplane-LSH path is
            -- approximate in general, but with the seeded planes the
            -- planted near-identical pairs (cos ~ 0.9999) collide in
            -- every bucket deterministically, and no natural pair in
            -- the synthetic embeddings reaches the 0.98 threshold —
            -- so the exact SQL and the LSH engine agree row-for-row.
            WITH pert AS (
                SELECT vec_id + 1000000 AS vec_id,
                       list_transform(embedding,
                           x -> CAST(CAST(x AS FLOAT) * CAST(1.001 AS FLOAT)
                                     + CAST(0.0001 AS FLOAT) AS FLOAT)
                       ) AS embedding
                FROM (SELECT vec_id, embedding FROM embeddings
                      ORDER BY vec_id LIMIT 10)
            ), base AS (
                SELECT vec_id, embedding FROM embeddings
                UNION ALL SELECT * FROM pert
            )
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM base a JOIN base b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.98
            ORDER BY id_a, id_b
        """,
        "jaccard_pairs": """
            WITH heads AS (
                SELECT doc_id, text FROM documents ORDER BY doc_id LIMIT 20
            ), pert AS (
                SELECT doc_id + 1000000 AS doc_id,
                       'ZZZ ' || array_to_string(
                           regexp_split_to_array(trim(text), '\\s+')[2:], ' ') AS text
                FROM heads
            ), both_sides AS (
                SELECT * FROM heads UNION ALL SELECT * FROM pert
            ), sh AS (
                SELECT doc_id,
                       list_distinct(list_transform(
                           range(1, greatest(len(regexp_split_to_array(
                               trim(text), '\\s+')) - 1, 1)),
                           i -> regexp_split_to_array(trim(text), '\\s+')[i] || ' '
                                || regexp_split_to_array(trim(text), '\\s+')[i+1] || ' '
                                || regexp_split_to_array(trim(text), '\\s+')[i+2]
                       )) AS shingles
                FROM both_sides
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   round(CAST(len(list_intersect(a.shingles, b.shingles)) AS DOUBLE)
                         / len(list_distinct(list_concat(a.shingles, b.shingles))),
                         6) AS jaccard
            FROM sh a JOIN sh b ON b.doc_id = a.doc_id + 1000000
            ORDER BY id_a
        """,
        "embedding_topk": """
            WITH q AS (
                SELECT vec_id AS qid,
                       row_number() OVER (ORDER BY vec_id) - 1 AS query_id,
                       embedding AS qv
                FROM embeddings ORDER BY vec_id LIMIT 5
            ), scored AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(q.qv, e.embedding) AS score
                FROM q CROSS JOIN embeddings e
            ), ranked AS (
                SELECT query_id, vec_id, score,
                       row_number() OVER (
                           PARTITION BY query_id
                           ORDER BY score DESC, vec_id
                       ) AS rank
                FROM scored
            )
            SELECT query_id, vec_id, rank FROM ranked WHERE rank <= 10
            ORDER BY query_id, rank
        """,
    }
