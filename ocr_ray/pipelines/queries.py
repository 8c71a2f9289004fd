"""Named query pipelines + matching DuckDB oracle SQL.

Each entry in :data:`QUERIES` is a callable ``(sf_dir) -> MaterializedDataset
| DataFrame | pyarrow.Table`` implementing one operator family from SURVEY.md
§2 as an idiomatic Ray Data pipeline; :data:`ORACLE_SQL` holds the ANSI-SQL
equivalent the driver runs on DuckDB over the same parquet tables.  Column
names match EXACTLY between both sides (the driver hashes values after
sorting columns by name).

Float policy: any aggregated float column is rounded on BOTH sides (2
decimals for price-scale sums, 4 for ratios/averages) so summation-order
differences between Ray partials and DuckDB never flip the value hash.

Ray-isms demonstrated here (and graded at 100 TB):

- column pruning at the read (every ``read_table`` passes ``columns=``)
- vectorized pyarrow.compute kernels inside ``map_batches``
- map-side partial aggregation before every ``groupby`` (Ray's hash
  aggregate combines per block; token counting pre-reduces explicitly)
- broadcast joins for small sides (``ray.put`` once, dict lookup per batch)
  instead of an all-to-all shuffle join
- per-batch top-k partials before a tiny global sort for ANN search
"""

from __future__ import annotations

import functools
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..schema import list_column_matrix
from ray.data.aggregate import Count, Mean, Min, Sum

from ..sources.io import cpu_count, read_table
from ..stages.extract import extract_batch
from ..synth import wrap_documents_batch


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def documents_pages(sf_dir: str) -> ray.data.Dataset:
    """Streaming documents -> pages wrap (no materialization of the corpus)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    return docs.map_batches(wrap_documents_batch, batch_format="pyarrow")


def _extracted(sf_dir: str) -> ray.data.Dataset:
    return documents_pages(sf_dir).map_batches(
        extract_batch, batch_format="pyarrow", batch_size=256
    )


# SQL fragment reconstructing synth.page_url(doc_id) — now defined next to
# page_url itself so non-cyclic modules can share it
from ..synth import URL_SQL as _URL_SQL  # noqa: E402


# ---------------------------------------------------------------------------
# extraction family
# ---------------------------------------------------------------------------

def q_extract_identity(sf_dir: str):
    """Flagship: synth pages from documents -> full extraction pipeline.

    The chrome-wrapped single-paragraph pages must extract back to exactly
    the source text (byte-identical invariant, checked per url)."""
    return _extracted(sf_dir).select_columns(["url", "extracted", "lang"])


SQL_EXTRACT_IDENTITY = (
    "SELECT " + _URL_SQL + " AS url, text AS extracted, lang FROM documents"
)


def q_extract_stats(sf_dir: str):
    """Extraction then per-lang aggregate over the extracted text."""
    ds = _extracted(sf_dir)

    def add_len(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "n_chars", pc.cast(pc.utf8_length(batch.column("extracted")), pa.int64())
        )

    out = (
        ds.map_batches(add_len, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"), Sum("n_chars", alias_name="total_chars"))
    )
    return out.to_pandas()


SQL_EXTRACT_STATS = (
    "SELECT lang, count(*) AS n_docs, CAST(sum(length(text)) AS BIGINT) AS total_chars "
    "FROM documents GROUP BY lang"
)


# ---------------------------------------------------------------------------
# text cleaners / analysis over documents (SURVEY §2.2 M8, §2.8 D4)
# ---------------------------------------------------------------------------

def q_doc_clean(sf_dir: str):
    """lowercase + collapse_whitespace + strip cleaner chain, vectorized
    (cleaners.py:83-126 by-name registry -> pyarrow.compute kernels)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def clean(batch: pa.Table) -> pa.Table:
        t = batch.column("text")
        t = pc.utf8_lower(t)
        t = pc.replace_substring_regex(t, r"\s+", " ")
        t = pc.utf8_trim_whitespace(t)
        return pa.table({"doc_id": batch.column("doc_id"), "clean": t})

    return ds.map_batches(clean, batch_format="pyarrow")


SQL_DOC_CLEAN = (
    "SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS clean "
    "FROM documents"
)


def q_doc_tokens(sf_dir: str):
    """Whitespace token count per document (tokenizer analog, M13)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def count(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern(batch.column("text"), " "))
        return pa.table(
            {"doc_id": batch.column("doc_id"), "n_tokens": pc.cast(n, pa.int64())}
        )

    return ds.map_batches(count, batch_format="pyarrow")


SQL_DOC_TOKENS = (
    "SELECT doc_id, len(string_split(text, ' ')) AS n_tokens FROM documents"
)


def q_doc_fingerprint(sf_dir: str):
    """sha256 document fingerprint (digest column of EXTRACTED)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        digests = [
            hashlib.sha256(t.encode("utf-8")).hexdigest()
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "fingerprint": pa.array(digests)}
        )

    return ds.map_batches(fp, batch_format="pyarrow")


SQL_DOC_FINGERPRINT = "SELECT doc_id, sha256(text) AS fingerprint FROM documents"


def q_exact_dedup(sf_dir: str):
    """Cross-document exact dedup: hash-partition by content digest, keep
    the first (min doc_id) per group (SURVEY §2.8 D4 cross-doc variant).

    The digest rides as two int64 lanes (first 128 bits of sha256) through
    the bucketed vectorized aggregate — content-hash groups are
    data-cardinality, exactly the regime where Ray's native per-group
    aggregate overhead bites (stages/groupagg.py; BASELINE r4 finding #4)."""
    from ..stages.groupagg import bucketed_group_agg

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def lanes(batch: pa.Table) -> pa.Table:
        digs = b"".join(
            hashlib.sha256(t.encode("utf-8")).digest()[:16]
            for t in batch.column("text").to_pylist()
        )
        arr = np.frombuffer(digs, dtype="<u8").reshape(-1, 2) if digs else np.empty(
            (0, 2), np.uint64
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "h1": pa.array(arr[:, 0].view(np.int64), pa.int64()),
                "h2": pa.array(arr[:, 1].view(np.int64), pa.int64()),
            }
        )

    out = bucketed_group_agg(
        ds.map_batches(lanes, batch_format="pyarrow"),
        ["h1", "h2"],
        {"doc_id": ("min", "doc_id"), "n_dups": ("count", None)},
    )
    return out.select_columns(["doc_id", "n_dups"])


SQL_EXACT_DEDUP = (
    "SELECT min(doc_id) AS doc_id, count(*) AS n_dups FROM documents GROUP BY text"
)


def q_top_tokens(sf_dir: str):
    """Global top-20 tokens: per-batch partial counts (map-side combine)
    before the shuffle, then a VOCAB-cardinality fold through the bucketed
    lexsort/reduceat kernel (r5: web-scale vocab is ~10^8 unique tokens,
    where the native aggregate's per-group cost dominates), then a tiny
    sort + limit."""
    from ..stages.groupagg import bucketed_group_agg

    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        tokens = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        vc = tokens.value_counts()
        return pa.table(
            {
                "token": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    out = (
        bucketed_group_agg(
            ds.map_batches(partial_counts, batch_format="pyarrow"),
            ["token"],
            {"n": ("sum", "n")},
        )
        .sort(["n", "token"], descending=[True, False])
        .limit(20)
    )
    return out


SQL_TOP_TOKENS = (
    "SELECT token, count(*) AS n FROM "
    "(SELECT unnest(string_split(text, ' ')) AS token FROM documents) "
    "GROUP BY token ORDER BY n DESC, token ASC LIMIT 20"
)


# ---------------------------------------------------------------------------
# relational family over the TPC-H-ish tables (SURVEY §2.5-§2.7)
# ---------------------------------------------------------------------------

def q_lineitem_agg(sf_dir: str):
    """TPC-H Q1-style pricing summary: vectorized derived columns + an
    EXPLICIT map-side partial per batch (Ray's native aggregate pays a
    per-input-row overhead — BASELINE.md #15 — so the fact-table row
    stream collapses to <= 6 partial rows per batch before the shuffle;
    Mean decomposes to Sum/Count across partials)."""
    ds = read_table(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount",
        ],
    )

    def partial(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        df = batch.append_column("disc_price", disc).to_pandas()
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(
                sum_qty=("l_quantity", "sum"),
                sum_disc_price=("disc_price", "sum"),
                sum_disc=("l_discount", "sum"),
                count_order=("l_discount", "count"),
            )
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_disc_price", alias_name="sum_disc_price"),
            Sum("sum_disc", alias_name="sum_disc"),
            Sum("count_order", alias_name="count_order"),
        )
    )
    df = out.to_pandas()
    df["avg_disc"] = (df["sum_disc"] / df["count_order"]).round(4)
    df = df.drop(columns=["sum_disc"])
    df["sum_qty"] = df["sum_qty"].round(2)
    df["sum_disc_price"] = df["sum_disc_price"].round(2)
    return df


SQL_LINEITEM_AGG = (
    "SELECT l_returnflag, l_linestatus, round(sum(l_quantity), 2) AS sum_qty, "
    "round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price, "
    "round(avg(l_discount), 4) AS avg_disc, count(*) AS count_order "
    "FROM lineitem GROUP BY l_returnflag, l_linestatus"
)


def q_revenue_by_nation(sf_dir: str):
    """orders ⨝ customer via the size-planned join (auto_join: customer is
    broadcast while provably under the limit, the keyed-bucket hash_join
    once it isn't — 1.5M rows at sf10, ~10^9 at web scale), aggregate by
    c_nationkey (25 groups), then map the 25-row result to nation names on
    the driver — only the genuinely tiny side ever leaves the pipeline."""
    from ..stages.joins import auto_join

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    customer = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    joined = auto_join(orders, customer, on="o_custkey", right_on="c_custkey")
    out = (
        joined.groupby("c_nationkey")
        .aggregate(Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="revenue"))
    )
    df = out.to_pandas()  # 25 rows
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nation_name = dict(
        zip(nation.column("n_nationkey").to_pylist(), nation.column("n_name").to_pylist())
    )
    df["n_name"] = df["c_nationkey"].map(nation_name)
    # INNER-join semantics for the nation lookup: a customer whose
    # nationkey has no nation row drops out (matches the SQL oracle;
    # keeping it would emit a NaN group — caught by the fuzz harness)
    df = df[df["n_name"].notna()]
    df["revenue"] = df["revenue"].round(2)
    return df[["n_name", "n_orders", "revenue"]].reset_index(drop=True)


SQL_REVENUE_BY_NATION = (
    "SELECT n_name, count(*) AS n_orders, round(sum(o_totalprice), 2) AS revenue "
    "FROM orders JOIN customer ON o_custkey = c_custkey "
    "JOIN nation ON c_nationkey = n_nationkey GROUP BY n_name"
)


def q_top_orders(sf_dir: str):
    """Global top-k: sort + limit (O5 analog: ds.sort(key, desc).limit(k))."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(25)


SQL_TOP_ORDERS = (
    "SELECT o_orderkey, o_totalprice FROM orders "
    "ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 25"
)


def q_events_window(sf_dir: str):
    """Tumbling 1-hour window aggregate per event_type (streaming analog:
    event-time windows as groupby over truncated timestamps)."""
    # min_blocks floor: byte-sized reads give the 2.6 MB sf0.1 events table
    # only 2 blocks, serializing the timestamp decode that feeds the wide
    # groupby (measured 1.35 -> 1.72 s quiet in round 3); a shuffle-feeding
    # decode wants at least one block per CPU.
    ds = read_table(
        sf_dir,
        "events",
        columns=["event_type", "ts", "value"],
        min_blocks=cpu_count(),
    )

    def trunc(batch: pa.Table) -> pa.Table:
        # map-side partial (BASELINE.md #15): the native aggregate's
        # per-input-row cost wants <= (#types x #hours) partial rows per
        # batch, not the raw event stream
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        df = pa.table(
            {
                "event_type": batch.column("event_type"),
                "hour": hour,
                "value": batch.column("value"),
            }
        ).to_pandas()
        g = (
            df.groupby(["event_type", "hour"], sort=False)
            .agg(n=("value", "count"), total=("value", "sum"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        ds.map_batches(trunc, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(Sum("n", alias_name="n"), Sum("total", alias_name="total"))
    )
    df = out.to_pandas()
    df["total"] = df["total"].round(2)
    return df


SQL_EVENTS_WINDOW = (
    "SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n, "
    "round(sum(value), 2) AS total FROM events GROUP BY event_type, date_trunc('hour', ts)"
)


# ---------------------------------------------------------------------------
# similarity search over embeddings (SURVEY extension: ANN)
# ---------------------------------------------------------------------------

def _query_vector(sf_dir: str) -> np.ndarray:
    """The vec_id=0 embedding — predicate pushed into the parquet read so
    only matching row groups reach the driver (never the whole column)."""
    tbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "=", 0)],
    )
    return np.asarray(tbl.column("embedding")[0].as_py(), dtype=np.float64)


def q_knn_cosine(sf_dir: str):
    """Brute-force cosine top-10 vs the vec_id=0 vector: per-batch numpy
    matmul against the broadcast query, per-batch top-k partials, tiny
    global sort (the baseline ANN path; IVF/LSH is the scale path)."""
    q = _query_vector(sf_dir)
    qn = q / np.linalg.norm(q)
    q_ref = ray.put(qn)
    k = 10

    def batch_topk(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)  # zero-copy local fetch of the broadcast query
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        emb = list_column_matrix(batch.column("embedding"))
        norms = np.linalg.norm(emb, axis=1)
        norms[norms == 0] = 1.0
        cos = (emb @ qv) / norms
        top = np.argsort(-cos, kind="stable")[:k]
        return pa.table(
            {
                "vec_id": pa.array(ids[top], pa.int64()),
                "cos": pa.array(cos[top], pa.float64()),
            }
        )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    out = (
        ds.map_batches(batch_topk, batch_format="pyarrow", batch_size=4096)
        .sort(["cos", "vec_id"], descending=[True, False])
        .limit(k)
        .select_columns(["vec_id"])
    )
    return out


SQL_KNN_COSINE = (
    "SELECT vec_id FROM embeddings "
    "ORDER BY list_cosine_similarity(CAST(embedding AS DOUBLE[]), "
    "(SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)) DESC, "
    "vec_id ASC LIMIT 10"
)


def q_embedding_norms(sf_dir: str):
    """Per-label embedding L2-norm stats (vectorized numpy per batch)."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["label", "embedding"]
    )

    def norms(batch: pa.Table) -> pa.Table:
        emb = list_column_matrix(batch.column("embedding"))
        return pa.table(
            {
                "label": batch.column("label"),
                "norm": pa.array(np.linalg.norm(emb, axis=1), pa.float64()),
            }
        )

    out = (
        ds.map_batches(norms, batch_format="pyarrow")
        .groupby("label")
        .aggregate(Count(alias_name="n"), Mean("norm", alias_name="avg_norm"))
    )
    df = out.to_pandas()
    df["avg_norm"] = df["avg_norm"].round(4)
    return df


SQL_EMBEDDING_NORMS = (
    "SELECT label, count(*) AS n, round(avg(sqrt(list_dot_product("
    "CAST(embedding AS DOUBLE[]), CAST(embedding AS DOUBLE[])))), 4) AS avg_norm "
    "FROM embeddings GROUP BY label"
)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BASE_QUERIES = {
    "extract_identity": q_extract_identity,
    "extract_stats": q_extract_stats,
    "doc_clean": q_doc_clean,
    "doc_tokens": q_doc_tokens,
    "doc_fingerprint": q_doc_fingerprint,
    "exact_dedup": q_exact_dedup,
    "top_tokens": q_top_tokens,
    "lineitem_agg": q_lineitem_agg,
    "revenue_by_nation": q_revenue_by_nation,
    "top_orders": q_top_orders,
    "events_window": q_events_window,
    "knn_cosine": q_knn_cosine,
    "embedding_norms": q_embedding_norms,
}

from .queries_train import TRAIN_ORACLE_SQL, TRAIN_QUERIES  # noqa: E402
from .queries_ext import EXT_ORACLE_SQL, EXT_QUERIES  # noqa: E402
from .queries_rel import REL_ORACLE_SQL, REL_QUERIES  # noqa: E402
from .queries_cur import CUR_ORACLE_SQL, CUR_QUERIES  # noqa: E402
from .queries_cc import CC_ORACLE_SQL, CC_QUERIES  # noqa: E402
from .queries_graph import GRAPH_ORACLE_SQL, GRAPH_QUERIES  # noqa: E402
from .queries_web import WEB_ORACLE_SQL, WEB_QUERIES  # noqa: E402
from .queries_lake import LAKE_ORACLE_SQL, LAKE_QUERIES  # noqa: E402

# Registry order = driver sampling order: the external correctness driver
# checks the FIRST ~50 entries.  Round-5 rotation policy (VERDICT r4 #5):
# (1) queries CHANGED this round go first (the driver must re-validate
# them even if sampled last round), then (2) everything the r4 driver
# did NOT sample (46 queries had never had a driver row — the judge's
# check_queries run covered them, but a driver row is stronger), then
# (3) the 50 queries sampled in CORRECTNESS_r04 go to the BACK — their
# green rows are at most one round old.  Net: sample overlap between
# CORRECTNESS_r05 and r04 ~= the changed set only.
QUERIES = {}
QUERIES.update(LAKE_QUERIES)
QUERIES.update(WEB_QUERIES)
QUERIES.update(TRAIN_QUERIES)
QUERIES.update(CC_QUERIES)
QUERIES.update(GRAPH_QUERIES)
QUERIES.update(CUR_QUERIES)
QUERIES.update(REL_QUERIES)
QUERIES.update(EXT_QUERIES)
QUERIES.update(_BASE_QUERIES)

# (1) changed in round 5: oracle-contract / scale-shape / kernel changes
_CHANGED_R5 = [
    "simhash_dedup",       # planted-contract reconstruction via hamming-0 CC
    "minhash_dedup",       # vectorized shingle hashing (new signature values)
    "dedup_clusters",
    "dedup_canonical",
    "ngram_jaccard",
    "curation_neardup",
    "embedding_neardup",   # batch cosine now rounds like the scalar path
    "cohort_retention",    # bucketed_group_agg swap
    "corr_by_nation",      # size-planned supplier + null zero-variance
    "tier_lookup",         # below-range clamp
    "customer_order_full", # symmetric empty-side guard
    "bloom_semi_join",     # tree-merged partials
    "top_tokens_mg",       # tree-merged partials
    "media_features",      # session 3: exotic codec variants added (MKV,
    "audio_mel",           # DIB-AVI, WAV u8..32/float/G.711, BMP palette/
    "video_frames",        # RLE8/32-bit, lossless JPEG); goldens regen'd
    "kmeans_train",        # NEW r5 session 5: distributed Lloyd's training
    "linear_probe_train",  # NEW r5 session 5: batch-perceptron training
    "search_corpus",       # NEW r5: S6 search half (query->URL expansion)
    "semantic_dedup",      # NEW r5 session 7: SemDeDup (int-exact contract)
    "gopher_filter",       # NEW r5 session 7: Gopher quality rules (int-exact)
    "rare_shingle_pairs",  # NEW r5 session 7: rare-token blocking pairs
    "adaboost_stumps",     # NEW r5 session 7: boosted-stump training loop
    "record_linkage",      # NEW r5 session 7: blocking->verify->CC linkage
    "span_corruption",     # NEW r5 session 7: T5 masked-example synthesis
]
# (3) sampled by the r4 driver (CORRECTNESS_r04.json keys) — rotate back
_SAMPLED_R04 = [
    "pages_to_blocks", "embedding_neardup", "paragraph_dedup",
    "window_distinct_users", "minhash_dedup", "dedup_clusters",
    "image_phash_dedup", "contamination", "revenue_by_nation",
    "doc_quality", "doc_chunks", "doc_chunk_explode", "doc_embed_hash",
    "quality_classifier", "decayed_value", "customer_order_full",
    "bloom_semi_join", "substring_dedup", "changelog_apply", "tier_lookup",
    "corr_by_nation", "mode_token_by_lang", "entropy_by_source",
    "fk_integrity", "user_day_join", "price_percentiles",
    "incremental_source_stats", "user_event_seq", "doc_winsorize",
    "events_resample", "doc_row_number", "source_intersect",
    "events_unpivot", "host_stats", "pages_scd", "reciprocal_links",
    "edit1_matches", "lang_ntile", "robust_outliers", "table_rows",
    "anchor_stats", "pages_asof", "props_stats", "source_except",
    "item_cooccurrence", "event_transitions", "cohort_retention",
    "training_pack", "weighted_sample", "events_moving_win",
]
_changed = [k for k in _CHANGED_R5 if k in QUERIES]
_rotated_back = [
    k for k in _SAMPLED_R04 if k in QUERIES and k not in _CHANGED_R5
]
_middle = [
    k for k in QUERIES if k not in _CHANGED_R5 and k not in _rotated_back
]


def _executed(fn):
    """``fn`` with a Dataset result returned ``materialize()``d; a
    DataFrame or Table result passes through unchanged."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        out = fn(*args, **kwargs)
        return out.materialize() if isinstance(out, ray.data.Dataset) else out

    return run


# Every registered query runs its plan once, inside the call.  A lazy
# result handed back would be collected by the caller, and Ray 2.49's
# ``to_arrow_refs`` runs a lazy plan twice: once for the blocks, then again
# as ``limit(1)`` for the schema, unless the plan ends in a Read, Sort,
# Repartition or Limit (a map -> sort -> map pipeline runs twice; above an
# all-to-all the second run repeats the whole upstream).  A materialized
# result answers ``to_arrow_refs``, ``to_pandas``, ``iter_batches`` and
# ``stats()`` from its one snapshot.  Inside the package, collect with
# ``sources.io.collect_tables``.
QUERIES = {
    k: _executed(QUERIES[k]) for k in (*_changed, *_middle, *_rotated_back)
}

ORACLE_SQL = {  # keyed lookup — order carries no driver meaning here
    "extract_identity": SQL_EXTRACT_IDENTITY,
    "extract_stats": SQL_EXTRACT_STATS,
    "doc_clean": SQL_DOC_CLEAN,
    "doc_tokens": SQL_DOC_TOKENS,
    "doc_fingerprint": SQL_DOC_FINGERPRINT,
    "exact_dedup": SQL_EXACT_DEDUP,
    "top_tokens": SQL_TOP_TOKENS,
    "lineitem_agg": SQL_LINEITEM_AGG,
    "revenue_by_nation": SQL_REVENUE_BY_NATION,
    "top_orders": SQL_TOP_ORDERS,
    "events_window": SQL_EVENTS_WINDOW,
    "knn_cosine": SQL_KNN_COSINE,
    "embedding_norms": SQL_EMBEDDING_NORMS,
}
ORACLE_SQL.update(EXT_ORACLE_SQL)
ORACLE_SQL.update(REL_ORACLE_SQL)
ORACLE_SQL.update(CUR_ORACLE_SQL)
ORACLE_SQL.update(CC_ORACLE_SQL)
ORACLE_SQL.update(GRAPH_ORACLE_SQL)
ORACLE_SQL.update(TRAIN_ORACLE_SQL)
ORACLE_SQL.update(WEB_ORACLE_SQL)
ORACLE_SQL.update(LAKE_ORACLE_SQL)
# exploded reassembly reproduces the same identity contract as the fused
# path (registered here because queries_cur cannot import queries at load)
ORACLE_SQL["extract_exploded"] = SQL_EXTRACT_IDENTITY
