"""Common-Crawl-curation operators: paragraph/substring-level corpus dedup,
per-source caps and mixing, exact distributed quantiles and outlier bands,
corpus statistics (tf-idf, bigrams, repetition, profiling), retrieval
artifacts (inverted index), and multi-criteria selection (Pareto skyline).

These are the wide-shape curation ops a 100-TB web-corpus pipeline needs
beyond document-level dedup (CCNet dedups at PARAGRAPH granularity before
anything else; domain caps bound any single site's contribution; length
quantiles drive the quality-filter thresholds).  Each is built to the
repo's scale rules: partial aggregation before every shuffle, size-planned
joins, bucketed reassembly (one Python call per block, never per key), and
a driver that only ever holds provably-small state.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Min, Sum

from ..sources.io import collect_tables, cpu_count, read_table, table_shuffle_blocks
from ..stages.groupagg import (
    bucketed_group_agg,
    bucketed_map_groups,
    group_topk,
    value_histogram,
)
from ..stages.joins import auto_join

# paragraph contract shared with the SQL oracle: non-overlapping 10-word
# windows of the space-split text (the testdata corpus has no newlines, so
# CCNet's newline-paragraphs degenerate; fixed word windows keep the
# granularity sub-document and the contract SQL-expressible)
PAR_WORDS = 10
# rank = doc_id * _RANK_BASE + paragraph index; the corpus keeps the
# FIRST occurrence (smallest rank) of every distinct paragraph
_RANK_BASE = 1_000_000


def _explode_paragraphs(batch: pa.Table) -> pa.Table:
    """Non-overlapping 10-word paragraph explode, vectorized: one
    ``pc.list_slice`` + ``pc.binary_join`` per PARAGRAPH SLOT (a handful of
    Arrow kernel calls per batch, never a Python loop over rows), plus a
    128-bit paragraph content hash (functions/strhash.py) for the winner
    shuffle key."""
    import pyarrow.compute as pc

    from ..functions import strhash

    text = pc.fill_null(batch.column("text"), "")
    split = pc.split_pattern(text, " ").combine_chunks()
    sizes = np.asarray(split.value_lengths(), dtype=np.int64)
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    max_paras = int(-(-sizes.max() // PAR_WORDS)) if sizes.size else 0
    id_parts, pidx_parts, par_parts = [], [], []
    for k in range(max_paras):
        par_k = pc.binary_join(
            pc.list_slice(split, k * PAR_WORDS, (k + 1) * PAR_WORDS), " "
        )
        mask = (sizes > k * PAR_WORDS) & (
            np.asarray(pc.not_equal(par_k, "").to_numpy(zero_copy_only=False))
        )
        if not mask.any():
            continue
        id_parts.append(doc_ids[mask])
        pidx_parts.append(np.full(int(mask.sum()), k, np.int64))
        par_parts.append(par_k.filter(pa.array(mask)))
    if not id_parts:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "pidx": pa.array([], pa.int64()),
                "par": pa.array([], pa.string()),
                "rank": pa.array([], pa.int64()),
                "h1": pa.array([], pa.int64()),
                "h2": pa.array([], pa.int64()),
            }
        )
    ids = np.concatenate(id_parts)
    pidx = np.concatenate(pidx_parts)
    pars = pa.concat_arrays(
        [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p for p in par_parts]
    )
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "pidx": pa.array(pidx, pa.int64()),
            "par": pars,
            "rank": pa.array(ids * _RANK_BASE + pidx, pa.int64()),
            # two int64 hash lanes, not one packed binary: integer keys keep
            # the winner groupby on Ray's native aggregate fast path
            "h1": pa.array(
                strhash.hash_strings_u64(pars, strhash.SEED_A).view(np.int64),
                pa.int64(),
            ),
            "h2": pa.array(
                strhash.hash_strings_u64(pars, strhash.SEED_B).view(np.int64),
                pa.int64(),
            ),
        }
    )


def paragraph_dedup(docs: ray.data.Dataset, *, n_buckets: int = 64) -> ray.data.Dataset:
    """Corpus-wide paragraph dedup, the CCNet shape: explode -> winner per
    distinct paragraph (groupby + native Min aggregate, vectorized combine)
    -> int-keyed semi-join back -> bucketed per-document reassembly.

    Scale shape: the winner aggregate shuffles only (h1, h2, rank) — a
    128-bit content hash plus an int64, never the paragraph text — and the
    join back is a SEMI join on the int64 ``rank`` (winner ranks uniquely
    encode (doc, pidx), so rank-membership == "this occurrence won"); the
    text only crosses the final doc-bucketed reassembly shuffle, which is
    the output payload itself.  The SQL oracle stays text-keyed — exact
    unless two DISTINCT paragraphs collide in both 64-bit hash lanes
    (~n^2/2^129).

    Documents whose every paragraph lost (all first seen elsewhere) drop
    out of the result — the contract the SQL oracle mirrors.
    """
    from ..stages.joins import semi_anti_join

    pars = docs.map_batches(_explode_paragraphs, batch_format="pyarrow")
    winners = bucketed_group_agg(
        pars.select_columns(["h1", "h2", "rank"]), ["h1", "h2"], {"mr": ("min", "rank")}
    )
    kept = semi_anti_join(pars, winners, on="rank", right_on="mr")

    def assemble(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(["doc_id", "pidx"])
        out = (
            df.groupby("doc_id", sort=True)["par"]
            .agg([("text_dedup", " ".join), ("n_kept", "size")])
            .reset_index()
        )
        out["n_kept"] = out["n_kept"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed_map_groups(
        kept.select_columns(["doc_id", "pidx", "par"]),
        ["doc_id"],
        assemble,
        n_buckets=n_buckets,
    ).select_columns(["doc_id", "text_dedup", "n_kept"])


def q_paragraph_dedup(sf_dir: str):
    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text"], min_blocks=cpu_count()
    )
    return paragraph_dedup(docs)


SQL_PARAGRAPH_DEDUP = (
    "WITH pars AS ("
    "  SELECT doc_id, CAST(s['i'] AS BIGINT) AS pidx,"
    "         array_to_string((string_split(text, ' '))"
    "[CAST(s['i'] AS BIGINT) * 10 + 1 : CAST(s['i'] AS BIGINT) * 10 + 10], ' ') AS par"
    "  FROM (SELECT doc_id, text, unnest(list_transform("
    "range(CAST(ceil(len(string_split(text, ' ')) / 10.0) AS BIGINT)),"
    " i -> struct_pack(i := i))) AS s FROM documents)"
    "), ranked AS ("
    "  SELECT doc_id, pidx, par, doc_id * 1000000 + pidx AS rank"
    "  FROM pars WHERE par <> ''"
    "), winners AS ("
    "  SELECT par, min(rank) AS mr FROM ranked GROUP BY par"
    ") SELECT r.doc_id, string_agg(r.par, ' ' ORDER BY r.pidx) AS text_dedup,"
    " count(*) AS n_kept"
    " FROM ranked r JOIN winners w ON r.par = w.par AND r.rank = w.mr"
    " GROUP BY r.doc_id"
)


def q_source_cap(sf_dir: str):
    """Per-source (per-domain) document cap: keep the first ``k`` docs per
    source by doc_id — the standard web-corpus guard against one domain
    dominating the training mix.  One ``groupagg.group_topk``: <= k rows
    per (block, source) enter the shuffle, so a hot domain never lands as
    one whole task."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    return group_topk(ds, ["source"], [("doc_id", "ascending")], 10).select_columns(
        ["doc_id", "source"]
    )


SQL_SOURCE_CAP = (
    "SELECT doc_id, source FROM ("
    "SELECT doc_id, source, row_number() OVER "
    "(PARTITION BY source ORDER BY doc_id) AS rn FROM documents"
    ") WHERE rn <= 10"
)


def q_dedup_canonical(sf_dir: str):
    """Canonical-document selection per duplicate cluster — the retention
    step a curation pipeline runs AFTER near-dup clustering: keep the
    longest member (n_chars, ties -> smallest doc_id) of every MinHash
    cluster.  The argmax is ONE Max aggregate over a packed
    (n_chars, ~doc_id) key plus a Count in the same fold — no map_groups,
    no per-cluster Python, one shuffle after the join; cluster_id is
    DATA-cardinality so the fold runs through the bucketed
    lexsort/reduceat kernel (r5)."""
    from ..stages import dedup

    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text"], min_blocks=cpu_count()
    )
    pairs = dedup.minhash_dedup_pairs(
        docs, threshold=0.8, shuffle_blocks=table_shuffle_blocks(sf_dir, "documents")
    )
    clusters = dedup.connected_components(pairs.select_columns(["a", "b"]))
    lens = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    joined = auto_join(clusters, lens, on="doc_id")

    B = np.int64(1) << np.int64(32)

    def pack(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False)
        packed = nc.astype(np.int64) * B + (B - np.int64(1) - ids.astype(np.int64))
        return pa.table(
            {
                "cluster_id": batch.column("cluster_id"),
                "packed": pa.array(packed, pa.int64()),
            }
        )

    agg = bucketed_group_agg(
        joined.map_batches(pack, batch_format="pyarrow"),
        ["cluster_id"],
        {"mx": ("max", "packed"), "n_members": ("count", None)},
    )

    def decode(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mx = batch.column("mx").to_numpy(zero_copy_only=False).astype(np.int64)
        canonical = (B - np.int64(1)) - (mx % B)
        return pa.table(
            {
                "cluster_id": batch.column("cluster_id"),
                "canonical": pa.array(canonical, pa.int64()),
                "n_members": pc.cast(batch.column("n_members"), pa.int64()),
            }
        )

    return agg.map_batches(decode, batch_format="pyarrow")


from .queries_ext import SQL_CLUSTER_GRAPH_CTE  # noqa: E402

SQL_DEDUP_CANONICAL = (
    # same recursive-CTE cluster graph as dedup_clusters, then a window
    # argmax per cluster
    SQL_CLUSTER_GRAPH_CTE
    + ", clusters AS (SELECT node AS doc_id, min(r) AS cluster_id "
    "FROM reach GROUP BY node), "
    "j AS (SELECT c.cluster_id, c.doc_id, d.n_chars FROM clusters c "
    "JOIN documents d USING (doc_id)), "
    "ranked AS (SELECT cluster_id, doc_id, "
    "row_number() OVER (PARTITION BY cluster_id ORDER BY n_chars DESC, doc_id) AS rn, "
    "count(*) OVER (PARTITION BY cluster_id) AS n_members FROM j) "
    "SELECT cluster_id, doc_id AS canonical, n_members FROM ranked WHERE rn = 1"
)


# ---------------------------------------------------------------------------
# recrawl dedup: URL canonicalization + keep-latest per canonical url
# ---------------------------------------------------------------------------

# tracking-query / fragment variants a recrawl emits for the same page
_URL_VARIANTS = ("", "?utm_source=feed&ref=rss", "#section-2")


def q_url_dedup(sf_dir: str):
    """Recrawl deduplication — the FIRST operator a Common-Crawl-style
    pipeline runs: canonicalize urls (strip query string + fragment, the
    tracking-param/anchor variants crawlers collect) and keep the LATEST
    crawl per canonical url, reporting crawl multiplicity.

    Input pages are synthesized from ``documents`` with the same pure
    url/warc_ts functions as the extraction fixture (synth.page_url): doc d
    yields ``1 + d % 3`` crawls — the canonical url plus utm-query and
    fragment variants at later timestamps — so the DuckDB oracle can
    rebuild the exact crawl set in SQL.

    Scale shape: synthesis and canonicalization are map-side (one vectorized
    regex per batch); the only shuffle is the groupby(canonical url) —
    url is PAGE-cardinality, so the Max/Count fold runs through the
    bucketed string-key kernel (r5: hash-bucketed shuffle, exact
    dictionary-code grouping) — no map_groups, no driver state."""
    from .. import synth

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def crawls(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        n_revs = 1 + ids % 3
        rep = np.repeat(ids, n_revs)
        # rev index within each doc's run: 0..n_revs-1
        starts = np.cumsum(n_revs) - n_revs
        rev = np.arange(rep.size, dtype=np.int64) - np.repeat(starts, n_revs)
        urls = [
            synth.page_url(int(d)) + _URL_VARIANTS[r]
            for d, r in zip(rep, rev)
        ]
        ts = synth.EPOCH_US + (rep * 10 + rev) * 1_000_000
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "ts": pa.array(ts, pa.int64()),
            }
        )

    def canonicalize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.set_column(
            0,
            "url",
            pc.replace_substring_regex(batch.column("url"), r"[?#].*$", ""),
        )

    return bucketed_group_agg(
        ds.map_batches(crawls, batch_format="pyarrow").map_batches(
            canonicalize, batch_format="pyarrow"
        ),
        ["url"],
        {"latest_ts": ("max", "ts"), "n_crawls": ("count", None)},
    )


SQL_URL_DEDUP = (
    # rebuild the crawl set (same pure url/ts functions as synth.page_url /
    # wrap_documents_batch), canonicalize with the same regex, keep latest
    "WITH revs AS ("
    "  SELECT doc_id, CAST(s['i'] AS BIGINT) AS rev"
    "  FROM (SELECT doc_id, unnest(list_transform(range(1 + doc_id % 3),"
    " i -> struct_pack(i := i))) AS s FROM documents)"
    "), crawls AS ("
    "  SELECT printf('https://host-%03d.example/p/%08d',"
    "    CASE WHEN (doc_id * 48271) % 100 < 25 THEN 0"
    "         WHEN (doc_id * 48271) % 100 < 40 THEN 1"
    "         ELSE 2 + (doc_id * 69621) % 48 END, doc_id)"
    "  || CASE rev WHEN 1 THEN '?utm_source=feed&ref=rss'"
    "              WHEN 2 THEN '#section-2' ELSE '' END AS url,"
    "  1577836800000000 + (doc_id * 10 + rev) * 1000000 AS ts"
    "  FROM revs"
    ") SELECT regexp_replace(url, '[?#].*$', '') AS url,"
    " max(ts) AS latest_ts, count(*) AS n_crawls"
    " FROM crawls GROUP BY 1"
)


# ---------------------------------------------------------------------------
# Gopher-style repetition signals (vectorized word/bigram run-length kernel)
# ---------------------------------------------------------------------------


def _run_stats(keys: tuple, row_idx: np.ndarray, n_rows: int):
    """Per-row (#distinct, max multiplicity) over grouped keys, fully
    vectorized: lexsort -> run-length encode -> bincount / reduceat.
    ``keys`` are parallel arrays forming the composite key within a row."""
    if row_idx.size == 0:
        z = np.zeros(n_rows, np.int64)
        return z, z.copy()
    order = np.lexsort(tuple(reversed(keys)) + (row_idx,))
    r = row_idx[order]
    diff = r[1:] != r[:-1]  # row change or any key change starts a run
    for k in keys:
        ks = k[order]
        diff = diff | (ks[1:] != ks[:-1])
    run_starts = np.flatnonzero(np.r_[True, diff])
    run_lengths = np.diff(np.append(run_starts, r.size))
    run_rows = r[run_starts]
    n_distinct = np.bincount(run_rows, minlength=n_rows).astype(np.int64)
    row_first = np.flatnonzero(np.r_[True, run_rows[1:] != run_rows[:-1]])
    top = np.zeros(n_rows, np.int64)
    top[run_rows[row_first]] = np.maximum.reduceat(run_lengths, row_first)
    return n_distinct, top


def _repetition_signals(batch: pa.Table) -> pa.Table:
    """The Gopher repetition-filter signals (duplicate-word fraction, most-
    common word/bigram mass) without a single Python loop over rows or
    words: Arrow split + dictionary-encode, then numpy run-length stats."""
    import pyarrow.compute as pc

    n = batch.num_rows
    # ChunkedArray.combine_chunks() yields a plain ListArray
    split = pc.split_pattern(batch.column("text"), " ").combine_chunks()
    sizes = np.asarray(split.value_lengths(), dtype=np.int64)
    flat = split.flatten()
    codes = np.asarray(flat.dictionary_encode().indices, dtype=np.int64)
    row_idx = np.repeat(np.arange(n, dtype=np.int64), sizes)

    n_distinct, top_word = _run_stats((codes,), row_idx, n)

    same_row = row_idx[1:] == row_idx[:-1] if row_idx.size else np.zeros(0, bool)
    _, top_bigram = _run_stats(
        (codes[:-1][same_row], codes[1:][same_row]), row_idx[:-1][same_row], n
    )

    n_words = sizes.astype(np.float64)
    n_bigrams = np.maximum(sizes - 1, 0)

    def r4(x: np.ndarray) -> np.ndarray:
        # vectorized round-half-away-from-zero at 4 digits (values >= 0),
        # matching DuckDB round() (stages.dedup.round_half_away)
        return np.floor(x * 1e4 + 0.5) / 1e4

    top_bigram_frac = np.where(
        n_bigrams > 0, top_bigram / np.maximum(n_bigrams, 1), 0.0
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_words": pa.array(sizes, pa.int64()),
            "distinct_word_frac": pa.array(r4(n_distinct / n_words), pa.float64()),
            "top_word_frac": pa.array(r4(top_word / n_words), pa.float64()),
            "top_bigram_frac": pa.array(r4(top_bigram_frac), pa.float64()),
        }
    )


def q_doc_repetition(sf_dir: str):
    """Per-document repetition signals (Gopher table A1 rules: fraction of
    distinct words, top-word mass, top-bigram mass) — embarrassingly
    parallel, zero shuffles, one vectorized kernel per batch."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(_repetition_signals, batch_format="pyarrow")


SQL_DOC_REPETITION = (
    "WITH t AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),"
    " base AS (SELECT doc_id, len(w) AS n_words, len(list_distinct(w)) AS nd, w"
    " FROM t),"
    " words AS (SELECT doc_id, unnest(w) AS word FROM t),"
    " wc AS (SELECT doc_id, word, count(*) AS c FROM words GROUP BY 1, 2),"
    " tw AS (SELECT doc_id, max(c) AS top_w FROM wc GROUP BY 1),"
    " bg AS (SELECT doc_id, unnest(list_transform(range(1, len(w)),"
    " i -> w[CAST(i AS BIGINT)] || ' ' || w[CAST(i AS BIGINT) + 1])) AS bigram"
    " FROM t),"
    " bc AS (SELECT doc_id, bigram, count(*) AS c FROM bg GROUP BY 1, 2),"
    " tb AS (SELECT doc_id, max(c) AS top_b FROM bc GROUP BY 1)"
    " SELECT b.doc_id, b.n_words,"
    " round(CAST(b.nd AS DOUBLE) / b.n_words, 4) AS distinct_word_frac,"
    " round(CAST(tw.top_w AS DOUBLE) / b.n_words, 4) AS top_word_frac,"
    " CASE WHEN b.n_words < 2 THEN 0.0"
    " ELSE round(CAST(tb.top_b AS DOUBLE) / (b.n_words - 1), 4) END"
    " AS top_bigram_frac"
    " FROM base b JOIN tw USING (doc_id) LEFT JOIN tb USING (doc_id)"
)


# ---------------------------------------------------------------------------
# deterministic source mixing (weighted down-sampling per source)
# ---------------------------------------------------------------------------


def q_source_mix(sf_dir: str):
    """Deterministic weighted source mixing: each source keeps a fixed
    fraction of its documents (10/30/50/70% by source index mod 4) via the
    same Knuth multiplicative hash as hash_sample — reproducible across
    runs, resumes, and cluster sizes, unlike random sampling.  Reports the
    per-source mixing outcome.

    Scale shape: the keep decision and the per-source partial counts are
    map-side; the only shuffle is a groupby(source) over <= (#batches x
    #sources) partial rows."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        src_num = df["source"].str.slice(3).astype(np.int64)
        rate = 10 + 20 * (src_num % 4)
        kept = (df["doc_id"].to_numpy() * 2654435761) % 100 < rate
        out = (
            pd.DataFrame({"source": df["source"], "kept": kept.astype(np.int64)})
            .groupby("source", sort=False)
            .agg(n_total=("kept", "size"), n_kept=("kept", "sum"))
            .reset_index()
        )
        out["n_total"] = out["n_total"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("n_total", alias_name="n_total"), Sum("n_kept", alias_name="n_kept")
        )
    )


SQL_SOURCE_MIX = (
    "SELECT source, count(*) AS n_total,"
    " CAST(sum(CASE WHEN (doc_id * 2654435761) % 100 <"
    " 10 + 20 * (CAST(substr(source, 4) AS BIGINT) % 4)"
    " THEN 1 ELSE 0 END) AS BIGINT) AS n_kept"
    " FROM documents GROUP BY source"
)


# ---------------------------------------------------------------------------
# feature-hashing embedding (hashing-vectorizer, exact SQL oracle)
# ---------------------------------------------------------------------------

_EMBED_DIM = 16
_HASH_MOD = 1024


def _word_dims(words: list) -> np.ndarray:
    """Polynomial codepoint hash per word -> dimension index, vectorized
    over words (the only loop is over character POSITIONS, bounded by the
    longest word).  Matches DuckDB's
    ``list_reduce(codepoints, (a,b) -> (a*31+b) % 1024) % 16`` exactly:
    the first codepoint seeds the accumulator un-modded."""
    if not words:
        return np.zeros(0, np.int64)
    lens = np.array([len(w) for w in words], dtype=np.int64)
    max_len = int(lens.max())
    # codepoint matrix [n_words, max_len] via utf-32 round-trip
    buf = np.zeros((len(words), max_len), dtype=np.int64)
    for j, w in enumerate(words):  # fallback only for ragged fill
        cps = np.frombuffer(w.encode("utf-32-le"), dtype=np.uint32)
        buf[j, : len(w)] = cps
    h = buf[:, 0].copy()
    for pos in range(1, max_len):
        live = lens > pos
        h[live] = (h[live] * 31 + buf[live, pos]) % _HASH_MOD
    return h % _EMBED_DIM


def _embed_hash_batch(batch: pa.Table) -> pa.Table:
    """16-dim hashed token-count embedding per document (feature hashing /
    hashing-vectorizer): hash each word once per batch VOCABULARY
    (dictionary-encode, then hash dictionary values only), scatter-add
    counts per (row, dim)."""
    import pyarrow.compute as pc

    n = batch.num_rows
    split = pc.split_pattern(batch.column("text"), " ").combine_chunks()
    sizes = np.asarray(split.value_lengths(), dtype=np.int64)
    flat = split.flatten()
    enc = flat.dictionary_encode()
    codes = np.asarray(enc.indices, dtype=np.int64)
    vocab = enc.dictionary.to_pylist()
    dim_of_code = _word_dims(vocab)
    row_idx = np.repeat(np.arange(n, dtype=np.int64), sizes)
    # drop empty-string tokens (SQL side filters w <> '')
    keep = np.array([len(w) > 0 for w in vocab], dtype=bool)[codes]
    counts = np.zeros((n, _EMBED_DIM), dtype=np.int64)
    np.add.at(counts, (row_idx[keep], dim_of_code[codes[keep]]), 1)
    cols = {"doc_id": batch.column("doc_id")}
    for d in range(_EMBED_DIM):
        cols["d%d" % d] = pa.array(counts[:, d], pa.int64())
    return pa.table(cols)


def q_doc_embed_hash(sf_dir: str):
    """Hashing-vectorizer document embeddings (16 int count dims) — the
    deterministic stand-in for a text-embedding model stage: zero shuffles,
    per-batch vocabulary hashing, scatter-add counts.  Unlike a float
    model embedding this one is EXACTLY reproducible in SQL, so the whole
    feature-extraction path is oracle-checked."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def embed(batch: pa.Table) -> pa.Table:
        feats = _embed_hash_batch(batch)
        # docs with no non-empty word have no feature mass — the oracle's
        # inner unnest drops them entirely (WHERE w <> ''), so mirror that
        total = np.zeros(feats.num_rows, np.int64)
        for d in range(16):
            total += feats.column("d%d" % d).to_numpy(zero_copy_only=False)
        return feats.filter(pa.array(total > 0))

    return ds.map_batches(embed, batch_format="pyarrow")


SQL_DOC_EMBED_HASH = (
    "WITH words AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w"
    " FROM documents),"
    " h AS (SELECT doc_id,"
    " list_reduce(list_transform(string_split(w, ''), c -> ascii(c)),"
    " (a, b) -> (a * 31 + b) % 1024) % 16 AS dim"
    " FROM words WHERE w <> '')"
    " SELECT doc_id, "
    + ", ".join(
        "CAST(sum(CASE WHEN dim = {d} THEN 1 ELSE 0 END) AS BIGINT) AS d{d}".format(d=d)
        for d in range(_EMBED_DIM)
    )
    + " FROM h GROUP BY doc_id"
)


# ---------------------------------------------------------------------------
# tf-idf distinctive terms per source (two-stage aggregate + broadcast join)
# ---------------------------------------------------------------------------


def q_tfidf_by_source(sf_dir: str):
    """Top-3 distinctive terms per source by tf-idf — the corpus-analysis
    op behind source fingerprinting.  idf uses the integer surrogate
    ``1 + N_sources - df`` (df = #sources containing the word) so the
    score is exactly integer-reproducible in SQL; the classic ``ln(N/df)``
    is monotone in the same df, so the ranking shape is identical.

    Scale shape: map-side (source, word) partial counts -> one
    groupby-sum to tf; df is a groupby-count over the tf table (vocab-
    sized, distributed); tf joins df via the size-planned auto_join
    (broadcast when vocab is provably small); the top-3 per source and its
    ``rank`` are one ``groupagg.group_topk`` — no whole-source task, no
    driver vocabulary."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        """Per-batch partial (source, word) counts WITHOUT token-level
        Python: dictionary-encode sources and words, count composite
        integer codes with np.unique, decode only the (distinct) survivors
        back to strings via Arrow take."""
        import pyarrow.compute as pc

        split = pc.split_pattern(batch.column("text"), " ").combine_chunks()
        sizes = np.asarray(split.value_lengths(), dtype=np.int64)
        enc = split.flatten().dictionary_encode()
        wcodes = np.asarray(enc.indices, dtype=np.int64)
        senc = batch.column("source").combine_chunks().dictionary_encode()
        scodes = np.asarray(senc.indices, dtype=np.int64)
        n_vocab = len(enc.dictionary)
        key = np.repeat(scodes, sizes) * n_vocab + wcodes
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {
                "source": senc.dictionary.take(pa.array(uniq // n_vocab)),
                "word": enc.dictionary.take(pa.array(uniq % n_vocab)),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    # (source, word) and word are VOCAB-cardinality keys: bucketed
    # string-key folds (r5), not the native per-group path
    tf = bucketed_group_agg(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["source", "word"],
        {"tf": ("sum", "cnt")},
    )
    df_tbl = bucketed_group_agg(tf, ["word"], {"df": ("count", None)})
    n_sources = sum(t.num_rows for t in collect_tables(ds.groupby("source").count()))

    def score(batch: pa.Table) -> pa.Table:
        tf_v = batch.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
        df_v = batch.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "source": batch.column("source"),
                "word": batch.column("word"),
                "score": pa.array(tf_v * (1 + n_sources - df_v), pa.int64()),
            }
        )

    scored = auto_join(tf, df_tbl, on="word").map_batches(
        score, batch_format="pyarrow"
    )
    return group_topk(
        scored, ["source"], [("score", "descending"), ("word", "ascending")], 3
    ).select_columns(["source", "word", "score", "rank"])


SQL_TFIDF_BY_SOURCE = (
    "WITH words AS (SELECT source, unnest(string_split(text, ' ')) AS word"
    " FROM documents),"
    " tf AS (SELECT source, word, count(*) AS tf FROM words GROUP BY 1, 2),"
    " df AS (SELECT word, count(*) AS df FROM tf GROUP BY 1),"
    " n AS (SELECT count(DISTINCT source) AS ns FROM documents),"
    " s AS (SELECT tf.source, tf.word, tf.tf * (1 + n.ns - df.df) AS score"
    " FROM tf JOIN df USING (word) CROSS JOIN n),"
    " ranked AS (SELECT source, word, score, row_number() OVER"
    " (PARTITION BY source ORDER BY score DESC, word) AS rank FROM s)"
    " SELECT source, word, score, rank FROM ranked WHERE rank <= 3"
)


# ---------------------------------------------------------------------------
# incremental crawl diff (added / removed / changed between two snapshots)
# ---------------------------------------------------------------------------


def q_crawl_diff(sf_dir: str):
    """Diff two crawl snapshots — the incremental-recrawl primitive: which
    urls were added, removed, or changed content between crawl A and crawl
    B.  Snapshot membership and content are pure functions of doc_id (A =
    docs with doc_id % 5 != 0, B = docs with doc_id % 7 != 0; content
    differs when doc_id % 3 == 0), so the oracle rebuilds both sides in SQL.

    Scale shape: a FULL OUTER JOIN expressed as tagged union + one
    bucketed group-aggregate (r5: the key is url ~ DATA-cardinality, so
    the fold runs through ``bucketed_group_agg``'s lexsort/reduceat
    kernel, not Ray's native per-group path — and it shuffles the
    8-byte doc_id the url is a pure function of, never the ~45-byte url
    string; urls are synthesized AFTER the fold).  Membership and
    content-digest comparison decode map-side from the sums — no join
    operator, no map_groups, one shuffle.  (Digest here is n_chars as a
    stand-in for a content hash; at 100 TB you'd sum a 64-bit text
    digest the same way, keyed on a 128-bit url hash.)"""
    from ..sources.io import read_table as _rt

    def snapshot(mod: int, tag: int):
        ds = _rt(sf_dir, "documents", columns=["doc_id", "n_chars"])

        def emit(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
            nc = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
            keep = ids % mod != 0
            ids, nc = ids[keep], nc[keep]
            # crawl B rewrites content for docs divisible by 3
            digest = nc + (100_000 if tag == 1 else 0) * (ids % 3 == 0)
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "in_a": pa.array((tag == 0) * np.ones_like(ids), pa.int64()),
                    "in_b": pa.array((tag == 1) * np.ones_like(ids), pa.int64()),
                    "dig_a": pa.array(digest * (tag == 0), pa.int64()),
                    "dig_b": pa.array(digest * (tag == 1), pa.int64()),
                }
            )

        return ds.map_batches(emit, batch_format="pyarrow")

    both = snapshot(5, 0).union(snapshot(7, 1))
    agg = bucketed_group_agg(
        both,
        ["doc_id"],
        {
            "in_a": ("sum", "in_a"),
            "in_b": ("sum", "in_b"),
            "dig_a": ("sum", "dig_a"),
            "dig_b": ("sum", "dig_b"),
        },
    )

    def classify(batch: pa.Table) -> pa.Table:
        from .. import synth

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        in_a = batch.column("in_a").to_numpy(zero_copy_only=False).astype(np.int64)
        in_b = batch.column("in_b").to_numpy(zero_copy_only=False).astype(np.int64)
        da = batch.column("dig_a").to_numpy(zero_copy_only=False).astype(np.int64)
        db = batch.column("dig_b").to_numpy(zero_copy_only=False).astype(np.int64)
        status = np.where(
            in_a == 0,
            "added",
            np.where(in_b == 0, "removed", np.where(da != db, "changed", "unchanged")),
        )
        urls = [synth.page_url(int(d)) for d in ids]
        return pa.table(
            {"url": pa.array(urls, pa.string()), "status": pa.array(status, pa.string())}
        )

    return agg.map_batches(classify, batch_format="pyarrow")


_SQL_CRAWL_URL = (
    "printf('https://host-%03d.example/p/%08d',"
    " CASE WHEN (doc_id * 48271) % 100 < 25 THEN 0"
    " WHEN (doc_id * 48271) % 100 < 40 THEN 1"
    " ELSE 2 + (doc_id * 69621) % 48 END, doc_id)"
)

SQL_CRAWL_DIFF = (
    "WITH a AS (SELECT " + _SQL_CRAWL_URL + " AS url, n_chars AS dig"
    " FROM documents WHERE doc_id % 5 <> 0),"
    " b AS (SELECT " + _SQL_CRAWL_URL + " AS url,"
    " n_chars + CASE WHEN doc_id % 3 = 0 THEN 100000 ELSE 0 END AS dig"
    " FROM documents WHERE doc_id % 7 <> 0)"
    " SELECT coalesce(a.url, b.url) AS url,"
    " CASE WHEN a.url IS NULL THEN 'added'"
    " WHEN b.url IS NULL THEN 'removed'"
    " WHEN a.dig <> b.dig THEN 'changed' ELSE 'unchanged' END AS status"
    " FROM a FULL OUTER JOIN b ON a.url = b.url"
)


# ---------------------------------------------------------------------------
# duplicated-substring detection (overlapping-window corpus repetition)
# ---------------------------------------------------------------------------

_WIN_WORDS = 10
# odd Horner multipliers for the two window-hash lanes
_WIN_MULT_A = 0xC2B2AE3D27D4EB4F
_WIN_MULT_B = 0x9E3779B97F4A7C15


def _explode_window_hashes(batch: pa.Table, win: int = _WIN_WORDS) -> pa.Table:
    """(doc_id, h1, h2) rows: one 128-bit content hash (two int64 lanes) per OVERLAPPING
    10-word window, zero Python loops.  Tokens are hashed once per batch
    VOCABULARY (dictionary-encode + flat-buffer polynomial hash), window
    hashes are 10 shifted Horner multiply-adds over the whole flat token
    stream, and windows straddling a row boundary are masked out."""
    import pyarrow.compute as pc

    from ..functions import strhash

    n = batch.num_rows
    text = pc.fill_null(batch.column("text"), "")
    split = pc.split_pattern(text, " ").combine_chunks()
    sizes = np.asarray(split.value_lengths(), dtype=np.int64)
    enc = split.flatten().dictionary_encode()
    codes = np.asarray(enc.indices, dtype=np.int64)
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "h1": pa.array([], pa.int64()),
            "h2": pa.array([], pa.int64()),
        }
    )
    total = codes.size
    if total < win:
        return empty
    ta = strhash.hash_strings_u64(enc.dictionary, strhash.SEED_A)[codes]
    tb = strhash.hash_strings_u64(enc.dictionary, strhash.SEED_B)[codes]
    ha = strhash.window_hashes_u64(ta, win, _WIN_MULT_A)
    hb = strhash.window_hashes_u64(tb, win, _WIN_MULT_B)
    nw = ha.size
    row_of = np.repeat(np.arange(n, dtype=np.int64), sizes)
    starts = np.concatenate([np.zeros(1, np.int64), np.cumsum(sizes)])[:-1]
    pos_in_row = np.arange(total, dtype=np.int64) - starts[row_of]
    valid = pos_in_row[:nw] + win <= sizes[row_of[:nw]]
    if not valid.any():
        return empty
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    # the two 64-bit lanes ride as SEPARATE int64 columns: Ray's aggregate
    # fast path is native for integer keys but degrades on binary keys
    # (measured 7.5 s vs ~0.5 s for the same 225k-row count groupby)
    return pa.table(
        {
            "doc_id": pa.array(ids[row_of[:nw][valid]], pa.int64()),
            "h1": pa.array(ha[valid].view(np.int64), pa.int64()),
            "h2": pa.array(hb[valid].view(np.int64), pa.int64()),
        }
    )


def q_substring_dedup(sf_dir: str):
    """Exact duplicated-substring detection (the Lee-et-al dedup signal at
    window granularity): for every document with >= 10 words, count how
    many of its OVERLAPPING 10-word windows (stride 1) occur at least
    twice in the whole corpus.  Complements paragraph_dedup (non-
    overlapping windows, rewrites text) — this one only measures, which
    is the signal a filter thresholds on.

    Scale shape: vectorized hash explode -> one groupby(window HASH)
    count -> size-planned join back -> one bucketed per-doc Sum/Count
    (groupagg: doc_id is data-cardinality and the input is the window
    stream — BASELINE.md #15).  The shuffle key is a 128-bit window content hash
    (functions/strhash.py) — fixed 24 bytes per exploded row instead of
    the ~70-byte window text — so the two all-to-alls move ~1x corpus
    bytes, not ~8x.  The SQL oracle stays text-keyed: equality of the
    outputs only breaks on a two-lane 64-bit collision between DISTINCT
    windows (~n^2/2^129, never at physical corpus sizes)."""
    # wide read: the hash explode is the CPU-heavy stage; the groupby
    # shuffles coalesce to a hash-row-sized width instead
    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text"], min_blocks=cpu_count()
    )
    # exploded rows are ~28 B per word (~6.5 B of source text): ~4x
    shuffle_blocks = table_shuffle_blocks(sf_dir, "documents", scale=4)

    # materialize the exploded hash rows ONCE: they feed two consumers
    # (the window-count groupby and the join-back) plus auto_join's size
    # probe, and without the barrier Ray re-executes the CPU-heavy hash
    # explode for each — measured 9.4 s -> ~5 s at sf0.1.  The rows are
    # the compact (doc_id, h1, h2) form (~4x corpus bytes), spillable.
    exploded = (
        docs.map_batches(_explode_window_hashes, batch_format="pyarrow")
        .repartition(shuffle_blocks, shuffle=False)
        .materialize()
    )
    if exploded.count() == 0:
        # no document reaches 10 words: zero windows, zero output rows —
        # short-circuit before the empty stream cascades schema-less
        # blocks into the Acero join (fuzz-harness finding); count() on
        # the materialized stream is free
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_windows": pa.array([], pa.int64()),
                "n_dup_windows": pa.array([], pa.int64()),
            }
        )
    counts = bucketed_group_agg(
        exploded.select_columns(["h1", "h2"]), ["h1", "h2"], {"c": ("count", None)}
    ).materialize()

    def pack_key(batch: pa.Table) -> pa.Table:
        # single packed binary key ONLY for the join (index_in / Acero need
        # one key column); the wide groupbys above stayed on integer lanes
        from ..functions import strhash

        wk = strhash.pack_u64_pair(
            batch.column("h1").to_numpy(zero_copy_only=False).view(np.uint64),
            batch.column("h2").to_numpy(zero_copy_only=False).view(np.uint64),
        )
        return batch.drop_columns(["h1", "h2"]).append_column("wk", wk)

    def flag(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        dup = pc.greater_equal(batch.column("c"), pa.scalar(2)).cast(pa.int64())
        return pa.table({"doc_id": batch.column("doc_id"), "dup": dup})

    flagged = auto_join(
        exploded.map_batches(pack_key, batch_format="pyarrow"),
        counts.map_batches(pack_key, batch_format="pyarrow"),
        on="wk",
    ).map_batches(flag, batch_format="pyarrow")
    # doc_id is data-cardinality and the input is the window stream:
    # bucketed lexsort/reduceat aggregate instead of the native one
    # (per-input-row overhead, BASELINE.md #15)
    return bucketed_group_agg(
        flagged,
        ["doc_id"],
        {"n_windows": ("count", None), "n_dup_windows": ("sum", "dup")},
    )


SQL_SUBSTRING_DEDUP = (
    "WITH t AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),"
    " wins AS (SELECT doc_id, array_to_string("
    "w[CAST(s['i'] AS BIGINT) + 1 : CAST(s['i'] AS BIGINT) + 10], ' ') AS win"
    " FROM (SELECT doc_id, w, unnest(list_transform(range(len(w) - 9),"
    " i -> struct_pack(i := i))) AS s FROM t WHERE len(w) >= 10)),"
    " cnt AS (SELECT win, count(*) AS c FROM wins GROUP BY 1)"
    " SELECT doc_id, count(*) AS n_windows,"
    " CAST(sum(CASE WHEN c >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_windows"
    " FROM wins JOIN cnt USING (win) GROUP BY doc_id"
)


# ---------------------------------------------------------------------------
# end-to-end near-dup curation (cluster -> canonical retention -> source cap)
# ---------------------------------------------------------------------------


def q_curation_neardup(sf_dir: str):
    """The near-dup retention pipeline end to end: MinHash clusters ->
    keep only the canonical member of each cluster (longest, ties ->
    smallest doc_id) plus every unclustered doc -> cap survivors at 20 per
    source.  This is the composition a production curation run executes
    after quality filtering (corpus_curation covers the exact-dedup half).

    Scale shape: every document gets a cluster — a ``left_outer``
    :func:`auto_join` with the (executed) clusters, ``cluster =
    coalesce(cluster_id, doc_id)``, so an unclustered doc is its own
    singleton (a ``cluster_id`` is a member's id, never an outsider's) —
    then two ``groupagg.group_topk`` shuffles: the canonical row per
    cluster (the SQL ``canon`` row_number) and the cap per source."""
    from ..stages import dedup

    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text"], min_blocks=cpu_count()
    )
    pairs = dedup.minhash_dedup_pairs(
        docs, threshold=0.8, shuffle_blocks=table_shuffle_blocks(sf_dir, "documents")
    )
    clusters = dedup.connected_components(pairs.select_columns(["a", "b"])).materialize()
    meta = read_table(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def own_cluster(batch: pa.Table) -> pa.Table:
        cluster = pc.coalesce(batch.column("cluster_id"), batch.column("doc_id"))
        return batch.drop_columns(["cluster_id"]).append_column("cluster", cluster)

    every = auto_join(meta, clusters, on="doc_id", join_type="left_outer")
    canon = group_topk(
        every.map_batches(own_cluster, batch_format="pyarrow"),
        ["cluster"],
        [("n_chars", "descending"), ("doc_id", "ascending")],
        1,
    )
    return group_topk(
        canon.select_columns(["doc_id", "source"]), ["source"], [("doc_id", "ascending")], 20
    ).select_columns(["doc_id", "source"])


SQL_CURATION_NEARDUP = (
    SQL_CLUSTER_GRAPH_CTE
    + ", clusters AS (SELECT node AS doc_id, min(r) AS cluster_id "
    "FROM reach GROUP BY node), "
    "jn AS (SELECT c.cluster_id, c.doc_id, d.n_chars FROM clusters c "
    "JOIN documents d USING (doc_id)), "
    "canon AS (SELECT doc_id FROM (SELECT cluster_id, doc_id, "
    "row_number() OVER (PARTITION BY cluster_id "
    "ORDER BY n_chars DESC, doc_id) AS rn FROM jn) WHERE rn = 1), "
    "keep AS (SELECT d.doc_id, d.source FROM documents d "
    "LEFT JOIN clusters c USING (doc_id) "
    "LEFT JOIN canon ON d.doc_id = canon.doc_id "
    "WHERE c.doc_id IS NULL OR canon.doc_id IS NOT NULL) "
    "SELECT doc_id, source FROM (SELECT doc_id, source, "
    "row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn FROM keep) "
    "WHERE rn <= 20"
)


# ---------------------------------------------------------------------------
# group-stats normalization (z-score per language, broadcast stats)
# ---------------------------------------------------------------------------


def q_doc_zscore(sf_dir: str):
    """Per-document z-score of length within its language — the group-
    normalization feature op (normalize a signal by its group's mean/std
    before thresholding or training).

    Scale shape: one small groupby(lang) of map-side partials (sum, sum of
    squares, count — the mergeable moments), stats broadcast via ray.put,
    then a map-side normalize pass.  The corpus is streamed twice but
    never shuffled; the driver holds only #langs rows.  Integer moment
    accumulation keeps the oracle bitwise-exact (population std; ddof=0)."""
    stats_src = read_table(sf_dir, "documents", columns=["lang", "n_chars"])

    def moments(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        nc = df["n_chars"].astype(np.int64)
        g = (
            pd.DataFrame({"lang": df["lang"], "s": nc, "s2": nc * nc})
            .groupby("lang", sort=False)
            .agg(s=("s", "sum"), s2=("s2", "sum"), n=("s", "size"))
            .reset_index()
        )
        for c in ("s", "s2", "n"):
            g[c] = g[c].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    stats = (
        stats_src.map_batches(moments, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("s", alias_name="s"), Sum("s2", alias_name="s2"), Sum("n", alias_name="n")
        )
        .to_pandas()  # #langs rows only
    )
    mean = {r["lang"]: r["s"] / r["n"] for _, r in stats.iterrows()}
    std = {
        r["lang"]: float(np.sqrt(r["s2"] / r["n"] - (r["s"] / r["n"]) ** 2))
        for _, r in stats.iterrows()
    }
    stats_ref = ray.put((mean, std))

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def normalize(batch: pa.Table) -> pa.Table:
        mean_d, std_d = ray.get(stats_ref)
        langs = batch.column("lang").to_pylist()
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.float64)
        mu = np.array([mean_d[lg] for lg in langs])
        sd = np.array([std_d[lg] for lg in langs])
        z = np.where(sd > 0, (nc - mu) / np.where(sd > 0, sd, 1.0), 0.0)
        # round half away from zero at 4 digits (DuckDB round semantics)
        z = np.where(
            z >= 0, np.floor(z * 1e4 + 0.5), -np.floor(-z * 1e4 + 0.5)
        ) / 1e4
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "z_len": pa.array(z, pa.float64()),
            }
        )

    return docs.map_batches(normalize, batch_format="pyarrow")


SQL_DOC_ZSCORE = (
    "WITH st AS (SELECT lang, CAST(sum(n_chars) AS DOUBLE) / count(*) AS mu,"
    " sqrt(CAST(sum(n_chars * n_chars) AS DOUBLE) / count(*)"
    " - (CAST(sum(n_chars) AS DOUBLE) / count(*)) ^ 2) AS sd,"
    " count(*) AS n FROM documents GROUP BY lang)"
    " SELECT d.doc_id, d.lang,"
    " CASE WHEN st.sd > 0 THEN round((d.n_chars - st.mu) / st.sd, 4)"
    " ELSE 0.0 END AS z_len"
    " FROM documents d JOIN st USING (lang)"
)


# ---------------------------------------------------------------------------
# per-group rank (integer-exact percentile primitive via broadcast histogram)
# ---------------------------------------------------------------------------


def q_doc_len_rank(sf_dir: str):
    """Per-document length rank within its language — (n_less, n_total)
    integer counts, the exact primitive percentile-based filters threshold
    on ("drop the shortest 10% per language") without any float contract.

    Scale shape: the len_quantiles value-histogram trick inverted — one
    small groupby over distinct (lang, n_chars) pairs, per-lang sorted
    values + cumulative counts broadcast via ray.put (bounded by #langs x
    #distinct lengths, corpus-size-independent), then a map-side
    searchsorted per batch.  The corpus itself never shuffles."""
    hist = value_histogram(
        read_table(sf_dir, "documents", columns=["lang", "n_chars"]), "lang", "n_chars"
    )
    tables = {}
    for lang, (vals, cnts) in hist.items():
        cum = np.concatenate([[0], np.cumsum(cnts)])  # cum[i] = # < vals[i]
        tables[lang] = (vals, cum[:-1], int(cum[-1]))
    tables_ref = ray.put(tables)

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def rank(batch: pa.Table) -> pa.Table:
        tbls = ray.get(tables_ref)
        langs = batch.column("lang").to_pylist()
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        n_less = np.empty(len(nc), np.int64)
        n_total = np.empty(len(nc), np.int64)
        for lg in set(langs):
            vals, cum_less, total = tbls[lg]
            m = np.array([x == lg for x in langs], dtype=bool)
            idx = np.searchsorted(vals, nc[m])  # exact match guaranteed
            n_less[m] = cum_less[idx]
            n_total[m] = total
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "n_less": pa.array(n_less, pa.int64()),
                "n_total": pa.array(n_total, pa.int64()),
            }
        )

    return docs.map_batches(rank, batch_format="pyarrow")


SQL_DOC_LEN_RANK = (
    "SELECT d.doc_id, d.lang,"
    " CAST(count(*) FILTER (WHERE o.n_chars < d.n_chars) AS BIGINT) AS n_less,"
    " CAST(count(*) AS BIGINT) AS n_total"
    " FROM documents d JOIN documents o ON o.lang = d.lang"
    " GROUP BY d.doc_id, d.lang"
)


QUANTILES = (0.5, 0.9, 0.99)


def q_len_quantiles(sf_dir: str):
    """EXACT distributed quantiles of document length per language via the
    value-histogram trick: per-batch (lang, n_chars) counts, one groupby-sum
    shuffle, then a driver-side cumulative walk over DISTINCT (lang, length)
    pairs only — bounded by (#langs x #distinct lengths), independent of
    corpus row count, so the driver never sees data-proportional state.
    The quantile contract (shared with the oracle): the smallest value
    whose cumulative count reaches ceil(q * total)."""
    hist = value_histogram(
        read_table(sf_dir, "documents", columns=["lang", "n_chars"]), "lang", "n_chars"
    )
    rows = []
    for lang, (vals, cnts) in hist.items():
        cum = np.cumsum(cnts)
        total = int(cum[-1])
        for q in QUANTILES:
            need = int(np.ceil(q * total))
            rows.append(
                {"lang": lang, "q": q, "value": int(vals[np.searchsorted(cum, need)])}
            )
    return pd.DataFrame(rows)


SQL_LEN_QUANTILES = (
    "WITH c AS (SELECT lang, n_chars, count(*) AS cnt FROM documents"
    " GROUP BY lang, n_chars),"
    " w AS (SELECT lang, n_chars,"
    " sum(cnt) OVER (PARTITION BY lang ORDER BY n_chars) AS cum,"
    " sum(cnt) OVER (PARTITION BY lang) AS total FROM c) "
    + " UNION ALL ".join(
        "SELECT lang, {q} AS q, min(n_chars) AS value FROM w"
        " WHERE cum >= ceil({q} * total) GROUP BY lang".format(q=q)
        for q in QUANTILES
    )
)


# ---------------------------------------------------------------------------
# inverted index build (token -> postings list for the top-df vocabulary)
# ---------------------------------------------------------------------------

INVERTED_K = 100  # vocabulary slice the index is built for (query parameter)


def distinct_doc_token_counts(batch):
    """Per-batch document-frequency partial: DISTINCT (doc, token) counts
    via dictionary-encode + one np.unique over packed row*vocab+code ints
    — no token-level Python.  Shared by q_inverted_index and
    queries_train.q_bm25_search (the trickiest tokenization kernel in the
    repo lives in exactly one place).  Returns (table(token, n), n_docs,
    token_sum) so callers can also aggregate corpus length stats."""
    import pyarrow.compute as pc

    split = pc.split_pattern(batch.column("text"), " ").combine_chunks()
    sizes = np.asarray(split.value_lengths(), dtype=np.int64)
    enc = split.flatten().dictionary_encode()
    wcodes = np.asarray(enc.indices, dtype=np.int64)
    vocab = len(enc.dictionary)
    row = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    pair = np.unique(row * vocab + wcodes)  # distinct (row, token)
    tok_code, n_docs = np.unique(pair % vocab, return_counts=True)
    tbl = pa.table(
        {
            "token": enc.dictionary.take(pa.array(tok_code)),
            "n": pa.array(n_docs.astype(np.int64), pa.int64()),
        }
    )
    return tbl, len(sizes), int(sizes.sum())


def q_inverted_index(sf_dir: str):
    """Postings-list build for the top-{K}-df tokens — the retrieval-side
    artifact a contamination / attribution pipeline queries (reference
    analog: the text-db lookup registries, utils/databases).

    Scale shape: phase 1 computes document frequency with per-batch
    DISTINCT (doc, token) partial counts (dictionary-encode + np.unique —
    no token-level Python) and ONE vocab-cardinality fold through the
    bucketed string-key kernel (r5); the top-K slice is provably tiny
    (K rows) and broadcasts.  Phase 2 re-tokenizes with the K-token
    filter pushed INSIDE the explode kernel — the pair stream that
    shuffles is `<=` K tokens wide, never corpus-vocabulary wide, and the
    per-key map_groups at the end is bounded by K (a query parameter),
    not by data."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def df_partial(batch: pa.Table) -> pa.Table:
        tbl, _, _ = distinct_doc_token_counts(batch)
        return tbl

    top = (
        bucketed_group_agg(
            ds.map_batches(df_partial, batch_format="pyarrow"),
            ["token"],
            {"df": ("sum", "n")},
        )
        .sort(["df", "token"], descending=[True, False])
        .limit(INVERTED_K)
        .to_pandas()  # K rows by construction
    )
    tok_ref = ray.put(pa.array(top["token"].to_numpy(dtype=object)))

    def pair_emit(batch: pa.Table) -> pa.Table:
        keep_set = ray.get(tok_ref)
        split = pc.split_pattern(batch.column("text"), " ").combine_chunks()
        sizes = np.asarray(split.value_lengths(), dtype=np.int64)
        flat = split.flatten()
        docs = np.repeat(
            batch.column("doc_id").to_numpy(zero_copy_only=False), sizes
        )
        mask = pc.fill_null(pc.is_in(flat, value_set=keep_set), False)
        m = mask.to_numpy(zero_copy_only=False)
        kept = flat.filter(mask)
        docs = docs[m]
        enc = kept.dictionary_encode()
        vocab = max(len(enc.dictionary), 1)
        codes = np.asarray(enc.indices, dtype=np.int64)
        pair = np.unique(docs * vocab + codes)  # distinct (doc, token)
        return pa.table(
            {
                "token": enc.dictionary.take(pa.array(pair % vocab)),
                "doc_id": pa.array(pair // vocab, pa.int64()),
            }
        )

    def postings(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g["doc_id"].to_numpy())
        return pd.DataFrame(
            {
                "token": [g["token"].iloc[0]],
                "df": [len(ids)],
                "postings": [",".join(ids.astype(str))],
            }
        )

    return (
        ds.map_batches(pair_emit, batch_format="pyarrow")
        .groupby("token")
        .map_groups(postings, batch_format="pandas")
        .sort("token")
    )


SQL_INVERTED_INDEX = (
    "WITH pairs AS (SELECT DISTINCT doc_id, token FROM"
    " (SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents)),"
    " dft AS (SELECT token, count(*) AS df FROM pairs GROUP BY token),"
    " top AS (SELECT token, df FROM dft ORDER BY df DESC, token ASC LIMIT {k})"
    " SELECT t.token, t.df, string_agg(CAST(p.doc_id AS VARCHAR), ','"
    " ORDER BY p.doc_id) AS postings"
    " FROM top t JOIN pairs p ON p.token = t.token"
    " GROUP BY t.token, t.df ORDER BY t.token"
).format(k=INVERTED_K)


# ---------------------------------------------------------------------------
# Pareto skyline (multi-criteria maxima with mergeable partials)
# ---------------------------------------------------------------------------

def skyline_2d(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct 2-D maxima (points not STRICTLY dominated: no other point
    >= in both dims and > in one), vectorized: sort by (x desc, y desc),
    collapse each distinct x to its max y, keep where y exceeds the
    running max of all larger-x ys.  Mergeable: skyline(A u B) =
    skyline(skyline(A) u skyline(B))."""
    if len(x) == 0:
        return x.astype(np.int64), y.astype(np.int64)
    order = np.lexsort((-y, -x))
    xs, ys = x[order], y[order]
    first = np.empty(len(xs), bool)
    first[0] = True
    first[1:] = xs[1:] != xs[:-1]
    xs, ys = xs[first], ys[first]
    cm = np.maximum.accumulate(ys)
    keep = np.empty(len(ys), bool)
    keep[0] = True
    keep[1:] = ys[1:] > cm[:-1]
    return xs[keep], ys[keep]


def q_doc_skyline(sf_dir: str):
    """Pareto frontier of (n_chars, lexical diversity) over the corpus —
    the multi-criteria selection shape behind "longest AND most diverse"
    data picks.  Diversity is integer per-mille distinct-token ratio so
    the contract is SQL-exact.

    Scale shape: the skyline operator is a MERGEABLE partial aggregate —
    each batch reduces to its own skyline (bounded by the 1001 possible
    per-mille values here, and by the frontier size in general), partials
    union into one block, one final kernel.  No shuffle of the corpus at
    all; the only moved bytes are per-batch frontiers."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "documents", columns=["text", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern(batch.column("text"), " ").combine_chunks()
        sizes = np.asarray(split.value_lengths(), dtype=np.int64)
        enc = split.flatten().dictionary_encode()
        codes = np.asarray(enc.indices, dtype=np.int64)
        vocab = max(len(enc.dictionary), 1)
        row = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        pair = np.unique(row * vocab + codes)
        n_dist = np.bincount(pair // vocab, minlength=len(sizes))
        div = n_dist * 1000 // np.maximum(sizes, 1)
        xs, ys = skyline_2d(
            batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64),
            div.astype(np.int64),
        )
        return pa.table(
            {
                "n_chars": pa.array(xs, pa.int64()),
                "diversity_pm": pa.array(ys, pa.int64()),
            }
        )

    def final(batch: pa.Table) -> pa.Table:
        xs, ys = skyline_2d(
            batch.column("n_chars").to_numpy(zero_copy_only=False),
            batch.column("diversity_pm").to_numpy(zero_copy_only=False),
        )
        return pa.table(
            {
                "n_chars": pa.array(xs, pa.int64()),
                "diversity_pm": pa.array(ys, pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final, batch_format="pyarrow", batch_size=None)
        .sort("n_chars")
    )


SQL_DOC_SKYLINE = (
    "WITH m AS (SELECT n_chars,"
    " (len(list_distinct(string_split(text, ' '))) * 1000)"
    " // len(string_split(text, ' ')) AS diversity_pm FROM documents),"
    " pts AS (SELECT DISTINCT n_chars, diversity_pm FROM m)"
    " SELECT n_chars, diversity_pm FROM pts p WHERE NOT EXISTS ("
    " SELECT 1 FROM pts q WHERE q.n_chars >= p.n_chars"
    " AND q.diversity_pm >= p.diversity_pm"
    " AND (q.n_chars > p.n_chars OR q.diversity_pm > p.diversity_pm))"
    " ORDER BY n_chars"
)


# ---------------------------------------------------------------------------
# bigram co-occurrence statistics (the PMI ingredient table)
# ---------------------------------------------------------------------------

BIGRAM_K = 20


#: rare_shingle_pairs: df window for a "rare" shingle (blocking key) and
#: the minimum number of shared rare shingles for a candidate pair.
_RARE_DF_MIN, _RARE_DF_MAX, _RARE_MIN_SHARED = 2, 5, 2


def _rare_shingle_pairs_ds(sf_dir: str):
    """Rare-token blocking for candidate-pair generation (the classic
    entity-resolution / plagiarism-detection move, e.g. Papadakis et al.'s
    blocking surveys): two documents become a candidate pair when they
    share >= 2 word-3gram shingles whose document frequency lies in
    [2, 5] — rare enough to be discriminative, capped so one hot
    shingle can never explode quadratically.

    Scale shape: the shingle stream shuffles as 128-bit content-hash
    lanes (two int64 columns — the substring_dedup/paragraph_dedup
    pattern; shingle TEXT never crosses a shuffle), per-doc DISTINCT is a
    vectorized lexsort inside the explode task, the per-shingle pair
    emission runs through bucketed_group_apply with the df cap enforced
    BEFORE any pair materializes (a group bigger than 5 docs emits
    nothing — per-group work is <= C(5,2), a constant), and the
    (a, b) pair count is a data-cardinality key so it folds through the
    bucketed lexsort/reduceat kernel.  Three bounded shuffles, zero
    driver state."""
    from ..stages.dedup import bucketed_group_apply

    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text"], min_blocks=cpu_count()
    )

    def distinct_doc_shingles(batch: pa.Table) -> pa.Table:
        t = _explode_window_hashes(batch, win=3)
        if t.num_rows == 0:
            return t
        d = t.column("doc_id").to_numpy(zero_copy_only=False)
        h1 = t.column("h1").to_numpy(zero_copy_only=False)
        h2 = t.column("h2").to_numpy(zero_copy_only=False)
        order = np.lexsort((h2, h1, d))
        d, h1, h2 = d[order], h1[order], h2[order]
        keep = np.ones(d.size, dtype=bool)
        keep[1:] = (d[1:] != d[:-1]) | (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])
        return pa.table(
            {
                "doc_id": pa.array(d[keep], pa.int64()),
                "h1": pa.array(h1[keep], pa.int64()),
                "h2": pa.array(h2[keep], pa.int64()),
            }
        )

    _EMPTY_AB = pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
    )

    def emit_pairs(group: pa.Table) -> pa.Table | None:
        m = group.num_rows  # docs sharing this exact 128-bit shingle hash
        if m < _RARE_DF_MIN or m > _RARE_DF_MAX:
            return None
        ids = np.sort(group.column("doc_id").to_numpy(zero_copy_only=False))
        iu, ju = np.triu_indices(m, 1)
        return pa.table(
            {"a": pa.array(ids[iu], pa.int64()), "b": pa.array(ids[ju], pa.int64())}
        )

    shingles = docs.map_batches(distinct_doc_shingles, batch_format="pyarrow")
    pairs = bucketed_group_apply(
        shingles,
        ("h1", "h2"),
        emit_pairs,
        empty_result=_EMPTY_AB,
        min_group_size=_RARE_DF_MIN,
        pre_shuffle_blocks=table_shuffle_blocks(sf_dir, "documents"),
    )
    counted = bucketed_group_agg(pairs, ["a", "b"], {"n_shared": ("count", None)})

    def threshold(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.greater_equal(batch.column("n_shared"), _RARE_MIN_SHARED)
        )

    return counted.map_batches(threshold, batch_format="pyarrow")


def q_rare_shingle_pairs(sf_dir: str):
    """Driver-edge face of :func:`_rare_shingle_pairs_ds` (docstring there):
    the global sort exists only to match the oracle's ORDER BY — consumers
    like q_record_linkage take the UNSORTED dataset and avoid the extra
    all-to-all."""
    return _rare_shingle_pairs_ds(sf_dir).sort(["a", "b"])


SQL_RARE_SHINGLE_PAIRS = (
    "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),"
    " sh AS (SELECT doc_id, unnest(list_distinct(list_transform("
    "range(1, len(ws) - 1), i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])))"
    " AS s FROM w WHERE len(ws) >= 3),"
    " df AS (SELECT s, count(*) AS df FROM sh GROUP BY s),"
    " r AS (SELECT sh.doc_id, sh.s FROM sh JOIN df USING (s)"
    " WHERE df BETWEEN {lo} AND {hi}),"
    " p AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS n_shared"
    " FROM r x JOIN r y ON x.s = y.s AND x.doc_id < y.doc_id GROUP BY 1, 2)"
    " SELECT a, b, n_shared FROM p WHERE n_shared >= {k} ORDER BY a, b"
).format(lo=_RARE_DF_MIN, hi=_RARE_DF_MAX, k=_RARE_MIN_SHARED)


#: record_linkage: exact-Jaccard verify threshold for blocked pairs.
_LINKAGE_JACCARD = 0.5


def q_record_linkage(sf_dir: str):
    """End-to-end record linkage — the classic entity-resolution composition
    over the new blocking stage: rare-shingle BLOCKING (q_rare_shingle_pairs)
    -> distributed exact word-3gram Jaccard VERIFY at 0.5 (the corpus is
    never driver-materialized; pair ids hash-join back against documents)
    -> CONNECTED COMPONENTS (size-planned union-find / min-label
    propagation) -> entity clusters with sizes.  cluster_id is the
    component's min doc_id (the canonical record).  The whole composition
    is SQL-expressible: the blocking CTE feeds a Jaccard self-join feeds a
    recursive reachability CTE — so the linkage output is oracle-checked
    end to end, like curation_neardup over the MinHash substrate."""
    from ..stages.dedup import connected_components, verify_pairs_against_corpus

    pairs = _rare_shingle_pairs_ds(sf_dir)  # unsorted: no mid-pipeline sort
    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text"], min_blocks=cpu_count()
    )
    verified = verify_pairs_against_corpus(
        pairs.select_columns(["a", "b"]),
        docs,
        threshold=_LINKAGE_JACCARD,
        pre_shuffle_blocks=table_shuffle_blocks(sf_dir, "documents"),
    )
    clusters = connected_components(verified.select_columns(["a", "b"]))
    sizes = bucketed_group_agg(
        clusters, ["cluster_id"], {"n_members": ("count", None)}
    )
    return sizes.sort("cluster_id")


SQL_RECORD_LINKAGE = (
    SQL_RARE_SHINGLE_PAIRS[: SQL_RARE_SHINGLE_PAIRS.index(" SELECT a, b,")]
    .replace("WITH ", "WITH RECURSIVE ", 1)
    + ", bp AS (SELECT a, b FROM p WHERE n_shared >= {k}),"
    " g AS (SELECT doc_id, list_distinct(list_transform(range(1, len(ws) - 1),"
    " i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])) AS sh FROM w"
    " WHERE len(ws) >= 3"
    " UNION ALL SELECT doc_id, [text] AS sh FROM documents"
    " WHERE len(string_split(text, ' ')) < 3),"
    " v AS (SELECT bp.a, bp.b FROM bp"
    " JOIN g ga ON ga.doc_id = bp.a JOIN g gb ON gb.doc_id = bp.b"
    " WHERE CAST(len(list_intersect(ga.sh, gb.sh)) AS DOUBLE) /"
    " len(list_distinct(ga.sh || gb.sh)) >= {j}),"
    " edges AS (SELECT a AS u, b AS v FROM v UNION ALL SELECT b, a FROM v),"
    " reach AS (SELECT u AS node, u AS r FROM edges"
    " UNION SELECT e.u, reach.r FROM edges e JOIN reach ON e.v = reach.node),"
    " cc AS (SELECT node, min(r) AS cluster_id FROM reach GROUP BY node)"
    " SELECT cluster_id, count(*) AS n_members FROM cc GROUP BY cluster_id"
    " ORDER BY cluster_id"
).format(k=_RARE_MIN_SHARED, j=_LINKAGE_JACCARD)


def q_top_bigrams(sf_dir: str):
    """Global top-{K} bigrams with their component-token counts — the
    integer ingredients of PMI / collocation scoring (kept integer so the
    contract is SQL-exact; PMI's log is monotone in these counts).

    Scale shape: per-batch partial bigram counts via dictionary codes
    (bigram key = code[i] * V + code[i+1], np.unique — no token-level
    Python), one vocab^2-bounded-but-zipf-small groupby, top-K slice is K
    rows.  Component counts come from a second aggregate pass filtered
    MAP-SIDE to the <=2K tokens the winners mention (broadcast is_in), so
    the final join touches <=2K rows on the driver.  At 100 TB the two
    passes fuse into one explode emitting both partials."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum as _Sum

    ds = read_table(sf_dir, "documents", columns=["text"])

    def bigram_partial(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern(batch.column("text"), " ").combine_chunks()
        sizes = np.asarray(split.value_lengths(), dtype=np.int64)
        enc = split.flatten().dictionary_encode()
        codes = np.asarray(enc.indices, dtype=np.int64)
        vocab = max(len(enc.dictionary), 1)
        n = len(codes)
        if n == 0:
            return pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        # valid first-positions: every flat index except each row's last
        mask = np.ones(n, bool)
        mask[np.cumsum(sizes) - 1] = False
        first = codes[:-1][mask[:-1]] if n > 1 else codes[:0]
        second = codes[1:][mask[:-1]] if n > 1 else codes[:0]
        key, cnt = np.unique(first * vocab + second, return_counts=True)
        return pa.table(
            {
                "w1": enc.dictionary.take(pa.array(key // vocab)),
                "w2": enc.dictionary.take(pa.array(key % vocab)),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    top = (
        # bigram keys are vocab^2-cardinality: bucketed string-key fold (r5)
        bucketed_group_agg(
            ds.map_batches(bigram_partial, batch_format="pyarrow"),
            ["w1", "w2"],
            {"n_bigram": ("sum", "n")},
        )
        .sort(["n_bigram", "w1", "w2"], descending=[True, False, False])
        .limit(BIGRAM_K)
        .to_pandas()  # K rows by construction
    )
    want = pa.array(
        sorted(set(top["w1"]) | set(top["w2"])), pa.string()
    )
    want_ref = ray.put(want)

    def token_partial(batch: pa.Table) -> pa.Table:
        keep_set = ray.get(want_ref)
        flat = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        kept = flat.filter(pc.fill_null(pc.is_in(flat, value_set=keep_set), False))
        vc = kept.value_counts()
        return pa.table(
            {
                "word": vc.field("values"),
                "c": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    wc = (
        ds.map_batches(token_partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(_Sum("c", alias_name="c"))
        .to_pandas()  # <= 2K rows: map-side filtered to the winners' tokens
    )
    out = top.merge(
        wc.rename(columns={"word": "w1", "c": "n_w1"}), on="w1"
    ).merge(wc.rename(columns={"word": "w2", "c": "n_w2"}), on="w2")
    return out.sort_values(
        ["n_bigram", "w1", "w2"], ascending=[False, True, True]
    ).reset_index(drop=True)


SQL_TOP_BIGRAMS = (
    "WITH t AS (SELECT string_split(text, ' ') AS w FROM documents),"
    " bg AS (SELECT unnest(list_transform(range(1, len(w)),"
    " i -> struct_pack(a := w[CAST(i AS BIGINT)],"
    " b := w[CAST(i AS BIGINT) + 1]))) AS s FROM t),"
    " bc AS (SELECT s['a'] AS w1, s['b'] AS w2, count(*) AS n_bigram"
    " FROM bg GROUP BY 1, 2),"
    " top AS (SELECT * FROM bc ORDER BY n_bigram DESC, w1, w2 LIMIT {k}),"
    " wc AS (SELECT word, count(*) AS c FROM"
    " (SELECT unnest(w) AS word FROM t) GROUP BY 1)"
    " SELECT t.w1, t.w2, t.n_bigram, c1.c AS n_w1, c2.c AS n_w2"
    " FROM top t JOIN wc c1 ON c1.word = t.w1 JOIN wc c2 ON c2.word = t.w2"
    " ORDER BY n_bigram DESC, w1, w2"
).format(k=BIGRAM_K)


# ---------------------------------------------------------------------------
# table profiling (the ANALYZE / stats-collection operator)
# ---------------------------------------------------------------------------

_PROFILE_COLS = [("doc_id", "int"), ("lang", "str"), ("n_chars", "int"), ("source", "str")]


def q_profile_table(sf_dir: str):
    """Column profile of the documents table — null count, EXACT distinct
    cardinality, typed min/max per column (the ANALYZE statistics a
    planner's size/selectivity estimates come from; the reference's
    dataset `summary` analog).

    Scale shape: one pass emits per-batch DISTINCT values per column (the
    only shuffle is over distinct (column, value) pairs — bounded by
    cardinality, not rows); null counts are map-side Sum partials; min/max
    combine from per-batch native-typed partials so integer columns order
    numerically, not lexically (the classic stringified-min bug).  The
    driver only ever holds n_columns-sized results.  At unbounded
    cardinality you would swap the exact distinct for the HLL sketch
    (functions/sketches.py) — same dataflow, mergeable registers."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count as _Count
    from ray.data.aggregate import Sum as _Sum

    names = [c for c, _ in _PROFILE_COLS]
    ds = read_table(sf_dir, "documents", columns=names)

    def distinct_partial(batch: pa.Table) -> pa.Table:
        cols, vals = [], []
        for name in names:
            u = pc.unique(pc.drop_null(batch.column(name)))
            s = pc.cast(u, pa.string())
            vals.extend(s.to_pylist())
            cols.extend([name] * len(u))
        return pa.table(
            {"col_name": pa.array(cols, pa.string()), "v": pa.array(vals, pa.string())}
        )

    n_distinct = (
        # (col_name, v) is VALUE-cardinality: bucketed string-key fold
        # (r5); the per-column rollup is n_columns-bounded and native
        bucketed_group_agg(
            ds.map_batches(distinct_partial, batch_format="pyarrow"),
            ["col_name", "v"],
            {"__n": ("count", None)},
        )
        .groupby("col_name")
        .aggregate(_Count(alias_name="n_distinct"))
        .to_pandas()  # n_columns rows
    )

    def null_minmax_partial(batch: pa.Table) -> pa.Table:
        out = {"col_name": [], "n_null": [], "min_v": [], "max_v": []}
        for name in names:
            col = batch.column(name)
            mm = pc.min_max(col)
            out["col_name"].append(name)
            out["n_null"].append(col.null_count)
            out["min_v"].append(str(mm["min"].as_py()) if mm["min"].is_valid else None)
            out["max_v"].append(str(mm["max"].as_py()) if mm["max"].is_valid else None)
        return pa.table(
            {
                "col_name": pa.array(out["col_name"], pa.string()),
                "n_null": pa.array(out["n_null"], pa.int64()),
                "min_v": pa.array(out["min_v"], pa.string()),
                "max_v": pa.array(out["max_v"], pa.string()),
            }
        )

    parts = (
        ds.map_batches(null_minmax_partial, batch_format="pyarrow")
        .to_pandas()  # n_batches x n_columns rows — partials, not data
    )
    kind = dict(_PROFILE_COLS)

    def _combine(g: pd.DataFrame) -> pd.Series:
        vals_min = g["min_v"].dropna()
        vals_max = g["max_v"].dropna()
        if kind[g.name] == "int":
            mn = str(vals_min.astype(np.int64).min()) if len(vals_min) else None
            mx = str(vals_max.astype(np.int64).max()) if len(vals_max) else None
        else:
            mn = vals_min.min() if len(vals_min) else None
            mx = vals_max.max() if len(vals_max) else None
        return pd.Series(
            {"n_null": int(g["n_null"].sum()), "min_v": mn, "max_v": mx}
        )

    stats = parts.groupby("col_name", sort=True).apply(_combine).reset_index()
    out = stats.merge(n_distinct, on="col_name")
    return out[["col_name", "n_null", "n_distinct", "min_v", "max_v"]].sort_values(
        "col_name"
    ).reset_index(drop=True)


SQL_PROFILE_TABLE = " UNION ALL ".join(
    "SELECT '{c}' AS col_name, count(*) - count({c}) AS n_null,"
    " count(DISTINCT {c}) AS n_distinct,"
    " CAST(min({c}) AS VARCHAR) AS min_v,"
    " CAST(max({c}) AS VARCHAR) AS max_v FROM documents".format(c=c)
    for c, _ in sorted(_PROFILE_COLS)
)


# ---------------------------------------------------------------------------
# percentile-band outlier trim (quantile thresholds -> map-side filter)
# ---------------------------------------------------------------------------

OUTLIER_LO, OUTLIER_HI = 0.05, 0.95


def q_doc_outliers(sf_dir: str):
    """Documents OUTSIDE the per-language [p05, p95] length band — the
    Gopher-style length trim, composed as: exact per-lang quantile
    thresholds from the value histogram (the len_quantiles machinery —
    driver holds only distinct (lang, length) pairs), thresholds broadcast,
    one vectorized map-side filter.  No second shuffle: the corpus never
    moves, only the histogram does.  Quantile contract as in
    len_quantiles: smallest value whose cumulative count reaches
    ceil(q * total); the band is inclusive, outliers are strict < lo
    or > hi."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    bands = {}
    for lang, (vals, cnts) in value_histogram(ds, "lang", "n_chars").items():
        cum = np.cumsum(cnts)
        total = int(cum[-1])
        lo = int(vals[np.searchsorted(cum, int(np.ceil(OUTLIER_LO * total)))])
        hi = int(vals[np.searchsorted(cum, int(np.ceil(OUTLIER_HI * total)))])
        bands[lang] = (lo, hi)
    bands_ref = ray.put(bands)

    def filt(batch: pa.Table) -> pa.Table:
        b = ray.get(bands_ref)
        lo_map = pd.Series({k: v[0] for k, v in b.items()})
        hi_map = pd.Series({k: v[1] for k, v in b.items()})
        df = batch.to_pandas()
        lo = df["lang"].map(lo_map).to_numpy()
        hi = df["lang"].map(hi_map).to_numpy()
        n = df["n_chars"].to_numpy()
        return pa.Table.from_pandas(
            df[(n < lo) | (n > hi)], preserve_index=False
        )

    return ds.map_batches(filt, batch_format="pyarrow").sort("doc_id")


SQL_DOC_OUTLIERS = (
    "WITH c AS (SELECT lang, n_chars, count(*) AS cnt FROM documents"
    " GROUP BY lang, n_chars),"
    " w AS (SELECT lang, n_chars,"
    " sum(cnt) OVER (PARTITION BY lang ORDER BY n_chars) AS cum,"
    " sum(cnt) OVER (PARTITION BY lang) AS total FROM c),"
    " lo AS (SELECT lang, min(n_chars) AS v FROM w"
    " WHERE cum >= ceil({lo} * total) GROUP BY lang),"
    " hi AS (SELECT lang, min(n_chars) AS v FROM w"
    " WHERE cum >= ceil({hi} * total) GROUP BY lang)"
    " SELECT d.doc_id, d.lang, d.n_chars FROM documents d"
    " JOIN lo ON lo.lang = d.lang JOIN hi ON hi.lang = d.lang"
    " WHERE d.n_chars < lo.v OR d.n_chars > hi.v ORDER BY d.doc_id"
).format(lo=OUTLIER_LO, hi=OUTLIER_HI)


CC_QUERIES = {
    "doc_outliers": q_doc_outliers,
    "profile_table": q_profile_table,
    "top_bigrams": q_top_bigrams,
    "inverted_index": q_inverted_index,
    "doc_skyline": q_doc_skyline,
    "paragraph_dedup": q_paragraph_dedup,
    "source_cap": q_source_cap,
    "len_quantiles": q_len_quantiles,
    "dedup_canonical": q_dedup_canonical,
    "url_dedup": q_url_dedup,
    "doc_repetition": q_doc_repetition,
    "source_mix": q_source_mix,
    "crawl_diff": q_crawl_diff,
    "doc_embed_hash": q_doc_embed_hash,
    "tfidf_by_source": q_tfidf_by_source,
    "substring_dedup": q_substring_dedup,
    "curation_neardup": q_curation_neardup,
    "doc_zscore": q_doc_zscore,
    "doc_len_rank": q_doc_len_rank,
    "rare_shingle_pairs": q_rare_shingle_pairs,
    "record_linkage": q_record_linkage,
}

CC_ORACLE_SQL = {
    "doc_outliers": SQL_DOC_OUTLIERS,
    "profile_table": SQL_PROFILE_TABLE,
    "top_bigrams": SQL_TOP_BIGRAMS,
    "inverted_index": SQL_INVERTED_INDEX,
    "doc_skyline": SQL_DOC_SKYLINE,
    "paragraph_dedup": SQL_PARAGRAPH_DEDUP,
    "source_cap": SQL_SOURCE_CAP,
    "len_quantiles": SQL_LEN_QUANTILES,
    "dedup_canonical": SQL_DEDUP_CANONICAL,
    "url_dedup": SQL_URL_DEDUP,
    "doc_repetition": SQL_DOC_REPETITION,
    "source_mix": SQL_SOURCE_MIX,
    "crawl_diff": SQL_CRAWL_DIFF,
    "doc_embed_hash": SQL_DOC_EMBED_HASH,
    "tfidf_by_source": SQL_TFIDF_BY_SOURCE,
    "substring_dedup": SQL_SUBSTRING_DEDUP,
    "curation_neardup": SQL_CURATION_NEARDUP,
    "doc_zscore": SQL_DOC_ZSCORE,
    "doc_len_rank": SQL_DOC_LEN_RANK,
    "rare_shingle_pairs": SQL_RARE_SHINGLE_PAIRS,
    "record_linkage": SQL_RECORD_LINKAGE,
}
