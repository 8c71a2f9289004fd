"""Web/crawl-lifecycle operators round 4 session 2: host-level stats,
recrawl SCD-2 history, reciprocal-link detection, SymSpell edit-distance-1
fuzzy matching, robust median/MAD outlier stats, NTILE window buckets, and
integer-exact time-decayed engagement.

These extend the CC-curation family (queries_cc) with the crawl-LIFECYCLE
passes a production web corpus needs: per-host accounting drives politeness
and domain caps (reference analog: the per-filename prediction map that
groups work by source, ``models/detection/base_detector.py:171-174``);
recrawl version history (SCD type 2) is how a crawl store answers
"what did this url say at time T"; reciprocal links feed spam/authority
features; deletion-neighborhood fuzzy matching is the standard
typo-normalization pass (SymSpell) before token-level dedup.

Scale rules observed throughout (same contract as queries_cc):

- partial aggregation inside ``map_batches`` before every groupby
- shuffles keyed on integers / hash buckets, never raw text payloads
- per-bucket kernels fully vectorized (lexsort + shift / segment arange);
  the only Python loops run over batch VOCABULARY (distinct short tokens),
  never over rows
- driver state bounded by construction (distinct (lang, n_chars) pairs,
  a ~vocab-sized deletion index) and broadcast once via ``ray.put``
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..sources.io import read_table
from ..stages.groupagg import bucketed_group_agg, bucketed_map_groups, value_histogram
from ..synth import EPOCH_US, URL_SQL, link_page_html, wrap_documents_batch

DAY_US = 86_400_000_000

# ---------------------------------------------------------------------------
# host-level crawl stats (politeness / domain-cap accounting)
# ---------------------------------------------------------------------------


def q_host_stats(sf_dir: str):
    """Per-host page counts, byte mass, and most-recent crawl time over the
    synthesized pages table — the accounting pass domain caps and crawl
    politeness budgets read.  Host id is sliced out of the url with ONE
    vectorized kernel (the synth url layout is fixed-width); everything
    after that is a native hash aggregate with map-side combine, so the
    zipf-skewed host 0 (~25% of pages) costs one combiner cell per block,
    never a hot reduce task."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    pages = docs.map_batches(wrap_documents_batch, batch_format="pyarrow")

    def host_partial(batch: pa.Table) -> pa.Table:
        # url = https://host-XXX.example/... -> digits at codeunits [13, 16)
        host = pc.cast(
            pc.utf8_slice_codeunits(batch.column("url"), 13, 16), pa.int64()
        )
        n_chars = pc.cast(pc.utf8_length(batch.column("text")), pa.int64())
        ts_us = pc.cast(batch.column("warc_ts"), pa.int64())
        return pa.table({"host": host, "n_chars": n_chars, "ts_us": ts_us})

    # host is HOST-cardinality (millions at web scale): bucketed fold (r5)
    return bucketed_group_agg(
        pages.map_batches(host_partial, batch_format="pyarrow"),
        ["host"],
        {
            "n_pages": ("count", None),
            "total_chars": ("sum", "n_chars"),
            "last_crawl_us": ("max", "ts_us"),
        },
    )


SQL_HOST_STATS = (
    "SELECT CASE WHEN (doc_id*48271)%100 < 25 THEN 0"
    " WHEN (doc_id*48271)%100 < 40 THEN 1"
    " ELSE 2 + (doc_id*69621)%48 END AS host,"
    " count(*) AS n_pages,"
    " CAST(sum(length(text)) AS BIGINT) AS total_chars,"
    " CAST(max({epoch} + doc_id*1000000) AS BIGINT) AS last_crawl_us"
    " FROM documents GROUP BY 1"
).format(epoch=EPOCH_US)


# ---------------------------------------------------------------------------
# recrawl version history — SCD type 2 intervals per url
# ---------------------------------------------------------------------------

#: number of recrawl versions of url d is 1 + (d % SCD_MOD)
SCD_MOD = 3
#: open-interval sentinel for the current version (9999-01-01T00:00:00Z us)
SCD_OPEN_US = 253_370_764_800_000_000


def q_pages_scd(sf_dir: str):
    """Slowly-changing-dimension (type 2) intervals over recrawled pages:
    every url's crawl versions become (valid_from, valid_to, is_current)
    rows — the snapshot-history table a crawl store serves "as-of T"
    queries from.  Versions are synthesized deterministically (url d has
    1 + d % 3 recrawls, one day apart) so the oracle is a LEAD window.

    Plan: vectorized version explode (np.repeat + segment arange — no
    per-row Python), ONE url-hash bucket shuffle, then a per-bucket
    lexsort + shift kernel that closes each version with its successor's
    timestamp.  The kernel never loops per key; at 10^12 urls the bucket
    count rides the CPU count and each task stays one vectorized call."""
    docs = read_table(sf_dir, "documents", columns=["doc_id"])

    def versions(batch: pa.Table) -> pa.Table:
        from ..synth import page_url

        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        nv = (d % SCD_MOD) + 1
        rows_doc = np.repeat(d, nv)
        off = np.repeat(np.cumsum(nv) - nv, nv)
        ver = np.arange(rows_doc.size, dtype=np.int64) - off
        ts = EPOCH_US + rows_doc * 1_000_000 + ver * DAY_US
        urls = [page_url(int(x)) for x in rows_doc]  # same wrap path as synth
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "version": pa.array(ver, pa.int64()),
                "valid_from": pa.array(ts, pa.int64()),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["valid_from"].to_numpy(), g["url"].to_numpy()))
        url = g["url"].to_numpy()[order]
        ver = g["version"].to_numpy()[order]
        ts = g["valid_from"].to_numpy()[order]
        n = len(url)
        same_next = np.zeros(n, dtype=bool)
        if n > 1:
            same_next[:-1] = url[1:] == url[:-1]
        valid_to = np.full(n, SCD_OPEN_US, dtype=np.int64)
        if n > 1:
            valid_to[:-1] = np.where(same_next[:-1], ts[1:], SCD_OPEN_US)
        return pd.DataFrame(
            {
                "url": url,
                "version": ver,
                "valid_from": ts,
                "valid_to": valid_to,
                "is_current": ~same_next,
            }
        )

    return bucketed_map_groups(
        docs.map_batches(versions, batch_format="pyarrow"),
        ["url"],
        per_bucket,
        batch_format="pandas",
    )


SQL_PAGES_SCD = (
    "WITH v AS (SELECT doc_id, CAST(r.range AS BIGINT) AS version"
    " FROM documents, range(0, {mod}) r WHERE r.range <= doc_id % {mod})"
    " SELECT {url} AS url, version,"
    " CAST({epoch} + doc_id*1000000 + version*{day} AS BIGINT) AS valid_from,"
    " CAST(COALESCE(LEAD({epoch} + doc_id*1000000 + version*{day})"
    " OVER (PARTITION BY doc_id ORDER BY version), {open}) AS BIGINT) AS valid_to,"
    " (version = doc_id % {mod}) AS is_current FROM v"
).format(mod=SCD_MOD, url=URL_SQL, epoch=EPOCH_US, day=DAY_US, open=SCD_OPEN_US)


# ---------------------------------------------------------------------------
# reciprocal (mutual) links — spam/authority feature over the link graph
# ---------------------------------------------------------------------------


def q_reciprocal_links(sf_dir: str):
    """Mutual-link pairs in the crawl link graph: (a, b) such that a links
    to b AND b links to a — the classic link-farm / reciprocal-exchange
    signal.  Edges come from the REAL from-scratch DOM parse of the synth
    link pages (same honest workload as q_link_graph); detection is one
    canonical-pair groupby: normalize each edge to (lo, hi, direction) and
    keep pairs that saw both directions (Min=0 and Max=1).  No join
    operator, no driver state; edge rows leaving each task are three int64
    columns."""
    from ..html_extract import extract_links

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def edges(batch: pa.Table) -> pa.Table:
        srcs: list[int] = []
        dsts: list[int] = []
        for d in batch.column("doc_id").to_pylist():
            for href in extract_links(link_page_html(d)):
                if href.startswith("/page/"):
                    srcs.append(d)
                    dsts.append(int(href[6:]))
        s = np.asarray(srcs, dtype=np.int64)
        t = np.asarray(dsts, dtype=np.int64)
        keep = s != t
        s, t = s[keep], t[keep]
        return pa.table(
            {
                "lo": pa.array(np.minimum(s, t)),
                "hi": pa.array(np.maximum(s, t)),
                "dirn": pa.array((s < t).astype(np.int64)),
            }
        )

    # (lo, hi) is EDGE-cardinality: bucketed fold (r5)
    agg = bucketed_group_agg(
        ds.map_batches(edges, batch_format="pyarrow"),
        ["lo", "hi"],
        {"dmin": ("min", "dirn"), "dmax": ("max", "dirn")},
    )

    def mutual(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(batch.column("dmin"), 0), pc.equal(batch.column("dmax"), 1)
        )
        out = batch.filter(m)
        return out.select(["lo", "hi"])

    return agg.map_batches(mutual, batch_format="pyarrow")


SQL_RECIPROCAL_LINKS = (
    "WITH e AS (SELECT doc_id AS src, (7*doc_id + 13*r.range + 1) % 1000 AS dst"
    " FROM documents, range(0, 3) r)"
    " SELECT e1.src AS lo, e1.dst AS hi FROM e e1"
    " JOIN e e2 ON e1.dst = e2.src AND e2.dst = e1.src WHERE e1.src < e1.dst"
)


# ---------------------------------------------------------------------------
# SymSpell deletion-neighborhood fuzzy match (edit distance <= 1)
# ---------------------------------------------------------------------------


def _dist_le_1(a: str, b: str) -> bool:
    """Exact edit-distance <= 1 check (verify step; vocabulary-level only)."""
    la, lb = len(a), len(b)
    if a == b:
        return True
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # b is a + one inserted char: longest common prefix + suffix covers a
    p = 0
    while p < la and a[p] == b[p]:
        p += 1
    s = 0
    while s < la - p and a[la - 1 - s] == b[lb - 1 - s]:
        s += 1
    return p + s >= la


def _del1(w: str) -> list:
    return [w[:i] + w[i + 1 :] for i in range(len(w))]


def q_edit1_matches(sf_dir: str):
    """Typo normalization via the SymSpell deletion-neighborhood index:
    each document derives a deterministic typo (its first token with the
    char at position ``doc_id % len`` deleted) and is matched against every
    corpus vocabulary word within edit distance <= 1.

    This is the standard scalable fuzzy-match plan: edit-distance-1
    candidates are exactly the pairs whose deletion-1 neighborhoods
    intersect, so the vocabulary's (variant -> words) index is built ONCE
    and broadcast (``ray.put``), and each batch probes it by hash lookup —
    no all-pairs distance matrix, no shuffle of string payloads.  At a
    10^8-word web vocabulary the index itself would be hash-partitioned by
    variant and the probe becomes a semi-join on variant hash; here it is
    the broadcast small side (documented bound: vocab x avg_len entries).
    All per-batch loops run over the batch's DISTINCT (token, pos) pairs
    (dictionary-encode first), never over rows; candidate verification is
    an exact distance check at the vocabulary level."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern(batch.column("text"), " ").combine_chunks()
        enc = split.flatten().dictionary_encode()
        return pa.table({"w": enc.dictionary})

    vocab_df = bucketed_group_agg(
        # w is VOCAB-cardinality: bucketed string-key fold (r5)
        docs.map_batches(toks, batch_format="pyarrow"),
        ["w"],
        {"n": ("count", None)},
    ).to_pandas()  # distinct corpus tokens only — vocabulary-bounded
    vocab = sorted(w for w in vocab_df["w"].tolist() if w)
    index: dict = {}
    for wi, w in enumerate(vocab):
        for v in set(_del1(w) + [w]):
            index.setdefault(v, []).append(wi)
    shared = ray.put((vocab, index))

    def match(batch: pa.Table) -> pa.Table:
        voc, idx = ray.get(shared)
        split = pc.split_pattern(batch.column("text"), " ", max_splits=1)
        tok_arr = pc.list_element(split.combine_chunks(), 0)
        enc = tok_arr.dictionary_encode()
        codes = np.asarray(enc.indices, dtype=np.int64)
        toks_d = enc.dictionary.to_pylist()
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.array([len(toks_d[c]) for c in codes], dtype=np.int64)
        nonempty = lens > 0  # SQL side: WHERE length(tok) > 0
        d, codes, lens = d[nonempty], codes[nonempty], lens[nonempty]
        pos = d % np.maximum(lens, 1)
        # distinct (token-code, deletion-pos) pairs — the batch vocabulary
        # (pack base sized to the batch's longest token, not a constant)
        base = int(pos.max()) + 1 if pos.size else 1
        packed = codes * base + pos
        upacked, inv = np.unique(packed, return_inverse=True)
        pair_words: list = []  # per distinct pair: sorted matched word ids
        for pk in upacked:
            c, p = int(pk) // base, int(pk) % base
            tok = toks_d[c]
            typo = tok[:p] + tok[p + 1 :] if tok else ""
            cands: set = set()
            for v in set(_del1(typo) + [typo]):
                cands.update(idx.get(v, ()))
            hits = sorted(wi for wi in cands if _dist_le_1(typo, voc[wi]))
            pair_words.append((typo, np.asarray(hits, dtype=np.int64)))
        counts = np.array([len(h) for _, h in pair_words], dtype=np.int64)
        all_hits = (
            np.concatenate([h for _, h in pair_words])
            if pair_words
            else np.zeros(0, np.int64)
        )
        starts = np.cumsum(counts) - counts  # per-pair offset into all_hits
        row_counts = counts[inv]
        out_doc = np.repeat(d, row_counts)
        out_typo = np.repeat(
            np.array([t for t, _ in pair_words], dtype=object)[inv], row_counts
        )
        # row-level explode without a Python loop: per-row arange + offset
        total = int(row_counts.sum())
        intra = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(row_counts) - row_counts, row_counts
        )
        flat_hits = all_hits[np.repeat(starts[inv], row_counts) + intra]
        voc_arr = np.array(voc, dtype=object)
        out_match = voc_arr[flat_hits]
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "typo": pa.array(list(out_typo), pa.string()),
                "matched": pa.array(out_match, pa.string()),
            }
        )

    return docs.map_batches(match, batch_format="pyarrow")


SQL_EDIT1_MATCHES = (
    "WITH vocab AS (SELECT DISTINCT w FROM"
    " (SELECT unnest(string_split(text, ' ')) AS w FROM documents) WHERE w <> ''),"
    " t AS (SELECT doc_id, split_part(text, ' ', 1) AS tok FROM documents"
    " WHERE length(split_part(text, ' ', 1)) > 0),"
    " ty AS (SELECT doc_id,"
    " substr(tok, 1, CAST(doc_id % length(tok) AS INT))"
    " || substr(tok, CAST(doc_id % length(tok) AS INT) + 2) AS typo FROM t)"
    " SELECT ty.doc_id, ty.typo, v.w AS matched FROM ty"
    " JOIN vocab v ON levenshtein(ty.typo, v.w) <= 1"
)


# ---------------------------------------------------------------------------
# NTILE window buckets (exact, two well-shaped shuffles)
# ---------------------------------------------------------------------------

NTILE_N = 4


def q_lang_ntile(sf_dir: str):
    """Exact NTILE(4) per language ordered by (n_chars, doc_id) — the
    bucketing step behind per-language quality tiers.

    Scale shape: the doc_len_rank histogram gives each (lang, n_chars)
    pair its global base rank (driver state = distinct pairs only,
    broadcast once); within-pair ordinal ranks come from ONE hash-bucket
    shuffle keyed on the packed (lang, n_chars) pair with a lexsort +
    segment-arange kernel per bucket.  NTILE's uneven-bucket rule
    (first c%N tiles get the extra row) is then a closed-form vectorized
    expression over (rank, total) — no per-group Python anywhere."""
    hist = value_histogram(
        read_table(sf_dir, "documents", columns=["lang", "n_chars"]), "lang", "n_chars"
    )
    base: dict = {}
    totals: dict = {}
    for lang, (vals, cnts) in hist.items():
        cum = np.concatenate([[0], np.cumsum(cnts)])
        for v, b in zip(vals, cum[:-1]):
            base[(lang, int(v))] = int(b)
        totals[lang] = int(cum[-1])
    shared = ray.put((base, totals))

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        bse, tot = ray.get(shared)
        order = np.lexsort(
            (g["doc_id"].to_numpy(), g["n_chars"].to_numpy(), g["lang"].to_numpy())
        )
        lang = g["lang"].to_numpy()[order]
        nch = g["n_chars"].to_numpy()[order].astype(np.int64)
        did = g["doc_id"].to_numpy()[order].astype(np.int64)
        n = len(did)
        # within-(lang, n_chars) ordinal rank: segment arange
        new_seg = np.ones(n, dtype=bool)
        if n > 1:
            new_seg[1:] = (lang[1:] != lang[:-1]) | (nch[1:] != nch[:-1])
        seg_starts = np.flatnonzero(new_seg)
        seg_floor = np.repeat(seg_starts, np.diff(np.append(seg_starts, n)))
        peer_rank = np.arange(n, dtype=np.int64) - seg_floor
        base_r = np.array(
            [bse[(lg, int(v))] for lg, v in zip(lang[new_seg], nch[new_seg])],
            dtype=np.int64,
        )
        rank = peer_rank + np.repeat(base_r, np.diff(np.append(seg_starts, n)))
        total = np.array([tot[lg] for lg in lang], dtype=np.int64)
        q8, rem = total // NTILE_N, total % NTILE_N
        boundary = (q8 + 1) * rem
        tile = np.where(
            rank < boundary,
            rank // np.maximum(q8 + 1, 1),
            rem + (rank - boundary) // np.maximum(q8, 1),
        ) + 1
        return pd.DataFrame({"doc_id": did, "lang": lang, "tile": tile})

    return bucketed_map_groups(
        docs, ["lang", "n_chars"], per_bucket, batch_format="pandas"
    )


SQL_LANG_NTILE = (
    "SELECT doc_id, lang, CAST(NTILE({n}) OVER"
    " (PARTITION BY lang ORDER BY n_chars, doc_id) AS BIGINT) AS tile"
    " FROM documents"
).format(n=NTILE_N)


# ---------------------------------------------------------------------------
# robust per-language outlier stats (exact median + MAD via value histogram)
# ---------------------------------------------------------------------------

MAD_K = 3.0


def q_robust_outliers(sf_dir: str):
    """Per-language robust length statistics: exact interpolated median,
    exact MAD (median absolute deviation), and the count of documents
    beyond ``MAD_K`` MADs — the outlier-trim thresholds quality filters use
    when the mean/stddev pair is skew-poisoned (web corpora always are).

    Same scale contract as len_quantiles: ONE (lang, n_chars) histogram
    groupby, then all medians walk the DISTINCT-value histogram on the
    driver (state bounded by #langs x #distinct lengths, never row count).
    Every arithmetic step is exact in binary (medians of ints and halves),
    so the oracle needs no rounding tolerance."""
    hist = value_histogram(
        read_table(sf_dir, "documents", columns=["lang", "n_chars"]), "lang", "n_chars"
    )

    def wmedian(vals: np.ndarray, cnts: np.ndarray) -> float:
        """Interpolated median of a weighted sorted histogram (DuckDB
        ``median``/quantile_cont semantics: average the two central values
        when the total count is even)."""
        total = int(cnts.sum())
        cum = np.cumsum(cnts)
        if total % 2 == 1:
            k = (total + 1) // 2  # 1-based central position
            return float(vals[np.searchsorted(cum, k)])
        lo = float(vals[np.searchsorted(cum, total // 2)])
        hi = float(vals[np.searchsorted(cum, total // 2 + 1)])
        return (lo + hi) / 2.0

    rows = []
    for lang, (vals, cnts) in hist.items():
        vals = vals.astype(np.float64)
        med = wmedian(vals, cnts)
        dev = np.abs(vals - med)
        order = np.argsort(dev, kind="stable")
        mad = wmedian(dev[order], cnts[order])
        n_out = int(cnts[dev > MAD_K * mad].sum())
        rows.append({"lang": lang, "med": med, "mad": mad, "n_outliers": n_out})
    return pd.DataFrame(rows)


SQL_ROBUST_OUTLIERS = (
    "WITH m AS (SELECT lang, median(n_chars) AS med FROM documents GROUP BY lang),"
    " s AS (SELECT d.lang, median(abs(d.n_chars - m.med)) AS mad"
    " FROM documents d JOIN m USING (lang) GROUP BY d.lang)"
    " SELECT m.lang, m.med, s.mad,"
    " CAST(count(*) FILTER (WHERE abs(d.n_chars - m.med) > {k} * s.mad)"
    " AS BIGINT) AS n_outliers"
    " FROM documents d JOIN m USING (lang) JOIN s ON s.lang = m.lang"
    " GROUP BY m.lang, m.med, s.mad"
).format(k=MAD_K)


# ---------------------------------------------------------------------------
# integer-exact time-decayed engagement (mergeable decay aggregate)
# ---------------------------------------------------------------------------

#: decay reference instant: 2024-02-01T00:00:00Z (after every event ts)
DECAY_T_US = 1_706_745_600_000_000


def q_decayed_value(sf_dir: str):
    """Per-user time-decayed engagement: each event's value halves for
    every full day of age at the reference instant, summed per user — the
    recency weighting feature stores compute at serve time.

    Exactness trick (the kmeans/zscore int-exact pattern): quantize each
    event to integer 1e-4 units FIRST (one deterministic double multiply +
    half-away round on both sides), then decay by RIGHT SHIFT (units //
    2^age_days is exact integer math) and sum int64s — no float summation
    order anywhere, so the oracle needs no rounding tolerance.  The decay
    is mergeable map-side: partial per (user, batch) sums combine
    natively."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).view(np.int64)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        # sign-aware half-away rounding (SQL ROUND semantics — negatives
        # round away from zero, caught by the fuzz's negative values)
        units = np.where(
            v >= 0, np.floor(v * 10000.0 + 0.5), -np.floor(-v * 10000.0 + 0.5)
        ).astype(np.int64)
        age = np.clip((DECAY_T_US - ts_us) // DAY_US, 0, 62).astype(np.int64)
        dec = units >> age
        uu, inv = np.unique(uid, return_inverse=True)
        sums_exact = np.zeros(len(uu), dtype=np.int64)  # int64 scatter-add: exact
        np.add.at(sums_exact, inv, dec)
        return pa.table(
            {
                "user_id": pa.array(uu, pa.int64()),
                "decayed_units": pa.array(sums_exact, pa.int64()),
            }
        )

    # user_id is USER-cardinality: bucketed fold over map-side partials (r5)
    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"],
        {"decayed_units": ("sum", "decayed_units")},
    )


SQL_DECAYED_VALUE = (
    # the decay is an ARITHMETIC RIGHT SHIFT (floor division by 2^age);
    # DuckDB's // truncates toward zero, so floor is emulated for
    # negative units with the u % p remainder correction
    "SELECT user_id, CAST(sum("
    " u // p - CASE WHEN u < 0 AND u % p <> 0 THEN 1 ELSE 0 END"
    ") AS BIGINT) AS decayed_units FROM ("
    " SELECT user_id, CAST(ROUND(value * 10000, 0) AS BIGINT) AS u,"
    " CAST(POW(2, LEAST(GREATEST(({t} - epoch_us(ts)) // {day}, 0), 62))"
    " AS BIGINT) AS p FROM events) GROUP BY user_id"
).format(t=DECAY_T_US, day=DAY_US)


# ---------------------------------------------------------------------------
# structured table extraction (HTML table -> relational rows)
# ---------------------------------------------------------------------------


def q_table_rows(sf_dir: str):
    """STRUCTURED extraction: every data table on a page becomes relational
    rows — the step that turns web tables into training-data records
    (reference analog: the table paragraph type,
    ``utils/text/parsers/html_parser.py:182-207``).  Pages are the synth
    table fixture (deterministic cells, one constant column); the REAL
    from-scratch DOM parser does the work per page, including the
    constant-column drop the oracle asserts by omission.  Output rows are
    (doc_id, row_idx, name, val) with val re-typed to int64 — text payloads
    never shuffle (the query ends map-side)."""
    from ..html_extract import extract_tables
    from ..synth import table_page_html

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def rows(batch: pa.Table) -> pa.Table:
        out_doc: list[int] = []
        out_idx: list[int] = []
        out_name: list[str] = []
        out_val: list[int] = []
        for d in batch.column("doc_id").to_pylist():
            for tbl in extract_tables(table_page_html(d)):
                for k, row in enumerate(tbl):
                    assert "fixed" not in row  # constant column must drop
                    out_doc.append(d)
                    out_idx.append(k)
                    out_name.append(row["name"])
                    out_val.append(int(row["val"]))
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "row_idx": pa.array(out_idx, pa.int64()),
                "name": pa.array(out_name, pa.string()),
                "val": pa.array(out_val, pa.int64()),
            }
        )

    return ds.map_batches(rows, batch_format="pyarrow")


SQL_TABLE_ROWS = (
    "SELECT doc_id, CAST(r.range AS BIGINT) AS row_idx,"
    " 'row' || CAST(r.range AS VARCHAR) AS name,"
    " (31*doc_id + 7*r.range) % 100 AS val"
    " FROM documents, range(0, 4) r"
)


# ---------------------------------------------------------------------------
# anchor-text stats (retrieval signal per link target)
# ---------------------------------------------------------------------------


def q_anchor_stats(sf_dir: str):
    """Per-target anchor-text accounting over the crawl link graph: inbound
    link count plus total anchor characters — the signal web search indexes
    target pages under (anchor text describes the TARGET, not the source).
    Same honest workload as q_link_graph (real DOM parse per page via
    extract_anchors); integer rows out, one native aggregate."""
    from ..html_extract import extract_anchors

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def anchors(batch: pa.Table) -> pa.Table:
        dsts: list[int] = []
        chars: list[int] = []
        for d in batch.column("doc_id").to_pylist():
            for href, text in extract_anchors(link_page_html(d)):
                if href.startswith("/page/"):
                    dsts.append(int(href[6:]))
                    chars.append(len(text))
        return pa.table(
            {
                "dst": pa.array(dsts, pa.int64()),
                "chars": pa.array(chars, pa.int64()),
            }
        )

    # dst is PAGE-cardinality: bucketed fold (r5)
    return bucketed_group_agg(
        ds.map_batches(anchors, batch_format="pyarrow"),
        ["dst"],
        {"n_in": ("count", None), "anchor_chars": ("sum", "chars")},
    )


SQL_ANCHOR_STATS = (
    "WITH e AS (SELECT (7*doc_id + 13*r.range + 1) % 1000 AS dst"
    " FROM documents, range(0, 3) r)"
    " SELECT dst, count(*) AS n_in,"
    " CAST(sum(8 + length(CAST(dst AS VARCHAR))) AS BIGINT) AS anchor_chars"
    " FROM e GROUP BY dst"
)


# ---------------------------------------------------------------------------
# as-of snapshot read over the SCD-2 history
# ---------------------------------------------------------------------------

#: snapshot instant for q_pages_asof: EPOCH + 2.5 days
ASOF_T_US = EPOCH_US + 2 * DAY_US + DAY_US // 2


def q_pages_asof(sf_dir: str):
    """Time-travel read: the version of every url that was live at instant
    T — the serve-side query an SCD-2 crawl store exists to answer.
    Composes the full q_pages_scd pipeline (explode, bucket shuffle,
    interval-close kernel) then filters ``valid_from <= T < valid_to``
    MAP-SIDE — at any corpus size the snapshot costs one predicate per
    row, no extra shuffle."""
    scd = q_pages_scd(sf_dir)

    def live_at(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.less_equal(batch.column("valid_from"), ASOF_T_US),
            pc.greater(batch.column("valid_to"), ASOF_T_US),
        )
        return batch.filter(m).select(["url", "version", "valid_from"])

    return scd.map_batches(live_at, batch_format="pyarrow")


SQL_PAGES_ASOF = (
    "WITH v AS (SELECT doc_id, CAST(r.range AS BIGINT) AS version"
    " FROM documents, range(0, {mod}) r WHERE r.range <= doc_id % {mod}),"
    " s AS (SELECT doc_id, version,"
    " CAST({epoch} + doc_id*1000000 + version*{day} AS BIGINT) AS valid_from,"
    " CAST(COALESCE(LEAD({epoch} + doc_id*1000000 + version*{day})"
    " OVER (PARTITION BY doc_id ORDER BY version), {open}) AS BIGINT) AS valid_to"
    " FROM v)"
    " SELECT {url} AS url, version, valid_from FROM s"
    " WHERE valid_from <= {t} AND valid_to > {t}"
).format(
    mod=SCD_MOD, url=URL_SQL, epoch=EPOCH_US, day=DAY_US, open=SCD_OPEN_US, t=ASOF_T_US
)


# ---------------------------------------------------------------------------
# schema-on-read JSON field extraction (semi-structured event props)
# ---------------------------------------------------------------------------


def q_props_stats(sf_dir: str):
    """Schema-on-read over the semi-structured ``props`` JSON column:
    extract the ``k`` field per event and aggregate per event type — the
    pattern every event-log pipeline runs before its first groupby
    (payloads arrive as JSON strings; fields materialize lazily).

    The hot path is ONE vectorized RE2 ``extract_regex`` per batch (the
    overwhelmingly common flat-field case); rows the fast path cannot
    parse fall back to a real ``json.loads`` — the fallback loop touches
    only those rows, so a clean corpus pays zero Python.  Partials
    pre-aggregate per (event_type) before the native groupby."""
    import json

    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        props = batch.column("props").combine_chunks()
        ex = pc.extract_regex(props, r'"k":\s*(?P<k>\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        if k.null_count:  # general-JSON fallback, failed rows only
            vals = k.to_numpy(zero_copy_only=False).copy()
            miss = np.flatnonzero(pc.is_null(k).to_numpy(zero_copy_only=False))
            raw = props.to_pylist()
            for i in miss:
                vals[i] = int(json.loads(raw[i]).get("k", 0))
            k = pa.array(vals.astype(np.int64))
        df = pa.table(
            {"event_type": batch.column("event_type"), "k": k}
        ).to_pandas()
        g = (
            df.groupby("event_type")["k"]
            .agg(n="count", sum_k="sum", max_k="max")
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_k", alias_name="sum_k"),
            Max("max_k", alias_name="max_k"),
        )
    )


SQL_PROPS_STATS = (
    "SELECT event_type, count(*) AS n,"
    " CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,"
    " CAST(max(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS max_k"
    " FROM events GROUP BY event_type"
)


# ---------------------------------------------------------------------------
# EXCEPT set operation via digest anti-join (cross-source novelty)
# ---------------------------------------------------------------------------


def q_source_except(sf_dir: str):
    """Set difference between sources: documents of src0 whose text does
    NOT appear anywhere in src1 (SQL ``NOT EXISTS`` on text equality) —
    the novelty filter an incremental crawl runs against the previous
    snapshot.  Text equality rides the repo's 128-bit shuffle-key
    convention (two independent 64-bit string hashes packed to one binary
    column): the anti-join shuffles 16-byte digests + ids, never the text,
    and ``semi_anti_join`` size-plans broadcast vs partitioned
    membership."""
    from ..functions.strhash import hash_strings_u64, pack_u64_pair
    from ..stages.joins import semi_anti_join

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def digests(which: str):
        def add(batch: pa.Table) -> pa.Table:
            m = pc.equal(batch.column("source"), which)
            sub = batch.filter(m)
            txt = sub.column("text").combine_chunks()
            h = pack_u64_pair(
                hash_strings_u64(txt, seed=0x5EED_0001),
                hash_strings_u64(txt, seed=0x5EED_0002),
            )
            return pa.table({"doc_id": sub.column("doc_id"), "h": h})

        return add

    left = docs.map_batches(digests("src0"), batch_format="pyarrow")
    right = docs.map_batches(digests("src1"), batch_format="pyarrow")
    out = semi_anti_join(left, right.select_columns(["h"]), on="h", anti=True)
    return out.select_columns(["doc_id"])


SQL_SOURCE_EXCEPT = (
    "SELECT d.doc_id FROM documents d WHERE d.source = 'src0'"
    " AND NOT EXISTS (SELECT 1 FROM documents o"
    " WHERE o.source = 'src1' AND o.text = d.text)"
)


# ---------------------------------------------------------------------------
# item co-occurrence (collaborative-filtering pair counts)
# ---------------------------------------------------------------------------

_ITEM_RE = r'"k":\s*(?P<k>\d+)'


def _extract_item(batch: pa.Table) -> np.ndarray:
    """props JSON -> int item id (vectorized fast path; see q_props_stats)."""
    import json

    props = batch.column("props").combine_chunks()
    ex = pc.extract_regex(props, _ITEM_RE)
    k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
    if k.null_count:
        vals = k.to_numpy(zero_copy_only=False).copy()
        miss = np.flatnonzero(pc.is_null(k).to_numpy(zero_copy_only=False))
        raw = props.to_pylist()
        for i in miss:
            vals[i] = int(json.loads(raw[i]).get("k", 0))
        return vals.astype(np.int64)
    return k.to_numpy(zero_copy_only=False).astype(np.int64)


def q_item_cooccurrence(sf_dir: str):
    """Item-item co-occurrence counts (the collaborative-filtering /
    related-items primitive): for every pair of items interacted with by
    the same user, the number of distinct such users.

    Plan (ONE wide barrier carrying data rows, one tiny one): map-side
    per-batch (user, item) dedup via packed-int np.unique, a user-hash
    bucket shuffle, then a per-bucket kernel that (a) finishes the
    distinct EXACTLY (the bucket owns every row of its users), (b)
    explodes pairs looping only over DISTINCT SEGMENT SIZES (all user
    segments of equal size gather through one ``np.triu_indices``), and
    (c) PRE-COUNTS pairs with np.unique before anything leaves the task —
    so the final aggregate sums tiny (packed-int64 pair, partial-count)
    rows instead of hashing the full quadratic pair stream (first cut
    shipped 7.4M two-column pair rows into the native aggregate: 28 s;
    this shape: 1.4 s).  At web scale the per-user item list is capped
    upstream (every production co-occurrence job truncates hyper-active
    users); the explode is quadratic per user by definition of the
    operator."""
    ds = read_table(sf_dir, "events", columns=["user_id", "props"])
    PACK = 1_048_576  # item < 2^20 by contract

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        item = _extract_item(batch)
        uid = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        packed = np.unique(uid * PACK + item)
        return pa.table(
            {
                "user_id": pa.array(packed // PACK, pa.int64()),
                "item": pa.array(packed % PACK, pa.int64()),
            }
        )

    def pairs(g: pa.Table) -> pa.Table:
        uid0 = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        item0 = g.column("item").to_numpy(zero_copy_only=False).astype(np.int64)
        # exact global (user, item) distinct: this bucket owns its users
        packed = np.unique(uid0 * PACK + item0)
        uid = packed // PACK
        item = packed % PACK  # sorted within each user by construction
        n = len(uid)
        new_seg = np.ones(n, dtype=bool)
        if n > 1:
            new_seg[1:] = uid[1:] != uid[:-1]
        starts = np.flatnonzero(new_seg)
        sizes = np.diff(np.append(starts, n))
        out: list = []
        for m in np.unique(sizes):  # loop over DISTINCT sizes only
            if m < 2:
                continue
            seg_starts = starts[sizes == m]
            # (g, m) item matrix for every segment of this size at once
            mat = item[seg_starts[:, None] + np.arange(m)[None, :]]
            ii, jj = np.triu_indices(int(m), k=1)
            out.append((mat[:, ii] * PACK + mat[:, jj]).ravel())
        if out:
            pk, cnt = np.unique(np.concatenate(out), return_counts=True)
        else:
            pk = cnt = np.zeros(0, np.int64)
        # pre-counted Arrow partials: the aggregate sums <= (#distinct
        # pairs in bucket) rows on ONE int64 key
        return pa.table(
            {
                "pk": pa.array(pk, pa.int64()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    # pyarrow format end-to-end: a pandas-format map_groups would coerce
    # the output blocks back to pandas and the downstream wide op hits the
    # ~20x slow path (BASELINE.md #11)
    pair_partials = bucketed_map_groups(
        ds.map_batches(distinct_pairs, batch_format="pyarrow"), ["user_id"], pairs
    )
    # pair keys are data-cardinality (quadratic in catalog size at web
    # scale): Ray's native aggregate pays ~us-per-row/group overhead
    # (#buckets x #pairs partial rows took 7-8 s at sf0.1), so finish
    # with the bucketed lexsort/reduceat aggregate built for exactly this
    agg = bucketed_group_agg(pair_partials, ["pk"], {"n_users": ("sum", "n")})

    def unpack(batch: pa.Table) -> pa.Table:
        pk = batch.column("pk").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "item_a": pa.array(pk // PACK, pa.int64()),
                "item_b": pa.array(pk % PACK, pa.int64()),
                "n_users": batch.column("n_users"),
            }
        )

    return agg.map_batches(unpack, batch_format="pyarrow")


SQL_ITEM_COOCCURRENCE = (
    "WITH ui AS (SELECT DISTINCT user_id,"
    " CAST(json_extract(props, '$.k') AS BIGINT) AS item FROM events)"
    " SELECT a.item AS item_a, b.item AS item_b, count(*) AS n_users"
    " FROM ui a JOIN ui b ON a.user_id = b.user_id AND a.item < b.item"
    " GROUP BY 1, 2"
)


# ---------------------------------------------------------------------------
# event-type transition counts (Markov-chain prep over user sessions)
# ---------------------------------------------------------------------------


def q_event_transitions(sf_dir: str):
    """Per-user consecutive event-type transition counts — the
    transition-matrix estimation step behind next-action models and
    session-quality heuristics.  ONE user-hash bucket shuffle; the
    per-bucket kernel is a lexsort + shift (consecutive rows of the same
    user form a transition) with zero per-user Python."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def transitions(g: pa.Table) -> pa.Table:
        order = np.lexsort(
            (
                g.column("event_id").to_numpy(zero_copy_only=False),
                g.column("ts").to_numpy(zero_copy_only=False),
                g.column("user_id").to_numpy(zero_copy_only=False),
            )
        )
        uid = g.column("user_id").to_numpy(zero_copy_only=False)[order]
        et = np.asarray(g.column("event_type").to_pandas())[order]
        if len(uid) < 2:  # explicit schema so empty blocks unify
            return pa.table(
                {
                    "src_type": pa.array([], pa.string()),
                    "dst_type": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        same = uid[1:] == uid[:-1]
        src = et[:-1][same]
        dst = et[1:][same]
        # pre-count inside the task (BASELINE.md #15: never feed a
        # data-proportional row stream into the native aggregate) —
        # transition rows collapse to <= (#types^2) partials per bucket
        pair = np.char.add(np.char.add(src.astype(str), "\x1f"), dst.astype(str))
        upair, cnt = np.unique(pair, return_counts=True)
        halves = np.char.partition(upair, "\x1f")
        return pa.table(
            {
                "src_type": pa.array(halves[:, 0], pa.string()),
                "dst_type": pa.array(halves[:, 2], pa.string()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    # pyarrow end-to-end: pandas-format output would put pandas blocks
    # into the native Aggregate (slow path, BASELINE.md #11)
    return (
        bucketed_map_groups(ds, ["user_id"], transitions)
        .groupby(["src_type", "dst_type"])
        .aggregate(Sum("n", alias_name="n"))
    )


SQL_EVENT_TRANSITIONS = (
    "WITH s AS (SELECT user_id, event_type,"
    " LEAD(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS nxt"
    " FROM events)"
    " SELECT event_type AS src_type, nxt AS dst_type, count(*) AS n FROM s"
    " WHERE nxt IS NOT NULL GROUP BY 1, 2"
)


# ---------------------------------------------------------------------------
# cohort retention matrix (signup week x activity-week offset)
# ---------------------------------------------------------------------------

#: Monday 2024-01-01T00:00:00Z in epoch microseconds (week grid origin —
#: the synth events all land after it, so integer week indices equal
#: DuckDB's Monday-based date_trunc('week') buckets)
WEEK0_US = 1_704_067_200_000_000
WEEK_US = 7 * DAY_US


def q_cohort_retention(sf_dir: str):
    """Cohort retention: users bucketed by their FIRST activity week, then
    counted per (cohort week, week offset) of later activity — the
    retention triangle every growth dashboard plots.

    Plan: map-side distinct (user, week) via packed np.unique, a bucketed
    lexsort/reduceat group-aggregate to finish the distinct and another
    for the per-user cohort week — BOTH keys are DATA-cardinality
    (user-proportional), exactly where Ray's native aggregate pays ~30 us
    per group (BASELINE #4/#15; VERDICT r4 #2) — then a size-planned
    ``auto_join`` back (the cohort table is a per-user dimension:
    broadcast while provably small, hash-partitioned join beyond) and one
    final native aggregate over the BOUNDED (cohort week x offset) grid.
    No driver state proportional to users anywhere."""
    from ..stages.joins import auto_join

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def distinct_weeks(batch: pa.Table) -> pa.Table:
        ts_us = (
            batch.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .view(np.int64)
        )
        uid = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        week = (ts_us - WEEK0_US) // WEEK_US
        packed = np.unique(uid * 4096 + week)  # < 4096 weeks (~78 years)
        return pa.table(
            {
                "user_id": pa.array(packed // 4096, pa.int64()),
                "week": pa.array(packed % 4096, pa.int64()),
            }
        )

    act = bucketed_group_agg(
        ds.map_batches(distinct_weeks, batch_format="pyarrow"),
        ["user_id", "week"],
        {"_n": ("count", None)},
    )

    def slim(batch: pa.Table) -> pa.Table:
        return batch.select(["user_id", "week"])

    act = act.map_batches(slim, batch_format="pyarrow").materialize()
    cohort = bucketed_group_agg(
        act, ["user_id"], {"cohort_week": ("min", "week")}
    )
    joined = auto_join(act, cohort, on="user_id")

    def offsets(batch: pa.Table) -> pa.Table:
        off = pc.subtract(batch.column("week"), batch.column("cohort_week"))
        return pa.table(
            {
                "cohort_week": batch.column("cohort_week"),
                "week_offset": pc.cast(off, pa.int64()),
            }
        )

    return (
        joined.map_batches(offsets, batch_format="pyarrow")
        .groupby(["cohort_week", "week_offset"])
        .aggregate(Count(alias_name="n_users"))
    )


SQL_COHORT_RETENTION = (
    "WITH w AS (SELECT DISTINCT user_id,"
    " (epoch_us(ts) - {w0}) // {wk} AS week FROM events),"
    " c AS (SELECT user_id, min(week) AS cohort_week FROM w GROUP BY user_id)"
    " SELECT c.cohort_week, w.week - c.cohort_week AS week_offset,"
    " count(*) AS n_users FROM w JOIN c USING (user_id) GROUP BY 1, 2"
).format(w0=WEEK0_US, wk=WEEK_US)


# ---------------------------------------------------------------------------
# INTERSECT set operation via digest semi-join (cross-source overlap)
# ---------------------------------------------------------------------------


_INTERSECT_WIN = 3  # words per shingle — whole-text equality is degenerate


def q_source_intersect(sf_dir: str):
    """INTERSECT-style set-membership between sources: documents of src0
    that share at least one 3-word shingle with some src1 document (SQL
    ``EXISTS`` on shingle equality) — the overlap probe an incremental
    crawl runs before deciding what to re-extract.  Complement of
    :func:`q_source_except` with content equality relaxed to shingle
    granularity: each side explodes to 128-bit window hashes with the
    zero-Python-loop Horner kernel (`queries_cc._explode_window_hashes`
    — dictionary-encoded token hashing, windows masked at row bounds),
    the semi-join moves 16-byte digests + ids (never the text), and
    ``semi_anti_join`` size-plans broadcast vs partitioned membership.
    Reference analog: the map.json presence check
    (`models/detection/base_detector.py:171-174`) generalized to a
    distributed set-membership operator."""
    from ..functions.strhash import pack_u64_pair
    from ..stages.dedup import distinct_rows
    from ..stages.joins import semi_anti_join
    from .queries_cc import _explode_window_hashes

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def shingles(which: str):
        def add(batch: pa.Table) -> pa.Table:
            sub = batch.filter(pc.equal(batch.column("source"), which))
            win = _explode_window_hashes(
                sub.select(["doc_id", "text"]), win=_INTERSECT_WIN
            )
            h = pack_u64_pair(
                win.column("h1").to_numpy(zero_copy_only=False).view(np.uint64),
                win.column("h2").to_numpy(zero_copy_only=False).view(np.uint64),
            )
            return pa.table({"doc_id": win.column("doc_id"), "h": h})

        return add

    left = docs.map_batches(shingles("src0"), batch_format="pyarrow")
    right = docs.map_batches(shingles("src1"), batch_format="pyarrow")
    out = semi_anti_join(left, right.select_columns(["h"]), on="h", anti=False)
    return distinct_rows(out, ["doc_id"]).select_columns(["doc_id"])


SQL_SOURCE_INTERSECT = (
    "WITH toks AS (SELECT doc_id, source, string_split(text, ' ') AS t"
    " FROM documents WHERE source IN ('src0', 'src1')),"
    " sh AS (SELECT doc_id, source,"
    " array_to_string(t[g.i:g.i+{wm1}], ' ') AS shingle"
    " FROM toks CROSS JOIN LATERAL"
    " (SELECT unnest(range(1, len(t) - {wm1} + 1)) AS i) g)"
    " SELECT DISTINCT a.doc_id FROM sh a WHERE a.source = 'src0'"
    " AND EXISTS (SELECT 1 FROM sh b"
    " WHERE b.source = 'src1' AND b.shingle = a.shingle)"
).format(wm1=_INTERSECT_WIN - 1)


# ---------------------------------------------------------------------------
# wide -> long UNPIVOT (melt) over the per-user pivot
# ---------------------------------------------------------------------------


def q_events_unpivot(sf_dir: str):
    """Wide -> long melt: take the per-user pivot (one ``n_<type>`` count
    column per event type, :func:`queries_rel.q_events_pivot`) back to
    tidy (user_id, event_type, n) rows, dropping absent combinations —
    the UNPIVOT relational operator.  The melt is a pure per-batch
    reshape (np.repeat keys / tile labels / column-stack counts — zero
    Python per row) so it parallelizes embarrassingly; only the upstream
    pivot shuffles, and that shuffle moves already-widened partials."""
    from .queries_rel import _EVENT_TYPES, q_events_pivot

    wide = q_events_pivot(sf_dir)
    types = np.array(list(_EVENT_TYPES))
    k = len(types)

    def melt(batch: pa.Table) -> pa.Table:
        r = batch.num_rows
        uid = np.repeat(
            batch.column("user_id").to_numpy(zero_copy_only=False), k
        )
        etype = np.tile(types, r)
        n = np.column_stack(
            [
                batch.column("n_%s" % t).to_numpy(zero_copy_only=False)
                for t in _EVENT_TYPES
            ]
        ).ravel()
        keep = n > 0
        return pa.table(
            {
                "user_id": pa.array(uid[keep], pa.int64()),
                "event_type": pa.array(etype[keep].tolist(), pa.string()),
                "n": pa.array(n[keep], pa.int64()),
            }
        )

    return wide.map_batches(melt, batch_format="pyarrow")


SQL_EVENTS_UNPIVOT = (
    "SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n"
    " FROM events GROUP BY user_id, event_type"
)


# ---------------------------------------------------------------------------
# FULL OUTER join (keyed-bucket hash join)
# ---------------------------------------------------------------------------


def q_customer_order_full(sf_dir: str):
    """FULL OUTER join of two fact slices with only partial key overlap:
    per-customer order stats (custkeys that placed orders) against the
    BUILDING-segment customer dimension — left-only rows are buyers outside
    the segment, right-only rows are segment customers who never ordered.
    Exercises ``full_outer`` through the size-aware planner: a per-bucket
    Arrow join on the keyed-bucket shuffle (a full outer can NEVER
    broadcast — both sides contribute unmatched rows, so ``auto_join``
    must fall through to the shuffle path regardless of side size; this
    query pins that planning rule).
    The orders side pre-aggregates (Count + Max — Max is float
    order-independent, so no quantization dance) through
    ``bucketed_group_agg``: custkey is a DATA-cardinality key (~#customers
    groups), exactly the shape where Ray's native aggregate pays ~30 us
    per group (BASELINE r4 #4), so the reduce is one lexsort/reduceat
    kernel per hash bucket instead.  The join then moves one row per
    distinct custkey, not one per order.  Reference analog: the
    prediction-map reconciliation in `models/detection/base_detector.py:
    171-186` (entries on either side of the on-disk map survive)."""
    from ..stages.joins import auto_join

    stats_schema = pa.schema(
        [("o_custkey", pa.int64()), ("n_orders", pa.int64()), ("max_price", pa.float64())]
    )
    stats = bucketed_group_agg(
        read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        ["o_custkey"],
        {"n_orders": ("count", None), "max_price": ("max", "o_totalprice")},
    ).materialize()  # dimension-sized (one row per custkey) by construction:
    # materialized so the join's schema probe does not re-run the shuffle
    if stats.schema() is None:
        # no orders at all: the aggregate has no typed block, so give the
        # join a typed empty left side
        stats = ray.data.from_arrow(stats_schema.empty_table())
    segment = (
        read_table(
            sf_dir, "customer", columns=["c_custkey", "c_acctbal", "c_mktsegment"]
        )
        .filter(expr="c_mktsegment == 'BUILDING'")
        .select_columns(["c_custkey", "c_acctbal"])
        .materialize()
    )
    joined = auto_join(
        stats, segment, on="o_custkey", right_on="c_custkey", join_type="full_outer"
    )

    def finish(batch: pa.Table) -> pa.Table:
        # the per-bucket Arrow full outer join coalesces the key into
        # the LEFT name already
        return pa.table(
            {
                "custkey": pc.cast(batch.column("o_custkey"), pa.int64()),
                "n_orders": pc.fill_null(
                    pc.cast(batch.column("n_orders"), pa.int64()), 0
                ),
                "max_price": pc.fill_null(batch.column("max_price"), -1.0),
                "acctbal": pc.fill_null(batch.column("c_acctbal"), -1.0),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


SQL_CUSTOMER_ORDER_FULL = (
    "SELECT COALESCE(o.k, c.c_custkey) AS custkey,"
    " COALESCE(o.n_orders, 0) AS n_orders,"
    " COALESCE(o.max_price, -1.0) AS max_price,"
    " COALESCE(c.c_acctbal, -1.0) AS acctbal"
    " FROM (SELECT o_custkey AS k, CAST(count(*) AS BIGINT) AS n_orders,"
    " max(o_totalprice) AS max_price FROM orders GROUP BY 1) o"
    " FULL OUTER JOIN (SELECT c_custkey, c_acctbal FROM customer"
    " WHERE c_mktsegment = 'BUILDING') c ON o.k = c.c_custkey"
)


# ---------------------------------------------------------------------------
# time-series resample with gap fill (dense per-key hourly grid)
# ---------------------------------------------------------------------------


HOUR_US = 3_600_000_000


def _resample_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """Dense per-user hour grids for one bucket of (user_id, hr, n)
    partials — one vectorized pass, zero Python per user.  Duplicate
    (user, hr) cells (partials from different batches) scatter-ADD."""
    g = g.sort_values(["user_id", "hr"], kind="stable")
    uid = g["user_id"].to_numpy()
    hr = g["hr"].to_numpy()
    n = g["n"].to_numpy()
    first = np.empty(len(g), dtype=bool)
    first[0] = True
    first[1:] = uid[1:] != uid[:-1]
    starts = np.flatnonzero(first)
    ends = np.concatenate([starts[1:], [len(g)]]) - 1
    h0 = hr[starts]
    h1 = hr[ends]
    sizes = h1 - h0 + 1
    total = int(sizes.sum())
    offs = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    seg_of = np.repeat(np.arange(len(starts)), sizes)
    grid_hr = np.arange(total, dtype=np.int64) - offs[seg_of] + h0[seg_of]
    grid_uid = np.repeat(uid[starts], sizes)
    grid_n = np.zeros(total, dtype=np.int64)
    seg_idx = np.cumsum(first) - 1
    np.add.at(grid_n, offs[seg_idx] + (hr - h0[seg_idx]), n)
    return pd.DataFrame({"user_id": grid_uid, "hr": grid_hr, "n": grid_n})


def q_events_resample(sf_dir: str):
    """Per-user hourly resample with gap fill: for every user, a DENSE
    hour grid from their first to their last event with the event count in
    each hour (0 for silent hours) — the reshape every time-series
    model-prep pipeline runs before windowing.  Map-side partial: each
    batch reduces to distinct (user, hour, partial-count) rows via one
    packed-int64 np.unique, so the shuffle is bounded by active
    (user, hour) cells, never raw events.  One user-hash-bucket groupby;
    inside each bucket a single vectorized kernel builds every user's grid
    at once (segment min/max via sorted firsts/lasts, np.repeat +
    offset-arange for the dense grid, scatter-add for the observed cells —
    zero Python per user).  Grid mass is bounded by each user's own time
    span; a pathological span would inflate only its own bucket, and the
    docstringed contract (dense grid per key) makes that cost explicit."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (
            batch.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        hr = ts // HOUR_US
        # 2-column unique (no bit packing — epoch-scale hour ids need >40 bits)
        pair = np.stack([uid, hr], axis=1)
        u, counts = np.unique(pair, axis=0, return_counts=True)
        return pa.table(
            {
                "user_id": pa.array(u[:, 0], pa.int64()),
                "hr": pa.array(u[:, 1], pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    return bucketed_map_groups(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"],
        _resample_bucket,
        batch_format="pandas",
    )


SQL_EVENTS_RESAMPLE = (
    "WITH b AS (SELECT user_id, epoch_us(ts) // 3600000000 AS hr FROM events),"
    " spans AS (SELECT user_id, min(hr) AS h0, max(hr) AS h1 FROM b GROUP BY 1),"
    " grid AS (SELECT user_id, unnest(range(h0, h1 + 1)) AS hr FROM spans),"
    " cnt AS (SELECT user_id, hr, count(*) AS n FROM b GROUP BY 1, 2)"
    " SELECT g.user_id, g.hr, CAST(COALESCE(c.n, 0) AS BIGINT) AS n"
    " FROM grid g LEFT JOIN cnt c ON g.user_id = c.user_id AND g.hr = c.hr"
)


# ---------------------------------------------------------------------------
# global stable row numbering (ROW_NUMBER without a global sort)
# ---------------------------------------------------------------------------


def q_doc_row_number(sf_dir: str):
    """Assign every document a GLOBAL stable sequence number — ROW_NUMBER()
    OVER (ORDER BY n_chars DESC, doc_id) — without a global sort: pass 1
    aggregates the n_chars value histogram (bounded by distinct lengths,
    not rows) and the driver turns it into per-value base offsets broadcast
    via ``ray.put``; pass 2 groups by the BOUNDED value key and each group
    kernel argsorts its doc_ids once, emitting base + arange.  The shuffle
    is keyed on an integer of bounded cardinality, the driver holds one
    int per distinct value, and no stage sees a globally sorted stream —
    the standard two-pass rank-assignment plan for stable-id minting at
    corpus scale (shard offsets + within-shard positions)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    hist = ds.groupby("n_chars").aggregate(Count(alias_name="n")).to_pandas()
    hist = hist.sort_values("n_chars", ascending=False)
    base = dict(
        zip(
            hist["n_chars"].to_numpy(),
            np.concatenate([[0], np.cumsum(hist["n"].to_numpy())[:-1]]),
        )
    )
    base_ref = ray.put(base)

    def per_value(g: pd.DataFrame) -> pd.DataFrame:
        offsets = ray.get(base_ref)
        ids = np.sort(g["doc_id"].to_numpy())
        start = int(offsets[int(g["n_chars"].iloc[0])])
        return pd.DataFrame(
            {
                "doc_id": ids,
                "rn": start + np.arange(1, len(ids) + 1, dtype=np.int64),
            }
        )

    return ds.groupby("n_chars").map_groups(per_value, batch_format="pandas")


SQL_DOC_ROW_NUMBER = (
    "SELECT doc_id, row_number() OVER (ORDER BY n_chars DESC, doc_id) AS rn"
    " FROM documents"
)


# ---------------------------------------------------------------------------
# search expansion (reference S6 search half: query -> ranked urls)
# ---------------------------------------------------------------------------

#: raw queries deliberately carrying punctuation — format_query's
#: normalization (non-alnum -> space) is part of the contract under test
SEARCH_RAW_QUERIES = {
    0: "hash join, order!",
    1: "window & merge: stream",
    2: "filter+scan (group)",
}
SEARCH_TOP_N = 5


def q_search_corpus(sf_dir: str):
    """The S6 SEARCH half (reference ``search_engine.py:47-139`` +
    ``google_engine.py:37-65``): free-text queries -> normalized terms ->
    distributed term-frequency ranking over the synthesized page corpus,
    one result per url root (the reference's visited-link-root rule), no
    ``.pdf``, top-5 per query by (score desc, url asc).

    Scale shape: queries broadcast via ``ray.put``; the corpus streams
    through one Arrow tokenize + ``is_in`` + bincount kernel per batch;
    per-batch partials carry <= n host-deduped rows per query (exact
    pruning — a losing host in its own batch cannot win globally), and
    the final merge groupby has #queries groups.  Composition with the
    per-query JSON cache + actor-pool fetch is
    ``sources.search.SearchEngine`` (pytest-pinned)."""
    from ..sources import search as S
    from ..synth import page_url

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return pa.table(
            {
                "url": pa.array([page_url(int(i)) for i in ids], pa.string()),
                "text": batch.column("text"),
            }
        )

    corpus = docs.map_batches(to_pages, batch_format="pyarrow")
    queries = {
        qid: S.query_terms(S.format_query(q))
        for qid, q in SEARCH_RAW_QUERIES.items()
    }
    return S.rank_corpus(corpus, queries, n=SEARCH_TOP_N).sort(
        ["query_id", "rank"]
    )


def _sql_search_corpus() -> str:
    # terms come from the SAME format_query/query_terms code path as the
    # engine, so normalization can never fork between the two
    from ..sources.search import format_query, query_terms

    values = ", ".join(
        "({}, [{}])".format(
            qid,
            ", ".join("'{}'".format(t) for t in query_terms(format_query(q))),
        )
        for qid, q in SEARCH_RAW_QUERIES.items()
    )
    host_code = (
        "CASE WHEN (doc_id*48271)%100 < 25 THEN 0"
        " WHEN (doc_id*48271)%100 < 40 THEN 1"
        " ELSE 2 + (doc_id*69621)%48 END"
    )
    return (
        "WITH pages AS (SELECT doc_id, " + URL_SQL + " AS url, "
        + host_code + " AS host, text FROM documents),"
        " q(query_id, terms) AS (VALUES " + values + "),"
        " scores AS (SELECT CAST(q.query_id AS BIGINT) AS query_id, p.url,"
        " p.host, len(list_filter(string_split(p.text, ' '),"
        " t -> list_contains(q.terms, t))) AS score"
        " FROM pages p CROSS JOIN q),"
        " hostbest AS (SELECT *, row_number() OVER (PARTITION BY query_id,"
        " host ORDER BY score DESC, url) AS hr FROM scores WHERE score > 0"
        " AND NOT url LIKE '%.pdf'),"
        " ranked AS (SELECT query_id, url, score, row_number() OVER"
        " (PARTITION BY query_id ORDER BY score DESC, url) AS rank"
        " FROM hostbest WHERE hr = 1)"
        " SELECT query_id, CAST(rank AS BIGINT) AS rank, url,"
        " CAST(score AS BIGINT) AS score FROM ranked WHERE rank <= {}"
    ).format(SEARCH_TOP_N)


WEB_QUERIES = {
    "search_corpus": q_search_corpus,
    "customer_order_full": q_customer_order_full,
    "events_resample": q_events_resample,
    "doc_row_number": q_doc_row_number,
    "source_intersect": q_source_intersect,
    "events_unpivot": q_events_unpivot,
    "host_stats": q_host_stats,
    "pages_scd": q_pages_scd,
    "reciprocal_links": q_reciprocal_links,
    "edit1_matches": q_edit1_matches,
    "lang_ntile": q_lang_ntile,
    "robust_outliers": q_robust_outliers,
    "decayed_value": q_decayed_value,
    "table_rows": q_table_rows,
    "anchor_stats": q_anchor_stats,
    "pages_asof": q_pages_asof,
    "props_stats": q_props_stats,
    "source_except": q_source_except,
    "item_cooccurrence": q_item_cooccurrence,
    "event_transitions": q_event_transitions,
    "cohort_retention": q_cohort_retention,
}

WEB_ORACLE_SQL = {
    "search_corpus": _sql_search_corpus(),
    "customer_order_full": SQL_CUSTOMER_ORDER_FULL,
    "events_resample": SQL_EVENTS_RESAMPLE,
    "doc_row_number": SQL_DOC_ROW_NUMBER,
    "source_intersect": SQL_SOURCE_INTERSECT,
    "events_unpivot": SQL_EVENTS_UNPIVOT,
    "host_stats": SQL_HOST_STATS,
    "pages_scd": SQL_PAGES_SCD,
    "reciprocal_links": SQL_RECIPROCAL_LINKS,
    "edit1_matches": SQL_EDIT1_MATCHES,
    "lang_ntile": SQL_LANG_NTILE,
    "robust_outliers": SQL_ROBUST_OUTLIERS,
    "decayed_value": SQL_DECAYED_VALUE,
    "table_rows": SQL_TABLE_ROWS,
    "anchor_stats": SQL_ANCHOR_STATS,
    "pages_asof": SQL_PAGES_ASOF,
    "props_stats": SQL_PROPS_STATS,
    "source_except": SQL_SOURCE_EXCEPT,
    "item_cooccurrence": SQL_ITEM_COOCCURRENCE,
    "event_transitions": SQL_EVENT_TRANSITIONS,
    "cohort_retention": SQL_COHORT_RETENTION,
}
