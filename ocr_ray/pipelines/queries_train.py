"""Training-data assembly operators (round 4): sequence packing, weighted
sampling, per-key moving-window aggregates, CUBE grouping sets.

These are the last-mile ops between a curated corpus and a training run —
the reference stops at ``build_tf_dataset`` batching (reference
``utils/datasets`` loaders feed fixed-shape model batches); here the
equivalent step over a 100-TB corpus is expressed as Dataset pipelines:

- ``training_pack`` — GPT-style concat-and-chunk: every document's token
  span is placed in a single global token stream (one EOS separator per
  doc) and assigned to fixed-size training blocks.  The global offsets
  come from :func:`ocr_ray.stages.joins.bucketed_prefix_sum` (a
  distributed scan — per-bucket totals, driver cumsum over bucket COUNT
  only, offset + in-bucket cumsum per task), so no global sort and no
  driver materialization of per-doc rows.
- ``weighted_sample`` — Efraimidis–Spirakis A-ES weighted sampling
  without replacement, derandomized: u comes from a Knuth multiplicative
  hash of doc_id (the hash_sample/source_mix convention) so the sample is
  reproducible across runs, resumes, and cluster sizes, and the oracle
  can mirror it exactly.  Per-batch partial top-k caps what the final
  sort sees.
- ``events_moving_win`` — SQL RANGE-frame moving aggregate (1 h
  preceding .. current row, peers included) per user: ONE user-hash-bucket
  shuffle, then one vectorized searchsorted/cumsum kernel per bucket task
  answers every user at once.
- ``lineitem_cube`` — GROUP BY CUBE via map-side emission of all four
  grouping sets; the shuffle only ever sees (#batches x #grouping-set
  keys) partial rows, never the fact table.

Float policy: aggregated float columns round(2) on both sides (the
queries.py convention).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Sum

from ..sources.io import read_table
from ..stages.groupagg import bucketed_group_agg, bucketed_map_groups

#: Fixed training-block capacity (tokens) for training_pack.
PACK_BLOCK = 512

#: Moving-window width for events_moving_win: 1 hour in microseconds.
WIN_US = 3_600_000_000


def _packed_counts(sf_dir: str):
    """Shared first half of the packing family: per-doc token counts plus
    the global stream offset of every doc (inclusive cumsum ``__cum`` of
    n_tokens+1 in doc_id order) via the distributed prefix-sum scan."""
    from ..stages.joins import bucketed_prefix_sum

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def count(batch: pa.Table) -> pa.Table:
        n = pc.cast(
            pc.list_value_length(pc.split_pattern(batch.column("text"), " ")),
            pa.int64(),
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": n,
                # +1: the per-doc separator token joins the stream too
                "__n_plus": pc.add(n, 1),
            }
        )

    counted = ds.map_batches(count, batch_format="pyarrow")
    return bucketed_prefix_sum(counted, key="doc_id", value="__n_plus", out_col="__cum")


def q_training_pack(sf_dir: str):
    """Concat-and-chunk sequence packing (GPT pretraining layout): all
    documents are concatenated in doc_id order into one token stream with
    a single separator token after each doc, and the stream is cut into
    fixed ``PACK_BLOCK``-token training blocks.  Output per doc: its token
    count, its global start offset, and the first/last block it lands in.

    Scale shape: token counts are map-side; the only wide ops are the two
    tiny shuffles inside bucketed_prefix_sum (per-bucket totals + one
    map_groups per bucket).  The driver holds one offset per BUCKET —
    at 10^12 docs the caller raises bucket_size so bucket count stays
    ~10^4, exactly the documented contract of the scan."""
    cum = _packed_counts(sf_dir)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        start = (df["__cum"] - df["__n_plus"]).to_numpy()
        n = df["n_tokens"].to_numpy()
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(),
                "n_tokens": n,
                "tok_start": start,
                "first_block": start // PACK_BLOCK,
                # last token of the doc itself (separator excluded)
                "last_block": (start + np.maximum(n, 1) - 1) // PACK_BLOCK,
            }
        )

    return cum.map_batches(finish, batch_format="pandas")


SQL_TRAINING_PACK = (
    "WITH t AS (SELECT doc_id, len(string_split(text, ' ')) AS n_tokens"
    " FROM documents), c AS (SELECT doc_id, n_tokens,"
    " CAST(COALESCE(SUM(n_tokens + 1) OVER (ORDER BY doc_id"
    " ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)"
    " AS tok_start FROM t)"
    " SELECT doc_id, n_tokens, tok_start,"
    " tok_start // 512 AS first_block,"
    " (tok_start + GREATEST(n_tokens, 1) - 1) // 512 AS last_block FROM c"
)


def q_training_blocks(sf_dir: str):
    """The packed layout itself: every (training block, document) overlap
    with the document's span inside that block — what a loader needs to
    materialize fixed-shape batches from the packed stream.  Map-side
    vectorized explode (np.repeat + arange over per-doc block counts) on
    top of the shared prefix-sum scan; output size ~ total_tokens /
    PACK_BLOCK + n_docs rows, never the token stream itself."""
    cum = _packed_counts(sf_dir)

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        start = (df["__cum"] - df["__n_plus"]).to_numpy()
        n = df["n_tokens"].to_numpy()
        did = df["doc_id"].to_numpy()
        first = start // PACK_BLOCK
        last = (start + np.maximum(n, 1) - 1) // PACK_BLOCK
        reps = (last - first + 1).astype(np.int64)
        total = int(reps.sum())
        # block_id per exploded row: first[i] + (0..reps[i]-1), all vectorized
        row_doc = np.repeat(np.arange(len(df)), reps)
        offs = np.concatenate([[0], np.cumsum(reps)[:-1]])
        block = first[row_doc] + (np.arange(total) - offs[row_doc])
        s = start[row_doc]
        e = s + n[row_doc] - 1
        span_start = np.maximum(s, block * PACK_BLOCK)
        span_end = np.minimum(e, block * PACK_BLOCK + PACK_BLOCK - 1)
        return pd.DataFrame(
            {
                "block_id": block,
                "doc_id": did[row_doc],
                "start_in_block": span_start - block * PACK_BLOCK,
                "n_in_block": span_end - span_start + 1,
            }
        )

    return cum.map_batches(explode, batch_format="pandas")


SQL_TRAINING_BLOCKS = (
    "WITH t AS (SELECT doc_id, len(string_split(text, ' ')) AS n_tokens"
    " FROM documents), c AS (SELECT doc_id, n_tokens,"
    " CAST(COALESCE(SUM(n_tokens + 1) OVER (ORDER BY doc_id"
    " ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)"
    " AS tok_start FROM t), e AS (SELECT doc_id, n_tokens, tok_start,"
    " unnest(generate_series(tok_start // 512,"
    " (tok_start + GREATEST(n_tokens, 1) - 1) // 512)) AS block_id FROM c)"
    " SELECT block_id, doc_id,"
    " GREATEST(tok_start, block_id * 512) - block_id * 512 AS start_in_block,"
    " LEAST(tok_start + n_tokens - 1, block_id * 512 + 511)"
    " - GREATEST(tok_start, block_id * 512) + 1 AS n_in_block FROM e"
)


#: Sample size for weighted_sample.
SAMPLE_K = 100


def q_weighted_sample(sf_dir: str):
    """Weighted sampling without replacement (Efraimidis–Spirakis A-ES):
    each doc draws u in (0,1) from the Knuth multiplicative hash of its
    doc_id and competes with key u^(1/w), w = n_chars — the top-k keys ARE
    a weight-proportional sample without replacement.  Derandomized hash
    u makes the draw reproducible and oracle-mirrorable.

    Scale shape: keys are map-side vectorized; each batch forwards only
    its local top-k (argpartition), so the final sort sees <= k x #batches
    rows — never the corpus."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy()
        w = batch.column("n_chars").to_numpy().astype(np.float64)
        # u in (0,1): Knuth hash folded into 2^32 buckets, +0.5 to avoid 0
        u = (((did * 2654435761) % (2**32)) + 0.5) / (2**32)
        key = u ** (1.0 / w)
        k = min(SAMPLE_K, len(did))
        idx = np.argpartition(-key, k - 1)[:k]
        return pa.table(
            {
                "doc_id": pa.array(did[idx]),
                "n_chars": pa.array(w[idx].astype(np.int64)),
                "skey": pa.array(key[idx]),
            }
        )

    top = (
        ds.map_batches(partial, batch_format="pyarrow")
        .sort("skey", descending=True)
        .limit(SAMPLE_K)
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": batch.column("n_chars"),
                "skey": pc.round(batch.column("skey"), 6),
            }
        )

    return top.map_batches(finish, batch_format="pyarrow")


SQL_WEIGHTED_SAMPLE = (
    "SELECT doc_id, n_chars, round(pow("
    " (((doc_id * 2654435761) % 4294967296) + 0.5) / 4294967296.0,"
    " 1.0 / n_chars), 6) AS skey"
    " FROM documents ORDER BY pow("
    " (((doc_id * 2654435761) % 4294967296) + 0.5) / 4294967296.0,"
    " 1.0 / n_chars) DESC, doc_id LIMIT 100"
)


def moving_win_frame(
    base: np.ndarray,
    new_seg: np.ndarray,
    win: int,
    *,
    force_fallback: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """RANGE-frame bounds [lo, hi) per row over segment-sorted data:
    ``base`` is the (non-negative int64) order key sorted within each
    segment, ``new_seg`` marks segment starts.  Returns searchsorted
    bounds such that rows lo[i]:hi[i] are exactly the SQL RANGE BETWEEN
    win PRECEDING AND CURRENT ROW frame of row i (peers included).

    Vectorized path offsets each segment by a span multiple; when
    n_segments x span could overflow int64 (the ADVICE-r3 range-join
    lesson) it falls back to per-segment searchsorted with identical
    semantics."""
    n = len(base)
    seg = np.cumsum(new_seg) - 1
    n_seg = int(seg[-1]) + 1 if n else 0
    span = (np.int64(base.max()) if n else np.int64(0)) + win + 1
    if not force_fallback and n_seg * int(span) < np.iinfo(np.int64).max // 2:
        adj = base + seg * span
        hi = np.searchsorted(adj, adj, side="right")
        lo = np.searchsorted(adj, adj - win, side="left")
    else:  # per-segment windows, identical semantics, no overflow
        starts = np.flatnonzero(new_seg)
        ends = np.append(starts[1:], n)
        lo = np.empty(n, dtype=np.int64)
        hi = np.empty(n, dtype=np.int64)
        for s, e in zip(starts, ends):
            hi[s:e] = s + np.searchsorted(base[s:e], base[s:e], side="right")
            lo[s:e] = s + np.searchsorted(base[s:e], base[s:e] - win, side="left")
    return lo, hi


def q_events_moving_win(sf_dir: str):
    """Per-user moving-window aggregate with SQL RANGE semantics: for
    every event, the count and sum of ``value`` over that user's events in
    the closed window [ts - 1 h, ts] — peers (equal ts) included, exactly
    the RANGE BETWEEN frame.  ONE user-hash-bucket shuffle; inside each
    bucket task a single vectorized kernel (per-user segment offsets +
    searchsorted over the offset-adjusted timeline + cumsum differences)
    answers every user at once — no per-key Python call.

    Overflow guard (the range-join lesson, ADVICE r3): the offset trick
    multiplies segment index by the bucket's ts span; if that product
    could exceed int64 the kernel falls back to per-segment searchsorted —
    same output, no silent wraparound."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        uid = g["user_id"].to_numpy()
        val = g["value"].to_numpy().astype(np.float64)
        n = len(g)
        new_seg = np.empty(n, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = uid[1:] != uid[:-1]
        base = ts - ts.min()
        cs = np.concatenate([[0.0], np.cumsum(val)])
        lo, hi = moving_win_frame(base, new_seg, WIN_US)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "n_win": (hi - lo).astype(np.int64),
                "sum_win": np.round(cs[hi] - cs[lo], 2),
            }
        )

    return bucketed_map_groups(ds, ["user_id"], per_bucket, batch_format="pandas")


SQL_EVENTS_MOVING_WIN = (
    "SELECT event_id, CAST(count(*) OVER w AS BIGINT) AS n_win,"
    " round(sum(value) OVER w, 2) AS sum_win FROM events"
    " WINDOW w AS (PARTITION BY user_id ORDER BY ts"
    " RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)"
)


def q_lineitem_cube(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus): all four grouping sets
    (detail, each single-column rollup, grand total) in ONE pass — each
    batch pre-aggregates locally and emits its partials for every grouping
    set with 'ALL' markers, so the shuffle moves (#batches x #set-keys)
    rows regardless of fact-table size.  The reference has no OLAP layer;
    this extends the rollup/pivot family (queries_rel) to full CUBE."""
    ds = read_table(
        sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_quantity"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for cols in (
            ["l_returnflag", "l_linestatus"],
            ["l_returnflag"],
            ["l_linestatus"],
            [],
        ):
            if cols:
                g = (
                    df.groupby(cols, sort=False)
                    .agg(n=("l_quantity", "size"), sum_qty=("l_quantity", "sum"))
                    .reset_index()
                )
            else:
                g = pd.DataFrame(
                    {"n": [len(df)], "sum_qty": [df["l_quantity"].sum()]}
                )
            for c in ("l_returnflag", "l_linestatus"):
                if c not in g:
                    g[c] = "ALL"
            outs.append(g[["l_returnflag", "l_linestatus", "n", "sum_qty"]])
        out = pd.concat(outs, ignore_index=True)
        out["n"] = out["n"].astype(np.int64)
        return out

    agg = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("n", alias_name="n"), Sum("sum_qty", alias_name="sum_qty"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "n": batch.column("n"),
                "sum_qty": pc.round(batch.column("sum_qty"), 2),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_LINEITEM_CUBE = (
    "SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,"
    " COALESCE(l_linestatus, 'ALL') AS l_linestatus,"
    " count(*) AS n, round(sum(l_quantity), 2) AS sum_qty"
    " FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)"
)


def q_lm_score(sf_dir: str):
    """Unigram-LM negative log-likelihood per document — the CCNet-style
    perplexity quality filter, derandomized to the corpus's own unigram
    model so the oracle is closed-form SQL.  Two stages: (1) corpus token
    counts via per-batch ``value_counts`` partials + one vocab-bounded
    groupby (Heaps' law keeps the vocabulary driver-small even at 100 TB —
    the top_tokens shape); (2) a map-side scoring pass: the -ln(c/N) table
    broadcasts once (``ray.put``, fetched per task from the object store),
    each batch dictionary-encodes its flattened tokens and looks up only
    UNIQUE tokens in Python, then one ``np.add.reduceat`` over the list
    offsets yields every doc's mean NLL — no shuffle touches the corpus
    after the count pass."""
    import ray

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def tok_partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        vc = pc.value_counts(flat)
        return pa.table(
            {"t": vc.field("values"), "c": pc.cast(vc.field("counts"), pa.int64())}
        )

    cnt = (
        docs.map_batches(tok_partial, batch_format="pyarrow")
        .groupby("t")
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()  # vocab-bounded, not corpus-bounded
    )
    total = float(cnt["c"].sum())
    nll = dict(zip(cnt["t"], -np.log(cnt["c"].to_numpy() / total)))
    nll_ref = ray.put(nll)

    def score(batch: pa.Table) -> pa.Table:
        table = ray.get(nll_ref)
        toks = pc.split_pattern(batch.column("text"), " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        lengths = pc.list_value_length(toks).to_numpy().astype(np.int64)
        dct = pc.dictionary_encode(flat)
        if isinstance(dct, pa.ChunkedArray):
            dct = dct.combine_chunks()
        uvals = dct.dictionary.to_pylist()  # unique tokens only
        unll = np.array([table[t] for t in uvals], dtype=np.float64)
        per_tok = unll[dct.indices.to_numpy()]
        offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        means = np.add.reduceat(per_tok, offsets) / lengths
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lm_nll": pa.array(np.round(means, 4)),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


SQL_LM_SCORE = (
    "WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t"
    " FROM documents),"
    " cnt AS (SELECT t, count(*) AS c FROM tok GROUP BY t),"
    " tot AS (SELECT CAST(sum(c) AS DOUBLE) AS n FROM cnt)"
    " SELECT tok.doc_id, round(avg(-ln(cnt.c / tot.n)), 4) AS lm_nll"
    " FROM tok, cnt, tot WHERE tok.t = cnt.t GROUP BY tok.doc_id"
)


def _classifier_weights() -> np.ndarray:
    """The ONE definition of the hash-derived classifier weights — the
    numpy and SQL sides (quality_classifier AND corpus_to_blocks) must
    stay bit-identical for their oracles, so all four use sites derive
    from here."""
    from .queries_cc import _EMBED_DIM

    return ((np.arange(_EMBED_DIM, dtype=np.int64) * 2654435761) % 19 - 9) / 9.0


def _classifier_terms_sql() -> str:
    """The matching SQL sum-of-weighted-dims expression."""
    return " + ".join(
        "({w}) * sum(CASE WHEN dim = {d} THEN 1 ELSE 0 END)".format(
            w=repr(float(wj)), d=d
        )
        for d, wj in enumerate(_classifier_weights())
    )


def q_quality_classifier(sf_dir: str):
    """fastText-shape quality classifier inference: a linear model over
    the 16-dim hashed-token-count features (queries_cc._embed_hash_batch),
    map-side batched matmul + sigmoid — the real inference pattern for a
    learned quality filter at 100 TB (weights broadcast once per actor,
    each batch is ONE matrix multiply; here the weight vector is a
    16-float closure constant).  Weights are hash-derived so the oracle is
    closed-form arithmetic over the same feature CTE the doc_embed_hash
    oracle uses."""
    from .queries_cc import _EMBED_DIM, _embed_hash_batch

    w = _classifier_weights()

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def infer(batch: pa.Table) -> pa.Table:
        feats = _embed_hash_batch(batch)
        x = np.column_stack(
            [feats.column(f"d{d}").to_numpy() for d in range(_EMBED_DIM)]
        ).astype(np.float64)
        # featureless docs (no non-empty word) are absent from the
        # oracle's feature CTE (inner unnest) — no score row for them
        has_feat = x.sum(axis=1) > 0
        z = (x @ w) / 100.0
        score = np.round(1.0 / (1.0 + np.exp(-z)), 4)
        # keep derives from the ROUNDED score: the raw z>0 boundary is
        # fp-summation-order fragile (one sf0.01 doc lands exactly on it)
        return pa.table(
            {
                "doc_id": feats.column("doc_id"),
                "quality": pa.array(score),
                "keep": pa.array(score > 0.5),
            }
        ).filter(pa.array(has_feat))

    return ds.map_batches(infer, batch_format="pyarrow")


def _sql_quality_classifier() -> str:
    from .queries_cc import _EMBED_DIM

    terms = _classifier_terms_sql()
    return (
        "WITH words AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w"
        " FROM documents),"
        " h AS (SELECT doc_id,"
        " list_reduce(list_transform(string_split(w, ''), c -> ascii(c)),"
        " (a, b) -> (a * 31 + b) % 1024) % 16 AS dim"
        " FROM words WHERE w <> ''),"
        " z AS (SELECT doc_id, (" + terms + ") / 100.0 AS z FROM h"
        " GROUP BY doc_id)"
        " SELECT doc_id, round(1.0 / (1.0 + exp(-z)), 4) AS quality,"
        " round(1.0 / (1.0 + exp(-z)), 4) > 0.5 AS keep FROM z"
    )


#: Selective order filter for bloom_semi_join.
BLOOM_PRICE = 450_000.0


def q_bloom_semi_join(sf_dir: str):
    """Bloom-prefiltered exact semi join — THE shuffle-reduction pattern
    for a selective join at 100 TB: lineitems of orders with
    o_totalprice > 450k.  Stage 1 folds the qualifying order keys into a
    128 KiB mergeable bitset (one partial per batch, OR-merge of the tiny
    partials); stage 2 drops ~{1-sel} of the fact table MAP-SIDE with a
    fully vectorized int64 membership test (splitmix64 double hashing, no
    Python per row); stage 3 removes the Bloom's false positives with the
    size-planned exact ``semi_anti_join`` — which now only sees the
    survivors, so its shuffle (or broadcast) is proportional to the
    MATCHING rows, not the fact table.  The result is exact; the Bloom
    only changes how many bytes cross the wire."""
    import ray

    from ..functions import sketches
    from ..stages.joins import semi_anti_join

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def hot_keys(batch: pa.Table) -> pa.Table:
        m = pc.greater(batch.column("o_totalprice"), BLOOM_PRICE)
        return pa.table({"o_orderkey": pc.filter(batch.column("o_orderkey"), m)})

    hot = orders.map_batches(hot_keys, batch_format="pyarrow")

    def bloom_partial(batch: pa.Table) -> pa.Table:
        bits = sketches.bloom_empty()
        sketches.bloom_add_ints(bits, batch.column("o_orderkey").to_numpy())
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    def merge_bits(tbl: pa.Table) -> pa.Table:
        bufs = tbl.column("bits").to_pylist()
        if not bufs:
            return tbl  # empty block: nothing to fold
        acc = np.bitwise_or.reduce(
            np.stack([np.frombuffer(b, dtype=np.uint8) for b in bufs])
        )
        return pa.table({"bits": pa.array([acc.tobytes()], pa.binary())})

    # in-cluster tree merge (VERDICT r4 #4): the driver folds <= n_buckets
    # pre-merged bitsets, never one per input batch
    from ..stages.groupagg import tree_merge_partials

    bits = sketches.bloom_empty()
    for row in tree_merge_partials(
        hot.map_batches(bloom_partial, batch_format="pyarrow"), merge_bits
    ):
        bits = sketches.bloom_merge(bits, np.frombuffer(row["bits"], dtype=np.uint8))
    bits_ref = ray.put(bits)

    def prefilter(batch: pa.Table) -> pa.Table:
        b = ray.get(bits_ref)
        keys = batch.column("l_orderkey").to_numpy()
        return batch.filter(pa.array(sketches.bloom_contains_ints(b, keys)))

    survivors = li.map_batches(prefilter, batch_format="pyarrow")
    exact = semi_anti_join(survivors, hot, on="l_orderkey", right_on="o_orderkey")
    from ray.data.aggregate import Count

    out_schema = pa.schema([("l_orderkey", pa.int64()), ("n_items", pa.int64())])

    def norm(batch: pa.Table) -> pa.Table:
        # an all-empty semi join leaves the aggregate schema-less; pin it
        return out_schema.empty_table() if batch.num_columns == 0 else batch

    # norm pins any schema-less empty blocks; note Ray's to_pandas() on a
    # fully-empty Dataset still drops the schema (upstream quirk — an
    # empty result is 0 rows with no recoverable column set)

    # l_orderkey is ORDER-cardinality: bucketed fold (r5)
    return bucketed_group_agg(
        exact, ["l_orderkey"], {"n_items": ("count", None)}
    ).map_batches(norm, batch_format="pyarrow")


SQL_BLOOM_SEMI_JOIN = (
    "SELECT l_orderkey, count(*) AS n_items FROM lineitem l"
    " WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_orderkey = l.l_orderkey"
    " AND o.o_totalprice > 450000) GROUP BY l_orderkey"
)


def _quantized_seed_centroids(sf_dir: str, k: int, scale: float) -> np.ndarray:
    """The ONE quantization rule (floor(v*scale+0.5) int grid) and centroid
    seeding (the embeddings of vec_id 0..k-1, pushdown-filtered read)
    shared by kmeans_assign, kmeans_train, pq_encode (scale 1000) and
    semantic_dedup (scale 100) — this rule is the exactness contract with
    their SQL oracles (``WHERE vec_id < k``), so it must not fork.

    Raises ValueError unless every vec_id in 0..k-1 exists exactly once:
    with a gap the oracle seeds fewer centroids and the cluster ids no
    longer line up."""
    import pyarrow.parquet as pq

    from ..schema import list_column_matrix

    seed = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", k)],
    ).sort_by("vec_id")
    ids = seed.column("vec_id").to_pylist()
    if ids != list(range(k)):
        raise ValueError(
            f"centroid seeding needs vec_id 0..{k - 1} exactly once each; "
            f"read {ids[:12]}{' ...' if len(ids) > 12 else ''}"
        )
    return np.floor(
        list_column_matrix(seed.column("embedding"), dtype="float64") * scale + 0.5
    ).astype(np.int64)


def _mean_floor(s: int, n: int) -> int:
    """Centroid update ``floor(1.0 * sum(val) / count(*))`` exactly as the
    DuckDB oracle evaluates it: ``1.0 * sum`` is DECIMAL(38,1), i.e. the
    int128 ``10 * s``; DuckDB casts that to double as ``lower + upper *
    (2^64 - 1)`` over its two 64-bit halves (``-(2^64 - 1 - lower) - 1``
    when ``upper == -1``), then divides by 10.0 and by the count.  Every
    step is exact while ``|10 * s| < 2^53``; past that each one rounds,
    and neither Python's exact ``s / n`` nor ``float(s) / n`` agrees."""
    x, m = 10 * s, (1 << 64) - 1
    upper, lower = x >> 64, x & m
    if upper == -1:
        d = -float(m - lower) - 1.0
    else:
        d = float(lower) + float(upper) * float(m)
    return int(np.floor(d / 10.0 / n))


#: kmeans_assign: number of clusters (centroids = embeddings of vec_id 0..K-1).
KMEANS_K = 8


def q_kmeans_assign(sf_dir: str):
    """Integer-exact k-means cluster assignment over the embedding table —
    the assignment step every IVF/clustering pipeline runs at scale, made
    oracle-checkable by quantizing to a fixed int grid (floor(v*1000+0.5),
    identical arithmetic in numpy and DuckDB) and seeding centroids from
    the table itself (vec_ids 0..K-1).  Map-side batched int64
    distance expansion (||x||^2 - 2 x.c + ||c||^2, one matmul per batch)
    against the broadcast centroid matrix; argmin ties break to the lowest
    cluster id on both sides.  Complements stages/similarity.kmeans_fit
    (float training loop) with an exactness-gated inference pass."""
    import ray

    from ..schema import list_column_matrix

    c_ref = ray.put(_quantized_seed_centroids(sf_dir, KMEANS_K, 1000.0))

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        x = np.floor(
            list_column_matrix(batch.column("embedding"), dtype="float64") * 1000.0
            + 0.5
        ).astype(np.int64)
        d = (
            (x * x).sum(axis=1, keepdims=True)
            - 2 * (x @ c.T)
            + (c * c).sum(axis=1)[None, :]
        )
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "cluster": pa.array(np.argmin(d, axis=1).astype(np.int64)),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


SQL_KMEANS_ASSIGN = (
    "WITH q AS (SELECT vec_id, list_transform(embedding,"
    " v -> CAST(floor(v * 1000 + 0.5) AS BIGINT)) AS e FROM embeddings),"
    " c AS (SELECT vec_id AS cid, e AS ce FROM q"
    " WHERE vec_id < {k}),"
    " d AS (SELECT q.vec_id, c.cid, list_sum(list_transform(list_zip(q.e, c.ce),"
    " s -> (s[1] - s[2]) * (s[1] - s[2]))) AS dist FROM q, c)"
    " SELECT vec_id, CAST(cid AS BIGINT) AS cluster FROM"
    " (SELECT vec_id, cid, row_number() OVER (PARTITION BY vec_id"
    " ORDER BY dist, cid) AS rn FROM d) WHERE rn = 1"
).format(k=KMEANS_K)


#: kmeans_train: Lloyd iterations (each = assign + centroid update).
KMEANS_TRAIN_ITERS = 3

#: kmeans_train: embedding dimensionality (the embeddings-table contract).
KMEANS_DIM = 64


def q_kmeans_train(sf_dir: str):
    """Distributed k-means TRAINING (Lloyd's algorithm) over the embedding
    table — the clustering loop behind IVF index builds and corpus
    bucketing, complementing q_kmeans_assign (one assignment pass) with
    the full iterative fit.  Integer-exact contract: points quantize to
    the shared int grid (floor(v*1000+0.5), `_quantized_seed_centroids`
    rule), centroid updates are floor(1.0*sum/count) computed the way
    DuckDB rounds it (`_mean_floor`; exact big-int division differs once
    the sum passes 2^53) — and assignment ties break
    to the lowest cluster id on both sides, so KMEANS_TRAIN_ITERS unrolled
    CTE iterations reproduce the engine bit-for-bit.  Empty clusters carry
    their previous centroid (coalesce in SQL, copy-on-write here).

    Scale shape (the reference's training loop is a Keras fit; this is the
    data-parallel analog): the quantized points materialize ONCE as a slim
    int64 fixed-size-list Dataset (8*D bytes/row, object-store resident,
    spillable — Lloyd's is multi-pass by definition, so one materialize
    replaces ITERS re-reads of the raw table); each round broadcasts the
    K×D centroid matrix via ray.put, computes per-batch partial (sums,
    counts) with ONE matmul + a K-loop scatter (loop over 8 clusters,
    never over rows), and reduces through a native groupby on the BOUNDED
    (cluster, dim) key (K*D = 512 groups — the audited bounded-key rule);
    the driver only ever holds the K×D centroid matrix.  Output: final
    centroids exploded to (cluster, dim, centroid_q, n_members) rows."""
    import ray
    import ray.data as _rd

    from ..schema import list_column_matrix

    k, d = KMEANS_K, KMEANS_DIM
    c = _quantized_seed_centroids(sf_dir, k, 1000.0)

    ds = read_table(sf_dir, "embeddings", columns=["embedding"])

    def quantize(batch: pa.Table) -> pa.Table:
        x = np.floor(
            list_column_matrix(batch.column("embedding"), dtype="float64") * 1000.0
            + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "e": pa.FixedSizeListArray.from_arrays(
                    pa.array(x.ravel(), pa.int64()), d
                )
            }
        )

    pts = ds.map_batches(quantize, batch_format="pyarrow").materialize()

    n_members = np.zeros(k, dtype=np.int64)
    for _ in range(KMEANS_TRAIN_ITERS):
        c_ref = ray.put(c)

        def partial(batch: pa.Table, _cref=c_ref) -> pa.Table:
            cc = ray.get(_cref)
            kk, dd = cc.shape
            col = batch.column("e").combine_chunks()
            x = np.asarray(col.flatten(), dtype=np.int64).reshape(-1, dd)
            dist = (
                (x * x).sum(axis=1, keepdims=True)
                - 2 * (x @ cc.T)
                + (cc * cc).sum(axis=1)[None, :]
            )
            a = np.argmin(dist, axis=1)
            sums = np.zeros((kk, dd), dtype=np.int64)
            for j in range(kk):  # loop over K clusters, never over rows
                m = a == j
                if m.any():
                    sums[j] = x[m].sum(axis=0)
            counts = np.bincount(a, minlength=kk).astype(np.int64)
            return pa.table(
                {
                    "cluster": pa.array(np.repeat(np.arange(kk, dtype=np.int64), dd)),
                    "dim": pa.array(np.tile(np.arange(dd, dtype=np.int64), kk)),
                    "psum": pa.array(sums.ravel(), pa.int64()),
                    "pcnt": pa.array(np.repeat(counts, dd), pa.int64()),
                }
            )

        rows = (
            pts.map_batches(partial, batch_format="pyarrow")
            .groupby(["cluster", "dim"])
            .aggregate(Sum("psum", alias_name="s"), Sum("pcnt", alias_name="n"))
            .take_all()
        )  # bounded: exactly K*D rows reach the driver
        new_c = c.copy()
        n_members = np.zeros(k, dtype=np.int64)
        for r in rows:
            j, dd_, n = int(r["cluster"]), int(r["dim"]), int(r["n"])
            if n > 0:
                new_c[j, dd_] = _mean_floor(r["s"], n)
                n_members[j] = n
        c = new_c

    out = pa.table(
        {
            "cluster": pa.array(np.repeat(np.arange(k, dtype=np.int64), d)),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), k)),
            "centroid_q": pa.array(c.ravel(), pa.int64()),
            "n_members": pa.array(np.repeat(n_members, d), pa.int64()),
        }
    )
    return _rd.from_arrow(out)


def _sql_kmeans_train() -> str:
    """Unrolled-CTE Lloyd's oracle: per iteration, assignment (cross join
    + row_number tie-break on (dist, cid)), per-dim zipped-unnest update
    with floor(1.0*sum/count), and coalesce carry for empty clusters."""
    k, d, iters = KMEANS_K, KMEANS_DIM, KMEANS_TRAIN_ITERS
    parts = [
        "WITH q AS (SELECT vec_id, list_transform(embedding,"
        " v -> CAST(floor(v * 1000 + 0.5) AS BIGINT)) AS e FROM embeddings),"
        " c0 AS (SELECT vec_id AS cid, e AS ce FROM q WHERE vec_id < {k})".format(k=k)
    ]
    for i in range(iters):
        parts.append(
            (
                ", a{i} AS (SELECT vec_id, e, cid FROM ("
                "SELECT q.vec_id, q.e, c.cid, row_number() OVER ("
                "PARTITION BY q.vec_id ORDER BY"
                " list_sum(list_transform(list_zip(q.e, c.ce),"
                " s -> (s[1] - s[2]) * (s[1] - s[2]))), c.cid) AS rn"
                " FROM q, c{i} c) WHERE rn = 1)"
                ", u{i} AS (SELECT cid, unnest(range({d})) AS dim,"
                " unnest(e) AS val FROM a{i})"
                ", m{i} AS (SELECT cid, dim,"
                " CAST(floor(1.0 * sum(val) / count(*)) AS BIGINT) AS cv"
                " FROM u{i} GROUP BY cid, dim)"
                ", l{i} AS (SELECT cid, list(cv ORDER BY dim) AS ce"
                " FROM m{i} GROUP BY cid)"
                ", c{j} AS (SELECT p.cid, coalesce(l.ce, p.ce) AS ce FROM c{i} p"
                " LEFT JOIN l{i} l ON p.cid = l.cid)"
            ).format(i=i, j=i + 1, d=d)
        )
    parts.append(
        (
            " SELECT f.cid AS cluster, unnest(range({d})) AS dim,"
            " unnest(f.ce) AS centroid_q,"
            " coalesce(n.n_members, CAST(0 AS BIGINT)) AS n_members"
            " FROM c{it} f LEFT JOIN (SELECT cid, count(*) AS n_members"
            " FROM a{last} GROUP BY cid) n ON f.cid = n.cid"
        ).format(d=d, it=iters, last=iters - 1)
    )
    return "".join(parts)


#: linear_probe_train: batch-perceptron iterations (each = margin pass + update).
PROBE_ITERS = 3


def q_linear_probe_train(sf_dir: str):
    """Distributed linear-probe TRAINING (batch perceptron) over the
    labeled embedding table — the data-parallel analog of the reference's
    model-fit engine (reference models/interfaces/base_model.py:533-646
    drives a tf.data train loop; here the same full-batch scan is a Ray
    Dataset pass per epoch).  Together with q_kmeans_train this covers the
    iterative-training shape the registry lacked: broadcast parameters,
    map-side gradient partials, bounded reduce, driver update.

    Contract (bitwise-exact, no floats anywhere): points quantize to the
    shared int grid with a constant bias feature 1 appended; y = +1 when
    label < 5 else -1; epoch t computes margins y*(w.x) against the
    broadcast int64 weight vector, and w += sum(y*x) over misclassified
    (margin <= 0) rows — classic batch perceptron with lr=1, pure integer
    adds/multiplies, so PROBE_ITERS unrolled CTEs reproduce it exactly.

    Scale shape: quantized points materialize once (slim int64
    fixed-size-list, spillable — multi-epoch by definition); each epoch is
    one map_batches (a single matvec + masked matvec per batch) emitting
    D+1 (dim, grad, n_mis) partial rows, reduced by a native groupby on
    the BOUNDED dim key; the driver holds only the (D+1)-vector.  Output:
    (dim, weight, n_mis) — final weights plus the last epoch's
    misclassified count."""
    import ray
    import ray.data as _rd

    from ..schema import list_column_matrix

    d = KMEANS_DIM + 1  # bias feature appended

    ds = read_table(sf_dir, "embeddings", columns=["embedding", "label"])

    def quantize(batch: pa.Table) -> pa.Table:
        x = np.floor(
            list_column_matrix(batch.column("embedding"), dtype="float64") * 1000.0
            + 0.5
        ).astype(np.int64)
        x = np.hstack([x, np.ones((x.shape[0], 1), dtype=np.int64)])
        lab = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.where(lab < 5, 1, -1).astype(np.int64)
        return pa.table(
            {
                "e": pa.FixedSizeListArray.from_arrays(
                    pa.array(x.ravel(), pa.int64()), d
                ),
                "y": pa.array(y, pa.int64()),
            }
        )

    pts = ds.map_batches(quantize, batch_format="pyarrow").materialize()

    w = np.zeros(d, dtype=np.int64)
    n_mis = 0
    for _ in range(PROBE_ITERS):
        w_ref = ray.put(w)

        def partial(batch: pa.Table, _wref=w_ref) -> pa.Table:
            wv = ray.get(_wref)
            dd = wv.shape[0]
            x = np.asarray(
                batch.column("e").combine_chunks().flatten(), dtype=np.int64
            ).reshape(-1, dd)
            y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.int64)
            mis = y * (x @ wv) <= 0
            g = (y[mis, None] * x[mis]).sum(axis=0, dtype=np.int64)
            return pa.table(
                {
                    "dim": pa.array(np.arange(dd, dtype=np.int64)),
                    "g": pa.array(g, pa.int64()),
                    "nm": pa.array(
                        np.full(dd, int(mis.sum()), dtype=np.int64), pa.int64()
                    ),
                }
            )

        rows = (
            pts.map_batches(partial, batch_format="pyarrow")
            .groupby("dim")
            .aggregate(Sum("g", alias_name="gs"), Sum("nm", alias_name="nms"))
            .take_all()
        )  # bounded: exactly D+1 rows reach the driver
        new_w = w.copy()
        for r in rows:
            new_w[int(r["dim"])] += int(r["gs"])
            n_mis = int(r["nms"])
        w = new_w

    out = pa.table(
        {
            "dim": pa.array(np.arange(d, dtype=np.int64)),
            "weight": pa.array(w, pa.int64()),
            "n_mis": pa.array(np.full(d, n_mis, dtype=np.int64), pa.int64()),
        }
    )
    return _rd.from_arrow(out)


def _sql_linear_probe_train() -> str:
    """Unrolled-CTE batch-perceptron oracle: per epoch, per-vector margin
    (exploded join on dim), misclassified set (margin <= 0), per-dim
    integer gradient sum, LEFT-JOIN weight update with coalesce 0."""
    d, iters = KMEANS_DIM + 1, PROBE_ITERS
    parts = [
        (
            "WITH q AS (SELECT vec_id,"
            " list_concat(list_transform(embedding,"
            " v -> CAST(floor(v * 1000 + 0.5) AS BIGINT)),"
            " [CAST(1 AS BIGINT)]) AS e,"
            " CASE WHEN label < 5 THEN 1 ELSE -1 END AS y FROM embeddings),"
            " ue AS (SELECT vec_id, y, unnest(range({d})) AS dim,"
            " unnest(e) AS val FROM q),"
            " w0 AS (SELECT unnest(range({d})) AS dim, CAST(0 AS BIGINT) AS wv)"
        ).format(d=d)
    ]
    for i in range(iters):
        parts.append(
            (
                ", mis{i} AS (SELECT vec_id, y FROM ("
                "SELECT u.vec_id, any_value(u.y) AS y,"
                " CAST(sum(u.val * w.wv) AS BIGINT) AS s"
                " FROM ue u JOIN w{i} w ON u.dim = w.dim GROUP BY u.vec_id)"
                " WHERE y * s <= 0)"
                ", g{i} AS (SELECT u.dim, CAST(sum(u.y * u.val) AS BIGINT) AS g"
                " FROM ue u JOIN mis{i} m ON u.vec_id = m.vec_id GROUP BY u.dim)"
                ", w{j} AS (SELECT w.dim, w.wv + coalesce(g.g, 0) AS wv"
                " FROM w{i} w LEFT JOIN g{i} g ON w.dim = g.dim)"
            ).format(i=i, j=i + 1)
        )
    parts.append(
        (
            " SELECT dim, wv AS weight,"
            " (SELECT count(*) FROM mis{last}) AS n_mis FROM w{it}"
        ).format(last=iters - 1, it=iters)
    )
    return "".join(parts)


#: span_corruption: mask rate (percent) and the two Knuth-style multipliers
#: of the deterministic position hash (mod 2^31 BEFORE the second multiply
#: keeps every intermediate inside int64 on both numpy and DuckDB BIGINT).
SPANCORR_RATE = 15
_SPANCORR_M1, _SPANCORR_M2, _SPANCORR_MOD = 1315423911, 2654435761, 1 << 31


def q_span_corruption(sf_dir: str):
    """T5-style span-corruption EXAMPLE SYNTHESIS (Raffel et al. 2020,
    arXiv:1910.10683 §3.1.4) — the masked-pretraining-example generator a
    training-data pipeline runs after packing: each token position is
    masked by a deterministic integer hash at ~15%, and consecutive masked
    positions merge into spans (the sentinel-token unit).  Emits the
    per-document example descriptor (n_tokens, n_masked, n_spans,
    mask_pos_sum — the checksum pins WHICH positions masked, not just how
    many), all integer-exact with a splitmix-style position hash:
    x = ((d % 2^31)*M1 + i) % 2^31; x ^= x >> 15; x = x*M2 % 2^31;
    x ^= x >> 13;
    mask iff x % 100 < rate — the xorshift rounds matter: a plain affine
    multiplicative hash steps by a CONSTANT mod 100 between consecutive
    positions, making adjacent masks (and therefore multi-token spans)
    structurally impossible.  Identical arithmetic in numpy int64 and
    DuckDB BIGINT (every intermediate < 2^63).  Tokens are split(' ')
    positions, 1-based.

    Scale shape: embarrassingly parallel — one vectorized pass per batch
    (split + flat position arithmetic + three bincount folds), zero
    shuffles, nothing leaves the map task but 5 ints per document."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    M1 = np.int64(_SPANCORR_M1)
    M2 = np.int64(_SPANCORR_M2)
    MOD = np.int64(_SPANCORR_MOD)

    def synth_masks(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        arr = batch.column("text")
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        split = pc.split_pattern(pc.fill_null(arr, ""), " ")
        if isinstance(split, pa.ChunkedArray):
            split = split.combine_chunks()
        n = np.asarray(split.value_lengths(), dtype=np.int64)
        ndocs = n.size
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        row_of = np.repeat(np.arange(ndocs, dtype=np.int64), n)
        starts = np.concatenate([np.zeros(1, np.int64), np.cumsum(n)])[:-1]
        pos = np.arange(row_of.size, dtype=np.int64) - starts[row_of] + 1
        # doc_id reduced mod 2^31 BEFORE the multiply: at 10^12-doc scale
        # raw doc_id * M1 would exceed int64 (numpy wraps, DuckDB errors)
        x = ((ids[row_of] % MOD) * M1 + pos) % MOD
        x = x ^ (x >> np.int64(15))
        x = (x * M2) % MOD
        x = x ^ (x >> np.int64(13))
        mk = (x % np.int64(100)) < SPANCORR_RATE
        prev = np.zeros(mk.size, dtype=bool)
        if mk.size > 1:
            prev[1:] = mk[:-1] & (row_of[1:] == row_of[:-1])
        st = mk & ~prev
        n_masked = np.bincount(row_of[mk], minlength=ndocs).astype(np.int64)
        n_spans = np.bincount(row_of[st], minlength=ndocs).astype(np.int64)
        pos_sum = np.bincount(
            row_of, weights=np.where(mk, pos, 0), minlength=ndocs
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
                "n_masked": pa.array(n_masked, pa.int64()),
                "n_spans": pa.array(n_spans, pa.int64()),
                "mask_pos_sum": pa.array(pos_sum, pa.int64()),
            }
        )

    return ds.map_batches(synth_masks, batch_format="pyarrow")


SQL_SPAN_CORRUPTION = (
    "WITH w AS (SELECT doc_id, len(string_split(text, ' ')) AS n"
    " FROM documents),"
    " t AS (SELECT doc_id, n, unnest(range(1, n + 1)) AS i FROM w),"
    " x0 AS (SELECT doc_id, n, i,"
    " xor(((doc_id % {md}) * {m1} + i) % {md},"
    " (((doc_id % {md}) * {m1} + i) % {md}) >> 15) AS x1 FROM t),"
    " x2 AS (SELECT doc_id, n, i,"
    " xor((x1 * {m2}) % {md}, ((x1 * {m2}) % {md}) >> 13) AS x3 FROM x0),"
    " m AS (SELECT doc_id, n, i, CASE WHEN x3 % 100 < {rate}"
    " THEN 1 ELSE 0 END AS mk FROM x2),"
    " s AS (SELECT doc_id, n, i, mk, CASE WHEN mk = 1 AND"
    " coalesce(lag(mk) OVER (PARTITION BY doc_id ORDER BY i), 0) = 0"
    " THEN 1 ELSE 0 END AS st FROM m)"
    " SELECT doc_id, any_value(n) AS n_tokens,"
    " CAST(sum(mk) AS BIGINT) AS n_masked,"
    " CAST(sum(st) AS BIGINT) AS n_spans,"
    " CAST(coalesce(sum(CASE WHEN mk = 1 THEN i END), 0) AS BIGINT)"
    " AS mask_pos_sum FROM s GROUP BY doc_id"
).format(
    m1=_SPANCORR_M1, m2=_SPANCORR_M2, md=_SPANCORR_MOD, rate=SPANCORR_RATE
)


#: adaboost_stumps: boosting rounds (integer weight-doubling variant).
ADABOOST_ROUNDS = 2


def q_adaboost_stumps(sf_dir: str):
    """Distributed BOOSTED decision-stump training (discrete AdaBoost with
    integer weight doubling) — the third member of the iterative-training
    family (with q_kmeans_train / q_linear_probe_train): each round fits
    the weighted-error-minimizing stump "predict en iff n_chars > thr"
    over the documents table, then doubles the weight of every
    misclassified row for the next round (the classic boosting reweight,
    kept on an INTEGER lattice so the whole loop is bitwise-exact against
    an unrolled-CTE oracle — weights stay in {1, 2, 4, ...}, bounded by
    2^rounds).

    Scale shape: per-round weights are RECOMPUTED map-side from the
    broadcast stump list (never stored per row — one pass, no state
    column); each round emits per-distinct-value (w1, w0) histogram
    partials folded through the bucketed kernel, and the driver scans
    only the distinct-value histogram (value-domain bounded — the
    q_price_percentiles contract) for the argmin threshold.  Candidate
    thresholds are the observed distinct values; ties break to the
    smallest threshold.  Output: one row per round
    (round, threshold, error, total_weight)."""
    import ray
    import ray.data as _rd

    ds = read_table(sf_dir, "documents", columns=["n_chars", "lang"])

    stumps: list[int] = []  # thresholds of the rounds fitted so far
    out_rows = []
    for rnd in range(ADABOOST_ROUNDS):
        t_ref = ray.put(list(stumps))

        def hist_partial(batch: pa.Table, _tref=t_ref) -> pa.Table:
            thrs = ray.get(_tref)
            v = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            import pyarrow.compute as pc

            y = pc.equal(batch.column("lang"), "en").to_numpy(
                zero_copy_only=False
            )
            w = np.ones(v.size, dtype=np.int64)
            for t in thrs:
                pred = v > t
                w = np.where(pred == y, w, 2 * w)
            uv, inv = np.unique(v, return_inverse=True)
            w1 = np.bincount(
                inv, weights=np.where(y, w, 0), minlength=uv.size
            ).astype(np.int64)
            w0 = np.bincount(
                inv, weights=np.where(y, 0, w), minlength=uv.size
            ).astype(np.int64)
            return pa.table(
                {
                    "v": pa.array(uv, pa.int64()),
                    "w1": pa.array(w1, pa.int64()),
                    "w0": pa.array(w0, pa.int64()),
                }
            )

        hist = (
            bucketed_group_agg(
                ds.map_batches(hist_partial, batch_format="pyarrow"),
                ["v"],
                {"w1": ("sum", "w1"), "w0": ("sum", "w0")},
            )
            .to_pandas()
            .sort_values("v")
        )  # bounded: one row per DISTINCT n_chars value
        w1c = hist["w1"].cumsum().to_numpy(dtype=np.int64)
        w0c = hist["w0"].cumsum().to_numpy(dtype=np.int64)
        err = w1c + (w0c[-1] - w0c)  # stump predicts en iff v > thr
        i = int(np.argmin(err))  # first min in ascending v = smallest thr
        thr = int(hist["v"].iloc[i])
        stumps.append(thr)
        out_rows.append(
            {
                "round": rnd + 1,
                "threshold": thr,
                "error": int(err[i]),
                "total_weight": int(w1c[-1] + w0c[-1]),
            }
        )

    return _rd.from_arrow(
        pa.table(
            {
                "round": pa.array([r["round"] for r in out_rows], pa.int64()),
                "threshold": pa.array(
                    [r["threshold"] for r in out_rows], pa.int64()
                ),
                "error": pa.array([r["error"] for r in out_rows], pa.int64()),
                "total_weight": pa.array(
                    [r["total_weight"] for r in out_rows], pa.int64()
                ),
            }
        )
    )


def _sql_adaboost_stumps() -> str:
    """Unrolled-CTE boosting oracle: per round, per-distinct-value weighted
    histogram, window cumsum, argmin threshold (ties to smallest), then a
    per-row integer weight-doubling reweight for the next round."""
    parts = [
        "WITH d0 AS (SELECT n_chars AS v,"
        " CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS y,"
        " CAST(1 AS BIGINT) AS w FROM documents)"
    ]
    for i in range(ADABOOST_ROUNDS):
        parts.append(
            (
                ", h{i} AS (SELECT v,"
                " CAST(coalesce(sum(CASE WHEN y = 1 THEN w END), 0) AS BIGINT) AS w1,"
                " CAST(coalesce(sum(CASE WHEN y = 0 THEN w END), 0) AS BIGINT) AS w0"
                " FROM d{i} GROUP BY v)"
                ", c{i} AS (SELECT v, sum(w1) OVER (ORDER BY v) AS w1c,"
                " sum(w0) OVER (ORDER BY v) AS w0c FROM h{i})"
                ", s{i} AS (SELECT v AS thr,"
                " CAST(w1c + ((SELECT sum(w0) FROM h{i}) - w0c) AS BIGINT) AS err"
                " FROM c{i} ORDER BY err, thr LIMIT 1)"
                ", d{j} AS (SELECT v, y, CASE WHEN"
                " (CASE WHEN v > (SELECT thr FROM s{i}) THEN 1 ELSE 0 END) = y"
                " THEN w ELSE 2 * w END AS w FROM d{i})"
            ).format(i=i, j=i + 1)
        )
    sel = " UNION ALL ".join(
        (
            "SELECT {r} AS round, thr AS threshold, err AS error,"
            " (SELECT CAST(sum(w) AS BIGINT) FROM d{i}) AS total_weight FROM s{i}"
        ).format(r=i + 1, i=i)
        for i in range(ADABOOST_ROUNDS)
    )
    parts.append(" " + sel + " ORDER BY round")
    return "".join(parts)


SQL_ADABOOST_STUMPS = _sql_adaboost_stumps()


#: zorder_layout: rows per output file and morton bits per dimension.
ZORDER_FILE_ROWS = 1000
ZORDER_BITS = 10


def _morton_expr(xcol: str, ycol: str) -> str:
    """DuckDB bit-interleave expression for two ZORDER_BITS-bit ints."""
    terms = []
    for b in range(ZORDER_BITS):
        # every term fully parenthesized: DuckDB's << binds LOOSER than +
        terms.append("((({x} >> {b}) & 1) << {s})".format(x=xcol, b=b, s=2 * b))
        terms.append("((({y} >> {b}) & 1) << {s})".format(y=ycol, b=b, s=2 * b + 1))
    return " + ".join(terms)


def q_zorder_layout(sf_dir: str):
    """Z-order (morton curve) file clustering of the orders table on
    (o_custkey, o_totalprice) — the data-layout operator that makes
    min/max pruning work on TWO columns at once: rows sorted by the
    interleaved-bit key land in files whose per-file [min,max] ranges are
    tight on BOTH dimensions.  Output is the pruning manifest itself: one
    row per output file with its row count and both column ranges.

    Scale shape: the morton key is map-side bit arithmetic; the global
    rank comes from the distributed prefix-sum scan keyed on the UNIQUE
    (zkey << 20 | o_orderkey) so tie order is deterministic (bucket_size
    2^32 -> <=256 buckets: driver-small AND few enough that map_groups'
    per-bucket output blocks don't tax the next aggregate); file stats are
    one bounded groupby over #files rows.  No global sort operator — at
    10^12 rows the scan's bucket totals are the only driver state."""
    from ..stages.joins import bucketed_prefix_sum

    ds = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def add_key(df: pd.DataFrame) -> pd.DataFrame:
        x = (df["o_custkey"].to_numpy() % (1 << ZORDER_BITS)).astype(np.int64)
        y = (
            np.floor(df["o_totalprice"].to_numpy() / 500.0).astype(np.int64)
            % (1 << ZORDER_BITS)
        )
        z = np.zeros(len(df), dtype=np.int64)
        for b in range(ZORDER_BITS):
            z |= ((x >> b) & 1) << (2 * b)
            z |= ((y >> b) & 1) << (2 * b + 1)
        # unique rank key: morton key then orderkey (orderkey < 2^20 by
        # testdata contract; at larger id spaces widen the shift)
        df["__ukey"] = (z << 20) | df["o_orderkey"].to_numpy()
        df["__one"] = np.int64(1)
        return df

    # bucket_size 2^32 over the 2^40 ukey range -> <=256 buckets: enough
    # parallelism at 32 CPUs, and map_groups emits ~256 output blocks
    # (4096 buckets measured 42 s of pure per-tiny-block overhead in the
    # downstream aggregate at sf0.1 — block COUNT, not bytes, was the cost)
    ranked = bucketed_prefix_sum(
        ds.map_batches(add_key, batch_format="pandas"),
        key="__ukey",
        value="__one",
        out_col="__rank",
        bucket_size=1 << 32,
    )

    def add_file(df: pd.DataFrame) -> pa.Table:
        # per-batch PARTIAL manifest (emit ARROW): the native aggregate
        # pays per-input-row overhead (BASELINE.md #15; a pandas block on
        # the same rows was 18 s/task), so only <= (#files in batch)
        # partial rows leave each task
        df = df.assign(file_id=(df["__rank"].to_numpy() - 1) // ZORDER_FILE_ROWS)
        g = (
            df.groupby("file_id", sort=False)
            .agg(
                n=("o_custkey", "count"),
                min_cust=("o_custkey", "min"),
                max_cust=("o_custkey", "max"),
                min_price=("o_totalprice", "min"),
                max_price=("o_totalprice", "max"),
            )
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    # file_id is OUTPUT-FILE-cardinality (rows / file size): bucketed fold (r5)
    return bucketed_group_agg(
        ranked.map_batches(add_file, batch_format="pandas"),
        ["file_id"],
        {
            "n": ("sum", "n"),
            "min_cust": ("min", "min_cust"),
            "max_cust": ("max", "max_cust"),
            "min_price": ("min", "min_price"),
            "max_price": ("max", "max_price"),
        },
    )


SQL_ZORDER_LAYOUT = (
    "WITH z AS (SELECT o_orderkey, o_custkey, o_totalprice, "
    + _morton_expr(
        "(o_custkey % 1024)",
        "(CAST(floor(o_totalprice / 500.0) AS BIGINT) % 1024)",
    )
    + " AS zkey FROM orders),"
    " r AS (SELECT *, row_number() OVER (ORDER BY zkey, o_orderkey) AS rn FROM z)"
    " SELECT (rn - 1) // 1000 AS file_id, count(*) AS n,"
    " min(o_custkey) AS min_cust, max(o_custkey) AS max_cust,"
    " min(o_totalprice) AS min_price, max(o_totalprice) AS max_price"
    " FROM r GROUP BY 1"
)


#: Quantile probe points for value_quantiles_kll.
KLL_QS = (0.25, 0.5, 0.75, 0.9)


def q_value_quantiles_kll(sf_dir: str):
    """Approximate quantiles of the CONTINUOUS events.value column via a
    mergeable KLL sketch — the companion to len_quantiles (exact
    value-histogram, bounded integer domains): a double-valued column at
    100 TB has ~n distinct values, so the histogram's driver state
    explodes while the KLL holds O(k log(n/k)) floats regardless.  One
    sketch partial per batch (map_batches), level-wise merge of the tiny
    partials on the driver — the HLL/Misra-Gries aggregation shape.
    Approximate by design -> rows-only; the pytest gate bounds rank error
    at 2% and pins merge-equivalence + determinism."""
    import pickle

    from ..functions import sketches

    ds = read_table(sf_dir, "events", columns=["value"])

    def partial(batch: pa.Table) -> pa.Table:
        sk = sketches.kll_empty()
        sketches.kll_add(sk, batch.column("value").to_numpy())
        return pa.table({"sk": pa.array([pickle.dumps(sk)], pa.binary())})

    def merge_sk(tbl: pa.Table) -> pa.Table:
        bufs = tbl.column("sk").to_pylist()
        if not bufs:
            return tbl
        acc = pickle.loads(bufs[0])
        for b in bufs[1:]:
            acc = sketches.kll_merge(acc, pickle.loads(b))
        return pa.table({"sk": pa.array([pickle.dumps(acc)], pa.binary())})

    # in-cluster tree merge (VERDICT r4 #4): driver folds <= n_buckets rows
    from ..stages.groupagg import tree_merge_partials

    merged = sketches.kll_empty()
    for row in tree_merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"), merge_sk
    ):
        merged = sketches.kll_merge(merged, pickle.loads(row["sk"]))
    est = sketches.kll_quantiles(merged, KLL_QS)
    return pa.table(
        {
            "q": pa.array(list(KLL_QS)),
            "value_est": pa.array(np.round(est, 4)),
        }
    )


def q_link_graph(sf_dir: str):
    """Crawl link-graph construction: synthesize one link page per
    document (synth.link_page_html — deterministic cross-link rule),
    extract every <a href> with the REAL from-scratch DOM parser
    (html_extract.extract_links), keep internal /page/N targets, and
    aggregate in-degree per target — the edge-building pass PageRank and
    host-level dedup consume.  Parsing is per-page (the honest workload,
    same as extraction); edges leave each task as integer (dst) rows only,
    and the in-degree groupby is bounded by the id space.  Chrome nav and
    external links must be found and then filtered — the parse is real,
    not a regex over the fixture."""
    from .. import synth
    from ..html_extract import extract_links

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def edges(batch: pa.Table) -> pa.Table:
        dsts = []
        for d in batch.column("doc_id").to_pylist():
            for href in extract_links(synth.link_page_html(d)):
                if href.startswith("/page/"):
                    dsts.append(int(href[6:]))
        return pa.table({"dst": pa.array(dsts, pa.int64())})

    # dst is NODE-cardinality: bucketed fold (r5)
    return bucketed_group_agg(
        ds.map_batches(edges, batch_format="pyarrow"),
        ["dst"],
        {"n_in": ("count", None)},
    )


SQL_LINK_GRAPH = (
    "SELECT (7 * doc_id + 13 * r.range + 1) % 1000 AS dst, count(*) AS n_in"
    " FROM documents, range(0, 3) r GROUP BY 1"
)


def q_events_ffill(sf_dir: str):
    """Per-user forward-fill imputation over event time — the gap-filling
    pass feature pipelines run before training (LOCF: last observation
    carried forward).  'view' events are treated as having no reading;
    each event reports the user's most recent non-missing value (or -1
    before any).  Same plan as the other window ops: ONE user-hash-bucket
    shuffle, then a single vectorized kernel per bucket (masked index
    maximum-accumulate with per-segment floor — no per-key Python, no
    per-row scan)."""
    ds = read_table(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type", "value"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        n = len(g)
        uid = g["user_id"].to_numpy()
        val = g["value"].to_numpy().astype(np.float64)
        valid = g["event_type"].to_numpy() != "view"
        new_seg = np.empty(n, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = uid[1:] != uid[:-1]
        starts = np.flatnonzero(new_seg)
        counts = np.diff(np.append(starts, n))
        seg_floor = np.repeat(starts, counts)
        last_valid = np.maximum.accumulate(np.where(valid, np.arange(n), -1))
        # an index from a PREVIOUS user is always < this segment's floor
        filled_idx = np.where(last_valid >= seg_floor, last_valid, -1)
        filled = np.where(filled_idx >= 0, val[np.maximum(filled_idx, 0)], -1.0)
        return pd.DataFrame(
            {"event_id": g["event_id"].to_numpy(), "filled_value": filled}
        )

    return bucketed_map_groups(ds, ["user_id"], per_bucket, batch_format="pandas")


SQL_EVENTS_FFILL = (
    "SELECT event_id, COALESCE(last_value("
    " CASE WHEN event_type = 'view' THEN NULL ELSE value END IGNORE NULLS)"
    " OVER (PARTITION BY user_id ORDER BY ts, event_id"
    " ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), -1.0)"
    " AS filled_value FROM events"
)


def q_image_phash_dedup(sf_dir: str):
    """Image near-duplicate detection by DCT perceptual hash — the
    image-side SimHash: 63-bit pHash per payload (actor-pool stage, DCT
    basis built once per actor), 4x16-bit LSH banding, one vectorized
    hamming verify per bucket, aggregate-distinct pairs.  The fixture
    plants noised re-encoded copies (PNG vs JPEG vs BMP of the same
    picture) among independent images; planted pairs sit at hamming <= 4,
    distinct images at >= 18 (pinned by pytest).  Oracle: VALUES literal
    from tests/golden/image_phash.json (regen via
    ``python -m tests.regen_golden`` — the media_features pattern)."""
    import ray as _ray
    import ray.data as _rd

    from ..stages import multimodal

    media = _rd.from_arrow(multimodal.synth_images_neardup(36))
    pairs = multimodal.phash_neardup_pairs(media, concurrency=2, batch_size=12)
    return pairs


def _image_phash_oracle_sql():
    from .queries_rel import _golden_values_sql

    return _golden_values_sql(
        "image_phash.json", [("a", "int"), ("b", "int"), ("hamming", "int")]
    )


def q_corpus_to_blocks(sf_dir: str):
    """End-to-end training-data assembly flagship: quality-classifier
    filter -> exact content dedup -> sequence packing, as ONE streaming
    pipeline.  Composition of three already-green stages: (1) map-side
    classifier inference + filter (no shuffle); (2) winner-per-content
    via the bucketed vectorized aggregate (digest lanes, min doc_id —
    the high-cardinality-groupby path, n_tokens rides along since texts
    in a group are identical); (3) the distributed prefix-sum scan
    assigns every surviving doc its global token offset and first
    training block.  The corpus text never crosses a shuffle: stage 2
    moves (doc_id, 2x int64 digest lanes, n_tokens), stage 3 moves
    (doc_id, n_tokens)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return _to_blocks(ds)


def _to_blocks(ds: ray.data.Dataset) -> ray.data.Dataset:
    """The corpus_to_blocks assembly over ANY (doc_id, text) Dataset —
    shared by the documents-read flagship and the pages-extraction
    capstone (q_pages_to_blocks)."""
    import hashlib

    from ..stages.joins import bucketed_prefix_sum
    from .queries_cc import _EMBED_DIM, _embed_hash_batch

    w = _classifier_weights()

    def survivors(batch: pa.Table) -> pa.Table:
        feats = _embed_hash_batch(batch)
        x = np.column_stack(
            [feats.column(f"d{d}").to_numpy() for d in range(_EMBED_DIM)]
        ).astype(np.float64)
        score = np.round(1.0 / (1.0 + np.exp(-(x @ w) / 100.0)), 4)
        kept = batch.filter(pa.array(score > 0.5))
        texts = kept.column("text").to_pylist()
        digs = b"".join(
            hashlib.sha256(t.encode("utf-8")).digest()[:16] for t in texts
        )
        arr = (
            np.frombuffer(digs, dtype="<u8").reshape(-1, 2)
            if digs
            else np.empty((0, 2), np.uint64)
        )
        n = pc.cast(
            pc.list_value_length(pc.split_pattern(kept.column("text"), " ")),
            pa.int64(),
        )
        return pa.table(
            {
                "doc_id": kept.column("doc_id"),
                "h1": pa.array(arr[:, 0].view(np.int64), pa.int64()),
                "h2": pa.array(arr[:, 1].view(np.int64), pa.int64()),
                "n_tokens": n,
            }
        )

    winners = bucketed_group_agg(
        ds.map_batches(survivors, batch_format="pyarrow"),
        ["h1", "h2"],
        {"doc_id": ("min", "doc_id"), "n_tokens": ("min", "n_tokens")},
    ).select_columns(["doc_id", "n_tokens"])

    def plus(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__n_plus", pc.add(batch.column("n_tokens"), 1)
        )

    cum = bucketed_prefix_sum(
        winners.map_batches(plus, batch_format="pyarrow"),
        key="doc_id",
        value="__n_plus",
        out_col="__cum",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        start = (df["__cum"] - df["__n_plus"]).to_numpy()
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(),
                "n_tokens": df["n_tokens"].to_numpy(),
                "tok_start": start,
                "first_block": start // PACK_BLOCK,
            }
        )

    return cum.map_batches(finish, batch_format="pandas")


def q_pages_to_blocks(sf_dir: str):
    """The web-tier capstone: raw crawl PAGES -> main-content extraction ->
    quality-classifier filter -> exact content dedup -> sequence packing,
    one streaming composition of the engine's two halves (the extraction
    pipeline and the training-data assembly).  A user of the reference
    runs exactly this shape: fetch/store pages, extract text, curate,
    pack blocks for training.

    Scale shape: extraction is embarrassingly parallel map_batches (html
    never crosses a shuffle); doc ids come back out of the synth url with
    one vectorized slice; everything downstream is the _to_blocks
    assembly (digest-lane dedup + distributed prefix-sum packing — text
    never shuffles there either).  The SQL oracle is corpus_to_blocks'
    CTE unchanged: the synthetic pages extract back byte-identically
    (extract_identity's pinned invariant), so extraction is
    oracle-invisible by construction."""
    from ..stages.extract import extract_batch
    from .queries import documents_pages

    pages = documents_pages(sf_dir)
    extracted = pages.map_batches(
        extract_batch, batch_format="pyarrow", batch_size=256
    )

    def to_docs(batch: pa.Table) -> pa.Table:
        # synth url layout is fixed-width: doc_id = last 8 codeunits
        did = pc.cast(
            pc.utf8_slice_codeunits(batch.column("url"), 27, 35), pa.int64()
        )
        return pa.table({"doc_id": did, "text": batch.column("extracted")})

    return _to_blocks(extracted.map_batches(to_docs, batch_format="pyarrow"))


def _sql_corpus_to_blocks() -> str:
    from .queries_cc import _EMBED_DIM

    terms = _classifier_terms_sql()
    return (
        "WITH words AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w"
        " FROM documents),"
        " h AS (SELECT doc_id,"
        " list_reduce(list_transform(string_split(w, ''), c -> ascii(c)),"
        " (a, b) -> (a * 31 + b) % 1024) % 16 AS dim"
        " FROM words WHERE w <> ''),"
        " z AS (SELECT doc_id, (" + terms + ") / 100.0 AS z FROM h"
        " GROUP BY doc_id),"
        " keep AS (SELECT doc_id FROM z"
        " WHERE round(1.0 / (1.0 + exp(-z)), 4) > 0.5),"
        " d AS (SELECT doc_id, text FROM documents"
        " WHERE doc_id IN (SELECT doc_id FROM keep)),"
        " win AS (SELECT min(doc_id) AS doc_id,"
        " min(len(string_split(text, ' '))) AS n_tokens FROM d GROUP BY text),"
        " c AS (SELECT doc_id, n_tokens,"
        " CAST(COALESCE(SUM(n_tokens + 1) OVER (ORDER BY doc_id"
        " ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)"
        " AS tok_start FROM win)"
        " SELECT doc_id, n_tokens, tok_start, tok_start // 512 AS first_block"
        " FROM c"
    )


#: BM25 constants (Robertson-Sparck Jones defaults) and result size.
BM25_K1 = 1.2
BM25_B = 0.75
BM25_TOPN = 20
BM25_NTERMS = 3


def q_bm25_search(sf_dir: str):
    """BM25 ranked retrieval over the corpus for the {N} highest-df
    tokens (a deterministic stand-in for a user query) — the scoring
    side of the inverted_index postings build (queries_cc).  Two passes:
    (1) document-frequency aggregate (vocab-bounded, the inverted_index
    df idiom) + one tiny length aggregate -> the query-term idf table and
    (nd, avgdl) broadcast; (2) map-side scoring — each batch computes tf
    for ONLY the query terms via dictionary-encode + isin, applies the
    BM25 formula vectorized, and forwards its local top-N — the final
    sort sees <= N x #batches rows.  Ranking uses the ROUNDED score
    (ties then by doc_id) so the oracle contract is ulp-stable."""
    from ray.data.aggregate import Sum as _Sum

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def df_partial(batch: pa.Table) -> pa.Table:
        from .queries_cc import distinct_doc_token_counts

        tbl, n_rows, tok_sum = distinct_doc_token_counts(batch)
        k = tbl.num_rows
        # corpus length stats piggyback on the first row of each partial
        tbl = tbl.append_column(
            "dl_sum",
            pa.array(
                np.r_[tok_sum, np.zeros(k - 1, np.int64)]
                if k
                else np.empty(0, np.int64)
            ),
        )
        return tbl.append_column(
            "nd",
            pa.array(
                np.r_[n_rows, np.zeros(k - 1, np.int64)]
                if k
                else np.empty(0, np.int64)
            ),
        )

    stats = bucketed_group_agg(
        # token is VOCAB-cardinality: bucketed string-key fold (r5)
        ds.map_batches(df_partial, batch_format="pyarrow"),
        ["token"],
        {"df": ("sum", "n"), "dl_sum": ("sum", "dl_sum"), "nd": ("sum", "nd")},
    ).to_pandas()  # vocab-bounded driver slice (query-k tokens used below)
    nd = int(stats["nd"].sum())
    avgdl = float(stats["dl_sum"].sum()) / nd
    top = stats.sort_values(["df", "token"], ascending=[False, True]).head(
        BM25_NTERMS
    )
    terms = top["token"].tolist()
    idf = {
        t: float(np.log(1.0 + (nd - d + 0.5) / (d + 0.5)))
        for t, d in zip(top["token"], top["df"])
    }

    def score(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern(batch.column("text"), " ").combine_chunks()
        dl = np.asarray(split.value_lengths(), dtype=np.int64)
        enc = split.flatten().dictionary_encode()
        codes = np.asarray(enc.indices, dtype=np.int64)
        vocab = enc.dictionary.to_pylist()
        code_of = {w: c for c, w in enumerate(vocab)}
        row = np.repeat(np.arange(len(dl), dtype=np.int64), dl)
        s = np.zeros(len(dl), dtype=np.float64)
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl)
        for t in terms:
            c = code_of.get(t)
            if c is None:
                continue
            tf = np.bincount(row[codes == c], minlength=len(dl)).astype(np.float64)
            s += idf[t] * tf * (BM25_K1 + 1.0) / (tf + norm)
        keep = s > 0.0
        out = pa.table(
            {
                "doc_id": pc.filter(batch.column("doc_id"), pa.array(keep)),
                "bm25": pa.array(np.round(s[keep], 4)),
            }
        )
        # local top-N cap: the global sort never sees the corpus.  The cap
        # uses the GLOBAL comparator (score desc, doc_id asc) so dropping
        # rows beyond N can never change the final top-N under ties.
        if out.num_rows > BM25_TOPN:
            sc_r = out.column("bm25").to_numpy()
            did = out.column("doc_id").to_numpy()
            order = np.lexsort((did, -sc_r))[:BM25_TOPN]
            out = out.take(pa.array(np.sort(order)))
        return out

    return (
        ds.map_batches(score, batch_format="pyarrow")
        .sort(["bm25", "doc_id"], descending=[True, False])
        .limit(BM25_TOPN)
    )


SQL_BM25_SEARCH = (
    "WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t"
    " FROM documents),"
    " lens AS (SELECT doc_id, len(string_split(text, ' ')) AS dl FROM documents),"
    " stats AS (SELECT count(*) AS nd, avg(dl) AS avgdl FROM lens),"
    " df AS (SELECT t, count(DISTINCT doc_id) AS df FROM tok GROUP BY t),"
    " qt AS (SELECT t, df FROM df ORDER BY df DESC, t LIMIT 3),"
    " tf AS (SELECT doc_id, t, count(*) AS tf FROM tok"
    " WHERE t IN (SELECT t FROM qt) GROUP BY doc_id, t),"
    " sc AS (SELECT tf.doc_id, sum("
    " ln(1.0 + (stats.nd - qt.df + 0.5) / (qt.df + 0.5))"
    " * tf.tf * (1.2 + 1.0)"
    " / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * lens.dl / stats.avgdl))) AS s"
    " FROM tf JOIN qt USING (t) JOIN lens USING (doc_id), stats"
    " GROUP BY tf.doc_id)"
    " SELECT doc_id, round(s, 4) AS bm25 FROM sc"
    " ORDER BY round(s, 4) DESC, doc_id LIMIT 20"
)


def q_distinct_tokens_by_lang(sf_dir: str):
    """Approximate distinct-token count PER LANGUAGE via HyperLogLog used
    as a true distributed aggregate: each batch emits one 4096-register
    partial per language it contains, and the register-wise-max merge
    happens INSIDE ``groupby(lang).map_groups`` — the sketch algebra runs
    where the shuffle lands, the driver never touches a register (the
    global distinct_tokens_hll merges on the driver; this is the shape
    that generalizes to 10^4 groups).  Approximate by design -> rows-only;
    pytest pins every language's estimate within 5% of exact."""
    from ..functions import sketches

    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        rows = []
        for lang, grp in df.groupby("lang", sort=False):
            # flatten the group's tokens once (vectorized Arrow split +
            # strhash kernel); the loop is per LANGUAGE, never per doc
            toks = pc.list_flatten(
                pc.utf8_split_whitespace(pa.array(grp["text"], pa.string()))
            )
            toks = toks.filter(pc.greater(pc.binary_length(toks), 0))
            regs = sketches.hll_empty()
            sketches.hll_add(regs, toks)
            rows.append({"lang": lang, "registers": regs.tobytes()})
        return pa.Table.from_pylist(
            rows,
            schema=pa.schema([("lang", pa.string()), ("registers", pa.binary())]),
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        regs = np.maximum.reduce(
            [np.frombuffer(b, dtype=np.uint8) for b in g["registers"]]
        )
        return pd.DataFrame(
            {
                "lang": [g["lang"].iloc[0]],
                "distinct_tokens_est": [int(round(sketches.hll_estimate(regs)))],
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(merge, batch_format="pandas")
    )


def q_window_distinct_users(sf_dir: str):
    """Exact distinct users per tumbling hour — the COUNT(DISTINCT) window
    every traffic dashboard needs, built scale-first: each batch emits its
    LOCAL distinct (hour, user) pairs packed into one int64 (np.unique —
    map-side dedup shrinks the stream before any shuffle), the global
    distinct runs through the bucketed vectorized aggregate (pair count is
    data-cardinality — exactly the ~30us/group native-overhead regime
    BASELINE r4 #4 measured, so Ray's native groupby is the wrong tool),
    and the final per-hour count is a tiny bounded groupby."""
    from ray.data.aggregate import Count as _Count

    from ..sources.io import cpu_count

    ds = read_table(
        sf_dir, "events", columns=["ts", "user_id"], min_blocks=cpu_count()
    )

    def pairs(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        hour_id = us // 3_600_000_000
        uid = batch.column("user_id").to_numpy()
        # packing contract enforced loudly: an out-of-range id would OR
        # into the hour bits and silently miscount
        if len(uid) and (uid.min() < 0 or int(uid.max()) >> 32):
            raise ValueError("user_id outside [0, 2^32) breaks hour packing")
        key = np.unique((hour_id << 32) | uid)
        return pa.table({"key": pa.array(key, pa.int64())})

    distinct = bucketed_group_agg(
        ds.map_batches(pairs, batch_format="pyarrow"),
        ["key"],
        {"n": ("count", None)},
    )

    def hour_partial(batch: pa.Table) -> pa.Table:
        # the stream is already globally-distinct pairs: counting per hour
        # INSIDE the batch folds it to <= n_hours rows per block, so the
        # final native groupby sees bounded input, never pair-cardinality
        # (the 6us/input-row native-aggregate tax, BASELINE.md #15)
        key = batch.column("key").to_numpy()
        h, n = np.unique(key >> 32, return_counts=True)
        return pa.table(
            {
                "hour": pa.array(h * 3_600_000_000, pa.timestamp("us")),
                "n": pa.array(n.astype(np.int64)),
            }
        )

    from ray.data.aggregate import Sum as _Sum

    # num_partitions=2: the native hash aggregate costs ~0.1 s of
    # aggregator setup PER PARTITION and defaults to the input block count
    # (32 here after the bucketed stage) — a bounded hours-sized final
    # needs 2, not 32 (measured 3.3 s -> ~0.2 s)
    return (
        distinct.map_batches(hour_partial, batch_format="pyarrow")
        .repartition(2, shuffle=False)  # sort-based agg fans out per BLOCK
        .groupby("hour", num_partitions=2)
        .aggregate(_Sum("n", alias_name="n_users"))
    )


SQL_WINDOW_DISTINCT_USERS = (
    "SELECT date_trunc('hour', ts) AS hour,"
    " count(DISTINCT user_id) AS n_users FROM events GROUP BY 1"
)


#: PQ layout: 8 subspaces of 8 dims, 8 centroids each (codes fit 3 bits;
#: a 64-float vector compresses to 8 small ints — the billion-scale ANN trick).
PQ_SUB = 8
PQ_SUBDIM = 8
PQ_K = 8


def q_pq_encode(sf_dir: str):
    """Product-quantization encoding of the embedding table — the
    compression step billion-scale ANN runs so the index fits in RAM
    (64 float32 dims -> 8 codebook codes here).  Same exactness trick as
    kmeans_assign: quantize to an int grid (floor(v*1000+0.5)), seed each
    subspace's codebook from vec_ids 0..K-1, assign by int64
    distance expansion per subspace (8 small matmuls per batch against
    broadcast codebooks), ties to the lowest code.  Output is the full
    code table (vec_id, c0..c7) — integer-exact, oracle-checked."""
    import ray

    from ..schema import list_column_matrix

    c_ref = ray.put(_quantized_seed_centroids(sf_dir, PQ_K, 1000.0))

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def encode(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        x = np.floor(
            list_column_matrix(batch.column("embedding"), dtype="float64") * 1000.0
            + 0.5
        ).astype(np.int64)
        cols = {"vec_id": batch.column("vec_id")}
        for s in range(PQ_SUB):
            xs = x[:, s * PQ_SUBDIM : (s + 1) * PQ_SUBDIM]
            cs = c[:, s * PQ_SUBDIM : (s + 1) * PQ_SUBDIM]
            d = (
                (xs * xs).sum(axis=1, keepdims=True)
                - 2 * (xs @ cs.T)
                + (cs * cs).sum(axis=1)[None, :]
            )
            cols[f"c{s}"] = pa.array(np.argmin(d, axis=1).astype(np.int64))
        return pa.table(cols)

    return ds.map_batches(encode, batch_format="pyarrow")


def _sql_pq_encode() -> str:
    subs = []
    joins = []
    outs = []
    for s in range(PQ_SUB):
        lo, hi = s * PQ_SUBDIM + 1, (s + 1) * PQ_SUBDIM  # 1-based inclusive
        subs.append(
            " a{s} AS (SELECT q.vec_id, c.cid,"
            " list_sum(list_transform(list_zip(q.e[{lo}:{hi}], c.ce[{lo}:{hi}]),"
            " t -> (t[1] - t[2]) * (t[1] - t[2]))) AS d FROM q, c),"
            " w{s} AS (SELECT vec_id, cid FROM (SELECT vec_id, cid,"
            " row_number() OVER (PARTITION BY vec_id ORDER BY d, cid) AS rn"
            " FROM a{s}) WHERE rn = 1)".format(s=s, lo=lo, hi=hi)
        )
        joins.append(" JOIN w{s} ON w{s}.vec_id = q.vec_id".format(s=s))
        outs.append("CAST(w{s}.cid AS BIGINT) AS c{s}".format(s=s))
    return (
        "WITH q AS (SELECT vec_id, list_transform(embedding,"
        " v -> CAST(floor(v * 1000 + 0.5) AS BIGINT)) AS e FROM embeddings),"
        " c AS (SELECT vec_id AS cid, e AS ce FROM q"
        " WHERE vec_id < {}),".format(PQ_K)
        + ",".join(subs)
        + " SELECT q.vec_id, "
        + ", ".join(outs)
        + " FROM q"
        + "".join(joins)
    )


def q_fetch_corpus(sf_dir: str):
    """The reference's search-fetch-parse pipeline (S6,
    search_engine.py + json_dir.py cache) with the network socket swapped
    for a local content store: spool the synthetic pages to disk once
    (the 'web'), FETCH them back through the actor-pool Fetcher (per-url
    disk cache, bounded retries against the deterministic transient-
    failure rule, optional token-bucket politeness), then run the real
    extraction stage on the fetched bytes.  Output (url, extracted,
    n_attempts, status) is fully closed-form: extraction must return the
    source text byte-identically and retries hit exactly the doc_id%7==0
    urls — both mirrorable in SQL."""
    import tempfile

    import pyarrow.parquet as pq

    from .. import synth
    from ..sources import fetch as F
    from ..stages.extract import extract_batch

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    )
    pages = synth.pages_from_documents(docs)
    import zlib

    # stable per-sf scratch key (hash() is per-process randomized), plus a
    # CONTENT version (documents.parquet size + mtime): regenerating the
    # fixture invalidates the store/cache instead of serving stale bytes
    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    ver = zlib.crc32(
        "{}:{}:{}".format(os.path.abspath(sf_dir), st.st_size, int(st.st_mtime)).encode()
    )
    base = os.path.join(
        tempfile.gettempdir(), "ocr_ray_fetch_{:08x}".format(ver)
    )
    store = os.path.join(base, "store")
    cache = os.path.join(base, "cache")
    F.spool_store(pages, store)

    import ray.data

    urls = ray.data.from_arrow(pages.select(["url"]))
    fetched = F.fetch_pages(urls, store, cache, concurrency=4, batch_size=64)

    def extract(batch: pa.Table) -> pa.Table:
        ok = batch.filter(pc.equal(batch.column("status"), "ok"))
        page_like = pa.table(
            {
                "url": ok.column("url"),
                "html": ok.column("html"),
                "text": pa.array([""] * ok.num_rows, pa.string()),
                "lang": pa.array([""] * ok.num_rows, pa.string()),
            }
        )
        ex = extract_batch(page_like)
        return pa.table(
            {
                "url": ok.column("url"),
                "extracted": ex.column("extracted"),
                "n_attempts": ok.column("n_attempts"),
                "status": ok.column("status"),
            }
        )

    return fetched.map_batches(extract, batch_format="pyarrow")


def _sql_fetch_corpus() -> str:
    from ..synth import URL_SQL

    try:
        from ..sources.fetch import LocalStoreTransport

        fail_mod = LocalStoreTransport("").fail_mod
    except Exception:  # pragma: no cover
        fail_mod = 7
    return (
        "SELECT " + URL_SQL + " AS url, text AS extracted,"
        " CASE WHEN doc_id % {} = 0 THEN 2 ELSE 1 END AS n_attempts,"
        " 'ok' AS status FROM documents"
    ).format(fail_mod)


def q_video_frames(sf_dir: str):
    """Frame-stream source: the reference's camera/video streaming
    (image_io.py:391-461 — a frame generator with frame_index and a
    subsample stride) recast as a Dataset explode: every video payload
    (raw VID1 dialect AND real MJPEG-AVI) fans out to ordered per-frame
    feature rows through the FrameSampler actor pool.  Ordering rides in
    (media_id, frame_index) columns, so the stream is restartable and
    order-independent downstream.  Oracle: VALUES literal from
    tests/golden/video_frames.json (regen via
    ``python -m tests.regen_golden``)."""
    import ray.data as _rd

    from ..stages import multimodal

    table = pa.concat_tables(
        [multimodal.synth_media(48), multimodal.synth_media_real(20),
         multimodal.synth_media_exotic(30)]
    )
    media = _rd.from_arrow(table)
    return multimodal.video_frames(media, concurrency=2, batch_size=16)


def _video_frames_oracle_sql():
    from .queries_rel import _golden_values_sql

    return _golden_values_sql(
        "video_frames.json",
        [("media_id", "int"), ("frame_index", "int"), ("mean", "float"),
         ("std", "float"), ("status", "str")],
    )


TRAIN_QUERIES = {
    "training_pack": q_training_pack,
    "weighted_sample": q_weighted_sample,
    "events_moving_win": q_events_moving_win,
    "lineitem_cube": q_lineitem_cube,
    "lm_score": q_lm_score,
    "bloom_semi_join": q_bloom_semi_join,
    "training_blocks": q_training_blocks,
    "quality_classifier": q_quality_classifier,
    "kmeans_assign": q_kmeans_assign,
    "kmeans_train": q_kmeans_train,
    "linear_probe_train": q_linear_probe_train,
    "adaboost_stumps": q_adaboost_stumps,
    "span_corruption": q_span_corruption,
    "zorder_layout": q_zorder_layout,
    "value_quantiles_kll": q_value_quantiles_kll,
    "link_graph": q_link_graph,
    "events_ffill": q_events_ffill,
    "image_phash_dedup": q_image_phash_dedup,
    "corpus_to_blocks": q_corpus_to_blocks,
    "pages_to_blocks": q_pages_to_blocks,
    "bm25_search": q_bm25_search,
    "distinct_tokens_by_lang": q_distinct_tokens_by_lang,
    "window_distinct_users": q_window_distinct_users,
    "pq_encode": q_pq_encode,
    "fetch_corpus": q_fetch_corpus,
    "video_frames": q_video_frames,
}

TRAIN_ORACLE_SQL = {
    "training_pack": SQL_TRAINING_PACK,
    "weighted_sample": SQL_WEIGHTED_SAMPLE,
    "events_moving_win": SQL_EVENTS_MOVING_WIN,
    "lineitem_cube": SQL_LINEITEM_CUBE,
    "lm_score": SQL_LM_SCORE,
    "bloom_semi_join": SQL_BLOOM_SEMI_JOIN,
    "training_blocks": SQL_TRAINING_BLOCKS,
    "quality_classifier": _sql_quality_classifier(),
    "kmeans_assign": SQL_KMEANS_ASSIGN,
    "kmeans_train": _sql_kmeans_train(),
    "linear_probe_train": _sql_linear_probe_train(),
    "adaboost_stumps": SQL_ADABOOST_STUMPS,
    "span_corruption": SQL_SPAN_CORRUPTION,
    "zorder_layout": SQL_ZORDER_LAYOUT,
    "link_graph": SQL_LINK_GRAPH,
    "events_ffill": SQL_EVENTS_FFILL,
    "corpus_to_blocks": _sql_corpus_to_blocks(),
    "pages_to_blocks": _sql_corpus_to_blocks(),
    "bm25_search": SQL_BM25_SEARCH,
    "window_distinct_users": SQL_WINDOW_DISTINCT_USERS,
    "pq_encode": _sql_pq_encode(),
    "fetch_corpus": _sql_fetch_corpus(),
}

_phash_sql = _image_phash_oracle_sql()
if _phash_sql is not None:
    TRAIN_ORACLE_SQL["image_phash_dedup"] = _phash_sql
_vf_sql = _video_frames_oracle_sql()
if _vf_sql is not None:
    TRAIN_ORACLE_SQL["video_frames"] = _vf_sql
