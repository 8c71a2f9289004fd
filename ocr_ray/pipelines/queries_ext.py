"""Extended query pipelines: dedup family, text analysis, sessionization.

Same contract as :mod:`ocr_ray.pipelines.queries` (which merges these
registries): Ray-Data-first implementations with DuckDB oracle SQL where
the semantics are SQL-expressible; rows-only entries (simhash, lang-ID,
IVF-kNN) are pinned by pytest instead.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.aggregate import Count, Sum

from ..sources.io import cpu_count, read_table, table_shuffle_blocks

# ---------------------------------------------------------------------------
# dedup family (SURVEY §2.8 D4-D5 cross-document; training-data extensions)
# ---------------------------------------------------------------------------

_JACCARD_SHINGLE_SQL = (
    "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents), "
    "g AS (SELECT doc_id, list_distinct(list_transform(range(1, len(ws)-1), "
    "i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])) AS sh FROM w WHERE len(ws) >= 3 "
    "UNION ALL SELECT doc_id, [text] AS sh FROM documents "
    "WHERE len(string_split(text, ' ')) < 3) "
)


def q_minhash_dedup(sf_dir: str):
    """MinHash-LSH near-dup pipeline over documents: 64-perm signatures,
    16x4 banding, bucket groupby, candidate pairs, then a DISTRIBUTED exact
    word-3gram Jaccard verify at 0.8 (candidate ids hash-joined back against
    the documents dataset — no driver-side corpus read).  The testdata
    contains organic near-duplicates; the DuckDB oracle computes the exact
    all-pairs answer."""
    from ..stages import dedup

    # wide read: the signature kernel is CPU-heavy per row; the tiny
    # downstream shuffles are coalesced via shuffle_blocks instead
    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text"], min_blocks=cpu_count()
    )
    out = dedup.minhash_dedup_pairs(
        docs, threshold=0.8, shuffle_blocks=table_shuffle_blocks(sf_dir, "documents")
    )  # Dataset, distributed
    return out.select_columns(["a", "b"]).sort(["a", "b"])


SQL_MINHASH_DEDUP = (
    _JACCARD_SHINGLE_SQL
    + "SELECT a.doc_id AS a, b.doc_id AS b FROM g a JOIN g b ON a.doc_id < b.doc_id "
    "WHERE CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE) / "
    "len(list_distinct(a.sh || b.sh)) >= 0.8"
)


def q_ngram_jaccard(sf_dir: str):
    """Exact n-gram Jaccard kernel on consecutive doc-id pairs (the verify
    metric of the dedup pipelines, exposed standalone) — paired via a
    distributed SELF-JOIN on doc_id+1, never a single-task repartition."""
    from ..stages.dedup import jaccard as jac, round_half_away
    from ..stages.joins import hash_join

    left = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    right = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def as_left(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"a": batch.column("doc_id"), "text_a": batch.column("text")}
        )

    def as_right(batch: pa.Table) -> pa.Table:
        # right doc b joins left doc a = b - 1
        return pa.table(
            {
                "a": pc.add(batch.column("doc_id"), pa.scalar(-1, pa.int64())),
                "text_b": batch.column("text"),
            }
        )

    from ..stages.joins import BROADCAST_BYTES, _collect_small, broadcast_lookup_join

    left_m = left.map_batches(as_left, batch_format="pyarrow")
    right_m = right.map_batches(as_right, batch_format="pyarrow")
    src_size = right.size_bytes()
    if src_size is not None and src_size <= BROADCAST_BYTES:
        joined = broadcast_lookup_join(left_m, _collect_small(right_m), on="a")
    else:
        joined = hash_join(left_m, right_m, on="a")

    def score(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_pylist()
        j = [
            round_half_away(jac(x, y), 6)
            for x, y in zip(
                batch.column("text_a").to_pylist(), batch.column("text_b").to_pylist()
            )
        ]
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array([v + 1 for v in a], pa.int64()),
                "jaccard": pa.array(j, pa.float64()),
            }
        )

    return joined.map_batches(score, batch_format="pyarrow")


SQL_NGRAM_JACCARD = (
    _JACCARD_SHINGLE_SQL
    + "SELECT a.doc_id AS a, b.doc_id AS b, "
    "round(CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE) / "
    "len(list_distinct(a.sh || b.sh)), 6) AS jaccard "
    "FROM g a JOIN g b ON b.doc_id = a.doc_id + 1"
)


def q_dedup_clusters(sf_dir: str):
    """Duplicate-cluster assignment: the MinHash pipeline's verified pairs
    (jaccard >= 0.8) resolved to connected components — one
    (doc_id, cluster_id=min id in component) row per clustered doc
    (stages.dedup.connected_components: driver union-find under the
    broadcast limit, distributed min-label propagation above it).  Oracle:
    a recursive CTE computing min-reachable-id over the exact pair graph."""
    from ..stages import dedup

    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text"], min_blocks=cpu_count()
    )
    pairs = dedup.minhash_dedup_pairs(
        docs, threshold=0.8, shuffle_blocks=table_shuffle_blocks(sf_dir, "documents")
    )  # Dataset end-to-end
    return dedup.connected_components(pairs.select_columns(["a", "b"])).sort("doc_id")


# the recursive cluster-graph CTE (exact all-pairs jaccard >= 0.8 ->
# edges -> min-reachable-id) — shared with dedup_canonical (queries_cc)
SQL_CLUSTER_GRAPH_CTE = (
    _JACCARD_SHINGLE_SQL.replace("WITH ", "WITH RECURSIVE ", 1)
    + ", pairs AS (SELECT a.doc_id AS a, b.doc_id AS b FROM g a JOIN g b "
    "ON a.doc_id < b.doc_id "
    "WHERE CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE) / "
    "len(list_distinct(a.sh || b.sh)) >= 0.8), "
    "edges AS (SELECT a AS u, b AS v FROM pairs UNION ALL SELECT b, a FROM pairs), "
    "reach AS (SELECT u AS node, u AS r FROM edges "
    "UNION SELECT e.u, reach.r FROM edges e JOIN reach ON e.v = reach.node)"
)

SQL_DEDUP_CLUSTERS = (
    SQL_CLUSTER_GRAPH_CTE
    + " SELECT node AS doc_id, min(r) AS cluster_id FROM reach GROUP BY node"
)


def q_simhash_dedup(sf_dir: str):
    """SimHash near-dup: 64-bit fingerprints, 4x16-bit band blocking,
    hamming<=3 verify.  Oracle-checked via PLANTED pairs (the
    embedding_neardup pattern, VERDICT r2 #8): each doc is salted with as
    many per-doc-unique tokens as it has words, then byte-identical copies
    are planted at doc_id+100000 for doc_id%10==0.  Salting decorrelates
    MOST organic near-dups, but byte-identical source texts share their
    whole base vote and can still land within hamming 3 (VERDICT r4 #1:
    docs 144/161 at sf0.001 are identical and hash to hamming 0), so the
    pipeline and the SQL both restrict the CONTRACT to the planted
    (doc_id, doc_id+100000) structure — the restriction is on the output
    projection only; the full dedup pipeline (banding, bucket groupby,
    hamming verify) runs over the whole salted corpus and must still FIND
    every planted pair among the organic candidates.  Organic-near-dup
    behavior stays pinned by tests/test_dedup_similarity.py and the fuzz
    regime in tests/test_fuzz_oracle.py (organic-duplicate plants)."""
    from ..stages import dedup

    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text"], min_blocks=cpu_count()
    )

    def salt_and_plant(batch: pa.Table) -> pa.Table:
        out_i, out_t = [], []
        for i, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            n = len(t.split())
            salted = t + " " + " ".join(f"u{i}w{j}" for j in range(n + 8))
            out_i.append(i)
            out_t.append(salted)
            if i % 10 == 0:
                out_i.append(i + 100000)
                out_t.append(salted)
        return pa.table(
            {"doc_id": pa.array(out_i, pa.int64()), "text": pa.array(out_t)}
        )

    salted = docs.map_batches(salt_and_plant, batch_format="pyarrow")
    out = dedup.simhash_dedup_pairs(
        salted, max_hamming=3, shuffle_blocks=table_shuffle_blocks(sf_dir, "documents")
    )  # Dataset, distributed

    # Project the planted contract out of the pipeline's spanning-set
    # output.  A planted copy is byte-identical text -> identical
    # fingerprint -> always a hamming-0 edge to its group, but the
    # bounded pair emitter stars identical-fingerprint groups to the
    # group MIN id, so when organic identical texts share a group with a
    # planted original the literal pair (a, a+100000) may be represented
    # transitively rather than emitted.  Reconstruct it: connected
    # components over the hamming-0 edges recover the identical-
    # fingerprint groups exactly (hamming 0 <=> equal fingerprints), and
    # (a, a+100000) is a planted duplicate iff both ids land in one
    # component.
    zero_edges = out.filter(expr="hamming == 0").select_columns(["a", "b"])
    cc = dedup.connected_components(zero_edges)

    def orig_side(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = (ids < 100000) & (ids % 10 == 0)
        t = batch.filter(pa.array(keep))
        return pa.table(
            {"a": t.column("doc_id"), "cluster_id": t.column("cluster_id")}
        )

    def copy_side(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(ids >= 100000))
        return pa.table(
            {
                "a": pc.subtract(t.column("doc_id"), pa.scalar(100000)),
                "cluster_id": t.column("cluster_id"),
            }
        )

    from ..stages.joins import auto_join

    matched = auto_join(
        cc.map_batches(orig_side, batch_format="pyarrow"),
        cc.map_batches(copy_side, batch_format="pyarrow"),
        on=["a", "cluster_id"],
    )

    def emit(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": batch.column("a"),
                "b": pc.add(batch.column("a"), pa.scalar(100000)),
            }
        )

    return matched.map_batches(emit, batch_format="pyarrow").sort(["a", "b"])


SQL_SIMHASH_DEDUP = (
    "SELECT doc_id AS a, doc_id + 100000 AS b FROM documents WHERE doc_id % 10 = 0"
)


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup via random-hyperplane LSH buckets over
    embeddings with PLANTED exact copies (vec_id+100000 for vec_id%10==0):
    the expected pair list is exactly the planted set (no organic pairs
    reach cosine 0.95 in the testdata, verified offline)."""
    from ..stages import dedup

    tbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    vec_ids = np.asarray(tbl.column("vec_id").to_pylist())
    planted = tbl.filter(pa.array(vec_ids % 10 == 0))
    planted = planted.set_column(
        planted.schema.get_field_index("vec_id"),
        "vec_id",
        pc.add(planted.column("vec_id"), 100000),
    )
    both = pa.concat_tables([tbl, planted])
    out = dedup.embedding_neardup_pairs(
        ray.data.from_arrow(both),
        min_cosine=0.95,
        shuffle_blocks=table_shuffle_blocks(sf_dir, "embeddings"),
    )
    return out.select_columns(["a", "b"]).sort(["a", "b"])


SQL_EMBEDDING_NEARDUP = (
    "SELECT vec_id AS a, vec_id + 100000 AS b FROM embeddings WHERE vec_id % 10 = 0"
)


#: semantic_dedup: clusters (centroids = quantized embeddings of vec_id 0..K-1).
SEMDEDUP_K = 8

#: semantic_dedup: cosine threshold 0.95 as the exact rational 19/20 — the
#: keep/drop test is dot > 0 AND den*dot^2 >= num*|u|^2|v|^2 with
#: (num, den) = (19^2, 20^2), all int64 on the x100 grid (headroom: with
#: |x_i| <= ~10^3 and 64 dims, dot <= ~6.6e7, so den*dot^2 <= ~1.7e18 < 2^63).
SEMDEDUP_NUM, SEMDEDUP_DEN = 19 * 19, 20 * 20


def q_semantic_dedup(sf_dir: str):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): cluster every embedding to its nearest of K fixed
    centroids, then inside each cluster drop every vector that has an
    EARLIER (lower vec_id) neighbor at cosine >= 0.95, keeping one
    representative per epsilon-ball.  Exactness contract: vectors are
    quantized to the int grid floor(v*100+0.5) (x100 — not the kmeans x1000
    grid — so the squared-cosine comparison 400*dot^2 >= 361*|u|^2*|v|^2
    stays inside int64 on the numpy side; the DuckDB side widens to
    HUGEINT), centroids are vec_ids 0..K-1 (the shared
    ``_quantized_seed_centroids`` reader, which raises on a gap),
    argmin L2 ties break to the lowest cluster id, and zero vectors are
    never duplicates (cosine undefined -> kept).  Exact copies are PLANTED
    (vec_id+100000 for vec_id % 10 == 0) INSIDE map_batches — the planting
    never materializes the table on the driver — so the drop set is
    non-empty while cluster assignment is verified for every vector.

    Scale shape: centroids are a constant-size ray.put broadcast;
    assignment is one int64 matmul per batch; the only shuffle is the
    groupby(cluster).  Per-cluster work is the O(m^2/K) pairwise pass
    SemDeDup itself runs — the standing deployment assumption (K grows
    with the corpus so one cluster fits one worker) is documented here,
    same bounded-group contract as the other map_groups stages."""
    from ..schema import list_column_matrix
    from .queries_train import _quantized_seed_centroids

    c_ref = ray.put(_quantized_seed_centroids(sf_dir, SEMDEDUP_K, 100.0))

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    empty = pa.table(
        {
            "vec_id": pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64()),
            "e": pa.array([], pa.list_(pa.int64())),
        }
    )

    def plant_and_assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        cm = ray.get(c_ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        x = np.floor(
            list_column_matrix(batch.column("embedding"), dtype="float64") * 100.0
            + 0.5
        ).astype(np.int64)
        # loud-failure policy (the corr_by_nation validated-lookup rule):
        # beyond this grid magnitude the squared-cosine test 400*dot^2
        # would overflow int64 and numpy WRAPS silently while the SQL
        # side widens to HUGEINT — refuse rather than diverge.
        # bound: dot <= dims*m^2 must stay < sqrt(2^63/400) ~ 1.52e8,
        # so m <= sqrt(1.5e8/dims); 1500 is safe for dims <= 64.
        if x.size and int(np.abs(x).max()) > 1500:
            raise ValueError(
                "semantic_dedup: |embedding| > 15 overflows the int64 "
                "squared-cosine lattice (grid value %d)" % int(np.abs(x).max())
            )
        # planted copies live at vec_id + 100000 (the oracle's UNION ALL
        # does the same): a real id in that range would collide with a
        # copy's id and both sides would diverge — refuse, as above
        if ids.size and int(ids.max()) >= 100000:
            raise ValueError(
                "semantic_dedup: vec_id %d collides with the planted-copy "
                "id range (vec_id + 100000)" % int(ids.max())
            )
        planted = ids % 10 == 0
        ids = np.concatenate([ids, ids[planted] + 100000])
        x = np.concatenate([x, x[planted]], axis=0)
        d = (
            (x * x).sum(axis=1, keepdims=True)
            - 2 * (x @ cm.T)
            + (cm * cm).sum(axis=1)[None, :]
        )
        dims = x.shape[1]
        offsets = pa.array(
            np.arange(0, (len(ids) + 1) * dims, dims, dtype=np.int32)
        )
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster": pa.array(np.argmin(d, axis=1).astype(np.int64)),
                "e": pa.ListArray.from_arrays(offsets, pa.array(x.ravel())),
            }
        )

    def drop_in_cluster(group: pa.Table) -> pa.Table:
        group = group.sort_by("vec_id")
        g = list_column_matrix(group.column("e"), dtype="int64")
        dot = g @ g.T
        nn = np.diag(dot)
        dup = (
            (dot > 0)
            & (SEMDEDUP_DEN * dot * dot >= SEMDEDUP_NUM * np.outer(nn, nn))
            & (nn > 0)[None, :]
            & (nn > 0)[:, None]
        )
        keep = ~np.tril(dup, -1).any(axis=1)
        return pa.table(
            {
                "vec_id": group.column("vec_id").filter(pa.array(keep)),
                "cluster": group.column("cluster").filter(pa.array(keep)),
            }
        )

    assigned = ds.map_batches(plant_and_assign, batch_format="pyarrow")
    kept = assigned.groupby("cluster").map_groups(
        drop_in_cluster, batch_format="pyarrow"
    )
    return kept.sort("vec_id")


SQL_SEMANTIC_DEDUP = (
    "WITH base AS (SELECT vec_id, list_transform(embedding,"
    " v -> CAST(floor(v * 100 + 0.5) AS BIGINT)) AS e FROM embeddings"
    " UNION ALL SELECT vec_id + 100000, list_transform(embedding,"
    " v -> CAST(floor(v * 100 + 0.5) AS BIGINT)) FROM embeddings"
    " WHERE vec_id % 10 = 0),"
    " c AS (SELECT vec_id AS cid, e AS ce FROM base WHERE vec_id < {k}),"
    " d AS (SELECT b.vec_id, c.cid, list_sum(list_transform(list_zip(b.e, c.ce),"
    " s -> (s[1] - s[2]) * (s[1] - s[2]))) AS dist FROM base b, c),"
    " a AS (SELECT vec_id, cid AS cluster FROM (SELECT vec_id, cid,"
    " row_number() OVER (PARTITION BY vec_id ORDER BY dist, cid) AS rn FROM d)"
    " WHERE rn = 1),"
    " av AS (SELECT a.vec_id, a.cluster, b.e,"
    " list_sum(list_transform(b.e, v -> v * v)) AS nn"
    " FROM a JOIN base b USING (vec_id)),"
    " pairs AS (SELECT u.vec_id AS ua, x.vec_id AS xb,"
    " list_sum(list_transform(list_zip(u.e, x.e), s -> s[1] * s[2])) AS dotp,"
    " u.nn AS uu, x.nn AS vv FROM av u JOIN av x"
    " ON u.cluster = x.cluster AND u.vec_id < x.vec_id),"
    " drops AS (SELECT DISTINCT xb FROM pairs WHERE dotp > 0 AND uu > 0 AND vv > 0"
    " AND {den} * CAST(dotp AS HUGEINT) * dotp >= {num} * CAST(uu AS HUGEINT) * vv)"
    " SELECT vec_id, cluster FROM av WHERE vec_id NOT IN (SELECT xb FROM drops)"
    " ORDER BY vec_id"
).format(k=SEMDEDUP_K, num=SEMDEDUP_NUM, den=SEMDEDUP_DEN)


# ---------------------------------------------------------------------------
# text analysis (lang-ID, quality, BPE-ish tokens, chunking)
# ---------------------------------------------------------------------------

def q_doc_langid(sf_dir: str):
    """Language-ID (stopword/CJK heuristic) counts per detected lang.
    Oracle-checked since r3: the heuristic is a pure closed-form function
    of the text (CJK char ratio, marker-word hit argmax with alphabetical
    tie-break), so the DuckDB oracle replays the SAME rule with
    regexp_extract_all + list_filter.  Kernel unit-tested in
    tests/test_text_functions.py."""
    from ..functions.analysis import detect_language

    ds = read_table(sf_dir, "documents", columns=["text"])

    def detect(batch: pa.Table) -> pa.Table:
        langs = [detect_language(t)[0] for t in batch.column("text").to_pylist()]
        return pa.table({"detected": pa.array(langs, pa.string())})

    return (
        ds.map_batches(detect, batch_format="pyarrow")
        .groupby("detected")
        .aggregate(Count(alias_name="n"))
    )


def _langid_oracle_sql() -> str:
    """Replay detect_language in SQL: same word regex, same marker sets
    (imported so the two can never drift), same strict-argmax tie-break
    (alphabetical lang order, as sorted(_LANG_MARKERS) iterates)."""
    from ..functions.analysis import _LANG_MARKERS

    hit_cols = ", ".join(
        "len(list_filter(words, x -> list_contains([{}], x))) AS h_{}".format(
            ", ".join("'{}'".format(w) for w in sorted(_LANG_MARKERS[lang])), lang
        )
        for lang in sorted(_LANG_MARKERS)
    )
    best = "greatest({})".format(
        ", ".join("h_{}".format(lang) for lang in sorted(_LANG_MARKERS))
    )
    case = " ".join(
        "WHEN h_{lang} = {best} THEN '{lang}'".format(lang=lang, best=best)
        for lang in sorted(_LANG_MARKERS)
    )
    return (
        "WITH w AS (SELECT text,"
        " list_transform(regexp_extract_all(text, '[a-zA-ZÀ-ɏ'']+'), x -> lower(x)) AS words,"
        " len(regexp_extract_all(text, '[一-鿿぀-ヿ가-힯]')) AS n_cjk,"
        " greatest(1, length(text)) AS n_chars FROM documents),"
        " h AS (SELECT n_cjk, n_chars, len(words) AS n_words, " + hit_cols + " FROM w),"
        " d AS (SELECT CASE"
        " WHEN CAST(n_cjk AS DOUBLE) / n_chars > 0.15 THEN 'zh'"
        " WHEN n_words = 0 OR " + best + " = 0 THEN 'und' "
        + case
        + " END AS detected FROM h)"
        " SELECT detected, count(*) AS n FROM d GROUP BY detected"
    )


def q_doc_quality(sf_dir: str):
    """Quality signals per document (Gopher/C4-style ratios)."""
    from ..stages.dedup import round_half_away

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def signals(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n_words, mean_len, dup_ratio = [], [], []
        for t in texts:
            # split(" "), not split(): mirrors SQL string_split exactly —
            # empty text yields [''] (1 token), the oracle's semantics
            ws = t.split(" ")
            n = len(ws)
            n_words.append(n)
            mean_len.append(round_half_away(sum(len(w) for w in ws) / n, 4) if n else 0.0)
            dup_ratio.append(round_half_away(1.0 - len(set(ws)) / n, 4) if n else 0.0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(n_words, pa.int64()),
                "mean_word_len": pa.array(mean_len, pa.float64()),
                "dup_word_ratio": pa.array(dup_ratio, pa.float64()),
            }
        )

    return ds.map_batches(signals, batch_format="pyarrow")


SQL_DOC_QUALITY = (
    "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents) "
    "SELECT doc_id, len(ws) AS n_words, "
    "round(CAST(len(array_to_string(ws, '')) AS DOUBLE) / len(ws), 4) AS mean_word_len, "
    "round(1.0 - CAST(len(list_distinct(ws)) AS DOUBLE) / len(ws), 4) AS dup_word_ratio "
    "FROM w"
)

# RE2-safe (no lookahead) GPT-2-style pretokenizer, shared with the oracle
_BPE_RE2 = "'(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^\\sA-Za-z0-9]+"


def q_doc_tokens_bpe(sf_dir: str):
    """BPE-ish pretokenizer token counts (deterministic BPE-count proxy)."""
    import re as _re

    pat = _re.compile(_BPE_RE2)
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def count(batch: pa.Table) -> pa.Table:
        n = [len(pat.findall(t)) for t in batch.column("text").to_pylist()]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "n_bpe_tokens": pa.array(n, pa.int64())}
        )

    return ds.map_batches(count, batch_format="pyarrow")


SQL_DOC_TOKENS_BPE = (
    "SELECT doc_id, len(regexp_extract_all(text, "
    + "'" + _BPE_RE2.replace("'", "''") + "'"
    + ")) AS n_bpe_tokens FROM documents"
)


def q_bpe_roundtrip(sf_dir: str):
    """Learned byte-level BPE (ocr_ray.functions.bpe): merges trained on a
    64-doc sample, then every document is encoded to ids and decoded back
    on stateless tasks (the merges ride as a ``fn_kwargs`` dict).
    decode(encode(text)) == text for arbitrary unicode is the tokenizer's
    correctness contract, and it is exactly SQL-expressible: the oracle is
    the documents table itself."""
    from ..functions.bpe import BPETokenizer

    # byte-level encode/decode is the rare CPU-heavy per-row kernel here:
    # keep map parallelism even when the file is tiny (sized reads would
    # otherwise hand the whole table to one task)
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"], min_blocks=8)
    sample = ds.limit(64).take_all()
    tok = BPETokenizer.train([r["text"] for r in sample], n_merges=200)

    def round_trip(batch: pa.Table, tok: dict) -> pa.Table:
        t = BPETokenizer.from_dict(tok)
        decoded = [t.decode(t.encode(x)) for x in batch.column("text").to_pylist()]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(decoded, pa.string())}
        )

    return ds.map_batches(
        round_trip, fn_kwargs={"tok": tok.to_dict()}, batch_format="pyarrow"
    )


SQL_BPE_ROUNDTRIP = "SELECT doc_id, text FROM documents"


def q_doc_chunks(sf_dir: str):
    """Token-budget chunking (split_text + merge_texts, M11/M12): number of
    ~40-token chunks per document; the oracle is the closed form the greedy
    chunker provably yields on single-paragraph unpunctuated text."""
    from ..functions.textproc import chunk_text

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(batch: pa.Table) -> pa.Table:
        # max(1, ...): an empty document is one empty chunk (the oracle's
        # string_split semantics — split('') is [''], 1 <= 48 -> 1 chunk)
        n = [max(1, len(chunk_text(t, 40))) for t in batch.column("text").to_pylist()]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "n_chunks": pa.array(n, pa.int64())}
        )

    return ds.map_batches(chunks, batch_format="pyarrow")


SQL_DOC_CHUNKS = (
    "SELECT doc_id, CASE WHEN len(string_split(text, ' ')) <= 48 THEN 1 "
    "ELSE CAST(ceil(len(string_split(text, ' ')) / 40.0) AS BIGINT) END AS n_chunks "
    "FROM documents"
)


def q_pii_redact(sf_dir: str):
    """PII scrubbing (training-data hygiene): emails and phone-like digit
    runs replaced with typed placeholders, vectorized per batch.  The
    patterns are RE2-safe so the DuckDB oracle runs the SAME regexes."""
    from ..functions.cleaners import redact_pii

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def redact(batch: pa.Table) -> pa.Table:
        out = [redact_pii(t) for t in batch.column("text").to_pylist()]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(out, pa.string())}
        )

    return ds.map_batches(redact, batch_format="pyarrow")


SQL_PII_REDACT = (
    "SELECT doc_id, regexp_replace(regexp_replace(text, "
    "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z][A-Za-z]+', '<EMAIL>', 'g'), "
    "'\\+?[0-9][0-9()\\- ]{7,}[0-9]', '<PHONE>', 'g') AS text FROM documents"
)


def q_contamination(sf_dir: str):
    """Benchmark-contamination flagging: every 100th document is the
    'held-out benchmark'; a corpus document is contaminated if it shares
    at least one word-3gram shingle with any benchmark document.  The
    benchmark shingle set is the broadcast small side (ray.put once);
    the corpus streams through one map_batches."""
    from ..stages.joins import _collect_small

    def shingle_strs(text: str) -> set:
        # same shingle definition as the dedup oracle SQL (word 3-grams,
        # whole text when under 3 words); STRINGS not hashes, so the
        # DuckDB comparison is exact (no crc collision false-positives)
        words = text.split()
        if len(words) < 3:
            return {" ".join(words)} if words else set()
        return {" ".join(words[i : i + 3]) for i in range(len(words) - 2)}

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def pick_bench(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id").to_pylist())
        return batch.filter(pa.array(ids % 100 == 0))

    # benchmark side: filtered in the pipeline, collected small-by-contract
    # (a real benchmark is a fixed small file, never corpus-scale)
    bench = _collect_small(ds.map_batches(pick_bench, batch_format="pyarrow"))
    bench_shingles: set = set()
    if bench is not None:
        for t in bench.column("text").to_pylist():
            bench_shingles.update(shingle_strs(t))
    ref = ray.put(bench_shingles)

    def flag(batch: pa.Table) -> pa.Table:
        bset = ray.get(ref)
        keep = [
            i for i, t in enumerate(batch.column("text").to_pylist())
            if not bset.isdisjoint(shingle_strs(t))
        ]
        return batch.take(pa.array(keep, pa.int64())).select(["doc_id"])

    return ds.map_batches(flag, batch_format="pyarrow")


SQL_CONTAMINATION = (
    _JACCARD_SHINGLE_SQL
    + ", bench AS (SELECT DISTINCT s FROM g, unnest(g.sh) AS u(s) "
    "WHERE g.doc_id % 100 = 0) "
    "SELECT g.doc_id FROM g WHERE EXISTS "
    "(SELECT 1 FROM bench, unnest(g.sh) AS u(s) WHERE bench.s = u.s)"
)


# ---------------------------------------------------------------------------
# sessionization (interval-merge over event time: combine_adjacent, G2)
# ---------------------------------------------------------------------------

def q_events_sessionize(sf_dir: str):
    """Per-user sessionization: events sorted by ts merge into sessions
    while the gap stays <= 30 min — the 1-D interval-merge semantics of
    functions.intervals.combine_adjacent (G2), vectorized.  The shuffle is
    by user-HASH-BUCKET, and inside each bucket ONE pandas
    sort + shift/diff sessionizes every user at once (per-key map_groups
    calls were measured 10x slower; VERDICT r2 #5, the running_window
    shape)."""
    import pandas as pd

    from ..stages.groupagg import bucketed_map_groups

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="stable")
        new_user = g["user_id"].ne(g["user_id"].shift())
        new_sess = new_user | (g["ts"].diff() > pd.Timedelta(minutes=30))
        out = (
            g.assign(__new=new_sess.astype("int64"))
            .groupby("user_id", sort=True)
            .agg(n_sessions=("__new", "sum"), n_events=("__new", "size"))
            .reset_index()
        )
        return out

    return bucketed_map_groups(ds, ["user_id"], per_bucket, batch_format="pandas")


SQL_EVENTS_SESSIONIZE = (
    "WITH x AS (SELECT user_id, ts, CASE WHEN lag(ts) OVER w IS NULL "
    "OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_s "
    "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)) "
    "SELECT user_id, CAST(sum(new_s) AS BIGINT) AS n_sessions, count(*) AS n_events "
    "FROM x GROUP BY user_id"
)


def q_split_counts(sf_dir: str):
    """Deterministic train/test split by key (train_test_split analog, O7)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def tag(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id").to_pylist())
        split = np.where(ids % 5 == 0, "test", "train")
        return pa.table({"split": pa.array(split.tolist(), pa.string())})

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("split")
        .aggregate(Count(alias_name="n"))
    )


SQL_SPLIT_COUNTS = (
    "SELECT CASE WHEN doc_id % 5 = 0 THEN 'test' ELSE 'train' END AS split, "
    "count(*) AS n FROM documents GROUP BY 1"
)


def q_doc_select_budget(sf_dir: str):
    """Token-budget corpus selection (the filter_texts max_total_length
    semantics, F10, applied corpus-wide): keep documents in doc_id order
    while the running word total stays <= 10000.  The running total is a
    DISTRIBUTED prefix-sum scan (stages.joins.bucketed_prefix_sum) — no
    global sort and no driver-side row materialization."""
    from ..stages.joins import bucketed_prefix_sum

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def n_words(batch: pa.Table) -> pa.Table:
        n = [len(t.split()) for t in batch.column("text").to_pylist()]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "n_words": pa.array(n, pa.int64())}
        )

    # bucket count must stay driver-small: ~8k buckets regardless of corpus
    # size (parquet row count is metadata, not a scan)
    n_rows = ds.count()
    rt = bucketed_prefix_sum(
        ds.map_batches(n_words, batch_format="pyarrow"),
        key="doc_id", value="n_words", out_col="rt",
        bucket_size=max(64, n_rows // 8192),
    )

    def keep(batch: pa.Table) -> pa.Table:
        out = batch.filter(pc.less_equal(batch.column("rt"), pa.scalar(10000)))
        return out.select(["doc_id"])

    return rt.map_batches(keep, batch_format="pyarrow")


SQL_DOC_SELECT_BUDGET = (
    "SELECT doc_id FROM (SELECT doc_id, sum(len(string_split(text, ' '))) "
    "OVER (ORDER BY doc_id) AS rt FROM documents) WHERE rt <= 10000"
)


def q_distinct_tokens_hll(sf_dir: str):
    """Approximate distinct-token count over the corpus via HyperLogLog:
    one 4096-register partial per batch (map_batches), register-wise-max
    merge on the driver over the tiny partials — the mergeable-sketch
    aggregation shape.  Approximate by design -> rows-only; the pytest
    gate pins the estimate within 3% of the exact count."""
    from ..functions import sketches

    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        # one flattened Arrow token stream per batch straight into the
        # vectorized hash kernel — no per-doc loop, no per-token sha1
        toks = pc.list_flatten(
            pc.utf8_split_whitespace(
                pc.fill_null(batch.column("text"), "").combine_chunks()
            )
        )
        toks = toks.filter(pc.greater(pc.binary_length(toks), 0))
        regs = sketches.hll_empty()
        sketches.hll_add(regs, toks)
        return pa.table({"registers": pa.array([regs.tobytes()], pa.binary())})

    def merge_regs(tbl: pa.Table) -> pa.Table:
        bufs = tbl.column("registers").to_pylist()
        if not bufs:
            return tbl
        acc = np.maximum.reduce(
            np.stack([np.frombuffer(b, dtype=np.uint8) for b in bufs])
        )
        return pa.table({"registers": pa.array([acc.tobytes()], pa.binary())})

    # in-cluster tree merge (VERDICT r4 #4): register-max is associative/
    # commutative, so the driver folds <= n_buckets pre-merged rows
    from ..stages.groupagg import tree_merge_partials

    regs = sketches.hll_empty()
    for r in tree_merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"), merge_regs
    ):
        regs = sketches.hll_merge(regs, np.frombuffer(r["registers"], dtype=np.uint8))
    return pa.table(
        {"distinct_tokens_est": pa.array([int(round(sketches.hll_estimate(regs)))],
                                         pa.int64())}
    )


def q_top_tokens_mg(sf_dir: str):
    """Heavy hitters via Misra-Gries candidates + an exact verify pass —
    the two-pass sketch-gated top-k.  Pass 1 keeps one 256-counter MG
    summary per batch (an exact per-batch value_counts IS a zero-error MG
    summary; ``mg_merge`` trims it to K counters keeping the additive n/K
    bound), merged on the driver over the tiny partials.  The MG guarantee
    — every token with true count > n/K survives — makes the candidate set
    a superset of any top-20 whose 20th count exceeds n/K, so pass 2
    computes EXACT counts restricted to the <=255 broadcast candidates and
    the result equals the exact SQL top-20 (oracle-checked), while the
    wide shuffle carries <=K distinct tokens instead of the whole
    vocabulary — the 100-TB win over the plain top_tokens groupby."""
    from ..functions import sketches

    K = 256

    def partial(batch: pa.Table) -> pa.Table:
        tokens = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        vc = tokens.value_counts()
        exact = dict(
            zip(vc.field("values").to_pylist(),
                (int(c) for c in vc.field("counts").to_pylist()))
        )
        summ = sketches.mg_merge(exact, sketches.mg_empty(), k=K)
        items = sorted(summ)
        return pa.table(
            {
                "items": pa.array([items], pa.list_(pa.string())),
                "counts": pa.array(
                    [[summ[i] for i in items]], pa.list_(pa.int64())
                ),
            }
        )

    def merge_summaries(tbl: pa.Table) -> pa.Table:
        items_col = tbl.column("items").to_pylist()
        counts_col = tbl.column("counts").to_pylist()
        if not items_col:
            return tbl
        acc = sketches.mg_empty()
        for its, cts in zip(items_col, counts_col):
            acc = sketches.mg_merge(
                acc, dict(zip(its, (int(c) for c in cts))), k=K
            )
        items = sorted(acc)
        return pa.table(
            {
                "items": pa.array([items], pa.list_(pa.string())),
                "counts": pa.array([[acc[i] for i in items]], pa.list_(pa.int64())),
            }
        )

    # in-cluster tree merge (VERDICT r4 #4): MG merges are order-insensitive
    # in their guarantee (total decrement <= n/(K+1) regardless of merge
    # tree — Agarwal et al. 2012), so the candidate-superset property the
    # exact verify pass relies on survives the tree shape
    from ..stages.groupagg import tree_merge_partials

    summ = sketches.mg_empty()
    for r in tree_merge_partials(
        read_table(sf_dir, "documents", columns=["text"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        merge_summaries,
    ):
        summ = sketches.mg_merge(
            summ, dict(zip(r["items"], (int(c) for c in r["counts"]))), k=K
        )
    cand_arr = pa.array(sorted(summ))  # built ONCE, not per batch

    def count_cand(batch: pa.Table) -> pa.Table:
        tokens = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        vc = pc.filter(
            tokens, pc.is_in(tokens, value_set=cand_arr)
        ).value_counts()
        return pa.table(
            {
                "token": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    return (
        read_table(sf_dir, "documents", columns=["text"])
        .map_batches(count_cand, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
        .sort(["n", "token"], descending=[True, False])
        .limit(20)
    )


SQL_TOP_TOKENS_MG = (
    "SELECT token, count(*) AS n FROM "
    "(SELECT unnest(string_split(text, ' ')) AS token FROM documents) "
    "GROUP BY token ORDER BY n DESC, token ASC LIMIT 20"
)


def q_knn_ivf(sf_dir: str):
    """IVF approximate kNN (ocr_ray.stages.similarity): k-means coarse
    quantizer, probe-limited scan.  Approximate by design -> rows-only
    check; recall vs brute force pinned in tests."""
    from .queries import _query_vector
    from ..stages.similarity import ivf_topk

    q = _query_vector(sf_dir)
    emb = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    ids = ivf_topk(emb, q, k=10, n_clusters=8, nprobe=4)
    return pa.table({"vec_id": pa.array(ids, pa.int64())})


def q_knn_ivf_indexed(sf_dir: str):
    """IVF with the CLUSTER-PARTITIONED layout (stages.similarity
    ivf_build_index / ivf_search_index): the corpus is written bucketed by
    coarse centroid once, then the query reads ONLY its nprobe clusters'
    partitions (probe-limited scan).  Approximate by design -> rows-only;
    the probe-limited-read property is pinned in pytest."""
    import shutil
    import tempfile

    from .queries import _query_vector
    from ..stages.similarity import ivf_build_index, ivf_search_index

    q = _query_vector(sf_dir)
    emb = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    index_dir = tempfile.mkdtemp(prefix="ivf_index_", dir="/tmp")
    try:
        ivf_build_index(emb, index_dir, n_clusters=8)
        ids = ivf_search_index(index_dir, q, k=10, nprobe=4)
    finally:
        shutil.rmtree(index_dir, ignore_errors=True)
    return pa.table({"vec_id": pa.array(ids, pa.int64())})


def q_events_lead_lag(sf_dir: str):
    """Window navigation functions (LAG/LEAD) over per-user event streams:
    for every event, the microsecond gap to the user's previous event and
    the type of the next one.  Same plan shape as events_sessionize: ONE
    user-hash-bucket shuffle, then one vectorized sort + shift per bucket
    task answers every user at once — never a per-key Python call.  Ties
    on ts are broken by event_id on both sides so the oracle is
    deterministic."""
    import pandas as pd

    from ..stages.groupagg import bucketed_map_groups

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        uid = g["user_id"].to_numpy()
        same_prev = np.empty(len(g), dtype=bool)
        same_prev[0] = False
        same_prev[1:] = uid[1:] == uid[:-1]
        gap = np.full(len(g), -1, dtype=np.int64)
        gap[1:] = np.where(same_prev[1:], ts[1:] - ts[:-1], -1)
        nxt = np.full(len(g), "", dtype=object)
        et = g["event_type"].to_numpy()
        nxt[:-1] = np.where(same_prev[1:], et[1:], "")
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "prev_gap_us": gap,
                "next_type": nxt,
            }
        )

    return bucketed_map_groups(ds, ["user_id"], per_bucket, batch_format="pandas")


SQL_EVENTS_LEAD_LAG = (
    "SELECT event_id, COALESCE(CAST(date_diff('microseconds', lag(ts) OVER w, ts)"
    " AS BIGINT), -1) AS prev_gap_us, COALESCE(lead(event_type) OVER w, '')"
    " AS next_type FROM events"
    " WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
)


def q_orders_left_join(sf_dir: str):
    """LEFT OUTER join through the size-aware planner: every order keeps
    its row, orders whose customer has no events get n_user_events = 0.
    The per-user event counts pre-aggregate map-side into a small right
    table, so auto_join takes the broadcast path (ray.put once, pc.index_in
    per batch) — at 100 TB the orders side streams untouched and only the
    dimension-sized count table moves."""
    from ..stages.joins import auto_join

    from ..stages.groupagg import bucketed_group_agg

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    # user_id is USER-cardinality: bucketed fold (r5)
    counts = bucketed_group_agg(
        read_table(sf_dir, "events", columns=["user_id"]),
        ["user_id"],
        {"n_user_events": ("count", None)},
    )
    joined = auto_join(
        orders, counts, on="o_custkey", right_on="user_id", join_type="left_outer"
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = pc.fill_null(pc.cast(batch.column("n_user_events"), pa.int64()), 0)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "o_totalprice": batch.column("o_totalprice"),
                "n_user_events": n,
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


SQL_ORDERS_LEFT_JOIN = (
    "SELECT o.o_orderkey, o.o_totalprice, COALESCE(e.n, 0) AS n_user_events "
    "FROM orders o LEFT JOIN (SELECT user_id, count(*) AS n FROM events "
    "GROUP BY user_id) e ON o.o_custkey = e.user_id"
)


EXT_QUERIES = {
    "events_lead_lag": q_events_lead_lag,
    "orders_left_join": q_orders_left_join,
    "minhash_dedup": q_minhash_dedup,
    "dedup_clusters": q_dedup_clusters,
    "ngram_jaccard": q_ngram_jaccard,
    "simhash_dedup": q_simhash_dedup,
    "embedding_neardup": q_embedding_neardup,
    "semantic_dedup": q_semantic_dedup,
    "doc_langid": q_doc_langid,
    "doc_quality": q_doc_quality,
    "doc_tokens_bpe": q_doc_tokens_bpe,
    "bpe_roundtrip": q_bpe_roundtrip,
    "doc_chunks": q_doc_chunks,
    "events_sessionize": q_events_sessionize,
    "split_counts": q_split_counts,
    "doc_select_budget": q_doc_select_budget,
    "pii_redact": q_pii_redact,
    "contamination": q_contamination,
    "knn_ivf": q_knn_ivf,
    "knn_ivf_indexed": q_knn_ivf_indexed,
    "distinct_tokens_hll": q_distinct_tokens_hll,
    "top_tokens_mg": q_top_tokens_mg,
}

EXT_ORACLE_SQL = {
    "events_lead_lag": SQL_EVENTS_LEAD_LAG,
    "orders_left_join": SQL_ORDERS_LEFT_JOIN,
    "minhash_dedup": SQL_MINHASH_DEDUP,
    "dedup_clusters": SQL_DEDUP_CLUSTERS,
    "ngram_jaccard": SQL_NGRAM_JACCARD,
    "simhash_dedup": SQL_SIMHASH_DEDUP,
    "doc_langid": _langid_oracle_sql(),
    "embedding_neardup": SQL_EMBEDDING_NEARDUP,
    "semantic_dedup": SQL_SEMANTIC_DEDUP,
    "doc_quality": SQL_DOC_QUALITY,
    "doc_tokens_bpe": SQL_DOC_TOKENS_BPE,
    "bpe_roundtrip": SQL_BPE_ROUNDTRIP,
    "doc_chunks": SQL_DOC_CHUNKS,
    "events_sessionize": SQL_EVENTS_SESSIONIZE,
    "split_counts": SQL_SPLIT_COUNTS,
    "doc_select_budget": SQL_DOC_SELECT_BUDGET,
    "pii_redact": SQL_PII_REDACT,
    "contamination": SQL_CONTAMINATION,
    # exact since r4: the MG candidate set provably covers the true top-20
    # (rank-20 count ~900 vs n/K ~110 on the testdata), so the two-pass
    # pipeline's output equals the exact heavy-hitter SQL
    "top_tokens_mg": SQL_TOP_TOKENS_MG,
}
