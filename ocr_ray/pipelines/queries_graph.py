"""Graph analytics over synthesized link graphs: integer-exact iterative
PageRank and degree-oriented triangle counting.

Two algorithm classes the rest of the registry doesn't cover: a
FIXED-ITERATION-COUNT algorithm whose every round is a full shuffle (edge
join + inflow aggregate), and a combinatorial-enumeration one whose cost
is bounded by an orientation trick rather than by the data layout.  The
web-curation motivation is direct — link-graph centrality is the classic
page-quality prior, and triangle density is the classic link-farm /
community signal (the original uses of the web graph these
Common-Crawl-style pages come from).

Exactness contract (what makes the DuckDB oracle bitwise): all rank mass
is INTEGER micro-units, so the per-round aggregation is order-independent
(float PageRank would hash-mismatch on summation order):

    R0(v)        = 10^12
    share(e)     = (R(src) * 85 // 100) // outdeg(src)   per edge
    R'(v)        = 10^12 * 15 // 100  +  sum of incoming shares

(integer-division dust and dangling-node mass simply vanish — both sides
implement the same contract).  The edge multiset is a pure function of
the documents table: doc d emits src = d % N, dst = (d * 7 + 3) % N,
skipping self-loops, N = 97 — so the oracle rebuilds it in SQL.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Count, Sum

from ..sources.io import read_table
from ..stages.dedup import distinct_rows
from ..stages.groupagg import bucketed_group_agg, bucketed_map_groups
from ..stages.joins import auto_join

N_NODES = 97
N_ITERS = 5
_R0 = 10**12
_BASE = _R0 * 15 // 100


def _edges(sf_dir: str) -> ray.data.Dataset:
    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def emit(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        src = d % N_NODES
        dst = (d * 7 + 3) % N_NODES
        keep = src != dst
        return pa.table(
            {
                "src": pa.array(src[keep], pa.int64()),
                "dst": pa.array(dst[keep], pa.int64()),
            }
        )

    return ds.map_batches(emit, batch_format="pyarrow")


def q_pagerank(sf_dir: str):
    """5 exact PageRank rounds over the synthesized doc link graph.

    Size-planned like triangle_count / connected_components (r5): the edge
    MULTISET first collapses to a weighted (src, dst, w) table — one
    bucketed fold, <= #nodes^2 rows regardless of corpus size.  When that
    table PROVES small (size_bytes under the 64 MB broadcast limit) the 5
    integer rounds run in ONE numpy kernel (int64 scatter-adds — bitwise
    the same contract), replacing ~15 all-to-alls whose fixed per-stage
    cost dominates small graphs (measured 5.3 s -> ~0.4 s at sf0.1's
    97-node graph).  Past the limit, the distributed path below keeps the
    rank table DATASET-RESIDENT throughout (no driver structure
    proportional to #nodes).

    Distributed scale shape per round: ranks join weighted edges on src
    via the size-planned ``auto_join`` (ranks broadcasts while #nodes rows
    stay under the limit, hash-partitions past it), one bucketed
    groupby(dst) sum for the inflow, one left-outer join against the
    static node table to fold the base mass back in.  Each round's rank
    Dataset is ``materialize()``d — the per-iteration barrier every
    iterative algorithm needs (and what makes ``auto_join``'s size probe
    free instead of a lineage re-execution)."""
    import pyarrow.compute as pc

    from ..stages.joins import BROADCAST_BYTES

    edges = _edges(sf_dir)
    # (src, dst) is node^2-bounded: the weighted edge table is the ONLY
    # corpus-sized reduction either path needs
    wedges = bucketed_group_agg(
        edges, ["src", "dst"], {"w": ("count", None)}
    ).materialize()

    size = wedges.size_bytes()
    if size is not None and size <= BROADCAST_BYTES:
        # ---- provably-small graph: one in-driver integer kernel ----
        wt = pa.concat_tables(ray.get(wedges.to_arrow_refs()))
        src = wt.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = wt.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        w = wt.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        outdeg = np.zeros(N_NODES, np.int64)
        np.add.at(outdeg, src, w)
        r = np.full(N_NODES, _R0, np.int64)
        for _ in range(N_ITERS):
            # per-EDGE share; each multiset copy contributes one share
            share = (r[src] * 85 // 100) // outdeg[src]
            inflow = np.zeros(N_NODES, np.int64)
            np.add.at(inflow, dst, share * w)  # int64 scatter-add: exact
            r = _BASE + inflow
        return pa.table(
            {
                "node": pa.array(np.arange(N_NODES, dtype=np.int64), pa.int64()),
                "rank": pa.array(r, pa.int64()),
            }
        )

    # ---- distributed path: rank table Dataset-resident ----
    deg = bucketed_group_agg(wedges, ["src"], {"outdeg": ("sum", "w")})
    edges_deg = auto_join(wedges, deg, on="src").materialize()

    nodes = ray.data.range(N_NODES).map_batches(
        lambda b: pa.table({"node": pc.cast(b.column("id"), pa.int64())}),
        batch_format="pyarrow",
    ).materialize()
    ranks = nodes.map_batches(
        lambda b: b.append_column(
            "r", pa.array(np.full(b.num_rows, _R0, np.int64), pa.int64())
        ),
        batch_format="pyarrow",
    ).materialize()

    def shares(batch: pa.Table) -> pa.Table:
        rs = batch.column("r").to_numpy(zero_copy_only=False).astype(np.int64)
        deg_v = batch.column("outdeg").to_numpy(zero_copy_only=False)
        w_v = batch.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        # per-edge share times the edge's multiset weight (exact int64)
        share = ((rs * 85 // 100) // deg_v) * w_v
        return pa.table(
            {"dst": batch.column("dst"), "share": pa.array(share, pa.int64())}
        )

    def fold_base(batch: pa.Table) -> pa.Table:
        inflow = pc.fill_null(pc.cast(batch.column("inflow"), pa.int64()), 0)
        return pa.table(
            {
                "node": batch.column("node"),
                "r": pc.add(inflow, pa.scalar(_BASE, pa.int64())),
            }
        )

    for _ in range(N_ITERS):
        inflow = bucketed_group_agg(
            auto_join(edges_deg, ranks, on="src", right_on="node").map_batches(
                shares, batch_format="pyarrow"
            ),
            ["dst"],
            {"inflow": ("sum", "share")},  # dst is node-cardinality (r5)
        ).materialize()  # <= #nodes rows; keeps auto_join's size probe
        # from re-executing the round's shuffle
        ranks = (
            auto_join(nodes, inflow, on="node", right_on="dst", join_type="left_outer")
            .map_batches(fold_base, batch_format="pyarrow")
            .materialize()
        )

    return ranks.sort("node").map_batches(
        lambda b: pa.table(
            {"node": b.column("node"), "rank": b.column("r")}
        ),
        batch_format="pyarrow",
    )


def _sql_pagerank() -> str:
    # unrolled iterations: pr0 -> pr1 -> ... (recursive CTEs cannot
    # aggregate in the recursive term, so generate the chain)
    parts = [
        "WITH nodes AS (SELECT CAST(s['i'] AS BIGINT) AS node FROM "
        "(SELECT unnest(list_transform(range({n}), i -> struct_pack(i := i))) AS s)),"
        " edges AS (SELECT doc_id % {n} AS src, (doc_id * 7 + 3) % {n} AS dst"
        " FROM documents WHERE doc_id % {n} <> (doc_id * 7 + 3) % {n}),"
        " deg AS (SELECT src, count(*) AS outdeg FROM edges GROUP BY 1),"
        " pr0 AS (SELECT node, CAST({r0} AS BIGINT) AS r FROM nodes)".format(
            n=N_NODES, r0=_R0
        )
    ]
    for i in range(N_ITERS):
        parts.append(
            ", inflow{j} AS (SELECT e.dst, sum((p.r * 85 // 100) // d.outdeg) AS f"
            " FROM edges e JOIN deg d ON e.src = d.src"
            " JOIN pr{i} p ON p.node = e.src GROUP BY e.dst),"
            " pr{j} AS (SELECT n.node,"
            " CAST({base} + coalesce(i.f, 0) AS BIGINT) AS r"
            " FROM nodes n LEFT JOIN inflow{j} i ON i.dst = n.node)".format(
                i=i, j=i + 1, base=_BASE
            )
        )
    parts.append(
        " SELECT node, r AS rank FROM pr{} ORDER BY node".format(N_ITERS)
    )
    return "".join(parts)


SQL_PAGERANK = _sql_pagerank()


# ---------------------------------------------------------------------------
# triangle counting (degree-oriented wedge enumeration)
# ---------------------------------------------------------------------------

def _tri_edges(sf_dir: str) -> ray.data.Dataset:
    """Denser synthetic link graph than the PageRank one (whose dst is a
    pure function of src, so it has exactly one 3-cycle): dst also mixes
    doc_id // N so each node accumulates many distinct neighbours."""
    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def emit(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        src = d % N_NODES
        dst = (d * 7 + (d // N_NODES) * 13 + 3) % N_NODES
        keep = src != dst
        src, dst = src[keep], dst[keep]
        return pa.table(
            {
                "lo": pa.array(np.minimum(src, dst), pa.int64()),
                "hi": pa.array(np.maximum(src, dst), pa.int64()),
            }
        )

    return ds.map_batches(emit, batch_format="pyarrow")


def _pairs_within_groups(group_key: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """Vectorized all-(i<j)-pairs-within-consecutive-groups index kernel:
    given a SORTED group id array, return (i_idx, j_idx) for every ordered
    pair inside each group — no Python loop over groups or pairs."""
    n = len(group_key)
    if n == 0:
        z = np.empty(0, np.int64)
        return z, z
    new = np.empty(n, bool)
    new[0] = True
    new[1:] = group_key[1:] != group_key[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, n))
    ends = np.repeat(starts + counts, counts)  # exclusive group end per row
    reps = ends - np.arange(n) - 1  # pairs where this row is the FIRST element
    total = int(reps.sum())
    i_idx = np.repeat(np.arange(n), reps)
    block_starts = np.concatenate(([0], np.cumsum(reps)[:-1]))
    offset = np.arange(total) - np.repeat(block_starts, reps)
    return i_idx, (i_idx + 1 + offset)


def _triangles_small(lo: np.ndarray, hi: np.ndarray) -> "pd.DataFrame":
    """Single-task triangle kernel over a PROVABLY-SMALL distinct edge set
    (same orientation contract as the distributed path; per-node counts
    are orientation-invariant either way)."""
    import pandas as pd

    nodes, inv = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    nv = len(nodes)
    deg = np.bincount(inv, minlength=nv)
    li, hj = inv[: len(lo)], inv[len(lo):]
    # compact ids preserve original id order, so (deg, compact) ranks
    # identically to the distributed path's (deg, node) packing
    rank = deg.astype(np.int64) * (1 << 40) + np.arange(nv, dtype=np.int64)
    flip = rank[li] > rank[hj]
    a = np.where(flip, hj, li)
    b = np.where(flip, li, hj)
    order = np.lexsort((rank[b], a))
    a, b = a[order], b[order]
    i_idx, j_idx = _pairs_within_groups(a)
    u, v, w = a[i_idx], b[i_idx], b[j_idx]
    hit = np.isin(v.astype(np.int64) * nv + w, a.astype(np.int64) * nv + b)
    cnt = np.bincount(
        np.concatenate([u[hit], v[hit], w[hit]]), minlength=nv
    )
    mask = cnt > 0
    return pd.DataFrame(
        {"node": nodes[mask], "n_tri": cnt[mask].astype(np.int64)}
    )


def q_triangle_count(sf_dir: str):
    """Per-node triangle participation over the synthesized undirected doc
    link graph — the classic degree-ORIENTED wedge enumeration (each
    triangle found exactly once at its lowest-rank corner), reference
    analog: graph/cluster combination passes (utils/ocr combination).

    Size-planned like dedup's cluster stage: the distinct-edge set is the
    only corpus-sized reduction (one groupby); when it proves small
    (size_bytes under the broadcast limit) the remaining graph algebra —
    degrees, orientation, wedges, closure test — runs as ONE vectorized
    kernel instead of ~6 all-to-alls whose fixed per-stage cost dominates
    tiny graphs (measured 5.0 s -> sub-second at sf0.1's 97-node graph).
    Past the limit, the distributed path: degrees via one groupby;
    orientation rank r(v) = (deg(v), v) packed into int64 bounds every
    node's OUT-degree by O(sqrt(m)) so the wedge explosion is m^1.5
    worst-case, not sum(deg^2) (the hub blowup an unoriented enumeration
    hits on power-law graphs); wedges from a bucketed groupby + one
    vectorized pair kernel per bucket, then EXISTS-filtered against the
    oriented edge set (size-planned semi join)."""
    from ..stages.joins import BROADCAST_BYTES, _collect_small, semi_anti_join

    edges = distinct_rows(_tri_edges(sf_dir), ["lo", "hi"]).materialize()
    size = edges.size_bytes()
    if size is not None and size <= BROADCAST_BYTES:
        tbl = _collect_small(edges)
        if tbl is not None:
            return _triangles_small(
                tbl.column("lo").to_numpy(zero_copy_only=False),
                tbl.column("hi").to_numpy(zero_copy_only=False),
            )

    def explode_endpoints(batch: pa.Table) -> pa.Table:
        node = np.concatenate(
            [
                batch.column("lo").to_numpy(zero_copy_only=False),
                batch.column("hi").to_numpy(zero_copy_only=False),
            ]
        )
        return pa.table({"node": pa.array(node, pa.int64())})

    deg = bucketed_group_agg(  # node-cardinality key (r5)
        edges.map_batches(explode_endpoints, batch_format="pyarrow"),
        ["node"],
        {"deg": ("count", None)},
    )
    # orientation rank packs (deg, node) into one int64 — N_NODES < 2^20
    edges_r = auto_join(
        auto_join(edges, deg, on="lo", right_on="node"),
        deg.map_batches(
            lambda b: b.rename_columns(["node2", "deg2"]), batch_format="pyarrow"
        ),
        on="hi",
        right_on="node2",
    )

    def orient(batch: pa.Table) -> pa.Table:
        lo = batch.column("lo").to_numpy(zero_copy_only=False)
        hi = batch.column("hi").to_numpy(zero_copy_only=False)
        r_lo = batch.column("deg").to_numpy(zero_copy_only=False) * (1 << 20) + lo
        r_hi = batch.column("deg2").to_numpy(zero_copy_only=False) * (1 << 20) + hi
        flip = r_lo > r_hi
        a = np.where(flip, hi, lo)
        b = np.where(flip, lo, hi)
        ra = np.where(flip, r_hi, r_lo)
        rb = np.where(flip, r_lo, r_hi)
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "rb": pa.array(rb, pa.int64()),
                "key": pa.array(a * N_NODES + b, pa.int64()),
            }
        )

    oriented = edges_r.map_batches(orient, batch_format="pyarrow").materialize()

    def wedges(df):
        import pandas as pd

        df = df.sort_values(["a", "rb"], kind="mergesort")
        a = df["a"].to_numpy()
        b = df["b"].to_numpy()
        i_idx, j_idx = _pairs_within_groups(a)
        # rows sorted by rank within each center: pair (v, w) is already
        # orientation-ordered, so the closing edge (if any) is stored (v, w)
        return pd.DataFrame(
            {
                "u": a[i_idx],
                "v": b[i_idx],
                "w": b[j_idx],
                "key": b[i_idx] * N_NODES + b[j_idx],
            }
        )

    wedge_ds = bucketed_map_groups(oriented, ["a"], wedges, batch_format="pandas")

    tri = semi_anti_join(
        wedge_ds, oriented.select_columns(["key"]), on="key"
    )

    def explode_corners(batch: pa.Table) -> pa.Table:
        cols = [
            batch.column(c).to_numpy(zero_copy_only=False) for c in ("u", "v", "w")
        ]
        return pa.table({"node": pa.array(np.concatenate(cols), pa.int64())})

    return (
        bucketed_group_agg(  # node-cardinality key (r5)
            tri.map_batches(explode_corners, batch_format="pyarrow"),
            ["node"],
            {"n_tri": ("count", None)},
        )
        .sort("node")
    )


SQL_TRIANGLE_COUNT = (
    "WITH raw AS (SELECT doc_id % {n} AS s,"
    " (doc_id * 7 + (doc_id // {n}) * 13 + 3) % {n} AS t FROM documents),"
    " e AS (SELECT DISTINCT least(s, t) AS lo, greatest(s, t) AS hi"
    " FROM raw WHERE s <> t),"
    " tri AS (SELECT e1.lo AS a, e1.hi AS b, e2.hi AS c"
    " FROM e e1 JOIN e e2 ON e2.lo = e1.hi"
    " JOIN e e3 ON e3.lo = e1.lo AND e3.hi = e2.hi),"
    " m AS (SELECT a AS node FROM tri UNION ALL SELECT b FROM tri"
    " UNION ALL SELECT c FROM tri)"
    " SELECT node, count(*) AS n_tri FROM m GROUP BY node ORDER BY node"
).format(n=N_NODES)

#: crawl_frontier: BFS depth bound and seed count.
BFS_HOPS = 3
BFS_SEEDS = 5


def q_crawl_frontier(sf_dir: str):
    """Bounded BFS reachability over the synthetic link graph — the crawl
    scheduler's frontier expansion: from BFS_SEEDS seed pages, discover
    pages reachable within BFS_HOPS link hops and report each page's
    minimum hop count.  Per round: the frontier emits its out-links
    map-side (the closed-form cross-link rule of queries_train.link_graph
    — extraction itself is that query's job), candidates are
    anti-joined against the visited set (stages.joins.semi_anti_join —
    NOT EXISTS, the 'skip already-crawled urls' filter), and the next
    frontier is the distinct remainder.  Driver holds only per-round
    Dataset handles, never the frontier rows; at web scale each round is
    one broadcast-or-shuffle anti join."""
    import pyarrow.parquet as pq

    from ..stages.joins import semi_anti_join

    n_docs = pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")
    ).metadata.num_rows
    docs = read_table(sf_dir, "documents", columns=["doc_id"])

    def seed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.less(batch.column("doc_id"), BFS_SEEDS)
        ids = pc.filter(batch.column("doc_id"), keep)
        return pa.table(
            {"doc_id": ids, "hops": pa.array([0] * len(ids), pa.int64())}
        )

    levels = [docs.map_batches(seed, batch_format="pyarrow")]
    frontier = levels[0]
    for h in range(1, BFS_HOPS + 1):

        def expand(batch: pa.Table, _h=h) -> pa.Table:
            src = batch.column("doc_id").to_numpy()
            dst = np.unique(
                ((7 * src[:, None] + 13 * np.arange(3)[None, :] + 1) % 1000).ravel()
            )
            dst = dst[dst < n_docs]  # only existing pages
            return pa.table(
                {
                    "doc_id": pa.array(dst.astype(np.int64)),
                    "hops": pa.array(np.full(len(dst), _h, dtype=np.int64)),
                }
            )

        candidates = frontier.map_batches(expand, batch_format="pyarrow")
        visited = ray.data.Dataset.union(*levels) if len(levels) > 1 else levels[0]
        fresh = semi_anti_join(
            candidates, visited, on="doc_id", anti=True
        )
        # checkpoint each level (the q_pagerank convention): lazy frontiers
        # embed every earlier level's plan and re-expand it per round —
        # O(hops^2) redundant crawl work without this
        frontier = distinct_rows(fresh, ["doc_id", "hops"]).materialize()
        levels.append(frontier)

    all_rows = levels[0]
    for lv in levels[1:]:
        all_rows = all_rows.union(lv)
    # doc_id is frontier-cardinality: bucketed fold (r5)
    return bucketed_group_agg(
        all_rows, ["doc_id"], {"min_hops": ("min", "hops")}
    )


SQL_CRAWL_FRONTIER = (
    "WITH RECURSIVE e AS (SELECT doc_id AS src,"
    " (7 * doc_id + 13 * r.range + 1) % 1000 AS dst FROM documents,"
    " range(0, 3) r),"
    " bfs(doc_id, hops) AS ("
    " SELECT doc_id, 0 FROM documents WHERE doc_id < {seeds}"
    " UNION ALL SELECT e.dst, bfs.hops + 1 FROM bfs"
    " JOIN e ON e.src = bfs.doc_id WHERE bfs.hops < {hops}"
    " AND e.dst IN (SELECT doc_id FROM documents))"
    " SELECT doc_id, min(hops) AS min_hops FROM bfs GROUP BY doc_id"
).format(seeds=BFS_SEEDS, hops=BFS_HOPS)


GRAPH_QUERIES = {
    "crawl_frontier": q_crawl_frontier,
    "triangle_count": q_triangle_count,
    "pagerank": q_pagerank,
}
GRAPH_ORACLE_SQL = {
    "pagerank": SQL_PAGERANK,
    "triangle_count": SQL_TRIANGLE_COUNT,
    "crawl_frontier": SQL_CRAWL_FRONTIER,
}
