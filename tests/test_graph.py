"""Integer-exact PageRank (ocr_ray.pipelines.queries_graph).

Since r4 ``q_pagerank`` returns a ray Dataset (ranks stay Dataset-resident
between rounds — no driver structure proportional to #nodes); the tests
collect the small final table for assertions."""

import pyarrow as pa
import pyarrow.parquet as pq

from ocr_ray.pipelines import queries_graph as qg
from ocr_ray.sources.io import collect_tables


def _rank_table(sf_dir: str) -> pa.Table:
    out = qg.q_pagerank(sf_dir)  # the small-graph path returns a Table
    return out if isinstance(out, pa.Table) else pa.concat_tables(collect_tables(out))


def test_pagerank_mass_and_ordering(ray_session, tmp_path):
    t = pa.table({"doc_id": pa.array(range(10), pa.int64())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = _rank_table(str(tmp_path))
    ranks = dict(zip(out.column("node").to_pylist(), out.column("rank").to_pylist()))
    assert len(ranks) == qg.N_NODES
    # doc 0 emits edge 0 -> 3: dst 3 collects inflow, node 50 is isolated
    assert ranks[3] > ranks[50]
    # an isolated node holds exactly the base mass after any iteration
    assert ranks[50] == qg._BASE
    # no node exceeds the total injected mass
    assert max(ranks.values()) <= qg.N_NODES * qg._R0


def test_pagerank_deterministic(ray_session, tmp_path):
    t = pa.table({"doc_id": pa.array(range(25), pa.int64())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    a = _rank_table(str(tmp_path)).column("rank").to_pylist()
    b = _rank_table(str(tmp_path)).column("rank").to_pylist()
    assert a == b


# ---------------------------------------------------------------------------
# triangle counting
# ---------------------------------------------------------------------------

def _brute_triangles(edges):
    """All triangles of an undirected edge set, by 3-loop enumeration."""
    es = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    nodes = sorted({v for e in es for v in e})
    tri = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if (a, b) not in es:
                continue
            for c in nodes:
                if c > b and (a, c) in es and (b, c) in es:
                    tri.append((a, b, c))
    return tri


def test_pairs_within_groups_brute():
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(20):
        sizes = rng.integers(0, 6, size=rng.integers(1, 8))
        gk = np.repeat(np.arange(len(sizes)), sizes)
        i_idx, j_idx = qg._pairs_within_groups(gk)
        got = sorted(zip(i_idx.tolist(), j_idx.tolist()))
        want = []
        pos = 0
        for s in sizes:
            for i in range(pos, pos + s):
                for j in range(i + 1, pos + s):
                    want.append((i, j))
            pos += s
        assert got == sorted(want)
        assert all(gk[i] == gk[j] for i, j in got)


def test_triangle_count_vs_bruteforce(ray_session, tmp_path):
    import numpy as np
    import pyarrow.parquet as pq2

    d = np.arange(400, dtype=np.int64)
    t = pa.table({"doc_id": pa.array(d, pa.int64())})
    pq2.write_table(t, str(tmp_path / "documents.parquet"))
    src = d % qg.N_NODES
    dst = (d * 7 + (d // qg.N_NODES) * 13 + 3) % qg.N_NODES
    edges = [(int(s), int(x)) for s, x in zip(src, dst) if s != x]
    tris = _brute_triangles(edges)
    want = {}
    for a, b, c in tris:
        for v in (a, b, c):
            want[v] = want.get(v, 0) + 1
    out = qg.q_triangle_count(str(tmp_path))
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    got = dict(zip(out["node"], out["n_tri"]))
    assert got == want
    assert sum(want.values()) == 3 * len(tris)
    # the graph is dense enough that the test is non-vacuous
    assert len(tris) > 5


def test_triangle_count_distributed_path_matches_small(ray_session, tmp_path, monkeypatch):
    import numpy as np
    import pyarrow.parquet as pq2

    t = pa.table({"doc_id": pa.array(np.arange(300, dtype=np.int64), pa.int64())})
    pq2.write_table(t, str(tmp_path / "documents.parquet"))
    small = qg.q_triangle_count(str(tmp_path))
    import ocr_ray.stages.joins as joins

    monkeypatch.setattr(joins, "BROADCAST_BYTES", 0)  # force the shuffle path
    dist = qg.q_triangle_count(str(tmp_path)).to_pandas()
    assert dist["node"].tolist() == small["node"].tolist()
    assert dist["n_tri"].tolist() == small["n_tri"].tolist()
    assert small["n_tri"].sum() > 0


def test_pagerank_distributed_path_matches_small(ray_session, tmp_path, monkeypatch):
    """The size-planned split (r5): ranks from the in-driver integer
    kernel and from the Dataset-resident distributed loop must be
    IDENTICAL — both implement the same integer-microunit contract."""
    import numpy as np
    import pyarrow.parquet as pq2

    t = pa.table({"doc_id": pa.array(np.arange(300, dtype=np.int64), pa.int64())})
    pq2.write_table(t, str(tmp_path / "documents.parquet"))
    small = _rank_table(str(tmp_path)).sort_by("node")
    import ocr_ray.stages.joins as joins

    monkeypatch.setattr(joins, "BROADCAST_BYTES", 0)  # force the shuffle path
    dist = _rank_table(str(tmp_path)).sort_by("node")
    assert dist.column("node").to_pylist() == small.column("node").to_pylist()
    assert dist.column("rank").to_pylist() == small.column("rank").to_pylist()
    # non-vacuous: inflow actually moved mass
    assert max(small.column("rank").to_pylist()) > qg._BASE


def test_crawl_frontier_matches_brute_force_bfs(ray_session):
    import numpy as np
    import pandas as pd

    from ocr_ray.pipelines.queries_graph import BFS_HOPS, BFS_SEEDS, q_crawl_frontier

    got = (
        q_crawl_frontier("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    n = len(pd.read_parquet("/root/testdata/sf0.001/documents.parquet", columns=["doc_id"]))
    dist = {i: 0 for i in range(BFS_SEEDS)}
    frontier = list(dist)
    for h in range(1, BFS_HOPS + 1):
        nxt = []
        for s in frontier:
            for j in range(3):
                d = (7 * s + 13 * j + 1) % 1000
                if d < n and d not in dist:
                    dist[d] = h
                    nxt.append(d)
        frontier = nxt
    exp = pd.DataFrame(
        sorted(dist.items()), columns=["doc_id", "min_hops"]
    )
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    assert got["min_hops"].tolist() == exp["min_hops"].tolist()
