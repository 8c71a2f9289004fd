"""Dedup + ANN pipeline tests (planted-duplicate answers, recall pins)."""

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pyarrow as pa
import pytest

from ocr_ray.stages import dedup


def _docs_table(texts, ids=None):
    ids = ids if ids is not None else list(range(len(texts)))
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})


def _collect(out):
    """Dataset -> pa.Table at the test edge (the dedup pipelines return
    DATASETS since r3 so verified pairs stay distributed at corpus scale)."""
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


WORDS = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()


def _text(rng, n=40):
    return " ".join(rng.choice(WORDS) for _ in range(n))


def test_minhash_signature_tracks_jaccard():
    rng = np.random.RandomState(3)
    base = _text(rng, 60)
    near = base.rsplit(" ", 2)[0] + " xx yy"
    far = _text(rng, 60)
    sig_b = dedup.minhash_signature(base)
    sig_n = dedup.minhash_signature(near)
    sig_f = dedup.minhash_signature(far)
    sim_near = (sig_b == sig_n).mean()
    sim_far = (sig_b == sig_f).mean()
    assert sim_near > 0.6 > sim_far
    assert abs(sim_near - dedup.jaccard(base, near)) < 0.25


def test_jaccard_exact():
    assert dedup.jaccard("a b c d", "a b c d") == 1.0
    assert dedup.jaccard("a b c", "x y z") == 0.0
    assert dedup.jaccard("", "") == 1.0


def test_simhash_properties():
    rng = np.random.RandomState(5)
    t = _text(rng, 50)
    near = t + " extra"
    assert dedup.simhash64(t) == dedup.simhash64(t)
    assert dedup.hamming64(dedup.simhash64(t), dedup.simhash64(near)) <= 8
    far = " ".join(w[::-1] for w in _text(rng, 50).split())
    assert dedup.hamming64(dedup.simhash64(t), dedup.simhash64(far)) > 8


def test_minhash_lsh_finds_planted(ray_session):
    import ray.data

    rng = np.random.RandomState(11)
    texts = [_text(rng, 50) for _ in range(60)]
    # plant: exact copy of doc 3 and a one-word-perturbed copy of doc 7
    texts.append(texts[3])                                   # doc 60
    texts.append(texts[7].rsplit(" ", 1)[0] + " perturbed")  # doc 61
    tbl = _docs_table(texts)
    out = _collect(dedup.minhash_dedup_pairs(ray.data.from_arrow(tbl), threshold=0.8))
    pairs = set(zip(out.column("a").to_pylist(), out.column("b").to_pylist()))
    assert (3, 60) in pairs
    assert (7, 61) in pairs


def test_minhash_no_driver_corpus_read(ray_session, monkeypatch, tmp_path):
    """The minhash pipeline must never pq.read_table the corpus on the
    driver (the round-1 verify broadcast the whole text column via ray.put).
    Poisoning pyarrow.parquet.read_table proves the driver path is clean."""
    import pyarrow.parquet as pq_mod
    import ray.data

    from ocr_ray.pipelines.queries_ext import q_minhash_dedup

    rng = np.random.RandomState(21)
    texts = [_text(rng, 50) for _ in range(30)]
    texts.append(texts[2])
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(len(texts))), pa.int64()),
            "text": pa.array(texts),
        }
    )
    pq_mod.write_table(tbl, str(tmp_path / "documents.parquet"))

    def poisoned(*a, **k):
        raise AssertionError("driver-side pq.read_table in minhash pipeline")

    monkeypatch.setattr("ocr_ray.pipelines.queries_ext.pq.read_table", poisoned)
    out = _collect(q_minhash_dedup(str(tmp_path)))
    pairs = set(zip(out.column("a").to_pylist(), out.column("b").to_pylist()))
    assert (2, 30) in pairs


def test_verify_pairs_raises_on_missing_doc(ray_session):
    """A candidate doc_id absent from the corpus must raise, not silently
    score jaccard('', '') == 1.0 (round-1 ADVICE bug)."""
    import pytest
    import ray.data

    docs = ray.data.from_arrow(_docs_table(["a b c d e", "a b c d e"]))
    pairs = ray.data.from_arrow(
        pa.table({"a": pa.array([0], pa.int64()), "b": pa.array([99], pa.int64())})
    )
    with pytest.raises(Exception, match="no text|sides"):
        dedup.verify_pairs_against_corpus(pairs, docs, threshold=0.0).to_pandas()


def test_simhash_finds_planted(ray_session):
    import ray.data

    rng = np.random.RandomState(12)
    texts = [_text(rng, 50) for _ in range(40)]
    texts.append(texts[5])  # exact copy -> hamming 0
    out = _collect(dedup.simhash_dedup_pairs(ray.data.from_arrow(_docs_table(texts)), max_hamming=3))
    pairs = set(zip(out.column("a").to_pylist(), out.column("b").to_pylist()))
    assert (5, 40) in pairs


def test_embedding_neardup_planted(ray_session):
    import ray.data

    rng = np.random.RandomState(13)
    vecs = rng.standard_normal((50, 16))
    ids = list(range(50)) + [1000, 1001]
    all_vecs = np.vstack([vecs, vecs[4] * 1.5, vecs[9]])  # scaled copy + exact copy
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in all_vecs],
                                  pa.list_(pa.float32())),
        }
    )
    out = _collect(dedup.embedding_neardup_pairs(ray.data.from_arrow(tbl), min_cosine=0.99))
    pairs = set(zip(out.column("a").to_pylist(), out.column("b").to_pylist()))
    assert (4, 1000) in pairs  # cosine invariant to scaling
    assert (9, 1001) in pairs


def test_simhash_skew_bounded(ray_session):
    """Pathological skew: thousands of IDENTICAL docs must emit a linear
    star-pair set (n-1 pairs to the min id), not an O(n^2) clique."""
    import ray.data

    n = 2000
    texts = ["the same exact document body repeated many times"] * n
    out = _collect(dedup.simhash_dedup_pairs(ray.data.from_arrow(_docs_table(texts)), max_hamming=3))
    assert out.num_rows == n - 1
    assert set(out.column("a").to_pylist()) == {0}  # star to min id
    assert set(out.column("b").to_pylist()) == set(range(1, n))


def test_embedding_skew_bounded(ray_session):
    """Same for embeddings: one hot bucket of identical vectors emits a
    linear spanning set whose single connected component covers all ids."""
    import ray.data

    n = 1000
    vec = [0.5, -1.25, 2.0, 0.75]
    tbl = pa.table(
        {
            "vec_id": pa.array(list(range(n)), pa.int64()),
            "embedding": pa.array([vec] * n, pa.list_(pa.float32())),
        }
    )
    out = _collect(dedup.embedding_neardup_pairs(ray.data.from_arrow(tbl), min_cosine=0.95))
    assert out.num_rows == n - 1
    assert set(out.column("a").to_pylist()) == {0}
    assert set(out.column("b").to_pylist()) == set(range(1, n))


def test_embedding_multitable_recall(ray_session):
    """Recall gate vs brute force: perturbed near-dup pairs (cosine in
    [0.95, 1)) planted among random vectors; the 4-table x 8-plane union
    must recover >= 80% of the true >=0.95 pairs (deterministic seeds)."""
    import ray.data

    rng = np.random.RandomState(41)
    dims, n_base, n_planted = 32, 150, 25
    base = rng.standard_normal((n_base, dims))
    rows = [(i, base[i]) for i in range(n_base)]
    for k in range(n_planted):
        v = base[k]
        # small additive noise -> cosine ~0.96-0.995
        pert = v + rng.standard_normal(dims) * 0.12 * np.linalg.norm(v) / np.sqrt(dims)
        rows.append((10000 + k, pert))
    ids = [r[0] for r in rows]
    mat = np.stack([r[1] for r in rows])
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in mat],
                                  pa.list_(pa.float32())),
        }
    )
    # brute-force truth over the float32-rounded vectors (what the pipeline sees)
    mat32 = mat.astype(np.float32).astype(np.float64)
    unit = mat32 / np.linalg.norm(mat32, axis=1)[:, None]
    cos = unit @ unit.T
    truth = {
        (min(ids[i], ids[j]), max(ids[i], ids[j]))
        for i in range(len(ids)) for j in range(i + 1, len(ids))
        if cos[i, j] >= 0.95
    }
    assert len(truth) >= 15  # the plant worked
    out = _collect(dedup.embedding_neardup_pairs(ray.data.from_arrow(tbl), min_cosine=0.95))
    got = set(zip(out.column("a").to_pylist(), out.column("b").to_pylist()))
    assert got <= truth  # verify step admits no false positives
    assert len(got & truth) / len(truth) >= 0.8


def test_ivf_recall_vs_bruteforce(ray_session):
    import ray.data

    from ocr_ray.stages.similarity import ivf_topk

    rng = np.random.RandomState(17)
    vecs = rng.standard_normal((400, 16))
    tbl = pa.table(
        {
            "vec_id": pa.array(list(range(400)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    q = vecs[0].astype(np.float64)
    # brute force ground truth
    vecs64 = vecs.astype(np.float64)
    cos = (vecs64 @ q) / (np.linalg.norm(vecs64, axis=1) * np.linalg.norm(q))
    truth = set(np.argsort(-cos, kind="stable")[:10].tolist())
    got = set(
        ivf_topk(ray.data.from_arrow(tbl), q, k=10, n_clusters=8, nprobe=4,
                 train_sample=vecs64)
    )
    assert len(got & truth) >= 7  # recall >= 0.7 at nprobe=4/8


def test_ivf_partitioned_index_probe_limited(ray_session, tmp_path):
    """The cluster-partitioned layout: build once, then a query reads ONLY
    its nprobe partitions (probe-limited SCAN, not just scoring) and still
    reaches brute-force-comparable recall."""
    import os

    import ray.data

    from ocr_ray.stages.similarity import (
        ivf_build_index, ivf_probed_paths, ivf_search_index,
    )

    rng = np.random.RandomState(23)
    vecs = rng.standard_normal((500, 16))
    tbl = pa.table(
        {
            "vec_id": pa.array(list(range(500)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    index_dir = str(tmp_path / "ivf")
    ivf_build_index(ray.data.from_arrow(tbl), index_dir, n_clusters=8)
    # every row landed in exactly one cluster partition
    parts = [d for d in os.listdir(index_dir) if d.startswith("cluster=")]
    assert 1 < len(parts) <= 8
    import pyarrow.parquet as pq_mod

    assert pq_mod.read_table(index_dir, columns=["vec_id"]).num_rows == 500

    q = vecs[7].astype(np.float64)
    probed = ivf_probed_paths(index_dir, q, nprobe=3)
    assert len(probed) == 3  # the scan touches exactly nprobe partitions

    vecs64 = vecs.astype(np.float64)
    cos = (vecs64 @ q) / (np.linalg.norm(vecs64, axis=1) * np.linalg.norm(q))
    truth = set(np.argsort(-cos, kind="stable")[:10].tolist())
    got = set(ivf_search_index(index_dir, q, k=10, nprobe=3))
    assert len(got & truth) >= 7


def _edges_tbl(pairs):
    return pa.table(
        {
            "a": pa.array([p[0] for p in pairs], pa.int64()),
            "b": pa.array([p[1] for p in pairs], pa.int64()),
        }
    )


def test_connected_components_unionfind(ray_session):
    import ray.data

    # two components: {1,2,3,7} (chain+extra) and {10,11}
    out = _collect(dedup.connected_components(
        ray.data.from_arrow(_edges_tbl([(2, 3), (1, 2), (3, 7), (10, 11)]))
    ))
    got = dict(zip(out.column("doc_id").to_pylist(), out.column("cluster_id").to_pylist()))
    assert got == {1: 1, 2: 1, 3: 1, 7: 1, 10: 10, 11: 10}


def test_connected_components_distributed_path(ray_session):
    """broadcast_limit=0 forces min-label propagation.  The 6-node chain
    needs 5 rounds for label 0 to reach its far end, plus one round that
    sees no change and stops the loop."""
    import ray.data

    chain = [(i, i + 1) for i in range(5)]
    extra = [(100, 101), (101, 102)]
    out = _collect(dedup.connected_components(
        ray.data.from_arrow(_edges_tbl(chain + extra)), broadcast_limit=0
    ))
    got = dict(zip(out.column("doc_id").to_pylist(), out.column("cluster_id").to_pylist()))
    assert all(got[i] == 0 for i in range(6))
    assert got[100] == got[101] == got[102] == 100


def test_connected_components_raises_without_convergence(ray_session):
    """A 10-node chain needs 9 propagation rounds; with max_iters=4 the
    distributed path raises instead of returning partial labels."""
    import ray.data

    chain = ray.data.from_arrow(_edges_tbl([(i, i + 1) for i in range(9)]))
    with pytest.raises(RuntimeError, match="after 4 rounds"):
        dedup.connected_components(chain, broadcast_limit=0, max_iters=4)


def test_connected_components_paths_agree(ray_session):
    import ray.data

    rng = np.random.RandomState(5)
    pairs = set()
    while len(pairs) < 30:
        a, b = sorted(rng.randint(0, 40, size=2).tolist())
        if a != b:
            pairs.add((a, b))
    tbl = _edges_tbl(sorted(pairs))
    fast = _collect(dedup.connected_components(ray.data.from_arrow(tbl)))
    slow = _collect(dedup.connected_components(ray.data.from_arrow(tbl), broadcast_limit=0))
    assert (fast.to_pandas().sort_values("doc_id").reset_index(drop=True)
            .equals(slow.to_pandas().sort_values("doc_id").reset_index(drop=True)))


def test_minhash_skew_bounded(ray_session):
    """VERDICT r2 #1: thousands of IDENTICAL docs collide in every band
    bucket; the pipeline must emit a linear star-pair set (n-1 verified
    pairs to the min id), never an O(n^2) clique."""
    import ray.data

    n = 2000
    texts = ["common boilerplate text shared by every single document here"] * n
    out = _collect(
        dedup.minhash_dedup_pairs(ray.data.from_arrow(_docs_table(texts)), threshold=0.8)
    )
    assert out.num_rows == n - 1
    assert set(out.column("a").to_pylist()) == {0}  # star to min id
    assert set(out.column("b").to_pylist()) == set(range(1, n))


def test_minhash_pairs_from_groups_bounded():
    """Direct bound on the bucket kernel: k identical-signature docs emit
    k-1 star pairs; distinct signatures beyond the cap add at most
    C(cap, 2) representative pairs."""
    n_same, n_distinct, cap = 5000, 600, 256
    doc_ids = list(range(n_same)) + [10000 + i for i in range(n_distinct)]
    sig_hashes = [7] * n_same + [100 + i for i in range(n_distinct)]
    group = pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "sig_hash": pa.array(sig_hashes, pa.int64()),
        }
    )
    out = dedup._pairs_from_groups(group, max_distinct_per_bucket=cap)
    star = n_same - 1
    max_rep = cap * (cap - 1) // 2
    assert out.num_rows <= star + max_rep  # bounded, NOT O((n_same+n_distinct)^2)
    # the identical-signature docs all star to their min id
    a = out.column("a").to_pylist()
    b = out.column("b").to_pylist()
    star_pairs = {(x, y) for x, y in zip(a, b) if x == 0 and y < n_same}
    assert star_pairs == {(0, i) for i in range(1, n_same)}


_JWORD = st.sampled_from(["a", "b", "c", "é", "中文", "ß"])  # tiny vocabulary
_JSEP = st.sampled_from([" ", "  ", "\t", "\n", " \n\t"])
_JTEXT = st.one_of(
    st.builds(
        lambda lead, parts: lead + "".join(w + s for w, s in parts),
        st.sampled_from(["", " ", "\n"]),
        st.lists(st.tuples(_JWORD, _JSEP), max_size=14),
    ),
    st.sampled_from(["", " ", "\t\n ", "a", "a b", "é 中文", "b\ta"]),
)


@hypothesis.given(st.lists(st.tuples(_JTEXT, _JTEXT), max_size=40))
@hypothesis.settings(max_examples=300, deadline=None)
def test_jaccard_batch_bitwise_equals_scalar(pairs):
    """jaccard_batch is bit-identical (float64 array_equal) to the scalar
    jaccard on every pair: shingles repeated within a text and colliding
    across the pair, empty / whitespace-only / 1- and 2-word texts, tabs,
    newlines, non-ASCII words, both sides empty and one side empty."""
    v0 = pa.array([x for x, _ in pairs], pa.string())
    v1 = pa.array([y for _, y in pairs], pa.string())
    got = dedup.jaccard_batch(v0, v1)
    want = np.array([dedup.jaccard(x, y) for x, y in pairs], dtype=np.float64)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1])
def test_jaccard_batch_thousands_of_pairs(seed):
    """One call over thousands of pairs (a verify bucket's scale) equals
    the scalar loop; near-dup pairs share most shingles."""
    rng = np.random.default_rng(seed)
    words = np.array(["a", "b", "c", "d", "é", "中文", "x", "y"])
    base = [" ".join(rng.choice(words, rng.integers(0, 30))) for _ in range(3000)]
    other = [
        t if k % 3 == 0 else
        (t + " z" if k % 3 == 1 else " ".join(rng.choice(words, rng.integers(0, 30))))
        for k, t in enumerate(base)
    ]
    got = dedup.jaccard_batch(pa.array(base), pa.chunked_array([other[:7], other[7:]]))
    want = np.array([dedup.jaccard(x, y) for x, y in zip(base, other)])
    assert np.array_equal(got, want)


_BAND_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("band_id", pa.int32()),
     ("band_hash", pa.int64()), ("sig_hash", pa.int64())]
)

@st.composite
def _lsh_group(draw):
    """one LSH group: its band hash, whether every row shares one
    signature, and 1-40 (doc, sig) rows (straddling n = 23) — doc ids from
    a small range, so duplicate rows and docs carrying two signatures are
    common."""
    n = draw(st.integers(1, 40))
    row = st.tuples(st.integers(0, 60), st.integers(0, 3))
    return (
        draw(st.integers(-(2**63), 2**63 - 1)),
        draw(st.booleans()),
        draw(st.lists(row, min_size=n, max_size=n)),
    )


@hypothesis.given(st.lists(_lsh_group(), min_size=1, max_size=8))
@hypothesis.settings(max_examples=200, deadline=None)
def test_minhash_bucket_pairs_matches_per_group_path(groups):
    """The vectorized bucket kernel emits the same pair multiset as
    _pairs_from_groups called once per (band_id, band_hash) group of >= 2
    rows — on both sides of the n(n-1)/2 <= 256 budget (n = 23)."""
    rows = []
    for g, (band_hash, one_sig, members) in enumerate(groups):
        for doc, sig in members:
            rows.append((doc, g % 3, band_hash, 7 if one_sig else sig))
    tbl = pa.table(
        [pa.array(c, f.type) for c, f in zip(zip(*rows), _BAND_SCHEMA)],
        schema=_BAND_SCHEMA,
    )
    by_key = {}
    for doc, band, bh, sig in rows:
        by_key.setdefault((band, bh), []).append((doc, sig))
    want = []
    for members in by_key.values():
        if len(members) < 2:
            continue
        out = dedup._pairs_from_groups(
            pa.table({"doc_id": [d for d, _ in members], "sig_hash": [s for _, s in members]})
        )
        want += zip(out.column("a").to_pylist(), out.column("b").to_pylist())
    got = dedup._minhash_bucket_pairs(tbl)
    assert got.schema == dedup._EMPTY_PAIRS.schema
    assert sorted(zip(got.column("a").to_pylist(), got.column("b").to_pylist())) == sorted(want)


def test_bucketed_group_apply_contiguous_output(ray_session):
    """A per-group kernel's one-table-per-group outputs reach the next
    shuffle as at most one chunk per bucket in every output block (they
    were one chunk per GROUP, which made the next all-to-all ~20x
    slower)."""
    import ray
    import ray.data

    from ocr_ray.sources.io import cpu_count

    n_groups = 2500
    keys = np.repeat(np.arange(n_groups, dtype=np.int64), 2)
    ds = ray.data.from_arrow(pa.table({"k": keys, "v": np.arange(keys.size)}))
    out = dedup.bucketed_group_apply(
        ds,
        ("k",),
        lambda g: pa.table({"k": g.column("k").slice(0, 1)}),
        empty_result=pa.table({"k": pa.array([], pa.int64())}),
        min_group_size=2,
    )
    n_buckets = 8 * max(4, cpu_count())
    seen = []
    for ref in out.to_arrow_refs():
        block = ray.get(ref)
        assert all(col.num_chunks <= n_buckets for col in block.columns)
        seen += block.column("k").to_pylist()
    assert sorted(seen) == list(range(n_groups))


def test_semantic_dedup_hand_built(ray_session, tmp_path):
    """SemDeDup query on a hand-built embeddings table: pins the drop rule
    (earlier neighbor at quantized cosine >= 0.95 in the same cluster),
    the argmin-L2 tie-break to the lowest cluster id, the in-batch
    planting (vec_id%10==0 -> +100000 exact copies, always dropped), and
    the zero-vector guard (cosine undefined -> kept)."""
    import pyarrow.parquet as pq_mod

    from ocr_ray.pipelines.queries_ext import q_semantic_dedup

    vecs = [
        [1.0, 0.0, 0.0, 0.0],   # 0 (centroid 0)
        [0.0, 1.0, 0.0, 0.0],   # 1 (centroid 1)
        [0.0, 0.0, 1.0, 0.0],   # 2
        [0.0, 0.0, 0.0, 1.0],   # 3
        [-1.0, 0.0, 0.0, 0.0],  # 4
        [0.0, -1.0, 0.0, 0.0],  # 5
        [0.0, 0.0, -1.0, 0.0],  # 6
        [0.0, 0.0, 0.0, -1.0],  # 7 (centroid 7)
        [1.0, 1.0, 0.0, 0.0],   # 8 -> tie c0/c1 -> cluster 0; cos .707 kept
        [0.0, 0.0, 0.0, 1.0],   # 9 exact copy of 3 -> organic drop
        [0.5, 0.0, 0.5, 0.0],   # 10 -> cluster 0 (tie c0/c2); cos .707/.5
        [0.0, 0.0, 0.0, 0.0],   # 11 zero vector -> kept (cos undefined)
    ]
    tbl = pa.table(
        {
            "vec_id": pa.array(list(range(12)), pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        }
    )
    pq_mod.write_table(tbl, str(tmp_path / "embeddings.parquet"))

    out = _collect(q_semantic_dedup(str(tmp_path)))
    got = dict(zip(out.column("vec_id").to_pylist(), out.column("cluster").to_pylist()))
    # planted 100000/100010 dropped (exact copies of 0/10); 9 dropped (copy
    # of 3, 3 < 9); everything else kept with its argmin cluster
    assert got == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7,
                   8: 0, 10: 0, 11: 0}


def test_semantic_dedup_rejects_sparse_seed_ids(ray_session, tmp_path):
    """Centroids are vec_ids 0..K-1; a missing low id (3 here) must fail
    loudly, not seed from fewer rows than the oracle's cluster ids."""
    import pyarrow.parquet as pq_mod
    import pytest as _pytest

    from ocr_ray.pipelines.queries_ext import q_semantic_dedup

    ids = [0, 1, 2, 4, 5, 6, 7, 8, 9, 10]
    vecs = [[float(i % 4 == j) for j in range(4)] for i in ids]
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        }
    )
    pq_mod.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    with _pytest.raises(ValueError, match=r"vec_id 0\.\.7"):
        q_semantic_dedup(str(tmp_path))


def test_rare_shingle_pairs_df_cap_bounds_hot_shingle(ray_session, tmp_path):
    """A shingle shared by MANY docs (df above the cap) must emit ZERO
    pairs — the blocking rule's skew bound; a shingle with df in window
    still pairs its docs when they share >= 2 such shingles."""
    import pyarrow.parquet as pq_mod

    from ocr_ray.pipelines.queries_cc import q_rare_shingle_pairs

    hot = "alpha beta gamma"          # shared by ALL 40 docs -> df 40 > cap
    rare_a = "delta eps zeta"         # docs 0 and 1 only
    rare_b = "eta theta iota"         # docs 0 and 1 only
    texts = []
    for i in range(40):
        if i < 2:
            texts.append(hot + " x" + " " + rare_a + " y " + rare_b)
        else:
            texts.append(hot + " filler%d words here" % i)
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(40)), pa.int64()),
            "text": pa.array(texts),
        }
    )
    pq_mod.write_table(tbl, str(tmp_path / "documents.parquet"))

    out = _collect(q_rare_shingle_pairs(str(tmp_path)))
    pairs = set(zip(out.column("a").to_pylist(), out.column("b").to_pylist()))
    # docs 0/1 share the two rare shingle runs (plus window spill), never
    # any pair induced by the hot shingle alone
    assert (0, 1) in pairs
    assert all(a == 0 and b == 1 for a, b in pairs)


def test_semantic_dedup_overflow_guard(ray_session, tmp_path):
    """Embedding magnitudes beyond the int64 squared-cosine lattice must
    FAIL LOUDLY (numpy would wrap where DuckDB widens to HUGEINT)."""
    import pyarrow.parquet as pq_mod
    import pytest as _pytest

    from ocr_ray.pipelines.queries_ext import q_semantic_dedup

    vecs = [[float(i == j) for j in range(4)] for i in range(4)] * 2
    vecs.append([999.0, 0.0, 0.0, 0.0])  # grid 99900 >> 1500 bound
    tbl = pa.table(
        {
            "vec_id": pa.array(list(range(9)), pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        }
    )
    pq_mod.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    with _pytest.raises(Exception, match="squared-cosine lattice"):
        q_semantic_dedup(str(tmp_path)).to_pandas()


def test_semantic_dedup_rejects_ids_in_planted_range(ray_session, tmp_path):
    """A real vec_id >= 100000 would share an id with a planted copy
    (vec_id + 100000) and give duplicate output rows: fail loudly."""
    import pyarrow.parquet as pq_mod
    import pytest as _pytest

    from ocr_ray.pipelines.queries_ext import q_semantic_dedup

    vecs = [[float(i == j) for j in range(4)] for i in range(4)] * 2
    vecs.append([0.5, 0.5, 0.0, 0.0])
    tbl = pa.table(
        {
            "vec_id": pa.array(list(range(8)) + [100003], pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        }
    )
    pq_mod.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    with _pytest.raises(Exception, match="planted-copy id range"):
        q_semantic_dedup(str(tmp_path)).to_pandas()
