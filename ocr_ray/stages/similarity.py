"""Approximate-nearest-neighbor search over an embedding column.

Baseline: brute-force cosine top-k (queries.q_knn_cosine — per-batch numpy
matmul against a broadcast query, per-batch top-k partials, tiny global
sort).  This module adds the scale path: IVF (inverted-file) search —
k-means coarse quantizer, per-batch cluster assignment, probe only the
``nprobe`` nearest centroids.

At 10^12 vectors the centroids are trained once on a sample (driver-side,
they are tiny), broadcast via ray.put, and the corpus is bucketed by
cluster id into partitioned Parquet so a query only reads its probed
clusters' partitions; here the bucketing happens in-flight.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..schema import list_column_matrix


def kmeans_fit(data: np.ndarray, k: int, *, iters: int = 10, seed: int = 17) -> np.ndarray:
    """Deterministic Lloyd's k-means (seeded init, fixed iterations)."""
    rng = np.random.RandomState(seed)
    idx = rng.choice(len(data), size=min(k, len(data)), replace=False)
    centroids = data[np.sort(idx)].copy()
    for _ in range(iters):
        d = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(centroids)):
            members = data[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids


def ivf_topk(
    emb: ray.data.Dataset,
    query: np.ndarray,
    *,
    k: int = 10,
    n_clusters: int = 16,
    nprobe: int = 4,
    train_sample: np.ndarray | None = None,
) -> list[int]:
    """IVF cosine top-k: assign batches to centroids, score only vectors in
    the ``nprobe`` centroids nearest the query.  Returns vec_ids.

    Approximate: recall depends on nprobe/n_clusters (tested >=90% vs
    brute force in tests/test_dedup_similarity.py).
    """
    if train_sample is None:
        sample = emb.limit(2048).to_pandas()
        train_sample = np.asarray(list(sample["embedding"]), dtype=np.float64)
    centroids = kmeans_fit(train_sample, n_clusters)
    qn = query / (np.linalg.norm(query) or 1.0)
    cd = ((centroids - query) ** 2).sum(axis=1)
    probed = set(np.argsort(cd, kind="stable")[:nprobe].tolist())
    cent_ref = ray.put(centroids)
    probed_ref = ray.put(probed)
    q_ref = ray.put(qn)

    def score(batch: pa.Table) -> pa.Table:
        cents = ray.get(cent_ref)
        probe = ray.get(probed_ref)
        qv = ray.get(q_ref)
        ids = batch.column("vec_id").to_numpy().astype(np.int64, copy=False)
        mat = list_column_matrix(batch.column("embedding"))
        d = ((mat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        mask = np.isin(assign, list(probe))
        if not mask.any():
            return pa.table({"vec_id": pa.array([], pa.int64()), "cos": pa.array([], pa.float64())})
        sel, mat = ids[mask], mat[mask]
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        cos = (mat @ qv) / norms
        top = np.argsort(-cos, kind="stable")[:k]
        return pa.table(
            {"vec_id": pa.array(sel[top], pa.int64()), "cos": pa.array(cos[top], pa.float64())}
        )

    out = (
        emb.map_batches(score, batch_format="pyarrow", batch_size=4096)
        .sort(["cos", "vec_id"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    return out["vec_id"].tolist()


# ---------------------------------------------------------------------------
# partitioned IVF index: the layout that makes IVF pay at scale — the corpus
# is written cluster-bucketed ONCE, and a query READS only its nprobe
# clusters' partitions (probe-limited scan, not just probe-limited scoring)
# ---------------------------------------------------------------------------

def ivf_build_index(
    emb: ray.data.Dataset,
    index_dir: str,
    *,
    n_clusters: int = 16,
    train_limit: int = 2048,
    seed: int = 17,
) -> np.ndarray:
    """Write ``emb`` as cluster-partitioned Parquet under ``index_dir``
    (one ``cluster=<c>/`` dir per coarse centroid) plus the centroid table.

    Centroids are trained driver-side on a bounded sample (they are tiny);
    assignment + the partitioned write stream through map_batches /
    write_parquet — the corpus never materializes on the driver."""
    import json
    import os

    sample = emb.limit(train_limit).to_pandas()
    train = np.asarray(list(sample["embedding"]), dtype=np.float64)
    centroids = kmeans_fit(train, n_clusters, seed=seed)
    cent_ref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        cents = ray.get(cent_ref)
        mat = list_column_matrix(batch.column("embedding"))
        d = ((mat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        return batch.append_column(
            "cluster", pa.array(d.argmin(axis=1).astype("int64"), pa.int64())
        )

    emb.map_batches(assign, batch_format="pyarrow", batch_size=4096).write_parquet(
        index_dir, partition_cols=["cluster"]
    )
    with open(os.path.join(index_dir, "_centroids.json"), "w") as f:
        json.dump(centroids.tolist(), f)
    return centroids


def ivf_probed_paths(index_dir: str, query: np.ndarray, *, nprobe: int = 4):
    """The nprobe partition dirs a query must read (exposed separately so
    tests can assert the scan is probe-limited)."""
    import json
    import os

    with open(os.path.join(index_dir, "_centroids.json")) as f:
        centroids = np.asarray(json.load(f), dtype=np.float64)
    cd = ((centroids - query) ** 2).sum(axis=1)
    probed = np.argsort(cd, kind="stable")[:nprobe].tolist()
    return [
        os.path.join(index_dir, "cluster={}".format(c))
        for c in probed
        if os.path.isdir(os.path.join(index_dir, "cluster={}".format(c)))
    ]


def ivf_search_index(
    index_dir: str, query: np.ndarray, *, k: int = 10, nprobe: int = 4
) -> list[int]:
    """Probe-limited search: read ONLY the nprobe nearest clusters'
    partitions, brute-force cosine inside them."""
    paths = ivf_probed_paths(index_dir, query, nprobe=nprobe)
    if not paths:
        return []
    qn = query / (np.linalg.norm(query) or 1.0)
    q_ref = ray.put(qn)

    def score(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        ids = batch.column("vec_id").to_numpy().astype(np.int64, copy=False)
        mat = list_column_matrix(batch.column("embedding"))
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        cos = (mat @ qv) / norms
        top = np.argsort(-cos, kind="stable")[:k]
        return pa.table(
            {"vec_id": pa.array(ids[top], pa.int64()), "cos": pa.array(cos[top], pa.float64())}
        )

    import os

    files = [
        os.path.join(p, f)
        for p in paths
        for f in sorted(os.listdir(p))
        if f.endswith(".parquet")
    ]
    out = (
        ray.data.read_parquet(files, columns=["vec_id", "embedding"])
        .map_batches(score, batch_format="pyarrow", batch_size=4096)
        .sort(["cos", "vec_id"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    return out["vec_id"].tolist()
