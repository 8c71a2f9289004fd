"""Correctness checks run after every measured call.

Extraction output is checked against the input and against the program's
own single-process kernel; ``neardup_curate`` output is checked against an
exact reference of its ``ORACLE_SQL`` (see :func:`curation_reference`).
Each check returns the number of failed docs so the caller can report
``failed_share``.
"""

from __future__ import annotations

import collections
import hashlib
import os
import random

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

_U64 = (1 << 64) - 1


def combine_hex(digests) -> str:
    """Order-insensitive, duplicate-sensitive sum of 64-bit hex prefixes
    (the rule the manifest documents for ``output_digest``)."""
    acc = 0
    for d in digests:
        if d:
            acc = (acc + int(d[:16], 16)) & _U64
    return "{:016x}".format(acc)


def read_output(out_dir: str) -> pa.Table:
    """Every extracted row on disk with its hive ``partition_id``."""
    ds = pads.dataset(out_dir, format="parquet", partitioning="hive")
    return ds.to_table(columns=["url", "extracted", "digest", "status", "partition_id"])


def kernel_sample(pages: pa.Table, sample: int, seed: int) -> list[tuple[str, str]]:
    """(url, text) from single-process ``extract_page`` for ``sample``
    seeded rows of ``pages``."""
    from ocr_ray.extract_core import extract_page

    idx = sorted(random.Random(seed).sample(range(pages.num_rows), min(sample, pages.num_rows)))
    urls, payloads = pages.column("url"), pages.column("html")
    return [(urls[i].as_py(), extract_page(urls[i].as_py(), payloads[i].as_py())["extracted"])
            for i in idx]


def check_extraction(pages: pa.Table, out_dir: str, expected: list[tuple[str, str]]) -> dict:
    """Rows on disk == rows in == sum of manifest ``n_docs``; each committed
    ``output_digest`` matches its rows on disk; no url is missing or
    duplicated; and every ``(url, text)`` in ``expected`` (single-process
    kernel output) is among the texts on disk for that url."""
    from ocr_ray.state import manifest as mf

    manifest = mf.completed_partitions(out_dir)
    disk = read_output(out_dir)

    want = collections.Counter(pages.column("url").to_pylist())
    got = collections.Counter(disk.column("url").to_pylist())
    missing = want - got
    duplicated = sum((got - want).values())

    # a partition whose manifest entry disagrees with its rows on disk
    # fails the docs its row count is off by, or all its rows when the
    # count agrees but the digest does not
    by_pid: dict[int, list] = collections.defaultdict(list)
    for pid, d in zip(disk.column("partition_id").to_pylist(),
                      disk.column("digest").to_pylist()):
        by_pid[int(pid)].append(d)
    bad_partitions = bad_docs = 0
    for pid in set(by_pid) | set(manifest):
        entry = manifest.get(pid, {"n_docs": 0, "output_digest": None})
        rows = by_pid.get(pid, [])
        if entry["n_docs"] != len(rows):
            bad_docs += abs(entry["n_docs"] - len(rows))
        elif entry["output_digest"] != combine_hex(rows):
            bad_docs += len(rows)
        else:
            continue
        bad_partitions += 1

    texts: dict[str, list[str]] = collections.defaultdict(list)
    for u, t in zip(disk.column("url").to_pylist(), disk.column("extracted").to_pylist()):
        texts[u].append(t)
    mismatched = sum(1 for url, text in expected
                     if url not in missing and text not in texts.get(url, ()))
    failed = max(sum(missing.values()) + duplicated, bad_docs) + mismatched

    n = pages.num_rows
    n_manifest = sum(e["n_docs"] for e in manifest.values())
    return {
        "rows_in": n,
        "rows_disk": disk.num_rows,
        "rows_manifest": n_manifest,
        "missing": sum(missing.values()),
        "duplicated": duplicated,
        "bad_partitions": bad_partitions,
        "checked_identity": len(expected),
        "mismatched": mismatched,
        "counts_agree": n == disk.num_rows == n_manifest,
        "output_digest": combine_hex(e["output_digest"] for e in manifest.values()),
        "failed": min(failed, n),
    }


# ---------------------------------------------------------------------------
# neardup_curate reference
# ---------------------------------------------------------------------------

def _shingles(text: str) -> frozenset:
    ws = text.split(" ")
    if len(ws) < 3:
        return frozenset([text])
    return frozenset(" ".join(ws[i:i + 3]) for i in range(len(ws) - 2))


def curation_reference(docs: pa.Table, *, threshold: float = 0.8, cap: int = 20) -> set:
    """Exact answer of ``curation_neardup``'s ``ORACLE_SQL`` as a set of
    ``(doc_id, source)``.

    Same rules as the SQL: word-3gram sets (the whole text when it has
    fewer than three words), pairs with Jaccard >= ``threshold``, clusters
    = connected components, keep unclustered docs plus each cluster's
    longest member (ties: smaller doc_id), then the ``cap`` smallest
    doc_ids per source.  The SQL compares all pairs; this compares only
    pairs sharing a shingle, which is every pair with Jaccard > 0, so the
    answer is the same in near-linear time."""
    ids = docs.column("doc_id").to_pylist()
    sh = [_shingles(t) for t in docs.column("text").to_pylist()]
    n_chars = dict(zip(ids, docs.column("n_chars").to_pylist()))
    source = dict(zip(ids, docs.column("source").to_pylist()))

    index: dict[str, list[int]] = collections.defaultdict(list)
    for k, s in enumerate(sh):
        for g in s:
            index[g].append(k)
    parent = list(range(len(ids)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    clustered = set()
    for k, s in enumerate(sh):
        cand = {j for g in s for j in index[g] if j > k}
        for j in cand:
            inter = len(s & sh[j])
            if inter / len(s | sh[j]) >= threshold:
                clustered.update((k, j))
                parent[find(k)] = find(j)
    members: dict[int, list[int]] = collections.defaultdict(list)
    for k in clustered:
        members[find(k)].append(ids[k])
    canon = {min(m, key=lambda d: (-n_chars[d], d)) for m in members.values()}
    in_cluster = {ids[k] for k in clustered}
    keep = [d for d in ids if d not in in_cluster or d in canon]
    by_src: dict[str, list[int]] = collections.defaultdict(list)
    for d in sorted(keep):
        if len(by_src[source[d]]) < cap:
            by_src[source[d]].append(d)
    return {(d, s) for s, ds in by_src.items() for d in ds}


def reference_cached(inputs_dir: str) -> set:
    """:func:`curation_reference` of the workload input, computed once per
    input and stored next to it."""
    path = os.path.join(inputs_dir, "reference.parquet")
    if not os.path.exists(path):
        ref = sorted(curation_reference(pq.read_table(os.path.join(inputs_dir, "documents.parquet"))))
        tmp = path + ".tmp"
        pq.write_table(pa.table({"doc_id": pa.array([d for d, _ in ref], pa.int64()),
                                 "source": pa.array([s for _, s in ref], pa.string())}), tmp)
        os.replace(tmp, path)
    t = pq.read_table(path)
    return set(zip(t.column("doc_id").to_pylist(), t.column("source").to_pylist()))


def duckdb_oracle(docs: pa.Table) -> set:
    """The registered ``ORACLE_SQL`` run by DuckDB on one thread.  Its
    all-pairs join is quadratic, so it only runs on small tables."""
    import duckdb

    from ocr_ray.pipelines import queries as Q

    con = duckdb.connect()
    try:
        con.execute("SET threads=1")
        con.register("documents", docs)
        out = con.execute(Q.ORACLE_SQL["curation_neardup"]).arrow()
    finally:
        con.close()
    return set(zip(out.column("doc_id").to_pylist(), out.column("source").to_pylist()))


def check_curation(result: pa.Table, ref: set) -> dict:
    got = list(zip(result.column("doc_id").to_pylist(), result.column("source").to_pylist()))
    got_set = set(got)
    extra = len(got_set - ref) + (len(got) - len(got_set))
    missing = len(ref - got_set)
    digest = hashlib.sha256(repr(sorted(got)).encode()).hexdigest()[:16]
    return {"rows": len(got), "rows_ref": len(ref), "missing": missing,
            "extra": extra, "output_digest": digest, "failed": missing + extra}
