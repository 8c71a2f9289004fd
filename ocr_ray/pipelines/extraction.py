"""The flagship extraction pipeline.

    read_parquet(pages, columns=[url, html, lang])
      -> [resume] drop rows of committed partitions         # map-side filter
      -> map_batches(extract_batch)                         # detect+extract
      -> map_batches(writer.write_block)                    # partitioned write
      -> driver-side fold of the tiny stat partials         # no shuffle
      -> commit per-partition manifests

Design notes for 100 TB (SURVEY §4):

- the ``html`` binary column is read once, parsed once, and never crosses a
  shuffle; the only wide op in the exploded variant is the url-bucket
  reassembly shuffle over *post-extraction* text rows (small relative to
  the input payloads).
- ``partition_id = key_hash(url) % P`` (``functions.strhash.key_hash``, the
  hash of every shuffle bucket too) breaks host-level clustering (hot hosts
  arrive contiguously in crawl order); P is the resume granule, sized so a
  partition ≈ a few GB at production scale.  Each manifest entry records
  the hash (``manifest.PARTITION_HASH``), so output written under another
  layout is rewritten, never trusted.
- the write is :mod:`ocr_ray.pipelines.writer`'s, shared with every other
  partitioned output: each task sorts its block by partition id once,
  writes one file per partition it holds under ``partition_id=N/`` and
  folds (rows, url key-hash sum, digest sum) per partition.  Files are named
  ``part-<task id>-<attempt salt>-<per-task sequence>.parquet``, so two
  blocks never share a name — even when they carry the same urls for a
  partition (a recrawl) — and a retried task sweeps its failed attempt's
  files.
- error rows flow through as ``status='error'`` instead of poisoning a
  batch; the manifest commit is the atomic gate: a partition dir without a
  committed manifest is debris and is deleted before a resume recomputes
  it.
"""

from __future__ import annotations

import functools

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ..sources.io import read_pages
from ..stages.extract import BlockExtractor, assemble_bucket, extract_batch
from ..stages.groupagg import bucketed_map_groups
from ..state import manifest as mf
from . import writer as wr

PAGE_COLUMNS = ["url", "html", "lang"]


def default_concurrency() -> int:
    """Fixed actor-pool size: total CPUs minus ~12% headroom.

    A pool that reserves every CPU starves the read/write task stages and
    the pipeline serializes (measured: concurrency == num_cpus is ~10x
    slower end-to-end than num_cpus - 4 on a 32-CPU node).  A fixed pool
    also avoids autoscaling spin-up lag on short jobs.
    """
    try:
        import ray

        n = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        n = 4
    return max(2, n - max(1, n // 8))


def extract_pages(
    ds: ray.data.Dataset,
    *,
    mode: str = "fused",
    footnote_mode: str = "keep",
    batch_size: int = 64,
    concurrency=None,
) -> ray.data.Dataset:
    """pages Dataset -> EXTRACTED Dataset (no sink).

    ``mode='fused'``: one row in, one row out, zero shuffles, on stateless
    tasks (``concurrency`` is unused there).
    ``mode='exploded'``: block rows (a ``BlockExtractor`` actor pool of
    ``concurrency`` actors) + groupby(url) reassembly — the north rule's
    document-reassembly shuffle, byte-identical to fused.
    """
    if mode == "fused":
        return ds.map_batches(
            extract_batch,
            fn_kwargs={"footnote_mode": footnote_mode},
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    if concurrency is None:
        concurrency = default_concurrency()
    if mode == "exploded":
        blocks = ds.map_batches(
            BlockExtractor,
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )
        # bucket the reassembly shuffle by url-hash: one map_groups call per
        # bucket instead of per url (per-group Python overhead dominates the
        # shuffle otherwise)
        return bucketed_map_groups(
            blocks,
            ["url"],
            functools.partial(assemble_bucket, footnote_mode=footnote_mode),
        )
    raise ValueError(mode)


def run_extraction(
    source,
    output_dir: str,
    *,
    n_partitions: int = 32,
    mode: str = "fused",
    footnote_mode: str = "keep",
    batch_size: int = 64,
    concurrency=None,
    resume: bool = True,
) -> dict:
    """Resumable end-to-end run: pages -> partitioned Parquet + manifests.

    Returns run stats ``{'extracted': n, 'skipped_partitions': k}``.
    """
    ds = read_pages(source, columns=PAGE_COLUMNS)

    if resume:
        mf.purge_mismatched(output_dir, n_partitions)
        done: dict[int, dict] = mf.completed_partitions(
            output_dir, n_partitions=n_partitions
        )
        if done:
            # A committed partition is only skippable if its INPUT is still
            # the rows it was computed from: recompute each partition's
            # url-sum digest (pruned url-column pass, cheap relative to the
            # extraction it saves) and invalidate any mismatch — otherwise a
            # changed corpus silently drops rows on resume.
            actual = _input_partition_digests(source, n_partitions)
            for pid in [
                p for p, e in done.items()
                if actual.get(p) != e.get("input_digest")
            ]:
                mf.invalidate_partition(output_dir, pid)
                del done[pid]
    else:
        done = {}
        mf.clear(output_dir)  # full rewrite: stale manifests must not linger
    # the manifest commit is the atomic gate: a partition dir WITHOUT a
    # committed manifest is debris from a killed run — remove it, or the
    # recompute would APPEND duplicate rows next to the orphaned files
    wr.clean_debris(output_dir, committed=frozenset(done))
    if done:
        ds = ds.map_batches(
            wr.drop_partitions,
            fn_kwargs={"key": "url", "n_partitions": n_partitions, "done": frozenset(done)},
            batch_format="pyarrow",
        )

    out = extract_pages(
        ds,
        mode=mode,
        footnote_mode=footnote_mode,
        batch_size=batch_size,
        concurrency=concurrency,
    )
    n_rows = 0
    for r in wr.write_and_fold(
        out, output_dir, key="url", n_partitions=n_partitions, digest="digest"
    ):
        mf.commit_partition(
            output_dir,
            int(r["partition_id"]),
            n_docs=int(r["n_rows"]),
            input_digest=wr.digest_hex(r["key_sum"]),
            output_digest=wr.digest_hex(r["digest_sum"]),
            n_partitions=n_partitions,
        )
        n_rows += int(r["n_rows"])
    return {"extracted": n_rows, "skipped_partitions": len(done)}


def _input_partition_digests(source, n_partitions: int) -> dict[int, str]:
    """Per-partition url-sum digests of the CURRENT input (url column only,
    pruned at the read) — the resume validation side of the manifest."""
    rows = wr.fold_partials(
        read_pages(source, columns=["url"]).map_batches(
            wr.block_stats,
            fn_kwargs={"key": "url", "n_partitions": n_partitions},
            batch_format="pyarrow",
        ),
        n_partitions,
    )
    return {int(r["partition_id"]): wr.digest_hex(r["key_sum"]) for r in rows}


def compact_partitions(output_dir: str) -> dict:
    """Output maintenance: merge each committed partition's many small
    files (the writer emits one per task x partition) into right-sized
    ones — :func:`writer.compact_partitioned`, with every partition's
    combined row digest REQUIRED to match its committed ``output_digest``
    (a mismatch leaves that partition untouched).  Returns
    ``{'compacted': n, 'skipped': k}``."""
    r = wr.compact_partitioned(output_dir, digest="digest")
    return {"compacted": r["compacted_partitions"], "skipped": r["skipped_partitions"]}


def read_extracted(output_dir: str) -> pa.Table:
    """Driver-side read-back of a finished run, sorted by url (test helper)."""
    tbl = pq.read_table(output_dir)
    return tbl.sort_by("url")
