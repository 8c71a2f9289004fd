"""The flagship extraction pipeline.

    read_parquet(pages, columns=[url, html, lang])
      -> writer.write_partitioned(key=url, digest=digest):
           [resume] check committed partitions' url digests  # url-only read
           drop rows of committed partitions                 # map-side filter
           transform: map_batches(extract_batch)             # detect+extract
           map_batches(writer.write_block)                   # partitioned write
           fold of the tiny stat partials in the caller      # no shuffle
           commit per-partition manifests

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
- the resume protocol and the write are
  :func:`ocr_ray.pipelines.writer.write_partitioned`'s, shared with every
  other partitioned output: each task sorts its block by partition id once,
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
    """Resumable end-to-end run: pages -> partitioned Parquet + manifests,
    through :func:`writer.write_partitioned` with :func:`extract_pages` as
    its transform and the url-only page read as its input-digest source.

    Returns run stats ``{'extracted': n, 'skipped_partitions': k}``.
    """
    r = wr.write_partitioned(
        read_pages(source, columns=PAGE_COLUMNS),
        output_dir,
        key="url",
        n_partitions=n_partitions,
        digest="digest",
        keys=lambda: read_pages(source, columns=["url"]),
        transform=functools.partial(
            extract_pages,
            mode=mode,
            footnote_mode=footnote_mode,
            batch_size=batch_size,
            concurrency=concurrency,
        ),
        resume=resume,
    )
    return {"extracted": r["written"], "skipped_partitions": r["skipped_partitions"]}


def read_extracted(output_dir: str) -> pa.Table:
    """Driver-side read-back of a finished run, sorted by url (test helper)."""
    tbl = pq.read_table(output_dir)
    return tbl.sort_by("url")
