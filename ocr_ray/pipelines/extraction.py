"""The flagship extraction pipeline.

    read_parquet(pages, columns=[url, html, lang])
      -> writer.write_partitioned(key=url, digest=digest):
           [resume] check committed partitions' url digests  # url-only read
           drop rows of committed partitions                 # map-side filter
           transform: map_batches(extract_batch)             # detect+extract
           bucketed_map_groups(url, writer.write_partition)  # one file per partition
           fold of the tiny stat partials in the caller
           commit per-partition manifests

Design notes for 100 TB (SURVEY §4):

- the ``html`` binary column is read once, parsed once, and never crosses a
  shuffle; the wide ops run over *post-extraction* text rows (small
  relative to the input payloads): the write's partition shuffle, and in
  the exploded variant the url-bucket reassembly shuffle before it.
- ``partition_id = key_hash(url) % P`` (``functions.strhash.key_hash``, the
  hash of every shuffle bucket too) breaks host-level clustering (hot hosts
  arrive contiguously in crawl order); P is the resume granule, sized so a
  partition ≈ a few GB at production scale.  Each manifest entry records
  the hash (``manifest.PARTITION_HASH``), so output written under another
  layout is rewritten, never trusted.
- the resume protocol and the write are
  :func:`ocr_ray.pipelines.writer.write_partitioned`'s, shared with every
  other partitioned output: the write is a keyed-bucket shuffle on url with
  one bucket per partition, so a reduce task holds one whole partition,
  writes it to ``partition_id=N/part-0.parquet`` and folds its (rows, url
  key-hash sum, digest sum).  Each run writes one file per partition it
  writes, whatever the block count; a recrawl's rows of one url land in
  that one file, and a retried task rewrites the same path.  ROADMAP item
  12 measures what holding a whole partition costs at scale.
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
from ..stages.extract import assemble_bucket, extract_batch, extract_blocks
from ..stages.groupagg import bucketed_map_groups
from . import writer as wr

PAGE_COLUMNS = ["url", "html", "lang"]


def extract_pages(
    ds: ray.data.Dataset,
    *,
    mode: str = "fused",
    footnote_mode: str = "keep",
    batch_size: int = 64,
) -> ray.data.Dataset:
    """pages Dataset -> EXTRACTED Dataset (no sink), on stateless tasks.

    ``mode='fused'``: one row in, one row out, zero shuffles
    (``extract_batch``).
    ``mode='exploded'``: block rows (``extract_blocks``) + the url-bucket
    reassembly (``assemble_bucket``) — the north rule's
    document-reassembly shuffle, byte-identical to fused.
    """
    if mode == "fused":
        return ds.map_batches(
            extract_batch,
            fn_kwargs={"footnote_mode": footnote_mode},
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    if mode == "exploded":
        blocks = ds.map_batches(
            extract_blocks, batch_format="pyarrow", batch_size=batch_size
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
        ),
        resume=resume,
    )
    return {"extracted": r["written"], "skipped_partitions": r["skipped_partitions"]}


def read_extracted(output_dir: str) -> pa.Table:
    """Driver-side read-back of a finished run, sorted by url, then digest
    for a url crawled more than once (test helper)."""
    tbl = pq.read_table(output_dir)
    return tbl.sort_by([("url", "ascending"), ("digest", "ascending")])
