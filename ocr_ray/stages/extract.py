"""Extraction stages for ``map_batches``, both on stateless tasks.

The reference pays model construction once per process via its
``ModelInstances`` singleton (models/interfaces/base_model.py:30-54).
Extraction's only such state is compiled regexes, which are module-level
and paid at import in each worker, so neither stage needs an actor pool:
tasks start the moment blocks arrive instead of waiting on pool spin-up
(~15% wall on a 32-CPU node), and no pool can hold the CPU a 1-CPU
cluster needs for the stages around it.  Actor pools stay for stages with
real per-process state (``stages.multimodal``).

Two shapes are provided:

- :func:`extract_batch` — fused detect+extract: one pages row in, one
  EXTRACTED row out.  The default path: no shuffle at all.
- :func:`extract_blocks` + :func:`assemble_bucket` — the exploded path:
  stage 1 emits one row per paragraph block plus one head row per input
  row, all tagged with the input row's run-unique ``doc`` id; a
  url-bucket shuffle reassembles each input row in document order (the
  north rule's one true shuffle, SURVEY §2.6 G12).  One output row per
  input row (a recrawled url stays two documents); used when giant
  documents must be split across tasks.

Both build their rows in :mod:`ocr_ray.extract_core` (stage 1 calls
``detect_page``, the reassembly ``page_rows``), so the two paths share
one row policy and are byte-identical.
"""

from __future__ import annotations

import os

import pyarrow as pa

from ..extract_core import Detected, detect_page, page_rows
from ..schema import EXTRACTED, EXTRACTED_FULL


def _page_columns(batch: pa.Table) -> tuple[list, list, list]:
    urls = batch.column("url").to_pylist()
    langs = (
        batch.column("lang").to_pylist()
        if "lang" in batch.column_names
        else [""] * len(urls)
    )
    return urls, batch.column("html").to_pylist(), langs


def extract_batch(
    batch: pa.Table, *, footnote_mode: str = "keep", include_paragraphs: bool = False
) -> pa.Table:
    """Fused per-page detect+extract. Arrow in, Arrow out.

    The per-row Python work (an HTML/PDF parse) IS the useful compute —
    the analog of model inference — so a Python loop over rows here is the
    kernel, not overhead; everything around it stays columnar.  The rows
    come from :func:`~ocr_ray.extract_core.detect_page` per page and one
    :func:`~ocr_ray.extract_core.page_rows` call: each is the row
    ``extract_page`` gives, with the span filter's bounds for the whole
    batch computed in one vectorized pass.

    This extractor's only state (compiled regexes) is module-level, paid at
    import in each worker, so it runs on stateless tasks.  Stages with real
    per-actor state (model weights, vocabularies) should use the
    callable-class form on an actor pool.
    """
    urls, payloads, langs = _page_columns(batch)
    rows = page_rows(
        urls, langs, [detect_page(u, p) for u, p in zip(urls, payloads)],
        footnote_mode=footnote_mode, include_paragraphs=include_paragraphs,
    )
    return pa.Table.from_pylist(
        rows, schema=EXTRACTED_FULL if include_paragraphs else EXTRACTED
    )


#: the paragraph fields the post-processing reads (select_paragraphs,
#: insert_footnotes, the span filter), with the value of an absent one
_PARAGRAPH_FIELDS = {
    "text": "", "page": 0, "is_footnote": False, "is_header": False,
    "is_page_number": False, "footnote_index": 0, "footnotes": [],
}

_BLOCK_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("doc", pa.int64()),
        ("order", pa.int32()),
        ("type", pa.string()),
        ("text", pa.string()),
        ("page", pa.int32()),
        ("is_footnote", pa.bool_()),
        ("is_header", pa.bool_()),
        ("is_page_number", pa.bool_()),
        ("footnote_index", pa.int32()),
        ("footnotes", pa.list_(pa.int32())),
        # head row only
        ("lang", pa.string()),
        ("title", pa.string()),
        ("kind", pa.string()),
        ("error", pa.string()),
    ]
)


def extract_blocks(batch: pa.Table) -> pa.Table:
    """Stage 1 of the exploded path: pages -> one row per paragraph block.

    Each input row also gets a head row (order = -1) with its lang and its
    :func:`~ocr_ray.extract_core.detect_page` title, kind and error, so
    empty and failed documents survive the shuffle.  Every row of one
    input row carries the same ``doc`` id: a random per-batch salt plus
    the row index, unique within the run, so two crawls of one url
    reassemble as two documents."""
    salt = int.from_bytes(os.urandom(8), "little") >> 2
    rows = []
    for i, (url, payload, lang) in enumerate(zip(*_page_columns(batch))):
        page = detect_page(url, payload)
        doc = salt + i
        rows.append({"url": url, "doc": doc, "order": -1, "lang": lang,
                     "title": page.title, "kind": page.kind, "error": page.error})
        rows.extend(
            {"url": url, "doc": doc, "order": p["order"], "type": p["type"],
             **{k: p.get(k, d) for k, d in _PARAGRAPH_FIELDS.items()}}
            for p in page.paragraphs
        )
    return pa.Table.from_pylist(rows, schema=_BLOCK_SCHEMA)


def assemble_bucket(group: pa.Table, *, footnote_mode: str = "keep") -> pa.Table:
    """Per-block fn of the exploded-mode reassembly shuffle
    (``groupagg.bucketed_map_groups`` on ``url``): ALL documents of one
    reduce block, their rows sorted by (url, doc, order) so each starts
    with its head row, go through one
    :func:`~ocr_ray.extract_core.page_rows` call: one EXTRACTED row per
    (url, doc), i.e. per input row.

    One Python call per url (600k map_groups invocations for 600k docs) is
    ~10x slower than the shuffle itself; bucketing by url-hash turns that
    into one call per reduce block — the guide's coarse-key groupby
    pattern."""
    rows = group.sort_by(
        [("url", "ascending"), ("doc", "ascending"), ("order", "ascending")]
    ).to_pylist()
    heads = [i for i, r in enumerate(rows) if r["order"] < 0]
    pages = [
        Detected(rows[a + 1:b], rows[a]["title"], rows[a]["kind"], rows[a]["error"])
        for a, b in zip(heads, heads[1:] + [len(rows)])
    ]
    out = page_rows(
        [rows[a]["url"] for a in heads], [rows[a]["lang"] for a in heads], pages,
        footnote_mode=footnote_mode,
    )
    return pa.Table.from_pylist(out, schema=EXTRACTED)
