"""Extraction stages for ``map_batches`` actor pools.

The reference pays model construction once per process via its
``ModelInstances`` singleton (models/interfaces/base_model.py:30-54); the
Ray-idiomatic equivalent is a callable CLASS on an actor pool — setup in
``__init__`` (once per actor), work in ``__call__`` (per Arrow batch).

Two shapes are provided:

- :func:`extract_batch` — fused detect+extract on stateless tasks: one
  pages row in, one EXTRACTED row out.  The default path: no shuffle at
  all.
- :class:`BlockExtractor` (an actor-pool callable) + :func:`assemble_bucket`
  — the exploded path:
  stage 1 emits one row per paragraph block, tagged with its input row's
  run-unique ``doc`` id; a url-bucket shuffle reassembles each input row
  in document order (the north rule's one true shuffle, SURVEY §2.6 G12).
  Byte-identical to the fused path, one output row per input row (a
  recrawled url stays two documents); used when giant documents must be
  split across tasks.
"""

from __future__ import annotations

import os

import pyarrow as pa

from ..extract_core import assemble_text, detect_paragraphs, extract_rows, sha256_hex
from ..schema import EXTRACTED, EXTRACTED_FULL


def extract_batch(
    batch: pa.Table, *, footnote_mode: str = "keep", include_paragraphs: bool = False
) -> pa.Table:
    """Fused per-page detect+extract, stateless form. Arrow in, Arrow out.

    The per-row Python work (an HTML/PDF parse) IS the useful compute —
    the analog of model inference — so a Python loop over rows here is the
    kernel, not overhead; everything around it stays columnar.  The rows
    come from :func:`~ocr_ray.extract_core.extract_rows`: each is the row
    ``extract_page`` gives, with the span filter's bounds for the whole
    batch computed in one vectorized pass.

    This extractor's only state (compiled regexes) is module-level, paid at
    import in each worker, so stateless tasks beat an actor pool: tasks
    start the moment blocks arrive instead of waiting on pool spin-up
    (~15% wall on a 32-CPU node).  Stages with real per-actor state (model
    weights, vocabularies) should use the callable-class form on an actor
    pool, as :class:`BlockExtractor` does.
    """
    urls = batch.column("url").to_pylist()
    payloads = batch.column("html").to_pylist()
    langs = (
        batch.column("lang").to_pylist()
        if "lang" in batch.column_names
        else [""] * len(urls)
    )
    rows = extract_rows(
        urls, payloads, langs, footnote_mode=footnote_mode,
        include_paragraphs=include_paragraphs,
    )
    return pa.Table.from_pylist(
        rows, schema=EXTRACTED_FULL if include_paragraphs else EXTRACTED
    )


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
        ("title", pa.string()),
        ("kind", pa.string()),
        ("status", pa.string()),
        ("error", pa.string()),
        ("lang", pa.string()),
    ]
)


class BlockExtractor:
    """Stage 1 of the exploded path: pages -> one row per paragraph block.

    Emits a sentinel row (order = -1) per document so empty/error documents
    survive the groupby.  Every row of one input row carries the same
    ``doc`` id: a random per-batch salt plus the row index, unique within
    the run, so two crawls of one url reassemble as two documents."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        salt = int.from_bytes(os.urandom(8), "little") >> 2
        urls = batch.column("url").to_pylist()
        payloads = batch.column("html").to_pylist()
        langs = (
            batch.column("lang").to_pylist()
            if "lang" in batch.column_names
            else [""] * len(urls)
        )
        for i, (url, payload, lang) in enumerate(zip(urls, payloads, langs)):
            base = {
                "url": url, "doc": salt + i, "order": -1, "type": "", "text": "", "page": 0,
                "is_footnote": False, "is_header": False, "is_page_number": False,
                "footnote_index": 0, "footnotes": [], "title": "",
                "kind": "", "status": "ok", "error": "", "lang": lang,
            }
            try:
                if not payload:
                    rows.append(dict(base, kind="empty", status="error", error="empty payload"))
                    continue
                paragraphs, title, kind = detect_paragraphs(url, payload)
                rows.append(dict(base, title=title, kind=kind))
                for p in paragraphs:
                    rows.append(
                        dict(
                            base,
                            order=int(p["order"]),
                            type=p["type"],
                            text=p.get("text", ""),
                            page=int(p.get("page", 0)),
                            is_footnote=bool(p.get("is_footnote", False)),
                            is_header=bool(p.get("is_header", False)),
                            is_page_number=bool(p.get("is_page_number", False)),
                            footnote_index=int(p.get("footnote_index", 0)),
                            footnotes=[int(x) for x in p.get("footnotes", ())],
                            title=title,
                            kind=kind,
                        )
                    )
            except Exception as exc:
                rows.append(
                    dict(base, kind="error", status="error",
                         error="{}: {}".format(type(exc).__name__, exc))
                )
        return pa.Table.from_pylist(rows, schema=_BLOCK_SCHEMA)


def _assemble_one(rows: list[dict], footnote_mode: str) -> dict:
    """Block rows of ONE document (one url and doc id, sorted by order)
    -> one EXTRACTED row dict."""
    head = rows[0]
    url, lang = head["url"], head["lang"]
    if head["status"] == "error":
        return {
            "url": url, "extracted": "", "title": "", "n_blocks": 0,
            "kind": head["kind"], "status": "error", "error": head["error"],
            "digest": "", "lang": lang,
        }
    paragraphs = [
        {
            "type": r["type"],
            "text": r["text"],
            "page": r["page"],
            "is_footnote": r["is_footnote"],
            "is_header": r["is_header"],
            "is_page_number": r["is_page_number"],
            "footnote_index": r["footnote_index"],
            "footnotes": r["footnotes"] or [],
            "order": r["order"],
        }
        for r in rows
        if r["order"] >= 0
    ]
    text, kept = assemble_text(paragraphs, footnote_mode=footnote_mode)
    return {
        "url": url,
        "extracted": text,
        "title": head["title"],
        "n_blocks": len(kept),
        "kind": head["kind"],
        "status": "ok",
        "error": "",
        "digest": sha256_hex(text),
        "lang": lang,
    }


def assemble_bucket(group: pa.Table, *, footnote_mode: str = "keep") -> pa.Table:
    """Per-bucket fn of the exploded-mode reassembly shuffle
    (``groupagg.bucketed_map_groups`` on ``url``): ALL documents of one
    hash bucket assembled in one pass over rows sorted by (url, doc,
    order), one EXTRACTED row per (url, doc), i.e. per input row.

    One Python call per url (600k map_groups invocations for 600k docs) is
    ~10x slower than the shuffle itself; bucketing by url-hash turns that
    into one call per bucket — the guide's coarse-key groupby pattern."""
    rows = group.sort_by(
        [("url", "ascending"), ("doc", "ascending"), ("order", "ascending")]
    ).to_pylist()
    out: list[dict] = []
    start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or (rows[i]["url"], rows[i]["doc"]) != (
            rows[start]["url"], rows[start]["doc"]
        ):
            out.append(_assemble_one(rows[start:i], footnote_mode))
            start = i
    return pa.Table.from_pylist(out, schema=EXTRACTED)
