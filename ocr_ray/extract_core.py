"""Per-page extraction core: payload dispatch -> paragraphs -> final text.

This is the single source of truth for WHAT gets extracted; both the
single-process oracle (:mod:`ocr_ray.reference`) and the Ray stages
(:mod:`ocr_ray.stages.extract`) build their rows here — :func:`extract_page`
for one page, :func:`detect_page` then :func:`page_rows` for a batch —
which is how the engine guarantees byte-identical output regardless of
parallelism or mode.

Flow per page (mirrors /root/reference pipeline lifecycle, SURVEY §3):

1. payload sniff — ``%PDF-`` magic vs HTML (parsers/__init__.py:173-191)
2. stage 1 detect — DOM block segmentation (HTML) or layout parse (PDF)
3. stage 2 extract — typed paragraphs with section stacks / classification
4. post-process — skip headers & page numbers, footnote handling
   (paragraphs_processing.py:255-312), per-document exact + near-dup span
   filtering (base_ocr.py:679-725)
5. assemble — paragraphs joined with '\\n\\n' (parser.py:31-37)

Error policy: an empty or malformed payload, or one whose post-processing
raises, yields a ``status='error'`` row (kind ``empty`` or ``error``,
``error`` = ``"Type: msg"``), never an exception that poisons a whole batch
(the reference logs-and-drops, utils/threading/stream.py:338-345).  Only
this module builds EXTRACTED rows, so the policy lives in one place.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from . import doc_parsers, html_extract, minipdf, pdf_extract
from .functions.metrics import (
    SpanSketch,
    is_near_duplicate_cached,
    near_pairs,
    rejected_by_bounds,
)

NEAR_DUP_THRESHOLD = 0.2   # base_ocr.py:716-723
NEAR_DUP_WINDOW = 5        # compare against the last k emitted spans
NEAR_DUP_MAX_LEN = 20_000  # spans longer than this get exact dedup only:
# Myers is O(len^2/64) and a multi-MB pathological span would stall a task
# (the NMS-tiling cap philosophy, non_max_suppression.py:105-115)


def filter_duplicate_spans(paragraphs: list[dict]) -> list[dict]:
    """Per-document exact + near-dup span filter (base_ocr.py:679-725).

    State (the emitted set + last-k window) is scoped to one document —
    never actor-global — so results cannot depend on batch composition
    (SURVEY §2.4 T5).  Each new span meets the window through the sound
    bound cascade of :func:`~ocr_ray.functions.metrics.rejected_by_bounds`;
    only pairs no bound rejects reach :func:`is_near_duplicate_cached`
    and its exact edit-distance test.

    For every pair of candidate spans at most :data:`NEAR_DUP_WINDOW`
    apart (the window's reach when nothing was dropped), the bounds run
    up front in one vectorized :func:`~ocr_ray.functions.metrics.near_pairs`
    pass; a window slot further back (only after drops) gets the per-pair
    cascade.  Bounds only prune, so keep/drop decisions do not
    depend on which path a pair took."""
    (near,) = near_pairs(
        [_candidate_spans(paragraphs)], NEAR_DUP_WINDOW, NEAR_DUP_THRESHOLD
    )
    return _filter_spans(paragraphs, near)


def _candidate_spans(paragraphs: list[dict]) -> list[str]:
    """The texts the near-dup test compares, in order."""
    return [
        p["text"] for p in paragraphs
        if p["type"] == "text" and len(p["text"]) <= NEAR_DUP_MAX_LEN
    ]


def _filter_spans(paragraphs: list[dict], near: set[tuple[int, int]]) -> list[dict]:
    """:func:`filter_duplicate_spans` given the ``near_pairs`` survivors of
    the document's candidate spans."""
    emitted: set[str] = set()
    last: list[tuple[int, SpanSketch]] = []  # (index in candidate spans, sketch)
    out = []
    c = -1
    for p in paragraphs:
        if p["type"] != "text":
            out.append(p)
            continue
        text = p["text"]
        short = len(text) <= NEAR_DUP_MAX_LEN
        c += short
        if text in emitted:
            continue
        if short:
            span = SpanSketch(text)
            if any(
                (
                    (c, pc) in near
                    if c - pc <= NEAR_DUP_WINDOW
                    else not rejected_by_bounds(span, prev, NEAR_DUP_THRESHOLD)
                )
                and is_near_duplicate_cached(span, prev, NEAR_DUP_THRESHOLD)
                for pc, prev in last
            ):
                continue
            last.append((c, span))
            if len(last) > NEAR_DUP_WINDOW:
                last.pop(0)
        emitted.add(text)
        out.append(p)
    return out


def insert_footnotes(paragraphs: list[dict], mode: str = "insert") -> list[dict]:
    """Footnote join: footnote paragraphs keyed (page, index) merged into the
    referencing paragraph (paragraphs_processing.py:292-302,314-334).

    Modes, mirroring the reference's _insert_footnote:
    - ``insert``               — replace the ``^n`` marker in place
    - ``insert_next_sentence`` — drop the marker, insert the note as a new
      sentence right after the referencing sentence
    - ``insert_last_sentence`` — drop the marker, append the note at the
      paragraph end
    """
    notes = {
        (p.get("page", 0), p.get("footnote_index", 0)): p
        for p in paragraphs
        if p.get("is_footnote")
    }
    out = []
    for p in paragraphs:
        if p.get("is_footnote"):
            continue
        text = p.get("text", "")
        for idx in p.get("footnotes", ()):
            note = notes.get((p.get("page", 0), idx))
            if note is None:
                continue
            marker = "^{}".format(idx)
            formatted = " Footnote: " + note["text"].replace(marker, "", 1).lstrip()
            if mode == "insert":
                text = text.replace(marker, formatted)
            elif mode == "insert_next_sentence":
                from .functions.textproc import split_sentences

                sentences = split_sentences(text) or [text]
                for i, sent in enumerate(sentences):
                    if marker in sent:
                        break
                sentences[i] = sentences[i].replace(marker, "")
                sentences.insert(i + 1, formatted.lstrip())
                text = " ".join(sentences)
            elif mode == "insert_last_sentence":
                text = text.replace(marker, "") + formatted
        if text != p.get("text", ""):
            p = dict(p, text=text)
        out.append(p)
    return out


def assemble_text(
    paragraphs: list[dict],
    *,
    skip_header: bool = True,
    skip_page_number: bool = True,
    footnote_mode: str = "keep",   # keep | skip | insert | insert_next_sentence | insert_last_sentence
) -> tuple[str, list[dict]]:
    """Post-process + join (the process_paragraphs defaults,
    paragraphs_processing.py:255-312)."""
    paras = filter_duplicate_spans(select_paragraphs(
        paragraphs, skip_header=skip_header, skip_page_number=skip_page_number,
        footnote_mode=footnote_mode,
    ))
    return _join(paras), paras


def select_paragraphs(
    paragraphs: list[dict],
    *,
    skip_header: bool = True,
    skip_page_number: bool = True,
    footnote_mode: str = "keep",
) -> list[dict]:
    """The post-processing of :func:`assemble_text` that runs before the
    span filter: header, page-number and footnote handling."""
    paras = paragraphs
    if skip_header:
        paras = [p for p in paras if not p.get("is_header")]
    if skip_page_number:
        paras = [p for p in paras if not p.get("is_page_number")]
    if footnote_mode == "skip":
        paras = [p for p in paras if not p.get("is_footnote")]
        paras = [
            dict(p, text=_strip_markers(p.get("text", ""), p.get("footnotes", ())))
            for p in paras
        ]
    elif footnote_mode.startswith("insert"):
        paras = insert_footnotes(paras, mode=footnote_mode)
    return paras


def _join(paragraphs: list[dict]) -> str:
    return "\n\n".join(p["text"] for p in paragraphs if p.get("text")).strip()


def _strip_markers(text: str, footnotes) -> str:
    for idx in footnotes:
        text = text.replace("^{}".format(idx), "")
    return text


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_kind(url: str, payload: bytes) -> str:
    """Parser dispatch: ``%PDF-`` magic first, then the url path extension
    (the reference's extension registry, parsers/__init__.py:173-177 — a
    crawl's text/markdown/code payloads must not be parsed as HTML), html
    otherwise."""
    if minipdf.is_pdf(payload):
        return "pdf"
    return doc_parsers.EXTENSION_KINDS.get(doc_parsers.url_extension(url), "html")


def detect_paragraphs(url: str, payload: bytes) -> tuple[list[dict], str, str]:
    """Stage-1 detect: payload -> (paragraphs, title, kind).

    The single dispatch behind :func:`detect_page`, which the fused path
    (:func:`extract_page`, ``stages.extract.extract_batch``) and the
    exploded path (``stages.extract.extract_blocks``) both call, so both stay
    byte-identical by construction.  Raises on malformed payloads —
    :func:`detect_page` turns that into a failed page."""
    kind = payload_kind(url, payload)
    title = ""
    if kind == "pdf":
        paragraphs = pdf_extract.extract_pdf_paragraphs(
            minipdf.read_pages(payload)
        )
    elif kind == "docx":
        paragraphs = doc_parsers.parse_docx(payload)
    elif kind in ("md", "txt", "py", "java"):
        text_payload = payload.decode("utf-8")  # non-UTF8 -> error row
        paragraphs = {
            "md": doc_parsers.parse_markdown,
            "txt": doc_parsers.parse_txt,
            "py": doc_parsers.parse_python,
            "java": doc_parsers.parse_java,
        }[kind](text_payload)
    else:
        page = html_extract.extract_html_page(payload.decode("utf-8"))
        paragraphs = page["paragraphs"]
        title = page["title"]
    return paragraphs, title, kind


class Detected(NamedTuple):
    """A page after stage 1: its paragraphs, title and kind, or for a
    failed page no paragraphs, kind ``empty`` or ``error`` and the error
    message (``""`` when the page did not fail)."""

    paragraphs: list
    title: str
    kind: str
    error: str = ""


def detect_page(url: str, payload: bytes) -> Detected:
    """Stage 1 under the row policy; never raises.  An empty payload and
    one :func:`detect_paragraphs` raises on become failed pages."""
    if not payload:
        return Detected([], "", "empty", "empty payload")
    try:
        return Detected(*detect_paragraphs(url, payload))
    except Exception as exc:  # malformed payload -> error row (never a crash)
        return _failed(exc)


def _failed(exc: Exception) -> Detected:
    return Detected([], "", "error", "{}: {}".format(type(exc).__name__, exc))


def extract_page(
    url: str,
    payload: bytes,
    *,
    lang: str = "",
    footnote_mode: str = "keep",
    include_paragraphs: bool = False,
) -> dict:
    """One page -> one EXTRACTED-schema row (dict).

    ``include_paragraphs=True`` adds the structural golden column
    (FIXTURES.md §3): the full classified paragraph list — headers/page
    numbers INCLUDED with their flags, so structure tests can see what the
    text assembly skipped."""
    page = detect_page(url, payload)
    if not page.error:
        try:
            text, kept = assemble_text(page.paragraphs, footnote_mode=footnote_mode)
            return _ok_row(url, lang, page, text, kept, include_paragraphs)
        except Exception as exc:
            page = _failed(exc)
    return _failed_row(url, lang, page, include_paragraphs)


def page_rows(
    urls: list[str],
    langs: list[str],
    pages: list[Detected],
    *,
    footnote_mode: str = "keep",
    include_paragraphs: bool = False,
) -> list[dict]:
    """Stage 2 for a batch of detected pages: the EXTRACTED row of each,
    row for row, as :func:`extract_page` builds it.  The span filter's
    bounds for all pages come from one
    :func:`~ocr_ray.functions.metrics.near_pairs` pass: its fixed per-call
    NumPy cost is paid once per batch, not once per page.  Pairs never
    cross pages, so a row does not depend on the batch around it."""
    pages = list(pages)
    todo = []
    for i, page in enumerate(pages):
        if not page.error:
            try:
                todo.append((i, select_paragraphs(page.paragraphs, footnote_mode=footnote_mode)))
            except Exception as exc:
                pages[i] = _failed(exc)
    rows: list = [None] * len(pages)
    nears = near_pairs(
        [_candidate_spans(selected) for _, selected in todo],
        NEAR_DUP_WINDOW, NEAR_DUP_THRESHOLD,
    )
    for (i, selected), near in zip(todo, nears):
        try:
            kept = _filter_spans(selected, near)
            rows[i] = _ok_row(urls[i], langs[i], pages[i], _join(kept), kept,
                              include_paragraphs)
        except Exception as exc:
            pages[i] = _failed(exc)
    return [
        row if row is not None else _failed_row(url, lang, page, include_paragraphs)
        for row, url, lang, page in zip(rows, urls, langs, pages)
    ]


def _ok_row(url, lang, page: Detected, text, kept, include_paragraphs) -> dict:
    structural = (
        [_paragraph_struct(p) for p in page.paragraphs] if include_paragraphs else None
    )
    return _row(url, text, page.title, len(kept), page.kind, "ok", "", lang, structural)


def _failed_row(url, lang, page: Detected, include_paragraphs) -> dict:
    return _row(url, "", "", 0, page.kind, "error", page.error, lang,
                [] if include_paragraphs else None)


def _paragraph_struct(p: dict) -> dict:
    return {
        "type": p.get("type", "text"),
        "text": p.get("text", ""),
        "section": [s for s in p.get("section", ())],
        "is_footnote": bool(p.get("is_footnote", False)),
        "is_header": bool(p.get("is_header", False)),
        "is_page_number": bool(p.get("is_page_number", False)),
        "page": int(p.get("page", 0)),
        "order": int(p.get("order", 0)),
    }


def _row(url, extracted, title, n_blocks, kind, status, error, lang,
         paragraphs=None) -> dict:
    out = {
        "url": url,
        "extracted": extracted,
        "title": title,
        "n_blocks": n_blocks,
        "kind": kind,
        "status": status,
        "error": error,
        "digest": sha256_hex(extracted) if status == "ok" else "",
        "lang": lang,
    }
    if paragraphs is not None:
        out["paragraphs"] = paragraphs
    return out
