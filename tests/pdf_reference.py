"""The PDF front end as it was before its columnar rewrite, frozen as the
reference the current one must match row for row (tests/
test_pdf_oracle.py): one frozen ``TextObj`` per text run, a lazy
``DOTALL`` regex per content stream, a per-field ``float()`` and
``_unescape`` per run, and line grouping over the objects.

Paragraph merging and classification did not change and are imported
from :mod:`ocr_ray.pdf_extract`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ocr_ray.extract_core import _paragraph_struct, _row, assemble_text
from ocr_ray.minipdf import is_pdf
from ocr_ray.pdf_extract import (
    LINE_OVERLAP,
    ORDER_WEIGHTS,
    SUPERSCRIPT_SIZE,
    classify_paragraph,
    group_lines_in_paragraphs,
)


@dataclass(frozen=True)
class TextObj:
    page: int
    x: float
    y: float
    size: float
    text: str


_STREAM_RE = re.compile(rb"stream\r?\n(.*?)\r?\nendstream", re.DOTALL)
_TEXTOBJ_RE = re.compile(
    rb"BT\s+/\w+\s+([\d.]+)\s+Tf\s+([-\d.]+)\s+([-\d.]+)\s+Td\s+"
    rb"\(((?:\\.|[^\\()])*)\)\s*Tj\s+ET",
    re.DOTALL,
)
WORD_GAP_FACTOR = 0.35
_UNESC = {b"\\\\": b"\\", b"\\(": b"(", b"\\)": b")"}


def _unescape(raw: bytes) -> str:
    out = raw
    for k, v in _UNESC.items():
        out = out.replace(k, v)
    return out.decode("latin-1")


def read_text_objects(payload: bytes) -> list[TextObj]:
    if not is_pdf(payload):
        raise ValueError("not a PDF payload")
    if b"%%EOF" not in payload:
        raise ValueError("truncated PDF (no %%EOF)")
    objs: list[TextObj] = []
    for page, m in enumerate(_STREAM_RE.finditer(payload)):
        for t in _TEXTOBJ_RE.finditer(m.group(1)):
            objs.append(
                TextObj(
                    page=page,
                    x=float(t.group(2)),
                    y=float(t.group(3)),
                    size=float(t.group(1)),
                    text=_unescape(t.group(4)),
                )
            )
    if not objs and b"stream" not in payload:
        raise ValueError("PDF has no content streams")
    return objs


def _approx_char_w(size: float) -> float:
    return size * 0.5


def group_objs_in_lines(objs: list[TextObj]) -> list[dict]:
    if not objs:
        return []
    objs = sorted(objs, key=lambda o: (-o.y, o.x))
    max_size = max(o.size for o in objs)
    lines: list[list[TextObj]] = []
    start = 0
    for o in objs:
        while start < len(lines) and lines[start][0].y - o.y >= max_size:
            start += 1
        placed = False
        for li in range(start, len(lines)):
            ref = lines[li][0]
            h = max(ref.size, o.size)
            overlap = min(ref.y + ref.size, o.y + o.size) - max(ref.y, o.y)
            if overlap / h >= LINE_OVERLAP:
                lines[li].append(o)
                placed = True
                break
        if not placed:
            lines.append([o])

    out = []
    for line in lines:
        line.sort(key=lambda o: o.x)
        sizes = sorted(o.size for o in line)
        median = sizes[len(sizes) // 2]
        baseline = min(o.y for o in line if o.size >= SUPERSCRIPT_SIZE * median) \
            if any(o.size >= SUPERSCRIPT_SIZE * median for o in line) else min(o.y for o in line)
        parts: list[str] = []
        footnote_refs: list[int] = []
        x_end = None
        for o in line:
            is_super = (
                o.size < SUPERSCRIPT_SIZE * median
                and o.y > baseline + 0.15 * median
            )
            token = o.text
            if is_super and token.strip().isdigit():
                idx = int(token.strip())
                footnote_refs.append(idx)
                token = "^{}".format(idx)
                parts.append(token)
                x_end = o.x + len(o.text) * _approx_char_w(o.size)
                continue
            if x_end is not None and o.x - x_end > WORD_GAP_FACTOR * o.size:
                parts.append(" ")
            elif x_end is not None:
                parts.append(" ")
            parts.append(token)
            x_end = o.x + len(o.text) * _approx_char_w(o.size)
        text = "".join(parts).replace(" ^", "^")
        out.append(
            {
                "text": text,
                "y": baseline,
                "top": max(o.y + o.size for o in line),
                "x": line[0].x,
                "size": median,
                "footnotes": footnote_refs,
            }
        )
    out.sort(key=lambda l: (-l["y"], l["x"]))
    return out


def extract_pdf_page_objs(objs: list[TextObj]) -> list[dict]:
    lines = group_objs_in_lines(objs)
    paras = group_lines_in_paragraphs(lines)
    if not paras:
        return []
    mass: dict[float, int] = {}
    for p in paras:
        mass[p["size"]] = mass.get(p["size"], 0) + len(p["text"])
    body_size = max(mass.items(), key=lambda kv: (kv[1], kv[0]))[0]
    out = []
    for p in paras:
        cls = classify_paragraph(p, body_size)
        footnote_index = 0
        if cls == "footnote":
            marker = p["text"].strip().split(" ", 1)[0]
            digits = marker.lstrip("^")
            footnote_index = int(digits) if digits.isdigit() else 0
        out.append(
            {
                "type": "text",
                "text": p["text"],
                "section": [],
                "is_footnote": cls == "footnote",
                "is_header": cls == "header",
                "is_page_number": cls == "page_number",
                "footnote_index": footnote_index,
                "footnotes": p["footnotes"],
                "weight": ORDER_WEIGHTS[cls],
                "y": p["y_top"],
            }
        )
    out.sort(key=lambda p: p["weight"])
    return out


def extract_pdf_paragraphs(objs: list[TextObj]) -> list[dict]:
    by_page: dict[int, list[TextObj]] = {}
    for o in objs:
        by_page.setdefault(o.page, []).append(o)
    paragraphs: list[dict] = []
    for page in sorted(by_page):
        for p in extract_pdf_page_objs(by_page[page]):
            p["page"] = page
            p["order"] = len(paragraphs)
            paragraphs.append(p)
    return paragraphs


def extract_pdf_page(url: str, payload: bytes, *, footnote_mode: str = "keep") -> dict:
    """``extract_core.extract_page`` (with the structural column) for a
    ``%PDF-`` payload, through this module's reader and line grouper."""
    try:
        paragraphs = extract_pdf_paragraphs(read_text_objects(payload))
        text, kept = assemble_text(paragraphs, footnote_mode=footnote_mode)
        structural = [_paragraph_struct(p) for p in paragraphs]
        return _row(url, text, "", len(kept), "pdf", "ok", "", "", structural)
    except Exception as exc:
        return _row(url, "", "", 0, "error", "error",
                    "{}: {}".format(type(exc).__name__, exc), "", [])
