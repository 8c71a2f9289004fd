"""Minimal deterministic PDF writer + text-object reader.

The container ships no pypdfium2, so the PDF branch of the extractor
(reference: utils/text/parsers/pdf_parser.py) is exercised with a tiny
self-contained PDF dialect: valid ``%PDF-1.4`` files whose page content
streams are uncompressed and use only ``BT/ET``, ``Tf``, ``Td`` and ``Tj``
operators.  The writer is used by the synthetic-page generator; the reader
recovers each page's positioned text runs ``(x, y, size, text)`` — the
shape pypdfium2 yields to the reference's ``group_blocks_in_lines``
(pdf_parser.py:181-266) — which ``ocr_ray.pdf_extract`` then groups into
lines and paragraphs.

The reader is columnar: two ``bytes.find`` calls locate each content
stream, one ``findall`` yields its runs, each operand column becomes
floats in one ``map``, and only strings holding a backslash are
unescaped.  A page is a :class:`PageText` of four parallel lists, not one
object per run.

Both directions are pure functions of their input bytes: no wall clock, no
randomness, no filesystem.
"""

from __future__ import annotations

import re
from typing import NamedTuple

PAGE_W = 612.0
PAGE_H = 792.0


# ---------------------------------------------------------------------------
# Writer (synth only)
# ---------------------------------------------------------------------------

def _esc(s: str) -> str:
    return s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


def text_op(x: float, y: float, size: float, text: str) -> str:
    """One BT..ET text object at absolute position (x, y)."""
    return "BT /F1 {:.2f} Tf {:.2f} {:.2f} Td ({}) Tj ET".format(size, x, y, _esc(text))


def build_pdf(pages: list[list[str]]) -> bytes:
    """Assemble a minimal multi-page PDF.

    ``pages`` is a list of pages; each page is a list of content-stream
    operator strings (typically from :func:`text_op`).
    """
    objects: list[bytes] = []  # 1-indexed
    n_pages = len(pages)
    # obj 1: catalog, obj 2: pages, obj 3: font, 4..: page then content pairs
    kids = " ".join("{} 0 R".format(4 + 2 * i) for i in range(n_pages))
    objects.append(b"<< /Type /Catalog /Pages 2 0 R >>")
    objects.append(
        "<< /Type /Pages /Kids [{}] /Count {} >>".format(kids, n_pages).encode()
    )
    objects.append(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    for i, ops in enumerate(pages):
        page_num = 4 + 2 * i
        content_num = page_num + 1
        objects.append(
            (
                "<< /Type /Page /Parent 2 0 R /MediaBox [0 0 {:g} {:g}] "
                "/Resources << /Font << /F1 3 0 R >> >> /Contents {} 0 R >>"
            ).format(PAGE_W, PAGE_H, content_num).encode()
        )
        stream = ("\n".join(ops)).encode("latin-1", errors="replace")
        objects.append(
            b"<< /Length " + str(len(stream)).encode() + b" >>\nstream\n" + stream + b"\nendstream"
        )

    out = bytearray(b"%PDF-1.4\n")
    offsets = [0]
    for i, body in enumerate(objects, start=1):
        offsets.append(len(out))
        out += "{} 0 obj\n".format(i).encode() + body + b"\nendobj\n"
    xref_at = len(out)
    out += "xref\n0 {}\n".format(len(objects) + 1).encode()
    out += b"0000000000 65535 f \n"
    for off in offsets[1:]:
        out += "{:010d} 00000 n \n".format(off).encode()
    out += (
        "trailer\n<< /Size {} /Root 1 0 R >>\nstartxref\n{}\n%%EOF\n".format(
            len(objects) + 1, xref_at
        )
    ).encode()
    return bytes(out)


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

# one whole text object; the writer emits exactly one Tf+Td+Tj per BT..ET.
# String content is escape-aware and written as an unrolled loop
# ([^\\()]*(?:\\.[^\\()]*)*): the same strings as (?:\\.|[^\\()])*,
# without one alternation per byte; a lookbehind-based close-paren match
# would mis-handle an escaped backslash before ')'.
_TEXTOBJ_RE = re.compile(
    rb"BT\s+/\w+\s+([\d.]+)\s+Tf\s+([-\d.]+)\s+([-\d.]+)\s+Td\s+"
    rb"\(([^\\()]*(?:\\.[^\\()]*)*)\)\s*Tj\s+ET",
    re.DOTALL,
)
_UNESC = {b"\\\\": b"\\", b"\\(": b"(", b"\\)": b")"}


class PageText(NamedTuple):
    """One content stream's text runs as columns, in stream order: run
    ``i`` sits at ``(xs[i], ys[i])`` in font size ``sizes[i]``."""

    xs: list[float]
    ys: list[float]
    sizes: list[float]
    texts: list[str]


def _unescape(raw: bytes) -> str:
    out = raw
    for k, v in _UNESC.items():
        out = out.replace(k, v)
    return out.decode("latin-1")


def is_pdf(payload: bytes) -> bool:
    """Payload sniff, the per-row format dispatch of parsers/__init__.py:173-191."""
    return payload[:5] == b"%PDF-"


def _streams(payload: bytes):
    """Each ``stream\\r?\\n ... \\r?\\nendstream`` body in file order, the
    shortest body per ``stream`` keyword, as a lazy DOTALL regex scan
    would find them, but with two ``bytes.find`` calls per stream."""
    pos = 0
    while True:
        i = payload.find(b"stream", pos)
        if i < 0:
            return
        body = i + 6
        if payload.startswith(b"\r\n", body):
            body += 2
        elif payload.startswith(b"\n", body):
            body += 1
        else:
            pos = i + 1
            continue
        end = payload.find(b"\nendstream", body)
        if end < 0:
            return
        yield payload[body:end - 1 if end > body and payload[end - 1] == 13 else end]
        pos = end + 10


def _page_text(runs: list[tuple]) -> PageText:
    """One stream's regex matches -> columns: each operand column is
    converted in one pass, and only strings holding a backslash are
    unescaped.  A malformed number raises the ``ValueError`` a run-by-run
    ``float`` of x, y, then size would raise first."""
    if not runs:
        return PageText([], [], [], [])
    sizes, xs, ys, raw = zip(*runs)
    try:
        cols = [list(map(float, col)) for col in (xs, ys, sizes)]
    except ValueError:
        for size, x, y, _text in runs:
            float(x), float(y), float(size)
        raise
    texts = [_unescape(t) if b"\\" in t else t.decode("latin-1") for t in raw]
    return PageText(*cols, texts)


def read_pages(payload: bytes) -> list[PageText]:
    """Parse the text runs of every page content stream, one
    :class:`PageText` per stream in file order (the list index is the
    page number).

    Raises ``ValueError`` on payloads that don't look like a well-formed
    mini-PDF (truncated files, garbage) — callers turn that into an
    ``status='error'`` row, never a crash.
    """
    if not is_pdf(payload):
        raise ValueError("not a PDF payload")
    if b"%%EOF" not in payload:
        raise ValueError("truncated PDF (no %%EOF)")
    if b"stream" not in payload:
        raise ValueError("PDF has no content streams")
    return [_page_text(_TEXTOBJ_RE.findall(body)) for body in _streams(payload)]
