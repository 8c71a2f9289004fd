"""PDF layout parse: text runs -> lines -> paragraphs with classification.

Mirrors the reference PDF parser's grouping heuristics
(/root/reference/utils/text/parsers/pdf_parser.py):

- ``group_blocks_in_lines`` (pdf_parser.py:181-266): text runs sharing
  ≥50% vertical overlap form a line; within a line runs sort by x and are
  joined by one space (the writer emits one run per word, so the
  reference's ``0.35 ×`` font-size gap rule never drops a space here); a
  run whose size is < 0.8× the line-median size and whose baseline sits
  above the line baseline is a superscript — if numeric it becomes a
  footnote reference marker ``^{n}``.
- ``group_lines_in_paragraphs`` (pdf_parser.py:269-346): consecutive lines
  merge while the y-gap stays ≤ ``0.9 × leading`` and the dominant font size
  matches; a font-size change or large gap starts a new paragraph.
- classification (pdf_parser.py:146-162): running headers (top 8% of the
  page), page numbers (bottom 8%, digit-only), footnote paragraphs (bottom
  third, small font, leading superscript index).
- order weights (pdf_parser.py:164-166, 361-369): header 0 < body 1 <
  footnote 2 < page-number 3, stable-sorted per page — the determinism
  backbone for byte-identical output.

Works on the reader's per-page columns (:class:`~ocr_ray.minipdf.PageText`,
four parallel lists): lines hold run indices, so no object is built per
text run.  Plain Python over lists is the right tool at this size (a page
has at most thousands of runs, most lines a handful); runs inside the
extractor's batch call.
"""

from __future__ import annotations

from .minipdf import PAGE_H, PageText

SUPERSCRIPT_SIZE = 0.8       # size ratio below which a raised run is superscript
LINE_OVERLAP = 0.5           # min y-overlap ratio to share a line
PARA_GAP_FACTOR = 0.9        # max y-gap in leadings inside a paragraph
HEADER_BAND = 0.92           # y above 92% of page height ⇒ running header
FOOTER_BAND = 0.08           # y below 8% ⇒ page-number band
FOOTNOTE_BAND = 0.33         # bottom third of the page

ORDER_WEIGHTS = {"header": 0, "body": 1, "footnote": 2, "page_number": 3}


def group_page_lines(page: PageText) -> list[dict]:
    """Group one page's text runs into lines (pdf_parser.py:181-266)."""
    xs, ys, sizes, texts = page
    if not xs:
        return []
    # stable sort by (-y, x): the run index breaks ties in input order
    order = [i for _, _, i in sorted(zip([-y for y in ys], xs, range(len(xs))))]
    max_size = max(sizes)
    lines: list[list[int]] = []
    ref_y: list[float] = []  # each line's first run: y and size
    ref_size: list[float] = []
    start = 0  # lines before this can never match any remaining run:
    # runs arrive in descending y, so once ref_y - y >= max_size the
    # overlap with this and every later run is <= 0 (keeps the scan O(N)
    # instead of O(N * n_lines) while matching the naive first-match order)
    last = None  # (y, size, line) of the run before, if a run like it joins that line
    for i in order:
        y, size = ys[i], sizes[i]
        if last is not None and y == last[0] and size == last[1]:
            # the scan would see the same start and stop at the same line
            last[2].append(i)
            continue
        while start < len(lines) and ref_y[start] - y >= max_size:
            start += 1
        for li in range(start, len(lines)):
            ry, rs = ref_y[li], ref_size[li]
            h = max(rs, size)
            overlap = min(ry + rs, y + size) - max(ry, y)
            if overlap / h >= LINE_OVERLAP:
                lines[li].append(i)
                last = (y, size, lines[li])
                break
        else:
            lines.append([i])
            ref_y.append(y)
            ref_size.append(size)
            # a second run like this one joins the new line only if the
            # overlap test passes against the line's own first run
            ok = size and (y + size - y) / size >= LINE_OVERLAP
            last = (y, size, lines[-1]) if ok else None

    out = []
    for line in lines:
        line.sort(key=xs.__getitem__)
        line_sizes = sorted([sizes[i] for i in line])
        median = line_sizes[len(line_sizes) // 2]
        # sizes are >= 0, so the median run always counts toward the baseline
        baseline = min([ys[i] for i in line if sizes[i] >= SUPERSCRIPT_SIZE * median])
        parts: list[str] = []
        footnote_refs: list[int] = []
        for i in line:
            token = texts[i]
            if (
                sizes[i] < SUPERSCRIPT_SIZE * median
                and ys[i] > baseline + 0.15 * median
                and token.strip().isdigit()
            ):
                idx = int(token.strip())
                footnote_refs.append(idx)
                parts.append("^{}".format(idx))  # attach without preceding space
                continue
            if parts:
                parts.append(" ")  # the writer emits one run per word
            parts.append(token)
        out.append(
            {
                "text": "".join(parts).replace(" ^", "^"),
                "y": baseline,
                "x": xs[line[0]],
                "size": median,
                "footnotes": footnote_refs,
            }
        )
    out.sort(key=lambda l: (-l["y"], l["x"]))
    return out


def group_lines_in_paragraphs(lines: list[dict]) -> list[dict]:
    """Merge consecutive lines into paragraphs (pdf_parser.py:269-346)."""
    paras: list[dict] = []
    cur: list[dict] = []

    def flush():
        if not cur:
            return
        paras.append(
            {
                "text": " \n".join(l["text"] for l in cur),  # line join (base_ocr.py:232)
                "y_top": cur[0]["y"],
                "y_bottom": cur[-1]["y"],
                "x": cur[0]["x"],
                "size": cur[0]["size"],
                "footnotes": [i for l in cur for i in l["footnotes"]],
            }
        )

    for line in lines:
        if not cur:
            cur = [line]
            continue
        prev = cur[-1]
        leading = max(prev["size"], line["size"]) * 1.2
        gap = prev["y"] - line["y"]
        same_font = abs(prev["size"] - line["size"]) <= 0.01
        if same_font and 0 < gap <= (1.0 + PARA_GAP_FACTOR) * leading:
            cur.append(line)
        else:
            flush()
            cur = [line]
    flush()
    return paras


def classify_paragraph(para: dict, body_size: float) -> str:
    """header | body | footnote | page_number (pdf_parser.py:146-162)."""
    y_rel = para["y_top"] / PAGE_H
    text = para["text"].strip()
    if y_rel >= HEADER_BAND:
        return "header"
    if y_rel <= FOOTER_BAND and text.replace("Page", "").replace("-", "").strip().isdigit():
        return "page_number"
    if (
        y_rel <= FOOTNOTE_BAND
        and para["size"] < 0.85 * body_size
        and text.startswith("^")
    ):
        return "footnote"
    return "body"


def extract_pdf_page(page: PageText) -> list[dict]:
    """One page's text runs -> classified, order-weighted paragraphs."""
    lines = group_page_lines(page)
    paras = group_lines_in_paragraphs(lines)
    if not paras:
        return []
    # dominant body font = the size covering the most characters (a
    # char-mass-weighted mode; pdf_parser.py derives body size from the
    # font-size distribution the same way)
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
    # stable sort by order weight within the page (pdf_parser.py:164-166,361-369)
    out.sort(key=lambda p: p["weight"])
    return out


def extract_pdf_paragraphs(pages: list[PageText]) -> list[dict]:
    """All pages -> paragraph records with per-document order."""
    paragraphs: list[dict] = []
    for page, runs in enumerate(pages):
        for p in extract_pdf_page(runs):
            p["page"] = page
            p["order"] = len(paragraphs)
            paragraphs.append(p)
    return paragraphs
