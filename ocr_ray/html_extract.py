"""Stage-1/2 HTML extraction: boilerplate strip + block segmentation + paragraphs.

Reimplements, from scratch on the stdlib ``html.parser`` (no bs4/lxml in this
container), the semantics of the reference HTML parser
(/root/reference/utils/text/parsers/html_parser.py):

- ``prepare_html`` boilerplate strip (html_parser.py:56-93): drop
  head/script/style/aside/form/nav subtrees, the first <header>, the last
  <footer>, and <li> items that only wrap a link (html_parser.py:174-175).
- ``extract_paragraphs`` tag walk (html_parser.py:119-159): p / ul / ol /
  h1-h5 / table / pre / code, with a hierarchical section-title stack
  (html_parser.py:214-219), table constant-column drop (html_parser.py:201-206)
  and whitespace-collapsed text (html_parser.py:221-227).
- inline link references ``[n]`` numbered per document in first-seen order
  (html_parser.py:95-110 — the reference keeps a process-global ``_links``
  dict, which is a correctness bug at scale; here numbering is scoped to the
  document so results never depend on batch composition, SURVEY §2.4 T7).

The "detect" stage of the detect-then-extract flow is :func:`segment_blocks`:
it scores candidate DOM blocks with text-density / link-density heuristics
(the EAST score-map analog, models/detection/east.py:103-151 →
Boilerpipe-style node scoring) and yields ``(char_start, char_end)`` intervals
into the canonical document text — the 1-D analog of xyxy boxes.

Everything here is a pure function of the input string: deterministic,
no globals, no I/O.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser as _StdHTMLParser

_WS_RE = re.compile(r"\s+")

VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)
DROP_TAGS = frozenset("head script style aside form nav".split())
BLOCK_TAGS = (
    "p", "ul", "ol", "h1", "h2", "h3", "h4", "h5", "table", "pre", "code",
    "blockquote", "dl",
)
# implicit close: opening any of these closes an open <p>
_P_CLOSERS = frozenset(
    "p ul ol dl table h1 h2 h3 h4 h5 div section article header footer pre blockquote".split()
)


def collapse_ws(text: str) -> str:
    """Whitespace collapse + strip (html_parser.py:221-227)."""
    return _WS_RE.sub(" ", text).strip()


@dataclass
class Node:
    tag: str
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)  # Node or str

    def iter_text(self, parts: list):
        for c in self.children:
            if isinstance(c, str):
                parts.append(c)
            else:
                c.iter_text(parts)

    def get_text(self) -> str:
        parts: list[str] = []
        self.iter_text(parts)
        text = collapse_ws(" ".join(parts))
        if text:
            return text
        # fallback: join title attributes of descendants (html_parser.py:227)
        titles: list[str] = []
        self._collect_titles(titles)
        return " ".join(titles)

    def _collect_titles(self, out: list):
        t = self.attrs.get("title")
        if t:
            out.append(t)
        for c in self.children:
            if isinstance(c, Node):
                c._collect_titles(out)

    def find_all(self, tags) -> list["Node"]:
        """Descendants whose tag is in ``tags``, in document (pre)order.
        Iterative, so DOM depth is bounded by memory, not the stack."""
        found: list[Node] = []
        parents: list = []  # suspended child iterators of the ancestors
        it = iter(self.children)
        while True:
            for c in it:
                if isinstance(c, Node):
                    if c.tag in tags:
                        found.append(c)
                    if c.children:
                        parents.append(it)
                        it = iter(c.children)
                        break
            else:
                if not parents:
                    return found
                it = parents.pop()


class _TreeBuilder(_StdHTMLParser):
    """Forgiving HTML -> Node tree; tolerates unclosed tags."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Node("[document]")
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        if tag in _P_CLOSERS:
            # implicit </p>
            for i in range(len(self.stack) - 1, 0, -1):
                if self.stack[i].tag == "p":
                    del self.stack[i:]
                    break
        node = Node(tag, dict(attrs))
        self.stack[-1].children.append(node)
        if tag not in VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.stack[-1].children.append(Node(tag, dict(attrs)))

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # stray close tag: ignore

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def parse_html_stdlib(html: str) -> Node:
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


def parse_html(html: str) -> Node:
    """Parse to a Node tree: fast regex tokenizer by default
    (ocr_ray.fast_html, ~4x the stdlib parser), stdlib fallback via
    ``OCR_RAY_SLOW_HTML=1``.  Both builders are equivalence-tested to
    byte-identical extraction (tests/test_fast_html.py)."""
    import os

    if os.environ.get("OCR_RAY_SLOW_HTML"):
        return parse_html_stdlib(html)
    from .fast_html import fast_parse

    return fast_parse(html, Node, VOID_TAGS, _P_CLOSERS)


# ---------------------------------------------------------------------------
# prepare: boilerplate strip (html_parser.py:56-93)
# ---------------------------------------------------------------------------

def extract_title(root: Node) -> str:
    for t in root.find_all(("title",)):
        text = t.get_text()
        if text:
            return text
    return ""


def extract_links(html: str) -> list:
    """All <a href> targets of a page in document order — the anchor /
    outlink extraction a crawl graph is built from (reference analog: the
    link handling in ``utils/text/parsers/html_parser.py``; here a plain
    DOM walk over the same from-scratch tree)."""
    out = []
    for a in parse_html(html).find_all(("a",)):
        href = a.attrs.get("href")
        if href:
            out.append(href)
    return out


def extract_anchors(html: str) -> list:
    """(href, anchor_text) pairs in document order — the anchor-text
    retrieval signal (search engines index target pages under the words
    of inbound anchors)."""
    out = []
    for a in parse_html(html).find_all(("a",)):
        href = a.attrs.get("href")
        if href:
            out.append((href, a.get_text()))
    return out


def extract_tables(html: str) -> list:
    """Structured rows of every <table> on the page (list of list-of-dict,
    one inner list per table, constant columns dropped) — the
    relational-extraction surface over _parse_table."""
    root = parse_html(html)
    return [_parse_table(t) for t in root.find_all(("table",))]


def _is_link_item(node: Node) -> bool:
    """<li> wrapping only a link (html_parser.py:174-175)."""
    if node.tag != "li":
        return False
    kids = [c for c in node.children if isinstance(c, Node) or collapse_ws(c)]
    return len(kids) == 1 and isinstance(kids[0], Node) and kids[0].tag == "a"


def prepare_tree(
    root: Node,
    *,
    skip_header: bool = True,
    skip_footer: bool = True,
    skip_link_item: bool = True,
) -> str:
    """Prune boilerplate subtrees in place; returns the page title.

    Mirrors prepare_html (html_parser.py:56-93): head/script/style/aside/
    form/nav always dropped; first <header>, last <footer>; link-only <li>.
    """
    title = extract_title(root)

    def prune(node: Node):
        kept = []
        for c in node.children:
            if isinstance(c, Node):
                if c.tag in DROP_TAGS:
                    continue
                if skip_link_item and _is_link_item(c):
                    continue
                prune(c)
            kept.append(c)
        node.children = kept

    prune(root)

    if skip_header:
        headers = root.find_all(("header",))
        if headers:
            _remove_node(root, headers[0])
    if skip_footer:
        footers = root.find_all(("footer",))
        if footers:
            _remove_node(root, footers[-1])
    return title


def _remove_node(root: Node, target: Node) -> bool:
    for i, c in enumerate(root.children):
        if c is target:
            del root.children[i]
            return True
        if isinstance(c, Node) and _remove_node(c, target):
            return True
    return False


# ---------------------------------------------------------------------------
# Stage 1 — detect: segment candidate blocks with density scores
# ---------------------------------------------------------------------------

@dataclass
class Block:
    block_id: int
    kind: str            # text|code|table|list|heading|chrome
    node: Node
    dom_path: str
    text: str = ""       # node.get_text(), computed once at segmentation
    char_start: int = 0
    char_end: int = 0
    text_density: float = 0.0
    link_density: float = 0.0
    score: float = 0.0


_HEADINGS = frozenset(("h1", "h2", "h3", "h4", "h5"))


def _kind_of(tag: str) -> str:
    if tag in _HEADINGS:
        return "heading"
    if tag in ("ul", "ol", "dl"):
        return "list"
    if tag == "table":
        return "table"
    if tag in ("pre", "code"):
        return "code"
    return "text"


def _link_chars(node: Node) -> int:
    n = 0
    for c in node.children:
        if isinstance(c, Node):
            if c.tag == "a":
                n += len(c.get_text())
            else:
                n += _link_chars(c)
    return n


def segment_blocks(root: Node, *, max_blocks: int = 10_000) -> list[Block]:
    """Walk the pruned tree in document order and emit scored candidate blocks.

    The score is a Boilerpipe/Readability-style content score: high text
    density and low link density ⇒ content; heavy-link short blocks ⇒ chrome.
    This is the analog of EAST's score map + threshold (east.py:103-151,
    obj_threshold 0.35 at base_detector.py:39).  ``max_blocks`` caps
    pathological pages the way NMS tiles cap boxes
    (non_max_suppression.py:105-115).
    """
    blocks: list[Block] = []
    cursor = 0  # running char offset into the canonical document text

    def walk(node: Node, path: str, depth: int):
        nonlocal cursor
        counters: dict[str, int] = {}
        for c in node.children:
            if not isinstance(c, Node):
                continue
            counters[c.tag] = counters.get(c.tag, 0) + 1
            cpath = "{}/{}[{}]".format(path, c.tag, counters[c.tag])
            if c.tag in BLOCK_TAGS:
                if len(blocks) >= max_blocks:
                    return
                text = c.get_text()
                n = len(text)
                link_n = _link_chars(c)
                kind = _kind_of(c.tag)
                link_density = (link_n / n) if n else 0.0
                # words per char-of-markup proxy: plain length-normalized density
                text_density = min(1.0, n / 400.0)
                if kind == "heading":
                    score = 0.5
                elif n == 0:
                    score = 0.0
                else:
                    score = max(0.0, (1.0 - link_density) * (0.35 + 0.65 * text_density))
                if kind == "text" and link_density > 0.65 and n < 200:
                    kind = "chrome"
                b = Block(
                    block_id=len(blocks),
                    kind=kind,
                    node=c,
                    dom_path=cpath,
                    text=text,
                    char_start=cursor,
                    char_end=cursor + n,
                    text_density=text_density,
                    link_density=link_density,
                    score=score,
                )
                cursor += n + 1
                blocks.append(b)
                # tables/lists/pre are atomic; don't descend further
                continue
            walk(c, cpath, depth + 1)

    walk(root, "", 0)
    return blocks


# ---------------------------------------------------------------------------
# Stage 2 — extract: blocks -> typed paragraphs
# ---------------------------------------------------------------------------

def _parse_table(node: Node) -> list[dict]:
    """Table -> row dicts with constant-column drop (html_parser.py:182-207)."""
    theads = node.find_all(("thead",))
    if theads:
        columns = [t.get_text() for t in theads[0].find_all(("th",))]
        tbodys = node.find_all(("tbody",))
        body_rows = (tbodys[0] if tbodys else node).find_all(("tr",))
    else:
        trs = node.find_all(("tr",))
        if not trs:
            return []
        first = trs[0]
        ths = first.find_all(("th",))
        columns = [t.get_text() for t in (ths if ths else first.find_all(("td",)))]
        body_rows = trs[1:]
    rows = []
    for tr in body_rows:
        tds = tr.find_all(("td",))
        rows.append({col: td.get_text() for col, td in zip(columns, tds)})
    if len(rows) > 1:
        for col in columns:
            ref = rows[0].get(col)
            if all(r.get(col) == ref for r in rows[1:]):
                for r in rows:
                    r.pop(col, None)
    return rows


def _parse_list(node: Node) -> list[str]:
    """<li> items for ul/ol; 'term: definition' rows for <dl>."""
    if node.tag == "dl":
        items = []
        term = None
        for c in node.children:
            if not isinstance(c, Node):
                continue
            if c.tag == "dt":
                term = c.get_text()
            elif c.tag == "dd":
                d = c.get_text()
                if term and d:
                    items.append("{}: {}".format(term, d))
                elif d:
                    items.append(d)
        return items
    items = [li.get_text() for li in node.find_all(("li",))]
    return [it for it in items if it]


def _number_links(node: Node, text: str, links: dict) -> str:
    """Append '[n]' refs for inline links, per-document numbering.

    Mirrors _add_link_ref (html_parser.py:95-110) but with document-scoped
    state (SURVEY §2.4 T7: the reference's process-global dict is a bug).
    """
    for a in node.find_all(("a",)):
        href = (a.attrs.get("href") or "").strip().strip('"')
        anchor = a.get_text()
        if not href or not anchor:
            continue
        if href not in links:
            links[href] = len(links) + 1
        ref = " [{}]".format(links[href])
        idx = text.find(anchor)
        if idx >= 0 and not text[idx + len(anchor):].startswith(ref):
            text = text[: idx + len(anchor)] + ref + text[idx + len(anchor):]
    return text


def extract_paragraphs(
    blocks: list[Block],
    *,
    number_links: bool = True,
    score_threshold: float = 0.05,
) -> list[dict]:
    """Blocks -> typed paragraph records with section stacks.

    The tag-walk of html_parser.py:119-159: headings update the section
    stack (html_parser.py:214-219) and emit no paragraph; chrome and
    sub-threshold blocks are dropped (the score-threshold filter analog,
    base_ocr.py:224-227).
    """
    titles: list[str] = []
    links: dict[str, int] = {}
    out: list[dict] = []
    for b in blocks:
        if b.kind == "heading":
            level = int(b.node.tag[1]) - 1
            titles = titles[:level]
            if len(titles) != level:
                titles.extend([""] * (level - len(titles)))
            titles.append(b.text)
            continue
        if b.kind == "chrome" or b.score < score_threshold:
            continue
        if b.kind == "table":
            rows = _parse_table(b.node)
            if not rows or not rows[0]:
                continue
            text = "\n".join(
                "- " + " | ".join("{}: {}".format(k, v) for k, v in row.items())
                for row in rows
            )
        elif b.kind == "list":
            items = _parse_list(b.node)
            if not items:
                continue
            text = "\n".join("- " + it for it in items)
        else:
            text = b.text
            if not text:
                continue
            if number_links and b.kind == "text":
                text = _number_links(b.node, text, links)
        out.append(
            {
                "type": b.kind,
                "text": text,
                "section": list(titles),
                "is_footnote": False,
                "is_header": False,
                "is_page_number": False,
                "page": 0,
                "order": len(out),
            }
        )
    return out


def extract_html_page(html: str) -> dict:
    """Full single-page flow: parse -> prune -> segment -> extract.

    Returns ``{'title', 'paragraphs', 'blocks'}``; the pipeline assembles
    ``extracted`` from the paragraphs (paragraphs joined by '\\n\\n',
    parser.py:31-37).
    """
    root = parse_html(html)
    title = prepare_tree(root)
    blocks = segment_blocks(root)
    paragraphs = extract_paragraphs(blocks)
    return {"title": title, "paragraphs": paragraphs, "blocks": blocks}
