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

A page costs one token scan (``fast_html``), one tree build, one prune
walk and one segment walk, each linear in the page and none recursive, so
nesting depth costs memory, never the interpreter stack.  The builder
records the ``<title>`` elements as they open; :func:`prepare_tree` is one
iterative preorder walk that compacts every visited node's children in
place (dropping the always-dropped subtrees and link-only ``<li>`` items)
and notes the first surviving ``<header>`` and the last surviving
``<footer>`` with their parents, so removing them needs no search.
:func:`segment_blocks` takes each block's text and link characters from
one walk of its subtree.

Everything here is a pure function of the input string: deterministic,
no globals, no I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html.parser import HTMLParser as _StdHTMLParser

from .fast_html import _parse_attrs, fast_parse, pop_to

VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)
DROP_TAGS = frozenset("head script style aside form nav".split())
BLOCK_TAGS = frozenset(
    "p ul ol h1 h2 h3 h4 h5 table pre code blockquote dl".split()
)
# implicit close: opening any of these closes an open <p>
_P_CLOSERS = frozenset(
    "p ul ol dl table h1 h2 h3 h4 h5 div section article header footer pre blockquote".split()
)


def collapse_ws(text: str) -> str:
    """Whitespace collapse + strip (html_parser.py:221-227).  ``str.split``
    splits on exactly the characters the regex ``\\s`` matches in a str
    pattern, so this is ``re.sub(r"\\s+", " ", text).strip()``."""
    return " ".join(text.split())


class Node:
    """One element: ``tag``, ``attrs`` and ``children`` (Nodes and text
    strings, in document order).  ``attrs`` may be given as the tag's raw
    attribute source; it is then parsed on the first ``.attrs`` read.
    Every walk below is iterative, so DOM depth is bounded by memory, not
    the interpreter stack."""

    __slots__ = ("tag", "_attrs", "children")

    def __init__(self, tag: str, attrs=None, children=None):
        self.tag = tag
        self._attrs = "" if attrs is None else attrs
        self.children = [] if children is None else children

    @property
    def attrs(self) -> dict:
        a = self._attrs
        if a.__class__ is str:
            a = self._attrs = _parse_attrs(a) if a.strip(" /") else {}
        return a

    def iter_text(self, parts: list):
        """Append every descendant text string to ``parts``, in order."""
        stack = self.children[::-1]  # pending nodes and strings, next on top
        while stack:
            c = stack.pop()
            if c.__class__ is str:
                parts.append(c)
            else:
                stack += c.children[::-1]

    def get_text(self) -> str:
        parts: list[str] = []
        self.iter_text(parts)
        return collapse_ws(" ".join(parts)) or self._title_text()

    def _title_text(self) -> str:
        """The text fallback: the ``title`` attributes of this node and its
        descendants, in document order (html_parser.py:227)."""
        return " ".join(
            t for t in (n.attrs.get("title") for n in [self, *self.find_all(None)]) if t
        )

    def find_all(self, tags) -> list["Node"]:
        """Descendants whose tag is in ``tags`` (every descendant when
        ``tags`` is None), in document (pre)order."""
        found: list[Node] = []
        stack = self.children[::-1]
        while stack:
            c = stack.pop()
            if c.__class__ is not str:
                if tags is None or c.tag in tags:
                    found.append(c)
                stack += c.children[::-1]
        return found


class Document(Node):
    """A parsed page's root: also holds its ``<title>`` elements in
    document order, recorded by the builder as they open."""

    __slots__ = ("titles",)

    def __init__(self):
        super().__init__("[document]")
        self.titles: list[Node] = []


class _TreeBuilder(_StdHTMLParser):
    """Forgiving HTML -> Node tree; tolerates unclosed tags."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Document()
        self.stack: list[Node] = [self.root]
        self.open_n: dict[str, int] = {}

    def _add(self, tag, attrs) -> Node:
        node = Node(tag, dict(attrs))
        self.stack[-1].children.append(node)
        if tag == "title":
            self.root.titles.append(node)
        return node

    def handle_starttag(self, tag, attrs):
        if tag in _P_CLOSERS:
            pop_to(self.stack, self.open_n, "p")  # implicit </p>
        node = self._add(tag, attrs)
        if tag not in VOID_TAGS:
            self.stack.append(node)
            self.open_n[tag] = self.open_n.get(tag, 0) + 1

    def handle_startendtag(self, tag, attrs):
        self._add(tag, attrs)

    def handle_endtag(self, tag):
        pop_to(self.stack, self.open_n, tag)  # a stray close tag is ignored

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def parse_html_stdlib(html: str) -> Document:
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


def parse_html(html: str) -> Document:
    """Parse to a Node tree: fast regex tokenizer by default
    (ocr_ray.fast_html; 3.7-4.5x the stdlib builder's parse rate over the
    3,110 HTML pages of the benchmark's ``cc_mixed_resume`` seed 41, one
    core), stdlib fallback via ``OCR_RAY_SLOW_HTML=1``.  Both builders are
    equivalence-tested to byte-identical extraction
    (tests/test_fast_html.py)."""
    import os

    if os.environ.get("OCR_RAY_SLOW_HTML"):
        return parse_html_stdlib(html)
    return fast_parse(html, Document(), Node, VOID_TAGS, _P_CLOSERS)


# ---------------------------------------------------------------------------
# prepare: boilerplate strip (html_parser.py:56-93)
# ---------------------------------------------------------------------------

def extract_title(root: Document) -> str:
    """The first non-empty ``<title>`` text, from the titles the builder
    recorded (call before :func:`prepare_tree` prunes the tree)."""
    for t in root.titles:
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
    kid = None
    for c in node.children:
        if c.__class__ is str:
            if not c.strip():  # the same whitespace as collapse_ws' \s
                continue
            return False
        if kid is not None:
            return False
        kid = c
    return kid is not None and kid.tag == "a"


def prepare_tree(
    root: Document,
    *,
    skip_header: bool = True,
    skip_footer: bool = True,
    skip_link_item: bool = True,
) -> str:
    """Prune boilerplate subtrees in place; returns the page title.

    Mirrors prepare_html (html_parser.py:56-93): head/script/style/aside/
    form/nav always dropped; first <header>, last <footer>; link-only <li>.

    One iterative preorder walk filters every visited node's children and
    notes, with its parent, the first surviving <header> (not descended:
    it goes whole, so a footer inside it does not count) and the last
    surviving <footer>; both are removed after the walk.
    """
    title = extract_title(root)
    header = footer = None  # (parent, node)
    # Each visited node's children are compacted in place (kids[:w] kept);
    # the walk holds no per-node objects, so deep pages stay cheap for the
    # cyclic GC.  ``stack`` holds (node, i, w) of the suspended ancestors.
    stack: list = []
    node, i, w = root, 0, 0
    while True:
        kids = node.children
        while i < len(kids):
            c = kids[i]
            i += 1
            if c.__class__ is not str:
                tag = c.tag
                if tag in DROP_TAGS or (skip_link_item and tag == "li" and _is_link_item(c)):
                    continue
                if tag == "header" and skip_header and header is None:
                    header = (node, c)  # removed whole after the walk
                else:
                    if tag == "footer":
                        footer = (node, c)
                    if c.children:
                        kids[w] = c
                        stack += (node, i, w + 1)
                        node, i, w = c, 0, 0
                        break
            kids[w] = c
            w += 1
        else:
            del kids[w:]
            if not stack:
                break
            w = stack.pop()
            i = stack.pop()
            node = stack.pop()
    for found, skip in ((header, skip_header), (footer, skip_footer)):
        if found and skip:
            found[0].children.remove(found[1])
    return title


# ---------------------------------------------------------------------------
# Stage 1 — detect: segment candidate blocks with density scores
# ---------------------------------------------------------------------------

@dataclass
class Block:
    block_id: int
    kind: str            # text|code|table|list|heading|chrome
    node: Node
    # (parent path, tag, index among same-tag siblings); out of the repr,
    # whose nested-tuple recursion a deep page would exhaust
    path: tuple = field(repr=False)
    text: str = ""       # node.get_text(), computed once at segmentation
    char_start: int = 0
    char_end: int = 0
    text_density: float = 0.0
    link_density: float = 0.0
    score: float = 0.0

    @property
    def dom_path(self) -> str:
        """``/tag[i]/...`` from the root; rendered on read, so a deep page
        pays O(depth) per read, not per block at segmentation."""
        steps = []
        p = self.path
        while p:
            p, tag, i = p
            steps.append("/{}[{}]".format(tag, i))
        return "".join(reversed(steps))


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


def _text_and_links(node: Node) -> tuple:
    """``(node.get_text(), link chars)`` from one walk of the subtree; link
    chars sum ``len(a.get_text())`` over the outermost ``<a>`` elements."""
    parts: list[str] = []
    link_n = 0
    stack = node.children[::-1]
    while stack:
        c = stack.pop()
        if c.__class__ is str:
            parts.append(c)
        elif c.tag == "a":
            start = len(parts)
            c.iter_text(parts)
            link_n += len(collapse_ws(" ".join(parts[start:])) or c._title_text())
        else:
            stack += c.children[::-1]
    return collapse_ws(" ".join(parts)) or node._title_text(), link_n


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
    # ``stack`` holds (children, next index, path, tag counters) of the
    # suspended ancestors; ``path`` is a (parent path, tag, index) chain.
    stack: list = []
    kids, i, path, counters = root.children, 0, None, {}
    while True:
        while i < len(kids):
            c = kids[i]
            i += 1
            if c.__class__ is str:
                continue
            tag = c.tag
            k = counters[tag] = counters.get(tag, 0) + 1
            if tag not in BLOCK_TAGS:
                if c.children:
                    stack += (kids, i, path, counters)
                    kids, i, path, counters = c.children, 0, (path, tag, k), {}
                    break
                continue
            # a block: tables/lists/pre are atomic, so never descended
            if len(blocks) >= max_blocks:
                return blocks
            text, link_n = _text_and_links(c)
            n = len(text)
            kind = _kind_of(tag)
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
            blocks.append(
                Block(
                    block_id=len(blocks),
                    kind=kind,
                    node=c,
                    path=(path, tag, k),
                    text=text,
                    char_start=cursor,
                    char_end=cursor + n,
                    text_density=text_density,
                    link_density=link_density,
                    score=score,
                )
            )
            cursor += n + 1
        else:
            if not stack:
                return blocks
            counters = stack.pop()
            path = stack.pop()
            i = stack.pop()
            kids = stack.pop()


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
