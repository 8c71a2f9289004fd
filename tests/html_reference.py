"""The HTML front end as it was before its linear-time rewrite, frozen as
the reference the current one must match byte for byte (tests/
test_html_soup.py).  Recursive, and quadratic in nesting depth: feed it
only pages shallower than the interpreter's recursion limit.

``parse_html(html, stdlib=True)`` uses the stdlib ``html.parser``
builder; the default is the regex tokenizer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser as _StdHTMLParser

_TOKEN_RE = re.compile(
    r"<!--.*?-->"
    r"|<!\[CDATA\[.*?\]\]>"
    r"|<![^>]*>"
    r"|<\?[^>]*>"
    r"|</\s*([a-zA-Z][a-zA-Z0-9]*)[^>]*>"
    r"|<([a-zA-Z][a-zA-Z0-9]*)((?:\"[^\"]*\"|'[^']*'|[^>\"'])*)>",
    re.DOTALL,
)

_ATTR_RE = re.compile(
    r"([a-zA-Z_:][-a-zA-Z0-9_:.]*)\s*(?:=\s*(\"[^\"]*\"|'[^']*'|[^\s\"'>]*))?"
)

_RAWTEXT_CLOSE = {
    "script": re.compile(r"</script[^>]*>", re.IGNORECASE),
    "style": re.compile(r"</style[^>]*>", re.IGNORECASE),
}


def _parse_attrs(raw: str) -> dict:
    attrs = {}
    for m in _ATTR_RE.finditer(raw):
        name = m.group(1).lower()
        val = m.group(2)
        if val is None:
            attrs[name] = None
        else:
            if val[:1] in ("'", '"'):
                val = val[1:-1]
            attrs[name] = unescape(val)
    return attrs


def fast_parse(html: str, node_cls, void_tags, p_closers):
    root = node_cls("[document]")
    stack = [root]
    pos = 0
    n = len(html)
    while pos < n:
        m = _TOKEN_RE.search(html, pos)
        if m is None:
            if pos < n:
                stack[-1].children.append(unescape(html[pos:]))
            break
        if m.start() > pos:
            stack[-1].children.append(unescape(html[pos : m.start()]))
        pos = m.end()
        close_name, open_name, attr_raw = m.group(1), m.group(2), m.group(3)
        if close_name:
            tag = close_name.lower()
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].tag == tag:
                    del stack[i:]
                    break
            continue
        if not open_name:
            continue  # comment / doctype / PI
        tag = open_name.lower()
        self_closing = attr_raw.rstrip().endswith("/")
        if tag in p_closers and not self_closing:
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].tag == "p":
                    del stack[i:]
                    break
        node = node_cls(tag, _parse_attrs(attr_raw) if attr_raw.strip(" /") else {})
        stack[-1].children.append(node)
        if tag in _RAWTEXT_CLOSE:
            # raw-text element: skip to the matching close, content becomes
            # a single text child (html.parser CDATA-mode equivalent)
            closer = _RAWTEXT_CLOSE[tag].search(html, pos)
            if closer is None:
                node.children.append(html[pos:])
                pos = n
            else:
                node.children.append(html[pos : closer.start()])
                pos = closer.end()
            continue
        if tag not in void_tags and not self_closing:
            stack.append(node)
    return root


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


def parse_html(html: str, stdlib: bool = False) -> Node:
    if stdlib:
        return parse_html_stdlib(html)
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


def extract_links(html: str, stdlib: bool = False) -> list:
    out = []
    for a in parse_html(html, stdlib).find_all(("a",)):
        href = a.attrs.get("href")
        if href:
            out.append(href)
    return out


def extract_anchors(html: str, stdlib: bool = False) -> list:
    out = []
    for a in parse_html(html, stdlib).find_all(("a",)):
        href = a.attrs.get("href")
        if href:
            out.append((href, a.get_text()))
    return out


def extract_tables(html: str, stdlib: bool = False) -> list:
    root = parse_html(html, stdlib)
    return [_parse_table(t) for t in root.find_all(("table",))]


def _is_link_item(node: Node) -> bool:
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


def extract_html_page(html: str, stdlib: bool = False) -> dict:
    root = parse_html(html, stdlib)
    title = prepare_tree(root)
    blocks = segment_blocks(root)
    paragraphs = extract_paragraphs(blocks)
    return {"title": title, "paragraphs": paragraphs, "blocks": blocks}
