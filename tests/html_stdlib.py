"""The stdlib ``html.parser`` tree builder, kept as a second opinion on
``fast_html.fast_parse``.

It builds the same ``html_extract.Document`` / ``Node`` tree as the
production parser (same implicit-``</p>`` handling, void tags, stray-close
tolerance, entity unescaping and script/style raw text), so the tests can
run the whole production extraction over either builder and compare.
:func:`stdlib_builder` swaps it in for ``html_extract.parse_html`` in this
process."""

from __future__ import annotations

import contextlib
from html.parser import HTMLParser

from ocr_ray import html_extract as hx
from ocr_ray.fast_html import pop_to


class _TreeBuilder(HTMLParser):
    """Forgiving HTML -> Node tree; tolerates unclosed tags."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = hx.Document()
        self.stack: list[hx.Node] = [self.root]
        self.open_n: dict[str, int] = {}

    def _add(self, tag, attrs) -> hx.Node:
        node = hx.Node(tag, dict(attrs))
        self.stack[-1].children.append(node)
        if tag == "title":
            self.root.titles.append(node)
        return node

    def handle_starttag(self, tag, attrs):
        if tag in hx._P_CLOSERS:
            pop_to(self.stack, self.open_n, "p")  # implicit </p>
        node = self._add(tag, attrs)
        if tag not in hx.VOID_TAGS:
            self.stack.append(node)
            self.open_n[tag] = self.open_n.get(tag, 0) + 1

    def handle_startendtag(self, tag, attrs):
        self._add(tag, attrs)

    def handle_endtag(self, tag):
        pop_to(self.stack, self.open_n, tag)  # a stray close tag is ignored

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def parse_html_stdlib(html: str) -> hx.Document:
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


@contextlib.contextmanager
def stdlib_builder():
    """Every ``html_extract`` parse inside the block uses the stdlib
    builder (in-process only: Ray workers keep the fast parser)."""
    fast = hx.parse_html
    hx.parse_html = parse_html_stdlib
    try:
        yield
    finally:
        hx.parse_html = fast
