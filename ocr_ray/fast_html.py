"""Fast regex-driven HTML tokenizer building the same Node tree as
:mod:`ocr_ray.html_extract`'s stdlib-based builder.

``html.parser.HTMLParser`` is pure Python with per-character bookkeeping;
for boilerplate-strip workloads a single compiled-regex scan over the
document is several times faster and is what the hot path can afford at
100 TB (the reference leans on lxml's C parser for the same reason,
html_parser.py:119-126).  The scan is one ``re.split``: the regex engine
cuts the whole page into text and tokens, script/style raw text included,
and Python only builds the tree.

The build is linear in the page, whatever its nesting depth:

- a per-tag count of the open elements sits beside the stack, so an
  implicit ``</p>`` with no ``<p>`` open, or a close tag that matches no
  open element, costs O(1); a close that matches pops exactly the elements
  it closes, and each element is pushed and popped at most once;
- attributes stay as the tag's raw source until the first ``Node.attrs``
  read (only ``href`` and ``title`` are ever read, on few nodes);
- ``unescape`` runs only on text that contains ``&``;
- ``<title>`` elements are recorded in document order as they open, so the
  title lookup needs no tree walk.

Semantics are kept identical to the stdlib builder — same implicit-</p>
handling, void tags, stray-close tolerance, entity unescaping, script/style
raw-text skipping — and pinned by an equivalence test that asserts
byte-identical extraction over the full archetype corpus
(tests/test_fast_html.py).  ``html_extract.parse_html`` dispatches here by
default; set ``OCR_RAY_SLOW_HTML=1`` to force the stdlib path.
"""

from __future__ import annotations

import re
from html import unescape

_ATTRS = r"((?:\"[^\"]*\"|'[^']*'|[^>\"'])*)"  # quote-aware: '>' in a value is kept

# one token: comment | CDATA | doctype | PI | close tag (group 1) | script
# or style with its raw text, up to the matching close or the end (2: set
# for script, 3: attrs, 4: raw text) | open tag (5: name, 6: attrs)
_TOKEN_RE = re.compile(
    r"<!--.*?-->"
    r"|<!\[CDATA\[.*?\]\]>"
    r"|<![^>]*>"
    r"|<\?[^>]*>"
    r"|</\s*([a-zA-Z][a-zA-Z0-9]*)[^>]*>"
    r"|<(?:([sS][cC][rR][iI][pP][tT])|[sS][tT][yY][lL][eE])(?![a-zA-Z0-9])" + _ATTRS + r">"
    r"(.*?)(?:(?(2)(?i:</script[^>]*>)|(?i:</style[^>]*>))|\Z)"
    r"|<([a-zA-Z][a-zA-Z0-9]*)" + _ATTRS + r">",
    re.DOTALL,
)

_ATTR_RE = re.compile(
    r"([a-zA-Z_:][-a-zA-Z0-9_:.]*)\s*(?:=\s*(\"[^\"]*\"|'[^']*'|[^\s\"'>]*))?"
)


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


def pop_to(stack: list, open_n: dict, tag: str) -> None:
    """Pop ``stack`` down to and including the innermost open ``tag``; a
    no-op in O(1) when none is open (``open_n`` counts the open elements
    per tag)."""
    if open_n.get(tag):
        while True:
            popped = stack.pop().tag
            open_n[popped] -= 1
            if popped == tag:
                return


def fast_parse(html: str, root, node_cls, void_tags, p_closers):
    """Parse ``html`` into ``root`` (same shape as the stdlib builder):
    ``root.children`` gets the page's top-level nodes and ``root.titles``
    its ``<title>`` nodes in document order.  Nodes are
    ``node_cls(tag, raw_attribute_source, children)``.  Returns ``root``."""
    titles = root.titles
    stack = [root]
    kids = root.children  # children of the innermost open element
    open_n: dict[str, int] = {}  # tag -> how many stack elements have it
    # split: the text before the first token, then per token its 6 groups
    # and the text after it
    tokens = iter(_TOKEN_RE.split(html))
    text = next(tokens)
    if text:
        kids.append(unescape(text) if "&" in text else text)
    for close_name, script, raw_attrs, raw, open_name, attrs, text in zip(*[tokens] * 7):
        if close_name:
            pop_to(stack, open_n, close_name.lower())
            kids = stack[-1].children
        elif open_name or raw is not None:
            if raw is None:
                tag = open_name.lower()
            else:  # script / style: its raw text is its one child
                tag = "script" if script else "style"
                attrs = raw_attrs
            # <x/> closes no <p> and opens nothing (html.parser's startendtag)
            self_closed = raw is None and attrs.rstrip().endswith("/")
            if tag in p_closers and not self_closed:
                pop_to(stack, open_n, "p")  # implicit </p>
                kids = stack[-1].children
            node = node_cls(tag, attrs, [] if raw is None else [raw])
            kids.append(node)
            if tag == "title":
                titles.append(node)
            if raw is None and tag not in void_tags and not self_closed:
                stack.append(node)
                open_n[tag] = open_n.get(tag, 0) + 1
                kids = node.children
        # else: comment / doctype / PI
        if text:
            kids.append(unescape(text) if "&" in text else text)
    return root
