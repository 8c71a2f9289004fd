"""fast_html tokenizer vs stdlib builder: edge-case equivalence pins.

The corpus-level equivalence (archetypes + documents pages) ran during
development; these pin the tricky token shapes individually so a tokenizer
regression is caught at the exact construct that broke."""

import pytest

from ocr_ray import html_extract as hx
from ocr_ray.extract_core import extract_page

from .html_stdlib import stdlib_builder

CASES = [
    "<p>plain text</p>",
    "<p>a &amp; b &lt;tag&gt; &#65;</p>",                      # entities
    "<p>bare & ampersand and a < b comparison</p>",            # lone & and <
    '<p><a href="/x?a=1&b=2">q</a> done</p>',                  # entity-ish href
    '<p><a href="x>y">quoted gt</a> tail</p>',                 # '>' inside quotes
    "<script>if (a<b && c>d) { x('</div>'); }</script><p>k</p>",  # script raw text
    "<style>p>span { color: red }</style><p>k</p>",            # style raw text
    "<SCRIPT>var x=1;</SCRIPT><P>UPPER</P>",                   # case-insensitive
    "<!-- <p>commented out</p> --><p>kept</p>",                # comments
    "<!DOCTYPE html><p>doc</p>",
    "<p>one<p>two<p>three",                                    # implicit </p>
    "<div><p>in div</div><p>after</p>",                        # unclosed p in div
    "<ul><li>a<li>b<li>c</ul>",                                # unclosed li
    "<p>self<br/>closing<hr/>voids<img src='x'/></p>",
    "<p>void no slash<br>more<img src=x>end</p>",
    "</p></div><p>stray closers</p>",
    "<p title='attr \"quoted\"'>nested quotes</p>",
    "<p data-x>boolean attr</p>",
    "<p>trailing text",
    "",
    "<table><tr><td>a</td><td>b</td></tr></table>",
    "<p>unicode éè 中文</p>",
    "<p>a<div/>b</p>",                                         # self-closed p-closer
    "<p>a<table/>b</p>",
]


@pytest.mark.parametrize("snippet", CASES, ids=range(len(CASES)))
def test_fast_equals_stdlib(snippet):
    html = "<html><head><title>t</title></head><body>{}</body></html>".format(snippet)
    with stdlib_builder():
        slow = extract_page("u", html.encode())
    fast = extract_page("u", html.encode())
    assert slow == fast


def test_unterminated_tag_at_eof():
    """Intentional divergence from the stdlib parser: an unterminated tag at
    EOF is treated as text up to the next parseable token (stdlib leaks the
    buffered '</body>' into the text, which is the less sane behavior)."""
    row = extract_page(
        "u", b'<html><body><p>unterminated <a href="x</body></html>'
    )
    assert row["extracted"] == 'unterminated <a href="x'


def test_rawtext_unterminated_script():
    root = hx.parse_html("<p>before</p><script>var x = '<p>no</p>';")
    blocks = hx.segment_blocks(root)
    texts = [b.node.get_text() for b in blocks]
    assert texts == ["before"]


def test_attr_parsing():
    from ocr_ray.fast_html import _parse_attrs

    assert _parse_attrs(' href="/a" title=\'b c\' data-x checked n=5') == {
        "href": "/a", "title": "b c", "data-x": None, "checked": None, "n": "5",
    }
    assert _parse_attrs(' href="a&amp;b"') == {"href": "a&b"}
