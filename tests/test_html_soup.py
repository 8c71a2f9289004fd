"""The linear-time HTML front end (ocr_ray.fast_html + html_extract) gives
exactly what the recursive front end it replaced gave (tests/
html_reference.py) on random tag soup: title, paragraphs, every block, and
the link / anchor / table extractors, for both tree builders.

The stdlib builder is no oracle for the regex one on random soup (the two
disagree on unterminated tags at EOF, self-closing p-closers and more), so
each builder is checked against its own frozen copy."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ocr_ray import html_extract as hx

from . import html_reference as ref
from .html_stdlib import stdlib_builder

TAGS = (
    "div p span b em a li ul ol dl dt dd table thead tbody tr td th "
    "h1 h2 h3 h5 pre code blockquote section article "
    "header footer nav aside form head body html title"
).split()
VOIDS = ("br", "img", "hr", "input", "meta")

_words = st.sampled_from(["alpha", "beta", "gamma", "x", "data", "étude", "中文"])
_space = st.sampled_from([" ", "  ", "\n", "\t", "\xa0", " ", "\x1c", ""])
_entity = st.sampled_from(["&amp;", "&lt;", "&gt;", "&#65;", "&nbsp;", "&bogus;", "&", "<", " < b"])
_attr_value = st.sampled_from(
    ['"/a"', "'/b c'", '"x>y"', "'a \"q\" b'", '"a&amp;b"', "bare", '""', '"#"']
)


@st.composite
def _attrs(draw):
    out = []
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(["href", "title", "class", "HREF", "data-x"]))
        if draw(st.booleans()):
            out.append("{}={}".format(name, draw(_attr_value)))
        else:
            out.append(name)  # boolean attribute
    return "".join(" " + a for a in out)


@st.composite
def _token(draw):
    kind = draw(st.sampled_from(
        ["open"] * 6 + ["close"] * 4 + ["text"] * 4
        + ["void", "selfclose", "raw", "comment", "doctype", "linkitem", "entity"]
    ))
    tag = draw(st.sampled_from(TAGS))
    if draw(st.integers(0, 9)) == 0:
        tag = tag.upper()
    if kind == "open":
        return "<{}{}>".format(tag, draw(_attrs()))
    if kind == "close":
        return "</{}>".format(tag)
    if kind == "text":
        return draw(_space) + draw(_words) + draw(_space)
    if kind == "entity":
        return draw(_entity)
    if kind == "void":
        return "<{}{}>".format(draw(st.sampled_from(VOIDS)), draw(_attrs()))
    if kind == "selfclose":
        return "<{}{}/>".format(tag, draw(_attrs()))
    if kind == "raw":
        name = draw(st.sampled_from(["script", "style", "SCRIPT", "Style"]))
        body = draw(st.sampled_from(["x<y && a>b", "'</div>'", "<p>no</p>", ""]))
        close = draw(st.sampled_from(["</{}>", "</{} >", ""])).format(name.lower())
        return "<{}>{}{}".format(name, body, close)
    if kind == "comment":
        return draw(st.sampled_from(["<!-- <p>c</p> -->", "<![CDATA[ d ]]>", "<?pi x?>", "<!--"]))
    if kind == "doctype":
        return "<!DOCTYPE html>"
    return '<li>{}<a href="/{}">{}</a>{}</li>'.format(
        draw(_space), draw(_words), draw(_words), draw(_space)
    )


def _element(tag, attrs, inner, closed):
    return "<{}{}>{}{}".format(tag, attrs, "".join(inner), "</{}>".format(tag) if closed else "")


# nested elements (closed or not) around loose tokens; a few hundred tokens
# at most keeps the reference's recursion well under the interpreter limit
_fragments = st.recursive(
    _token(),
    lambda inner: st.builds(
        _element, st.sampled_from(TAGS), _attrs(), st.lists(inner, max_size=5), st.booleans()
    ),
    max_leaves=40,
)
soups = st.lists(_fragments, min_size=1, max_size=12).map("".join)


def _call(fn, html, stdlib):
    """``fn(html)`` under the builder ``stdlib`` selects."""
    if not stdlib:
        return fn(html)
    with stdlib_builder():
        return fn(html)


def _summary(page):
    return (
        page["title"],
        page["paragraphs"],
        [
            (b.kind, b.text, b.char_start, b.char_end, b.dom_path, b.link_density, b.score)
            for b in page["blocks"]
        ],
    )


@pytest.mark.parametrize("stdlib", [False, True], ids=["regex", "stdlib"])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(html=soups)
def test_front_end_matches_frozen_reference(stdlib, html):
    assert _summary(_call(hx.extract_html_page, html, stdlib)) == _summary(
        ref.extract_html_page(html, stdlib)
    )
    for name in ("extract_links", "extract_anchors", "extract_tables"):
        got = _call(getattr(hx, name), html, stdlib)
        assert got == getattr(ref, name)(html, stdlib), name
