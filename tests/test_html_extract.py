"""HTML extraction unit tests (no Ray).

Mirrors the reference's per-operator unit strategy
(/root/reference/tests/test_utils_text.py, test strategy SURVEY §5).
"""

import time

import pytest

from ocr_ray import html_extract as hx
from ocr_ray import synth
from ocr_ray.extract_core import extract_page

from .html_stdlib import stdlib_builder


def _page(body, title="t"):
    return "<html><head><title>{}</title></head><body>{}</body></html>".format(title, body)


def extract(html):
    return extract_page("u", html.encode())


def test_plain_paragraphs():
    row = extract(_page("<p>Hello world one.</p><p>Second para here.</p>"))
    assert row["status"] == "ok"
    assert row["extracted"] == "Hello world one.\n\nSecond para here."
    assert row["title"] == "t"
    assert row["n_blocks"] == 2


def test_whitespace_collapse():
    row = extract(_page("<p>  a\n   b\t c  </p>"))
    assert row["extracted"] == "a b c"


def test_chrome_is_stripped():
    html = synth._chrome_wrap("<p>real content body text</p>", "x").encode()
    row = extract_page("u", html)
    assert row["extracted"] == "real content body text"
    for chrome in (synth.CHROME_HEADER, synth.CHROME_FOOTER, synth.CHROME_ASIDE, "Products"):
        assert chrome not in row["extracted"]


def test_script_style_head_dropped():
    row = extract(_page("<script>var x=1;</script><style>p{}</style><p>keep</p>"))
    assert row["extracted"] == "keep"


def test_first_header_last_footer_only():
    html = _page(
        "<header><p>top</p></header><p>body</p>"
        "<footer><p>mid foot</p></footer><footer><p>end foot</p></footer>"
    )
    row = extract(html)
    assert "top" not in row["extracted"]
    assert "end foot" not in row["extracted"]
    assert "mid foot" in row["extracted"]  # only the LAST footer is dropped


def test_link_item_removed_inline_link_numbered():
    html = _page(
        "<ul><li><a href='/a'>navlink</a></li><li>real item</li></ul>"
        "<p>see the <a href='https://x.io/d'>docs</a> now</p>"
        "<p>read the <a href='https://x.io/d'>docs</a> twice</p>"
        "<p>and the <a href='https://y.io'>other</a> site</p>"
    )
    row = extract(html)
    assert "navlink" not in row["extracted"]
    assert "- real item" in row["extracted"]
    assert "see the docs [1] now" in row["extracted"]
    assert "read the docs [1] twice" in row["extracted"]  # same href, same number
    assert "and the other [2] site" in row["extracted"]


def test_section_stack():
    html = _page(
        "<h1>A</h1><p>p1</p><h2>B</h2><p>p2</p><h3>C</h3><p>p3</p><h2>D</h2><p>p4</p>"
    )
    page = hx.extract_html_page(html)
    sections = [p["section"] for p in page["paragraphs"]]
    assert sections == [["A"], ["A", "B"], ["A", "B", "C"], ["A", "D"]]


def test_table_constant_column_dropped():
    html = _page(
        "<table><thead><tr><th>n</th><th>v</th><th>c</th></tr></thead><tbody>"
        "<tr><td>a</td><td>1</td><td>same</td></tr>"
        "<tr><td>b</td><td>2</td><td>same</td></tr></tbody></table>"
    )
    row = extract(html)
    assert "same" not in row["extracted"]
    assert "- n: a | v: 1" in row["extracted"]


def test_table_without_thead():
    html = _page(
        "<table><tr><th>x</th><th>y</th></tr>"
        "<tr><td>1</td><td>2</td></tr><tr><td>3</td><td>4</td></tr></table>"
    )
    row = extract(html)
    assert "- x: 1 | y: 2" in row["extracted"]
    assert "- x: 3 | y: 4" in row["extracted"]


def test_empty_list_items_filtered():
    row = extract(_page("<ul><li>one</li><li>  </li><li>two</li></ul>"))
    assert row["extracted"] == "- one\n- two"


def test_fragments_regroup():
    row = extract(_page("<p><span>a b </span><span>c d </span><span>e</span></p>"))
    assert row["extracted"] == "a b c d e"


def test_dupspan_exact_and_near():
    s = "the quick brown fox jumps over the lazy dog again"
    near = s[:-5] + "cats!"
    html = _page("<p>{0}</p><p>{0}</p><p>{1}</p><p>unrelated text entirely</p>".format(s, near))
    row = extract(html)
    assert row["extracted"].count(s) == 1
    assert "cats" not in row["extracted"]
    assert "unrelated text entirely" in row["extracted"]


def test_title_attr_fallback():
    row = extract(_page('<p><img title="pic of cat"/></p>'))
    assert row["extracted"] == "pic of cat"


def test_heading_updates_but_not_emitted():
    row = extract(_page("<h1>Heading</h1><p>body</p>"))
    assert row["extracted"] == "body"


def test_chrome_classification_link_density():
    # short link-heavy block => chrome
    html = _page("<p><a href='/a'>one</a> <a href='/b'>two</a> <a href='/c'>three</a></p>")
    page = hx.extract_html_page(html)
    assert [b.kind for b in page["blocks"]] == ["chrome"]
    assert page["paragraphs"] == []


def test_error_rows():
    assert extract_page("u", b"")["status"] == "error"
    assert extract_page("u", bytes([0xFF, 0xFE]))["status"] == "error"
    assert extract_page("u", b"%PDF-1.4\ntruncated")["status"] == "error"


def test_malformed_html_never_crashes():
    for bad in ("<p>unclosed", "</p></div>", "<table><tr><td>x", "<<<>>>", "<a href=>y</a>"):
        row = extract(_page(bad))
        assert row["status"] == "ok"


def test_block_intervals_monotonic():
    page = hx.extract_html_page(_page("<p>aaa</p><p>bbbb</p><h2>t</h2><p>cc</p>"))
    blocks = page["blocks"]
    for a, b in zip(blocks, blocks[1:]):
        assert a.char_end <= b.char_start
    assert all(b.char_end - b.char_start == len(b.node.get_text()) for b in blocks)


def test_blockquote_block():
    row = extract(_page("<p>intro</p><blockquote>quoted wisdom here</blockquote>"))
    assert row["extracted"] == "intro\n\nquoted wisdom here"


def test_definition_list():
    row = extract(_page(
        "<dl><dt>alpha</dt><dd>first letter</dd><dt>beta</dt><dd>second</dd></dl>"
    ))
    assert row["extracted"] == "- alpha: first letter\n- beta: second"


def test_article_main_transparent():
    row = extract(_page("<main><article><p>the story</p></article></main>"))
    assert row["extracted"] == "the story"


def test_giant_span_near_dup_capped():
    """Spans beyond NEAR_DUP_MAX_LEN skip the quadratic near-dup DP (exact
    dedup still applies) — a multi-MB span must extract in bounded time."""
    import time

    from ocr_ray.extract_core import NEAR_DUP_MAX_LEN

    big = "word " * (NEAR_DUP_MAX_LEN // 4)
    near = big[:-6] + "other"
    html = _page("<p>{}</p><p>{}</p><p>{}</p>".format(big, big, near))
    t0 = time.perf_counter()
    row = extract(html)
    assert time.perf_counter() - t0 < 5.0
    # exact duplicate still dropped; near-dup intentionally kept above cap
    assert row["n_blocks"] == 2


def test_deeply_nested_html_is_ok():
    html = "<div>" * 4000 + "<p>deep</p>" + "</div>" * 4000
    row = extract(_page(html))
    assert row["status"] == "ok"
    assert row["extracted"] == "deep"


DEEP_PAGES = {
    "div990": ("<div>" * 990 + "<p>deep</p>" + "</div>" * 990, "deep"),
    "div4000": ("<div>" * 4000 + "<p>deep</p>" + "</div>" * 4000, "deep"),
    "div20000": ("<div>" * 20000 + "<p>deep</p>" + "</div>" * 20000, "deep"),
    "unclosed_b5000": ("<b>" * 5000 + "<p>tail</p>", "tail"),
}


@pytest.mark.parametrize("name", sorted(DEEP_PAGES))
def test_deep_page_is_ok_in_bounded_time(name):
    """Nesting depth costs linear time and no interpreter stack: the page
    extracts ``ok`` with its text, in under 0.2 s (best of 3 runs, so one
    slow run, from a full GC pass or a busy host, is not read as a
    regression; the quadratic builder took seconds)."""
    body, text = DEEP_PAGES[name]
    payload = _page(body).encode()
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        row = extract_page("u", payload)
        best = min(best, time.perf_counter() - t0)
        assert (row["status"], row["extracted"]) == ("ok", text), row["error"]
    assert best < 0.2


@pytest.mark.parametrize("name", sorted(DEEP_PAGES))
def test_deep_page_stdlib_builder_agrees(name):
    body, text = DEEP_PAGES[name]
    with stdlib_builder():
        row = extract(_page(body))
    assert (row["status"], row["extracted"]) == ("ok", text), row["error"]


def test_find_all_deep_chain_preorder():
    """find_all on a 5,000-deep chain: document preorder, no RecursionError."""
    root = hx.Node("[document]")
    node, chain = root, []
    for i in range(5000):
        child = hx.Node("div" if i % 2 else "span", {"i": i})
        node.children.extend(["t", child])
        chain.append(child)
        node = child
    assert [n.attrs["i"] for n in root.find_all(("div", "span"))] == list(range(5000))
    assert [id(n) for n in root.find_all(("div",))] == [id(n) for n in chain if n.tag == "div"]


def test_find_all_preorder_siblings_before_cousins():
    root = hx.parse_html("<div><p>a<b>x</b></p><p>c</p></div><p>d</p>")
    assert [n.get_text() for n in root.find_all(("p", "b"))] == ["a x", "x", "c", "d"]
