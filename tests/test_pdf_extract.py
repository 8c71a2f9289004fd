"""Mini-PDF writer/reader + layout-parse unit tests (no Ray)."""

from ocr_ray import minipdf, pdf_extract
from ocr_ray.extract_core import extract_page
from ocr_ray.minipdf import PageText, text_op


def _page(*runs):
    """(x, y, size, text) runs -> one page's columns."""
    return PageText(*map(list, zip(*runs)))


def test_pdf_roundtrip():
    pdf = minipdf.build_pdf(
        [
            [text_op(72, 720, 12, "hello world"), text_op(72, 705, 12, "line (two)")],
            [text_op(72, 720, 12, r"back\slash")],
        ]
    )
    assert minipdf.is_pdf(pdf)
    pages = minipdf.read_pages(pdf)
    assert [p.texts for p in pages] == [["hello world", "line (two)"], ["back\\slash"]]
    assert pages[0].xs[0] == 72 and pages[0].ys[0] == 720 and pages[0].sizes[0] == 12


def test_line_grouping_and_word_spacing():
    page = _page(
        (72, 700, 12, "alpha"),
        (120, 700, 12, "beta"),
        (72, 670, 12, "gamma"),  # next line: gap > leading overlap
    )
    lines = pdf_extract.group_page_lines(page)
    assert [l["text"] for l in lines] == ["alpha beta", "gamma"]


def test_superscript_footnote_ref():
    page = _page(
        (72, 700, 12, "claim"),
        (110, 703, 8, "2"),  # raised + small => superscript ref
        (120, 700, 12, "more"),
    )
    lines = pdf_extract.group_page_lines(page)
    assert len(lines) == 1
    assert lines[0]["text"] == "claim^2 more"
    assert lines[0]["footnotes"] == [2]


def test_paragraph_split_on_gap_and_font():
    leading = 12 * 1.2
    lines = [
        {"text": "l1", "y": 700, "top": 712, "x": 72, "size": 12, "footnotes": []},
        {"text": "l2", "y": 700 - leading, "top": 712 - leading, "x": 72, "size": 12, "footnotes": []},
        {"text": "l3", "y": 700 - 3.5 * leading, "top": 712 - 3.5 * leading, "x": 72, "size": 12, "footnotes": []},
        {"text": "l4", "y": 700 - 4.5 * leading, "top": 712 - 4.5 * leading, "x": 72, "size": 9, "footnotes": []},
    ]
    paras = pdf_extract.group_lines_in_paragraphs(lines)
    assert [p["text"] for p in paras] == ["l1 \nl2", "l3", "l4"]


def test_classification_and_order_weights():
    page = _page(
        (200, 760, 9, "Running Header"),
        (72, 700, 12, "body text first"),
        (72, 100, 8, "^1 a footnote"),
        (300, 40, 9, "3"),
    )
    paras = pdf_extract.extract_pdf_page(page)
    kinds = [
        ("header" if p["is_header"] else
         "page_number" if p["is_page_number"] else
         "footnote" if p["is_footnote"] else "body")
        for p in paras
    ]
    # stable order-weight sort: header < body < footnote < page-number
    assert kinds == ["header", "body", "footnote", "page_number"]
    assert paras[2]["footnote_index"] == 1


def test_extract_page_pdf_end_to_end():
    pdf = minipdf.build_pdf(
        [[
            text_op(200, 760, 9, "Hdr"),
            text_op(72, 700, 12, "alpha"),
            text_op(112, 703, 8, "1"),
            text_op(120, 700, 12, "beta"),
            text_op(72, 100, 8, "^1 note text"),
            text_op(300, 40, 9, "1"),
        ]]
    )
    row = extract_page("u", pdf)
    assert row["status"] == "ok" and row["kind"] == "pdf"
    # header + page number skipped, footnote kept after body
    assert row["extracted"] == "alpha^1 beta\n\n^1 note text"


def test_footnote_insert_mode():
    pdf = minipdf.build_pdf(
        [[
            text_op(72, 700, 12, "alpha"),
            text_op(112, 703, 8, "1"),
            text_op(120, 700, 12, "beta"),
            text_op(72, 100, 8, "^1 note text"),
        ]]
    )
    row = extract_page("u", pdf, footnote_mode="insert")
    assert row["extracted"] == "alpha Footnote: note text beta"


def test_multipage_order():
    pdf = minipdf.build_pdf(
        [
            [text_op(72, 700, 12, "page one")],
            [text_op(72, 700, 12, "page two")],
        ]
    )
    row = extract_page("u", pdf)
    assert row["extracted"] == "page one\n\npage two"


def test_minipdf_roundtrip_property():
    """Any latin-1-safe text (incl. parens/backslashes) survives the
    writer->reader round trip at its exact coordinates."""
    from hypothesis import given, strategies as st

    texts = st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=255),
            min_size=1, max_size=40,
        ),
        min_size=1, max_size=8,
    )

    @given(texts)
    def check(lines):
        ops = [text_op(72, 720 - 14 * i, 12, t) for i, t in enumerate(lines)]
        (page,) = minipdf.read_pages(minipdf.build_pdf([ops]))
        assert page.texts == lines
        assert page.sizes == [12.0] * len(lines)

    check()


def test_footnote_insert_sentence_modes():
    pdf = minipdf.build_pdf(
        [[
            text_op(72, 700, 12, "First claim"),
            text_op(160, 703, 8, "1"),
            text_op(170, 700, 12, "here. Second sentence."),
            text_op(72, 100, 8, "^1 the note"),
        ]]
    )
    nxt = extract_page("u", pdf, footnote_mode="insert_next_sentence")
    assert nxt["extracted"] == "First claim here. Footnote: the note Second sentence."
    last = extract_page("u", pdf, footnote_mode="insert_last_sentence")
    assert last["extracted"] == "First claim here. Second sentence. Footnote: the note"
