"""The columnar PDF front end (ocr_ray.minipdf + pdf_extract) gives exactly
the rows the per-object front end it replaced gave (tests/
pdf_reference.py): every ``extract_page`` field, the structural
paragraph column and the ``error`` string, on random mini-PDFs with
escapes, superscript footnote refs, many pages, empty streams, malformed
numbers, zero font sizes, truncated payloads and garbage."""

from hypothesis import HealthCheck, given, settings, strategies as st

from ocr_ray import minipdf
from ocr_ray.extract_core import extract_page

from . import pdf_reference as ref

# parens and backslashes exercise the escapes; latin-1 digits (²) are
# isdigit() but not int()-able, so a superscript of one is an error row
_text = st.text(
    alphabet=st.sampled_from(list("ab Z09()\\\\é²\t") + ["(", ")", "\\"]),
    max_size=12,
)
_coord = st.one_of(
    st.sampled_from([72.0, 700.0, 703.0, 40.0, 760.0, 0.0, 100.0]),
    st.floats(0, 800, allow_nan=False).map(lambda v: round(v, 2)),
)
_size = st.sampled_from([12.0, 12.0, 8.0, 9.0, 0.0, 12.5])
# operands the writer never emits: the regex takes them, float() may not
_raw_num = st.sampled_from(["1.2.3", ".", "12", "-0", "100000000000000000000", "5."])


@st.composite
def _op(draw):
    kind = draw(st.sampled_from(["run"] * 6 + ["super", "raw", "junk"]))
    if kind == "run":
        return minipdf.text_op(draw(_coord), draw(_coord), draw(_size), draw(_text))
    if kind == "super":  # raised, small, numeric: a footnote reference
        y = draw(_coord)
        return minipdf.text_op(draw(_coord), y + 3, 8.0, str(draw(st.integers(0, 12))))
    if kind == "raw":
        return "BT /F1 {} Tf {} {} Td ({}) Tj ET".format(
            draw(st.one_of(_raw_num, st.just("12"))),
            draw(st.one_of(_raw_num, st.just("72"))),
            draw(st.one_of(_raw_num, st.just("700"))),
            minipdf._esc(draw(_text)),
        )
    return draw(st.sampled_from(["BT ET", "(stray) Tj", "q Q", "BT /F1 12 Tf ET"]))


_pages = st.lists(st.lists(_op(), max_size=10), max_size=4)


@st.composite
def _payload(draw):
    pdf = minipdf.build_pdf(draw(_pages))
    cut = draw(st.sampled_from(["none"] * 5 + ["truncate", "append", "crlf", "garbage"]))
    if cut == "truncate":
        return pdf[: draw(st.integers(5, len(pdf)))]
    if cut == "append":
        return pdf + draw(st.sampled_from([b"stream\nBT ET", b"\nendstream", b"%%EOF", b"\x00\xff"]))
    if cut == "crlf":
        return pdf.replace(b"\n", b"\r\n")
    return b"%PDF-" + draw(st.binary(max_size=60)) + draw(st.sampled_from([b"", b"%%EOF"]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_payload(), st.sampled_from(["keep", "skip", "insert"]))
def test_rows_match_frozen_reference(payload, footnote_mode):
    got = extract_page("u", payload, footnote_mode=footnote_mode, include_paragraphs=True)
    assert got == ref.extract_pdf_page("u", payload, footnote_mode=footnote_mode)


def test_error_rows_match_frozen_reference():
    """Each error class the reader and line grouper raise, row for row."""
    ops = [
        "BT /F1 12 Tf 1.2.3 700 Td (x) Tj ET",  # a malformed operand
        "BT /F1 12 Tf 72 700 Td (x) Tj ET\nBT /F1 1.2.3 Tf 72 700 Td (y) Tj ET",
        # two bad operands: the first in run order (x, y, size per run) is named
        "BT /F1 1.2.3 Tf 72 700 Td (x) Tj ET\nBT /F1 12 Tf . 700 Td (y) Tj ET",
        # two size-0 runs on one line of a page whose largest size is 12: 0 / 0
        "BT /F1 12 Tf 72 500 Td (z) Tj ET\nBT /F1 0 Tf 72 700 Td (x) Tj ET\n"
        "BT /F1 0 Tf 80 700 Td (y) Tj ET",
        minipdf.text_op(72, 700, 12, "a") + "\n" + minipdf.text_op(90, 703, 8, "²"),
    ]
    payloads = [minipdf.build_pdf([[op]]) for op in ops]
    payloads += [b"%PDF-1.4 no end", b"%PDF-1.4 %%EOF", b"%PDF-"]
    for payload in payloads:
        got = extract_page("u", payload, include_paragraphs=True)
        assert got["status"] == "error"
        assert got == ref.extract_pdf_page("u", payload)


_stream_tokens = st.sampled_from(
    [b"stream", b"endstream", b"\n", b"\r\n", b"\r", b"x", b"streams", b"\nendstream"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_stream_tokens, max_size=14).map(b"".join))
def test_stream_scan_matches_lazy_regex(data):
    """Two ``find`` calls per stream find the bodies the lazy DOTALL regex
    found, on any arrangement of the tokens that matter to it."""
    assert list(minipdf._streams(data)) == [m.group(1) for m in ref._STREAM_RE.finditer(data)]


_body_tokens = st.sampled_from(
    [b"BT", b" ", b"/F1", b"12", b"Tf", b"-3.5", b"Td", b"(", b")", b"\\", b"\\(",
     b"\\)", b"\\\\", b"a", b"Tj", b"ET", b"\n"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_body_tokens, max_size=30).map(b"".join))
def test_text_object_regex_matches_reference(body):
    """The unrolled string loop matches what the alternation matched."""
    assert minipdf._TEXTOBJ_RE.findall(body) == ref._TEXTOBJ_RE.findall(body)
