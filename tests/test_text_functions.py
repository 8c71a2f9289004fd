"""Unit tests for cleaners / textproc / analysis / tokenizer kernels
(mirrors the reference's tests/test_utils_text.py operator coverage)."""

import pyarrow as pa
import pytest

from ocr_ray.functions import analysis, cleaners, textproc
from ocr_ray.functions.tokenizer import BLANK, Tokenizer, pad_batch, slice_outputs


# ---------------------------------------------------------------------------
# cleaners
# ---------------------------------------------------------------------------

def test_cleaner_basics():
    assert cleaners.lowercase("AbC") == "abc"
    assert cleaners.collapse_whitespace("a  b\t\nc") == "a b c"
    assert cleaners.strip("  x  ") == "x"
    assert cleaners.strip("  x  ", lstrip=False) == "  x"
    assert cleaners.remove_punctuation("a,b!c") == "abc"
    assert cleaners.remove_accents("café né") == "cafe ne"
    assert cleaners.collapse_repetitions("aaabbbb", max_repetition=2) == "aabb"
    assert cleaners.convert_to_alnum("a#b$c d.") == "a b c d."
    assert cleaners.remove_urls("see https://x.io/y now") == "see  now"
    assert cleaners.remove_markdown("**bold** x") == "bold x"
    assert cleaners.detach_punctuation("a,b") == "a , b"
    assert cleaners.attach_punctuation("a , b") == "a, b"


def test_expand_numbers():
    assert cleaners.expand_numbers("I have 21 cats") == "I have twenty one cats"
    assert cleaners.expand_numbers("0 and 1115") == "zero and one thousand one hundred fifteen"


def test_expand_abreviations():
    assert cleaners.expand_abreviations("Dr. Smith vs Mr. Jones") == "doctor Smith versus mister Jones"


def test_expand_acronyms():
    assert cleaners.expand_acronyms("the NASA crew") == "the n a s a crew"


def test_replace_words_whole_word_only():
    assert cleaners.replace_words("cat catalog", {"cat": "dog"}) == "dog catalog"


def test_registry_and_chain():
    fns = cleaners.get_cleaners_fn(["lowercase", ("collapse_repetitions", {"max_repetition": 1})])
    assert len(fns) == 2
    assert cleaners.clean_text("  AABB  cc ", ["lowercase", "collapse_whitespace", "strip"]) == "aabb cc"
    try:
        cleaners.get_cleaners_fn(["nope"])
        assert False
    except ValueError:
        pass


def test_clean_array_matches_scalar():
    texts = ["  AbC  dEf ", "x\t\ty", "", "ALL CAPS  HERE"]
    chain = ["lowercase", "collapse_whitespace", "strip"]
    col = cleaners.clean_array(pa.array(texts), chain)
    assert col.to_pylist() == [cleaners.clean_text(t, chain) for t in texts]


def test_english_cleaners_chain():
    out = cleaners.english_cleaners("Dr. Who saw 3 **big** cats")
    assert out == "doctor who saw three big cats"


# ---------------------------------------------------------------------------
# textproc
# ---------------------------------------------------------------------------

def test_split_sentences():
    text = "First one. Second here! Third? Done."
    assert textproc.split_sentences(text) == ["First one.", "Second here!", "Third?", "Done."]


def test_split_sentences_abbrev_and_decimal():
    assert textproc.split_sentences("Dr. Smith left. Next.") == ["Dr. Smith left.", "Next."]
    assert textproc.split_sentences("pi is 3. 14 said nobody. Next.") == [
        "pi is 3. 14 said nobody.", "Next.",
    ]
    # a period hidden inside closing quotes does not end the sentence
    assert textproc.split_sentences('He said "stop." "Go on."') == ['He said "stop." "Go on."']


def test_split_text_budget():
    text = " ".join(str(i) for i in range(100))
    pieces = textproc.split_text(text, 10)
    assert all(len(p.split()) <= 12 for p in pieces)
    assert " ".join(pieces).split() == text.split()


def test_split_text_paragraph_first():
    # paragraph split first; the 5-word paragraph exceeds budget 4*1.2 and
    # falls through to word-level chunks of 4
    assert textproc.split_text("a b c\n\nd e f g h", 4) == ["a b c", "d e f g", "h"]


def test_merge_texts():
    assert textproc.merge_texts(["a b", "c d", "e f g h", "i"], 4) == ["a b c d", "e f g h", "i"]


def test_chunk_text_overlap():
    text = " ".join("w{}".format(i) for i in range(20))
    chunks = textproc.chunk_text(text, 8, overlap=2)
    assert len(chunks) >= 2
    # overlap: each later chunk starts with the previous chunk's tail
    for prev, cur in zip(chunks, chunks[1:]):
        tail = prev.split()[-2:] if chunks.index(cur) == 1 else None
    assert chunks[1].split()[:2] == chunks[0].split()[-2:]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def test_detect_language():
    assert analysis.detect_language("the cat and the dog is in that house for now")[0] == "en"
    assert analysis.detect_language("le chat est dans la maison avec les autres")[0] == "fr"
    assert analysis.detect_language("der hund ist nicht mit der katze und das ist gut")[0] == "de"
    assert analysis.detect_language("el perro es que en la casa y los gatos")[0] == "es"
    assert analysis.detect_language("这是一个中文测试文档内容很多")[0] == "zh"
    assert analysis.detect_language("")[0] == "und"
    assert analysis.detect_language("zzz qqq xxx")[0] == "und"


def test_quality_signals_and_score():
    s = analysis.quality_signals("the cat sat on the mat")
    assert s["n_words"] == 6
    assert 0 < s["stopword_ratio"] <= 0.5
    assert analysis.quality_score("word " * 100) < analysis.quality_score(
        "the quick brown fox jumps over the lazy dog again and again today"
    )
    assert analysis.quality_score("") <= 0.2


def test_count_tokens():
    assert analysis.count_tokens("a b  c") == 3
    assert analysis.count_tokens("") == 0
    assert analysis.count_tokens("don't stop", mode="bpe") >= 3


def test_fingerprints():
    a = analysis.rolling_fingerprint("hello world")
    assert a == analysis.rolling_fingerprint("hello world")
    assert a != analysis.rolling_fingerprint("hello worle")
    w = analysis.window_fingerprints("x" * 100, window=32, stride=16)
    assert len(w) == 5
    assert analysis.window_fingerprints("short") == [analysis.rolling_fingerprint("short")]


@pytest.mark.parametrize("window,stride", [(1, 1), (5, 3), (32, 16), (99, 7)])
def test_window_fingerprints_no_overflow_warning(window, stride):
    """No numpy overflow warning (an error here), and the values equal the
    former ``prefix[i+w] - prefix[i] * (b_pow[w-1] * B)`` taken mod 2^64
    with Python integers."""
    import warnings

    text = "the quick brown fox — jumps over the lazy dog " * 3
    data = text.encode("utf-8")
    prefix, b_pow = analysis._prefix_hashes(data)
    bw = int(b_pow[window - 1]) * analysis._ROLL_BASE % 2**64
    want = [
        (int(prefix[i + window]) - int(prefix[i]) * bw) % 2**64
        for i in range(0, len(data) - window + 1, stride)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = analysis.window_fingerprints(text, window=window, stride=stride)
    assert got == want


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

def test_tokenizer_roundtrip_word():
    tok = Tokenizer.from_corpus(["the cat sat", "the dog ran"], level="word")
    ids = tok.encode("the cat ran")
    assert tok.decode(ids) == "the cat ran"
    assert tok.encode("the UNKNOWN cat")[1] == 1  # <unk>


def test_tokenizer_roundtrip_char():
    tok = Tokenizer.from_corpus(["abc"], level="char")
    assert tok.decode(tok.encode("cab")) == "cab"


def test_ctc_decode():
    tok = Tokenizer(["a", "b"], level="char")
    a, b = tok.index["a"], tok.index["b"]
    seq = [a, a, BLANK, a, b, b]
    assert tok.ctc_decode(seq) == "aab"


def test_pad_batch_and_slice():
    batch = pad_batch([[1, 2, 3], [4]], pad_value=0)
    assert batch.tolist() == [[1, 2, 3], [4, 0, 0]]
    sliced = slice_outputs(batch, [0, 0], [2, 1])
    assert [s.tolist() for s in sliced] == [[1, 2], [4]]
    assert pad_batch([]).shape == (0, 0)


def test_clean_array_vectorized_paths_match_scalar():
    """Every cleaner with a pyarrow fast path must agree with its scalar
    form on awkward inputs."""
    from ocr_ray.functions.cleaners import _VECTORIZED

    texts = [
        "", "  MiXeD  CaSe  ", "tabs\t\tand\nnewlines", "**md** text",
        "see https://a.b/c?d=e end", "áccents ÉÈ", "a  b   c    d",
    ]
    for name in _VECTORIZED:
        col = cleaners.clean_array(pa.array(texts), [name])
        want = [cleaners.clean_text(t, [name]) for t in texts]
        assert col.to_pylist() == want, name


def test_normalize_numbers_full_chain():
    """M9: time/clock/money/ordinal/decimal expansion (numbers.py:253-271)."""
    from ocr_ray.functions.cleaners import normalize_numbers as nn

    assert nn("at 10:30:05") == "at ten hours and thirty minutes and five seconds"
    assert nn("took 2h 15min 30s") == "took two hours and fifteen minutes and thirty seconds"
    assert nn("paid $12.50 now") == "paid twelve dollars, fifty cents now"
    assert nn("$1 only") == "one dollar only"
    assert nn("owes £3,000") == "owes three thousand pounds"
    assert nn("came 3rd and 21st and 12th") == "came third and twenty first and twelfth"
    assert nn("pi is 3.14") == "pi is three punt fourteen"
    assert nn("eps 3.05") == "eps three punt zero five"
    assert nn("1,234 and 1 000 000") == (
        "one thousand two hundred thirty four and one million"
    )
    assert nn("90 km/h limit") == "ninety kilometers per hour limit"
    assert nn("2+3=5") == "two plus three equal five"


def test_format_text_dispatch():
    """M16: verbatim / py-format / jinja dispatch (text_processing.py:298-327)."""
    from ocr_ray.functions.textproc import format_text

    assert format_text("no placeholders") == "no placeholders"
    assert format_text("hi {name}", name="ray") == "hi ray"
    assert format_text("{{ a }} + {{ b }}", a=1, b=2) == "1 + 2"
    assert (
        format_text("{% for x in items %}{{ x }};{% endfor %}", items=[1, 2])
        == "1;2;"
    )
    # '{' present but neither jinja nor a py-format field -> verbatim
    assert format_text("brace { only") == "brace { only"


def test_filter_texts_modes():
    """F10: selection modes over a token budget (tokens_processing.py:83-193)."""
    import numpy as np

    from ocr_ray.functions.textproc import filter_texts

    texts = ["a", "bb", "ccc", "dddd", "eeeee"]
    lengths = [1, 2, 3, 4, 5]

    kept, kl = filter_texts(texts, lengths, min_text_length=2, max_text_length=4)
    assert kept == ["bb", "ccc", "dddd"]

    # budget keeps the running-sum prefix
    kept, kl = filter_texts(texts, lengths, max_total_length=6)
    assert kept == ["a", "bb", "ccc"]

    # sort_by_length packs shortest-first under the budget
    kept, kl = filter_texts(texts[::-1], lengths[::-1], max_total_length=6,
                            sort_by_length=True)
    assert kept == ["ccc", "bb", "a"]

    # select modes
    kept, _ = filter_texts(texts, lengths, max_texts=2, select_mode="start")
    assert kept == ["a", "bb"]
    kept, _ = filter_texts(texts, lengths, max_texts=2, select_mode="end")
    assert kept == ["dddd", "eeeee"]
    kept, _ = filter_texts(texts, lengths, max_texts=2, select_mode="random",
                           rng=np.random.RandomState(5))
    assert len(kept) == 2

    # required_idx rides first through the budget; its fall empties the set
    kept, _, idx = filter_texts(texts, lengths, max_total_length=6,
                                required_idx=4, return_indices=True)
    assert 4 in idx and len(idx) >= 1
    kept, _ = filter_texts(texts, lengths, max_text_length=4, required_idx=4)
    assert kept == []

    # multi-sentence (2-D lengths) bounds
    kept, _ = filter_texts(
        ["x", "y", "z"], [[2, 2], [5, 0], [9, 1]], max_sentences=1,
    )
    assert kept == ["y"]
    kept, _ = filter_texts(
        ["x", "y", "z"], [[2, 2], [5, 0], [9, 1]], max_sentence_length=5,
    )
    assert kept == ["x", "y"]


def test_ctc_beam_decode():
    """Beam CTC (ctc_decoder.py:20-35 analog): prefix-merging beats greedy
    on the classic many-weak-paths-one-label case."""
    import numpy as np

    from ocr_ray.functions.tokenizer import ctc_beam_decode

    # V=3: 0=blank(symbol BLANK index passed explicitly), symbols 1, 2.
    # Greedy picks argmax per frame = [blank, blank] -> empty; but the
    # total probability of label [1] (paths: 1-, -1, 11) is higher.
    logits = np.log(np.array([
        [0.4, 0.35, 0.25],
        [0.4, 0.35, 0.25],
    ]))
    paths, scores = ctc_beam_decode(logits, blank=0, num_beams=8, top_paths=2)
    assert paths[0] == [1]
    assert len(paths) == 2 and scores[0] >= scores[1]

    # unambiguous sequence decodes exactly; repeats need a blank gap
    seq = np.full((5, 3), -10.0)
    for t, s in enumerate([1, 0, 1, 2, 2]):
        seq[t, s] = 0.0
    paths, _ = ctc_beam_decode(seq, blank=0, num_beams=4)
    assert paths[0] == [1, 1, 2]

    # empty input
    paths, scores = ctc_beam_decode(np.zeros((0, 3)), blank=0)
    assert paths == [[]]


def test_redact_pii():
    from ocr_ray.functions.cleaners import redact_pii

    assert redact_pii("mail me at a.b+c@ex-ample.co.uk now") == "mail me at <EMAIL> now"
    assert redact_pii("call +1 (555) 123-4567 today") == "call <PHONE> today"
    assert redact_pii("ids 12345678901") == "ids <PHONE>"
    assert redact_pii("short 1234567 stays") == "short 1234567 stays"
    assert redact_pii("no pii here") == "no pii here"
