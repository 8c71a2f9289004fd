"""The near-dup span filter's bound cascade (functions/metrics.py) is
sound, and the filter keeps exactly the paragraphs the histogram-L1
filter it replaced kept (that filter lives on below as the reference)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ocr_ray.extract_core import (
    NEAR_DUP_MAX_LEN,
    NEAR_DUP_THRESHOLD,
    NEAR_DUP_WINDOW,
    filter_duplicate_spans,
)
from ocr_ray.functions.metrics import (
    SpanSketch,
    _max_qualifying,
    edit_distance,
    is_near_duplicate,
    q1_lower_bound,
    q2_lower_bound,
    rejected_by_bounds,
)

# ASCII, Latin-1, CJK, and astral code points; 0x1F600 and 0x1F700 share a
# histogram bin (cp & 255), as do "a" and chr(0x161)
ALPHABET = "ab cé中\U0001F600\U0001F700š"
chars = st.sampled_from(ALPHABET)
texts = st.text(alphabet=chars, max_size=40)


def dp_distance(a: str, b: str) -> int:
    """Textbook Levenshtein DP: the ground truth for every bound."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


@st.composite
def edited(draw, base=texts):
    """A string and a copy with a few random insertions, deletions and
    substitutions: pairs near the ``kmax`` boundary."""
    a = draw(base)
    b = list(a)
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from("ids"))
        pos = draw(st.integers(0, len(b)))
        if op == "i":
            b.insert(pos, draw(chars))
        elif b and pos < len(b):
            if op == "d":
                del b[pos]
            else:
                b[pos] = draw(chars)
    return a, "".join(b)


pairs = st.one_of(st.tuples(texts, texts), edited())


@given(pairs)
@settings(max_examples=400, deadline=None)
def test_each_bound_is_a_lower_bound(pair):
    a, b = pair
    d = dp_distance(a, b)
    sa, sb = SpanSketch(a), SpanSketch(b)
    assert edit_distance(a, b) == d
    assert abs(len(a) - len(b)) <= d
    assert q1_lower_bound(sa, sb) <= d
    assert q2_lower_bound(sa, sb) <= d


@given(pairs, st.sampled_from([0.05, 0.2, 0.35, 0.5]))
@settings(max_examples=400, deadline=None)
def test_cascade_never_rejects_a_near_duplicate(pair, threshold):
    a, b = pair
    m = max(len(a), len(b))
    d = dp_distance(a, b)
    if m and d <= _max_qualifying(m, threshold):
        assert not rejected_by_bounds(SpanSketch(a), SpanSketch(b), threshold)
    assert is_near_duplicate(a, b, threshold) == (m == 0 or d / m < threshold)


def test_bins_collide_but_stay_sound():
    a, b = "\U0001F600" * 3, "\U0001F700" * 3  # same bin, no shared code point
    sa, sb = SpanSketch(a), SpanSketch(b)
    assert np.array_equal(sa.hist, sb.hist)
    assert q1_lower_bound(sa, sb) == 0 <= dp_distance(a, b) == 3
    assert q2_lower_bound(sa, sb) == 1  # the exact bigram multisets differ
    assert not is_near_duplicate(a, b)


# --- the filter it replaced: 256-bin UTF-8 byte histograms, an L1/2 bound
# --- scaled by bytes per char, then Myers


def _byte_histogram(text: str) -> np.ndarray:
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    return np.bincount(data, minlength=256)


def _reference_is_near_duplicate(a, ha, b, hb, threshold):
    m = max(len(a), len(b))
    if m == 0:
        return True
    if abs(len(a) - len(b)) / m >= threshold:
        return False
    na, nb = int(ha.sum()), int(hb.sum())
    per_edit = 2 if (na == len(a) and nb == len(b)) else 8
    if (int(np.abs(ha - hb).sum()) // per_edit) / m >= threshold:
        return False
    kmax = _max_qualifying(m, threshold)
    if kmax < 0:
        return False
    return edit_distance(a, b, k=kmax) <= kmax


def reference_filter_duplicate_spans(paragraphs):
    emitted, last, out = set(), [], []
    for p in paragraphs:
        if p["type"] != "text":
            out.append(p)
            continue
        text = p["text"]
        if text in emitted:
            continue
        if len(text) <= NEAR_DUP_MAX_LEN:
            hist = _byte_histogram(text)
            if any(
                _reference_is_near_duplicate(text, hist, prev, ph, NEAR_DUP_THRESHOLD)
                for prev, ph in last
            ):
                continue
            last.append((text, hist))
            if len(last) > NEAR_DUP_WINDOW:
                last.pop(0)
        emitted.add(text)
        out.append(p)
    return out


@st.composite
def documents(draw):
    """Paragraph lists where near-dups of earlier paragraphs recur, some
    inside the window and some beyond it, with non-text paragraphs mixed
    in."""
    seeds = draw(st.lists(st.text(alphabet=chars, min_size=5, max_size=30),
                          min_size=1, max_size=4))
    paras = []
    for _ in range(draw(st.integers(1, 14))):
        base = draw(st.sampled_from(seeds))
        _, text = draw(edited(st.just(base)))
        kind = draw(st.sampled_from(["text"] * 5 + ["table"]))
        paras.append({"type": kind, "text": text})
    return paras


@given(documents())
@settings(max_examples=300, deadline=None)
def test_filter_matches_replaced_filter(paras):
    assert filter_duplicate_spans(paras) == reference_filter_duplicate_spans(paras)


def test_filter_matches_replaced_filter_on_synth_corpus():
    from ocr_ray import extract_core, synth

    corpus = synth.synth_corpus(60, seed=3)
    seen = []
    orig = extract_core.filter_duplicate_spans

    def capture(paras):
        seen.append([dict(p) for p in paras])
        return orig(paras)

    extract_core.filter_duplicate_spans = capture
    try:
        for url, payload in zip(corpus.column("url").to_pylist(),
                                corpus.column("html").to_pylist()):
            extract_core.extract_page(url, payload)
    finally:
        extract_core.filter_duplicate_spans = orig
    assert sum(len(s) for s in seen) > 100
    for paras in seen:
        assert orig(paras) == reference_filter_duplicate_spans(paras)
