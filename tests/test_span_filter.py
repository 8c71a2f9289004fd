"""The near-dup span filter's bound cascade (functions/metrics.py) is
sound, and the filter keeps exactly the paragraphs the histogram-L1
filter it replaced kept (that filter lives on below as the reference).
The vectorized pair pass keeps exactly what its per-pair tests keep, and
the batch path gives each page the row the one-page path gives."""

import os

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ocr_ray import extract_core
from ocr_ray.extract_core import (
    NEAR_DUP_MAX_LEN,
    NEAR_DUP_THRESHOLD,
    NEAR_DUP_WINDOW,
    filter_duplicate_spans,
)
from ocr_ray.functions.metrics import (
    SpanSketch,
    _max_qualifying,
    _myers,
    _positional_bigram_survivors,
    edit_distance,
    is_near_duplicate,
    near_pairs,
    q1_lower_bound,
    q2_lower_bound,
    rejected_by_bounds,
    strip_common,
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


# --- the strip before Myers, the vectorized pair pass, the batch path


@given(pairs)
@settings(max_examples=400, deadline=None)
def test_strip_common_keeps_the_distance(pair):
    """``ed(a, b) == ed(a', b')`` for the middles left by stripping the
    common prefix and suffix (against the full, unstripped Myers run), and
    a pair whose longer middle is at most kmax is within kmax."""
    a, b = pair
    a_mid, b_mid = strip_common(a, b)
    full = _myers(a, b, None)
    assert full == dp_distance(a, b) == _myers(a_mid, b_mid, None)
    p = len(os.path.commonprefix([a, b]))
    s = len(a) - p - len(a_mid)  # the stripped suffix
    assert a == a[:p] + a_mid + a[len(a) - s:] and b == a[:p] + b_mid + a[len(a) - s:]
    assert not (a_mid and b_mid and (a_mid[0] == b_mid[0] or a_mid[-1] == b_mid[-1]))
    assert full <= max(len(a_mid), len(b_mid))


def _positional_rejects(a: str, b: str, k: int) -> bool:
    """Brute force of the positional bigram bound in metrics.near_pairs."""
    if len(a) < len(b):
        a, b = b, a
    bigrams_b = [b[q:q + 2] for q in range(len(b) - 1)]
    hits = sum(
        any(bigrams_b[q] == a[p:p + 2] for q in range(max(0, p - k), min(len(bigrams_b), p + k + 1)))
        for p in range(len(a) - 1)
    )
    return len(a) - 1 - hits > 2 * k


@example("zaazzb", "zb", 2)  # its last shorter-span key precedes the query
@given(st.text(alphabet="abz", max_size=8), st.text(alphabet="abz", max_size=8), st.integers(0, 3))
@settings(max_examples=500, deadline=None)
def test_positional_bound_matches_brute_force(a, b, k):
    """The sorted-key lookup counts exactly the brute-force window hits,
    at any ``k``."""
    cps = np.frombuffer((b + a).encode("utf-32-le"), np.uint32)
    start = np.array([0, len(b), len(a) + len(b)])
    got = _positional_bigram_survivors(cps, start, np.array([1]), np.array([0]), np.array([k]))
    assert bool(got[0]) == (not _positional_rejects(a, b, k))


def _brute_near_pairs(texts, distance, threshold=NEAR_DUP_THRESHOLD):
    out = set()
    for i in range(len(texts)):
        for j in range(max(0, i - distance), i):
            a, b = SpanSketch(texts[i]), SpanSketch(texts[j])
            m = max(a.n, b.n)
            if m and abs(a.n - b.n) / m >= threshold:
                continue
            k = _max_qualifying(m, threshold) if m else 0
            if m and (k < 0 or q1_lower_bound(a, b) > k):
                continue
            if m and _positional_rejects(a.text, b.text, k):
                continue
            out.add((i, j))
    return out


@given(st.lists(st.lists(texts, max_size=8), max_size=4), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_near_pairs_match_per_pair_cascade(docs, distance):
    """The vectorized pass keeps exactly the pairs the per-pair length,
    q1 and positional bigram tests keep, each document on its own; and no
    pair it drops is within kmax."""
    got = near_pairs(docs, distance, NEAR_DUP_THRESHOLD)
    assert got == [_brute_near_pairs(d, distance) for d in docs]
    for doc, keep in zip(docs, got):
        for i in range(len(doc)):
            for j in range(max(0, i - distance), i):
                m = max(len(doc[i]), len(doc[j]))
                if m and dp_distance(doc[i], doc[j]) <= _max_qualifying(m, NEAR_DUP_THRESHOLD):
                    assert (i, j) in keep


@given(edited(st.text(alphabet=chars, min_size=20, max_size=60)), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_positional_bound_is_sound(pair, slack):
    """The positional bigram test never rejects a pair at its own
    distance or above."""
    a, b = pair
    assert not _positional_rejects(a, b, dp_distance(a, b) + slack)


def _paragraphs(texts, kinds=None):
    return [{"type": (kinds or {}).get(i, "text"), "text": t} for i, t in enumerate(texts)]


def test_filter_matches_replaced_filter_on_edge_spans():
    """Spans over NEAR_DUP_MAX_LEN (exact dedup only), empty texts and
    astral code points, against the replaced filter."""
    long_a = "word " * (NEAR_DUP_MAX_LEN // 4)
    long_b = long_a[:-1] + "x"
    astral = "\U0001F600\U0001F700" * 20
    texts = [
        "", "", long_a, long_a, long_b, astral, astral[:-1] + "a", "\U0001F700" * 40,
        "plain text here", "", "plain text hera", long_b, "\U0001F600" * 40, astral,
    ]
    paras = _paragraphs(texts, {9: "table"})
    assert filter_duplicate_spans(paras) == reference_filter_duplicate_spans(paras)
    assert len(filter_duplicate_spans(paras)) < len(paras)


def test_drops_push_the_window_past_the_pair_distance():
    """A run of near-dup drops longer than NEAR_DUP_WINDOW: the
    window then holds spans further back than the vectorized pass looked,
    and those pairs take the per-pair cascade."""
    base = "the quick brown fox jumps over the lazy dog {}"
    texts = [base.format(i) + " distinct tail {}".format("xyzw"[i] * 12) for i in range(4)]
    texts += [texts[-1][:-1] + c for c in "abcdefghijklmnopqrstuv"]  # all near-dups
    texts += [texts[0][:-2] + "qq", texts[1]]  # far from their matches by now
    assert len(texts) - 4 > NEAR_DUP_WINDOW
    paras = _paragraphs(texts)
    calls = []
    orig = extract_core.rejected_by_bounds

    def spy(*args):
        calls.append(args)
        return orig(*args)

    extract_core.rejected_by_bounds = spy
    try:
        got = filter_duplicate_spans(paras)
    finally:
        extract_core.rejected_by_bounds = orig
    assert calls, "no window pair reached past the vectorized pass"
    assert got == reference_filter_duplicate_spans(paras)


@given(st.lists(documents(), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_batched_bounds_match_per_document(docs):
    """near_pairs over many documents gives each one what it gives that
    document alone."""
    spans = [[p["text"] for p in d if p["type"] == "text"] for d in docs]
    assert near_pairs(spans, NEAR_DUP_WINDOW) == [
        near_pairs([s], NEAR_DUP_WINDOW)[0] for s in spans
    ]


def test_extract_batch_rows_equal_extract_page_rows():
    """The batch path (one near_pairs pass per batch) returns, row for row,
    what extract_page returns page by page: mixed kinds, error rows,
    empty payloads, footnote modes, and the structural column."""
    import pyarrow as pa

    from ocr_ray import synth
    from ocr_ray.stages.extract import extract_batch

    corpus = synth.synth_corpus(60, seed=3)
    urls = corpus.column("url").to_pylist() + ["u/empty", "u/bad.pdf", "u/nonutf8"]
    payloads = corpus.column("html").to_pylist() + [b"", b"%PDF-1.4 truncated", b"\xff\xfe<p>"]
    batch = pa.table({"url": urls, "html": payloads})
    for mode in ("keep", "insert", "skip"):
        for full in (False, True):
            got = extract_batch(batch, footnote_mode=mode, include_paragraphs=full).to_pylist()
            want = [
                extract_core.extract_page(u, p, footnote_mode=mode, include_paragraphs=full)
                for u, p in zip(urls, payloads)
            ]
            assert got == want
    assert sum(r["status"] == "error" for r in got) >= 3
