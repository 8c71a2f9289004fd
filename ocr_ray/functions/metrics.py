"""Text distance metrics (reference: /root/reference/utils/text/metrics.py).

Used by the per-document near-duplicate span filter
(base_ocr.py:716-723: normalized edit distance < 0.2 vs the last k emitted
spans) and exposed as a standalone kernel for dedup queries.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat

import numpy as np


def edit_distance(a: str, b: str, k: int | None = None) -> int:
    """Levenshtein distance (metrics.py:86-159 computes the same quantity).

    The common prefix and suffix are stripped first (:func:`strip_common`,
    exact), then Myers' bit-parallel algorithm (Myers, JACM 1999) runs on
    what is left: the DP column is held in arbitrary-precision int
    bitvectors, one word-op row per character of ``a`` — exact, and ~100x
    faster than the naive DP for the span lengths the near-dup filter sees
    in the extraction hot path.

    With ``k`` set, bails out as soon as the distance is provably > k
    (the running column minimum can drop at most 1 per remaining row) and
    returns SOME value > k — callers only use the <= k / > k decision."""
    return _myers(*strip_common(a, b), k)


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix, by galloping slice compares
    (each compare runs in C; a character loop would run in Python)."""
    n = min(len(a), len(b))
    lo, step = 0, 16
    while lo < n:  # a[:lo] == b[:lo]
        hi = min(n, lo + step)
        if a[lo:hi] == b[lo:hi]:
            lo, step = hi, step * 2
        elif step > 1:
            step //= 2
        else:
            break
    return lo


def strip_common(a: str, b: str) -> tuple[str, str]:
    """``a`` and ``b`` without their common prefix, then without the common
    suffix of what is left.

    Exact for edit distance: ``ed(a, b) == ed(a', b')``.  If ``a[0] ==
    b[0]``, an optimal alignment can match the two first characters (any
    alignment that edits either of them can be rewritten into one that
    matches them at no extra cost), so ``ed(a, b) == ed(a[1:], b[1:])``;
    the same holds for the last characters."""
    p = _common_prefix(a, b)
    a, b = a[p:], b[p:]
    s = _common_prefix(a[::-1], b[::-1])
    return (a[:len(a) - s], b[:len(b) - s]) if s else (a, b)


def _myers(a: str, b: str, k: int | None) -> int:
    """Myers' bit-parallel edit distance (see :func:`edit_distance`)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    peq: dict[str, int] = {}
    bit = 1
    for c in b:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    remaining = len(a)
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        remaining -= 1
        if k is not None and score - remaining > k:
            return k + 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


def normalized_edit_distance(a: str, b: str) -> float:
    """edit_distance / max length, in [0, 1]."""
    m = max(len(a), len(b))
    return edit_distance(a, b) / m if m else 0.0


class SpanSketch:
    """A span with the count sketches its near-dup bounds compare, each
    built on first use and then kept: the span filter compares every new
    span against a window of earlier ones, and most pairs are decided by
    the length test before any sketch is needed.

    - ``hist``: code points hashed into 256 bins (``cp & 255``);
    - ``bigrams``: the exact multiset of adjacent code-point pairs.
    """

    __slots__ = ("text", "n", "_hist", "_bigrams")

    def __init__(self, text: str):
        self.text = text
        self.n = len(text)
        self._hist = None
        self._bigrams = None

    @property
    def hist(self) -> np.ndarray:
        if self._hist is None:
            t = self.text
            if t.isascii():  # one byte per code point: the bins are exact
                cps = np.frombuffer(t.encode("ascii"), dtype=np.uint8)
            else:
                cps = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32) & 255
            self._hist = np.bincount(cps, minlength=256)
        return self._hist

    @property
    def bigrams(self) -> Counter:
        if self._bigrams is None:
            self._bigrams = Counter(zip(self.text, self.text[1:]))
        return self._bigrams


def q1_lower_bound(a: SpanSketch, b: SpanSketch) -> int:
    """``max(|a|, |b|) - sum(min(ha, hb))`` over the hashed code-point
    histograms.

    Proof (the q=1 count lemma).  Take an optimal alignment with M
    matches, S substitutions, D deletions and I insertions, so
    ``|a| = M + S + D``, ``|b| = M + S + I`` and ``ed = S + D + I``.  A
    match pairs two equal code points, so M is at most the number of
    code points the two strings share, ``C = sum_c min(a_c, b_c)``.  Then
    ``ed >= S + D = |a| - M >= |a| - C``, and likewise for ``b``.  Hashing
    code points into bins can only merge counts, and
    ``min(x1 + x2, y1 + y2) >= min(x1, y1) + min(x2, y2)``, so the binned
    shared count is ``>= C`` and the bound stays sound for any code
    point, astral ones included."""
    return max(a.n, b.n) - int(np.minimum(a.hist, b.hist).sum())


def q2_lower_bound(a: SpanSketch, b: SpanSketch) -> int:
    """``ceil((max(|a|, |b|) - 1 - shared) / 2)``, with ``shared`` the size
    of the intersection of the two bigram multisets.

    Proof (the q-gram count lemma, Ukkonen 1992, for q = 2).  ``a`` has
    ``|a| - 1`` bigram positions.  In an optimal alignment a bigram of
    ``a`` survives into ``b`` when both its code points are matched and
    nothing is inserted between them; a substitution or deletion at one
    position destroys at most the 2 bigrams covering it, and an insertion
    destroys at most the 1 bigram spanning the gap.  So at least
    ``|a| - 1 - 2 ed`` bigrams of ``a`` survive, each mapped to a distinct
    equal bigram of ``b``: ``shared >= |a| - 1 - 2 ed``, and by symmetry
    the same for ``|b|``."""
    small, big = sorted((a.bigrams, b.bigrams), key=len)
    shared = sum(map(min, small.values(), map(big.get, small, repeat(0))))
    return -(-(max(a.n, b.n) - 1 - shared) // 2)


def rejected_by_bounds(a: SpanSketch, b: SpanSketch, threshold: float = 0.2) -> bool:
    """The near-dup cascade, cheapest test first: True when a sound lower
    bound proves ``edit_distance(a, b) / max(|a|, |b|) >= threshold``.

    1. the length difference (every bound below needs no sketch for it);
    2. :func:`q1_lower_bound` on the 256-bin histograms;
    3. :func:`q2_lower_bound` on the bigram multisets — only when the
       lemma can decide at all, i.e. ``max - 1 - 2 kmax > 0``.

    A pair no bound rejects needs the exact (Myers) test.
    :func:`near_pairs` runs steps 1-2 and a positional form of step 3 for
    many pairs at once."""
    m = max(a.n, b.n)
    if m == 0:
        return False
    if abs(a.n - b.n) / m >= threshold:
        return True
    k = _max_qualifying(m, threshold)
    if k < 0 or q1_lower_bound(a, b) > k:
        return True
    return m - 1 - 2 * k > 0 and q2_lower_bound(a, b) > k


#: limits of one vectorized pass of :func:`near_pairs`, which bound its
#: temporaries to a few MB: the spans it covers (a span's row in the pass
#: takes 9 bits of a packed bigram key), the code points of those spans,
#: the code points the pairs' longer spans expand to (about ten int64
#: arrays that long), and the pairs whose histograms it gathers
_CHUNK_SPANS = 512
_CHUNK_CODE_POINTS = 1 << 18
_CHUNK_PAIRS = 2048
#: a packed bigram key is ``row << 54 | bigram << 15 | position``
_POS_BITS = 15
_BIGRAM_BITS = 39


def near_pairs(
    docs: list[list[str]], distance: int, threshold: float = 0.2
) -> list[set[tuple[int, int]]]:
    """For each document (a list of spans), the pairs ``(i, j)``,
    ``0 < i - j <= distance``, that no bound of a three-step cascade
    rejects, for all documents in one vectorized pass (a huge input is
    cut into a few passes, each within the ``_CHUNK_*`` limits):

    1. the length test, for all pairs at once;
    2. :func:`q1_lower_bound` for the pairs left, from one ``bincount`` of
       256-bin histograms and one ``np.minimum(H[I], H[J]).sum(1)``;
    3. the positional bigram bound of :func:`_positional_bigram_survivors`
       for the pairs left.

    Steps 1-2 do the per-pair arithmetic of :func:`rejected_by_bounds`, so
    they reject exactly the pairs it rejects there.  Step 3 replaces the
    bigram multiset bound: both are sound, so a pair with distance at most
    ``kmax`` always survives, and only the exact test decides.  A pair
    never spans two documents, so one document's answer does not depend
    on the others passed with it."""
    if not 0 < distance < _CHUNK_SPANS:
        raise ValueError("distance must be in 1..{}".format(_CHUNK_SPANS - 1))
    texts = [t for doc in docs for t in doc]
    out: list[set[tuple[int, int]]] = [set() for _ in docs]
    n = len(texts)
    if n < 2:
        return out
    lens = np.fromiter(map(len, texts), np.int64, n)
    doc_start = np.zeros(len(docs) + 1, np.int64)
    np.cumsum(np.fromiter(map(len, docs), np.int64, len(docs)), out=doc_start[1:])
    doc_of = np.repeat(np.arange(len(docs)), np.diff(doc_start))
    flat = np.arange(distance, n * distance)  # pair (i, i - d) at i * distance + d - 1
    i = flat // distance
    j = i - flat % distance - 1
    jc = np.maximum(j, 0)
    li, lj = lens[i], lens[jc]
    m = np.maximum(li, lj)
    m1 = np.maximum(m, 1)  # two empty spans: 0 / 1 rejects nothing, like the per-pair test
    keep = np.flatnonzero((j >= 0) & (doc_of[i] == doc_of[jc]) & (np.abs(li - lj) / m1 < threshold))
    i, j, m, m1 = i[keep], j[keep], m[keep], m1[keep]
    k = (threshold * m).astype(np.int64)  # _max_qualifying, elementwise
    over = k / m1 >= threshold
    while over.any():
        k -= over
        over = k / m1 >= threshold
    survive = np.zeros(len(i), dtype=bool)
    before = np.zeros(n + 1, np.int64)  # code points of texts[:x]
    np.cumsum(lens, out=before[1:])
    span_end = before[i + 1]  # code points up to the end of each pair's later span
    expand = np.cumsum(m)  # code points the pairs' longer spans expand to
    lo = 0
    while lo < len(i):
        first = max(0, int(i[lo]) - distance)  # spans first..last - 1 cover the chunk
        base = expand[lo - 1] if lo else 0
        hi = len(i)
        if (hi - lo > _CHUNK_PAIRS or n - first > _CHUNK_SPANS
                or before[n] - before[first] > _CHUNK_CODE_POINTS
                or expand[-1] - base > _CHUNK_CODE_POINTS):
            hi = max(lo + 1, min(
                lo + _CHUNK_PAIRS,
                int(np.searchsorted(i, first + _CHUNK_SPANS)),
                int(np.searchsorted(span_end, before[first] + _CHUNK_CODE_POINTS, "right")),
                int(np.searchsorted(expand, base + _CHUNK_CODE_POINTS, "right")),
            ))
        last = int(i[hi - 1]) + 1
        joined = "".join(texts[first:last])
        if joined.isascii():
            cps = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
        else:
            cps = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
        owner = np.repeat(np.arange(last - first), lens[first:last])
        # a bin holds at most one span's length: uint16 up to 65,535 code
        # points, so the gathers below move 512 bytes per span, not 2 KB
        hist = np.bincount((owner << 8) | (cps & 255), minlength=(last - first) << 8)
        hist = hist.astype(np.uint16 if lens.max() < 1 << 16 else np.int64).reshape(-1, 256)
        shared = np.minimum(hist[i[lo:hi] - first], hist[j[lo:hi] - first]).sum(axis=1, dtype=np.int64)
        left = np.flatnonzero(m[lo:hi] - shared <= k[lo:hi]) + lo
        if len(left):
            survive[left] = _positional_bigram_survivors(
                cps, before[first:last + 1] - before[first],
                i[left] - first, j[left] - first, k[left])
        lo = hi
    i, j = i[survive], j[survive]
    d = doc_of[i]
    for doc, a, b in zip(d.tolist(), (i - doc_start[d]).tolist(), (j - doc_start[d]).tolist()):
        out[doc].add((a, b))
    return out


def _positional_bigram_survivors(cps, start, a, b, k) -> np.ndarray:
    """False for each pair of spans ``(a, b)`` (rows of one pass, row ``r``
    at ``cps[start[r]:start[r + 1]]``) that the positional bigram bound
    proves further apart than ``k`` edits.

    The bound (the q-gram count lemma with position filtering; Gravano et
    al., VLDB 2001).  Let ``L`` be the longer span's length and take an
    optimal alignment with ``e`` edits.  A substitution or deletion in the
    longer span destroys at most the 2 bigrams covering it, and an
    insertion at most the 1 bigram spanning it, so at least ``L - 1 - 2e``
    of its bigrams survive.  Each survivor equals a bigram of the shorter
    span whose start is shifted by at most the number of insertions and
    deletions before it, so by at most ``e``.  Let ``P`` count the longer
    span's bigram positions with an equal bigram in the shorter span at
    most ``k`` positions away.  If ``e <= k`` then ``P >= L - 1 - 2e >=
    L - 1 - 2k``; so ``L - 1 - P > 2k`` proves ``e > k``.  Packing drops
    the top bits of a bigram's first code point (only code points from
    2**18 up); a collision can only add hits, so the bound stays sound."""
    lens = start[1:] - start[:-1]
    if lens.max() >= 1 << _POS_BITS:  # positions do not fit the key: no test
        return np.ones(len(a), dtype=bool)
    a, b = np.where(lens[b] > lens[a], b, a), np.where(lens[b] > lens[a], a, b)
    # the shorter spans' bigram positions, as (row, bigram, position) keys
    rows = np.unique(b)
    which, pos, at = _bigram_positions(start, rows)
    bigram = ((cps[at].astype(np.int64) << 21) | cps[at + 1]) & ((1 << _BIGRAM_BITS) - 1)
    keys = np.sort((rows[which] << (_BIGRAM_BITS + _POS_BITS)) | (bigram << _POS_BITS) | pos)
    if not len(keys):
        return lens[a] - 1 <= 2 * k
    # the longer spans' bigram positions, one run per pair
    pair, p, at = _bigram_positions(start, a)
    bigram = ((cps[at].astype(np.int64) << 21) | cps[at + 1]) & ((1 << _BIGRAM_BITS) - 1)
    kk = k[pair]
    want = (b[pair] << (_BIGRAM_BITS + _POS_BITS)) | (bigram << _POS_BITS)
    query = want | np.maximum(p - kk, 0)  # the first equal bigram at or after p - k
    found = keys[np.minimum(np.searchsorted(keys, query), len(keys) - 1)]
    hit = (
        (found >= query)
        & ((found >> _POS_BITS) == (want >> _POS_BITS))
        & ((found & ((1 << _POS_BITS) - 1)) <= p + kk)
    )
    hits = np.bincount(pair[hit], minlength=len(a))
    return lens[a] - 1 - hits <= 2 * k


def _bigram_positions(start, rows):
    """For the spans ``rows`` (``row`` at ``start[row]:start[row + 1]``):
    per bigram position, the index into ``rows``, the position in its span
    and the position in the whole buffer."""
    n_bi = np.maximum(start[rows + 1] - start[rows] - 1, 0)
    which = np.repeat(np.arange(len(rows)), n_bi)
    pos = np.arange(len(which)) - np.repeat(np.cumsum(n_bi) - n_bi, n_bi)
    return which, pos, start[rows][which] + pos


def is_near_duplicate(a: str, b: str, threshold: float = 0.2) -> bool:
    """``edit_distance(a, b) / max(|a|, |b|) < threshold`` (true for two
    empty strings), decided by the :func:`rejected_by_bounds` cascade and
    a threshold-bounded Myers run."""
    sa, sb = SpanSketch(a), SpanSketch(b)
    return not rejected_by_bounds(sa, sb, threshold) and is_near_duplicate_cached(
        sa, sb, threshold
    )


def _max_qualifying(m: int, threshold: float) -> int:
    """Largest integer d with d/m < threshold (strict, matching the
    reference's `< 0.2` comparison)."""
    d = int(threshold * m)
    while d / m >= threshold:
        d -= 1
    return d


def is_near_duplicate_cached(
    a: SpanSketch, b: SpanSketch, threshold: float = 0.2
) -> bool:
    """The exact test of :func:`is_near_duplicate` for a pair of caller-held
    sketches that :func:`rejected_by_bounds` did not reject (the span
    filter keeps one sketch per window slot and runs the cascade itself).
    Its answer is exact whether or not the cascade ran first.

    The common prefix and suffix go first (:func:`strip_common`): if the
    longer of the two middles is at most ``kmax``, so is the distance,
    and no Myers run is needed."""
    m = max(a.n, b.n)
    if m == 0:
        return True
    k = _max_qualifying(m, threshold)
    if k < 0:
        return False
    a_mid, b_mid = strip_common(a.text, b.text)
    return max(len(a_mid), len(b_mid)) <= k or _myers(a_mid, b_mid, k) <= k


def token_f1(pred: str, target: str) -> float:
    """Whitespace-token F1 (metrics.py exposes the same family)."""
    p, t = pred.split(), target.split()
    if not p or not t:
        return float(p == t)
    from collections import Counter

    common = Counter(p) & Counter(t)
    n_common = sum(common.values())
    if n_common == 0:
        return 0.0
    precision = n_common / len(p)
    recall = n_common / len(t)
    return 2 * precision * recall / (precision + recall)
