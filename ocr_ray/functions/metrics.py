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

    Myers' bit-parallel algorithm (Myers, JACM 1999): the DP column is held
    in arbitrary-precision int bitvectors, one word-op row per character of
    ``a`` — exact, and ~100x faster than the naive DP for the span lengths
    the near-dup filter sees in the extraction hot path.

    With ``k`` set, bails out as soon as the distance is provably > k
    (the running column minimum can drop at most 1 per remaining row) and
    returns SOME value > k — callers only use the <= k / > k decision."""
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

    A pair no bound rejects needs the exact (Myers) test."""
    m = max(a.n, b.n)
    if m == 0:
        return False
    if abs(a.n - b.n) / m >= threshold:
        return True
    k = _max_qualifying(m, threshold)
    if k < 0 or q1_lower_bound(a, b) > k:
        return True
    return m - 1 - 2 * k > 0 and q2_lower_bound(a, b) > k


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
    Its answer is exact whether or not the cascade ran first."""
    m = max(a.n, b.n)
    if m == 0:
        return True
    k = _max_qualifying(m, threshold)
    return k >= 0 and edit_distance(a.text, b.text, k=k) <= k


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
