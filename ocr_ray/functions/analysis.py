"""Text analysis kernels for large-scale training-data pipelines:
language-ID, quality scoring, token counting, document fingerprinting.

These extend the reference's text-metric family (utils/text/metrics.py,
tokens_processing.py) with the standard web-corpus curation signals; each
has a ``queries()`` entry over the ``documents`` table.  All functions are
deterministic and operate on one string (vectorize via map_batches).
"""

from __future__ import annotations

import re

# ---------------------------------------------------------------------------
# language ID: stopword / character n-gram heuristic
# ---------------------------------------------------------------------------

_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "was"},
    "fr": {"le", "la", "les", "de", "des", "et", "est", "une", "que", "dans"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "von", "zu"},
    "es": {"el", "la", "los", "de", "que", "y", "es", "en", "un", "por"},
}

_WORD_RE = re.compile(r"[a-zA-ZÀ-ɏ']+")
_CJK_RE = re.compile(r"[一-鿿぀-ヿ가-힯]")


def detect_language(text: str) -> tuple[str, float]:
    """(lang, confidence) via stopword hits + CJK char ratio.

    A deterministic n-gram/stopword heuristic (no model): CJK codepoint
    ratio > 15% -> 'zh'; else the language whose marker-word hit rate is
    highest; 'und' when nothing scores."""
    if not text:
        return "und", 0.0
    n_cjk = len(_CJK_RE.findall(text))
    if n_cjk / max(1, len(text)) > 0.15:
        return "zh", min(1.0, n_cjk / max(1, len(text)) * 2)
    words = [w.lower() for w in _WORD_RE.findall(text)]
    if not words:
        return "und", 0.0
    best_lang, best_hits = "und", 0
    for lang in sorted(_LANG_MARKERS):
        hits = sum(1 for w in words if w in _LANG_MARKERS[lang])
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    if best_hits == 0:
        return "und", 0.0
    return best_lang, min(1.0, best_hits / len(words) * 4)


# ---------------------------------------------------------------------------
# quality scoring: length / punctuation / stopword / repetition signals
# ---------------------------------------------------------------------------

_STOPWORDS_ALL = frozenset().union(*_LANG_MARKERS.values())
_PUNCT_RE = re.compile(r"[^\w\s]")


def quality_signals(text: str) -> dict:
    """Gopher/C4-style per-document quality signals: counts and ratios a
    curation filter thresholds on."""
    words = text.split()
    n_words = len(words)
    n_chars = len(text)
    uniq = len(set(words))
    return {
        "n_chars": n_chars,
        "n_words": n_words,
        "mean_word_len": (sum(len(w) for w in words) / n_words) if n_words else 0.0,
        "stopword_ratio": (
            sum(1 for w in words if w.lower() in _STOPWORDS_ALL) / n_words
            if n_words
            else 0.0
        ),
        "punct_ratio": len(_PUNCT_RE.findall(text)) / n_chars if n_chars else 0.0,
        "dup_word_ratio": 1.0 - uniq / n_words if n_words else 0.0,
    }


def quality_score(text: str) -> float:
    """Scalar [0,1] quality score from :func:`quality_signals` (weights are
    heuristic; thresholds mirror common web-corpus filters)."""
    s = quality_signals(text)
    score = 1.0
    if s["n_words"] < 5:
        score *= 0.2
    elif s["n_words"] < 20:
        score *= 0.7
    if not 2.0 <= s["mean_word_len"] <= 12.0:
        score *= 0.5
    if s["dup_word_ratio"] > 0.7:
        score *= 0.3
    if s["punct_ratio"] > 0.3:
        score *= 0.5
    return round(score, 4)


# ---------------------------------------------------------------------------
# token counting: whitespace + a BPE-ish regex (GPT-2-style pretokenizer)
# ---------------------------------------------------------------------------

_BPE_PRETOKEN_RE = re.compile(
    r"'(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?\d+| ?[^\sA-Za-z\d]+|\s+(?!\S)|\s+"
)


def count_tokens(text: str, *, mode: str = "whitespace") -> int:
    """Token count: 'whitespace' split or 'bpe' (GPT-2-style pretokenizer
    regex — a deterministic proxy for BPE token counts)."""
    if not text:
        return 0
    if mode == "whitespace":
        return len(text.split())
    if mode == "bpe":
        return len(_BPE_PRETOKEN_RE.findall(text))
    raise ValueError(mode)


# ---------------------------------------------------------------------------
# document fingerprinting: polynomial rolling hash
# ---------------------------------------------------------------------------

_ROLL_BASE = 1_000_003
_ROLL_MOD = 1 << 64  # wraparound modulus: exact under numpy uint64 arithmetic
_ROLL_BASE_INV = pow(_ROLL_BASE, -1, _ROLL_MOD)  # base is odd -> invertible


def _prefix_hashes(data: bytes):
    """prefix[i] = rolling hash of data[:i] (mod 2^64), fully vectorized:
    with t_j = d_j * B^-j,  prefix[i] = B^(i-1) * cumsum(t)[i-1] — every
    multiply/add wraps mod 2^64, which uint64 arithmetic gives for free
    (the round-1 per-byte Python loop was the slow part of this kernel)."""
    import numpy as np

    d = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    n = len(d)
    binv = np.full(n, np.uint64(_ROLL_BASE_INV), dtype=np.uint64)
    binv[0] = 1
    binv_pow = np.cumprod(binv)          # B^-j, wrapping
    b = np.full(n, np.uint64(_ROLL_BASE), dtype=np.uint64)
    b[0] = 1
    b_pow = np.cumprod(b)                # B^(i-1) for prefix index i
    s = np.cumsum(d * binv_pow, dtype=np.uint64)
    prefix = np.empty(n + 1, dtype=np.uint64)
    prefix[0] = 0
    prefix[1:] = s * b_pow
    return prefix, b_pow


def rolling_fingerprint(text: str) -> int:
    """Polynomial rolling hash of the whole document (mod 2^64) — a cheap
    order-sensitive fingerprint; window variants feed shingle pipelines."""
    data = text.encode("utf-8")
    if not data:
        return 0
    prefix, _ = _prefix_hashes(data)
    return int(prefix[-1])


def window_fingerprints(text: str, *, window: int = 32, stride: int = 16) -> list[int]:
    """Rolling-hash fingerprints of overlapping byte windows (the shingle
    source for MinHash/LSH): h(i, i+w) = prefix[i+w] - prefix[i] * B^w,
    one vectorized expression over all windows."""
    import numpy as np

    data = text.encode("utf-8")
    if len(data) <= window:
        return [rolling_fingerprint(text)]
    prefix, b_pow = _prefix_hashes(data)
    bw = b_pow[window]  # B^w; in range, as len(data) > window
    starts = np.arange(0, len(data) - window + 1, stride)
    h = prefix[starts + window] - prefix[starts] * bw
    return [int(x) for x in h]
