"""Vectorized 64/128-bit content hashing over Arrow string arrays.

:func:`key_hash` is THE row-key hash: every shuffle bucket
(``groupagg.bucket_ids``), every partition id of the partitioned writer
and the manifest key digest are this one value.

Also the shared kernel for the hash-keyed dedup shuffles (``paragraph_dedup``,
``substring_dedup`` in pipelines/queries_cc.py): at web scale the
groupby/join key for window-level dedup must be a FIXED-WIDTH content
hash, never the window text — raw 10-word windows are ~8x corpus bytes
through every all-to-all.  Everything here runs without a Python loop
over rows, tokens, or bytes: polynomial accumulation over the flat
UTF-8 buffer using wrap-around uint64 arithmetic (one modular cumsum
pass per seed), then a splitmix64 finalizer.

Collision contract: callers key exact-equality semantics on a 128-bit
(two-seed) hash; a count-altering collision needs two DISTINCT strings
with both 64-bit hashes equal, probability ~n^2 / 2^129 — zero for any
physical corpus — so results remain exactly comparable to a text-keyed
SQL oracle.

Reference analog: the reference dedups by exact text equality in its
JSON stream databases (utils/databases, SURVEY §2.8 D4); hashing at
window granularity is the public Lee et al. 2022 "Deduplicating
Training Data" design.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_FNV_PRIME = np.uint64(0x100000001B3)
_LEN_MULT = np.uint64(0x9E3779B97F4A7C15)

# independent-seed pair for the 128-bit key
SEED_A = 0x243F6A8885A308D3
SEED_B = 0x13198A2E03707344


def _splitmix64(h: np.ndarray) -> np.ndarray:
    h = h.copy()
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def _offsets_and_data(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(int64 offsets[len+1], uint8 data buffer) of a (Large)String or
    (Large)Binary array, honoring a nonzero array offset (sliced arrays)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        odt = np.int64
    else:
        odt = np.int32
    bufs = arr.buffers()
    offs = np.frombuffer(
        bufs[1], dtype=odt, count=len(arr) + 1, offset=arr.offset * np.dtype(odt).itemsize
    ).astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.zeros(0, np.uint8)
    return offs, data


def hash_strings_u64(arr: pa.Array, seed: int) -> np.ndarray:
    """One 64-bit polynomial hash per element of an Arrow string array,
    fully vectorized (nulls hash like empty strings).  ``contrib[i] =
    (byte+1) * P^pos``; segment sums via modular cumsum (wraparound uint64
    subtraction gives exact mod-2^64 segment sums even past overflow)."""
    offs, data = _offsets_and_data(arr)
    n = offs.size - 1
    if n == 0:
        return np.zeros(0, np.uint64)
    starts, ends = offs[:-1], offs[1:]
    lens = ends - starts
    total = int(lens.sum())
    h0 = lens.astype(np.uint64) * _LEN_MULT ^ np.uint64(seed)
    if total == 0:
        return _splitmix64(h0)
    cum = np.concatenate([np.zeros(1, np.int64), np.cumsum(lens)])
    pos_in_tok = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], lens)
    byte_idx = np.repeat(starts, lens) + pos_in_tok
    max_len = int(lens.max())
    pows = np.empty(max_len, np.uint64)
    pows[0] = np.uint64(1)
    if max_len > 1:
        pows[1:] = _FNV_PRIME
        np.cumprod(pows, out=pows)
    contrib = (data[byte_idx].astype(np.uint64) + np.uint64(1)) * pows[pos_in_tok]
    cs = np.concatenate([np.zeros(1, np.uint64), np.cumsum(contrib, dtype=np.uint64)])
    tok = cs[cum[1:]] - cs[cum[:-1]]
    return _splitmix64(tok ^ h0)


def key_hash(table: pa.Table, keys: list[str]) -> np.ndarray:
    """THE row-key hash: one uint64 per row of ``table`` from the values of
    ``keys`` alone (never the batch split or chunk layout).  Shuffle
    buckets (``groupagg.bucket_ids``), partition ids and the manifest key
    digest (``pipelines.writer``) are all this value, so its definition is
    a persisted format (``state.manifest.PARTITION_HASH``).

    Integer keys are taken as uint64 (two's complement for negatives;
    nulls as 0), string and binary keys through :func:`hash_strings_u64`
    with ``SEED_A`` (nulls hash like ``''``).  Lanes fold as
    ``h * FNV_PRIME + lane`` from 0, and the fold is mixed once with
    splitmix64 so dense ids spread evenly."""
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for k in keys:
        col = table.column(k)
        t = col.type
        if (
            pa.types.is_string(t)
            or pa.types.is_large_string(t)
            or pa.types.is_binary(t)
            or pa.types.is_large_binary(t)
        ):
            lane = hash_strings_u64(pc.fill_null(col, pa.scalar(b"", t)), SEED_A)
        elif pa.types.is_integer(t):
            lane = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
            lane = lane.astype(np.int64).view(np.uint64)
        else:
            raise TypeError(f"hash key {k!r} must be integer, string or binary, not {t}")
        h = h * _FNV_PRIME + lane
    return _splitmix64(h)


def pack_u64_pair(h1: np.ndarray, h2: np.ndarray) -> pa.Array:
    """Two uint64 arrays -> one 16-byte ``binary`` Arrow column (the
    128-bit shuffle key), built straight from the numpy buffers."""
    n = h1.size
    raw = np.column_stack([h1, h2]).astype("<u8", copy=False).tobytes()
    offsets = pa.array(np.arange(n + 1, dtype=np.int32) * 16)
    return pa.Array.from_buffers(
        pa.binary(), n, [None, offsets.buffers()[1], pa.py_buffer(raw)]
    )


def fold_rows_u64(mat: np.ndarray, seed: int = 0) -> np.ndarray:
    """FNV-style row fold of an (n, k) uint64 matrix -> one 64-bit hash
    per row (equal rows -> equal hash), vectorized over n."""
    h = np.full(
        mat.shape[0], np.uint64(seed) ^ np.uint64(0xCBF29CE484222325), np.uint64
    )
    for j in range(mat.shape[1]):
        h = (h ^ mat[:, j]) * _FNV_PRIME
    return _splitmix64(h)


def window_hashes_u64(tok_hash: np.ndarray, win: int, mult: int) -> np.ndarray:
    """Horner-combined hash of every length-``win`` window (stride 1) over
    a flat token-hash array: ``win`` shifted multiply-adds, no Python loop
    over windows.  Returns an array of ``len - win + 1`` window hashes
    (caller masks out windows that straddle a row boundary)."""
    nw = tok_hash.size - win + 1
    if nw <= 0:
        return np.zeros(0, np.uint64)
    c = np.uint64(mult)
    h = tok_hash[:nw].copy()
    for j in range(1, win):
        h *= c
        h += tok_hash[j : j + nw]
    return h
