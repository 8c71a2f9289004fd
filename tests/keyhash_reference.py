"""Pure-Python scalar reference of ``functions.strhash.key_hash``, the
row-key hash behind shuffle buckets, partition ids and the manifest key
digest.  It is written from the definition, one value at a time with
Python ints, so the tests can predict the partitioned layout without
calling the vectorized code they check.

Per key lane (``key_hash`` folds the lanes of a row's keys in order):

- a string or binary value hashes its bytes (UTF-8 for ``str``):
  ``acc = sum((b_i + 1) * P**i) mod 2^64`` over the bytes, ``h0 =
  len * LEN_MULT xor SEED_A``, lane ``= splitmix64(acc xor h0)``; a null
  hashes like the empty value;
- an integer value is its two's-complement int64 bit pattern as uint64;
  a null is 0.

The row hash is ``splitmix64(fold)`` with ``fold = fold * P + lane``
from 0, all mod 2^64.

The output digest sums :func:`digest_prefix` of the rows' hex digests,
mod 2^64.
"""

from __future__ import annotations

M64 = (1 << 64) - 1
FNV_PRIME = 0x100000001B3
LEN_MULT = 0x9E3779B97F4A7C15
SEED_A = 0x243F6A8885A308D3


def splitmix64(h: int) -> int:
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & M64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & M64
    return h ^ (h >> 31)


def bytes_lane(value) -> int:
    """Lane of one string/binary value (``None`` hashes like ``b''``)."""
    if value is None:
        value = b""
    elif isinstance(value, str):
        value = value.encode("utf-8")
    acc, power = 0, 1
    for b in value:
        acc = (acc + (b + 1) * power) & M64
        power = (power * FNV_PRIME) & M64
    h0 = ((len(value) * LEN_MULT) & M64) ^ SEED_A
    return splitmix64(acc ^ h0)


def int_lane(value) -> int:
    """Lane of one integer value (``None`` is 0)."""
    return (value or 0) & M64


def row_hash(lanes) -> int:
    """``key_hash`` of one row from its lanes, in key order."""
    h = 0
    for lane in lanes:
        h = (h * FNV_PRIME + lane) & M64
    return splitmix64(h)


def key_hash(values) -> int:
    """``key_hash`` of one row of Python values: ``str``/``bytes`` take the
    bytes lane, ``int`` the integer lane (so a null needs :func:`row_hash`
    with an explicit lane)."""
    return row_hash(int_lane(v) if isinstance(v, int) else bytes_lane(v) for v in values)


def partition_id(value, n_partitions: int) -> int:
    """The writer's partition id of one key value."""
    return key_hash([value]) % n_partitions


def digest_prefix(hex_digest) -> int:
    """One row's term of the output digest: the first 16 characters of its
    hex digest read as an integer (0 for a null or empty digest)."""
    return int(hex_digest[:16], 16) if hex_digest else 0
