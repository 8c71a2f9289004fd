"""``strhash.key_hash`` (the one row-key hash) against its pure-Python
scalar reference, ``tests/keyhash_reference.py``."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from ocr_ray.functions.strhash import key_hash
from ocr_ray.stages.groupagg import bucket_ids

from . import keyhash_reference as ref

_TEXT = st.one_of(
    st.none(),
    st.just(""),
    st.text(max_size=12),  # any code point: non-ASCII and multi-byte UTF-8
    st.text(alphabet="ab", max_size=3),  # many equal values
)
_INT32 = st.one_of(
    st.none(), st.sampled_from([-(2**31), -1, 0, 2**31 - 1]), st.integers(-(2**31), 2**31 - 1)
)
_INT64 = st.one_of(
    st.none(), st.sampled_from([-(2**63), -1, 0, 2**63 - 1]), st.integers(-(2**63), 2**63 - 1)
)


def _want(cols, lanes):
    return [ref.row_hash(lane(v) for lane, v in zip(lanes, row)) for row in zip(*cols)]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(_TEXT, _INT32, _INT64), min_size=0, max_size=40),
    st.integers(0, 5),
)
def test_key_hash_matches_scalar_reference(rows, offset):
    """Every key type and shape hashes as the reference: string,
    large_string, binary and large_binary (empty, non-ASCII, null), int32
    and int64 extremes (two's complement, null as 0), sliced arrays with a
    nonzero offset, many-chunk columns and two-key folds in both orders."""
    strs = [r[0] for r in rows]
    i32 = [r[1] for r in rows]
    i64 = [r[2] for r in rows]
    raw = [None if s is None else s.encode("utf-8") for s in strs]
    # a prefix of junk rows sliced away: every column has a nonzero offset
    junk = ["junk"] * offset
    t = pa.table(
        {
            "s": pa.array(junk + strs, pa.string()),
            "ls": pa.array(junk + strs, pa.large_string()),
            "b": pa.array([j.encode() for j in junk] + raw, pa.binary()),
            "lb": pa.array([j.encode() for j in junk] + raw, pa.large_binary()),
            "i32": pa.array([7] * offset + i32, pa.int32()),
            "i64": pa.array([7] * offset + i64, pa.int64()),
        }
    ).slice(offset)
    string_want = _want([strs], [ref.bytes_lane])
    for k in ("s", "ls", "b", "lb"):
        assert key_hash(t, [k]).tolist() == string_want
    assert key_hash(t, ["i32"]).tolist() == _want([i32], [ref.int_lane])
    assert key_hash(t, ["i64"]).tolist() == _want([i64], [ref.int_lane])
    assert key_hash(t, ["i64", "s"]).tolist() == _want([i64, strs], [ref.int_lane, ref.bytes_lane])
    assert key_hash(t, ["s", "i32"]).tolist() == _want([strs, i32], [ref.bytes_lane, ref.int_lane])
    cut = len(rows) // 2
    chunked = pa.table({"s": pa.chunked_array([strs[:cut], strs[cut:]], pa.string())})
    assert key_hash(chunked, ["s"]).tolist() == string_want
    h = key_hash(t, ["s"])
    assert h.dtype == np.uint64
    assert bucket_ids(t, ["s"], 13).tolist() == [v % 13 for v in string_want]


def test_key_hash_pinned_values():
    """Values written out: the layout is persisted, so a change to any
    constant fails here even if the reference changed with it."""
    t = pa.table({"s": ["", "a", "http://h/a"], "i": pa.array([0, -1, 2**63 - 1], pa.int64())})
    strings = [0xA8871E3718CA0053, 0xC2957888051BE5E2, 0x3C0AA7C11E9F4886]
    ints = [0, 0xB4D055FCF2CBBD7B, 0x5A682AFE7965DEBD]  # splitmix64 fixes 0
    assert key_hash(t, ["s"]).tolist() == strings
    assert [ref.key_hash([v]) for v in ["", "a", "http://h/a"]] == strings
    assert key_hash(t, ["i"]).tolist() == ints
    assert [ref.key_hash([v]) for v in [0, -1, 2**63 - 1]] == ints
