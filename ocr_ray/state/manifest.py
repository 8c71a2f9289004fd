"""Per-partition lineage manifests: the resume/dedup database.

The reference keeps a single shared ``map.json`` ``{filename -> infos}`` dict
for skip-if-done (models/ocr/base_ocr.py:142-144, utils/callbacks/
file_saver.py:145-192) and a keyed one-file-per-entry ``JSONDir`` store
(utils/databases/json_dir.py:18-138).  At 10^12 rows a url-level map cannot
live in RAM, so here the pattern is made **partition-granular**: one small
JSON file per completed key-hash partition, written atomically (tmp +
rename) after the partition's Parquet output lands, holding

    partition_id, n_partitions, partition_hash, n_docs, input_digest,
    output_digest, status

``partition_hash`` records which row-key hash assigned the rows to
partitions (:data:`PARTITION_HASH`, ``functions.strhash.key_hash``), and
``input_digest`` is the sum of that hash over the partition's keys mod
2^64.  An entry committed under another partition count or another hash
(or an older entry with no ``partition_hash``) is never trusted.

Resume = read the manifest dir (tiny: one file per partition), broadcast the
completed-id set, and anti-join the input inside ``map_batches``
(SURVEY §2.5 J1).  The manifest is append-only; a killed run leaves at worst
one partition unrecorded, which is simply recomputed (extraction is
deterministic, so recompute == the reference's re-parse-on-cache-miss).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: the row-key hash that assigns rows to partitions, as committed in every
#: entry: ``functions.strhash.key_hash`` (FNV-folded strhash/int64 lanes,
#: splitmix64) mod ``n_partitions``.  A recorded format value, not a
#: setting; a new layout gets a new value.
PARTITION_HASH = "strhash.key_hash/1"


def manifest_dir(output_dir: str) -> str:
    return os.path.join(output_dir, "_manifest")


def _entries(output_dir: str):
    """(path, entry) of every manifest entry file, in partition order."""
    mdir = manifest_dir(output_dir)
    if not os.path.isdir(mdir):
        return
    for name in sorted(os.listdir(mdir)):
        if name.startswith("part-") and name.endswith(".json"):
            path = os.path.join(mdir, name)
            with open(path) as f:
                yield path, json.load(f)


def _trusted(entry: dict, n_partitions: int) -> bool:
    """Does ``entry`` hold the rows a run over ``n_partitions`` assigns to
    its partition?  Only when it was committed under the same partition
    count and the same row-key hash (a missing field is a mismatch)."""
    return (
        entry.get("n_partitions") == n_partitions
        and entry.get("partition_hash") == PARTITION_HASH
    )


def completed_partitions(
    output_dir: str, *, n_partitions: int | None = None
) -> dict[int, dict]:
    """Read all committed partition entries. Missing dir -> empty.

    With ``n_partitions`` given, entries not :func:`_trusted` for that
    count are ignored (the key->partition mapping changed, so they cannot
    be trusted for the skip anti-join).  Reads are pure;
    :func:`purge_mismatched` deletes untrusted entries explicitly."""
    return {
        int(entry["partition_id"]): entry
        for _, entry in _entries(output_dir)
        if entry.get("status") == "done"
        and (n_partitions is None or _trusted(entry, n_partitions))
    }


def purge_mismatched(output_dir: str, n_partitions: int) -> int:
    """Delete manifest entries not :func:`_trusted` for ``n_partitions``
    (another partition count or another row-key hash).

    Called before a resume: a stale entry would poison a future resume
    that switches back to the old layout after this run rewrites the
    data.  Returns the number purged."""
    removed = 0
    for path, entry in _entries(output_dir):
        if not _trusted(entry, n_partitions):
            os.remove(path)
            removed += 1
    return removed


def commit_partition(
    output_dir: str,
    partition_id: int,
    *,
    n_docs: int,
    input_digest: str,
    output_digest: str,
    n_partitions: int | None = None,
) -> None:
    """Atomically record a finished partition (write tmp, rename)."""
    mdir = manifest_dir(output_dir)
    os.makedirs(mdir, exist_ok=True)
    entry = {
        "partition_id": int(partition_id),
        "n_partitions": n_partitions,
        "partition_hash": PARTITION_HASH,
        "n_docs": int(n_docs),
        "input_digest": input_digest,
        "output_digest": output_digest,
        "status": "done",
    }
    final = os.path.join(mdir, "part-{:06d}.json".format(partition_id))
    tmp = final + ".tmp"
    with open(tmp, "w") as f:
        json.dump(entry, f)
    os.replace(tmp, final)


def clear(output_dir: str) -> None:
    """Remove every manifest entry (used by resume=False full rewrites so
    stale entries from a different partitioning cannot linger)."""
    import shutil

    shutil.rmtree(manifest_dir(output_dir), ignore_errors=True)


def invalidate_partition(output_dir: str, partition_id: int) -> None:
    """Remove one committed entry (resume found its input digest stale)."""
    path = os.path.join(manifest_dir(output_dir), "part-{:06d}.json".format(partition_id))
    if os.path.exists(path):
        os.remove(path)


#: hex character byte -> its nibble value; 0xFF marks a non-hex byte
_NIBBLE = np.full(256, 0xFF, np.uint8)
_NIBBLE[list(b"0123456789abcdef")] = np.arange(16)
_NIBBLE[list(b"ABCDEF")] = np.arange(10, 16)


def digest_prefixes(hex_digests) -> np.ndarray:
    """The 64-bit prefix of each hex digest in an Arrow string array, as
    uint64: its first 16 characters read as hex (``int(d[:16], 16)``), 0
    for a null or empty digest.  Vectorized: the prefixes are left-padded
    with ``0`` to one fixed-width byte view, each byte maps through a
    256-entry nibble table, and byte pairs of nibbles read as one
    big-endian uint64 per row.  A non-hex character raises ``ValueError``."""
    text = pc.utf8_lpad(pc.utf8_slice_codeunits(pc.fill_null(hex_digests, ""), 0, 16), 16, "0")
    # a non-ASCII character leaves more than 16 bytes: ArrowInvalid, a ValueError
    fixed = pc.cast(pc.cast(text, pa.binary()), pa.binary(16))
    if isinstance(fixed, pa.ChunkedArray):
        fixed = fixed.combine_chunks()
    n = len(fixed)
    if not n:
        return np.zeros(0, np.uint64)
    chars = np.frombuffer(fixed.buffers()[1], np.uint8, 16 * n, 16 * fixed.offset)
    nibbles = _NIBBLE[chars.reshape(n, 16)]
    if (nibbles == 0xFF).any():
        raise ValueError("a digest holds a non-hex character")
    return ((nibbles[:, 0::2] << 4) | nibbles[:, 1::2]).view(">u8").ravel().astype(np.uint64)


def combine_digests(hex_digests) -> str:
    """Order-insensitive AND duplicate-sensitive digest combine: sum of
    per-row sha256 64-bit prefixes (:func:`digest_prefixes`) mod 2^64.
    (xor was rejected: a row duplicated an even number of times cancels
    out, so a corrupted partition could digest identically to a clean
    one.)  Takes an Arrow string column or any iterable of hex strings."""
    if not isinstance(hex_digests, (pa.Array, pa.ChunkedArray)):
        hex_digests = pa.array(list(hex_digests), pa.string())
    return "{:016x}".format(int(digest_prefixes(hex_digests).sum(dtype=np.uint64)))
