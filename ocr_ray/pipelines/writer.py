"""The one resumable partitioned writer.  :func:`write_partitioned` holds
the whole resume protocol, and every partitioned output goes through it:
``run_extraction`` (with ``extract_pages`` as its ``transform``) and any
other keyed Dataset (dedup winners, filtered corpora, per-source samples).
Every output gets the same guarantees:

- output lands as ``partition_id=N/`` directories, never one giant file;
  a row's partition id is ``strhash.key_hash`` of its key mod
  ``n_partitions`` (deterministic; the same hash as every shuffle bucket);
- each finished partition commits a lineage manifest row (rows, input and
  output digests) atomically AFTER its files land (state/manifest.py);
- a rerun skips a committed partition only while its input digest still
  matches, with a map-side filter against the done-set (no scan of prior
  output), deletes debris of partitions that died between write and
  commit, and recomputes only the missing key ranges.

The write runs on the keyed-bucket shuffle
(``groupagg.bucketed_map_groups`` on ``key`` with ``n_partitions``
buckets): the bucket id is the partition id, so each reduce block holds
whole partitions, in partition order, and writes each one to one file
with a fixed name (:func:`write_partition`).  A run writes one file per
partition it writes, whatever the input's block count, and a retried
task rewrites the same paths.  The cost is that one task holds whole
partitions in memory; ROADMAP item 12 measures that hold at scale.  Each
write also folds its partition's tiny stat partial; the driver streams
the partials and adds them into dense per-partition arrays
(:func:`fold_partials`), so the fold needs O(``n_partitions``) memory.
"""

from __future__ import annotations

import functools
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ..functions.strhash import key_hash
from ..stages.groupagg import bucket_ids, bucketed_map_groups
from ..state import manifest as mf

_U64 = (1 << 64) - 1

#: stat partial / folded stat row: rows, key digest and output digest per
#: partition; the key digest sums the rows' ``key_hash`` values and the
#: output digest the 64-bit prefixes of their hex digests, both mod 2^64
#: (manifest.combine_digests' rule)
STATS_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int64()),
        ("n_rows", pa.int64()),
        ("key_sum", pa.uint64()),
        ("digest_sum", pa.uint64()),
    ]
)


def _write_jsonl(tbl: pa.Table, path: str) -> None:
    # pandas' C json writer — vectorized, no Python loop over rows
    tbl.to_pandas().to_json(
        path, orient="records", lines=True, force_ascii=False,
        date_format="iso", date_unit="us",
    )


def _read_jsonl(path: str) -> pa.Table:
    from pyarrow import json as pj

    return pj.read_json(path)


def _write_csv(tbl: pa.Table, path: str) -> None:
    from pyarrow import csv as pcsv

    pcsv.write_csv(tbl, path)


def _read_csv(path: str) -> pa.Table:
    from pyarrow import csv as pcsv

    return pcsv.read_csv(path)


#: Sink format registry: extension, vectorized writer, reader.  Parquet is
#: the canonical store; jsonl/csv are interchange sinks (the reference's
#: JSONSaver / FileSaver shapes, `utils/databases/json_dir.py` /
#: `models/saving.py`) with the usual interchange caveats (csv erases the
#: null-vs-empty-string distinction; jsonl renders timestamps as ISO text).
FORMATS = {
    "parquet": (".parquet", pq.write_table, pq.read_table),
    "jsonl": (".jsonl", _write_jsonl, _read_jsonl),
    "csv": (".csv", _write_csv, _read_csv),
}


def _sort_block(batch: pa.Table, key: str, n_partitions: int, digest=None):
    """The stat partial of a block of many partitions (:func:`block_stats`;
    :func:`write_partition` holds one partition and needs no sort).  Hash
    ``key`` once (``key_hash``; the partition id is the hash mod
    ``n_partitions``), sort ``batch`` by partition id and fold (n_rows, key
    hash sum, sum of the hex ``digest`` column's 64-bit prefixes) per
    partition; uint64 ``np.add.reduceat`` wraps mod 2^64.  Returns the
    stable sort permutation, each partition's start in it, and the
    STATS_SCHEMA partial."""
    hashes = key_hash(batch, [key])
    pids = (hashes % np.uint64(n_partitions)).astype(np.int64)
    order = np.argsort(pids, kind="stable")
    starts = np.flatnonzero(np.diff(pids[order], prepend=-1))  # ids are >= 0
    digests = mf.digest_prefixes(batch.column(digest)) if digest else None

    def fold(vals):
        if vals is None or not len(starts):
            return np.zeros(len(starts), np.uint64)
        return np.add.reduceat(vals[order], starts)

    partial = pa.table(
        [pids[order][starts], np.diff(starts, append=len(pids)), fold(hashes), fold(digests)],
        schema=STATS_SCHEMA,
    )
    return order, starts, partial


def block_stats(batch: pa.Table, *, key: str, n_partitions: int) -> pa.Table:
    """The per-partition stat partial of ``batch`` (STATS_SCHEMA, no
    digest), nothing written: the resume side's input digest."""
    return _sort_block(batch, key, n_partitions)[2]


def write_partition(
    rows: pa.Table,
    *,
    output_dir: str,
    key: str,
    n_partitions: int,
    format: str = "parquet",
    digest: str | None = None,
) -> pa.Table:
    """Write the rows of ONE partition (one bucket of the keyed-bucket
    shuffle) to its one file, ``partition_id=N/part-0.<ext>``; return its
    stat partial (STATS_SCHEMA): rows and ``key_hash`` sum of ``key``,
    plus the sum of the 64-bit prefixes of the hex ``digest`` column when
    given.  A retried task rewrites the same path, so a retry leaves no
    second copy.  Raises if ``rows`` span more than one partition."""
    ext, write_fn, _ = FORMATS[format]
    hashes = key_hash(rows, [key])
    if not len(hashes):
        return STATS_SCHEMA.empty_table()
    pids = hashes % np.uint64(n_partitions)
    if pids.min() != pids.max():
        raise ValueError(
            "one write call got partitions {}; a bucket must hold exactly "
            "one partition".format(np.unique(pids).tolist())
        )
    # one partition, so no sort: plain sums, each wrapping mod 2^64
    partial = pa.table(
        [
            [int(pids[0])], [len(hashes)], [hashes.sum(dtype=np.uint64)],
            [mf.digest_prefixes(rows.column(digest)).sum(dtype=np.uint64) if digest else 0],
        ],
        schema=STATS_SCHEMA,
    )
    pdir = os.path.join(output_dir, "partition_id={}".format(int(pids[0])))
    os.makedirs(pdir, exist_ok=True)
    write_fn(rows, os.path.join(pdir, "part-0" + ext))
    return partial


def fold_partials(partials: ray.data.Dataset, n_partitions: int) -> list[dict]:
    """One folded STATS_SCHEMA row per partition present in ``partials``,
    by partition id.  A streaming fold at the driver: each partial block is
    added into dense per-partition arrays (``np.add.at``; the uint64 sums
    wrap mod 2^64), so memory is O(``n_partitions``) and no shuffle runs."""
    n_rows = np.zeros(n_partitions, np.int64)
    key_sum = np.zeros(n_partitions, np.uint64)
    digest_sum = np.zeros(n_partitions, np.uint64)
    present = np.zeros(n_partitions, bool)
    for batch in partials.iter_batches(batch_format="pyarrow", batch_size=None):
        if not batch.num_rows:
            continue
        pids = batch.column("partition_id").to_numpy()
        np.add.at(n_rows, pids, batch.column("n_rows").to_numpy())
        np.add.at(key_sum, pids, batch.column("key_sum").to_numpy())
        np.add.at(digest_sum, pids, batch.column("digest_sum").to_numpy())
        present[pids] = True
    return [
        {"partition_id": p, "n_rows": int(n_rows[p]),
         "key_sum": int(key_sum[p]), "digest_sum": int(digest_sum[p])}
        for p in np.flatnonzero(present).tolist()
    ]


def drop_partitions(
    batch: pa.Table, *, key: str, n_partitions: int, done: frozenset
) -> pa.Table:
    """Rows of ``batch`` whose key does NOT hash into a ``done`` partition."""
    pids = (key_hash(batch, [key]) % np.uint64(n_partitions)).astype(np.int64)
    return batch.filter(pa.array(~np.isin(pids, sorted(done))))


def digest_hex(value: int) -> str:
    """A folded digest sum as the manifest's 16-hex string."""
    return "{:016x}".format(int(value) & _U64)


def write_partitioned(
    ds: ray.data.Dataset,
    output_dir: str,
    *,
    key: str,
    n_partitions: int = 64,
    format: str = "parquet",
    digest: str | None = None,
    keys=None,
    transform=None,
    resume: bool = True,
) -> dict:
    """Write ``ds`` as resumable ``key``-partitioned files in ``format``
    (``parquet`` | ``jsonl`` | ``csv``, see ``FORMATS``) and commit one
    manifest entry per partition written.  Returns ``{"written":
    rows_written_this_run, "skipped_partitions": N}``.

    - ``transform`` (Dataset -> Dataset) runs on the rows left after the
      skip filter, so a resume computes only the missing partitions.  The
      committed input digest is taken over the written keys, so its output
      keeps one row per input row and each row's ``key``.
    - ``digest`` names a hex digest column of the written rows; a
      partition's output digest combines it (``manifest.combine_digests``).
      Without it the output digest is the key digest.
    - ``keys`` is a zero-argument callable returning a key-only Dataset of
      ``ds``'s rows, the cheap source of the input digest (default
      ``ds.select_columns([key])``).  It is called only when some
      partition is committed, so a fresh run never reads it.
    - ``resume=False`` clears the manifest and rewrites everything.

    With ``resume``, a committed partition is skipped only while its entry
    is trusted for ``n_partitions`` (``manifest.purge_mismatched``) and its
    input digest, the sum of ``key_hash`` over the keys that hash into it,
    matches the current input.  The input digest covers the key multiset
    only, not the payloads: a partition that gains, loses or changes a key
    is rewritten, one whose rows change only in their other columns is
    skipped.  Partition dirs without a committed entry are debris of a
    killed run and are deleted before the write.  All of this holds for
    every format; only the file body serializer changes."""
    done = frozenset()
    if not resume:
        mf.clear(output_dir)
    else:
        mf.purge_mismatched(output_dir, n_partitions)
        committed = mf.completed_partitions(output_dir, n_partitions=n_partitions)
        if committed:
            key_ds = keys() if keys is not None else ds.select_columns([key])
            stats = key_ds.map_batches(
                block_stats,
                fn_kwargs={"key": key, "n_partitions": n_partitions},
                batch_format="pyarrow",
            )
            actual = {
                r["partition_id"]: digest_hex(r["key_sum"])
                for r in fold_partials(stats, n_partitions)
            }
            stale = {p for p, e in committed.items() if actual.get(p) != e.get("input_digest")}
            for pid in stale:
                mf.invalidate_partition(output_dir, pid)
            done = frozenset(committed) - stale
    clean_debris(output_dir, committed=done)
    if done:
        ds = ds.map_batches(
            drop_partitions,
            fn_kwargs={"key": key, "n_partitions": n_partitions, "done": done},
            batch_format="pyarrow",
        )
    if transform is not None:
        ds = transform(ds)
    write = functools.partial(
        write_partition, output_dir=output_dir, key=key,
        n_partitions=n_partitions, format=format, digest=digest,
    )

    def write_runs(block: pa.Table) -> pa.Table:
        # a reduce block holds whole partitions sorted by partition id: one
        # write per run of equal ids
        pids = bucket_ids(block, [key], n_partitions)
        steps = np.diff(pids)
        if (steps < 0).any():  # a second run of one id would overwrite its file
            raise ValueError("a reduce block is not in partition order")
        cuts = np.flatnonzero(steps) + 1
        bounds = zip([0, *cuts], [*cuts, len(pids)])
        return pa.concat_tables([write(block.slice(a, b - a)) for a, b in bounds])

    partials = bucketed_map_groups(ds, [key], write_runs, n_buckets=n_partitions)
    written = 0
    for r in fold_partials(partials, n_partitions):
        mf.commit_partition(
            output_dir,
            r["partition_id"],
            n_docs=r["n_rows"],
            input_digest=digest_hex(r["key_sum"]),
            output_digest=digest_hex(r["digest_sum" if digest else "key_sum"]),
            n_partitions=n_partitions,
        )
        written += r["n_rows"]
    return {"written": written, "skipped_partitions": len(done)}


def clean_debris(output_dir: str, *, committed=frozenset()) -> int:
    if not os.path.isdir(output_dir):
        return 0
    removed = 0
    for name in os.listdir(output_dir):
        if not name.startswith("partition_id="):
            continue
        if int(name.split("=", 1)[1]) not in committed:
            shutil.rmtree(os.path.join(output_dir, name), ignore_errors=True)
            removed += 1
    return removed


def read_partitioned(output_dir: str) -> pa.Table:
    """All committed partitions back as one Arrow table (test-scale
    helper; at scale, ``ray.data.read_parquet(output_dir)`` streams it).

    Validates each partition's on-disk row count against its manifest
    entry — a stray second file in a partition directory raises loudly
    instead of returning silently duplicated rows."""
    readers = {ext: read_fn for ext, _, read_fn in FORMATS.values()}
    parts = []
    for pid, entry in sorted(mf.completed_partitions(output_dir).items()):
        pdir = os.path.join(output_dir, "partition_id={}".format(pid))
        ptables = [
            readers[os.path.splitext(f)[1]](os.path.join(pdir, f))
            for f in sorted(os.listdir(pdir))
            if os.path.splitext(f)[1] in readers
        ]
        n = sum(t.num_rows for t in ptables)
        expected = entry.get("n_docs")
        if expected is not None and n != expected:
            raise ValueError(
                "partition {} holds {} rows on disk but its manifest "
                "committed {} — duplicated or missing write debris".format(
                    pid, n, expected
                )
            )
        parts.extend(ptables)
    return pa.concat_tables(parts) if parts else pa.table({})
