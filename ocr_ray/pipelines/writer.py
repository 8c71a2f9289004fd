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

Each write task sorts its block by partition id once, writes each
partition's slice (zero-copy after the one ``take``) with its format's
writer, and folds a tiny per-partition stat partial with
``np.add.reduceat``; the driver streams the partials and adds them into
dense per-partition arrays (:func:`fold_partials`), so the fold needs no
shuffle and O(``n_partitions``) memory.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions.strhash import key_hash
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


#: Per-task write sequence: distinguishes blocks written by the SAME task
#: (same task id + salt would otherwise collide and silently overwrite,
#: under-writing rows the manifest counted).  Each (process, task)
#: execution also draws a random ATTEMPT SALT: a retried task — whether on
#: a fresh worker or a REUSED one (Ray reuses worker processes, so a
#: process-global counter alone would keep counting and leave the first
#: attempt's files behind) — carries a different salt, and every write
#: first sweeps same-task files bearing a foreign salt from the partition
#: dirs it touches.  Deterministic blocks => a retry touches the same
#: partitions, so all prior-attempt debris is swept before commit.
_TASK_SEQ: dict = {}


def _task_salt_seq(task_id: str) -> tuple:
    import uuid

    salt, n = _TASK_SEQ.get(task_id, (None, 0))
    if salt is None:
        salt = uuid.uuid4().hex[:8]
    _TASK_SEQ[task_id] = (salt, n + 1)
    return salt, n


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
    """Hash ``key`` once (``key_hash``; the partition id is the hash mod
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
    """The stat partial :func:`write_block` would return, nothing written
    (the resume side's input digest)."""
    return _sort_block(batch, key, n_partitions)[2]


def write_block(
    batch: pa.Table,
    *,
    output_dir: str,
    key: str,
    n_partitions: int,
    format: str = "parquet",
    digest: str | None = None,
) -> pa.Table:
    """Write one block under ``partition_id=N/`` dirs; return its stat
    partial (STATS_SCHEMA): rows and ``key_hash`` sum of ``key`` per
    partition, plus the sum of the 64-bit prefixes of the hex ``digest``
    column when given.

    File names are task id + attempt salt + per-task sequence: blocks
    never share a name, whatever their content, so no block can overwrite
    another's rows."""
    ext, write_fn, _ = FORMATS[format]
    order, starts, partial = _sort_block(batch, key, n_partitions, digest)
    if not batch.num_rows:
        return partial
    try:
        task_id = ray.get_runtime_context().get_task_id() or "driver"
    except Exception:
        task_id = "driver"
    salt, seq = _task_salt_seq(task_id)
    prefix = "part-{}-".format(task_id[:12])
    fname = "part-{}-{}-{}{}".format(task_id[:12], salt, seq, ext)
    rows = batch.take(order)
    for pid, s, n in zip(
        partial.column("partition_id").to_pylist(),
        starts.tolist(),
        partial.column("n_rows").to_pylist(),
    ):
        pdir = os.path.join(output_dir, "partition_id={}".format(pid))
        os.makedirs(pdir, exist_ok=True)
        for old in os.listdir(pdir):
            if old.startswith(prefix) and "-{}-".format(salt) not in old:
                os.remove(os.path.join(pdir, old))
        write_fn(rows.slice(s, n), os.path.join(pdir, fname))
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
    partials = ds.map_batches(
        write_block,
        fn_kwargs={
            "output_dir": output_dir, "key": key, "n_partitions": n_partitions,
            "format": format, "digest": digest,
        },
        batch_format="pyarrow",
        batch_size=None,
    )
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


def compact_partitioned(
    output_dir: str,
    *,
    target_bytes: int = 128 << 20,
    digest: str | None = None,
) -> dict:
    """Small-files compaction over a committed partitioned output: every
    partition whose parquet files are smaller than ``target_bytes`` in
    aggregate-per-file terms is rewritten into ~``ceil(total/target)``
    right-sized files.  The lakehouse maintenance pass — streaming writers
    land one file per (task, partition) and a 100 TB run leaves millions
    of KB-sized files that throttle every later scan.

    Guarantees:

    - manifest rows stay authoritative: each partition's row count and
      digests are UNCHANGED (compaction re-groups bytes, never rows), so
      committed lineage remains valid and resume semantics survive;
    - never launders corruption: a partition whose rows on disk disagree
      with its committed ``n_docs`` — or, with ``digest`` set, whose
      combined ``digest`` column disagrees with its committed
      ``output_digest`` — is left untouched and counted as skipped;
    - crash-safe: compacted files build in a hidden ``.compact-N.tmp``
      sibling (invisible to read_partitioned/clean_debris), then the swap
      is two renames — a crash leaves either the old files or the new
      ones, never both visible;
    - distributed: one Ray task per partition via ``map_batches`` over
      the partition-id list (file-level work, no data shuffle).

    Parquet-only by design: jsonl/csv are interchange sinks, not scan
    stores — partitions holding non-parquet files are left untouched.
    """
    import glob

    done = mf.completed_partitions(output_dir)
    # sweep orphaned temp dirs of a previous compaction crash
    for tmp in glob.glob(os.path.join(output_dir, ".compact-*.tmp")) + glob.glob(
        os.path.join(output_dir, ".old-*.tmp")
    ):
        shutil.rmtree(tmp, ignore_errors=True)
    if not done:
        return {"compacted_partitions": 0, "skipped_partitions": 0,
                "files_before": 0, "files_after": 0}

    def compact_one(batch: pa.Table) -> pa.Table:
        out_pid, out_before, out_after = [], [], []
        for pid in batch.column("pid").to_pylist():
            pdir = os.path.join(output_dir, "partition_id={}".format(pid))
            if not os.path.isdir(pdir):  # committed but gone: skip, count
                out_pid.append(pid)
                out_before.append(0)
                out_after.append(0)
                continue
            files = sorted(
                f for f in os.listdir(pdir) if f.endswith(".parquet")
            )
            paths = [os.path.join(pdir, f) for f in files]
            total = sum(os.path.getsize(p) for p in paths)
            n_out = max(1, -(-total // target_bytes))  # ceil
            out_pid.append(pid)
            out_before.append(len(files))
            out_after.append(len(files))
            if len(files) <= n_out:  # already right-sized
                continue
            tbl = pa.concat_tables(pq.read_table(p) for p in paths)
            entry = done[pid]
            if tbl.num_rows != entry["n_docs"] or (
                digest
                and mf.combine_digests(tbl.column(digest))
                != entry["output_digest"]
            ):
                continue  # integrity mismatch: leave the partition alone
            tmp = os.path.join(output_dir, ".compact-{}.tmp".format(pid))
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp)
            rows_per = -(-tbl.num_rows // n_out)
            for k in range(int(n_out)):
                part = tbl.slice(k * rows_per, rows_per)
                if part.num_rows == 0:
                    break
                pq.write_table(part, os.path.join(tmp, "compact-{}.parquet".format(k)))
            old = os.path.join(output_dir, ".old-{}.tmp".format(pid))
            os.rename(pdir, old)
            os.rename(tmp, pdir)
            shutil.rmtree(old, ignore_errors=True)
            out_after[-1] = len(os.listdir(pdir))
        return pa.table(
            {
                "pid": pa.array(out_pid, pa.int64()),
                "before": pa.array(out_before, pa.int64()),
                "after": pa.array(out_after, pa.int64()),
            }
        )

    pids = ray.data.from_arrow(
        pa.table({"pid": pa.array(sorted(done), pa.int64())})
    )
    stats = pids.map_batches(compact_one, batch_format="pyarrow").to_pandas()
    compacted = int((stats["after"] < stats["before"]).sum())
    return {
        "compacted_partitions": compacted,
        "skipped_partitions": len(stats) - compacted,
        "files_before": int(stats["before"].sum()),
        "files_after": int(stats["after"].sum()),
    }


def read_partitioned(output_dir: str) -> pa.Table:
    """All committed partitions back as one Arrow table (test-scale
    helper; at scale, ``ray.data.read_parquet(output_dir)`` streams it).

    Validates each partition's on-disk row count against its manifest
    entry — any residual write duplication (e.g. a retried task whose
    debris escaped the salt sweep) raises loudly instead of returning
    silently duplicated rows."""
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
