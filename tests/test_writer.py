"""Generic resumable partitioned writer (ocr_ray.pipelines.writer)."""

import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data
from hypothesis import given, settings, strategies as st

from ocr_ray.pipelines import writer
from ocr_ray.state import manifest as mf

from . import keyhash_reference as ref


def _docs_table(n=200, prefix="t"):
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(["%s%d" % (prefix, i) for i in range(n)]),
        }
    )


def _docs(n=200, prefix="t"):
    return ray.data.from_arrow(_docs_table(n, prefix))


def test_write_read_roundtrip(ray_session, tmp_path):
    out = str(tmp_path / "o")
    r = writer.write_partitioned(_docs(), out, key="doc_id", n_partitions=8)
    assert r == {"written": 200, "skipped_partitions": 0}
    back = writer.read_partitioned(out)
    assert back.num_rows == 200
    assert sorted(back.column("doc_id").to_pylist()) == list(range(200))
    assert len(mf.completed_partitions(out, n_partitions=8)) == 8


def test_resume_skips_committed_and_recomputes_missing(ray_session, tmp_path):
    import shutil

    out = str(tmp_path / "o")
    writer.write_partitioned(_docs(), out, key="doc_id", n_partitions=8)
    # wipe 3 partitions (files + manifest entries)
    for pid in (1, 4, 6):
        shutil.rmtree(os.path.join(out, "partition_id=%d" % pid))
        mf.invalidate_partition(out, pid)
    r = writer.write_partitioned(_docs(), out, key="doc_id", n_partitions=8)
    assert r["skipped_partitions"] == 5
    # exactly the missing rows were rewritten
    expect_missing = sum(
        1 for i in range(200) if ref.partition_id(i, 8) in (1, 4, 6)
    )
    assert r["written"] == expect_missing
    back = writer.read_partitioned(out)
    assert sorted(back.column("doc_id").to_pylist()) == list(range(200))


@pytest.mark.parametrize("resume", [True, False])
def test_changed_input_is_rewritten(ray_session, tmp_path, resume):
    """Writing doc_ids 0-199, then 0-299 with new texts, to the same output
    rewrites every partition whose key set changed (all 8 here) instead of
    skipping it on its committed entry; ``resume=False`` rewrites all."""
    out = str(tmp_path / "o")
    writer.write_partitioned(_docs(200, "old"), out, key="doc_id", n_partitions=8)
    r = writer.write_partitioned(
        _docs(300, "new"), out, key="doc_id", n_partitions=8, resume=resume
    )
    assert r == {"written": 300, "skipped_partitions": 0}
    back = writer.read_partitioned(out).sort_by("doc_id")
    assert back.column("doc_id").to_pylist() == list(range(300))
    assert back.column("text").to_pylist() == ["new%d" % i for i in range(300)]
    entries = mf.completed_partitions(out, n_partitions=8)
    assert sum(e["n_docs"] for e in entries.values()) == 300


def test_key_only_pass_only_with_committed_partitions(ray_session, tmp_path):
    """A fresh write never builds the key-only input; a rerun over
    committed partitions builds it once and skips them all."""
    out = str(tmp_path / "o")
    calls = []

    def keys():
        calls.append(1)
        return _docs().select_columns(["doc_id"])

    writer.write_partitioned(_docs(), out, key="doc_id", n_partitions=8, keys=keys)
    assert calls == []
    r = writer.write_partitioned(_docs(), out, key="doc_id", n_partitions=8, keys=keys)
    assert calls == [1]
    assert r == {"written": 0, "skipped_partitions": 8}


def test_uncommitted_debris_cleaned(ray_session, tmp_path):
    out = str(tmp_path / "o")
    writer.write_partitioned(_docs(), out, key="doc_id", n_partitions=4)
    # simulate a run killed between write and commit: files exist, no entry
    mf.invalidate_partition(out, 2)
    r = writer.write_partitioned(_docs(), out, key="doc_id", n_partitions=4)
    assert r["skipped_partitions"] == 3
    back = writer.read_partitioned(out)
    assert back.num_rows == 200  # no duplicated rows from the debris


def test_string_key_partitioning(ray_session, tmp_path):
    out = str(tmp_path / "o")
    ds = ray.data.from_arrow(
        pa.table({"url": pa.array(["u%d" % i for i in range(50)])})
    )
    r = writer.write_partitioned(ds, out, key="url", n_partitions=4)
    assert r["written"] == 50
    assert writer.read_partitioned(out).num_rows == 50


def test_same_key_multiset_blocks_both_land(ray_session, tmp_path):
    """Two blocks writing the same partition with an IDENTICAL key multiset
    and row count but DIFFERENT payloads must both land: the shuffle puts
    the whole partition in one write call (a file name derived from the
    key sum once collided and silently dropped one block)."""
    out = str(tmp_path / "o")
    t1 = pa.table({"k": pa.array(["s1"] * 4), "v": pa.array(range(4), pa.int64())})
    t2 = pa.table({"k": pa.array(["s1"] * 4), "v": pa.array(range(4, 8), pa.int64())})
    ds = ray.data.from_arrow(t1).union(ray.data.from_arrow(t2))
    r = writer.write_partitioned(ds, out, key="k", n_partitions=4)
    assert r["written"] == 8
    back = writer.read_partitioned(out)
    assert back.num_rows == 8  # manifest count and actual rows agree
    assert sorted(back.column("v").to_pylist()) == list(range(8))


def test_byte_identical_blocks_from_one_task_both_land(ray_session, tmp_path):
    """Regression (ADVICE r4 follow-up): two byte-identical blocks written
    by the SAME task used to collide on (task_id, digest, rows) and
    silently overwrite — both must land in the partition's one file."""
    out = str(tmp_path / "o")
    tbl = pa.table(
        {
            "doc_id": pa.array([7] * 50, pa.int64()),
            "text": pa.array(["same"] * 50),
        }
    )
    # two byte-identical input blocks; whatever the task placement, the
    # committed row count must equal what lands on disk
    ds = ray.data.from_arrow([tbl, tbl])
    r = writer.write_partitioned(ds, out, key="doc_id", n_partitions=4)
    assert r["written"] == 100
    back = writer.read_partitioned(out)
    assert back.num_rows == 100  # was 50 on the overwrite bug when colocated


def test_read_partitioned_raises_on_duplicated_debris(ray_session, tmp_path):
    out = str(tmp_path / "o")
    writer.write_partitioned(_docs(40), out, key="doc_id", n_partitions=4)
    # a stray second copy of the partition's file, under any other name
    import shutil

    pdir = os.path.join(out, "partition_id=0")
    assert os.listdir(pdir) == ["part-0.parquet"]
    shutil.copy(os.path.join(pdir, "part-0.parquet"), os.path.join(pdir, "stray.parquet"))
    with pytest.raises(ValueError, match="debris"):
        writer.read_partitioned(out)


def test_retried_write_leaves_one_file(tmp_path):
    """A retry runs the write fn again on the same group: it rewrites the
    partition's one file, so the rows are on disk once, and it returns
    the same partial."""
    import pyarrow.parquet as pq

    out = str(tmp_path / "o")
    tbl = _docs_table(200)
    group = tbl.filter(pa.array([ref.partition_id(i, 4) == 1 for i in range(200)]))
    first = writer.write_partition(group, output_dir=out, key="doc_id", n_partitions=4)
    again = writer.write_partition(group, output_dir=out, key="doc_id", n_partitions=4)
    assert first.equals(again)
    assert first.column("n_rows").to_pylist() == [group.num_rows]
    assert os.listdir(out) == ["partition_id=1"]
    assert os.listdir(os.path.join(out, "partition_id=1")) == ["part-0.parquet"]
    assert pq.read_table(os.path.join(out, "partition_id=1", "part-0.parquet")).equals(group)


def test_write_partition_rejects_two_partitions(tmp_path):
    """A write call whose rows span two partitions raises instead of
    writing either: the layout keeps one partition per bucket."""
    with pytest.raises(ValueError, match="exactly one partition"):
        writer.write_partition(
            _docs_table(50), output_dir=str(tmp_path / "o"), key="doc_id", n_partitions=4
        )
    assert not os.path.exists(tmp_path / "o")


def test_one_block_over_sixteen_partitions_writes_sixteen_files(ray_session, tmp_path):
    """One input block spread over 16 partitions reaches the write as one
    reduce block: it still lands as one file per partition, each holding
    only that partition's rows, and each manifest count equals its file's
    rows."""
    import pyarrow.parquet as pq

    out = str(tmp_path / "o")
    ds = ray.data.from_arrow(_docs_table(400))
    assert ds.num_blocks() == 1
    r = writer.write_partitioned(ds, out, key="doc_id", n_partitions=16)
    assert r == {"written": 400, "skipped_partitions": 0}
    done = mf.completed_partitions(out, n_partitions=16)
    assert sorted(done) == list(range(16))
    for pid, entry in done.items():
        pdir = os.path.join(out, "partition_id=%d" % pid)
        assert os.listdir(pdir) == ["part-0.parquet"]
        ids = pq.read_table(os.path.join(pdir, "part-0.parquet")).column("doc_id").to_pylist()
        assert {ref.partition_id(i, 16) for i in ids} == {pid}
        assert entry["n_docs"] == len(ids)
    assert sorted(writer.read_partitioned(out).column("doc_id").to_pylist()) == list(range(400))


def test_block_out_of_partition_order_raises(ray_session, tmp_path, monkeypatch):
    """A reduce block whose partitions are not in order (a second run of
    one partition would overwrite its file) raises before any write."""
    tbl = _docs_table(64)
    pids = np.array([ref.partition_id(i, 4) for i in range(64)])
    order = np.argsort(pids, kind="stable")
    # partition order, but the first row moved last: two runs of its partition
    unordered = tbl.take(pa.array(np.append(order[1:], order[0])))
    monkeypatch.setattr(
        writer, "bucketed_map_groups",
        lambda ds, keys, fn, n_buckets: ray.data.from_arrow(fn(unordered)),
    )
    with pytest.raises(ValueError, match="partition order"):
        writer.write_partitioned(_docs(64), str(tmp_path / "o"), key="doc_id", n_partitions=4)
    assert not os.path.exists(tmp_path / "o" / "partition_id=0")


def test_jsonl_and_csv_sink_roundtrip_with_resume(ray_session, tmp_path):
    """Interchange sinks keep every writer guarantee: round-trip content,
    manifest row counts, and resume skipping — only the body serializer
    changes.  In every format, an input of many blocks leaves exactly one
    file per partition, after the full run and after the resume."""
    import shutil

    def one_file_each(out, ext):
        return all(
            os.listdir(os.path.join(out, "partition_id=%d" % pid)) == ["part-0" + ext]
            for pid in range(4)
        )

    for fmt, ext in (("parquet", ".parquet"), ("jsonl", ".jsonl"), ("csv", ".csv")):
        out = str(tmp_path / fmt)
        r = writer.write_partitioned(
            _docs().repartition(8), out, key="doc_id", n_partitions=4, format=fmt
        )
        assert r == {"written": 200, "skipped_partitions": 0}
        assert one_file_each(out, ext)
        back = writer.read_partitioned(out)
        assert sorted(back.column("doc_id").to_pylist()) == list(range(200))
        assert sorted(back.column("text").to_pylist()) == sorted(
            "t%d" % i for i in range(200)
        )
        # resume: wipe one partition, rerun writes only it
        shutil.rmtree(os.path.join(out, "partition_id=2"))
        mf.invalidate_partition(out, 2)
        r2 = writer.write_partitioned(
            _docs().repartition(8), out, key="doc_id", n_partitions=4, format=fmt
        )
        assert r2["skipped_partitions"] == 3
        assert one_file_each(out, ext)
        assert writer.read_partitioned(out).num_rows == 200


def test_block_fold_matches_python_loop():
    """The uint64 np.add.reduceat fold equals a per-row Python loop over
    the scalar key-hash reference (sums of key hashes and of 64-bit digest
    prefixes, mod 2^64)."""
    import random

    rng = random.Random(5)
    urls = ["http://h%d/%d" % (rng.randrange(9), i) for i in range(300)]
    digests = [
        "" if rng.random() < 0.1 else "%064x" % rng.getrandbits(256) for _ in urls
    ]
    digests[:3] = ["f" * 64] * 3  # prefixes near 2^64: the sums must wrap
    batch = pa.table({"url": urls, "digest": digests})
    order, starts, partial = writer._sort_block(batch, "url", 7, "digest")
    keys_only = writer.block_stats(batch, key="url", n_partitions=7)
    assert keys_only.drop_columns(["digest_sum"]).equals(partial.drop_columns(["digest_sum"]))

    want: dict = {}
    for u, d in zip(urls, digests):
        pid = ref.partition_id(u, 7)
        n, ks, ds = want.get(pid, (0, 0, 0))
        want[pid] = (
            n + 1,
            (ks + ref.key_hash([u])) & writer._U64,
            (ds + int(d[:16], 16)) & writer._U64 if d else ds,
        )
    assert {
        r["partition_id"]: (r["n_rows"], r["key_sum"], r["digest_sum"])
        for r in partial.to_pylist()
    } == want
    # the sort is stable: each partition's rows keep their block order
    pids = [ref.partition_id(u, 7) for u in urls]
    assert [urls[i] for i in order] == [u for _, u in sorted(zip(pids, urls), key=lambda t: t[0])]
    assert [pids[order[s]] for s in starts] == sorted(want)


_HEX = "0123456789abcdefABCDEF"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.none(),
            st.text(_HEX, max_size=20),
            st.sampled_from(["", "f" * 64, "F" * 64, "0" * 64]),
            st.text(_HEX, min_size=64, max_size=64),
        ),
        max_size=40,
    ),
    st.data(),
)
def test_digest_prefixes_match_scalar_loop(values, data):
    """The vectorized 64-bit digest prefixes equal ``int(d[:16], 16)`` per
    row (0 for null and empty) over short, upper-case and all-``f``
    values, on whole and sliced arrays, and their wrapped sum is
    ``combine_digests``."""
    arr = pa.array(values, pa.string())
    start = data.draw(st.integers(0, len(values)))
    stop = data.draw(st.integers(start, len(values)))
    for got, want in (
        (arr, values),
        (arr.slice(start, stop - start), values[start:stop]),
        (pa.chunked_array([arr.slice(0, start), arr.slice(start)]), values),
    ):
        expected = [ref.digest_prefix(d) for d in want]
        assert mf.digest_prefixes(got).tolist() == expected
        assert mf.combine_digests(got) == "{:016x}".format(sum(expected) & writer._U64)


@pytest.mark.parametrize("bad", ["xyz", "0x12", " 12", "12\u00e9", "g" * 64])
def test_digest_prefixes_reject_non_hex(bad):
    with pytest.raises(ValueError):
        mf.digest_prefixes(pa.array(["ab", bad]))


@st.composite
def _stat_partials(draw):
    """1-24 STATS_SCHEMA partial blocks (some empty) over <= 40 partitions,
    with sums drawn anywhere in uint64 and near 2^64, so folds wrap."""
    n_partitions = draw(st.integers(1, 40))
    sums = st.one_of(st.integers(0, writer._U64), st.integers(writer._U64 - 1000, writer._U64))
    blocks = []
    for _ in range(draw(st.integers(1, 24))):
        rows = draw(st.lists(
            st.tuples(st.integers(0, n_partitions - 1), st.integers(1, 1000), sums, sums),
            max_size=8,
        ))
        cols = list(zip(*rows)) if rows else [[], [], [], []]
        blocks.append(pa.table([list(c) for c in cols], schema=writer.STATS_SCHEMA))
    return n_partitions, blocks


@settings(max_examples=25, deadline=None)
@given(_stat_partials())
def test_fold_partials_matches_python_fold(ray_session, case):
    """The driver-side fold equals a pure-Python fold: one row per
    partition present, in partition order, sums wrapping mod 2^64."""
    n_partitions, blocks = case
    want: dict = {}
    for block in blocks:
        for r in block.to_pylist():
            n, ks, ds = want.get(r["partition_id"], (0, 0, 0))
            want[r["partition_id"]] = (
                n + r["n_rows"],
                (ks + r["key_sum"]) & writer._U64,
                (ds + r["digest_sum"]) & writer._U64,
            )
    got = writer.fold_partials(ray.data.from_arrow(blocks), n_partitions)
    assert [r["partition_id"] for r in got] == sorted(want)
    assert {r["partition_id"]: (r["n_rows"], r["key_sum"], r["digest_sum"]) for r in got} == want


def _crc32_key_hash(table, keys):
    """The layout before ``key_hash``: crc32 of each key's ``str()``."""
    import zlib

    (key,) = keys
    return np.array(
        [zlib.crc32(str(v).encode("utf-8")) for v in table.column(key).to_pylist()], np.uint64
    )


def _commit_crc32_layout(monkeypatch, tbl, out, *, key, n_partitions, digest=None):
    """Write and commit ``tbl`` as the crc32 layout did (on the driver),
    with manifest entries in that layout's format: no ``partition_hash``.
    Then drop every other committed partition, as a run killed before
    committing them leaves it.  Returns the partition ids still committed."""
    import json
    import shutil

    with monkeypatch.context() as m:
        m.setattr(writer, "key_hash", _crc32_key_hash)
        pids = _crc32_key_hash(tbl, [key]) % np.uint64(n_partitions)
        partial = pa.concat_tables(
            writer.write_partition(
                tbl.filter(pa.array(pids == p)), output_dir=out, key=key,
                n_partitions=n_partitions, digest=digest,
            )
            for p in np.unique(pids)
        )
    pids = partial.column("partition_id").to_pylist()
    for r in partial.to_pylist():
        mf.commit_partition(
            out,
            r["partition_id"],
            n_docs=r["n_rows"],
            input_digest=writer.digest_hex(r["key_sum"]),
            output_digest=writer.digest_hex(r["digest_sum" if digest else "key_sum"]),
            n_partitions=n_partitions,
        )
        path = os.path.join(mf.manifest_dir(out), "part-{:06d}.json".format(r["partition_id"]))
        with open(path) as f:
            entry = json.load(f)
        del entry["partition_hash"]
        with open(path, "w") as f:
            json.dump(entry, f)
    for pid in pids[::2]:
        shutil.rmtree(os.path.join(out, "partition_id={}".format(pid)))
        mf.invalidate_partition(out, pid)
    assert len(mf.completed_partitions(out)) == len(pids[1::2]) > 0
    return pids[1::2]


def test_output_of_another_partition_hash_is_rewritten(ray_session, tmp_path, monkeypatch):
    """A partly written output from the crc32 layout (entries without
    ``partition_hash``) is never trusted: ``write_partitioned`` and a
    resumed ``run_extraction`` both rewrite all of it, and every input row
    comes back exactly once under the new layout."""
    from ocr_ray import synth
    from ocr_ray.pipelines import extraction as ex
    from ocr_ray.stages.extract import extract_batch

    out = str(tmp_path / "w")
    _commit_crc32_layout(monkeypatch, _docs_table(), out, key="doc_id", n_partitions=8)
    r = writer.write_partitioned(_docs(), out, key="doc_id", n_partitions=8)
    assert r == {"written": 200, "skipped_partitions": 0}
    assert sorted(writer.read_partitioned(out).column("doc_id").to_pylist()) == list(range(200))
    entries = mf.completed_partitions(out, n_partitions=8)
    assert {e["partition_hash"] for e in entries.values()} == {mf.PARTITION_HASH}
    assert sum(e["n_docs"] for e in entries.values()) == 200

    out = str(tmp_path / "x")
    pages = synth.synth_corpus(40)
    _commit_crc32_layout(monkeypatch, extract_batch(pages), out,
                         key="url", n_partitions=6, digest="digest")
    stats = ex.run_extraction(pages, out, n_partitions=6)
    assert stats == {"extracted": 40, "skipped_partitions": 0}
    urls = writer.read_partitioned(out).column("url").to_pylist()
    assert sorted(urls) == sorted(pages.column("url").to_pylist())
    assert len(set(urls)) == 40


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(max_size=12),
            st.one_of(st.just(""), st.just("f" * 64), st.text("0123456789abcdef", min_size=64, max_size=64)),
        ),
        max_size=40,
    ),
    st.integers(1, 9),
)
def test_write_partition_partial_equals_sort_block(tmp_path_factory, rows, n_partitions):
    """write_partition folds its one partition with plain wrapping sums (no
    sort); the partial equals what _sort_block's sort-and-reduceat gives
    for the same rows, on each one-partition group of a random block."""
    out = str(tmp_path_factory.mktemp("parts"))
    batch = pa.table({
        "url": pa.array([u for u, _ in rows], pa.string()),
        "digest": pa.array([d for _, d in rows], pa.string()),
    })
    pids = [ref.partition_id(u, n_partitions) for u, _ in rows]
    for pid in sorted(set(pids)):
        group = batch.filter(pa.array([p == pid for p in pids]))
        got = writer.write_partition(group, output_dir=out, key="url",
                                     n_partitions=n_partitions, digest="digest")
        assert got.equals(writer._sort_block(group, "url", n_partitions, "digest")[2])
        no_digest = writer.write_partition(group, output_dir=out, key="url",
                                           n_partitions=n_partitions)
        assert no_digest.equals(writer._sort_block(group, "url", n_partitions)[2])
    empty = writer.write_partition(batch.slice(0, 0), output_dir=out, key="url",
                                   n_partitions=n_partitions, digest="digest")
    assert empty.equals(writer._sort_block(batch.slice(0, 0), "url", n_partitions, "digest")[2])
