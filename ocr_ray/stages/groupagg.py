"""The keyed-bucket shuffle (:func:`bucketed_map_groups`) and the two
grouped operators built on it: the bucketed vectorized group-aggregate
(:func:`bucketed_group_agg`) for HIGH-CARDINALITY keys and the grouped
top-k (:func:`group_topk`).

Ray's native ``groupby().aggregate()`` pays a per-GROUP overhead (~30 us
per group measured on this box: a 225k-row count over 215k distinct keys
costs 7.6 s regardless of key type — BASELINE.md round-4 finding #4).
That is invisible at bounded group counts (vocab, langs, buckets) and
fatal at data-proportional ones (content hashes, doc ids: 10^10 groups at
100 TB = ~80 CPU-hours of pure overhead).

This stage keeps the same all-to-all but reduces each partition with ONE
lexsort + run-length/``reduceat`` numpy kernel per coarse bucket — the
same medicine as the extraction path's assemble_bucket lesson (one Python
call per bucket, never per key).  Supported: 1-2 integer or string key
columns; count, sum over integer or float values, min/max over integer,
float or string values.  Exactness: bitwise — the kernel is a
deterministic regrouping of the same rows.

:func:`group_topk` is ``row_number() OVER (PARTITION BY keys ORDER BY
...) <= k`` on the same shuffle: one :func:`topk_rows` (one Arrow sort,
one adjacent-key scan) per block as the map-side partial, then one per
bucket.

:func:`value_histogram` is the per-group (value, count) histogram that
exact per-group ranks and quantiles walk on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.strhash import key_hash
from ..sources.io import collect_tables


def bucket_ids(table: pa.Table, keys: list[str], n_buckets: int) -> np.ndarray:
    """Hash-bucket id in ``[0, n_buckets)`` per row of ``table``:
    :func:`~ocr_ray.functions.strhash.key_hash` of ``keys`` mod
    ``n_buckets`` (integer, string and binary keys)."""
    return (key_hash(table, keys) % np.uint64(n_buckets)).astype(np.int64)


def bucketed_map_groups(
    ds: ray.data.Dataset,
    keys: list[str],
    fn,
    *,
    batch_format: str = "pyarrow",
    n_buckets: int | None = None,
    pre_shuffle_blocks: int | None = None,
) -> ray.data.Dataset:
    """THE keyed-bucket shuffle: every row of one key value lands in one
    bucket, and ``fn`` runs once per BUCKET (never once per key) on all of
    that bucket's rows in ``batch_format`` — ``fn`` groups by exact key
    equality itself, so the bucket choice cannot change a result.

    One pyarrow map appends ``__bucket`` (:func:`bucket_ids`), an optional
    ``repartition(pre_shuffle_blocks, shuffle=False)`` coalesces small
    inputs (the all-to-all pays a fixed cost per input block), then one
    ``groupby("__bucket").map_groups``; ``fn`` never sees ``__bucket``.
    Per-key calls were measured ~10x slower than the shuffle itself.
    ``n_buckets`` defaults to 8 per CPU (at least 32).

    A pyarrow result of ``fn`` is returned as ``combine_chunks()``: a
    kernel that concatenates one small table per key group would otherwise
    hand the next shuffle thousands of chunks per column (measured 20x
    slower there than the same rows in one chunk).  A pandas result is
    returned unchanged."""
    from ..sources.io import cpu_count

    n = n_buckets or 8 * max(4, cpu_count())

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket", pa.array(bucket_ids(batch, keys, n), pa.int64())
        )

    def call(group):
        if batch_format == "pandas":
            return fn(group.drop(columns=["__bucket"]))
        return fn(group.drop_columns(["__bucket"])).combine_chunks()

    bucketed = ds.map_batches(tag, batch_format="pyarrow")
    if pre_shuffle_blocks:
        bucketed = bucketed.repartition(pre_shuffle_blocks, shuffle=False)
    return bucketed.groupby("__bucket").map_groups(call, batch_format=batch_format)


def topk_rows(
    tbl: pa.Table, keys: list[str], order_by: list[tuple[str, str]], k: int
) -> pa.Table:
    """``row_number() OVER (PARTITION BY keys ORDER BY order_by) <= k`` over
    one table: the kept rows sorted by ``keys`` then ``order_by`` (Arrow
    ``sort_by`` pairs such as ``("score", "descending")``), plus an int64
    ``rank`` column, the 1-based position in the group.

    One Arrow sort of the row indices; group starts come from a null-aware
    comparison of adjacent key values, so a null key is its own group
    (never merged with ``''`` or ``0``).  Only the kept rows are gathered.
    An empty table gives its typed empty table plus ``rank``."""
    idx = pc.sort_indices(
        tbl, sort_keys=[(c, "ascending") for c in keys] + list(order_by)
    )
    n = len(idx)
    new = np.zeros(n, bool)
    new[:1] = True
    if n > 1:
        sk = tbl.select(keys).take(idx)
        for c in keys:
            col = sk.column(c)
            a, b = col.slice(1), col.slice(0, n - 1)
            same = pc.or_kleene(pc.equal(a, b), pc.and_(pc.is_null(a), pc.is_null(b)))
            new[1:] |= ~np.asarray(pc.fill_null(same, False))
    pos = np.arange(n, dtype=np.int64)
    rank = pos - np.maximum.accumulate(np.where(new, pos, 0)) + 1
    keep = rank <= k
    return tbl.take(idx.filter(pa.array(keep))).append_column(
        "rank", pa.array(rank[keep], pa.int64())
    )


def group_topk(
    ds: ray.data.Dataset,
    keys: list[str],
    order_by: list[tuple[str, str]],
    k: int,
) -> ray.data.Dataset:
    """THE grouped top-k: ``row_number() OVER (PARTITION BY keys ORDER BY
    order_by) <= k`` over a Dataset, as ``ds``'s columns plus ``rank``.

    :func:`topk_rows` runs once per block as the map-side partial, so at
    most ``k`` rows per (block, key) enter the keyed-bucket shuffle
    (:func:`bucketed_map_groups` on ``keys``), and once per bucket to
    resolve — a hot key never lands as its whole row set in one task.
    The result is a total order only when ``order_by`` ends in a unique
    column.  Like every ``map_groups`` output, a bucket with no rows comes
    back as a block with no schema (Ray runs no UDF on an empty block)."""

    def partial(batch: pa.Table) -> pa.Table:
        return topk_rows(batch, keys, order_by, k).drop_columns(["rank"])

    return bucketed_map_groups(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None),
        keys,
        lambda bucket: topk_rows(bucket, keys, order_by, k),
    )


def bucketed_group_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str | None]],
    *,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """GROUP BY ``keys`` (1-2 int64 columns) computing ``aggs`` — a dict of
    ``out_col -> (op, src_col)`` with op in count/min/max/sum (src_col is
    None for count).  One shuffle over ``n_buckets`` coarse groups, one
    vectorized kernel per bucket.

    min/max also work on STRING value columns (r5): the kernel
    dictionary-encodes the bucket's values, ranks the (small) dictionary
    once with one Arrow sort, and reduceats over the rank lanes — still
    no per-group Python.

    Key columns may be STRING too (r5): the shuffle buckets on a
    vectorized 64-bit content hash (collisions only co-locate extra
    groups — harmless), and the kernel groups by exact string equality
    via dictionary codes, so there is NO collision risk in the result.
    Null string keys group with '' (no call site has null keys)."""
    if not 1 <= len(keys) <= 2:
        raise ValueError("bucketed_group_agg supports 1 or 2 key columns")
    for out, (op, src) in aggs.items():
        if op not in ("count", "min", "max", "sum"):
            raise ValueError(f"unsupported op {op!r} for {out!r}")
        if (src is None) != (op == "count"):
            raise ValueError(f"{out!r}: src_col must be None iff op is count")

    def key_lane(tbl: pa.Table, name: str):
        """(int64 sort lane, dictionary-or-None) for a key column: equal
        lane values <=> equal keys within this bucket's rows."""
        col = tbl.column(name)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            enc = pc.fill_null(col, "").dictionary_encode()
            return np.asarray(enc.indices, dtype=np.int64), enc.dictionary
        return col.to_numpy(zero_copy_only=False), None

    def emit_key(lane_vals: np.ndarray, dictionary) -> pa.Array:
        if dictionary is not None:
            return dictionary.take(pa.array(lane_vals, pa.int64()))
        return pa.array(lane_vals.astype(np.int64), pa.int64())

    def kernel(tbl: pa.Table) -> pa.Table:
        k0, d0 = key_lane(tbl, keys[0])
        if len(keys) == 2:
            k1, d1 = key_lane(tbl, keys[1])
            order = np.lexsort((k1, k0))
            a, b = k0[order], k1[order]
            new = np.empty(len(a), bool)
            new[0] = True
            new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        else:
            order = np.argsort(k0, kind="stable")
            a = k0[order]
            b = None
            new = np.empty(len(a), bool)
            new[0] = True
            new[1:] = a[1:] != a[:-1]
        starts = np.flatnonzero(new)
        out = {keys[0]: emit_key(a[starts], d0)}
        if b is not None:
            out[keys[1]] = emit_key(b[starts], d1)
        for name, (op, src) in aggs.items():
            if op == "count":
                v = np.diff(np.append(starts, len(a)))
            else:
                src_col = tbl.column(src)
                if isinstance(src_col, pa.ChunkedArray):
                    src_col = src_col.combine_chunks()
                if pa.types.is_string(src_col.type) or pa.types.is_large_string(
                    src_col.type
                ):
                    if op == "sum":
                        raise ValueError(f"{name!r}: cannot sum a string column")
                    # string min/max without per-group Python: dictionary-
                    # encode, rank the (small) dictionary by one Arrow
                    # sort, reduceat over the ranks, map back
                    enc = src_col.dictionary_encode()
                    d = enc.dictionary
                    sort_idx = np.asarray(pc.sort_indices(d), dtype=np.int64)
                    rank = np.empty(len(d), np.int64)
                    rank[sort_idx] = np.arange(len(d), dtype=np.int64)
                    codes = rank[np.asarray(enc.indices, dtype=np.int64)][order]
                    fn = (
                        np.minimum.reduceat if op == "min" else np.maximum.reduceat
                    )
                    won = fn(codes, starts)
                    out[name] = d.take(
                        pa.array(sort_idx[won], pa.int64())
                    )
                    continue
                col = src_col.to_numpy(zero_copy_only=False)[order]
                fn = {
                    "min": np.minimum.reduceat,
                    "max": np.maximum.reduceat,
                    "sum": np.add.reduceat,
                }[op]
                v = fn(col, starts)
            if op != "count" and np.issubdtype(v.dtype, np.floating):
                # min/max over floats are exact and order-independent;
                # keep the dtype instead of silently truncating to int
                out[name] = pa.array(v.astype(np.float64), pa.float64())
            else:
                out[name] = pa.array(v.astype(np.int64), pa.int64())
        return pa.table(out)

    return bucketed_map_groups(ds, keys, kernel, n_buckets=n_buckets)


def value_histogram(ds: ray.data.Dataset, group: str, value: str) -> dict:
    """``{g: (values, counts)}``: each ``group`` value's sorted distinct
    ``value``s (an integer column) and their row counts, keys in sorted
    order — the value-histogram behind exact per-group order statistics.

    One lexsort + run-length count per batch map-side, one groupby-sum
    shuffle over the distinct (group, value) pairs, and the driver holds
    only those pairs: bounded by #groups x #distinct values, never by row
    count."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(batch.column(group).combine_chunks())
        g = np.asarray(enc.indices, dtype=np.int64)
        v = batch.column(value).to_numpy().astype(np.int64)
        order = np.lexsort((v, g))
        g, v = g[order], v[order]
        new = np.ones(len(g), bool)
        new[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
        starts = np.flatnonzero(new)
        return pa.table({
            group: enc.dictionary.take(pa.array(g[starts])),
            value: pa.array(v[starts]),
            "cnt": pa.array(np.diff(np.append(starts, len(g)))),
        })

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group, value])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )
    parts = collect_tables(hist)
    if not parts:
        return {}
    tbl = pa.concat_tables(parts).sort_by([(group, "ascending"), (value, "ascending")])
    keys = tbl.column(group).to_pylist()
    vals = tbl.column(value).to_numpy().astype(np.int64)
    cnts = tbl.column("cnt").to_numpy().astype(np.int64)
    starts = [i for i in range(len(keys)) if i == 0 or keys[i] != keys[i - 1]]
    return {
        keys[a]: (vals[a:b], cnts[a:b]) for a, b in zip(starts, starts[1:] + [len(keys)])
    }


def tree_merge_partials(
    parts: ray.data.Dataset,
    merge_batch,
    *,
    n_buckets: int = 32,
) -> list[dict]:
    """In-cluster tree merge of mergeable-sketch partial ROWS (Bloom
    bitsets, HLL registers, Misra-Gries summaries, KLL sketches — any
    associative/commutative combine).

    The anti-pattern this replaces (VERDICT r4 #4): ``take_all()`` over
    one-partial-per-batch rows lands O(#batches) partials on the driver —
    at 10^6 batches the 128 KiB Bloom case alone is ~130 GB through one
    process.  Here:

    - level 1 folds every partial INSIDE its block (``batch_size=None``,
      no shuffle) -> one row per block;
    - level 2 hashes the per-block rows into ``n_buckets`` groups
      (content-hash bucket — deterministic, no RNG) and folds each group
      in one ``map_groups`` task.

    ``merge_batch(tbl) -> tbl`` must fold any number of partial rows into
    exactly one.  Returns the <= ``n_buckets`` merged rows; the driver
    finishes with a bounded fold, never an O(#batches) loop."""
    import pickle
    import zlib

    l1 = parts.map_batches(merge_batch, batch_format="pyarrow", batch_size=None)

    def content_bucket(batch: pa.Table) -> pa.Table:
        bks = [
            zlib.crc32(pickle.dumps(batch.slice(i, 1).to_pydict())) % n_buckets
            for i in range(batch.num_rows)
        ]
        return batch.append_column("__b", pa.array(bks, pa.int64()))

    def fold(group: pa.Table) -> pa.Table:
        return merge_batch(group.drop_columns(["__b"]))

    merged = (
        l1.map_batches(content_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(fold, batch_format="pyarrow")
    )
    return [r for r in merged.take_all() if r]
