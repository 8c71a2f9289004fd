"""Join machinery beyond broadcast lookups: hash join, as-of join, windows.

The reference has no relational joins (SURVEY §2.5 — only keyed lookups);
these are the standard shapes a data-processing engine owes its users:

- :func:`hash_join` — both-sides-large equi-join via ``Dataset.join``
  (hash-partitioned on the key; ``num_partitions`` is the shuffle fan-out).
- :func:`asof_join` — sort-merge as-of: tag + union both sides, ONE
  key-bucket shuffle (``groupagg.bucketed_map_groups``), one vectorized
  ``pd.merge_asof(by=key)`` per bucket (ray_guide 'As-of / range join'
  pattern).  Partitioning assumption: one bucket's rows fit in a group
  task; salt hot keys upstream if not.
- :func:`running_window` — per-key ordered cumulative aggregates over the
  same key-bucket shuffle (sort inside the bucket, never globally).
- :func:`bucketed_prefix_sum` — global running total over ordered RANGE
  buckets (not hashed: the offsets need bucket order).
"""

from __future__ import annotations

import pandas as pd
import ray
import ray.data

from .groupagg import bucketed_map_groups

# Target bytes per join partition: small enough that a partition's build side
# fits a worker heap, large enough that task overhead stays negligible.
_JOIN_PARTITION_BYTES = 128 * 1024 * 1024


def default_num_partitions(*datasets: ray.data.Dataset) -> int:
    """Shuffle fan-out scaled to the cluster and the input size.

    ``max(cluster CPUs, total_bytes / 128 MiB)`` (capped at 4096): on one
    node every core gets a partition; at 100 TB the byte term dominates and
    keeps partitions bounded.  Falls back to CPUs when Ray Data can't
    estimate size (derived datasets before execution).
    """
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    cpus = max(2, cpus)
    size = 0
    all_known = True
    for ds in datasets:
        try:
            sb = ds.size_bytes()
        except Exception:
            sb = None
        if sb:
            size += sb
        else:
            all_known = False
    by_bytes = -(-size // _JOIN_PARTITION_BYTES) if size else 0
    wide = min(4096, max(cpus, by_bytes))
    if not all_known:
        return wide
    # Every side's size is KNOWN (parquet metadata / materialized blocks):
    # the join's per-partition fixed cost (~0.1 s of aggregator-actor setup
    # per partition, measured) dominates small joins, so clamp fan-out to
    # ~8 MiB per partition — a 15k-row dimension join plans 2 partitions
    # instead of #CPUs, while anything over cpus*8MiB keeps `wide`.
    return max(2, min(wide, -(-size // (8 * 1024 * 1024))))


def _as_keys(on) -> tuple:
    """Normalize a join key spec (str | sequence of str) to a tuple."""
    return (on,) if isinstance(on, str) else tuple(on)


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on,
    right_on=None,
    join_type: str = "inner",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    if num_partitions is None:
        num_partitions = default_num_partitions(left, right)
    return left.join(
        right,
        join_type=join_type,
        num_partitions=num_partitions,
        on=_as_keys(on),
        right_on=_as_keys(right_on) if right_on else None,
    )


# A side at most this large is broadcast (ray.put once, zero-copy object
# store reads in every task) instead of shuffled.
BROADCAST_BYTES = 64 * 1024 * 1024


def _known_size(ds: ray.data.Dataset) -> int | None:
    try:
        return ds.size_bytes()
    except Exception:
        return None


def _collect_small(ds: ray.data.Dataset):
    """Small-by-contract dataset -> one Arrow table (schema-less empty
    blocks from upstream map_groups are dropped)."""
    import pyarrow as pa

    tbls = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tbls).combine_chunks() if tbls else None


def _combined_key(tbl, keys: tuple):
    """One vectorized lookup key per row: the single column for 1-key
    joins; for composite keys, the unit-separated string fold of the
    stringified columns (collision-free for sep-free values; entirely
    Arrow kernels, no Python rows)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if len(keys) == 1:
        col = tbl.column(keys[0])
        return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    parts = [pc.cast(tbl.column(k), pa.string()) for k in keys]
    out = pc.binary_join_element_wise(*parts, "\x1f")
    return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out


def broadcast_lookup_join(
    left: ray.data.Dataset,
    right_tbl,
    *,
    on,
    right_on=None,
    join_type: str = "inner",
) -> ray.data.Dataset:
    """Broadcast-hash-join with a UNIQUE-key right side (dimension join):
    the right table is ray.put once, every left batch resolves matches via
    a vectorized ``pc.index_in`` + ``take`` — no shuffle, no per-row
    Python.  Composite keys fold to one lookup lane via
    :func:`_combined_key`."""
    import pyarrow as pa
    import pyarrow.compute as pc

    lkeys = _as_keys(on)
    rkeys = _as_keys(right_on) if right_on else lkeys
    ref = ray.put(right_tbl.combine_chunks())

    def attach(batch: pa.Table) -> pa.Table:
        rt = ray.get(ref)
        idx = pc.index_in(
            _combined_key(batch, lkeys), value_set=_combined_key(rt, rkeys)
        )
        if join_type == "inner":
            mask = pc.is_valid(idx)
            batch = batch.filter(mask)
            idx = idx.filter(mask)
        taken = rt.take(idx)  # null index -> null row (left_outer fill)
        for name in rt.column_names:
            if name not in rkeys:
                batch = batch.append_column(name, taken.column(name))
        return batch

    return left.map_batches(attach, batch_format="pyarrow")


def broadcast_fetch_join(
    small_tbl,
    stream: ray.data.Dataset,
    *,
    on: str,
    stream_on: str | None = None,
) -> ray.data.Dataset:
    """Broadcast-hash-join where the STREAM side has unique keys and the
    broadcast side fetches its match: each stream batch emits the small
    rows whose key falls in that batch (every key appears in exactly one
    batch, so the union over batches is the exact inner join).  Used to
    fetch corpus payloads for a small candidate set without shuffling the
    corpus."""
    import pyarrow as pa
    import pyarrow.compute as pc

    key = stream_on or on
    ref = ray.put(small_tbl.combine_chunks())

    def emit(batch: pa.Table) -> pa.Table:
        st = ray.get(ref)
        idx = pc.index_in(st.column(on), value_set=batch.column(key))
        mask = pc.is_valid(idx)
        out = st.filter(mask)
        taken = batch.take(idx.filter(mask))
        for name in batch.column_names:
            if name != key:
                out = out.append_column(name, taken.column(name))
        return out

    return stream.map_batches(emit, batch_format="pyarrow")


def auto_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on,
    right_on=None,
    join_type: str = "inner",
    broadcast_limit: int = BROADCAST_BYTES,
) -> ray.data.Dataset:
    """Join planning by size: broadcast the right side when its size is
    KNOWN (parquet metadata / materialized blocks) and under the limit;
    hash-partitioned ``Dataset.join`` otherwise.  Right keys must be unique
    (dimension semantics) for the broadcast path — the standard
    broadcast-vs-shuffle planner rule.  ``on`` / ``right_on`` accept a
    single column name or a sequence (composite keys) on both paths."""
    rb = _known_size(right)
    if (
        rb is not None
        and rb <= broadcast_limit
        and join_type in ("inner", "left_outer")
    ):
        rt = _collect_small(right)
        if rt is not None:
            return broadcast_lookup_join(
                left, rt, on=on, right_on=right_on, join_type=join_type
            )
    return hash_join(left, right, on=on, right_on=right_on, join_type=join_type)


def semi_anti_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    right_on: str | None = None,
    anti: bool = False,
    broadcast_limit: int = BROADCAST_BYTES,
) -> ray.data.Dataset:
    """EXISTS (semi) / NOT EXISTS (anti) filter of ``left`` by key
    membership in ``right`` — the join variants a filter pushes through
    instead of materializing a join payload.

    Size-planned like auto_join: the DISTINCT right key set is computed
    distributed (groupby aggregate); when provably small it broadcasts as
    a value set and every left batch filters with one vectorized
    ``pc.is_in`` (no shuffle of ``left`` at all — the common case: a
    blocklist, an id allowlist, a seen-set).  A large key set falls back
    to a hash-partitioned left_outer join against the distinct keys plus
    a marker column, filtering on marker presence."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .groupagg import bucketed_group_agg

    key = right_on or on
    # the distinct key set is RIGHT-TABLE-cardinality: bucketed fold (r5);
    # int64 and string keys take the lexsort/reduceat kernel, anything
    # else falls back to the native aggregate
    ktype = right.schema().base_schema.field(key).type
    if (
        pa.types.is_integer(ktype)
        or pa.types.is_string(ktype)
        or pa.types.is_large_string(ktype)
    ):
        distinct = (
            bucketed_group_agg(right, [key], {"__n": ("count", None)})
            .map_batches(lambda b: b.select([key]), batch_format="pyarrow")
            .materialize()
        )
    else:
        from ray.data.aggregate import Count

        distinct = (
            right.groupby(key)
            .aggregate(Count(alias_name="__n"))
            .map_batches(lambda b: b.select([key]), batch_format="pyarrow")
            .materialize()
        )
    size = distinct.size_bytes()
    if size is not None and size <= broadcast_limit:
        tbl = _collect_small(distinct)
        vals_ref = ray.put(tbl.column(key).combine_chunks() if tbl is not None else None)

        def filt(batch: pa.Table) -> pa.Table:
            vs = ray.get(vals_ref)
            if vs is None:  # empty right: semi keeps nothing, anti everything
                mask = pa.array([anti] * batch.num_rows, pa.bool_())
            else:
                mask = pc.is_in(batch.column(on), value_set=vs)
                if anti:
                    mask = pc.invert(mask)
                # NULL left keys: EXISTS is false, NOT EXISTS is true (the
                # subquery matches nothing) — is_in yields null there, and
                # filter would silently DROP the row either way
                mask = pc.fill_null(mask, anti)
            return batch.filter(mask)

        return left.map_batches(filt, batch_format="pyarrow")

    marker = distinct.map_batches(
        lambda b: b.append_column(
            "__hit", pa.array([1] * b.num_rows, pa.int8())
        ),
        batch_format="pyarrow",
    )
    joined = hash_join(left, marker, on=on, right_on=key, join_type="left_outer")

    def keep(batch: pa.Table) -> pa.Table:
        hit = pc.is_valid(batch.column("__hit"))
        return batch.filter(pc.invert(hit) if anti else hit).drop_columns(["__hit"])

    return joined.map_batches(keep, batch_format="pyarrow")


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_key: str,
    left_ts: str,
    left_keep: list[str],
    right_key: str,
    right_ts: str,
    out_col: str,
) -> ray.data.Dataset:
    """For each left row, the ts of the latest right row with
    right.ts <= left.ts on the same key -> column ``out_col`` (NaT when no
    match).

    Implementation: both sides mapped to one common (key, ts, side, keep...)
    layout, union, ONE groupby(key-BUCKET) shuffle, and ONE vectorized
    ``pd.merge_asof(..., by="key")`` per bucket task — neither side is
    materialized on the driver, and pandas is invoked once per bucket with
    every key handled inside the single sort-merge pass.
    """
    # arrow types of the keep columns, so right rows ship NULLS (validity
    # bitmap only) instead of filled constants across the shuffle
    lschema = left.schema()
    keep_types = {
        n: t for n, t in zip(lschema.names, lschema.types) if n in left_keep
    }

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"key": df[left_key].to_numpy(), "ts": df[left_ts].to_numpy()})
        out["__side"] = "L"
        for c in left_keep:
            out[c] = df[c].astype(pd.ArrowDtype(keep_types[c]))
        return out

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"key": df[right_key].to_numpy(), "ts": df[right_ts].to_numpy()})
        out["__side"] = "R"
        for c in left_keep:
            out[c] = pd.Series(
                [None] * len(out), dtype=pd.ArrowDtype(keep_types[c]), index=out.index
            )
        return out

    both = left.map_batches(tag_left, batch_format="pandas").union(
        right.map_batches(tag_right, batch_format="pandas")
    )

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # ONE vectorized merge_asof(by="key") covers every key in the
        # bucket — a per-key Python loop here was the last per-key cost in
        # the operator (minor at 150 users, real at 10^8 keys per bucket)
        l = group[group["__side"] == "L"].sort_values("ts", kind="stable")
        if not len(l):
            # dtype-preserving empty frame (object-dtype empties would break
            # cross-block schema unification)
            empty = group.drop(columns=["__side"]).iloc[0:0].copy()
            empty[out_col] = pd.Series([], dtype=group["ts"].dtype)
            return empty
        r = group[group["__side"] == "R"].sort_values("ts", kind="stable")
        rr = pd.DataFrame(
            {
                "key": r["key"].to_numpy(),
                "ts": r["ts"].to_numpy(),
                out_col: r["ts"].to_numpy(),
            }
        )
        out = pd.merge_asof(l, rr, on="ts", by="key", direction="backward")
        return out.drop(columns=["__side"])

    return bucketed_map_groups(both, ["key"], per_bucket, batch_format="pandas")


def running_window(
    ds: ray.data.Dataset,
    *,
    key: str,
    order_by: list[str],
    value: str,
    out_col: str,
) -> ray.data.Dataset:
    """Per-key running cumulative sum ordered by ``order_by`` (ties broken
    by the full order_by tuple so the result is deterministic).  Shuffles
    by key bucket; inside each bucket one vectorized pandas
    sort + groupby(key).cumsum covers every key at once."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order_by, kind="stable")
        g[out_col] = g.groupby(key, sort=False)[value].cumsum().round(2)
        return g

    return bucketed_map_groups(ds, [key], per_bucket, batch_format="pandas")


def bucketed_prefix_sum(
    ds: ray.data.Dataset,
    *,
    key: str,
    value: str,
    out_col: str,
    bucket_size: int = 4096,
) -> ray.data.Dataset:
    """Global running total of ``value`` ordered by integer ``key`` — the
    distributed scan: bucket keys into contiguous ranges (key // bucket
    size), aggregate per-bucket totals (tiny), cumsum the offsets on the
    driver, then one map_groups per bucket adds offset + in-bucket cumsum.
    Two shuffles over small data, no global sort, no driver materialization
    of the rows.  Contract: callers size ``bucket_size`` so the BUCKET
    COUNT (key range / bucket_size) stays driver-small — at 10^12 keys that
    means bucket_size >= ~10^8, not the default."""
    import numpy as np

    import pyarrow as pa

    def range_bucket(batch: pa.Table) -> pa.Table:
        # emit ARROW blocks: the downstream native aggregate was measured
        # ~18 s/task on the same rows as pandas blocks vs ~1 s as Arrow
        b = (
            batch.column(key).to_numpy(zero_copy_only=False) // bucket_size
        ).astype("int64")
        return batch.append_column("__bucket", pa.array(b))

    # The bucketed stream feeds TWO consumers (the totals aggregate and the
    # per-bucket scan); without a checkpoint Ray re-executes the upstream
    # read + transform for each.  Materializing here is safe at scale by
    # the scan's own contract: callers project to the slim (key, value)
    # columns before calling, so what lands in the object store is ints,
    # not the corpus — and re-reading 100 TB twice is the real cost.
    bucketed = ds.map_batches(range_bucket, batch_format="pyarrow").materialize()

    from ray.data.aggregate import Sum

    totals = (
        bucketed.groupby("__bucket").aggregate(Sum(value, alias_name="__total"))
        .to_pandas()
        .sort_values("__bucket")
    )
    offsets = dict(
        zip(
            totals["__bucket"].tolist(),
            np.concatenate([[0], totals["__total"].cumsum().to_numpy()[:-1]]).tolist(),
        )
    )
    offsets_ref = ray.put(offsets)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(offsets_ref)
        g = g.sort_values(key, kind="stable")
        g[out_col] = g[value].cumsum() + offs[int(g["__bucket"].iloc[0])]
        return g.drop(columns=["__bucket"])

    return bucketed.groupby("__bucket").map_groups(per_bucket, batch_format="pandas")
