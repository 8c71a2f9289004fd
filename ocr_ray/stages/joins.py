"""Join machinery beyond broadcast lookups: hash join, as-of join, windows.

The reference has no relational joins (SURVEY §2.5 — only keyed lookups);
these are the standard shapes a data-processing engine owes its users:

- :func:`hash_join` — both-sides-large equi-join: tag + union both sides,
  ONE key-bucket shuffle (``groupagg.bucketed_map_groups``), one Arrow
  ``pa.Table.join`` per bucket; :func:`auto_join` broadcasts a provably
  small right side instead.
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

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..sources.io import collect_tables
from .groupagg import bucketed_group_agg, bucketed_map_groups

#: hash_join's join types -> the Acero join verb run inside each bucket
#: (the same verbs Ray's own join operator passes to ``pa.Table.join``)
_ARROW_JOIN_VERB = {
    "inner": "inner",
    "left_outer": "left outer",
    "right_outer": "right outer",
    "full_outer": "full outer",
    "left_semi": "left semi",
    "left_anti": "left anti",
}


def _as_keys(on) -> tuple:
    """Normalize a join key spec (str | sequence of str) to a tuple."""
    return (on,) if isinstance(on, str) else tuple(on)


def _arrow_schema(ds: ray.data.Dataset) -> pa.Schema:
    """``ds``'s columns as an Arrow schema.  A pandas-block dataset maps its
    numpy dtypes; one with an object dtype (no Arrow type) is read back
    through one pyarrow map."""
    schema = ds.schema()
    if schema is None:
        raise ValueError("hash_join needs a schema on both sides; a side has none")
    if isinstance(schema.base_schema, pa.Schema):
        return schema.base_schema
    if all(isinstance(t, pa.DataType) for t in schema.types):
        return pa.schema(list(zip(schema.names, schema.types)))
    return ds.map_batches(lambda b: b, batch_format="pyarrow").schema().base_schema


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on,
    right_on=None,
    join_type: str = "inner",
) -> ray.data.Dataset:
    """Both-sides-large equi-join on the keyed-bucket shuffle.

    Both sides are tagged into one column layout — the join keys under
    the LEFT names (right keys cast to the left key types), each side's
    payload columns typed from its ``schema()`` and typed nulls on the
    other side's rows (right payloads ride as ``__r:<name>`` so equal
    names cannot collide), and an int8 ``__side`` — unioned, and
    bucketed on the keys by :func:`~ocr_ray.stages.groupagg.bucketed_map_groups`.
    Each bucket splits back into its left and right tables (a side with no
    rows there is its empty typed table) and runs ONE
    ``pa.Table.join(keys=on, right_keys=right_on, join_type=<verb>)``: the
    Acero call Ray's join operator makes per partition, so output columns
    (key coalesced under the left name; ``right_outer`` keeps the right
    key) and null-key semantics (a null key matches nothing) are Acero's.

    ``join_type`` is one of inner / left_outer / right_outer / full_outer /
    left_semi / left_anti.  Contract, as for :func:`asof_join`: a bucket's
    rows from both sides fit in one task, so a hot key's rows sit in one
    task; salt hot keys upstream if that does not hold."""
    verb = _ARROW_JOIN_VERB[join_type]
    lkeys = list(_as_keys(on))
    rkeys = list(_as_keys(right_on)) if right_on else lkeys
    ls, rs = _arrow_schema(left), _arrow_schema(right)
    rpay = [n for n in rs.names if n not in rkeys]
    payload = pa.schema(
        [ls.field(k) for k in lkeys]
        + [f for f in ls if f.name not in lkeys]
        + [rs.field(n).with_name("__r:" + n) for n in rpay]
    )
    layout = payload.append(pa.field("__side", pa.int8()))
    # payload column -> source column, per side
    lsrc = {n: n for n in ls.names}
    rsrc = {**dict(zip(lkeys, rkeys)), **{"__r:" + n: n for n in rpay}}

    def tagger(side: int, src: dict):
        def tag(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            if not n:  # also covers schema-less empty upstream blocks
                return layout.empty_table()
            cols = [
                batch.column(src[f.name]).cast(f.type)
                if f.name in src
                else pa.nulls(n, f.type)
                for f in payload
            ]
            return pa.table(cols, schema=payload).append_column(
                "__side", pa.array(np.full(n, side, np.int8))
            )

        return tag

    def per_bucket(g: pa.Table) -> pa.Table:
        is_left = pc.equal(g.column("__side"), 0)
        lt = g.filter(is_left).select(ls.names)
        rt = (
            g.filter(pc.invert(is_left))
            .select(lkeys + ["__r:" + n for n in rpay])
            .rename_columns(rkeys + rpay)
            .select(rs.names)
        )
        return lt.join(rt, keys=lkeys, right_keys=rkeys, join_type=verb)

    both = left.map_batches(tagger(0, lsrc), batch_format="pyarrow").union(
        right.map_batches(tagger(1, rsrc), batch_format="pyarrow")
    )
    return bucketed_map_groups(both, lkeys, per_bucket)


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
    tbls = collect_tables(ds)
    return pa.concat_tables(tbls).combine_chunks() if tbls else None


def _combined_key(tbl, keys: tuple):
    """One vectorized lookup key per row: the single column for 1-key
    joins; for composite keys, the unit-separated string fold of the
    stringified columns (collision-free for sep-free values; entirely
    Arrow kernels, no Python rows)."""
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
    otherwise :func:`hash_join`, one Arrow join per bucket of the
    keyed-bucket shuffle (every other join type always takes it).  Right
    keys must be unique (dimension semantics) for the broadcast path —
    the standard broadcast-vs-shuffle planner rule.  ``on`` / ``right_on`` accept a
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
    blocklist, an id allowlist, a seen-set).  A large key set runs one
    :func:`hash_join` against the distinct keys with ``left_semi`` or
    ``left_anti`` (a NULL left key matches nothing, so anti keeps it)."""
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

    return hash_join(
        left,
        distinct,
        on=on,
        right_on=key,
        join_type="left_anti" if anti else "left_semi",
    )


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
