"""Relational query pipelines: hash join, as-of join, window, multimodal.

Merged into the main registry by :mod:`ocr_ray.pipelines.queries`.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Sum

from ..sources.io import read_table
from ..stages import joins
from ..stages.groupagg import bucketed_map_groups

# ---------------------------------------------------------------------------
# both-sides-large hash join (per-bucket Arrow join on the keyed-bucket shuffle)
# ---------------------------------------------------------------------------

def q_lineitem_order_join(sf_dir: str):
    """lineitem ⨝ orders on orderkey via the size-planned join (auto_join:
    orders broadcasts while provably small, the keyed-bucket hash_join at
    scale), then revenue per order priority."""
    line = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def revenue(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        return pa.table({"l_orderkey": batch.column("l_orderkey"), "revenue": rev})

    line = line.map_batches(revenue, batch_format="pyarrow")
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    joined = joins.auto_join(line, orders, on="l_orderkey", right_on="o_orderkey")
    out = joined.groupby("o_orderpriority").aggregate(
        Count(alias_name="n_items"), Sum("revenue", alias_name="revenue")
    )
    df = out.to_pandas()
    df["revenue"] = df["revenue"].round(2)
    return df


SQL_LINEITEM_ORDER_JOIN = (
    "SELECT o_orderpriority, count(*) AS n_items, "
    "round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue "
    "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
    "GROUP BY o_orderpriority"
)


# ---------------------------------------------------------------------------
# as-of join (sort-merge within key groups)
# ---------------------------------------------------------------------------

def q_asof_last_event(sf_dir: str):
    """For each order: the ts of the customer's latest event at or before
    the order date (as-of backward join orders->events on custkey=user_id).
    Orders whose customer has no prior events (or no events at all) get
    NULL."""
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    events = read_table(sf_dir, "events", columns=["user_id", "ts"])
    out = joins.asof_join(
        orders,
        events,
        left_key="o_custkey",
        left_ts="o_orderdate",
        left_keep=["o_orderkey"],
        right_key="user_id",
        right_ts="ts",
        out_col="last_event_ts",
    )

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return df[["o_orderkey", "last_event_ts"]]

    return out.map_batches(project, batch_format="pandas")


SQL_ASOF_LAST_EVENT = (
    "SELECT o_orderkey, (SELECT max(ts) FROM events e "
    "WHERE e.user_id = o.o_custkey AND e.ts <= o.o_orderdate) AS last_event_ts "
    "FROM orders o"
)


# ---------------------------------------------------------------------------
# per-key ordered window (running cumulative sum)
# ---------------------------------------------------------------------------

def q_running_total(sf_dir: str):
    """Per-user running total of event value ordered by (ts, event_id) —
    the groupby(key).map_groups window pattern."""
    events = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    out = joins.running_window(
        events, key="user_id", order_by=["ts", "event_id"], value="value",
        out_col="running_value",
    )

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return df[["event_id", "running_value"]]

    return out.map_batches(project, batch_format="pandas")


SQL_RUNNING_TOTAL = (
    "SELECT event_id, round(sum(value) OVER "
    "(PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 2) AS running_value "
    "FROM events"
)


# ---------------------------------------------------------------------------
# multimodal feature extraction (stubbed codec, real plumbing)
# ---------------------------------------------------------------------------

def q_media_features(sf_dir: str):
    """Actor-pool feature extraction over a deterministic synthetic media
    table: the raw dialect payloads (image/audio/video) plus REAL codec
    payloads — PNG / BMP (incl. palette/RLE8/32-bit) / WAV (PCM u8..32,
    float, G.711, extensible) / JPEG (baseline 4:4:4+4:2:0, progressive,
    lossless SOF3) / MJPEG-or-DIB-AVI / Matroska video, decoded by the
    from-scratch decoders in ocr_ray.codecs / jpeg / avi / mkv (exotic
    variants added r5).  Oracle-checked since r4: the oracle is a VALUES
    literal built from the golden feature rows pinned in
    tests/golden/media_features.json (regenerated only by a conscious
    ``python -m tests.regen_golden`` — the extract_archetypes pattern), so
    the driver hash-checks every decoded payload's stats, not just row
    counts."""
    import pyarrow as _pa

    from ..stages import multimodal

    table = _pa.concat_tables(
        [multimodal.synth_media(48), multimodal.synth_media_real(20),
         multimodal.synth_media_exotic(30)]
    )
    media = ray.data.from_arrow(table)
    out = multimodal.media_features(media, concurrency=2, batch_size=16)
    return out.select_columns(["media_id", "kind", "n_bytes", "mean", "std", "status"])


def q_audio_mel(sf_dir: str):
    """The reference's audio front-end as an actor-pool stage (stft.py
    TacotronSTFT + audio_processing.py normalize/trim): decode ->
    float [-1,1] -> RMS silence trim -> log-mel spectrogram, summarized
    per item (frame count, mel mean/std, hottest band).  The mel
    filterbank is built once per actor; payloads never leave the task.
    Oracle: VALUES literal from tests/golden/audio_mel.json (regen via
    ``python -m tests.regen_golden``)."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from ..stages import multimodal

    table = _pa.concat_tables(
        [multimodal.synth_media(48), multimodal.synth_media_real(20),
         multimodal.synth_media_exotic(30)]
    )
    table = table.filter(_pc.equal(table.column("kind"), "audio"))
    out = multimodal.audio_mel_features(
        ray.data.from_arrow(table), concurrency=2, batch_size=8
    )
    return out.select_columns(
        ["media_id", "sample_rate", "n_samples", "n_frames", "n_trimmed",
         "mel_mean", "mel_std", "peak_band", "status"]
    )


# ---------------------------------------------------------------------------
# range join (windowed attribution): per event, same-user events that follow
# within a fixed horizon — the interval-predicate join Ray Data lacks natively
# ---------------------------------------------------------------------------

_FOLLOW_US = 5 * 60 * 1_000_000  # 5-minute horizon, microseconds


def range_join_kernel(uid, ts, eid, horizon):
    """Per-bucket range-join kernel: for each (uid, ts) row, count same-uid
    rows with ts in (t, t + horizon].  Returns (eid sorted by (uid, ts),
    n_follow).

    Fully vectorized: sort by (uid, ts), compact each user's segment onto a
    disjoint time axis with a PER-USER offset reset (the axis grows with
    the SUM of user spans — ``seg * global_span`` would overflow int64 once
    a bucket holds ~300k users over a year of microsecond timestamps), then
    answer ALL anchors with one global searchsorted.  If even the summed
    spans approach the int64 axis (pathological), falls back to one
    searchsorted per user segment."""
    import numpy as np

    order = np.lexsort((ts, uid))
    uid, ts, eid = uid[order], ts[order], eid[order]
    n = len(ts)
    if n == 0:
        return eid, np.zeros(0, np.int64)
    seg = np.r_[0, np.cumsum(uid[1:] != uid[:-1])]
    starts = np.r_[0, 1 + np.flatnonzero(uid[1:] != uid[:-1])]
    ends = np.r_[starts[1:] - 1, n - 1]
    spans = ts[ends] - ts[starts] + horizon + 1
    if float(spans.astype(np.float64).sum()) >= float(2**62):
        n_follow = np.empty(n, np.int64)
        for s, e in zip(starts, np.r_[starts[1:], n]):
            t = ts[s:e]
            n_follow[s:e] = np.searchsorted(
                t, t + horizon, side="right"
            ) - np.searchsorted(t, t, side="right")
        return eid, n_follow
    base = np.r_[np.zeros(1, np.int64), np.cumsum(spans)[:-1]]
    adj = ts - ts[starts][seg] + base[seg]
    hi = np.searchsorted(adj, adj + horizon, side="right")
    # strict lower boundary: same-user events at the SAME timestamp are
    # not "followers" (SQL contract b.ts > a.ts) — position-based
    # `index + 1` would count one of each equal-ts pair
    lo = np.searchsorted(adj, adj, side="right")
    return eid, hi - lo


def q_events_range_join(sf_dir: str):
    """Self range join over events: for every event, count the SAME user's
    events with ts in (t, t + 5 min] — the attribution/window-join shape
    (SQL: a non-equi interval predicate on top of an equi key).

    Scale shape: ONE user-hash bucket shuffle (groupagg.bucketed_map_groups
    — one Python call per bucket, never per user), then a fully vectorized
    in-task kernel: sort by (user, ts), make per-user segments disjoint by
    offsetting ts with segment_id x (range + horizon), and answer ALL
    anchors with a single global searchsorted — no per-user loop, no
    per-anchor loop, no O(n^2) pair enumeration."""
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def per_bucket(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = pc.cast(group.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        eid = group.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        eid_sorted, n_follow = range_join_kernel(uid, ts, eid, _FOLLOW_US)
        return pa.table(
            {
                "event_id": pa.array(eid_sorted, pa.int64()),
                "n_follow": pa.array(n_follow, pa.int64()),
            }
        )

    return bucketed_map_groups(ds, ["user_id"], per_bucket)


SQL_EVENTS_RANGE_JOIN = (
    "SELECT a.event_id, count(b.event_id) AS n_follow"
    " FROM events a LEFT JOIN events b ON b.user_id = a.user_id"
    " AND b.ts > a.ts AND b.ts <= a.ts + INTERVAL 5 MINUTE"
    " GROUP BY a.event_id"
)


# ---------------------------------------------------------------------------
# semi / anti joins (EXISTS / NOT EXISTS membership filters)
# ---------------------------------------------------------------------------


def q_orders_semi_events(sf_dir: str):
    """Orders whose customer HAS events (semi-join): the membership
    filter shape — distinct event users broadcast as a value set, every
    orders batch filtered with one vectorized is_in (joins.semi_anti_join
    falls back to one ``left_semi`` hash_join when the key set is
    large)."""
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    events = read_table(sf_dir, "events", columns=["user_id"])
    return joins.semi_anti_join(orders, events, on="o_custkey", right_on="user_id")


def q_orders_anti_events(sf_dir: str):
    """Orders whose customer has NO events (anti-join) — same planner,
    inverted mask."""
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    events = read_table(sf_dir, "events", columns=["user_id"])
    return joins.semi_anti_join(
        orders, events, on="o_custkey", right_on="user_id", anti=True
    )


SQL_ORDERS_SEMI_EVENTS = (
    "SELECT o_orderkey, o_custkey FROM orders o"
    " WHERE EXISTS (SELECT 1 FROM events e WHERE e.user_id = o.o_custkey)"
)

SQL_ORDERS_ANTI_EVENTS = (
    "SELECT o_orderkey, o_custkey FROM orders o"
    " WHERE NOT EXISTS (SELECT 1 FROM events e WHERE e.user_id = o.o_custkey)"
)


# ---------------------------------------------------------------------------
# funnel analysis (ordered event-sequence matching per user)
# ---------------------------------------------------------------------------

_FUNNEL = ("view", "click", "purchase")


def q_events_funnel(sf_dir: str):
    """Per-user ordered funnel view -> click -> purchase: how many users
    reach each step with STRICTLY increasing timestamps (the classic
    behavioral-sequence operator; not expressible as a plain groupby).

    Scale shape: one user-hash-bucketed shuffle, then a vectorized
    in-task kernel per bucket — per-user first-view via min-reduceat,
    then per-type masked minima chained through np.searchsorted user
    lookups; no per-user Python, no joins.  The driver folds #buckets
    partial step-count rows."""
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def per_bucket(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy(zero_copy_only=False).astype("int64")
        ts = pc.cast(group.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        users = np.unique(uid)
        # per-user reach time of the previous step (start: -inf)
        reach = np.full(len(users), np.iinfo("int64").min, dtype="int64")
        alive = np.ones(len(users), dtype=bool)
        counts = []
        for step in _FUNNEL:
            m = et == step
            su, st = uid[m], ts[m]
            pos = np.searchsorted(users, su)
            # events of this type strictly after the user's previous reach,
            # for users still in the funnel
            ok = alive[pos] & (st > reach[pos])
            nxt = np.full(len(users), np.iinfo("int64").max, dtype="int64")
            np.minimum.at(nxt, pos[ok], st[ok])
            alive = alive & (nxt != np.iinfo("int64").max)
            reach = nxt
            counts.append(int(alive.sum()))
        return pa.table(
            {
                "step": pa.array(list(_FUNNEL), pa.string()),
                "n_users": pa.array(counts, pa.int64()),
            }
        )

    partials = bucketed_map_groups(ds, ["user_id"], per_bucket)
    return (
        partials.groupby("step")
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


SQL_EVENTS_FUNNEL = (
    "WITH a AS (SELECT user_id, min(ts) AS t FROM events"
    " WHERE event_type = 'view' GROUP BY 1),"
    " b AS (SELECT e.user_id, min(e.ts) AS t FROM events e"
    " JOIN a ON e.user_id = a.user_id AND e.ts > a.t"
    " WHERE e.event_type = 'click' GROUP BY 1),"
    " c AS (SELECT e.user_id, min(e.ts) AS t FROM events e"
    " JOIN b ON e.user_id = b.user_id AND e.ts > b.t"
    " WHERE e.event_type = 'purchase' GROUP BY 1)"
    " SELECT 'view' AS step, count(*) AS n_users FROM a"
    " UNION ALL SELECT 'click', count(*) FROM b"
    " UNION ALL SELECT 'purchase', count(*) FROM c"
)


# ---------------------------------------------------------------------------
# OLAP reshapes: pivot (long -> wide) and rollup (hierarchical totals)
# ---------------------------------------------------------------------------

_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_events_pivot(sf_dir: str):
    """Long -> wide pivot: per-user event counts, one column per event
    type.  Map-side partial pivot per batch (vectorized pandas crosstab
    shape), then ONE groupby(user) summing the already-wide partials —
    the pivot never shuffles long rows."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        wide = (
            df.groupby(["user_id", "event_type"], sort=False)
            .size()
            .unstack(fill_value=0)
            .reindex(columns=list(_EVENT_TYPES), fill_value=0)
            .reset_index()
        )
        wide.columns = ["user_id"] + ["n_%s" % t for t in _EVENT_TYPES]
        for c in wide.columns:
            wide[c] = wide[c].astype("int64")
        return pa.Table.from_pandas(wide, preserve_index=False)

    from ..stages.groupagg import bucketed_group_agg

    # user_id is USER-cardinality: bucketed fold over the map-side partials (r5)
    aggs = {"n_%s" % t: ("sum", "n_%s" % t) for t in _EVENT_TYPES}
    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"), ["user_id"], aggs
    )


SQL_EVENTS_PIVOT = (
    "SELECT user_id, "
    + ", ".join(
        "CAST(sum(CASE WHEN event_type = '{t}' THEN 1 ELSE 0 END) AS BIGINT)"
        " AS n_{t}".format(t=t)
        for t in _EVENT_TYPES
    )
    + " FROM events GROUP BY user_id"
)


def q_docs_rollup(sf_dir: str):
    """Hierarchical totals (GROUP BY ROLLUP (source, lang)): per-(source,
    lang) counts, per-source subtotals, and a grand total in one result —
    the OLAP rollup, built from ONE fine-grained groupby whose small
    output re-aggregates locally (coarser levels never rescan the
    corpus).  NULL grouping keys are encoded as '*' so the hash compare
    is null-free."""
    ds = read_table(sf_dir, "documents", columns=["source", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().groupby(["source", "lang"], sort=False).size()
        out = df.rename("n").reset_index()
        out["n"] = out["n"].astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False)

    fine = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "lang"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # distinct (source, lang) pairs only — tiny
    )
    sub = fine.groupby("source", as_index=False)["n"].sum()
    sub["lang"] = "*"
    total = pd.DataFrame({"source": ["*"], "lang": ["*"], "n": [fine["n"].sum()]})
    out = pd.concat([fine, sub, total], ignore_index=True)[["source", "lang", "n"]]
    out["n"] = out["n"].astype("int64")
    return out


SQL_DOCS_ROLLUP = (
    "SELECT coalesce(source, '*') AS source, coalesce(lang, '*') AS lang,"
    " count(*) AS n FROM documents GROUP BY ROLLUP (source, lang)"
)


REL_QUERIES = {
    "audio_mel": q_audio_mel,
    "lineitem_order_join": q_lineitem_order_join,
    "asof_last_event": q_asof_last_event,
    "running_total": q_running_total,
    "media_features": q_media_features,
    "events_range_join": q_events_range_join,
    "orders_semi_events": q_orders_semi_events,
    "orders_anti_events": q_orders_anti_events,
    "events_funnel": q_events_funnel,
    "events_pivot": q_events_pivot,
    "docs_rollup": q_docs_rollup,
}

def _golden_values_sql(fname: str, columns: list[tuple[str, str]]) -> str | None:
    """VALUES-literal oracle from a golden JSON row list; None (rows-only
    fallback) if the golden is absent in the deployed tree.  ``columns``
    is [(name, kind)] with kind in {'int', 'float', 'str'}; floats are
    CAST to DOUBLE so DuckDB doesn't infer DECIMAL (whose string
    rendering differs from the Ray side's float64)."""
    import json
    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "tests", "golden", fname
    )
    try:
        with open(path) as f:
            rows = json.load(f)
    except OSError:
        return None

    def lit(r, name, kind):
        if kind == "int":
            return str(int(r[name]))
        if kind == "float":
            return "CAST({!r} AS DOUBLE)".format(float(r[name]))
        # SQL-escape single quotes: error strings can contain apostrophes
        return "'{}'".format(str(r[name]).replace("'", "''"))

    vals = ", ".join(
        "(" + ", ".join(lit(r, n, k) for n, k in columns) + ")" for r in rows
    )
    return (
        "SELECT * FROM (VALUES " + vals + ") AS t("
        + ", ".join(n for n, _ in columns) + ")"
    )


def _media_oracle_sql() -> str | None:
    return _golden_values_sql(
        "media_features.json",
        [("media_id", "int"), ("kind", "str"), ("n_bytes", "int"),
         ("mean", "float"), ("std", "float"), ("status", "str")],
    )


def _audio_mel_oracle_sql() -> str | None:
    return _golden_values_sql(
        "audio_mel.json",
        [("media_id", "int"), ("sample_rate", "int"), ("n_samples", "int"),
         ("n_frames", "int"), ("n_trimmed", "int"), ("mel_mean", "float"),
         ("mel_std", "float"), ("peak_band", "int"), ("status", "str")],
    )


REL_ORACLE_SQL = {
    "lineitem_order_join": SQL_LINEITEM_ORDER_JOIN,
    "asof_last_event": SQL_ASOF_LAST_EVENT,
    "running_total": SQL_RUNNING_TOTAL,
    "events_range_join": SQL_EVENTS_RANGE_JOIN,
    "orders_semi_events": SQL_ORDERS_SEMI_EVENTS,
    "orders_anti_events": SQL_ORDERS_ANTI_EVENTS,
    "events_funnel": SQL_EVENTS_FUNNEL,
    "events_pivot": SQL_EVENTS_PIVOT,
    "docs_rollup": SQL_DOCS_ROLLUP,
}

_media_sql = _media_oracle_sql()
if _media_sql is not None:
    REL_ORACLE_SQL["media_features"] = _media_sql
_audio_sql = _audio_mel_oracle_sql()
if _audio_sql is not None:
    REL_ORACLE_SQL["audio_mel"] = _audio_sql
