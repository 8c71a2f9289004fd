"""Lakehouse / statistics operators (round 4, session 4): CDC MERGE
(changelog apply), broadcast interval-lookup join, shifted-moment
per-group correlation/regression, per-group mode (argmax), token-entropy
profiling, and a referential-integrity audit.

These close the "table maintenance + statistics" tail a production data
engine needs around the curation families (queries_cc / queries_web):
a crawl store is maintained by MERGE-shaped changelog applies (the
reference's JSONSaver map.json overwrite cycle, `utils/databases/
json_dir.py`, is a degenerate single-writer MERGE); boundary/tier
lookups are the IP-geo / price-band shape every reporting pass needs;
corr/slope/mode/entropy are the dataset-summary statistics the
reference's `summary()` analogs print; FK audits are how a multi-table
lake validates itself after every load.

Scale rules (same contract as queries_cc / queries_web):

- partial aggregation inside ``map_batches`` before every groupby —
  fact-table rows NEVER reach a native aggregate (BASELINE.md #15);
- shuffles keyed on integers / dictionary codes, never raw text;
- per-batch kernels vectorized (np.unique / bincount / searchsorted over
  dictionary codes); Python loops only over batch VOCABULARY;
- small sides broadcast (interval table via ``ray.put``; supplier /
  nation dimension maps as numpy arrays), never shuffled;
- moment statistics use SHIFTED sums (fixed public pivot constants) so
  the n*sxy - sx*sy cancellation stays in double-exact territory.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Sum

from ..sources.io import collect_tables, cpu_count, read_table

# ---------------------------------------------------------------------------
# changelog apply (CDC MERGE): latest-wins upsert/delete onto a snapshot
# ---------------------------------------------------------------------------

#: MERGE cutoff: events before this instant form the base snapshot, events
#: at/after it are the changelog batch being applied (2024-01-16T00:00Z —
#: the events table spans January 2024 at every sf).
MERGE_CUTOFF_US = 1_705_363_200_000_000
_DELETE_TYPE = "error"  # event_type carrying DELETE semantics


def _latest_partial(batch: pa.Table) -> pa.Table:
    """Per-batch latest-event partial per (user, regime): regime 0 = base
    (ts < cutoff), regime 1 = changelog.  Latest = max (ts, event_id).
    Output <= 2 rows per user per batch — the map-side combine that keeps
    the shuffle cardinality-bounded."""
    ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    uid = batch.column("user_id").to_numpy(zero_copy_only=False)
    eid = batch.column("event_id").to_numpy(zero_copy_only=False)
    val = batch.column("value").to_numpy(zero_copy_only=False)
    is_del = pc.equal(batch.column("event_type"), _DELETE_TYPE).to_numpy(
        zero_copy_only=False
    )
    if len(ts) == 0:
        return pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "regime": pa.array([], pa.int64()),
                "ts_us": pa.array([], pa.int64()),
                "event_id": pa.array([], pa.int64()),
                "value": pa.array([], pa.float64()),
                "is_delete": pa.array([], pa.bool_()),
            }
        )
    regime = (ts >= MERGE_CUTOFF_US).astype(np.int64)
    # lexsort ascending by (uid, regime, ts, eid); the LAST row of each
    # (uid, regime) run is its latest event
    order = np.lexsort((eid, ts, regime, uid))
    u, r = uid[order], regime[order]
    ends = np.r_[(np.diff(u * 2 + r) != 0).nonzero()[0], len(u) - 1]
    pick = order[ends]
    return pa.table(
        {
            "user_id": pa.array(uid[pick], pa.int64()),
            "regime": pa.array(regime[pick], pa.int64()),
            "ts_us": pa.array(ts[pick], pa.int64()),
            "event_id": pa.array(eid[pick], pa.int64()),
            "value": pa.array(val[pick], pa.float64()),
            "is_delete": pa.array(is_del[pick], pa.bool_()),
        }
    )


def _merge_group(group: pa.Table) -> pa.Table:
    """Final MERGE over a BUCKET of users' <= 2 x n_blocks partial rows
    each: pick the true latest per (user, regime), then apply
    changelog-over-base semantics — fully vectorized (searchsorted match
    of base users against changelog users, no per-user Python)."""
    uid = group.column("user_id").to_numpy(zero_copy_only=False)
    regime = group.column("regime").to_numpy(zero_copy_only=False)
    ts = group.column("ts_us").to_numpy(zero_copy_only=False)
    eid = group.column("event_id").to_numpy(zero_copy_only=False)
    val = group.column("value").to_numpy(zero_copy_only=False)
    is_del = group.column("is_delete").to_numpy(zero_copy_only=False)
    order = np.lexsort((eid, ts, regime, uid))
    u, r = uid[order], regime[order]
    ends = np.r_[(np.diff(u * 2 + r) != 0).nonzero()[0], len(u) - 1]
    pick = order[ends]  # sorted by (user, regime); <= 2 rows per user
    u_p, r_p = uid[pick], regime[pick]
    v_p, d_p = val[pick], is_del[pick]
    base_m, post_m = r_p == 0, r_p == 1
    bu, bv, blive = u_p[base_m], v_p[base_m], ~d_p[base_m]
    pu, pv, pdel = u_p[post_m], v_p[post_m], d_p[post_m]
    # changelog rows: live unless the latest op is a delete; src by
    # whether a LIVE base row exists for the same user (bu is sorted)
    idx = np.searchsorted(bu, pu)
    has_base = np.zeros(len(pu), bool)
    inb = idx < len(bu)
    has_base[inb] = (bu[idx[inb]] == pu[inb]) & blive[idx[inb]]
    keep_post = ~pdel
    # base rows: live and NOT superseded by any changelog row (pu sorted)
    jdx = np.searchsorted(pu, bu)
    superseded = np.zeros(len(bu), bool)
    inp = jdx < len(pu)
    superseded[inp] = pu[jdx[inp]] == bu[inp]
    keep_base = blive & ~superseded
    out_uid = np.concatenate([pu[keep_post], bu[keep_base]])
    out_val = np.concatenate([pv[keep_post], bv[keep_base]])
    src_post = np.where(has_base[keep_post], "updated", "inserted")
    out_src = np.concatenate([src_post, np.full(int(keep_base.sum()), "base")])
    return pa.table(
        {
            "user_id": pa.array(out_uid, pa.int64()),
            "value": pa.array(np.round(out_val.astype(np.float64), 4)),
            "src": pa.array(out_src, pa.string()),
        }
    )


_EMPTY_MERGE = pa.table(
    {
        "user_id": pa.array([], pa.int64()),
        "value": pa.array([], pa.float64()),
        "src": pa.array([], pa.string()),
    }
)


def q_changelog_apply(sf_dir: str):
    """CDC MERGE: the latest pre-cutoff event per user is the base
    snapshot row (unless it is a delete), post-cutoff events are the
    changelog; latest changelog op wins — delete removes the row, upsert
    rewrites it (tagged ``updated`` / ``inserted`` by base existence).

    Scale shape: ONE pass over events emits <= 2 tiny argmax partials per
    (user, batch); the only shuffle is the user-bucket groupby over those
    partials (one vectorized task per BUCKET, not per user).  No join —
    base and changelog are two regimes of the same keyed stream, merged in
    one kernel.  (Reference analog: the map.json skip-if-done overwrite
    cycle, `utils/databases/json_dir.py`.)"""
    from ..stages.dedup import bucketed_group_apply

    ev = read_table(
        sf_dir,
        "events",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
        min_blocks=cpu_count(),
    )
    return bucketed_group_apply(
        ev.map_batches(_latest_partial, batch_format="pyarrow"),
        ("user_id",),
        _merge_group,
        empty_result=_EMPTY_MERGE,
    )


SQL_CHANGELOG_APPLY = (
    "WITH base AS ("
    " SELECT user_id, value, event_type FROM ("
    "  SELECT user_id, value, event_type,"
    "   row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) rn"
    "  FROM events WHERE ts < TIMESTAMP '2024-01-16 00:00:00') WHERE rn = 1"
    "   AND event_type <> 'error'),"
    " post AS ("
    " SELECT user_id, value, event_type FROM ("
    "  SELECT user_id, value, event_type,"
    "   row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) rn"
    "  FROM events WHERE ts >= TIMESTAMP '2024-01-16 00:00:00') WHERE rn = 1) "
    "SELECT COALESCE(post.user_id, base.user_id) AS user_id,"
    " round(COALESCE(post.value, base.value), 4) AS value,"
    " CASE WHEN post.user_id IS NULL THEN 'base'"
    "      WHEN base.user_id IS NULL THEN 'inserted'"
    "      ELSE 'updated' END AS src "
    "FROM base FULL OUTER JOIN post ON base.user_id = post.user_id "
    "WHERE post.user_id IS NULL OR post.event_type <> 'error'"
)


# ---------------------------------------------------------------------------
# broadcast interval-lookup join (price tiers — the IP-geo shape)
# ---------------------------------------------------------------------------

#: sorted tier lower bounds and names — at scale this interval table is a
#: real Dataset collapsed once on the driver and ``ray.put``-broadcast;
#: every map task binary-searches it instead of shuffling the fact table.
TIER_BOUNDS = np.array([0.0, 1_000.0, 5_000.0, 20_000.0, 100_000.0])
TIER_NAMES = ["T0", "T1", "T2", "T3", "T4"]


def q_tier_lookup(sf_dir: str):
    """Per (price tier, order status) counts and mass: each order's
    ``o_totalprice`` is mapped to its tier by binary search against a
    broadcast sorted boundary table — the interval-lookup join (IP-geo /
    price-band shape) that replaces a range join when one side is small.

    Scale shape: boundaries travel once via ``ray.put``; the per-batch
    kernel is one ``np.searchsorted`` + bincount partial (<= tiers x
    statuses rows per batch), so the groupby input is cardinality-bounded,
    never fact-proportional."""
    bounds_ref = ray.put((TIER_BOUNDS, TIER_NAMES))
    ds = read_table(sf_dir, "orders", columns=["o_totalprice", "o_orderstatus"])

    def partial(batch: pa.Table) -> pa.Table:
        bounds, names = ray.get(bounds_ref)
        price = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        # clamp below-range prices (e.g. negative) into T0 like the SQL's
        # "< 1000 THEN 'T0'" branch instead of a -1 bincount key (ADVICE r4)
        tier = np.maximum(np.searchsorted(bounds, price, side="right") - 1, 0)
        status_enc = pc.dictionary_encode(
            batch.column("o_orderstatus").combine_chunks()
        )
        scode = np.asarray(status_enc.indices, dtype=np.int64)
        sdict = status_enc.dictionary
        key = tier * len(sdict) + scode
        n_key = len(bounds) * len(sdict)
        n = np.bincount(key, minlength=n_key)
        s = np.bincount(key, weights=price, minlength=n_key)
        nz = n.nonzero()[0]
        return pa.table(
            {
                "tier": pa.array([names[k // len(sdict)] for k in nz], pa.string()),
                "o_orderstatus": sdict.take(pa.array(nz % len(sdict), pa.int32())),
                "n": pa.array(n[nz], pa.int64()),
                "sum_price": pa.array(s[nz], pa.float64()),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        # np.round, not pc.round: pc.round's scaled rounding can land on a
        # different double than DuckDB/numpy round (house float policy)
        return batch.set_column(
            batch.schema.get_field_index("sum_price"),
            "sum_price",
            pa.array(
                np.round(
                    batch.column("sum_price").to_numpy(zero_copy_only=False), 2
                )
            ),
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["tier", "o_orderstatus"])
        .aggregate(Sum("n", alias_name="n"), Sum("sum_price", alias_name="sum_price"))
        .map_batches(finish, batch_format="pyarrow")
    )


SQL_TIER_LOOKUP = (
    "SELECT CASE WHEN o_totalprice < 1000 THEN 'T0'"
    " WHEN o_totalprice < 5000 THEN 'T1'"
    " WHEN o_totalprice < 20000 THEN 'T2'"
    " WHEN o_totalprice < 100000 THEN 'T3'"
    " ELSE 'T4' END AS tier, o_orderstatus,"
    " count(*) AS n, round(sum(o_totalprice), 2) AS sum_price "
    "FROM orders GROUP BY tier, o_orderstatus"
)


# ---------------------------------------------------------------------------
# per-nation correlation / regression (shifted-moment partials)
# ---------------------------------------------------------------------------

#: fixed public pivots near the column means — shifting x/y by a constant
#: leaves corr and slope invariant but kills the n*sxy - sx*sy cancellation
#: that would otherwise eat float precision at 100-TB row counts.
_PIVOT_QTY = 25.0
_PIVOT_PRICE = 35_000.0


def q_corr_by_nation(sf_dir: str):
    return _corr_by_nation(sf_dir)


def _corr_by_nation(sf_dir: str, broadcast_limit: int | None = None):
    """Pearson correlation and OLS slope of (l_quantity -> l_extendedprice)
    per supplier nation — the dataset-summary statistics pass.

    Scale shape: the supplier dimension is SIZE-PLANNED (VERDICT r4 #3 —
    supplier grows with sf, so an unconditional ``ray.put`` is a multi-GB
    broadcast at 100 TB): while its parquet-metadata size is provably
    under the auto_join broadcast limit it travels once as sorted numpy
    arrays (validated searchsorted lookup, no shuffle); above the limit
    the nationkey is attached through a left-outer ``auto_join`` at the
    same limit instead.  On both paths a lineitem whose suppkey has no
    supplier raises.
    Nation names (25 rows, constant) stay a driver dict.  Each batch
    folds to <= 25 shifted-moment rows (n, sx, sy, sxx, syy, sxy) via
    bincount; the native aggregate sums <= 25 x n_blocks tiny rows and
    one driver-sized map computes the statistics (zero-variance groups
    -> NULL, matching DuckDB corr/regr_slope)."""
    from ..stages.joins import BROADCAST_BYTES, _known_size, auto_join

    if broadcast_limit is None:
        broadcast_limit = BROADCAST_BYTES
    nat = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    name_of = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))

    ds = read_table(
        sf_dir, "lineitem", columns=["l_suppkey", "l_quantity", "l_extendedprice"]
    )
    sup_ds = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    sup_bytes = _known_size(sup_ds)

    if sup_bytes is not None and sup_bytes <= broadcast_limit:
        sup = sup_ds.to_pandas().sort_values("s_suppkey")
        sup_keys = ray.put(sup["s_suppkey"].to_numpy(np.int64))
        sup_nat = ray.put(sup["s_nationkey"].to_numpy(np.int64))

        def attach(batch: pa.Table) -> pa.Table:
            keys = ray.get(sup_keys)
            nats = ray.get(sup_nat)
            sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
            idx = np.searchsorted(keys, sk)
            hit = keys[np.clip(idx, 0, len(keys) - 1)] == sk
            if not hit.all():  # loud failure, the q_user_day_join policy:
                # a silent miss would attribute the row to the NEXT
                # supplier's nation (or IndexError past the end)
                miss = sk[~hit][:3].tolist()
                raise ValueError(f"l_suppkey(s) {miss} not present in supplier")
            return batch.append_column(
                "nationkey", pa.array(nats[idx], pa.int64())
            )

        with_nat = ds.map_batches(attach, batch_format="pyarrow")
    else:  # dimension too large to broadcast: size-planned join
        def nationkey(batch: pa.Table) -> pa.Table:
            nk = batch.column("s_nationkey")
            if nk.null_count:  # the broadcast path's loud failure
                miss = batch.column("l_suppkey").filter(pc.is_null(nk))
                raise ValueError(
                    f"l_suppkey(s) {miss[:3].to_pylist()} not present in supplier"
                )
            return batch.append_column(
                "nationkey", pc.cast(nk, pa.int64())
            ).drop_columns(["s_nationkey"])

        with_nat = auto_join(
            ds,
            sup_ds,
            on="l_suppkey",
            right_on="s_suppkey",
            join_type="left_outer",
            broadcast_limit=broadcast_limit,
        ).map_batches(nationkey, batch_format="pyarrow")

    def moments(batch: pa.Table) -> pa.Table:
        g = batch.column("nationkey").to_numpy(zero_copy_only=False)
        x = batch.column("l_quantity").to_numpy(zero_copy_only=False) - _PIVOT_QTY
        y = (
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
            - _PIVOT_PRICE
        )
        m = int(g.max()) + 1 if len(g) else 1
        n = np.bincount(g, minlength=m).astype(np.float64)
        cols = {
            "nationkey": np.arange(m, dtype=np.int64),
            "n": n,
            "sx": np.bincount(g, weights=x, minlength=m),
            "sy": np.bincount(g, weights=y, minlength=m),
            "sxx": np.bincount(g, weights=x * x, minlength=m),
            "syy": np.bincount(g, weights=y * y, minlength=m),
            "sxy": np.bincount(g, weights=x * y, minlength=m),
        }
        keep = n > 0
        return pa.table({k: pa.array(v[keep]) for k, v in cols.items()})

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False)
        sx = batch.column("sx").to_numpy(zero_copy_only=False)
        sy = batch.column("sy").to_numpy(zero_copy_only=False)
        sxx = batch.column("sxx").to_numpy(zero_copy_only=False)
        syy = batch.column("syy").to_numpy(zero_copy_only=False)
        sxy = batch.column("sxy").to_numpy(zero_copy_only=False)
        cov_n = n * sxy - sx * sy
        vx_n = n * sxx - sx * sx
        vy_n = n * syy - sy * sy
        # zero-variance groups (all-equal values, single-row groups):
        # DuckDB corr/regr_slope return NULL there, not NaN/inf (ADVICE r4)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.round(cov_n / np.sqrt(vx_n * vy_n), 4)
            slope = np.round(cov_n / vx_n, 4)
        names = [name_of[int(k)] for k in batch.column("nationkey").to_pylist()]
        corr_ok = (vx_n > 0) & (vy_n > 0)
        slope_ok = vx_n > 0
        return pa.table(
            {
                "n_name": pa.array(names, pa.string()),
                "n": pa.array(n.astype(np.int64)),
                "corr_qty_price": pa.array(
                    [float(c) if ok else None for c, ok in zip(corr, corr_ok)],
                    pa.float64(),
                ),
                "slope_qty_price": pa.array(
                    [float(s) if ok else None for s, ok in zip(slope, slope_ok)],
                    pa.float64(),
                ),
            }
        )

    return (
        with_nat.map_batches(moments, batch_format="pyarrow")
        .groupby("nationkey")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxx", alias_name="sxx"),
            Sum("syy", alias_name="syy"),
            Sum("sxy", alias_name="sxy"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )


SQL_CORR_BY_NATION = (
    "SELECT n_name, count(*) AS n,"
    " round(corr(l_extendedprice, l_quantity), 4) AS corr_qty_price,"
    " round(regr_slope(l_extendedprice, l_quantity), 4) AS slope_qty_price "
    "FROM lineitem JOIN supplier ON l_suppkey = s_suppkey"
    " JOIN nation ON s_nationkey = n_nationkey "
    "GROUP BY n_name"
)


# ---------------------------------------------------------------------------
# token-count partial shared by mode / entropy (dictionary-coded bincount)
# ---------------------------------------------------------------------------


def _token_count_partial(group_col: str):
    """Per-batch (group, token, n) partial counts: tokens dictionary-encoded
    once per batch, groups dictionary-encoded, combined code bincount —
    the map-side combine that bounds the shuffle by (groups x batch vocab),
    never by corpus tokens."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text").combine_chunks(), " ")
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        tenc = pc.dictionary_encode(flat)
        tcode = np.asarray(tenc.indices, dtype=np.int64)
        genc = pc.dictionary_encode(batch.column(group_col).combine_chunks())
        gcode = np.repeat(np.asarray(genc.indices, dtype=np.int64), lens)
        nvocab = len(tenc.dictionary)
        key = gcode * nvocab + tcode
        uniq, counts = np.unique(key, return_counts=True)
        return pa.table(
            {
                group_col: genc.dictionary.take(
                    pa.array(uniq // nvocab, pa.int32())
                ),
                "token": tenc.dictionary.take(pa.array(uniq % nvocab, pa.int32())),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    return partial


# ---------------------------------------------------------------------------
# per-language mode token (argmax aggregate)
# ---------------------------------------------------------------------------


def q_mode_token_by_lang(sf_dir: str):
    """Most frequent token per language (ties -> lexically smallest token)
    — the mode / argmax aggregate, the categorical summary statistic.

    Scale shape: per-batch (lang, token) bincount partials, ONE
    cardinality-bounded bucketed sum, then the argmax as a k = 1
    ``groupagg.group_topk`` by (n desc, token)."""
    from ..stages.groupagg import bucketed_group_agg, group_topk

    ds = read_table(sf_dir, "documents", columns=["lang", "text"])
    # (lang, token) is vocab-cardinality: bucketed string-key fold (r5)
    counts = bucketed_group_agg(
        ds.map_batches(_token_count_partial("lang"), batch_format="pyarrow"),
        ["lang", "token"],
        {"n": ("sum", "n")},
    )
    return group_topk(
        counts, ["lang"], [("n", "descending"), ("token", "ascending")], 1
    ).select_columns(["lang", "token", "n"])


SQL_MODE_TOKEN_BY_LANG = (
    "SELECT lang, token, n FROM ("
    " SELECT lang, token, count(*) AS n,"
    "  row_number() OVER (PARTITION BY lang ORDER BY count(*) DESC, token ASC) rn"
    " FROM (SELECT lang, unnest(string_split(text, ' ')) AS token FROM documents)"
    " GROUP BY lang, token) WHERE rn = 1"
)


# ---------------------------------------------------------------------------
# per-source token entropy (distribution profiling)
# ---------------------------------------------------------------------------


def q_entropy_by_source(sf_dir: str):
    """Shannon entropy (bits) of each source's token distribution plus its
    token mass — the distribution-skew profile a curation pass reads to
    spot TEMPLATED sources (low entropy = boilerplate mill).

    Scale shape: the (source, token) counts come from the same
    dictionary-coded bincount partial as the mode aggregate; entropy
    folds as H = log2(N) - (sum n*log2 n)/N, so after the
    cardinality-bounded count shuffle only (source, sum_n, sum_nlogn)
    partials move — one tiny groupby, driver holds n_sources rows."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def fold(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "source": batch.column("source"),
                "sum_n": pa.array(n),
                "sum_nlog": pa.array(n * np.log2(n)),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        N = batch.column("sum_n").to_numpy(zero_copy_only=False)
        nl = batch.column("sum_nlog").to_numpy(zero_copy_only=False)
        h = np.log2(N) - nl / N
        return pa.table(
            {
                "source": batch.column("source"),
                "n_tokens": pa.array(N.astype(np.int64)),
                "entropy_bits": pa.array(np.round(h, 4)),
            }
        )

    from ..stages.groupagg import bucketed_group_agg

    return (
        # (source, token) is vocab-cardinality: bucketed string-key fold (r5)
        bucketed_group_agg(
            ds.map_batches(_token_count_partial("source"), batch_format="pyarrow"),
            ["source", "token"],
            {"n": ("sum", "n")},
        )
        .map_batches(fold, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("sum_n", alias_name="sum_n"), Sum("sum_nlog", alias_name="sum_nlog")
        )
        .map_batches(finish, batch_format="pyarrow")
    )


SQL_ENTROPY_BY_SOURCE = (
    "WITH c AS (SELECT source, token, count(*) AS n FROM"
    " (SELECT source, unnest(string_split(text, ' ')) AS token FROM documents)"
    " GROUP BY source, token) "
    "SELECT source, sum(n)::BIGINT AS n_tokens,"
    " round(log2(sum(n)) - sum(n * log2(n)) / sum(n), 4) AS entropy_bits "
    "FROM c GROUP BY source"
)


# ---------------------------------------------------------------------------
# referential-integrity audit (multi-table anti-join counts)
# ---------------------------------------------------------------------------

#: (relation label, child table, child FK column, parent table, parent PK)
FK_RELATIONS = [
    ("lineitem->orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("orders->customer", "orders", "o_custkey", "customer", "c_custkey"),
    ("customer->nation", "customer", "c_nationkey", "nation", "n_nationkey"),
    ("supplier->nation", "supplier", "s_nationkey", "nation", "n_nationkey"),
    ("nation->region", "nation", "n_regionkey", "region", "r_regionkey"),
]


def q_fk_integrity(sf_dir: str):
    """Referential-integrity audit across every FK edge of the star schema:
    one row per relation with child row count and orphan count (children
    whose key has no parent) — the post-load validation pass a lake runs
    before exposing a snapshot.

    Scale shape: ONE pipeline, one shuffle.  Each relation reads only its
    two key columns; child batches fold to per-batch (relation, key,
    count) partials and parents to (relation, key, present) markers; the
    tagged UNION goes through one bucketed 2-key aggregate (its input is
    distinct-key-proportional, so the native aggregate's per-row cost is
    avoided — BASELINE.md #15), and per-relation counts fold map-side
    after it.  The driver holds 5 rows.  (Assumes non-null FK columns —
    true of this star schema; a null FK would need a null-partition lane.)
    """
    from ..stages.groupagg import bucketed_group_agg

    streams = []
    for rid, (label, child, fk, parent, pk) in enumerate(FK_RELATIONS):

        def c_part(batch: pa.Table, _fk=fk, _rid=rid) -> pa.Table:
            k = batch.column(_fk).to_numpy(zero_copy_only=False).astype(np.int64)
            u, n = np.unique(k, return_counts=True)
            return pa.table(
                {
                    "rel": pa.array(np.full(len(u), _rid, np.int64)),
                    "key": pa.array(u),
                    "n_c": pa.array(n.astype(np.int64)),
                    "n_p": pa.array(np.zeros(len(u), np.int64)),
                }
            )

        def p_part(batch: pa.Table, _pk=pk, _rid=rid) -> pa.Table:
            u = np.unique(
                batch.column(_pk).to_numpy(zero_copy_only=False).astype(np.int64)
            )
            return pa.table(
                {
                    "rel": pa.array(np.full(len(u), _rid, np.int64)),
                    "key": pa.array(u),
                    "n_c": pa.array(np.zeros(len(u), np.int64)),
                    "n_p": pa.array(np.ones(len(u), np.int64)),
                }
            )

        streams.append(
            read_table(sf_dir, child, columns=[fk]).map_batches(
                c_part, batch_format="pyarrow"
            )
        )
        streams.append(
            read_table(sf_dir, parent, columns=[pk]).map_batches(
                p_part, batch_format="pyarrow"
            )
        )

    tagged = streams[0].union(*streams[1:])
    per_key = bucketed_group_agg(
        tagged,
        ["rel", "key"],
        {"n_c": ("sum", "n_c"), "n_p": ("sum", "n_p")},
    )

    def rel_partial(batch: pa.Table) -> pa.Table:
        rel = batch.column("rel").to_numpy(zero_copy_only=False)
        n_c = batch.column("n_c").to_numpy(zero_copy_only=False)
        n_p = batch.column("n_p").to_numpy(zero_copy_only=False)
        m = len(FK_RELATIONS)
        child = np.bincount(rel, weights=n_c, minlength=m)
        orphan = np.bincount(rel, weights=n_c * (n_p == 0), minlength=m)
        return pa.table(
            {
                "rel": pa.array(np.arange(m, dtype=np.int64)),
                "n_child": pa.array(child.astype(np.int64)),
                "n_orphan": pa.array(orphan.astype(np.int64)),
            }
        )

    rows = (
        per_key.map_batches(rel_partial, batch_format="pyarrow")
        # bounded 5-group final after a many-block bucketed stage: clamp
        # the aggregator fan-out (~0.1 s fixed cost per partition)
        .groupby("rel", num_partitions=2)
        .aggregate(
            Sum("n_child", alias_name="n_child"),
            Sum("n_orphan", alias_name="n_orphan"),
        )
        .take_all()  # 5 rows
    )
    by_rel = {int(r["rel"]): r for r in rows}
    labels = [lbl for lbl, *_ in FK_RELATIONS]
    return pa.table(
        {
            "relation": pa.array(labels, pa.string()),
            "n_child": pa.array(
                [int(by_rel[i]["n_child"]) if i in by_rel else 0 for i in range(len(labels))],
                pa.int64(),
            ),
            "n_orphan": pa.array(
                [int(by_rel[i]["n_orphan"]) if i in by_rel else 0 for i in range(len(labels))],
                pa.int64(),
            ),
        }
    )


SQL_FK_INTEGRITY = " UNION ALL ".join(
    "SELECT '{label}' AS relation,"
    " (SELECT count(*) FROM {child}) AS n_child,"
    " (SELECT count(*) FROM {child} LEFT JOIN {parent} ON {fk} = {pk}"
    "  WHERE {pk} IS NULL) AS n_orphan".format(
        label=label, child=child, fk=fk, parent=parent, pk=pk
    )
    for label, child, fk, parent, pk in FK_RELATIONS
)


# ---------------------------------------------------------------------------
# composite-key join (user-day enrichment)
# ---------------------------------------------------------------------------

_DAY_US = 86_400_000_000


def q_user_day_join(sf_dir: str):
    """Enrich every purchase event with its user-DAY activity totals — a
    composite-key ((user_id, day)) dimension join, the canonical
    sessionless per-entity-per-period enrichment.

    Scale shape: the (user, day) dimension is built from the same event
    stream with packed-key ``np.unique`` partials (<= users x days rows per
    batch) and one cardinality-bounded groupby; the enrichment join is the
    size-planned ``auto_join`` on the COMPOSITE key — broadcast while the
    dimension is provably small, above the limit ``hash_join``: one
    keyed-bucket shuffle on both key columns and one Arrow join per
    bucket."""
    from ..stages.groupagg import bucketed_group_agg
    from ..stages.joins import auto_join

    ev = read_table(
        sf_dir,
        "events",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
        min_blocks=cpu_count(),
    )

    def dim_partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        val = batch.column("value").to_numpy(zero_copy_only=False)
        day = ts // _DAY_US
        # pack (user, day): epoch days stay < 2^20 for centuries, so the
        # pack is collision-free for user_id < 2^43 — enforced loudly (an
        # out-of-range id would alias another user's day silently)
        if len(uid) and (uid.min() < 0 or int(uid.max()) >> 43):
            raise ValueError("user_id outside [0, 2^43) breaks day packing")
        key = uid * (1 << 20) + day
        uniq, inv, n = np.unique(key, return_inverse=True, return_counts=True)
        s = np.bincount(inv, weights=val)
        return pa.table(
            {
                "user_id": pa.array(uniq >> 20, pa.int64()),
                "day": pa.array(uniq & ((1 << 20) - 1), pa.int64()),
                "n_day": pa.array(n.astype(np.int64)),
                "sum_day": pa.array(s, pa.float64()),
            }
        )

    dim = (
        bucketed_group_agg(
            ev.map_batches(dim_partial, batch_format="pyarrow"),
            ["user_id", "day"],
            {"n_day": ("sum", "n_day"), "sum_day": ("sum", "sum_day")},
        )
        .map_batches(
            lambda b: b.set_column(
                b.schema.get_field_index("sum_day"),
                "sum_day",
                pa.array(
                    np.round(b.column("sum_day").to_numpy(zero_copy_only=False), 4)
                ),
            ),
            batch_format="pyarrow",
        )
        .materialize()  # dimension-sized; gives auto_join a free size probe
    )

    def purchases(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch.column("event_type"), "purchase"))
        day = pc.divide(batch.column("ts").cast(pa.int64()), _DAY_US)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "day": day,
                "value": batch.column("value"),
            }
        )

    fact = ev.map_batches(purchases, batch_format="pyarrow")
    return auto_join(fact, dim, on=["user_id", "day"])


SQL_USER_DAY_JOIN = (
    "WITH d AS (SELECT user_id, CAST(floor(epoch(ts)/86400) AS BIGINT) AS day,"
    " count(*) AS n_day, round(sum(value), 4) AS sum_day"
    " FROM events GROUP BY 1, 2) "
    "SELECT e.event_id, e.user_id, CAST(floor(epoch(e.ts)/86400) AS BIGINT) AS day,"
    " e.value, d.n_day, d.sum_day "
    "FROM events e JOIN d ON e.user_id = d.user_id"
    " AND CAST(floor(epoch(e.ts)/86400) AS BIGINT) = d.day "
    "WHERE e.event_type = 'purchase'"
)


# ---------------------------------------------------------------------------
# exact distributed percentile selection (iterative histogram refinement)
# ---------------------------------------------------------------------------

PCTS = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)]
_SEL_BINS = 4096
#: candidate ranges holding at most this many rows are collected exactly
_SEL_COLLECT = 262_144


def _sel_hist(ds, lo: float, hi: float, pred) -> np.ndarray:
    """One distributed pass: histogram of ``pred``-selected values over
    [lo, hi] in ``_SEL_BINS`` bins.  Per-batch bincount partials emit only
    NONZERO (bin, n) rows; the groupby input is bounded by bins x blocks,
    never by data."""
    width = (hi - lo) / _SEL_BINS

    def partial(batch: pa.Table) -> pa.Table:
        x = pred(batch)
        b = np.clip(((x - lo) / width).astype(np.int64), 0, _SEL_BINS - 1)
        n = np.bincount(b, minlength=_SEL_BINS)
        nz = n.nonzero()[0]
        return pa.table(
            {"bin": pa.array(nz, pa.int64()), "n": pa.array(n[nz], pa.int64())}
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("n", alias_name="n"))
        .take_all()  # <= _SEL_BINS rows
    )
    hist = np.zeros(_SEL_BINS, np.int64)
    for r in rows:
        hist[int(r["bin"])] = int(r["n"])
    return hist


def _kth_smallest(ds, column: str, k: int, lo: float, hi: float, n_range: int) -> float:
    """Exact k-th smallest of ``column`` restricted to [lo, hi] (which
    holds ``n_range`` rows, of which the k-th is sought) — iterative
    histogram refinement: each pass narrows to the candidate bin until the
    range holds <= _SEL_COLLECT rows, then one filtered collect finishes
    on the driver.  log_{bins}(n) passes, driver state O(bins + collect)."""

    if hi == lo:  # all values equal: the k-th IS the bound, no collect
        return float(lo)

    def in_range(batch: pa.Table) -> np.ndarray:
        x = batch.column(column).to_numpy(zero_copy_only=False)
        return x[(x >= lo) & (x <= hi)]

    while n_range > _SEL_COLLECT and hi > lo:
        hist = _sel_hist(ds, lo, hi, in_range)
        cum = np.cumsum(hist)
        b = int(np.searchsorted(cum, k))
        k -= int(cum[b - 1]) if b else 0
        width = (hi - lo) / _SEL_BINS
        new_lo, new_hi = lo + b * width, lo + (b + 1) * width
        if b == _SEL_BINS - 1:
            new_hi = hi
        n_new = int(hist[b])
        if n_new == n_range and new_hi - new_lo >= hi - lo:
            break  # degenerate (all values equal / width underflow)
        lo, hi, n_range = new_lo, new_hi, n_new

        def in_range(batch: pa.Table, lo=lo, hi=hi) -> np.ndarray:
            x = batch.column(column).to_numpy(zero_copy_only=False)
            return x[(x >= lo) & (x <= hi)]

    def collect(batch: pa.Table) -> pa.Table:
        return pa.table({"v": pa.array(in_range(batch), pa.float64())})

    vals = np.sort(
        np.concatenate(
            [
                t.column("v").to_numpy(zero_copy_only=False)
                for t in collect_tables(
                    ds.map_batches(collect, batch_format="pyarrow")
                )
            ]
            or [np.array([], np.float64)]
        )
    )
    return float(vals[k - 1])


def q_price_percentiles(sf_dir: str):
    """EXACT p50/p90/p99 of ``o_totalprice`` (percentile_disc semantics:
    the ceil(p*n)-th smallest data value) via distributed selection —
    iterative histogram refinement, the scale-correct alternative to a
    global sort when a handful of exact order statistics is the goal.
    (The KLL sketch, `functions/sketches.py`, is the one-pass approximate
    path; this is the exact path both bound each other with.)

    Scale shape: the pruned single-column read is materialized ONCE and
    every pass streams it; per pass only nonzero (bin, count) partials
    shuffle (<= 4096 rows out) and the driver holds one histogram.  The
    final exact step collects only the candidate range (<= 262k values).
    Passes: 1 min/max/count + log_4096(n/262k) histograms — 2 total up to
    ~10^9 rows, 3 up to ~4x10^12."""
    ds = read_table(sf_dir, "orders", columns=["o_totalprice"]).materialize()

    def mmc(batch: pa.Table) -> pa.Table:
        x = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "lo": pa.array([float(x.min())] if len(x) else [np.inf]),
                "hi": pa.array([float(x.max())] if len(x) else [-np.inf]),
                "n": pa.array([len(x)], pa.int64()),
            }
        )

    from ray.data.aggregate import Max as _Max
    from ray.data.aggregate import Min as _Min

    stats = (
        ds.map_batches(mmc, batch_format="pyarrow")
        .groupby("k")
        .aggregate(
            _Min("lo", alias_name="lo"),
            _Max("hi", alias_name="hi"),
            Sum("n", alias_name="n"),
        )
        .take_all()[0]
    )
    lo, hi, n = float(stats["lo"]), float(stats["hi"]), int(stats["n"])
    out_pct, out_val = [], []
    for name, p in PCTS:
        k = max(1, int(np.ceil(p * n)))
        out_pct.append(name)
        out_val.append(_kth_smallest(ds, "o_totalprice", k, lo, hi, n))
    return pa.table(
        {"pct": pa.array(out_pct, pa.string()), "value": pa.array(out_val, pa.float64())}
    )


SQL_PRICE_PERCENTILES = " UNION ALL ".join(
    "SELECT '{name}' AS pct, quantile_disc(o_totalprice, {p}) AS value"
    " FROM orders".format(name=name, p=p)
    for name, p in PCTS
)


# ---------------------------------------------------------------------------
# incremental aggregate maintenance (delta-segment merge, no base rescan)
# ---------------------------------------------------------------------------


def _source_state_partial(batch: pa.Table) -> pa.Table:
    """Per-batch mergeable aggregate state per source: (n_docs,
    total_chars, max_doc_id) — every component sum/sum/max, so states
    combine associatively."""
    src_enc = pc.dictionary_encode(batch.column("source").combine_chunks())
    g = np.asarray(src_enc.indices, dtype=np.int64)
    m = len(src_enc.dictionary)
    nch = batch.column("n_chars").to_numpy(zero_copy_only=False)
    did = batch.column("doc_id").to_numpy(zero_copy_only=False)
    n = np.bincount(g, minlength=m)
    tot = np.bincount(g, weights=nch, minlength=m).astype(np.int64)
    mx = np.full(m, -1, np.int64)
    np.maximum.at(mx, g, did)
    return pa.table(
        {
            "source": src_enc.dictionary,
            "n_docs": pa.array(n.astype(np.int64)),
            "total_chars": pa.array(tot),
            "max_doc_id": pa.array(mx),
        }
    )


def q_incremental_source_stats(sf_dir: str):
    """Incremental aggregate maintenance — the materialized-view update a
    lake runs per ingest: per-source stats are kept as a MERGEABLE state
    table (sum/sum/max components); when a delta segment lands (here: the
    ``doc_id % 5 == 0`` slice standing in for today's crawl drop), ONLY the
    delta is aggregated and merged with the stored state — the base corpus
    is never rescanned.

    Scale shape: the stored state (built once here from the base slice,
    standing in for the lake's persisted agg table) is source-cardinality,
    not corpus-cardinality; the maintenance pass costs
    O(delta) + O(state merge).  The union-then-groupby merge is the same
    combine the writer's manifest stats use (pipelines/writer.py)."""
    from ray.data.aggregate import Max

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def base_only(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(did % 5 != 0))

    def delta_only(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(did % 5 == 0))

    def merge(states: ray.data.Dataset) -> ray.data.Dataset:
        return states.groupby("source", num_partitions=2).aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_chars", alias_name="total_chars"),
            Max("max_doc_id", alias_name="max_doc_id"),
        )

    # stored state: built once, persisted in a real lake (materialize()
    # stands in for the read-back of that persisted table)
    base_state = merge(
        docs.map_batches(base_only, batch_format="pyarrow").map_batches(
            _source_state_partial, batch_format="pyarrow"
        )
    ).materialize()
    # the maintenance pass: delta aggregate + state merge, no base rescan
    delta_state = docs.map_batches(delta_only, batch_format="pyarrow").map_batches(
        _source_state_partial, batch_format="pyarrow"
    )
    return merge(base_state.union(delta_state))


SQL_INCREMENTAL_SOURCE_STATS = (
    "SELECT source, count(*) AS n_docs, sum(n_chars)::BIGINT AS total_chars,"
    " max(doc_id) AS max_doc_id FROM documents GROUP BY source"
)


# ---------------------------------------------------------------------------
# per-user ordered event-sequence assembly (behavioral-model input builder)
# ---------------------------------------------------------------------------

SEQ_LEN = 20


def q_user_event_seq(sf_dir: str):
    """Per-user ordered event-type sequence — the first ``SEQ_LEN`` events
    by (ts, event_id) comma-joined, plus the user's total event count: the
    input builder for sequence/behavioral models (the training-data
    analog of the reference's ordered frame streams).

    Scale shape: each batch PRUNES to its local first-SEQ_LEN rows per
    user before the shuffle (the global first-K is a subset of the union
    of per-batch first-Ks), count partials ride along on the first kept
    row per (user, batch); the user-bucketed final kernel is one lexsort +
    run-offset list assembly + ``pc.binary_join`` — no per-user Python."""
    from ..stages.dedup import bucketed_group_apply

    ev = read_table(
        sf_dir,
        "events",
        columns=["event_id", "ts", "user_id", "event_type"],
        min_blocks=cpu_count(),
    )

    def prune(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        if len(uid) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "ts_us": pa.array([], pa.int64()),
                    "event_id": pa.array([], pa.int64()),
                    "event_type": pa.array([], pa.string()),
                    "n_part": pa.array([], pa.int64()),
                }
            )
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u = uid[order]
        starts = np.r_[True, u[1:] != u[:-1]]
        run_start = np.maximum.accumulate(np.where(starts, np.arange(len(u)), 0))
        rank = np.arange(len(u)) - run_start
        keep = rank < SEQ_LEN
        counts = np.diff(np.r_[starts.nonzero()[0], len(u)])
        n_part = np.zeros(len(u), np.int64)
        n_part[starts] = counts  # batch count rides on the first kept row
        sel = order[keep]
        return pa.table(
            {
                "user_id": pa.array(uid[sel], pa.int64()),
                "ts_us": pa.array(ts[sel], pa.int64()),
                "event_id": pa.array(eid[sel], pa.int64()),
                "event_type": batch.column("event_type").combine_chunks().take(
                    pa.array(sel, pa.int64())
                ),
                "n_part": pa.array(n_part[keep], pa.int64()),
            }
        )

    def assemble(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy(zero_copy_only=False)
        ts = group.column("ts_us").to_numpy(zero_copy_only=False)
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        n_part = group.column("n_part").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u = uid[order]
        starts = np.r_[True, u[1:] != u[:-1]]
        run_start = np.maximum.accumulate(np.where(starts, np.arange(len(u)), 0))
        rank = np.arange(len(u)) - run_start
        keep = rank < SEQ_LEN
        sel = np.asarray(order[keep], np.int64)
        uk = u[keep]
        offs_idx = np.r_[np.r_[True, uk[1:] != uk[:-1]].nonzero()[0], len(uk)]
        etypes = group.column("event_type").combine_chunks().take(pa.array(sel))
        seqs = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offs_idx, pa.int32()), etypes), ","
        )
        users = uk[offs_idx[:-1]]
        totals = np.bincount(
            np.searchsorted(users, uid), weights=n_part, minlength=len(users)
        ).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "seq20": seqs,
                "n_events": pa.array(totals),
            }
        )

    empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "seq20": pa.array([], pa.string()),
            "n_events": pa.array([], pa.int64()),
        }
    )
    return bucketed_group_apply(
        ev.map_batches(prune, batch_format="pyarrow"),
        ("user_id",),
        assemble,
        empty_result=empty,
    )


SQL_USER_EVENT_SEQ = (
    "WITH e AS (SELECT user_id, event_type,"
    " row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,"
    " count(*) OVER (PARTITION BY user_id) AS n_events FROM events) "
    "SELECT user_id, string_agg(event_type, ',' ORDER BY rn) AS seq20,"
    " max(n_events) AS n_events FROM e WHERE rn <= 20 GROUP BY user_id"
)


# ---------------------------------------------------------------------------
# per-group winsorization (exact histogram quantiles, broadcast bounds)
# ---------------------------------------------------------------------------


def q_doc_winsorize(sf_dir: str):
    """Winsorize ``n_chars`` per language to its exact [p5, p95]
    (percentile_disc semantics) — the robust feature-scaling pass a
    quality model wants before training on length features.

    Scale shape: the per-(lang, n_chars) COUNT histogram is
    value-cardinality-bounded (the len_quantiles / robust_outliers
    trick), so exact per-group order statistics come from one bounded
    shuffle + a driver-side cumsum walk over <= |langs| x |distinct
    lengths| rows; the bounds then broadcast into a map-side clip —
    the row stream is touched exactly twice, never sorted."""
    from ..stages.groupagg import value_histogram

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    bounds = {}
    for lang, (vs, cnts) in value_histogram(docs, "lang", "n_chars").items():
        cum = np.cumsum(cnts)
        total = int(cum[-1])
        lo = vs[int(np.searchsorted(cum, max(1, int(np.ceil(0.05 * total)))))]
        hi = vs[int(np.searchsorted(cum, max(1, int(np.ceil(0.95 * total)))))]
        bounds[str(lang)] = (int(lo), int(hi))
    bounds_ref = ray.put(bounds)

    def clip(batch: pa.Table) -> pa.Table:
        b = ray.get(bounds_ref)
        enc = pc.dictionary_encode(batch.column("lang").combine_chunks())
        lo = np.array([b[str(s)][0] for s in enc.dictionary.to_pylist()], np.int64)
        hi = np.array([b[str(s)][1] for s in enc.dictionary.to_pylist()], np.int64)
        g = np.asarray(enc.indices, dtype=np.int64)
        v = batch.column("n_chars").to_numpy(zero_copy_only=False)
        w = np.clip(v, lo[g], hi[g])
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "n_chars": batch.column("n_chars"),
                "n_chars_w": pa.array(w.astype(np.int64)),
            }
        )

    return docs.map_batches(clip, batch_format="pyarrow")


SQL_DOC_WINSORIZE = (
    "WITH b AS (SELECT lang, quantile_disc(n_chars, 0.05) AS lo,"
    " quantile_disc(n_chars, 0.95) AS hi FROM documents GROUP BY lang) "
    "SELECT doc_id, d.lang, n_chars,"
    " CASE WHEN n_chars < lo THEN lo WHEN n_chars > hi THEN hi"
    " ELSE n_chars END AS n_chars_w "
    "FROM documents d JOIN b ON d.lang = b.lang"
)


LAKE_QUERIES = {
    "changelog_apply": q_changelog_apply,
    "tier_lookup": q_tier_lookup,
    "corr_by_nation": q_corr_by_nation,
    "mode_token_by_lang": q_mode_token_by_lang,
    "entropy_by_source": q_entropy_by_source,
    "fk_integrity": q_fk_integrity,
    "user_day_join": q_user_day_join,
    "price_percentiles": q_price_percentiles,
    "incremental_source_stats": q_incremental_source_stats,
    "user_event_seq": q_user_event_seq,
    "doc_winsorize": q_doc_winsorize,
}

LAKE_ORACLE_SQL = {
    "changelog_apply": SQL_CHANGELOG_APPLY,
    "tier_lookup": SQL_TIER_LOOKUP,
    "corr_by_nation": SQL_CORR_BY_NATION,
    "mode_token_by_lang": SQL_MODE_TOKEN_BY_LANG,
    "entropy_by_source": SQL_ENTROPY_BY_SOURCE,
    "fk_integrity": SQL_FK_INTEGRITY,
    "user_day_join": SQL_USER_DAY_JOIN,
    "price_percentiles": SQL_PRICE_PERCENTILES,
    "incremental_source_stats": SQL_INCREMENTAL_SOURCE_STATS,
    "user_event_seq": SQL_USER_EVENT_SEQ,
    "doc_winsorize": SQL_DOC_WINSORIZE,
}
