"""Kernel-level gates for the web/crawl-lifecycle family (queries_web):
the exact edit-distance<=1 verifier, the deletion-neighborhood candidate
property, the NTILE uneven-bucket formula, weighted-median semantics, and
SCD-2 interval invariants.  The oracle equality gate for the full queries
lives in test_queries_oracle.py (PICKS) and tools/check_queries.py.
"""

import numpy as np
import pandas as pd
import pytest

from ocr_ray.pipelines.queries_web import (
    NTILE_N,
    SCD_OPEN_US,
    _del1,
    _dist_le_1,
)


def _lev(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    dp = list(range(lb + 1))
    for i in range(1, la + 1):
        prev, dp[0] = dp[0], i
        for j in range(1, lb + 1):
            cur = min(
                dp[j] + 1, dp[j - 1] + 1, prev + (a[i - 1] != b[j - 1])
            )
            prev, dp[j] = dp[j], cur
    return dp[lb]


WORDS = ["sort", "sore", "sorts", "ort", "sord", "tors", "", "a", "ab", "abc",
         "acb", "merge", "marge", "mergee", "mrege", "window", "widow"]


def test_dist_le_1_matches_full_levenshtein():
    for a in WORDS:
        for b in WORDS:
            assert _dist_le_1(a, b) == (_lev(a, b) <= 1), (a, b)


def test_del1_neighborhood_is_complete_for_distance_1():
    # SymSpell candidate rule: lev(a,b)<=1 implies the del-1 neighborhoods
    # (including self) intersect — so index probing never misses a match
    for a in WORDS:
        for b in WORDS:
            if _lev(a, b) <= 1:
                na = set(_del1(a) + [a])
                nb = set(_del1(b) + [b])
                assert na & nb, (a, b)


def _ntile_formula(rank: np.ndarray, total: np.ndarray) -> np.ndarray:
    q8, rem = total // NTILE_N, total % NTILE_N
    boundary = (q8 + 1) * rem
    return np.where(
        rank < boundary,
        rank // np.maximum(q8 + 1, 1),
        rem + (rank - boundary) // np.maximum(q8, 1),
    ) + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 100, 101, 102, 103])
def test_ntile_formula_matches_sql_semantics(n):
    # NTILE(k): first (n % k) tiles get ceil(n/k) rows, the rest floor(n/k)
    ranks = np.arange(n, dtype=np.int64)
    tiles = _ntile_formula(ranks, np.full(n, n, dtype=np.int64))
    sizes = pd.Series(tiles).value_counts().sort_index()
    q8, rem = divmod(n, NTILE_N)
    expect = [q8 + 1] * rem + [q8] * (NTILE_N - rem)
    expect = [s for s in expect if s > 0]
    assert sizes.tolist() == expect
    # tiles are monotone in rank
    assert (np.diff(tiles) >= 0).all()


def test_pages_scd_interval_invariants(ray_session):
    from ocr_ray.pipelines.queries_web import q_pages_scd

    df = q_pages_scd("/root/testdata/sf0.001").to_pandas()
    # per url: versions contiguous from 0, exactly one open/current row,
    # intervals chain exactly (valid_to of v == valid_from of v+1)
    for url, g in df.groupby("url"):
        g = g.sort_values("version")
        assert g["version"].tolist() == list(range(len(g)))
        assert int(g["is_current"].sum()) == 1
        assert bool(g["is_current"].iloc[-1])
        assert g["valid_to"].iloc[-1] == SCD_OPEN_US
        chain = g["valid_to"].to_numpy()[:-1] == g["valid_from"].to_numpy()[1:]
        assert chain.all()


def test_extract_tables_drops_constant_column_and_types():
    from ocr_ray.html_extract import extract_tables
    from ocr_ray.synth import TABLE_ROWS, table_page_html

    tables = extract_tables(table_page_html(17))
    assert len(tables) == 1
    rows = tables[0]
    assert len(rows) == TABLE_ROWS
    for k, row in enumerate(rows):
        assert set(row) == {"name", "val"}  # 'fixed' (constant) dropped
        assert row["name"] == "row{}".format(k)
        assert int(row["val"]) == (31 * 17 + 7 * k) % 100


def test_extract_anchors_pairs_href_with_text():
    from ocr_ray.html_extract import extract_anchors
    from ocr_ray.synth import link_page_html

    anchors = extract_anchors(link_page_html(5))
    internal = [(h, t) for h, t in anchors if h.startswith("/page/")]
    assert len(internal) == 3
    for href, text in internal:
        assert text == "related " + href[6:]


def test_pages_asof_selects_unique_live_version(ray_session):
    from ocr_ray.pipelines.queries_web import ASOF_T_US, q_pages_asof

    df = q_pages_asof("/root/testdata/sf0.001").to_pandas()
    # exactly one live version per url, and it was live at T
    assert df["url"].is_unique
    assert (df["valid_from"] <= ASOF_T_US).all()


def test_props_stats_json_fallback_handles_irregular_json(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_ray.pipelines.queries_web import q_props_stats

    # rows 0/1 take the vectorized regex path; rows 2/3 force the
    # json.loads fallback (whitespace before colon, nested field order)
    tbl = pa.table(
        {
            "event_type": ["a", "a", "b", "b"],
            "props": [
                '{"k": 7}',
                '{"k": 3}',
                '{ "k" : 5 }',
                '{"other": 1, "k"  :  2}',
            ],
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    df = (
        q_props_stats(str(tmp_path))
        .to_pandas()
        .set_index("event_type")
        .sort_index()
    )
    assert df.loc["a", "sum_k"] == 10 and df.loc["a", "max_k"] == 7
    assert df.loc["b", "sum_k"] == 7 and df.loc["b", "max_k"] == 5
    assert (df["n"] == 2).all()


def test_item_cooccurrence_matches_bruteforce(ray_session):
    import itertools

    import duckdb

    from ocr_ray.pipelines.queries_web import q_item_cooccurrence

    got = (
        q_item_cooccurrence("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values(["item_a", "item_b"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    ui = con.execute(
        "SELECT DISTINCT user_id, CAST(json_extract(props, '$.k') AS BIGINT) AS item"
        " FROM read_parquet('/root/testdata/sf0.001/events.parquet')"
    ).df()
    counts: dict = {}
    for _, g in ui.groupby("user_id"):
        for a, b in itertools.combinations(sorted(g["item"]), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    expect = (
        pd.DataFrame(
            [(a, b, n) for (a, b), n in counts.items()],
            columns=["item_a", "item_b", "n_users"],
        )
        .sort_values(["item_a", "item_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype("int64"), expect.astype("int64")
    )
    assert (got["item_a"] < got["item_b"]).all()


def test_decayed_value_is_integer_exact_vs_recompute(ray_session):
    import pyarrow.parquet as pq

    from ocr_ray.pipelines.queries_web import DAY_US, DECAY_T_US, q_decayed_value

    got = (
        q_decayed_value("/root/testdata/sf0.001")
        .to_pandas()
        .set_index("user_id")["decayed_units"]
        .sort_index()
    )
    t = pq.read_table(
        "/root/testdata/sf0.001/events.parquet", columns=["user_id", "ts", "value"]
    )
    ts = t.column("ts").to_numpy().astype("datetime64[us]").view(np.int64)
    units = np.floor(t.column("value").to_numpy() * 10000.0 + 0.5).astype(np.int64)
    age = (DECAY_T_US - ts) // DAY_US
    dec = units >> np.minimum(age, 62)
    expect = (
        pd.DataFrame({"u": t.column("user_id").to_numpy(), "d": dec})
        .groupby("u")["d"]
        .sum()
        .sort_index()
    )
    assert (got.to_numpy() == expect.to_numpy()).all()


def test_resample_bucket_kernel_dense_grid_and_partial_merge():
    """_resample_bucket: dense per-user hour grid, zero-filled gaps, and
    scatter-ADD of duplicate (user, hr) partial cells from different
    upstream batches."""
    from ocr_ray.pipelines.queries_web import _resample_bucket

    g = pd.DataFrame(
        {
            # user 7: hours 100..104 observed at 100 (x2 partials), 102;
            # user 9: single hour (grid of size 1)
            "user_id": [7, 7, 7, 9],
            "hr": [100, 102, 100, 555],
            "n": [2, 5, 3, 1],
        }
    )
    out = (
        _resample_bucket(g)
        .sort_values(["user_id", "hr"])
        .reset_index(drop=True)
    )
    assert out["user_id"].tolist() == [7, 7, 7, 9]
    assert out["hr"].tolist() == [100, 101, 102, 555]
    assert out["n"].tolist() == [5, 0, 5, 1]  # 2+3 merged, gap zero-filled


def test_customer_order_full_has_all_three_row_classes(ray_session):
    """The full-outer join must surface left-only (buyer outside the
    BUILDING segment: acctbal sentinel), right-only (segment customer with
    no orders: n_orders == 0) and matched rows — the semantics a left or
    inner join would silently lose."""
    from ocr_ray.pipelines.queries_web import q_customer_order_full

    df = q_customer_order_full("/root/testdata/sf0.001").to_pandas()
    left_only = (df["acctbal"] == -1.0) & (df["n_orders"] > 0)
    both = (df["n_orders"] > 0) & (df["acctbal"] != -1.0)
    # sf0.001 is dense enough that every segment customer ordered, so the
    # right-only class is pinned on a synthetic full outer below instead
    assert left_only.any() and both.any()
    assert df["custkey"].is_unique

    import ray.data

    from ocr_ray.stages.joins import auto_join

    l = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "a": [10, 20]}))
    r = ray.data.from_pandas(pd.DataFrame({"ck": [2, 3], "b": [200, 300]}))
    out = (
        auto_join(l, r, on="k", right_on="ck", join_type="full_outer")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [1, 2, 3]  # key coalesced across sides
    assert out["a"].isna().tolist() == [False, False, True]
    assert out["b"].isna().tolist() == [True, False, False]


@pytest.mark.parametrize("empty", ["orders", "segment"])
def test_customer_order_full_one_side_empty(ray_session, tmp_path, empty):
    """No orders at all, or no BUILDING customers: the full outer join is
    the other side alone, with the missing side's columns filled."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_ray.pipelines.queries_web import q_customer_order_full

    n_orders = 0 if empty == "orders" else 3
    pq.write_table(
        pa.table({"o_custkey": pa.array([1, 1, 5][:n_orders], pa.int64()),
                  "o_totalprice": pa.array([10.0, 20.0, 7.5][:n_orders])}),
        tmp_path / "orders.parquet",
    )
    seg = "AUTOMOBILE" if empty == "segment" else "BUILDING"
    pq.write_table(
        pa.table({"c_custkey": pa.array([1, 2], pa.int64()),
                  "c_acctbal": pa.array([100.0, 200.0]),
                  "c_mktsegment": pa.array([seg, seg])}),
        tmp_path / "customer.parquet",
    )
    got = q_customer_order_full(str(tmp_path)).to_pandas().sort_values("custkey")
    want = {
        "orders": [[1, 0, -1.0, 100.0], [2, 0, -1.0, 200.0]],
        "segment": [[1, 2, 20.0, -1.0], [5, 1, 7.5, -1.0]],
    }[empty]
    assert got[["custkey", "n_orders", "max_price", "acctbal"]].values.tolist() == want


def test_doc_row_number_is_a_permutation_respecting_order(ray_session):
    from ocr_ray.pipelines.queries_web import q_doc_row_number

    df = q_doc_row_number("/root/testdata/sf0.001").to_pandas()
    n = len(df)
    assert sorted(df["rn"].tolist()) == list(range(1, n + 1))
    import pyarrow.parquet as pq

    lens = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "n_chars"]
    ).to_pandas()
    merged = df.merge(lens, on="doc_id").sort_values("rn")
    key = list(zip(-merged["n_chars"].to_numpy(), merged["doc_id"].to_numpy()))
    assert key == sorted(key)


def test_corr_by_nation_join_fallback_matches_broadcast(ray_session):
    """Size-planning (VERDICT r4 #3): with broadcast_limit=0 the supplier
    dimension must route through the hash join instead of ray.put, and
    the result must be identical to the broadcast path."""
    from ocr_ray.pipelines.queries_lake import _corr_by_nation

    sf = "/root/testdata/sf0.001"
    bcast = (
        _corr_by_nation(sf).to_pandas().sort_values("n_name").reset_index(drop=True)
    )
    joined = (
        _corr_by_nation(sf, broadcast_limit=0)
        .to_pandas()
        .sort_values("n_name")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(bcast, joined)


def test_corr_by_nation_unknown_suppkey_fails_loud(ray_session, tmp_path):
    """A lineitem suppkey missing from supplier must raise, not silently
    attribute the row to a neighboring supplier's nation (broadcast path)
    or drop it (join path, supplier over the broadcast limit)."""
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from ocr_ray.pipelines.queries_lake import _corr_by_nation, q_corr_by_nation

    src = "/root/testdata/sf0.001"
    d = str(tmp_path / "sf")
    shutil.copytree(src, d)
    li = pq.read_table(os.path.join(d, "lineitem.parquet"))
    sk = li.column("l_suppkey").to_pylist()
    sk[0] = 10_000_000  # orphan: past every supplier key
    li = li.set_column(
        li.schema.get_field_index("l_suppkey"), "l_suppkey",
        pa.array(sk, li.schema.field("l_suppkey").type),
    )
    pq.write_table(li, os.path.join(d, "lineitem.parquet"))
    with pytest.raises(Exception, match="not present in supplier"):
        q_corr_by_nation(d).to_pandas()
    with pytest.raises(Exception, match="not present in supplier"):
        _corr_by_nation(d, broadcast_limit=0).to_pandas()
