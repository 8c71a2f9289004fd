"""Join machinery tests: hash join, as-of join, running window."""

import os
import pathlib
import signal
import subprocess
import sys

import pandas as pd
import pytest

from ocr_ray.sources.io import collect_tables
from ocr_ray.stages import joins


def test_hash_join(ray_session):
    import ray.data

    left = ray.data.from_items(
        [{"k": i % 3, "lv": i} for i in range(9)]
    )
    right = ray.data.from_items([{"rk": 0, "rv": "a"}, {"rk": 1, "rv": "b"}])
    out = joins.hash_join(left, right, on="k", right_on="rk").to_pandas()
    assert len(out) == 6  # k in {0,1} matches 3 rows each
    assert set(out["rv"]) == {"a", "b"}


def test_asof_join(ray_session):
    import ray.data

    orders = ray.data.from_items(
        [
            {"o_id": 1, "cust": 1, "od": pd.Timestamp("2021-01-10")},
            {"o_id": 2, "cust": 1, "od": pd.Timestamp("2021-01-01")},
            {"o_id": 3, "cust": 2, "od": pd.Timestamp("2021-01-05")},
            {"o_id": 4, "cust": 9, "od": pd.Timestamp("2021-01-05")},  # no events
        ]
    )
    events = ray.data.from_items(
        [
            {"u": 1, "ts": pd.Timestamp("2021-01-05")},
            {"u": 1, "ts": pd.Timestamp("2021-01-09")},
            {"u": 2, "ts": pd.Timestamp("2021-01-07")},  # after order 3
        ]
    )
    out = joins.asof_join(
        orders, events,
        left_key="cust", left_ts="od", left_keep=["o_id"],
        right_key="u", right_ts="ts", out_col="last_ts",
    ).to_pandas().set_index("o_id")
    assert out.loc[1, "last_ts"] == pd.Timestamp("2021-01-09")
    assert pd.isna(out.loc[2, "last_ts"])  # no event before 01-01
    assert pd.isna(out.loc[3, "last_ts"])  # event is after the order
    assert pd.isna(out.loc[4, "last_ts"])  # customer has no events


def test_running_window(ray_session):
    import ray.data

    ds = ray.data.from_items(
        [
            {"k": 1, "t": 2, "id": 1, "v": 10.0},
            {"k": 1, "t": 1, "id": 2, "v": 5.0},
            {"k": 2, "t": 1, "id": 3, "v": 7.0},
            {"k": 1, "t": 2, "id": 0, "v": 1.0},  # ts tie -> id breaks it
        ]
    )
    out = joins.running_window(
        ds, key="k", order_by=["t", "id"], value="v", out_col="run"
    ).to_pandas().set_index("id")
    assert out.loc[2, "run"] == 5.0
    assert out.loc[0, "run"] == 6.0   # 5 + 1 (id 0 before id 1 at t=2)
    assert out.loc[1, "run"] == 16.0
    assert out.loc[3, "run"] == 7.0


def test_auto_join_shuffle_path_hot_key(ray_session):
    """Force auto_join's shuffle fallback (broadcast_limit=0) on skewed
    data: 80% of the left rows share one key.  The hash join must complete
    and match pandas exactly.  A hot key's whole bucket — both sides' rows —
    sits in one task, the same contract as asof_join: salt hot keys
    upstream when one bucket does not fit a task.
    """
    import numpy as np
    import pyarrow as pa
    import ray.data

    n = 50_000
    rng = np.random.RandomState(5)
    keys = np.where(rng.rand(n) < 0.8, 7, rng.randint(0, 100, n)).astype(np.int64)
    left = ray.data.from_arrow(
        pa.table({"k": keys, "lv": np.arange(n, dtype=np.int64)})
    ).repartition(16)
    right = ray.data.from_arrow(
        pa.table(
            {
                "rk": np.arange(100, dtype=np.int64),
                "rv": [f"r{i}" for i in range(100)],
            }
        )
    )

    out = joins.auto_join(
        left, right, on="k", right_on="rk", broadcast_limit=0
    ).to_pandas()

    expect = pd.merge(
        pd.DataFrame({"k": keys, "lv": np.arange(n, dtype=np.int64)}),
        pd.DataFrame({"rk": np.arange(100), "rv": [f"r{i}" for i in range(100)]}),
        left_on="k",
        right_on="rk",
    )
    assert len(out) == len(expect) == n
    got = out.sort_values("lv").reset_index(drop=True)
    want = expect.sort_values("lv").reset_index(drop=True)
    assert (got["rv"].to_numpy() == want["rv"].to_numpy()).all()
    # the hot key resolved to the right row everywhere
    assert (got.loc[got["k"] == 7, "rv"] == "r7").all()


def test_events_range_join_counts(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_ray.pipelines.queries_rel import q_events_range_join

    base = 1_700_000_000_000_000  # us
    s = 1_000_000
    # user 1: 0s, 100s, 200s, 400s; horizon 300s inclusive at the right edge
    # user 2: one event
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
            "ts": pa.array(
                [base, base + 100 * s, base + 200 * s, base + 400 * s, base],
                pa.timestamp("us"),
            ),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = q_events_range_join(str(tmp_path)).to_pandas().set_index("event_id")
    # anchors: 0s -> {100,200} (300s edge: 400 > 300) = 2; 100s -> {200,400} = 2
    # 200s -> {400} = 1 (exactly not: 200 <= 300, inclusive) ; 400s -> 0
    assert out.loc[1, "n_follow"] == 2
    assert out.loc[2, "n_follow"] == 2
    assert out.loc[3, "n_follow"] == 1
    assert out.loc[4, "n_follow"] == 0
    assert out.loc[5, "n_follow"] == 0


def test_semi_anti_join_broadcast_and_shuffle_paths(ray_session):
    import pyarrow as pa
    import ray.data

    from ocr_ray.stages.joins import semi_anti_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()),
                  "v": pa.array(list("abcd"))})
    )
    right = ray.data.from_arrow(
        pa.table({"rk": pa.array([2, 4, 4], pa.int64())})  # dup key: distinct first
    )
    semi = semi_anti_join(left, right, on="k", right_on="rk").to_pandas()
    anti = semi_anti_join(left, right, on="k", right_on="rk", anti=True).to_pandas()
    assert sorted(semi["k"]) == [2, 4]
    assert sorted(anti["k"]) == [1, 3]
    # forced shuffle path (broadcast_limit=0): same answers, marker dropped
    semi2 = semi_anti_join(
        left, right, on="k", right_on="rk", broadcast_limit=0
    ).to_pandas()
    anti2 = semi_anti_join(
        left, right, on="k", right_on="rk", anti=True, broadcast_limit=0
    ).to_pandas()
    assert sorted(semi2["k"]) == [2, 4] and "__hit" not in semi2.columns
    assert sorted(anti2["k"]) == [1, 3] and "__hit" not in anti2.columns


def test_semi_anti_join_null_left_keys(ray_session):
    """SQL NOT EXISTS KEEPS a left row whose key is NULL (the subquery
    matches nothing); EXISTS drops it.  is_in yields null for null input,
    and an unfilled null mask silently drops the row on BOTH paths."""
    import pyarrow as pa
    import ray.data

    from ocr_ray.stages.joins import semi_anti_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, None, 3], pa.int64()),
                  "v": pa.array(list("abc"))})
    )
    right = ray.data.from_arrow(pa.table({"rk": pa.array([1], pa.int64())}))
    semi = semi_anti_join(left, right, on="k", right_on="rk").to_pandas()
    anti = semi_anti_join(left, right, on="k", right_on="rk", anti=True).to_pandas()
    assert sorted(semi["v"]) == ["a"]
    assert sorted(anti["v"]) == ["b", "c"]  # NULL-key row kept by NOT EXISTS
    anti2 = semi_anti_join(
        left, right, on="k", right_on="rk", anti=True, broadcast_limit=0
    ).to_pandas()
    assert sorted(anti2["v"]) == ["b", "c"]


def test_asof_join_many_keys_one_bucket(ray_session):
    """Many keys landing in shared buckets: the single vectorized
    merge_asof(by='key') per bucket must answer every key exactly
    (brute-force comparison)."""
    import numpy as np
    import ray.data

    rng = np.random.default_rng(3)
    n_keys = 40
    lrows, rrows = [], []
    oid = 0
    for k in range(n_keys):
        for _ in range(3):
            lrows.append(
                {"o_id": oid, "cust": k,
                 "od": pd.Timestamp("2021-01-01") + pd.Timedelta(int(rng.integers(0, 30)), "D")}
            )
            oid += 1
        for _ in range(int(rng.integers(0, 4))):
            rrows.append(
                {"u": k,
                 "ts": pd.Timestamp("2021-01-01") + pd.Timedelta(int(rng.integers(0, 30)), "D")}
            )
    out = joins.asof_join(
        ray.data.from_items(lrows), ray.data.from_items(rrows),
        left_key="cust", left_ts="od", left_keep=["o_id"],
        right_key="u", right_ts="ts", out_col="last_ts",
    ).to_pandas().set_index("o_id")
    assert len(out) == len(lrows)
    rts = {}
    for r in rrows:
        rts.setdefault(r["u"], []).append(r["ts"])
    for lr in lrows:
        cand = [t for t in rts.get(lr["cust"], []) if t <= lr["od"]]
        want = max(cand) if cand else None
        got = out.loc[lr["o_id"], "last_ts"]
        if want is None:
            assert pd.isna(got)
        else:
            assert got == want


def test_semi_anti_join_empty_right(ray_session):
    import pyarrow as pa
    import ray.data

    from ocr_ray.stages.joins import semi_anti_join

    left = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    right = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    assert semi_anti_join(left, right, on="k").count() == 0
    assert sorted(
        semi_anti_join(left, right, on="k", anti=True).to_pandas()["k"]
    ) == [1, 2]


def test_events_funnel_strict_ordering(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_ray.pipelines.queries_rel import q_events_funnel

    base = 1_700_000_000_000_000
    s = 1_000_000
    rows = [
        # user 1: view < click < purchase -> completes
        (1, base + 1 * s, "view"), (1, base + 2 * s, "click"), (1, base + 3 * s, "purchase"),
        # user 2: click BEFORE view, purchase after view but no click after
        # view -> reaches view only
        (2, base + 1 * s, "click"), (2, base + 2 * s, "view"), (2, base + 3 * s, "purchase"),
        # user 3: view only
        (3, base + 1 * s, "view"),
        # user 4: no view -> never enters
        (4, base + 1 * s, "click"), (4, base + 2 * s, "purchase"),
    ]
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "event_type": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = q_events_funnel(str(tmp_path)).to_pandas().set_index("step")["n_users"]
    assert out["view"] == 3
    assert out["click"] == 1
    assert out["purchase"] == 1


def test_events_pivot_counts(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_ray.pipelines.queries_rel import q_events_pivot

    t = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2], pa.int64()),
            "event_type": pa.array(["view", "view", "click", "purchase"]),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = q_events_pivot(str(tmp_path)).to_pandas().set_index("user_id")
    assert out.loc[1, "n_view"] == 2 and out.loc[1, "n_click"] == 1
    assert out.loc[1, "n_purchase"] == 0
    assert out.loc[2, "n_purchase"] == 1 and out.loc[2, "n_view"] == 0


def test_docs_rollup_levels(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_ray.pipelines.queries_rel import q_docs_rollup

    t = pa.table(
        {
            "source": pa.array(["s0", "s0", "s1"]),
            "lang": pa.array(["en", "fr", "en"]),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = q_docs_rollup(str(tmp_path)).set_index(["source", "lang"])["n"]
    assert out[("s0", "en")] == 1 and out[("s0", "fr")] == 1
    assert out[("s0", "*")] == 2 and out[("s1", "*")] == 1
    assert out[("*", "*")] == 3


def test_composite_key_join_both_paths(ray_session):
    """auto_join on a composite key: the broadcast path and the forced
    hash path must agree with the pandas merge oracle, including
    non-matching left rows dropped (inner)."""
    import ray.data

    left_rows = [
        {"a": i % 4, "b": "xy"[i % 2], "lv": i} for i in range(20)
    ]
    right_rows = [
        {"a": 0, "b": "x", "rv": 100},
        {"a": 1, "b": "y", "rv": 200},
        {"a": 3, "b": "x", "rv": 300},
        {"a": 7, "b": "z", "rv": 999},  # matches nothing
    ]
    left = ray.data.from_items(left_rows)
    right = ray.data.from_items(right_rows)
    exp = (
        pd.DataFrame(left_rows)
        .merge(pd.DataFrame(right_rows), on=["a", "b"])
        .sort_values("lv")
        .reset_index(drop=True)
    )
    for limit in (joins.BROADCAST_BYTES, 0):  # broadcast, then forced hash
        got = (
            joins.auto_join(left, right, on=["a", "b"], broadcast_limit=limit)
            .to_pandas()
            .sort_values("lv")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["a", "b", "lv", "rv"]], exp[["a", "b", "lv", "rv"]]
        )


def test_composite_key_join_right_on(ray_session):
    """Composite right_on with differently-named key columns resolves and
    does not leak the right key columns into the output."""
    import ray.data

    left = ray.data.from_items([{"a": 1, "b": "x", "lv": 7}])
    right = ray.data.from_items([{"ra": 1, "rb": "x", "rv": 5}])
    got = joins.auto_join(
        left, right, on=["a", "b"], right_on=["ra", "rb"]
    ).to_pandas()
    assert got.to_dict("records") == [{"a": 1, "b": "x", "lv": 7, "rv": 5}]


def _merge_oracle(ldf: pd.DataFrame, rdf: pd.DataFrame, join_type: str) -> pd.DataFrame:
    """pandas spelling of hash_join's output on ``k`` = ``rk``: the key
    coalesces under the left name, except right_outer keeps the right key."""
    if join_type in ("left_semi", "left_anti"):
        hit = ldf["k"].isin(rdf["rk"])
        return ldf[hit if join_type == "left_semi" else ~hit]
    how = {"inner": "inner", "left_outer": "left", "right_outer": "right",
           "full_outer": "outer"}[join_type]
    m = ldf.merge(rdf, left_on="k", right_on="rk", how=how)
    if join_type == "right_outer":
        return m.drop(columns=["k"])
    m["k"] = m["k"].fillna(m["rk"])
    return m.drop(columns=["rk"])


@pytest.mark.parametrize("empty", ["left", "right", "neither"])
@pytest.mark.parametrize(
    "join_type",
    ["inner", "left_outer", "right_outer", "full_outer", "left_semi", "left_anti"],
)
def test_hash_join_empty_side(ray_session, join_type, empty):
    """Every join type with one side empty (and with neither) matches the
    pandas merge oracle, column names and Arrow types included; an empty
    side's payload columns come back as typed nulls."""
    import pyarrow as pa
    import ray

    lt = pa.table({"k": pa.array([1, 2, 3, 3], pa.int64()),
                   "lv": pa.array([10, 20, 30, 31], pa.int64()),
                   "s": pa.array(["a", "b", "c", "d"])})
    rt = pa.table({"rk": pa.array([3, 4, 1], pa.int64()),
                   "rv": pa.array([0.5, 1.5, 2.5], pa.float64())})
    if empty == "left":
        lt = lt.slice(0, 0)
    elif empty == "right":
        rt = rt.slice(0, 0)
    out = joins.hash_join(
        ray.data.from_arrow(lt), ray.data.from_arrow(rt),
        on="k", right_on="rk", join_type=join_type,
    ).materialize()
    # no rows: the executed result still knows its schema
    got = pa.concat_tables(
        collect_tables(out) or [out.schema().base_schema.empty_table()]
    )

    fields = {f.name: f for f in list(lt.schema) + list(rt.schema)}
    names = {
        "right_outer": ["lv", "s", "rk", "rv"],
        "left_semi": ["k", "lv", "s"],
        "left_anti": ["k", "lv", "s"],
    }.get(join_type, ["k", "lv", "s", "rv"])
    assert got.schema == pa.schema([fields[n] for n in names])

    want = _merge_oracle(lt.to_pandas(), rt.to_pandas(), join_type)
    assert list(want.columns) == names
    order = [c for c in ("lv", "rv") if c in names]
    pd.testing.assert_frame_equal(
        got.to_pandas().sort_values(order).reset_index(drop=True),
        want.sort_values(order).reset_index(drop=True),
        check_dtype=False,
    )


def test_hash_join_binary_key(ray_session):
    """A binary join key (content hashes) buckets by its bytes."""
    import pyarrow as pa
    import ray

    left = pa.table({"h": pa.array([b"x", b"y", b"z"], pa.binary()), "lv": [1, 2, 3]})
    right = pa.table({"h": pa.array([b"z", b"x", b"w"], pa.binary()), "rv": [30, 10, 0]})
    got = joins.hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), on="h"
    ).to_pandas().sort_values("lv")
    assert got[["lv", "rv"]].values.tolist() == [[1, 10], [3, 30]]


_LIVENESS_SCRIPT = """
import pyarrow as pa
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
import ray.data

ray.data.DataContext.get_current().enable_progress_bars = False
from ocr_ray.stages import dedup, joins

edges = ray.data.from_arrow(
    pa.table({"a": pa.array([1, 2, 3], pa.int64()), "b": pa.array([2, 3, 4], pa.int64())})
)
nodes = ray.data.from_arrow(
    pa.table({"node": pa.array([1, 2, 3, 4, 5], pa.int64()),
              "name": pa.array(["n1", "n2", "n3", "n4", "n5"])})
)


def rows(ds):
    return sorted(map(tuple, ds.to_pandas().itertuples(index=False)))


results = []
for limit in (joins.BROADCAST_BYTES, 0):
    results.append((
        rows(joins.auto_join(edges, nodes, on="b", right_on="node", broadcast_limit=limit)),
        rows(joins.semi_anti_join(nodes, edges, on="node", right_on="a", anti=True,
                                  broadcast_limit=limit)),
        rows(dedup.connected_components(edges, broadcast_limit=limit)),
    ))
broadcast, shuffle = results
assert shuffle == broadcast, (shuffle, broadcast)
assert broadcast[2] == [(1, 1), (2, 1), (3, 1), (4, 1)], broadcast
ray.shutdown()
print("LIVENESS-OK")
"""


def test_shuffle_joins_finish_on_one_cpu():
    """The shuffle paths of auto_join, semi_anti_join and
    connected_components finish on a 1-CPU Ray cluster within 30 s and
    agree with their broadcast paths.  Runs in its own process (own Ray
    cluster), killed with its whole process group on timeout."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root))
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _LIVENESS_SCRIPT],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("shuffle joins did not finish within 30 s on a 1-CPU cluster")
    assert proc.returncode == 0, err[-3000:]
    assert "LIVENESS-OK" in out
