"""``groupagg.group_topk`` / ``topk_rows`` against DuckDB's
``row_number() OVER (PARTITION BY ... ORDER BY ...) <= k``."""

import collections

import duckdb
import hypothesis
import hypothesis.strategies as st
import pyarrow as pa
import pytest

from ocr_ray.stages import groupagg
from ocr_ray.stages.groupagg import group_topk, topk_rows

_KEY_VALUES = {
    "int": (pa.int64(), st.sampled_from([0, 1, 2, None])),
    "str": (pa.string(), st.sampled_from(["", "a", "b", None])),
}


@st.composite
def topk_cases(draw, max_rows=40):
    """A table with 1-2 int/string key columns (some null), 1-2 order
    columns with ties and a unique ``id``, an order spec ending in ``id``,
    ``k`` and a block count."""
    n = draw(st.integers(0, max_rows))
    column = lambda values: st.lists(values, min_size=n, max_size=n)  # noqa: E731
    direction = st.sampled_from(["ascending", "descending"])
    kinds = draw(st.lists(st.sampled_from(sorted(_KEY_VALUES)), min_size=1, max_size=2))
    cols, keys, order_by = {}, [], []
    for i, kind in enumerate(kinds):
        typ, values = _KEY_VALUES[kind]
        keys.append(f"k{i}")
        cols[f"k{i}"] = pa.array(draw(column(values)), typ)
    for i in range(draw(st.integers(1, 2))):
        cols[f"o{i}"] = pa.array(draw(column(st.integers(0, 2))), pa.int64())
        order_by.append((f"o{i}", draw(direction)))
    cols["id"] = pa.array(draw(st.permutations(range(n))), pa.int64())
    order_by.append(("id", draw(direction)))
    k = draw(st.sampled_from([1, 2, 5]))
    return pa.table(cols), keys, order_by, k, draw(st.integers(1, 8))


def _duckdb_topk(tbl: pa.Table, keys, order_by, k) -> pa.Table:
    order = ", ".join(f"{c} {'DESC' if d == 'descending' else 'ASC'}" for c, d in order_by)
    return duckdb.sql(
        f"SELECT *, row_number() OVER (PARTITION BY {', '.join(keys)} "
        f"ORDER BY {order}) AS rank FROM tbl QUALIFY rank <= {k}"
    ).arrow()


def _rows(tbl: pa.Table) -> list:
    """Rows as comparable dicts, ordered by the unique ``id``."""
    return sorted(tbl.to_pylist(), key=lambda r: r["id"])


def _blocks(tbl: pa.Table, n_blocks: int) -> list[pa.Table]:
    step = -(-tbl.num_rows // n_blocks) or 1
    return [tbl.slice(i * step, step) for i in range(n_blocks)]


def _collect(ds) -> pa.Table | None:
    """The rows of ``ds`` as one table, None when it has none (Ray hands an
    empty bucket back as a block with no schema)."""
    import ray

    tbls = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tbls) if tbls else None


@hypothesis.given(topk_cases(max_rows=80))
@hypothesis.settings(max_examples=200, deadline=None)
def test_topk_rows_matches_duckdb(case):
    tbl, keys, order_by, k, _ = case
    got = topk_rows(tbl, keys, order_by, k)
    assert got.schema == tbl.schema.append(pa.field("rank", pa.int64()))
    assert _rows(got) == _rows(_duckdb_topk(tbl, keys, order_by, k))


@hypothesis.given(topk_cases())
@hypothesis.settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
def test_group_topk_matches_duckdb(ray_session, monkeypatch, case):
    """The result equals DuckDB's and the one-table kernel's whatever the
    block split, and at most ``k`` rows per (block, key) enter the
    shuffle."""
    import ray.data

    tbl, keys, order_by, k, n_blocks = case
    shuffled = []
    real = groupagg.bucketed_map_groups

    def spy(ds, *a, **kw):
        shuffled.append(ds)
        return real(ds, *a, **kw)

    monkeypatch.setattr(groupagg, "bucketed_map_groups", spy)
    ds = ray.data.from_arrow(_blocks(tbl, n_blocks))
    got = _collect(group_topk(ds, keys, order_by, k))

    want = _rows(_duckdb_topk(tbl, keys, order_by, k))
    if got is None:
        assert want == []
    else:
        assert got.schema == tbl.schema.append(pa.field("rank", pa.int64()))
        assert _rows(got) == want
    assert _rows(topk_rows(tbl, keys, order_by, k)) == want
    (partials,) = shuffled
    for block in ray_session.get(partials.to_arrow_refs()):
        if not block.num_rows:
            continue
        per_key = collections.Counter(zip(*(block.column(c).to_pylist() for c in keys)))
        assert all(n <= k for n in per_key.values())


def test_group_topk_empty_input(ray_session):
    """The kernel keeps an empty table's types and adds ``rank``; the
    Dataset form yields no rows."""
    import ray.data

    tbl = pa.table({"k": pa.array([], pa.string()), "id": pa.array([], pa.int64())})
    got = topk_rows(tbl, ["k"], [("id", "ascending")], 2)
    assert got.num_rows == 0
    assert got.schema == tbl.schema.append(pa.field("rank", pa.int64()))
    out = group_topk(ray.data.from_arrow([tbl, tbl]), ["k"], [("id", "ascending")], 2)
    assert _collect(out) is None


@pytest.mark.parametrize(
    "typ, fill",
    [(pa.string(), ""), (pa.int64(), 0)],
)
def test_group_topk_null_key_is_its_own_group(ray_session, typ, fill):
    """``bucket_ids`` hashes a null key like ``''`` / ``0``, so both land
    in one bucket; the kernel must still keep them apart."""
    import ray.data

    tbl = pa.table(
        {
            "k": pa.array([None, fill, None, fill, None], typ),
            "id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        }
    )
    assert len(set(groupagg.bucket_ids(tbl, ["k"], 64))) == 1
    ds = ray.data.from_arrow(_blocks(tbl, 2))
    got = _collect(group_topk(ds, ["k"], [("id", "ascending")], 1))
    assert _rows(got) == [
        {"k": None, "id": 0, "rank": 1},
        {"k": fill, "id": 1, "rank": 1},
    ]
