"""sources/io tests."""

import pyarrow.parquet as pq

from ocr_ray import synth
from ocr_ray.sources.io import read_pages, read_table


def test_read_pages_table_vs_parquet(ray_session, tmp_path):
    corpus = synth.synth_corpus(24)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(corpus, path)
    a = read_pages(corpus, columns=["url", "lang"]).to_pandas()
    b = read_pages(path, columns=["url", "lang"]).to_pandas()
    assert sorted(a.columns) == sorted(b.columns) == ["lang", "url"]
    assert sorted(a["url"]) == sorted(b["url"])


def test_read_table_column_pruning(ray_session):
    ds = read_table("/root/testdata/sf0.001", "documents", columns=["doc_id"])
    assert ds.schema().names == ["doc_id"]
    assert ds.count() == 500


def test_sized_num_blocks_scales_with_bytes(ray_session):
    from ocr_ray.sources.io import sized_num_blocks

    cpus = 4  # conftest session: num_cpus=4
    # tiny: one block
    assert sized_num_blocks(100_000) == 1
    # small: one task per 2 MiB
    assert sized_num_blocks(6 << 20) == 3
    # medium: capped at 4x CPUs
    assert sized_num_blocks(1 << 30) == 4 * cpus
    # huge: one task per 128 MiB dominates the cap
    assert sized_num_blocks(100 << 30) == (100 << 30) // (128 << 20)
    # floor wins when the caller needs map parallelism
    assert sized_num_blocks(100_000, min_blocks=8) == 8


# ---------------------------------------------------------------------------
# extension-dispatch reader registry (round 4)
# ---------------------------------------------------------------------------

def test_read_auto_csv_jsonl_parquet_agree(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq

    from ocr_ray.sources.io import read_auto

    t = pa.table(
        {
            "doc_id": pa.array([3, 1, 2], pa.int64()),
            "text": pa.array(["alpha beta", "gamma", "delta eps"]),
        }
    )
    pq.write_table(t, str(tmp_path / "d.parquet"))
    pacsv.write_csv(t, str(tmp_path / "d.csv"))
    with open(tmp_path / "d.jsonl", "w") as f:
        for row in t.to_pylist():
            import json

            f.write(json.dumps(row) + "\n")

    frames = {
        ext: read_auto(str(tmp_path / f"d.{ext}"))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        for ext in ("parquet", "csv", "jsonl")
    }
    assert frames["csv"].equals(frames["parquet"])
    assert frames["jsonl"].equals(frames["parquet"])
    # column pruning path
    only = read_auto(str(tmp_path / "d.csv"), columns=["text"]).to_pandas()
    assert list(only.columns) == ["text"]


def test_read_auto_txt_and_registry(ray_session, tmp_path):
    from ocr_ray.sources import io as sio

    p = tmp_path / "d.txt"
    p.write_text("line one\nline two\n")
    out = sio.read_auto(str(p)).to_pandas()
    assert list(out.iloc[:, 0]) == ["line one", "line two"]

    import pytest

    with pytest.raises(ValueError, match="no reader registered"):
        sio.read_auto(str(tmp_path / "d.xyz"))

    calls = []
    sio.register_reader("xyz", lambda path, columns: calls.append(path))
    try:
        sio.read_auto(str(tmp_path / "d.xyz"))
        assert calls
    finally:
        del sio.READERS["xyz"]


def test_read_evolved_unifies_schemas(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_ray.sources.io import read_evolved

    # three crawl segments with evolved schemas: added column, widened int
    pq.write_table(
        pa.table({"url": ["a", "b"], "n": pa.array([1, 2], pa.int32())}),
        str(tmp_path / "seg1.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "url": ["c"],
                "n": pa.array([3], pa.int64()),
                "lang": ["en"],
            }
        ),
        str(tmp_path / "seg2.parquet"),
    )
    pq.write_table(pa.table({"url": ["d", "e"]}), str(tmp_path / "seg3.parquet"))

    tbl = read_evolved(str(tmp_path)).take_all()
    by_url = {r["url"]: r for r in tbl}
    assert set(by_url) == {"a", "b", "c", "d", "e"}
    assert by_url["a"]["n"] == 1 and by_url["c"]["n"] == 3
    assert by_url["d"]["n"] is None  # dropped column -> nulls
    assert by_url["c"]["lang"] == "en" and by_url["a"]["lang"] is None
    # schema is the unified one everywhere (int widened)
    ds = read_evolved(str(tmp_path))
    sch = ds.schema()
    assert dict(zip(sch.names, [str(t) for t in sch.types]))["n"] == "int64"


def test_read_evolved_column_pruning_and_errors(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest as _pytest

    from ocr_ray.sources.io import read_evolved

    pq.write_table(pa.table({"url": ["a"], "n": [1]}), str(tmp_path / "s1.parquet"))
    pq.write_table(pa.table({"url": ["b"]}), str(tmp_path / "s2.parquet"))
    rows = read_evolved(str(tmp_path), columns=["url"]).take_all()
    assert sorted(r["url"] for r in rows) == ["a", "b"]
    assert all(set(r) == {"url"} for r in rows)
    with _pytest.raises(ValueError):
        read_evolved(str(tmp_path), columns=["nope"])


def test_read_evolved_type_conflict_raises(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest as _pytest

    from ocr_ray.sources.io import read_evolved

    pq.write_table(pa.table({"x": ["s"]}), str(tmp_path / "a.parquet"))
    pq.write_table(pa.table({"x": [1]}), str(tmp_path / "b.parquet"))
    with _pytest.raises(ValueError):
        read_evolved(str(tmp_path))
