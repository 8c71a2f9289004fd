"""Scale-behavior properties: host-skew balance, exploded-mode resume,
oversized-page caps, partition determinism, the keyed-bucket shuffle."""

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from ocr_ray import synth
from ocr_ray.pipelines import extraction as ex
from ocr_ray.state import manifest as mf

from . import keyhash_reference as ref


def test_url_hash_partitioning_breaks_host_skew():
    """The synth corpus gives host 0 ~25% of pages (crawl-order clustering);
    key-hash partitioning of the url (``strhash.key_hash``, computed here
    by its scalar reference) must spread them ~uniformly (SURVEY §4 skew
    row, north rule: url-hash partitioning)."""
    n, parts = 6000, 32
    urls = [synth.page_url(i) for i in range(n)]
    hosts = [u.split("//")[1].split(".")[0] for u in urls]
    # skew exists in the input...
    from collections import Counter

    host_counts = Counter(hosts)
    assert host_counts.most_common(1)[0][1] > 0.2 * n
    # ...and is gone after url-hash partitioning
    pids = [ref.partition_id(u, parts) for u in urls]
    pid_counts = np.bincount(pids, minlength=parts)
    assert pid_counts.min() > 0.5 * n / parts
    assert pid_counts.max() < 2.0 * n / parts
    # host 0's pages don't cluster in one partition
    host0_pids = {p for p, h in zip(pids, hosts) if h == "host-000"}
    assert len(host0_pids) == parts


def test_partition_id_deterministic():
    """A url's partition id is a function of the url alone (never Python's
    salted hash) and lies in [0, n)."""
    import pyarrow as pa

    from ocr_ray.pipelines import writer

    urls = ["https://x/y", "anything", "https://x/y"]
    for n in (7, 16):
        got = writer.block_stats(pa.table({"url": urls}), key="url", n_partitions=n)
        want = sorted({ref.partition_id(u, n) for u in urls})
        assert got["partition_id"].to_pylist() == want
        assert all(0 <= p < n for p in want)


def test_exploded_run_and_resume(ray_session, tmp_path_factory):
    """run_extraction(mode='exploded') — the groupby(url) reassembly path —
    must write the same bytes as fused and resume identically, also when
    a url comes back as a recrawl with edited html: one output row per
    input row, never the two crawls' blocks merged into one document."""
    import pyarrow as pa

    corpus = synth.synth_corpus(48)
    recrawl = corpus.slice(0, 1).set_column(
        corpus.schema.get_field_index("html"), "html",
        pa.array([corpus["html"][0].as_py().replace(b"<p>", b"<p>recrawl edited ", 1)]),
    )
    corpus = pa.concat_tables([corpus, recrawl])
    out_f = str(tmp_path_factory.mktemp("fused"))
    out_e = str(tmp_path_factory.mktemp("exploded"))
    ex.run_extraction(corpus, out_f, n_partitions=4, mode="fused")
    ex.run_extraction(corpus, out_e, n_partitions=4, mode="exploded")
    a = ex.read_extracted(out_f)
    b = ex.read_extracted(out_e).select(a.column_names).cast(a.schema)
    assert a.num_rows == 49
    assert a.equals(b)
    stats = ex.run_extraction(corpus, out_e, n_partitions=4, mode="exploded")
    assert stats == {"extracted": 0, "skipped_partitions": 4}


_EXPLODED_LIVENESS_SCRIPT = """
import json, tempfile, time

import pyarrow as pa
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
import ray.data

ray.data.DataContext.get_current().enable_progress_bars = False
from ocr_ray import synth
from ocr_ray.pipelines import extraction as ex

corpus = synth.synth_corpus(60)
corpus = pa.concat_tables([corpus, corpus.slice(0, 3)])
with tempfile.TemporaryDirectory() as tmp:
    out_f, out_e = tmp + "/fused", tmp + "/exploded"
    ex.run_extraction(corpus, out_f, n_partitions=8)
    t0 = time.perf_counter()
    full = ex.run_extraction(corpus, out_e, n_partitions=8, mode="exploded")
    t1 = time.perf_counter()
    noop = ex.run_extraction(corpus, out_e, n_partitions=8, mode="exploded")
    t2 = time.perf_counter()
    assert full == {"extracted": 63, "skipped_partitions": 0}, full
    assert noop == {"extracted": 0, "skipped_partitions": 8}, noop
    a = ex.read_extracted(out_f)
    b = ex.read_extracted(out_e).select(a.column_names).cast(a.schema)
    assert a.equals(b)
ray.shutdown()
print(json.dumps({"full_s": t1 - t0, "noop_s": t2 - t1}))
"""


def test_exploded_run_finishes_on_one_cpu():
    """On a 1-CPU Ray cluster an exploded run over 63 pages (three of them
    recrawls) finishes within 10 s and its no-op resume within 5 s, with
    the rows of a fused run: no stage holds the one CPU the stages around
    it need (an actor pool took 20 s and 10 s here).  Runs in its own
    process (own Ray cluster), killed with its whole process group on
    timeout."""
    import json
    import os
    import pathlib
    import signal
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root))
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _EXPLODED_LIVENESS_SCRIPT],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("exploded run did not finish within 120 s on a 1-CPU cluster")
    assert proc.returncode == 0, err[-3000:]
    took = json.loads(out.strip().splitlines()[-1])
    assert took["full_s"] < 10, took
    assert took["noop_s"] < 5, took


def test_max_blocks_cap():
    """Pathological pages are capped (the NMS-tiling analog,
    non_max_suppression.py:105-115): a page with 100k nodes must not
    produce unbounded blocks."""
    from ocr_ray import html_extract as hx

    html = "<html><body>" + "<p>x</p>" * 5000 + "</body></html>"
    root = hx.parse_html(html)
    hx.prepare_tree(root)
    blocks = hx.segment_blocks(root, max_blocks=1000)
    assert len(blocks) == 1000


def test_manifest_digest_order_insensitive():
    digests = ["ab12" * 16, "cd34" * 16, "ef56" * 16]
    assert mf.combine_digests(digests) == mf.combine_digests(reversed(digests))
    assert mf.combine_digests(digests) != mf.combine_digests(digests[:2])


def test_partition_count_change_invalidates_manifests(ray_session, tmp_path_factory):
    """Rerunning with a different n_partitions must NOT trust (or keep)
    manifests committed under the old partitioning — the url->partition
    mapping changed, so a naive skip would silently drop urls."""
    import pyarrow.parquet as pq

    corpus = synth.synth_corpus(48)
    out = str(tmp_path_factory.mktemp("repartitioned"))
    ex.run_extraction(corpus, out, n_partitions=6)
    # rerun with a different partition count: everything recomputed
    stats = ex.run_extraction(corpus, out, n_partitions=4)
    assert stats == {"extracted": 48, "skipped_partitions": 0}
    urls = pq.read_table(out, columns=["url"]).column("url").to_pylist()
    assert len(urls) == len(set(urls)) == 48
    # old-count manifests were purged; only the new ones remain
    assert set(mf.completed_partitions(out, n_partitions=4)) == {0, 1, 2, 3}
    assert mf.completed_partitions(out, n_partitions=6) == {}
    # and a subsequent same-count resume skips everything
    stats2 = ex.run_extraction(corpus, out, n_partitions=4)
    assert stats2 == {"extracted": 0, "skipped_partitions": 4}


def test_random_shuffle_deterministic_permutation(ray_session):
    """O8: seeded random_shuffle is a deterministic permutation — same seed
    twice gives identical order, and the row multiset is unchanged."""
    import pyarrow as pa
    import ray.data

    tbl = pa.table({"x": pa.array(list(range(500)), pa.int64())})
    a = ray.data.from_arrow(tbl).random_shuffle(seed=42).to_pandas()["x"].tolist()
    b = ray.data.from_arrow(tbl).random_shuffle(seed=42).to_pandas()["x"].tolist()
    assert a == b
    assert a != list(range(500))
    assert sorted(a) == list(range(500))


def test_materialize_branch_reuse(ray_session):
    """D9: a materialized mid-pipeline dataset feeds two downstream
    consumers without recomputing upstream (the extract stage runs once)."""
    import pyarrow as pa
    import ray.data

    from ocr_ray import synth
    from ocr_ray.pipelines import extraction as ex

    corpus = synth.synth_corpus(24)
    extracted = ex.extract_pages(
        ray.data.from_arrow(corpus).repartition(4), mode="fused"
    ).materialize()
    n1 = extracted.count()
    digests = extracted.map_batches(
        lambda b: b.select(["digest"]), batch_format="pyarrow"
    ).to_pandas()
    assert n1 == 24 and len(digests) == 24


def test_url_hash_partitioning_breaks_host_skew_corpus():
    """The synth corpus has Zipf host skew (host 0 owns ~25% of pages);
    key-hash partitioning of the url (computed by the scalar reference)
    must spread rows near-uniformly anyway — the explicit-skew-handling
    claim of the north rule."""
    import collections

    from ocr_ray import synth

    corpus = synth.synth_corpus(2400)
    urls = corpus.column("url").to_pylist()
    hosts = collections.Counter(u.split("/")[2] for u in urls)
    assert hosts.most_common(1)[0][1] > len(urls) * 0.2  # skew exists

    n_parts = 32
    parts = collections.Counter(ref.partition_id(u, n_parts) for u in urls)
    mean = len(urls) / n_parts
    assert len(parts) == n_parts
    assert max(parts.values()) < 1.5 * mean  # balanced despite host skew
    assert min(parts.values()) > 0.5 * mean


def test_knn_multi_query_read_is_pushed_down(ray_session, monkeypatch):
    """VERDICT r2 #3: the driver-side read that fetches the 10 query
    vectors must carry a parquet predicate (filters=) — never the whole
    embeddings table."""
    import pyarrow.parquet as pq_mod

    from ocr_ray.pipelines import queries_cur

    real = pq_mod.read_table
    seen = {}

    def checked(*a, **k):
        seen["filters"] = k.get("filters")
        assert k.get("filters"), "driver read of embeddings without a predicate"
        return real(*a, **k)

    monkeypatch.setattr("ocr_ray.pipelines.queries_cur.pq.read_table", checked)
    out = queries_cur.q_knn_multi("/root/testdata/sf0.001")
    assert out.num_rows == 50
    assert seen["filters"] == [("vec_id", "<", 10)]


def test_stratified_sample_partials_bounded(ray_session):
    """VERDICT r2 #4: a dominant stratum must never land as one whole-
    language group task — per-batch partials keep <= k rows per
    (batch, lang).  Pin by running the query over a corpus where one lang
    owns 95% of rows and checking the answer is still the exact top-k."""
    import pyarrow as pa
    import pyarrow.parquet as pq_mod
    import ray.data

    from ocr_ray.pipelines import queries_cur

    import tempfile, os
    n = 4000
    ids = list(range(n))
    langs = ["en"] * int(n * 0.95) + ["fr"] * (n - int(n * 0.95))
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "lang": pa.array(langs, pa.string())})
    with tempfile.TemporaryDirectory() as d:
        pq_mod.write_table(tbl, os.path.join(d, "documents.parquet"))
        out = queries_cur.q_stratified_sample(d).to_pandas()
    assert len(out) == 40  # 20 per lang
    # exact expected top-20 per lang by the Knuth hash
    import numpy as np
    h = (np.asarray(ids, dtype=np.int64) * 2654435761) % 4294967296
    for lang in ("en", "fr"):
        members = [i for i in ids if langs[i] == lang]
        expect = sorted(members, key=lambda i: (h[i], i))[:20]
        got = sorted(out.loc[out["lang"] == lang, "doc_id"].tolist(),
                     key=lambda i: (h[i], i))
        assert got == expect


def test_bucketed_group_agg_matches_native(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Max, Min, Sum

    from ocr_ray.stages.groupagg import bucketed_group_agg

    rng = np.random.default_rng(5)
    n = 5000
    t = pa.table(
        {
            "h1": pa.array(rng.integers(-50, 50, n), pa.int64()),
            "h2": pa.array(rng.integers(0, 7, n), pa.int64()),
            "v": pa.array(rng.integers(-1000, 1000, n), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(8)
    got = (
        bucketed_group_agg(
            ds,
            ["h1", "h2"],
            {"c": ("count", None), "mn": ("min", "v"), "mx": ("max", "v"), "s": ("sum", "v")},
            n_buckets=16,
        )
        .to_pandas()
        .sort_values(["h1", "h2"])
        .reset_index(drop=True)
    )
    want = (
        ds.groupby(["h1", "h2"])
        .aggregate(
            Count(alias_name="c"),
            Min("v", alias_name="mn"),
            Max("v", alias_name="mx"),
            Sum("v", alias_name="s"),
        )
        .to_pandas()
        .sort_values(["h1", "h2"])
        .reset_index(drop=True)
    )
    for col in ("h1", "h2", "c", "mn", "mx", "s"):
        assert got[col].astype("int64").tolist() == want[col].astype("int64").tolist()


def test_bucketed_group_agg_single_key(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ocr_ray.stages.groupagg import bucketed_group_agg

    t = pa.table(
        {
            "k": pa.array([3, 1, 3, 2, 1, 3], pa.int64()),
            "v": pa.array([10, 5, 7, 9, 6, 1], pa.int64()),
        }
    )
    for n_buckets in (1, 4):  # one bucket holds every key; 4 > #keys
        out = (
            bucketed_group_agg(
                ray.data.from_arrow(t).repartition(3),
                ["k"],
                {"c": ("count", None), "s": ("sum", "v")},
                n_buckets=n_buckets,
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert out["k"].tolist() == [1, 2, 3]
        assert out["c"].tolist() == [2, 1, 3]
        assert out["s"].tolist() == [11, 9, 18]


def test_bucketed_group_agg_string_key(ray_session):
    """String GROUP BY keys: bucketing is by content hash, grouping is by
    exact string equality (dictionary codes) — results must match a pandas
    groupby bit-for-bit, for one- and two-key (string x int) layouts."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ocr_ray.stages.groupagg import bucketed_group_agg

    rng = np.random.default_rng(11)
    words = np.array(["alpha", "beta", "gamma", "", "delta-é中"])
    k = words[rng.integers(0, len(words), 400)]
    g = rng.integers(0, 3, 400)
    v = rng.integers(-50, 50, 400)
    t = pa.table(
        {
            "k": pa.array(k, pa.string()),
            "g": pa.array(g, pa.int64()),
            "v": pa.array(v, pa.int64()),
        }
    )
    df = t.to_pandas()

    out = (
        bucketed_group_agg(
            ray.data.from_arrow(t).repartition(7),
            ["k"],
            {"c": ("count", None), "s": ("sum", "v"), "mn": ("min", "v")},
            n_buckets=8,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        df.groupby("k", sort=True)
        .agg(c=("v", "size"), s=("v", "sum"), mn=("v", "min"))
        .reset_index()
    )
    assert out["k"].tolist() == want["k"].tolist()
    for col in ("c", "s", "mn"):
        assert out[col].astype("int64").tolist() == want[col].astype("int64").tolist()

    out2 = (
        bucketed_group_agg(
            ray.data.from_arrow(t).repartition(5),
            ["k", "g"],
            {"s": ("sum", "v")},
            n_buckets=8,
        )
        .to_pandas()
        .sort_values(["k", "g"])
        .reset_index(drop=True)
    )
    want2 = (
        df.groupby(["k", "g"], sort=True).agg(s=("v", "sum")).reset_index()
    )
    assert out2["k"].tolist() == want2["k"].tolist()
    assert out2["g"].astype("int64").tolist() == want2["g"].astype("int64").tolist()
    assert out2["s"].astype("int64").tolist() == want2["s"].astype("int64").tolist()

    # string key AND string value min/max through the dictionary-rank lane
    t3 = pa.table(
        {
            "k": pa.array(k, pa.string()),
            "w": pa.array(words[rng.integers(0, len(words), 400)], pa.string()),
        }
    )
    out3 = (
        bucketed_group_agg(
            ray.data.from_arrow(t3).repartition(4),
            ["k"],
            {"wmax": ("max", "w")},
            n_buckets=8,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want3 = (
        t3.to_pandas().groupby("k", sort=True).agg(wmax=("w", "max")).reset_index()
    )
    assert out3["k"].tolist() == want3["k"].tolist()
    assert out3["wmax"].tolist() == want3["wmax"].tolist()


def test_tree_merge_partials_equals_driver_fold(ray_session):
    """The in-cluster tree merge must produce the same merged sketch as a
    driver loop over every partial, for an associative/commutative
    combine (register max), regardless of block structure."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ocr_ray.stages.groupagg import tree_merge_partials

    rng = np.random.default_rng(7)
    partials = [rng.integers(0, 32, 64, dtype=np.int64) for _ in range(37)]
    tbl = pa.table(
        {"regs": pa.array([p.tobytes() for p in partials], pa.binary())}
    )
    ds = ray.data.from_arrow(tbl).repartition(9)

    def merge_regs(t: pa.Table) -> pa.Table:
        bufs = t.column("regs").to_pylist()
        if not bufs:
            return t
        acc = np.maximum.reduce(
            [np.frombuffer(b, dtype=np.int64) for b in bufs]
        )
        return pa.table({"regs": pa.array([acc.tobytes()], pa.binary())})

    rows = tree_merge_partials(ds, merge_regs, n_buckets=5)
    assert 1 <= len(rows) <= 5  # bounded by n_buckets, never #partials
    acc = np.zeros(64, dtype=np.int64)
    for r in rows:
        acc = np.maximum(acc, np.frombuffer(r["regs"], dtype=np.int64))
    expect = np.maximum.reduce(partials)
    assert (acc == expect).all()


def test_tree_merge_partials_empty_input(ray_session):
    import pyarrow as pa
    import ray.data

    from ocr_ray.stages.groupagg import tree_merge_partials

    ds = ray.data.from_arrow(pa.table({"regs": pa.array([], pa.binary())}))

    def merge_regs(t: pa.Table) -> pa.Table:
        return t  # nothing to fold

    assert tree_merge_partials(ds, merge_regs) == []


_KEY_ROWS = st.lists(
    st.tuples(
        st.integers(-(2**63), 2**63 - 1),
        st.one_of(st.none(), st.text(max_size=12)),
    ),
    min_size=1,
    max_size=60,
)


@hypothesis.given(_KEY_ROWS, st.integers(1, 300))
@hypothesis.settings(max_examples=60, deadline=None)
def test_bucket_ids_depend_only_on_key_values(rows, n_buckets):
    """A row's bucket is a function of its key values alone: the same ids
    for the whole table, any batch split, and a many-chunk column; equal
    keys share a bucket; every id lies in [0, n_buckets).  Covers int
    (negative and extreme), string (non-ASCII, empty, null) and mixed
    int x string two-key lanes; binary and large_binary keys bucket like
    the string of the same bytes."""
    import pyarrow as pa

    from ocr_ray.stages.groupagg import bucket_ids

    ints = [r[0] for r in rows]
    strs = [r[1] for r in rows]
    t = pa.table(
        {
            "i": pa.array(ints, pa.int64()),
            "s": pa.array(strs, pa.string()),
            "other": pa.array(range(len(rows)), pa.int64()),
        }
    )
    cut = len(rows) // 2
    chunked = pa.table(
        {
            "i": pa.chunked_array([ints[:cut], ints[cut:]], pa.int64()),
            "s": pa.chunked_array([strs[:1], strs[1:]], pa.string()),
        }
    )
    for keys in (["i"], ["s"], ["i", "s"], ["s", "i"]):
        whole = bucket_ids(t, keys, n_buckets)
        assert whole.dtype == np.int64 and len(whole) == len(rows)
        assert ((whole >= 0) & (whole < n_buckets)).all()
        split = np.concatenate(
            [bucket_ids(t.slice(0, cut), keys, n_buckets),
             bucket_ids(t.slice(cut), keys, n_buckets)]
        )
        assert (split == whole).all()
        assert (bucket_ids(chunked, keys, n_buckets) == whole).all()
        # without the unrelated column, and row by row
        assert (bucket_ids(t.select(keys), keys, n_buckets) == whole).all()
        one = [int(bucket_ids(t.slice(j, 1), keys, n_buckets)[0]) for j in range(len(rows))]
        assert one == whole.tolist()
        seen = {}
        for key, b in zip(zip(*(t[k].to_pylist() for k in keys)), whole.tolist()):
            # a null string key buckets like ''
            key = tuple("" if v is None else v for v in key)
            assert seen.setdefault(key, b) == b
    raw = [None if v is None else v.encode() for v in strs]
    for typ in (pa.binary(), pa.large_binary()):
        tb = pa.table({"k": pa.array(raw, typ)})
        assert (bucket_ids(tb, ["k"], n_buckets) == bucket_ids(t, ["s"], n_buckets)).all()


def test_bucket_ids_int_widths_and_spread():
    """int32 and int64 columns holding the same values bucket alike, and
    dense ids (the worst case for a bare modulus of a structured hash)
    spread over every bucket."""
    import pyarrow as pa

    from ocr_ray.stages.groupagg import bucket_ids

    vals = list(range(-500, 500))
    a = bucket_ids(pa.table({"k": pa.array(vals, pa.int32())}), ["k"], 32)
    b = bucket_ids(pa.table({"k": pa.array(vals, pa.int64())}), ["k"], 32)
    assert (a == b).all()
    counts = np.bincount(a, minlength=32)
    assert counts.min() > 0.5 * len(vals) / 32
    assert counts.max() < 2.0 * len(vals) / 32


@pytest.mark.parametrize("batch_format", ["pyarrow", "pandas"])
@pytest.mark.parametrize("key_type", ["int", "string"])
@pytest.mark.parametrize("n_buckets", [1, 64])
def test_bucketed_map_groups_matches_groupby(ray_session, batch_format, key_type, n_buckets):
    """bucketed_map_groups(fn) == groupby(key).map_groups(fn) as a sorted
    row set whenever fn groups by exact key equality itself — with every
    key in one bucket (n_buckets=1) and with more buckets than keys; fn
    never sees the ``__bucket`` column."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ocr_ray.stages.groupagg import bucketed_map_groups

    rng = np.random.default_rng(3)
    n = 600
    if key_type == "int":
        k = pa.array(rng.integers(-20, 20, n), pa.int64())
    else:
        words = np.array(["", "a", "b", "é中", "long key " * 3, "z"])
        k = pa.array(words[rng.integers(0, len(words), n)], pa.string())
    t = pa.table({"k": k, "v": pa.array(rng.integers(-100, 100, n), pa.int64())})
    ds = ray.data.from_arrow(t).repartition(5)

    def per_key(g):
        df = g if isinstance(g, pd.DataFrame) else g.to_pandas()
        assert list(df.columns) == ["k", "v"]
        out = df.groupby("k", sort=True).agg(c=("v", "size"), s=("v", "sum")).reset_index()
        return out if batch_format == "pandas" else pa.Table.from_pandas(out, preserve_index=False)

    def rows(d):
        df = d.to_pandas()
        return sorted(zip(df["k"].tolist(), df["c"].tolist(), df["s"].tolist()))

    got = rows(
        bucketed_map_groups(ds, ["k"], per_key, batch_format=batch_format, n_buckets=n_buckets)
    )
    want = rows(ds.groupby("k").map_groups(per_key, batch_format=batch_format))
    assert got == want
    assert sum(c for _, c, _ in got) == n


def test_bucketed_map_groups_calls_fn_once_per_reduce_block(ray_session, tmp_path):
    """64 buckets over 5 input blocks: ``fn`` runs at most once per reduce
    block (the bucket sort keeps 5 blocks), never once per bucket, and
    sees every row exactly once."""
    import pyarrow as pa
    import ray.data

    from ocr_ray.stages.groupagg import bucketed_map_groups

    log = tmp_path / "calls.log"
    t = pa.table({"k": pa.array(np.arange(600) % 97, pa.int64())})
    ds = ray.data.from_arrow([t.slice(i * 120, 120) for i in range(5)])

    def fn(block: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("%d\n" % block.num_rows)
        return block

    out = bucketed_map_groups(ds, ["k"], fn, n_buckets=64).materialize()
    calls = [int(n) for n in log.read_text().split()]
    assert 1 <= len(calls) <= 5, calls
    assert sum(calls) == out.count() == 600
