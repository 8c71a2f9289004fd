"""CC-curation operator tests: paragraph-level corpus dedup, per-source
caps, exact distributed quantiles (ocr_ray.pipelines.queries_cc)."""

import numpy as np
import pandas as pd
import pyarrow as pa

from ocr_ray.pipelines import queries_cc as cc


def _docs_ds(rows):
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )


def test_paragraph_dedup_planted(ray_session):
    w = ["w%d" % i for i in range(30)]
    boiler = " ".join("b%d" % i for i in range(10))  # exactly one paragraph
    rows = [
        (0, " ".join(w[:20])),                # two clean paragraphs
        (1, boiler + " " + " ".join(w[20:30])),  # boiler first seen here
        (2, boiler),                           # only the boiler -> drops out
        (3, " ".join(w[10:20])),               # dup of doc 0's 2nd paragraph
    ]
    out = (
        cc.paragraph_dedup(_docs_ds(rows), n_buckets=4)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert list(out.index) == [0, 1]  # docs 2 and 3 fully deduped away
    assert out.loc[0, "text_dedup"] == " ".join(w[:20])
    assert out.loc[0, "n_kept"] == 2
    assert out.loc[1, "text_dedup"] == boiler + " " + " ".join(w[20:30])
    assert out.loc[1, "n_kept"] == 2


def test_paragraph_dedup_keeps_first_occurrence_order(ray_session):
    # same paragraph in many docs -> survives only at the smallest
    # (doc_id, pidx) rank; later docs keep their unique tail paragraphs
    par = " ".join("x%d" % i for i in range(10))
    rows = [(i, par + " " + " ".join("u%d_%d" % (i, j) for j in range(10)))
            for i in range(20)]
    out = cc.paragraph_dedup(_docs_ds(rows), n_buckets=4).to_pandas()
    out = out.set_index("doc_id").sort_index()
    assert len(out) == 20
    assert out.loc[0, "n_kept"] == 2 and out.loc[0, "text_dedup"].startswith(par)
    assert (out.loc[1:, "n_kept"] == 1).all()
    assert not out.loc[1, "text_dedup"].startswith(par)


def test_source_cap(ray_session):
    import ray.data

    t = pa.table(
        {
            "doc_id": pa.array(list(range(100)), pa.int64()),
            "source": pa.array(["hot"] * 80 + ["s%d" % i for i in range(20)]),
        }
    )
    import os
    import tempfile

    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        out = cc.q_source_cap(d).to_pandas()
    hot = out[out["source"] == "hot"]
    assert len(hot) == 10 and list(hot["doc_id"].sort_values()) == list(range(10))
    assert len(out) == 10 + 20  # every small source keeps its single doc


def test_len_quantiles_exact(ray_session):
    import os
    import tempfile

    import pyarrow.parquet as pq

    rng = np.random.RandomState(3)
    langs = np.repeat(["en", "fr"], 500)
    lens = np.concatenate([rng.randint(10, 200, 500), rng.randint(50, 400, 500)])
    t = pa.table(
        {
            "lang": pa.array(langs.tolist()),
            "n_chars": pa.array(lens.astype(np.int64).tolist(), pa.int64()),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        out = cc.q_len_quantiles(d)
    assert len(out) == 2 * len(cc.QUANTILES)
    for lang in ("en", "fr"):
        vals = np.sort(lens[langs == lang])
        for q in cc.QUANTILES:
            want = int(vals[int(np.ceil(q * len(vals))) - 1])
            got = int(
                out[(out["lang"] == lang) & (out["q"] == q)]["value"].iloc[0]
            )
            assert got == want, (lang, q, got, want)


def test_dedup_canonical_picks_longest(ray_session):
    import os
    import tempfile

    import pyarrow.parquet as pq

    # cluster {0,1,2}: near-identical texts, lengths favor doc 1;
    # doc 3 is unrelated (no cluster row at all)
    base = " ".join("tok%d" % i for i in range(40))
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array([base, base + " extra", base + " other", "unrelated words only here"]),
            "n_chars": pa.array([len(base), len(base) + 6, len(base) + 6, 25], pa.int64()),
        }
    )
    import ocr_ray.pipelines.queries_cc as cc

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        out = cc.q_dedup_canonical(d).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert row["cluster_id"] == 0 and row["n_members"] == 3
    # docs 1 and 2 tie on n_chars -> smaller doc_id wins
    assert row["canonical"] == 1


def test_repetition_signals_known_values(ray_session):
    # "a a a b": 4 words, 2 distinct, top word a x3, bigrams (a a)x2,(a b) -> top 2/3
    batch = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["a a a b", "x y"], pa.string()),
        }
    )
    out = cc._repetition_signals(batch).to_pandas().set_index("doc_id")
    assert out.loc[0, "n_words"] == 4
    assert out.loc[0, "distinct_word_frac"] == 0.5
    assert out.loc[0, "top_word_frac"] == 0.75
    assert out.loc[0, "top_bigram_frac"] == round(2 / 3, 4)
    assert out.loc[1, "n_words"] == 2
    assert out.loc[1, "distinct_word_frac"] == 1.0
    assert out.loc[1, "top_word_frac"] == 0.5
    assert out.loc[1, "top_bigram_frac"] == 1.0


def test_repetition_signals_empty_batch(ray_session):
    batch = pa.table(
        {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
    )
    assert cc._repetition_signals(batch).num_rows == 0


def test_url_dedup_canonicalizes_and_keeps_latest(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from ocr_ray import synth

    t = pa.table({"doc_id": pa.array([0, 1, 2, 5], pa.int64())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = cc.q_url_dedup(str(tmp_path)).to_pandas().set_index("url")
    # doc 0: 1 crawl; doc 1: 2 crawls; doc 2 and 5: 3 crawls each
    assert len(out) == 4
    for d, expect in [(0, 1), (1, 2), (2, 3), (5, 3)]:
        u = synth.page_url(d)
        assert "?" not in u and "#" not in u
        assert out.loc[u, "n_crawls"] == expect
        # latest crawl is the highest rev for that doc
        assert out.loc[u, "latest_ts"] == synth.EPOCH_US + (d * 10 + expect - 1) * 1_000_000


def test_source_mix_rates(ray_session, tmp_path):
    import pyarrow.parquet as pq

    n = 400
    t = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "source": pa.array(["src%d" % (i % 4) for i in range(n)], pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = cc.q_source_mix(str(tmp_path)).to_pandas().set_index("source")
    assert out["n_total"].sum() == n
    for s in range(4):
        rate = 10 + 20 * (s % 4)
        grp = [i for i in range(n) if i % 4 == s]
        want = sum(1 for i in grp if (i * 2654435761) % 100 < rate)
        assert out.loc["src%d" % s, "n_kept"] == want


def test_crawl_diff_statuses(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from ocr_ray import synth

    # doc 35: in neither (no row); doc 5: only in B -> added; doc 7: only
    # in A -> removed; doc 3: in both, content rewritten -> changed;
    # doc 1: in both, same -> unchanged
    t = pa.table(
        {
            "doc_id": pa.array([1, 3, 5, 7, 35], pa.int64()),
            "n_chars": pa.array([100, 200, 300, 400, 500], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = cc.q_crawl_diff(str(tmp_path)).to_pandas().set_index("url")["status"]
    assert len(out) == 4
    assert out[synth.page_url(1)] == "unchanged"
    assert out[synth.page_url(3)] == "changed"
    assert out[synth.page_url(5)] == "added"
    assert out[synth.page_url(7)] == "removed"


def test_embed_hash_known_values(ray_session):
    # hash('ab') = (97*31 + 98) % 1024 = 33 -> dim 33 % 16 = 1
    # hash('a')  = 97 -> dim 97 % 16 = 1 (un-modded seed, same as DuckDB
    # list_reduce where the first codepoint seeds the accumulator)
    batch = pa.table(
        {
            "doc_id": pa.array([0], pa.int64()),
            "text": pa.array(["ab a ab"], pa.string()),
        }
    )
    out = cc._embed_hash_batch(batch).to_pandas()
    assert out.loc[0, "d1"] == 3  # both words land in dim 1
    assert out.drop(columns=["doc_id"]).sum(axis=1).iloc[0] == 3


def test_word_dims_matches_duckdb_fold(ray_session):
    import duckdb

    words = ["the", "data", "x", "merge", "é-mixed", "longerword123"]
    got = cc._word_dims(words)
    con = duckdb.connect()
    for w, g in zip(words, got):
        want = con.execute(
            "SELECT list_reduce(list_transform(string_split(?, ''),"
            " c -> ascii(c)), (a, b) -> (a * 31 + b) % 1024) % 16",
            [w],
        ).fetchone()[0]
        assert g == want, w


def test_tfidf_by_source_distinctive_terms(ray_session, tmp_path):
    import pyarrow.parquet as pq

    # 'alpha' only in src0 (df=1), 'shared' in both (df=2); N=2 sources
    # src0 scores: alpha tf=2 * (1+2-1)=4; shared tf=1 * (1+2-2)=1
    t = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "source": pa.array(["src0", "src1"], pa.string()),
            "text": pa.array(["alpha alpha shared", "shared beta"], pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = (
        cc.q_tfidf_by_source(str(tmp_path))
        .to_pandas()
        .sort_values(["source", "rank"])
        .reset_index(drop=True)
    )
    s0 = out[out["source"] == "src0"]
    assert list(s0["word"]) == ["alpha", "shared"]
    assert list(s0["score"]) == [4, 1]
    assert list(s0["rank"]) == [1, 2]
    s1 = out[out["source"] == "src1"]
    assert list(s1["word"]) == ["beta", "shared"]
    assert list(s1["score"]) == [2, 1]


def test_substring_dedup_planted_window(ray_session, tmp_path):
    import pyarrow.parquet as pq

    w = ["w%d" % i for i in range(30)]
    shared = " ".join(w[:10])  # a 10-word window shared by docs 0 and 1
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    shared + " " + " ".join(w[10:15]),  # windows 0..5 (6 wins)
                    " ".join(w[15:20]) + " " + shared,  # shared at offset 5
                    " ".join(w[20:30]),                 # 10 unique words, 1 win
                    "too short",                        # < 10 words: no row
                ]
            ),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = cc.q_substring_dedup(str(tmp_path)).to_pandas().set_index("doc_id")
    assert 3 not in out.index
    assert out.loc[0, "n_windows"] == 6 and out.loc[0, "n_dup_windows"] == 1
    assert out.loc[1, "n_windows"] == 6 and out.loc[1, "n_dup_windows"] == 1
    assert out.loc[2, "n_windows"] == 1 and out.loc[2, "n_dup_windows"] == 0


def test_curation_neardup_keeps_canonical_and_unclustered(ray_session, tmp_path):
    import pyarrow.parquet as pq

    base = " ".join("tok%d" % i for i in range(40))
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [base, base + " extra", base + " other", "unrelated words only here"]
            ),
            "n_chars": pa.array([len(base), len(base) + 6, len(base) + 6, 25], pa.int64()),
            "source": pa.array(["s0"] * 4, pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = cc.q_curation_neardup(str(tmp_path)).to_pandas()
    # cluster {0,1,2} -> canonical 1 (longest, tie -> smaller id); doc 3 unclustered
    assert sorted(out["doc_id"]) == [1, 3]
    assert set(out["source"]) == {"s0"}


def test_registered_query_runs_once(ray_session, tmp_path, plan_runs):
    """A registered query hands back an executed Dataset: collecting it
    (``to_arrow_refs``, ``to_pandas``) starts no further plan run."""
    import pyarrow.parquet as pq
    from ray.data.dataset import MaterializedDataset

    from ocr_ray.pipelines.queries import QUERIES

    base = " ".join("tok%d" % i for i in range(40))
    texts = [base, base + " extra", base + " other"] + [
        " ".join("w%d_%d" % (i, j) for j in range(8)) for i in range(9)
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
            "source": pa.array(["s%d" % (i % 3) for i in range(len(texts))]),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = QUERIES["curation_neardup"](str(tmp_path))
    assert isinstance(out, MaterializedDataset)
    ran = len(plan_runs)
    blocks = [t for t in ray_session.get(out.to_arrow_refs()) if t.num_rows]
    df = out.to_pandas()
    assert plan_runs[ran:] == []
    got = pa.concat_tables(blocks)
    assert df["doc_id"].tolist() == got.column("doc_id").to_pylist()
    assert sorted(got.column("doc_id").to_pylist()) == [1] + list(range(3, 12))


def test_doc_zscore_known_values(ray_session, tmp_path):
    import pyarrow.parquet as pq

    # lang en: lengths 10, 20 -> mu 15, sd 5 -> z = -1, +1
    # lang fr: single doc -> sd 0 -> z = 0
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "lang": pa.array(["en", "en", "fr"], pa.string()),
            "n_chars": pa.array([10, 20, 7], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = cc.q_doc_zscore(str(tmp_path)).to_pandas().set_index("doc_id")
    assert out.loc[0, "z_len"] == -1.0
    assert out.loc[1, "z_len"] == 1.0
    assert out.loc[2, "z_len"] == 0.0


def test_doc_len_rank_known_values(ray_session, tmp_path):
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "lang": pa.array(["en", "en", "en", "fr"], pa.string()),
            "n_chars": pa.array([10, 20, 20, 7], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = cc.q_doc_len_rank(str(tmp_path)).to_pandas().set_index("doc_id")
    assert out.loc[0, "n_less"] == 0 and out.loc[0, "n_total"] == 3
    # ties: both 20-char docs have exactly one shorter doc
    assert out.loc[1, "n_less"] == 1 and out.loc[2, "n_less"] == 1
    assert out.loc[3, "n_less"] == 0 and out.loc[3, "n_total"] == 1


# ---------------------------------------------------------------------------
# skyline + inverted index (round 4)
# ---------------------------------------------------------------------------

def test_skyline_2d_vs_bruteforce():
    import numpy as np

    from ocr_ray.pipelines.queries_cc import skyline_2d

    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 60))
        x = rng.integers(0, 12, n).astype(np.int64)
        y = rng.integers(0, 12, n).astype(np.int64)
        pts = set(zip(x.tolist(), y.tolist()))
        want = sorted(
            p
            for p in pts
            if not any(
                q[0] >= p[0] and q[1] >= p[1] and q != p for q in pts
            )
        )
        xs, ys = skyline_2d(x, y)
        got = sorted(zip(xs.tolist(), ys.tolist()))
        assert got == want


def test_skyline_merge_property():
    import numpy as np

    from ocr_ray.pipelines.queries_cc import skyline_2d

    rng = np.random.default_rng(13)
    x = rng.integers(0, 100, 200).astype(np.int64)
    y = rng.integers(0, 100, 200).astype(np.int64)
    whole = skyline_2d(x, y)
    ax, ay = skyline_2d(x[:90], y[:90])
    bx, by = skyline_2d(x[90:], y[90:])
    merged = skyline_2d(
        np.concatenate([ax, bx]), np.concatenate([ay, by])
    )
    assert merged[0].tolist() == whole[0].tolist()
    assert merged[1].tolist() == whole[1].tolist()


def test_inverted_index_planted(ray_session, tmp_path):
    import pyarrow.parquet as pq2

    from ocr_ray.pipelines.queries_cc import q_inverted_index

    t = pa.table(
        {
            "doc_id": pa.array([5, 9, 2, 7], pa.int64()),
            "text": pa.array(
                [
                    "apple banana apple",
                    "banana cherry",
                    "apple",
                    "banana banana date",
                ]
            ),
        }
    )
    pq2.write_table(t, str(tmp_path / "documents.parquet"))
    out = q_inverted_index(str(tmp_path)).to_pandas().set_index("token")
    # df counts distinct DOCS (apple appears 3x in doc 5 but df=2)
    assert out.loc["apple", "df"] == 2
    assert out.loc["apple", "postings"] == "2,5"
    assert out.loc["banana", "df"] == 3
    assert out.loc["banana", "postings"] == "5,7,9"
    assert out.loc["cherry", "postings"] == "9"
    assert out.loc["date", "postings"] == "7"
    assert list(out.index) == sorted(out.index)


def test_top_bigrams_planted(ray_session, tmp_path):
    import pyarrow.parquet as pq2

    from ocr_ray.pipelines.queries_cc import q_top_bigrams

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "a b a b c",   # bigrams: (a,b)x2? -> a b, b a, a b, b c
                    "a b",
                    "x",           # single token: contributes no bigram
                ]
            ),
        }
    )
    pq2.write_table(t, str(tmp_path / "documents.parquet"))
    out = q_top_bigrams(str(tmp_path))
    rows = {(r.w1, r.w2): (r.n_bigram, r.n_w1, r.n_w2) for r in out.itertuples()}
    assert rows[("a", "b")] == (3, 3, 3)   # a appears 3x, b 3x overall
    assert rows[("b", "a")] == (1, 3, 3)
    assert rows[("b", "c")] == (1, 3, 1)
    # no cross-document bigram (b,a) from doc0->doc1 boundary beyond doc0's own
    assert sum(n for n, _, _ in rows.values()) == 5
    # ordering: count desc, then lexicographic
    assert list(out[["w1", "w2"]].itertuples(index=False, name=None))[0] == ("a", "b")


def test_profile_table_planted(ray_session, tmp_path):
    import pyarrow.parquet as pq2

    from ocr_ray.pipelines.queries_cc import q_profile_table

    t = pa.table(
        {
            "doc_id": pa.array([10, 2, 33, 2], pa.int64()),
            "lang": pa.array(["en", None, "de", "en"]),
            "n_chars": pa.array([5, 100, 9, 5], pa.int64()),
            "source": pa.array(["a", "b", "a", "a"]),
        }
    )
    pq2.write_table(t, str(tmp_path / "documents.parquet"))
    out = q_profile_table(str(tmp_path)).set_index("col_name")
    assert out.loc["doc_id"].tolist() == [0, 3, "2", "33"]  # numeric, not lexical
    assert out.loc["lang"].tolist() == [1, 2, "de", "en"]   # nulls excluded
    assert out.loc["n_chars"].tolist() == [0, 3, "5", "100"]
    assert out.loc["source"].tolist() == [0, 2, "a", "b"]
    assert list(out.index) == ["doc_id", "lang", "n_chars", "source"]


def test_doc_outliers_band_edges(ray_session, tmp_path):
    import pyarrow.parquet as pq2

    from ocr_ray.pipelines.queries_cc import q_doc_outliers

    # 20 docs, lengths 1..20, one lang: p05 = ceil(0.05*20)=1st value = 1,
    # p95 = ceil(0.95*20)=19th value = 19 -> outliers are strictly > 19
    t = pa.table(
        {
            "doc_id": pa.array(range(20), pa.int64()),
            "lang": pa.array(["en"] * 20),
            "n_chars": pa.array(range(1, 21), pa.int64()),
            "text": pa.array(["x"] * 20),
            "source": pa.array(["s"] * 20),
        }
    )
    pq2.write_table(t, str(tmp_path / "documents.parquet"))
    out = q_doc_outliers(str(tmp_path)).to_pandas()
    assert out["n_chars"].tolist() == [20]   # only the value above p95
    assert out["doc_id"].tolist() == [19]
