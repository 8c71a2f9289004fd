"""Kernel property tests for the round-4 training-data assembly ops
(queries_train): RANGE-frame moving window vs a brute-force reference
(both overflow paths), packing invariants, A-ES sampling brute-force
equivalence, CUBE partial-emission equivalence."""

import numpy as np
import pandas as pd

from ocr_ray.pipelines.queries_train import (
    PACK_BLOCK,
    SAMPLE_K,
    WIN_US,
    moving_win_frame,
)


def _brute_frame(base, new_seg, win):
    seg = np.cumsum(new_seg) - 1
    n = len(base)
    lo = np.empty(n, dtype=np.int64)
    hi = np.empty(n, dtype=np.int64)
    for i in range(n):
        in_frame = (seg == seg[i]) & (base >= base[i] - win) & (base <= base[i])
        idx = np.flatnonzero(in_frame)
        lo[i], hi[i] = idx[0], idx[-1] + 1
    return lo, hi


def _random_segments(rng, n_users, max_len, ts_scale):
    bases, segs = [], []
    for _ in range(n_users):
        m = rng.integers(1, max_len)
        ts = np.sort(rng.integers(0, ts_scale, size=m))
        bases.append(ts)
        marks = np.zeros(m, dtype=bool)
        marks[0] = True
        segs.append(marks)
    return np.concatenate(bases), np.concatenate(segs)


def test_moving_win_frame_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(20):
        base, new_seg = _random_segments(rng, 5, 40, 1000)
        win = int(rng.integers(1, 300))
        lo, hi = moving_win_frame(base, new_seg, win)
        blo, bhi = _brute_frame(base, new_seg, win)
        np.testing.assert_array_equal(lo, blo)
        np.testing.assert_array_equal(hi, bhi)


def test_moving_win_frame_fallback_identical():
    rng = np.random.default_rng(11)
    base, new_seg = _random_segments(rng, 8, 30, 10**6)
    win = 5000
    lo_v, hi_v = moving_win_frame(base, new_seg, win)
    lo_f, hi_f = moving_win_frame(base, new_seg, win, force_fallback=True)
    np.testing.assert_array_equal(lo_v, lo_f)
    np.testing.assert_array_equal(hi_v, hi_f)


def test_moving_win_frame_includes_peers():
    # three events at the same ts for one user: every one sees all three
    base = np.array([100, 100, 100], dtype=np.int64)
    new_seg = np.array([True, False, False])
    lo, hi = moving_win_frame(base, new_seg, 10)
    assert (hi - lo).tolist() == [3, 3, 3]


def test_training_pack_invariants(ray_session):
    from ocr_ray.pipelines.queries_train import q_training_pack

    df = q_training_pack("/root/testdata/sf0.001").to_pandas()
    df = df.sort_values("doc_id").reset_index(drop=True)
    # the global stream is dense: next start = start + n_tokens + separator
    nxt = (df["tok_start"] + df["n_tokens"] + 1).to_numpy()[:-1]
    np.testing.assert_array_equal(nxt, df["tok_start"].to_numpy()[1:])
    assert int(df["tok_start"].iloc[0]) == 0
    assert (df["first_block"] == df["tok_start"] // PACK_BLOCK).all()
    last_tok = df["tok_start"] + np.maximum(df["n_tokens"], 1) - 1
    assert (df["last_block"] == last_tok // PACK_BLOCK).all()
    assert (df["last_block"] >= df["first_block"]).all()


def test_weighted_sample_matches_brute_force(ray_session):
    from ocr_ray.pipelines.queries_train import q_weighted_sample

    got = q_weighted_sample("/root/testdata/sf0.001").to_pandas()
    docs = pd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "n_chars"]
    )
    u = (((docs["doc_id"].to_numpy() * 2654435761) % (2**32)) + 0.5) / (2**32)
    key = u ** (1.0 / docs["n_chars"].to_numpy().astype(np.float64))
    exp = docs.assign(skey=key).nlargest(SAMPLE_K, "skey")
    assert set(got["doc_id"]) == set(exp["doc_id"])
    merged = got.merge(exp, on="doc_id", suffixes=("", "_exp"))
    np.testing.assert_allclose(
        merged["skey"], np.round(merged["skey_exp"], 6), atol=1e-9
    )


def test_lineitem_cube_matches_brute_force(ray_session):
    from ocr_ray.pipelines.queries_train import q_lineitem_cube

    got = (
        q_lineitem_cube("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )
    li = pd.read_parquet(
        "/root/testdata/sf0.001/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )
    outs = []
    for cols in (["l_returnflag", "l_linestatus"], ["l_returnflag"], ["l_linestatus"], []):
        if cols:
            g = (
                li.groupby(cols)
                .agg(n=("l_quantity", "size"), sum_qty=("l_quantity", "sum"))
                .reset_index()
            )
        else:
            g = pd.DataFrame({"n": [len(li)], "sum_qty": [li["l_quantity"].sum()]})
        for c in ("l_returnflag", "l_linestatus"):
            if c not in g:
                g[c] = "ALL"
        outs.append(g)
    exp = (
        pd.concat(outs, ignore_index=True)
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )
    assert got["n"].tolist() == exp["n"].tolist()
    np.testing.assert_allclose(got["sum_qty"], np.round(exp["sum_qty"], 2), atol=0.02)
    # grand-total row present exactly once
    assert ((got["l_returnflag"] == "ALL") & (got["l_linestatus"] == "ALL")).sum() == 1


def test_moving_win_window_constant_sane():
    assert WIN_US == 3_600_000_000


def test_kll_rank_error_bound():
    from ocr_ray.functions import sketches

    rng = np.random.default_rng(5)
    data = rng.lognormal(0.0, 2.0, size=100_000)
    sk = sketches.kll_empty()
    sketches.kll_add(sk, data)
    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    est = sketches.kll_quantiles(sk, qs)
    data_sorted = np.sort(data)
    for q, e in zip(qs, est):
        # rank error (not value error): position of the estimate in the
        # true sorted order must be within 2% of the requested rank
        rank = np.searchsorted(data_sorted, e) / len(data)
        assert abs(rank - q) < 0.02, (q, rank)


def test_kll_merge_equivalent_and_deterministic():
    from ocr_ray.functions import sketches

    rng = np.random.default_rng(9)
    data = rng.normal(size=50_000)
    qs = [0.25, 0.5, 0.75]
    direct = sketches.kll_empty()
    sketches.kll_add(direct, data)
    merged = sketches.kll_empty()
    for part in np.array_split(data, 13):
        p = sketches.kll_empty()
        sketches.kll_add(p, part)
        merged = sketches.kll_merge(merged, p)
    assert merged["n"] == direct["n"] == len(data)
    data_sorted = np.sort(data)
    for q, e in zip(qs, sketches.kll_quantiles(merged, qs)):
        rank = np.searchsorted(data_sorted, e) / len(data)
        assert abs(rank - q) < 0.02
    # deterministic: same input -> identical sketch state
    again = sketches.kll_empty()
    sketches.kll_add(again, data)
    assert again == direct


def test_kll_memory_stays_bounded():
    from ocr_ray.functions import sketches

    sk = sketches.kll_empty()
    rng = np.random.default_rng(1)
    sketches.kll_add(sk, rng.normal(size=200_000))
    retained = sum(len(b) for b in sk["levels"])
    assert retained <= sketches.KLL_K * (len(sk["levels"]) + 1)
    assert len(sk["levels"]) < 16


def test_events_ffill_matches_pandas_groupby_ffill(ray_session):
    from ocr_ray.pipelines.queries_train import q_events_ffill

    got = (
        q_events_ffill("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet")
    ev = ev.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    ev["v"] = ev["value"].where(ev["event_type"] != "view")
    exp = (
        ev.assign(filled=ev.groupby("user_id")["v"].ffill().fillna(-1.0))
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    np.testing.assert_allclose(got["filled_value"], exp["filled"], rtol=0, atol=0)


def test_pq_encode_matches_brute_force_and_compresses(ray_session):
    from ocr_ray.pipelines.queries_train import PQ_K, PQ_SUB, PQ_SUBDIM, q_pq_encode

    got = (
        q_pq_encode("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    emb = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    emb = emb.sort_values("vec_id").reset_index(drop=True)
    x = np.floor(np.stack(emb["embedding"].to_numpy()) * 1000.0 + 0.5).astype(np.int64)
    c = x[:PQ_K]
    for s in range(PQ_SUB):
        xs = x[:, s * PQ_SUBDIM : (s + 1) * PQ_SUBDIM]
        cs = c[:, s * PQ_SUBDIM : (s + 1) * PQ_SUBDIM]
        d = ((xs[:, None, :] - cs[None, :, :]) ** 2).sum(axis=2)
        assert got[f"c{s}"].tolist() == np.argmin(d, axis=1).tolist()
    # codes are a real compression: every subspace uses several centroids
    for s in range(PQ_SUB):
        assert got[f"c{s}"].nunique() >= 4


def test_window_distinct_users_matches_pandas(ray_session):
    from ocr_ray.pipelines.queries_train import q_window_distinct_users

    got = (
        q_window_distinct_users("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("hour")
        .reset_index(drop=True)
    )
    ev = pd.read_parquet(
        "/root/testdata/sf0.001/events.parquet", columns=["ts", "user_id"]
    )
    exp = (
        ev.assign(hour=ev["ts"].dt.floor("h"))
        .groupby("hour")["user_id"]
        .nunique()
        .reset_index(name="n_users")
        .sort_values("hour")
        .reset_index(drop=True)
    )
    assert got["hour"].tolist() == exp["hour"].tolist()
    assert got["n_users"].tolist() == exp["n_users"].tolist()


def test_distinct_tokens_by_lang_within_5pct(ray_session):
    from ocr_ray.pipelines.queries_train import q_distinct_tokens_by_lang

    got = (
        q_distinct_tokens_by_lang("/root/testdata/sf0.001")
        .to_pandas()
        .set_index("lang")["distinct_tokens_est"]
    )
    docs = pd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["lang", "text"]
    )
    exact = docs.groupby("lang")["text"].apply(
        lambda s: len(set(w for t in s for w in t.split()))
    )
    assert set(got.index) == set(exact.index)
    for lang in exact.index:
        err = abs(got[lang] - exact[lang]) / exact[lang]
        assert err < 0.05, (lang, got[lang], exact[lang])


def test_bm25_matches_brute_force(ray_session):
    from collections import Counter

    from ocr_ray.pipelines.queries_train import (
        BM25_B,
        BM25_K1,
        BM25_NTERMS,
        BM25_TOPN,
        q_bm25_search,
    )

    got = q_bm25_search("/root/testdata/sf0.001").to_pandas()
    docs = pd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    toks = [t.split(" ") for t in docs["text"]]
    nd = len(docs)
    avgdl = sum(len(t) for t in toks) / nd
    df: Counter = Counter()
    for t in toks:
        df.update(set(t))
    terms = sorted(df, key=lambda w: (-df[w], w))[:BM25_NTERMS]
    rows = []
    for did, t in zip(docs["doc_id"], toks):
        c = Counter(t)
        s = 0.0
        for w in terms:
            tf = c.get(w, 0)
            if tf:
                idf = np.log(1.0 + (nd - df[w] + 0.5) / (df[w] + 0.5))
                s += idf * tf * (BM25_K1 + 1) / (
                    tf + BM25_K1 * (1 - BM25_B + BM25_B * len(t) / avgdl)
                )
        if s > 0:
            rows.append((round(s, 4), did))
    exp = sorted(rows, key=lambda r: (-r[0], r[1]))[:BM25_TOPN]
    assert got["doc_id"].tolist() == [d for _, d in exp]
    np.testing.assert_allclose(got["bm25"], [s for s, _ in exp], atol=1e-9)


def test_corpus_to_blocks_composition_invariants(ray_session):
    from ocr_ray.pipelines.queries_train import q_corpus_to_blocks, q_quality_classifier

    got = (
        q_corpus_to_blocks("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    cls = q_quality_classifier("/root/testdata/sf0.001").to_pandas()
    kept = set(cls.loc[cls["keep"], "doc_id"])
    assert set(got["doc_id"]) <= kept  # only quality-kept docs survive
    docs = pd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    texts = docs.set_index("doc_id")["text"]
    # exact dedup: surviving texts are distinct, and each winner is the
    # min doc_id among KEPT docs sharing its text
    surv_texts = texts.loc[got["doc_id"]]
    assert surv_texts.is_unique
    kept_docs = docs[docs["doc_id"].isin(kept)]
    expect_winners = set(kept_docs.groupby("text")["doc_id"].min())
    assert set(got["doc_id"]) == expect_winners
    # packing is dense over the survivors in doc_id order
    nxt = (got["tok_start"] + got["n_tokens"] + 1).to_numpy()[:-1]
    np.testing.assert_array_equal(nxt, got["tok_start"].to_numpy()[1:])
    assert int(got["tok_start"].iloc[0]) == 0


def test_phash_separation_margins():
    from ocr_ray.stages import multimodal as M

    tbl = M.synth_images_neardup(36)
    dct = M.dct_matrix(32)
    hs = {}
    for mid, p in zip(
        tbl.column("media_id").to_pylist(), tbl.column("payload").to_pylist()
    ):
        hs[mid] = np.uint64(M.phash64(M.decode_real(p), dct))

    def ham(a, b):
        return bin(int(hs[a] ^ hs[b])).count("1")

    planted = [(3 * k, 3 * k + 1) for k in range(12)]
    assert max(ham(a, b) for a, b in planted) <= 6  # re-encode + noise robust
    others = [
        ham(a, b)
        for a in range(36)
        for b in range(a + 1, 36)
        if (a, b) not in planted
    ]
    assert min(others) > M.PHASH_HAMMING_T  # no false pairs on this corpus


def test_phash_invariant_to_reencoding():
    from ocr_ray import codecs, jpeg
    from ocr_ray.stages import multimodal as M

    rng = np.random.RandomState(2)
    g = M._smooth_field(rng, 40, 56)
    img = np.clip(np.stack([g, g, g], axis=2), 0, 255).astype(np.uint8)
    dct = M.dct_matrix(32)
    h_png = M.phash64(M.decode_real(codecs.encode_png(img)), dct)
    h_bmp = M.phash64(M.decode_real(codecs.encode_bmp(img)), dct)
    h_jpg = M.phash64(
        M.decode_real(jpeg.encode_jpeg(img, quality=95, subsampling="444")), dct
    )
    assert h_png == h_bmp  # lossless codecs: identical pixels -> identical hash
    assert bin(h_png ^ h_jpg).count("1") <= 6  # lossy within near-dup margin


def test_phash_neardup_pairs_finds_exactly_planted(ray_session):
    import json
    import os

    import ray.data as rd

    from ocr_ray.stages import multimodal as M

    media = rd.from_arrow(M.synth_images_neardup(36))
    got = (
        M.phash_neardup_pairs(media, concurrency=2, batch_size=12)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    golden = json.load(
        open(os.path.join(os.path.dirname(__file__), "golden", "image_phash.json"))
    )
    assert [tuple(r) for r in got.itertuples(index=False)] == [
        (r["a"], r["b"], r["hamming"]) for r in golden
    ]


def test_frame_sampler_orders_and_strides():
    from ocr_ray.stages import multimodal as M

    table = M.synth_media(12)
    out = M.FrameSampler()(table).to_pandas()
    assert (out["status"] == "ok").all()
    vids = table.filter(
        __import__("pyarrow").compute.equal(table.column("kind"), "video")
    )
    for mid, nf in zip(
        vids.column("media_id").to_pylist(), vids.column("n_frames").to_pylist()
    ):
        sub = out[out["media_id"] == mid]
        # every STRIDE-th frame, in order
        assert sub["frame_index"].tolist() == list(range(0, nf, M.FRAME_STRIDE))


def test_frame_sampler_decodes_real_avi():
    from ocr_ray.stages import multimodal as M

    table = M.synth_media_real(20)
    out = M.FrameSampler()(table).to_pandas()
    assert (out["status"] == "ok").all()
    assert len(out) > 0  # the avi rows produced frames
    # frame means of uint8 RGB sit inside [0, 255]
    assert out["mean"].between(0, 255).all()


def test_extract_links_finds_all_anchors_in_order():
    from ocr_ray.html_extract import extract_links
    from ocr_ray.synth import LINK_FANOUT, link_page_html

    links = extract_links(link_page_html(42))
    internal = [h for h in links if h.startswith("/page/")]
    # the chrome nav links and the external link are present too
    assert len(links) > len(internal)
    assert any(h.startswith("https://example.org") for h in links)
    expected = [(7 * 42 + 13 * j + 1) % 1000 for j in range(LINK_FANOUT)]
    assert [int(h[6:]) for h in internal] == expected


def test_value_quantiles_kll_close_to_exact(ray_session):
    from ocr_ray.pipelines.queries_train import q_value_quantiles_kll

    got = q_value_quantiles_kll("/root/testdata/sf0.001").to_pandas()
    vals = np.sort(
        pd.read_parquet("/root/testdata/sf0.001/events.parquet", columns=["value"])[
            "value"
        ].to_numpy()
    )
    for q, e in zip(got["q"], got["value_est"]):
        rank = np.searchsorted(vals, e) / len(vals)
        assert abs(rank - q) < 0.03, (q, rank)


def test_bloom_int_path_no_false_negatives_and_low_fpr():
    from ocr_ray.functions import sketches

    rng = np.random.default_rng(3)
    added = rng.choice(10**7, size=20_000, replace=False).astype(np.int64)
    other = (rng.choice(10**7, size=20_000, replace=False) + 10**7).astype(np.int64)
    bits = sketches.bloom_empty()
    sketches.bloom_add_ints(bits, added)
    assert sketches.bloom_contains_ints(bits, added).all()  # no false negatives
    fpr = sketches.bloom_contains_ints(bits, other).mean()
    assert fpr < 0.02  # m=2^20, k=7, n=20k -> theoretical FPR ~ 1e-4


def test_bloom_int_partials_merge_like_one_filter():
    from ocr_ray.functions import sketches

    keys = np.arange(1000, dtype=np.int64)
    whole = sketches.bloom_add_ints(sketches.bloom_empty(), keys)
    a = sketches.bloom_add_ints(sketches.bloom_empty(), keys[:500])
    b = sketches.bloom_add_ints(sketches.bloom_empty(), keys[500:])
    np.testing.assert_array_equal(whole, sketches.bloom_merge(a, b))


def test_bloom_semi_join_equals_plain_semi_join(ray_session):
    from ocr_ray.pipelines.queries_train import BLOOM_PRICE, q_bloom_semi_join

    got = (
        q_bloom_semi_join("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("l_orderkey")
        .reset_index(drop=True)
    )
    li = pd.read_parquet("/root/testdata/sf0.001/lineitem.parquet", columns=["l_orderkey"])
    orders = pd.read_parquet(
        "/root/testdata/sf0.001/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    hot = set(orders.loc[orders["o_totalprice"] > BLOOM_PRICE, "o_orderkey"])
    exp = (
        li[li["l_orderkey"].isin(hot)]
        .groupby("l_orderkey")
        .size()
        .rename("n_items")
        .reset_index()
        .sort_values("l_orderkey")
        .reset_index(drop=True)
    )
    assert got["l_orderkey"].tolist() == exp["l_orderkey"].tolist()
    assert got["n_items"].tolist() == exp["n_items"].tolist()


def test_training_blocks_covers_every_token(ray_session):
    from ocr_ray.pipelines.queries_train import q_training_blocks, q_training_pack

    blocks = q_training_blocks("/root/testdata/sf0.001").to_pandas()
    pack = q_training_pack("/root/testdata/sf0.001").to_pandas()
    # per-doc: sum of in-block spans == the doc's token count
    per_doc = blocks.groupby("doc_id")["n_in_block"].sum()
    merged = pack.set_index("doc_id").join(per_doc)
    assert (merged["n_in_block"] == merged["n_tokens"]).all()
    # spans stay inside their block
    assert (blocks["start_in_block"] >= 0).all()
    assert (blocks["start_in_block"] + blocks["n_in_block"] <= 512).all()
    # doc's blocks are exactly the contiguous range first..last
    rng = blocks.groupby("doc_id")["block_id"].agg(["min", "max", "count"])
    assert (rng["count"] == rng["max"] - rng["min"] + 1).all()


def test_quality_classifier_keep_matches_score(ray_session):
    from ocr_ray.pipelines.queries_train import q_quality_classifier

    df = q_quality_classifier("/root/testdata/sf0.001").to_pandas()
    assert ((df["quality"] > 0.5) == df["keep"]).all()
    assert df["quality"].between(0.0, 1.0).all()
    # the model actually separates: both classes present on synth data
    assert 0 < df["keep"].sum() < len(df)


def test_kmeans_assign_matches_brute_force(ray_session):
    from ocr_ray.pipelines.queries_train import KMEANS_K, q_kmeans_assign

    got = (
        q_kmeans_assign("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    emb = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    emb = emb.sort_values("vec_id").reset_index(drop=True)
    x = np.floor(np.stack(emb["embedding"].to_numpy()) * 1000.0 + 0.5).astype(np.int64)
    c = x[:KMEANS_K]
    d = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    exp = np.argmin(d, axis=1)
    assert got["cluster"].tolist() == exp.tolist()
    # seed rows assign to themselves and all clusters are populated
    assert got["cluster"].tolist()[:KMEANS_K] == list(range(KMEANS_K))
    assert got["cluster"].nunique() == KMEANS_K


def test_zorder_layout_improves_two_dim_locality(ray_session):
    from ocr_ray.pipelines.queries_train import ZORDER_FILE_ROWS, q_zorder_layout

    got = q_zorder_layout("/root/testdata/sf0.01").to_pandas()
    orders = pd.read_parquet(
        "/root/testdata/sf0.01/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    assert got["n"].sum() == len(orders)
    # full files carry exactly FILE_ROWS rows
    full = got[got["file_id"] < got["file_id"].max()]
    assert (full["n"] == ZORDER_FILE_ROWS).all()
    # locality: mean per-file price range under z-order is tighter than
    # under the naive o_orderkey layout (the point of the curve)
    naive = orders.sort_values("o_orderkey").reset_index(drop=True)
    naive["file_id"] = naive.index // ZORDER_FILE_ROWS
    naive_rng = (
        naive.groupby("file_id")["o_totalprice"].agg(lambda s: s.max() - s.min()).mean()
    )
    z_rng = (got["max_price"] - got["min_price"]).mean()
    assert z_rng < naive_rng * 0.8


def test_lm_score_matches_brute_force(ray_session):
    from ocr_ray.pipelines.queries_train import q_lm_score

    got = (
        q_lm_score("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    docs = pd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    from collections import Counter

    cnt: Counter = Counter()
    for t in docs["text"]:
        cnt.update(t.split(" "))
    total = sum(cnt.values())
    exp = []
    for t in docs["text"]:
        toks = t.split(" ")
        exp.append(np.mean([-np.log(cnt[w] / total) for w in toks]))
    np.testing.assert_allclose(
        got["lm_nll"], np.round(exp, 4), atol=2e-4
    )


def test_kth_smallest_refinement_loop(ray_session, monkeypatch):
    """The histogram-refinement loop (collect threshold forced tiny) finds
    the exact k-th smallest on an adversarial heavy-tie distribution."""
    import numpy as np
    import ray.data

    from ocr_ray.pipelines import queries_lake as QL

    rng = np.random.default_rng(7)
    vals = np.concatenate(
        [
            rng.uniform(0, 1e6, 5000),
            np.full(3000, 123456.789),  # heavy tie spike in one bin
            rng.uniform(123456.0, 123457.0, 2000),  # crowd the spike's bin
        ]
    )
    ds = ray.data.from_arrow(
        __import__("pyarrow").table({"o_totalprice": vals})
    ).repartition(8)
    monkeypatch.setattr(QL, "_SEL_COLLECT", 64)
    srt = np.sort(vals)
    n = len(vals)
    for p in (0.5, 0.9, 0.99, 0.001):
        k = max(1, int(np.ceil(p * n)))
        got = QL._kth_smallest(
            ds, "o_totalprice", k, float(vals.min()), float(vals.max()), n
        )
        assert got == float(srt[k - 1]), p


def test_user_event_seq_prune_subset_property(ray_session, monkeypatch):
    """The map-side first-K prune is lossless: running the pipeline with
    adversarially tiny blocks (many partial prunes) must equal the
    single-partition brute force."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    import ocr_ray.pipelines.queries_lake as QL
    from ocr_ray.pipelines.queries_lake import SEQ_LEN

    rng = np.random.default_rng(3)
    n = 600
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.to_datetime(
                rng.integers(0, 10**6, n) * 1000, unit="us", origin="2024-01-01"
            ),
            "user_id": rng.integers(0, 7, n).astype(np.int64),
            "event_type": rng.choice(["a", "b", "c"], n),
        }
    )
    srt = df.sort_values(["user_id", "ts", "event_id"])
    exp = (
        srt.groupby("user_id")
        .agg(
            seq20=("event_type", lambda s: ",".join(s.iloc[:SEQ_LEN])),
            n_events=("event_type", "size"),
        )
        .reset_index()
        .sort_values("user_id")
        .reset_index(drop=True)
    )

    ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(13)
    monkeypatch.setattr(QL, "read_table", lambda *a, **k: ds)
    got = (
        QL.q_user_event_seq("/ignored")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["user_id", "seq20", "n_events"]].astype({"n_events": "int64"}),
        exp[["user_id", "seq20", "n_events"]].astype({"n_events": "int64"}),
    )


def test_doc_winsorize_bounds_exact(ray_session, tmp_path):
    """Winsorize bounds equal numpy's exact percentile_disc on a skewed
    sample, per group."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ocr_ray.pipelines.queries_lake as QL

    rng = np.random.default_rng(11)
    n = 2000
    langs = rng.choice(["aa", "bb"], n)
    vals = np.where(
        langs == "aa",
        rng.integers(10, 100, n),
        (rng.pareto(2.0, n) * 50).astype(np.int64) + 5,
    ).astype(np.int64)
    df = pd.DataFrame(
        {"doc_id": np.arange(n, dtype=np.int64), "lang": langs, "n_chars": vals}
    )
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        str(tmp_path / "documents.parquet"),
    )
    got = QL.q_doc_winsorize(str(tmp_path)).to_pandas()
    for lang, sub in df.groupby("lang"):
        v = np.sort(sub["n_chars"].to_numpy())
        k_lo = max(1, int(np.ceil(0.05 * len(v))))
        k_hi = max(1, int(np.ceil(0.95 * len(v))))
        lo, hi = v[k_lo - 1], v[k_hi - 1]
        g = got[got["lang"] == lang]
        assert g["n_chars_w"].min() >= lo and g["n_chars_w"].max() <= hi
        clipped = np.clip(sub.sort_values("doc_id")["n_chars"].to_numpy(), lo, hi)
        assert (g.sort_values("doc_id")["n_chars_w"].to_numpy() == clipped).all()


def test_adaboost_stumps_matches_brute_force(ray_session):
    """The distributed 2-round boosting loop equals a single-process
    brute-force replay (all thresholds, integer weight doubling)."""
    import numpy as np
    import pyarrow.parquet as pq

    from ocr_ray.pipelines.queries_train import (
        ADABOOST_ROUNDS,
        q_adaboost_stumps,
    )

    got = q_adaboost_stumps("/root/testdata/sf0.001").to_pandas()

    t = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["n_chars", "lang"]
    )
    v = np.asarray(t.column("n_chars").to_pylist(), dtype=np.int64)
    y = np.asarray([s == "en" for s in t.column("lang").to_pylist()])
    w = np.ones(v.size, dtype=np.int64)
    expect = []
    for rnd in range(ADABOOST_ROUNDS):
        uv = np.unique(v)
        errs = np.array(
            [
                int(w[y & (v <= thr)].sum() + w[~y & (v > thr)].sum())
                for thr in uv
            ],
            dtype=np.int64,
        )
        i = int(np.argmin(errs))
        thr = int(uv[i])
        expect.append((rnd + 1, thr, int(errs[i]), int(w.sum())))
        w = np.where((v > thr) == y, w, 2 * w)
    assert (
        list(map(tuple, got[["round", "threshold", "error", "total_weight"]]
                 .itertuples(index=False, name=None)))
        == expect
    )


def test_kmeans_centroid_update_rounds_sum_like_oracle():
    """The k-means update matches the oracle's floor(1.0 * sum / count)
    bit for bit, also past 2^53 where every rounding step shows.  Witness:
    s = 889579385049398832, n = 66 gives ...498 by exact big-int division
    and ...496 in DuckDB; float(s) / n alone still misses other sums."""
    import duckdb

    from ocr_ray.pipelines.queries_train import _mean_floor

    s, n = 889579385049398832, 66
    assert int(np.floor(s / n)) == 13478475531051498
    assert _mean_floor(s, n) == 13478475531051496
    rng = np.random.default_rng(17)
    cases = [(s, n), (-s, n), (0, 3), (-1, 2), (2**63 - 1, 3), (-(2**63), 7)]
    for lim in (2**62, 2**40, 10**6):
        cases += zip(
            rng.integers(-lim, lim, 300).tolist(), rng.integers(1, 100, 300).tolist()
        )
    con = duckdb.connect()
    con.execute("CREATE TABLE t (id INTEGER, v BIGINT, c BIGINT)")
    con.executemany(
        "INSERT INTO t VALUES (?, ?, ?)", [(i, v, c) for i, (v, c) in enumerate(cases)]
    )
    # a one-row sum(v) is v as HUGEINT, the oracle's sum type
    want = con.execute(
        "SELECT CAST(floor(1.0 * sum(v) / min(c)) AS BIGINT) FROM t GROUP BY id ORDER BY id"
    ).fetchall()
    assert [_mean_floor(v, c) for v, c in cases] == [w for (w,) in want]


def _write_embeddings(path, vec_ids, dim):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(5)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(vec_ids, pa.int64()),
                "embedding": pa.array(
                    rng.uniform(-1, 1, (len(vec_ids), dim)).tolist(), pa.list_(pa.float32())
                ),
            }
        ),
        str(path / "embeddings.parquet"),
    )


def test_seed_centroids_reject_sparse_low_ids(ray_session, tmp_path):
    """Centroids are the embeddings of vec_id 0..K-1.  With a gap there
    (ids 0-2 and 4-20 here), the seed read must fail loudly instead of
    seeding from the wrong rows (or crashing kmeans_train later)."""
    import pytest

    from ocr_ray.pipelines import queries_train as qt

    _write_embeddings(tmp_path, [0, 1, 2] + list(range(4, 21)), qt.KMEANS_DIM)
    with pytest.raises(ValueError, match=r"vec_id 0\.\.7"):
        qt._quantized_seed_centroids(str(tmp_path), qt.KMEANS_K, 1000.0)
    with pytest.raises(ValueError, match=r"vec_id 0\.\.7"):
        qt.q_kmeans_train(str(tmp_path))

    dense = tmp_path / "dense"
    dense.mkdir()
    _write_embeddings(dense, list(range(20)), qt.KMEANS_DIM)
    c = qt._quantized_seed_centroids(str(dense), qt.KMEANS_K, 1000.0)
    assert c.shape == (qt.KMEANS_K, qt.KMEANS_DIM)
