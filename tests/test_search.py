"""Search-expansion source (ocr_ray.sources.search): query
normalization, per-query JSON cache semantics (hit / reload / save),
distributed corpus ranking (host dedup, .pdf skip, tie order), and the
full search -> fetch composition."""

import json
import os

import pyarrow as pa
import pytest

from ocr_ray.sources import search as S


# ---------------------------------------------------------------------------
# format_query (the reference WebSearchEngine normalization rule)
# ---------------------------------------------------------------------------


def test_format_query_normalizes_punctuation():
    assert S.format_query("hash join, order!") == "hash join order"
    assert S.format_query("  a+b  (c)  ") == "a b c"
    assert S.format_query("") == ""


def test_format_query_exclude_site_appends_directive():
    q = S.format_query("deep learning", exclude_site="youtube.com")
    assert q == "deep learning -site:youtube.com"
    # exclusion directives never become scoring terms
    assert S.query_terms(q) == ["deep", "learning"]


def test_url_root():
    assert S.url_root("https://host-001.example/p/00000003") == (
        "https://host-001.example"
    )


# ---------------------------------------------------------------------------
# per-query cache semantics (the reference JSONDatabase-on-queries contract)
# ---------------------------------------------------------------------------


class CountingBackend:
    """Stub backend: deterministic urls, counts invocations."""

    def __init__(self):
        self.calls = 0

    def fetch_urls(self, formatted_query, *, n=5):
        self.calls += 1
        return ["https://x.example/%s/%d" % (formatted_query.replace(" ", "-"), i)
                for i in range(n)]


def test_search_cache_hit_skips_backend(tmp_path):
    be = CountingBackend()
    eng = S.SearchEngine(be, cache_dir=str(tmp_path))
    first = eng.search("hash, join!", n=3)
    assert be.calls == 1
    # same query (even differently punctuated) -> cache hit, no backend call
    second = eng.search("hash join", n=3)
    assert be.calls == 1
    assert second == first
    # reload forces a re-fetch
    eng.search("hash join", n=3, reload=True)
    assert be.calls == 2


def test_search_save_false_does_not_persist(tmp_path):
    be = CountingBackend()
    eng = S.SearchEngine(be, cache_dir=str(tmp_path))
    eng.search("abc", n=2, save=False)
    assert be.calls == 1
    eng.search("abc", n=2)
    assert be.calls == 2  # nothing was cached


def test_cache_file_is_plain_json(tmp_path):
    eng = S.SearchEngine(CountingBackend(), cache_dir=str(tmp_path))
    eng.search("abc def", n=2)
    with open(os.path.join(str(tmp_path), "queries.json")) as f:
        data = json.load(f)
    assert data["abc def"] == [
        "https://x.example/abc-def/0",
        "https://x.example/abc-def/1",
    ]


def test_engine_without_cache_always_calls_backend():
    be = CountingBackend()
    eng = S.SearchEngine(be)
    eng.search("q", n=1)
    eng.search("q", n=1)
    assert be.calls == 2


# ---------------------------------------------------------------------------
# distributed ranking
# ---------------------------------------------------------------------------


def _corpus(ray_session):
    import ray.data

    rows = [
        # host A: two matching pages — only the best may survive
        {"url": "https://a.example/p/1", "text": "hash join hash"},
        {"url": "https://a.example/p/2", "text": "hash"},
        # host B: one match, ties host A's best on nothing (score 1)
        {"url": "https://b.example/p/1", "text": "join x y"},
        # host C: .pdf must be skipped despite the best score
        {"url": "https://c.example/p/top.pdf", "text": "hash hash hash hash"},
        # host D: no match
        {"url": "https://d.example/p/1", "text": "zebra"},
        # host E: score ties host B -> url ascending breaks the tie
        {"url": "https://e.example/p/1", "text": "hash z"},
    ]
    return ray.data.from_arrow(pa.Table.from_pylist(rows))


def test_rank_corpus_host_dedup_pdf_skip_and_order(ray_session):
    out = (
        S.rank_corpus(_corpus(ray_session), {0: ["hash", "join"]}, n=5)
        .to_pandas()
        .sort_values("rank")
    )
    assert out["url"].tolist() == [
        "https://a.example/p/1",  # score 3
        "https://b.example/p/1",  # score 1, url < e
        "https://e.example/p/1",  # score 1
    ]
    assert out["score"].tolist() == [3, 1, 1]
    assert out["rank"].tolist() == [1, 2, 3]


def test_rank_corpus_top_n_caps(ray_session):
    out = S.rank_corpus(_corpus(ray_session), {0: ["hash", "join"]}, n=1).to_pandas()
    assert out["url"].tolist() == ["https://a.example/p/1"]


def test_rank_corpus_multi_query_independent(ray_session):
    out = (
        S.rank_corpus(
            _corpus(ray_session), {0: ["hash"], 1: ["zebra"]}, n=5
        )
        .to_pandas()
        .sort_values(["query_id", "rank"])
    )
    z = out[out["query_id"] == 1]
    assert z["url"].tolist() == ["https://d.example/p/1"]
    assert set(out[out["query_id"] == 0]["url"]) == {
        "https://a.example/p/1",
        "https://e.example/p/1",
    }


def test_rank_corpus_no_match_is_empty(ray_session):
    out = S.rank_corpus(_corpus(ray_session), {0: ["nothing"]}, n=5).to_pandas()
    assert len(out) == 0


def test_fetch_urls_no_match_is_empty(ray_session):
    """No matching page leaves rank_corpus with only schema-less empty
    blocks; the backend returns no urls instead of failing."""
    backend = S.LocalCorpusBackend(lambda: _corpus(ray_session))
    assert backend.fetch_urls("nothing") == []
    assert backend.fetch_urls("hash join", n=2) == [
        "https://a.example/p/1",
        "https://b.example/p/1",
    ]


def test_rank_corpus_partial_pruning_is_exact(ray_session):
    """Many single-url hosts split across tiny blocks: per-batch top-n
    pruning must still produce the exact global top-n."""
    import ray.data

    rows = [
        {
            "url": "https://h%03d.example/p/1" % i,
            "text": " ".join(["hash"] * (1 + (i * 7) % 23)),
        }
        for i in range(60)
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(12)
    out = (
        S.rank_corpus(ds, {0: ["hash"]}, n=4).to_pandas().sort_values("rank")
    )
    scores = sorted(((1 + (i * 7) % 23), "https://h%03d.example/p/1" % i)
                    for i in range(60))
    expect = [u for s, u in sorted(scores, key=lambda t: (-t[0], t[1]))[:4]]
    assert out["url"].tolist() == expect


# ---------------------------------------------------------------------------
# composition: search -> fetch (the full reference S6 flow)
# ---------------------------------------------------------------------------


def test_search_and_fetch_roundtrip(ray_session, tmp_path):
    import ray.data

    from ocr_ray import synth
    from ocr_ray.sources import fetch as F

    pages = pa.Table.from_pylist(
        [
            {
                "url": synth.page_url(i),
                "html": synth.wrap_document_html(i, "hash join %d" % i).encode(),
                "text": "hash join %d" % i,
            }
            for i in range(12)
        ]
    )
    store = str(tmp_path / "store")
    F.spool_store(pages.select(["url", "html"]), store)

    def corpus_factory():
        return ray.data.from_arrow(pages.select(["url", "text"]))

    eng = S.SearchEngine(
        S.LocalCorpusBackend(corpus_factory), cache_dir=str(tmp_path / "qc")
    )
    fetched = eng.search_and_fetch(
        "hash+join", store, str(tmp_path / "fc"), n=3
    ).to_pandas()
    assert len(fetched) == 3
    assert set(fetched["status"]) == {"ok"}
    html_of = dict(
        zip(pages.column("url").to_pylist(), pages.column("html").to_pylist())
    )
    for u, h in zip(fetched["url"], fetched["html"]):
        assert bytes(h) == html_of[u]


def test_urllib_transport_interface():
    """The real-network transport exists with the Fetcher-compatible
    interface; no request is made (sandbox has no network)."""
    from ocr_ray.sources.fetch import Fetcher, UrllibTransport

    t = UrllibTransport(timeout=5.0)
    assert callable(t.get)
    # Fetcher accepts it as a drop-in transport
    f = Fetcher("/nonexistent", "/tmp/ocr_ray_test_urllib_cache", transport=t)
    assert f.transport is t
