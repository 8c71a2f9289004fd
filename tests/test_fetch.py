"""Fetch source plumbing (ocr_ray.sources.fetch): cache resume, bounded
retries against the deterministic transient-failure rule, token-bucket
limiter, error rows for missing content."""

import json
import os

import pyarrow as pa

from ocr_ray.sources import fetch as F


def _pages(n=30):
    from ocr_ray import synth

    rows = []
    for i in range(n):
        rows.append(
            {
                "url": synth.page_url(i),
                "html": synth.wrap_document_html(i, "text %d" % i).encode(),
            }
        )
    return pa.Table.from_pylist(rows)


def test_fetcher_retries_and_caches(tmp_path):
    store, cache = str(tmp_path / "s"), str(tmp_path / "c")
    pages = _pages(30)
    assert F.spool_store(pages, store) == 30
    fetcher = F.Fetcher(store, cache)
    out = fetcher(pages.select(["url"]))
    assert out.column("status").to_pylist() == ["ok"] * 30
    att = out.column("n_attempts").to_pylist()
    # doc 0, 7, 14, 21, 28 fail first attempt -> 2 attempts; others 1
    assert att == [2 if i % 7 == 0 else 1 for i in range(30)]
    assert out.column("html").to_pylist() == pages.column("html").to_pylist()
    # second run: all cache hits with the SAME recorded attempts
    fetcher2 = F.Fetcher(store, cache)
    out2 = fetcher2(pages.select(["url"]))
    assert out2.equals(out)


def test_fetcher_error_rows_for_missing_content(tmp_path):
    store, cache = str(tmp_path / "s"), str(tmp_path / "c")
    F.spool_store(_pages(5), store)
    fetcher = F.Fetcher(store, cache, max_attempts=2)
    missing = pa.table({"url": pa.array(["https://host-000.example/p/99999999"])})
    out = fetcher(missing)
    assert out.column("status").to_pylist() == ["error"]
    assert out.column("n_attempts").to_pylist() == [2]
    assert out.column("html").to_pylist() == [b""]


def test_cache_survives_actor_restart_and_is_json(tmp_path):
    store, cache = str(tmp_path / "s"), str(tmp_path / "c")
    pages = _pages(3)
    F.spool_store(pages, store)
    F.Fetcher(store, cache)(pages.select(["url"]))
    files = [f for f in os.listdir(cache) if f.endswith(".json")]
    assert len(files) == 3
    rec = json.load(open(os.path.join(cache, files[0])))
    assert set(rec) == {"html", "n_attempts", "status"}


def test_token_bucket_paces_requests():
    import time

    tb = F.TokenBucket(rate=200.0, burst=2)
    t0 = time.monotonic()
    for _ in range(12):
        tb.acquire()
    # 12 acquires at 200/s with burst 2 -> at least ~(12-2)/200 = 50 ms
    assert time.monotonic() - t0 >= 0.04
    assert F.TokenBucket(rate=None).acquire() is None  # disabled: no sleep


def test_fetch_pages_dataset_roundtrip(ray_session, tmp_path):
    import ray.data

    store, cache = str(tmp_path / "s"), str(tmp_path / "c")
    pages = _pages(20)
    F.spool_store(pages, store)
    urls = ray.data.from_arrow(pages.select(["url"]))
    out = (
        F.fetch_pages(urls, store, cache, concurrency=2, batch_size=8)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert (out["status"] == "ok").all()
    assert len(out) == 20


def test_urllib_transport_over_loopback_http(tmp_path):
    """UrllibTransport against a real socket: a stdlib HTTP server on
    127.0.0.1 (no external network) serves exact bytes, sees the
    transport's User-Agent, and a 404 through Fetcher becomes an error
    row after every attempt."""
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    body = "<html><body>café 中</body></html>".encode() + bytes(range(256))
    seen = []

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            seen.append((self.path, self.headers.get("User-Agent")))
            if self.path == "/page":
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            else:
                self.send_error(404)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = "http://127.0.0.1:%d" % server.server_address[1]
        transport = F.UrllibTransport(timeout=5.0, user_agent="ocr-ray-test/1")
        assert transport.get(base + "/page", 1) == body
        assert seen == [("/page", "ocr-ray-test/1")]

        fetcher = F.Fetcher(
            str(tmp_path / "s"), str(tmp_path / "c"), max_attempts=3, transport=transport
        )
        out = fetcher(pa.table({"url": [base + "/page", base + "/missing"]}))
        assert out.column("status").to_pylist() == ["ok", "error"]
        assert out.column("n_attempts").to_pylist() == [1, 3]
        assert out.column("html").to_pylist() == [body, b""]
        assert [p for p, _ in seen].count("/missing") == 3
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
