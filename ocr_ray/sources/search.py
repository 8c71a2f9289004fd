"""Search-expansion source — the S6 *search* half (reference
``utils/text/web/search_engine.py:47-139`` + ``google_engine.py:37-65``),
round 5.

The reference turns a free-text query into a ranked url list before the
fetch stage runs: it normalizes the query (non-alphanumeric -> space,
optional ``-site:`` exclusion), consults a per-query JSON cache
(``{query: urls}``, ``reload`` overrides), asks an engine for the ``n``
most relevant urls, and keeps at most ONE url per link root while
skipping ``.pdf`` results.  This module reproduces that contract with a
pluggable ranking backend:

- :class:`LocalCorpusBackend` ranks a ``(url, text)`` corpus DATASET by
  query-term frequency, fully distributed: per-batch scoring is one
  Arrow tokenize + ``is_in`` + bincount per query, the per-batch partial
  keeps only the top-``n`` host-deduped candidates (exact pruning: a
  host's global best url lives in exactly one batch, so a host outside
  that batch's top-``n`` cannot enter the global top-``n``), and one
  keyed-bucket shuffle on ``query_id`` merges the partials with the same
  two ``groupagg.topk_rows`` passes.  The corpus never lands on the
  driver.
- a real web engine would implement ``fetch_urls`` over HTTP through
  :class:`ocr_ray.sources.fetch.UrllibTransport` (default-off here:
  this sandbox has no network), composing with the same cache and the
  actor-pool fetch stage.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def format_query(query: str, *, exclude_site: str | None = None) -> str:
    """Reference normalization (``google_engine`` WebSearchEngine rule):
    every non-alphanumeric char becomes a space, whitespace collapses,
    and an optional ``-site:<host>`` exclusion is appended."""
    q = "".join(c if c.isalnum() else " " for c in query)
    q = " ".join(q.split())
    if exclude_site:
        q += " -site:" + exclude_site
    return q


def query_terms(formatted_query: str) -> list[str]:
    """Scoring terms of a formatted query (exclusion directives are
    routing hints, not content terms)."""
    return [t for t in formatted_query.split() if not t.startswith("-site:")]


def url_root(url: str) -> str:
    """Link root (scheme+host) — the reference keeps one result per root."""
    parts = url.split("/", 3)
    return "/".join(parts[:3]) if len(parts) >= 3 else url


class QueryCache:
    """Per-query url cache: one ``queries.json`` mapping
    ``formatted_query -> [urls]`` (the reference's JSONDatabase keyed on
    ``query``).  Atomic writes; ``reload`` semantics live in the caller."""

    def __init__(self, cache_dir: str):
        self.path = os.path.join(cache_dir, "queries.json")
        os.makedirs(cache_dir, exist_ok=True)

    def _load(self) -> dict:
        if not os.path.exists(self.path):
            return {}
        with open(self.path) as f:
            return json.load(f)

    def get(self, formatted_query: str) -> list[str] | None:
        return self._load().get(formatted_query)

    def put(self, formatted_query: str, urls: list[str]) -> None:
        data = self._load()
        data[formatted_query] = list(urls)
        tmp = "{}.{}.tmp".format(self.path, os.getpid())
        with open(tmp, "w") as f:
            json.dump(data, f)
        os.replace(tmp, self.path)


class LocalCorpusBackend:
    """Distributed term-frequency ranking over a ``(url, text)`` corpus.

    ``corpus_factory`` is a zero-arg callable returning the corpus
    ``ray.data.Dataset`` — a factory, not a dataset, so every search
    runs a fresh streamed pass (the engine holds no corpus state)."""

    def __init__(self, corpus_factory):
        self.corpus_factory = corpus_factory

    def fetch_urls(self, formatted_query: str, *, n: int = 5) -> list[str]:
        from .io import collect_tables

        ds = rank_corpus(
            self.corpus_factory(), {0: query_terms(formatted_query)}, n=n
        )
        # no match leaves only empty blocks, which carry no schema
        tbls = collect_tables(ds)
        if not tbls:
            return []
        return pa.concat_tables(tbls).sort_by("rank").column("url").to_pylist()


#: result order within a query: score desc, then url asc (urls are unique)
_ORDER = [("score", "descending"), ("url", "ascending")]


def _best_n(cands: pa.Table, n: int) -> pa.Table:
    """(query_id, host, url, score) rows -> each host's best url per query
    (``topk_rows`` k = 1), then each query's top-``n`` of those, with the
    1-based ``rank``."""
    from ..stages.groupagg import topk_rows

    best = topk_rows(cands, ["query_id", "host"], _ORDER, 1).drop_columns(["rank"])
    return topk_rows(best, ["query_id"], _ORDER, n)


def _score_partial(queries_ref, n: int):
    """Batch kernel factory: (url, text) batch -> top-``n`` host-deduped
    (query_id, host, url, score) candidate rows per query."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        qs = ray.get(queries_ref)
        urls = batch.column("url")
        toks = pc.utf8_split_whitespace(
            pc.fill_null(batch.column("text"), "").combine_chunks()
        )
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        sizes = np.asarray(toks.value_lengths(), dtype=np.int64)
        flat = toks.flatten()
        nrows = batch.num_rows
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), sizes)
        # one url-root pass per batch (vectorized: split at the 3rd '/')
        roots = pc.binary_join_element_wise(
            pc.list_element(pc.split_pattern(urls, "/", max_splits=3), 0),
            pc.list_element(pc.split_pattern(urls, "/", max_splits=3), 2),
            "//",
        )
        not_pdf = ~np.asarray(pc.ends_with(urls, ".pdf"), dtype=bool)
        none = np.empty(0, np.int64)
        rows, qids, scores = [none], [none], [none]
        for qid, terms in qs.items():
            if not terms:
                continue
            tmask = np.asarray(
                pc.is_in(flat, value_set=pa.array(terms, pa.string())),
                dtype=bool,
            )
            score = np.bincount(row_of[tmask], minlength=nrows)
            cand = np.flatnonzero((score > 0) & not_pdf)
            rows.append(cand)
            qids.append(np.full(cand.size, qid, np.int64))
            scores.append(score[cand])
        take = pa.array(np.concatenate(rows))
        cands = pa.table(
            {
                "query_id": pa.array(np.concatenate(qids), pa.int64()),
                "host": roots.take(take),
                "url": urls.take(take),
                "score": pa.array(np.concatenate(scores), pa.int64()),
            }
        )
        # exact prune: only the batch's n best hosts can reach the global
        # top-n (see module docstring)
        return _best_n(cands, n).drop_columns(["rank"])

    return partial


def rank_corpus(corpus_ds, queries: dict[int, list[str]], *, n: int = 5):
    """Rank a ``(url, text)`` corpus Dataset for every query: term-
    frequency score, one result per url root, no ``.pdf``, top-``n`` per
    query ordered by (score desc, url asc).  Returns a Dataset of
    ``(query_id, rank, url, score)`` — ``rank`` is 1-based.

    Scale shape: queries broadcast once (``ray.put``), per-batch partials
    carry <= n rows per (batch, query), and the final merge runs the same
    two ``topk_rows`` passes once per reduce block of the keyed-bucket shuffle
    on ``query_id``."""
    import ray

    from ..stages.groupagg import bucketed_map_groups

    queries_ref = ray.put(
        {int(q): [str(t) for t in terms] for q, terms in queries.items()}
    )
    parts = corpus_ds.map_batches(
        _score_partial(queries_ref, n), batch_format="pyarrow"
    )

    def merge(bucket: pa.Table) -> pa.Table:
        return _best_n(bucket, n).select(["query_id", "rank", "url", "score"])

    return bucketed_map_groups(parts, ["query_id"], merge)


class SearchEngine:
    """The reference search orchestrator: normalize -> cache lookup ->
    backend ``fetch_urls`` -> cache save -> (optionally) the actor-pool
    fetch stage.  ``backend`` needs one method,
    ``fetch_urls(formatted_query, n=...) -> list[str]``."""

    def __init__(
        self,
        backend,
        *,
        cache_dir: str | None = None,
        exclude_site: str | None = None,
    ):
        self.backend = backend
        self.cache = QueryCache(cache_dir) if cache_dir else None
        self.exclude_site = exclude_site

    def format_query(self, query: str) -> str:
        return format_query(query, exclude_site=self.exclude_site)

    def search(
        self,
        query: str,
        *,
        n: int = 5,
        reload: bool = False,
        save: bool = True,
    ) -> list[str]:
        """query -> ranked urls.  Cache-hit semantics mirror the
        reference: a cached formatted query skips the backend entirely
        unless ``reload``; ``save`` gates persistence."""
        formatted = self.format_query(query)
        if self.cache is not None and not reload:
            hit = self.cache.get(formatted)
            if hit is not None:
                return hit
        urls = self.backend.fetch_urls(formatted, n=n)
        if self.cache is not None and save:
            self.cache.put(formatted, urls)
        return urls

    def search_and_fetch(
        self,
        query: str,
        store_dir: str,
        fetch_cache_dir: str,
        *,
        n: int = 5,
        concurrency: int = 4,
        **search_kwargs,
    ):
        """Full S6 composition: search -> actor-pool fetch -> (url, html,
        n_attempts, status) Dataset."""
        import ray.data

        from .fetch import fetch_pages

        urls = self.search(query, n=n, **search_kwargs)
        ds = ray.data.from_arrow(pa.table({"url": pa.array(urls, pa.string())}))
        return fetch_pages(
            ds, store_dir, fetch_cache_dir, concurrency=concurrency
        )
