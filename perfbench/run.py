"""Benchmark of the extraction pipeline, its resume path and the curation
shuffle.  Run from the repository root:

    python3 perfbench/run.py --workload cc_mixed_resume --seed 1 --seconds 16 --trace 0

One process per run: it generates (or reuses) the seeded inputs under
``.perfbench/``, starts Ray with ``num_cpus`` = ``nproc`` and sets up and
warms the workload SETUP_CYCLES times (Ray start + one warm-up call each;
``setup_s`` is their median).  With ``--trace 0`` it then makes closed-loop
calls of the user path, one at a time, until ``--seconds`` of call time
have passed, checks every call's output and reports end-to-end metrics.
With ``--trace 1`` it instead runs the layer-by-layer pass of
``workloads.py`` and reports per-layer metrics.

The last stdout line is the result object; the line before it holds the
detail: quartiles and sample counts, input and output digests, and the
check results.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

import gen
import procs
import workloads
from spans import Tracer

SETUP_CYCLES = 3
OBJECT_STORE_BYTES = 400 << 20
#: Ray puts unix sockets under its temp dir; their paths must stay < 108 bytes
MAX_RAY_TMP_LEN = 40


def log(*args) -> None:
    print(*args, file=sys.stderr, flush=True)


def nproc() -> int:
    """CPUs as ``nproc`` counts them: the affinity mask, capped by
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        head = os.environ.get(var, "").split(",")[0].strip()
        if head.isdigit() and int(head) > 0:
            n = int(head) if var == "OMP_NUM_THREADS" else min(n, int(head))
    return max(1, n)


def start_ray(temp_dir: str) -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=nproc(),
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=temp_dir,
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has exited."""
    import ray

    t0 = time.perf_counter()
    ray.shutdown()
    deadline = time.monotonic() + 20
    while procs.descendants(os.getpid()) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in procs.descendants(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10
    while procs.descendants(os.getpid()) and time.monotonic() < deadline:
        time.sleep(0.1)
    _reap()
    log("perfbench: ray stopped in {:.1f}s".format(time.perf_counter() - t0))


def _reap() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "p25": q1, "p75": q3, "n": len(values), "values": values}


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a diagnostic of host speed,
    never used to scale another metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def timed(wl, seconds: float, seed: int) -> tuple[dict, dict, int, int]:
    sampler = procs.RssSampler().start()
    results, crashed = [], None
    busy = 0.0
    while not results or busy < seconds:
        try:
            res = wl.call()
        except Exception:  # a crashed call fails all its docs
            crashed = traceback.format_exc()
            log(crashed)
            break
        results.append(res)
        busy += res["wall_s"] + res.get("recover_s", 0.0)
    peak = sampler.stop()
    log("perfbench: {} calls, {:.1f}s of call time".format(len(results), busy))

    attempted = sum(r["docs"] for r in results) + (wl.n_docs if crashed else 0)
    failed = wl.n_docs if crashed else 0
    checks = []
    for k, res in enumerate(results):
        chk = wl.check(res, seed=seed + k)
        failed += chk["failed"]
        checks.append(chk)
    if not results:
        return {}, {"crashed": crashed}, attempted, failed

    rate = [r["docs"] / r["wall_s"] for r in results]
    metrics = {
        "docs_per_s": (statistics.median(rate), "1/s"),
        "peak_rss_mb": (sum(peak.values()) / 2**20, "MB"),
    }
    detail = {
        "docs_per_s": summarize(rate),
        "call_wall_s": summarize([r["wall_s"] for r in results]),
        "peak_rss_mb": {k: v / 2**20 for k, v in peak.items()},
        "checks": checks,
        "crashed": crashed,
    }
    if "recover_s" in results[0]:
        detail["recover_s"] = summarize([r["recover_s"] for r in results])
    return metrics, detail, attempted, failed


def traced(wl, name: str, seed: int) -> tuple[dict, dict, int, int]:
    tracer = Tracer(run_id="{}-s{}-{}".format(name, seed, os.getpid()))
    sampler = procs.RssSampler().start()
    try:
        m, detail = wl.traced(tracer, seed)
    except Exception:
        crashed = traceback.format_exc()
        log(crashed)
        sampler.stop()
        return {}, {"crashed": crashed}, wl.n_docs, wl.n_docs
    peak = sampler.stop()
    for k, v in peak.items():
        m["rss.{}_mb".format(k)] = v / 2**20
    chk = detail["check"]
    m["check.failed_share"] = chk["failed"] / wl.n_docs
    detail["self_s"] = tracer.self_times()
    detail["spans"] = len(tracer.spans)
    return m, detail, wl.n_docs, chk["failed"]


def ray_temp_dir(work: str) -> str:
    """Ray's session dir, removed at exit: inside the repository when the
    path is short enough for Ray's unix sockets, else a fresh short dir."""
    path = os.path.join(work, "ray")
    if len(path) <= MAX_RAY_TMP_LEN:
        return path
    return tempfile.mkdtemp(prefix="pb-")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "ocr_ray", "__init__.py")):
        log("perfbench: no ocr_ray/ package in {}; run from the repository root".format(root))
        return 2
    sys.path.insert(0, root)
    # Ray workers inherit the environment of the cluster the driver starts
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    work = os.path.join(root, ".perfbench")
    t0 = time.perf_counter()
    inputs, input_sha = gen.ensure_inputs(args.workload, args.seed, os.path.join(work, "inputs"))
    gen_s = time.perf_counter() - t0
    run_dir = os.path.join(work, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    wl = workloads.make(args.workload, inputs, run_dir)
    ray_tmp = ray_temp_dir(work)

    import ray

    init_s, warm_s = [], []
    probe_s = [host_probe()]
    try:
        for k in range(SETUP_CYCLES):
            if k:
                stop_ray()
            t0 = time.perf_counter()
            start_ray(ray_tmp)
            t1 = time.perf_counter()
            wl.warm()
            t2 = time.perf_counter()
            init_s.append(t1 - t0)
            warm_s.append(t2 - t1)
            log("perfbench: setup {}: ray.init {:.2f}s, warm-up {:.2f}s".format(k, t1 - t0, t2 - t1))
        if args.trace:
            metrics, detail, attempted, failed = traced(wl, args.workload, args.seed)
            metrics["setup.ray_init_s"] = statistics.median(init_s)
            metrics["setup.warm_s"] = statistics.median(warm_s)
            metrics["host.probe_s"] = probe_s[0]
            metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
        else:
            metrics, detail, attempted, failed = timed(wl, args.seconds, args.seed)
            setup = [a + b for a, b in zip(init_s, warm_s)]
            metrics["setup_s"] = (statistics.median(setup), "s")
            detail["setup_s"] = summarize(setup)
        probe_s.append(host_probe())
    finally:
        if ray.is_initialized():
            stop_ray()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)

    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "num_cpus": nproc(), "gen_version": gen.GEN_VERSION, "input_sha256": input_sha,
        "input_gen_s": gen_s, "setup_cycles": {"ray_init_s": init_s, "warm_s": warm_s},
        "failed_share": failed / max(1, attempted), "host_probe_s": probe_s,
    })
    print(json.dumps(detail, default=str))
    result = {
        "correct": failed == 0 and not detail.get("crashed"),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0


UNITS = {
    "kernel.pages_per_s": "1/s",
    "kernel.detect.html_ms": "ms",
    "kernel.detect.pdf_ms": "ms",
    "kernel.detect.doc_ms": "ms",
    "kernel.assemble_ms": "ms",
    "kernel.span_dedup_ms": "ms",
    "kernel.span_dedup.pair_checks": "count",
    "kernel.span_dedup.dropped": "count",
    "kernel.digest_ms": "ms",
    "kernel.pages.ok": "count",
    "kernel.pages.error": "count",
    "kernel.share": "ratio",
    "stage.extract_batch_ms": "ms",
    "stage.arrow_overhead_ms": "ms",
    "io.read_s": "s",
    "io.bytes_in": "bytes",
    "io.blocks": "count",
    "engine.extract_pages_s": "s",
    "engine.overhead_s": "s",
    "write.files": "count",
    "write.bytes_out": "bytes",
    "write.rows_per_file": "count",
    "write.partitions": "count",
    "manifest.commits": "count",
    "resume.noop_s": "s",
    "resume.recover_s": "s",
    "resume.recomputed_docs": "count",
    "resume.skipped_partitions": "count",
    "dedup.minhash_pairs_s": "s",
    "dedup.pairs": "count",
    "dedup.components_s": "s",
    "dedup.clusters": "count",
    "query.curation_neardup_s": "s",
    "rss.driver_mb": "MB",
    "rss.workers_mb": "MB",
    "rss.daemons_mb": "MB",
    "setup.ray_init_s": "s",
    "setup.warm_s": "s",
    "host.probe_s": "s",
    "trace.overhead_s": "s",
    "check.failed_share": "ratio",
}


if __name__ == "__main__":
    sys.exit(main())
