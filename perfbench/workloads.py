"""The three workloads: what one measured call is, how it is warmed up,
checked and traced.

Each workload object is built over its generated inputs and an output
root under ``.perfbench/``.  ``call()`` runs one closed-loop call of
the user path and returns its timings; ``check()`` verifies the output of
the last call; ``traced(tracer)`` runs the layer-by-layer pass and returns
per-layer metrics.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

from checks import (
    check_curation,
    check_extraction,
    curation_reference,
    duckdb_oracle,
    kernel_sample,
    reference_cached,
)
from spans import Tracer, counted, wrap

#: seeded rows per timed call whose text is re-extracted single-process
IDENTITY_SAMPLE = 200
#: docs of the neardup input compared with DuckDB in the traced run
ORACLE_DOCS = 64


def _dir_stats(out_dir: str) -> dict:
    files = nbytes = parts = 0
    for name in os.listdir(out_dir):
        if not name.startswith("partition_id="):
            continue
        parts += 1
        for f in os.listdir(os.path.join(out_dir, name)):
            if f.endswith(".parquet"):
                files += 1
                nbytes += os.path.getsize(os.path.join(out_dir, name, f))
    return {"files": files, "bytes": nbytes, "partitions": parts}


def _concat(tables: list[pa.Table]) -> pa.Table:
    """Blocks of a query result; empty blocks may carry no schema."""
    return pa.concat_tables([t for t in tables if t.num_rows] or tables[:1])


def _idle_metrics(names) -> dict:
    """Layers a workload never calls report zero work."""
    return {n: 0.0 for n in names}


KERNEL_METRICS = (
    "kernel.pages_per_s", "kernel.detect.html_ms", "kernel.detect.pdf_ms",
    "kernel.detect.doc_ms", "kernel.assemble_ms", "kernel.span_dedup_ms",
    "kernel.span_dedup.pair_checks", "kernel.span_dedup.dropped",
    "kernel.digest_ms", "kernel.pages.ok", "kernel.pages.error", "kernel.share",
    "stage.extract_batch_ms", "stage.arrow_overhead_ms", "engine.extract_pages_s", "engine.overhead_s",
    "write.files", "write.bytes_out", "write.rows_per_file", "write.partitions",
    "manifest.commits", "resume.noop_s", "resume.recover_s",
    "resume.recomputed_docs", "resume.skipped_partitions",
)
DEDUP_METRICS = (
    "dedup.minhash_pairs_s", "dedup.pairs", "dedup.components_s",
    "dedup.clusters", "query.curation_neardup_s",
)


class Extraction:
    """``run_extraction`` over generated pages: each call is a full run,
    then a fixed quarter of the partitions is invalidated and the run
    resumed."""

    #: far above the CLI default of 32, so each write block holds only a
    #: few rows per partition: many small files, as at scale
    n_partitions = 128

    def __init__(self, inputs: str, work: str):
        self.pages_dir = os.path.join(inputs, "pages")
        self.warm_dir = os.path.join(inputs, "warm")
        self.work = work
        self.n_calls = 0
        self.pages = pq.read_table(self.pages_dir, columns=["url", "html"])
        self.n_docs = self.pages.num_rows

    def _fresh(self) -> str:
        """A new output dir per call, so every call's output can be
        checked after the timed window."""
        self.n_calls += 1
        out = os.path.join(self.work, "out-{}".format(self.n_calls))
        shutil.rmtree(out, ignore_errors=True)
        return out

    def warm(self) -> None:
        from ocr_ray.pipelines.extraction import run_extraction

        out = self._fresh()
        run_extraction(self.warm_dir, out, n_partitions=self.n_partitions)
        self._invalidate(out)
        run_extraction(self.warm_dir, out, n_partitions=self.n_partitions)

    def _invalidate(self, out: str) -> list[int]:
        from ocr_ray.state import manifest as mf

        pids = [p for p in sorted(mf.completed_partitions(out)) if p % 4 == 0]
        for p in pids:
            mf.invalidate_partition(out, p)
        return pids

    def call(self) -> dict:
        from ocr_ray.pipelines.extraction import run_extraction

        out = self._fresh()
        t0 = time.perf_counter()
        full = run_extraction(self.pages_dir, out, n_partitions=self.n_partitions)
        t1 = time.perf_counter()
        manifest = self._manifest_docs(out)
        pids = self._invalidate(out)
        t2 = time.perf_counter()
        again = run_extraction(self.pages_dir, out, n_partitions=self.n_partitions)
        return {
            "docs": self.n_docs, "out": out,
            "wall_s": t1 - t0, "extracted": full["extracted"],
            "recover_s": time.perf_counter() - t2, "recomputed": again["extracted"],
            "recompute_expected": sum(manifest.get(p, 0) for p in pids),
        }

    @staticmethod
    def _manifest_docs(out: str) -> dict[int, int]:
        from ocr_ray.state import manifest as mf

        return {p: e["n_docs"] for p, e in mf.completed_partitions(out).items()}

    def check(self, res: dict, *, seed: int) -> dict:
        """The final output after the resume; a full run or a resume that
        reports a wrong row count fails the docs it got wrong."""
        chk = check_extraction(self.pages, res["out"],
                               kernel_sample(self.pages, IDENTITY_SAMPLE, seed))
        chk["failed"] += abs(self.n_docs - res["extracted"])
        chk["failed"] += abs(res["recomputed"] - res["recompute_expected"])
        chk["failed"] = min(chk["failed"], self.n_docs)
        return chk

    def traced(self, tracer: Tracer, seed: int) -> tuple[dict, dict]:
        from ocr_ray import extract_core
        from ocr_ray.pipelines import extraction
        from ocr_ray.sources.io import read_pages
        from ocr_ray.stages.extract import extract_batch
        from ocr_ray.state import manifest as mf

        m: dict[str, float] = {}
        untraced = self.call()

        # pipelines.extraction end to end, with the driver-side manifest
        # calls counted; the same run's output is checked row by row below
        out = self._fresh()
        with wrap(tracer, mf, "commit_partition", "state.manifest.commit",
                  lambda a, r: tracer.count("manifest.commits")):
            with tracer.span("pipelines.run_extraction"):
                full = extraction.run_extraction(self.pages_dir, out, n_partitions=self.n_partitions)
        run_s = tracer.total("pipelines.run_extraction")
        m["manifest.commits"] = tracer.counts.get("manifest.commits", 0)
        ds = _dir_stats(out)
        m["write.files"] = ds["files"]
        m["write.bytes_out"] = ds["bytes"]
        m["write.partitions"] = ds["partitions"]
        m["write.rows_per_file"] = full["extracted"] / max(1, ds["files"])

        # sources.io: the pruned page read, materialized
        with tracer.span("sources.read_pages"):
            read = read_pages(self.pages_dir, columns=extraction.PAGE_COLUMNS).materialize()
        m["io.read_s"] = tracer.total("sources.read_pages")
        m["io.bytes_in"] = read.size_bytes()
        m["io.blocks"] = read.num_blocks()

        # engine: read -> extract, materialized, with per-operator stats
        with tracer.span("engine.extract_pages"):
            ext = extraction.extract_pages(
                read_pages(self.pages_dir, columns=extraction.PAGE_COLUMNS)).materialize()
        m["engine.extract_pages_s"] = tracer.total("engine.extract_pages")
        operators = [
            {"op": s.operator_name, "wall_s": (s.wall_time or {}).get("sum"),
             "rows": (s.output_num_rows or {}).get("sum")}
            for s in ext._plan.stats().to_summary().operators_stats
        ]
        del read, ext

        # stages.extract: the Arrow batch function, single process
        pages = pq.read_table(self.pages_dir, columns=extraction.PAGE_COLUMNS)
        with tracer.span("stages.extract_batch"):
            for start in range(0, pages.num_rows, 64):
                extract_batch(pages.slice(start, 64))
        m["stage.extract_batch_ms"] = 1e3 * tracer.total("stages.extract_batch")

        # extract_core kernel, single core, same pages, every step wrapped
        def detect_name(args):
            kind = extract_core.payload_kind(args[0], args[1])
            return "kernel.detect." + (kind if kind in ("html", "pdf") else "doc")

        def on_filter(args, result):
            tracer.count("kernel.span_dedup.dropped", len(args[0]) - len(result))

        n_ok = n_err = 0
        expected = []
        with wrap(tracer, extract_core, "detect_paragraphs", detect_name), \
                wrap(tracer, extract_core, "assemble_text", "kernel.assemble"), \
                wrap(tracer, extract_core, "filter_duplicate_spans", "kernel.span_dedup", on_filter), \
                counted(tracer, extract_core, "is_near_duplicate_cached",
                        "kernel.span_dedup.pair_checks"), \
                wrap(tracer, extract_core, "sha256_hex", "kernel.digest"):
            for url, payload in zip(pages.column("url").to_pylist(), pages.column("html").to_pylist()):
                with tracer.span("kernel.extract_page"):
                    row = extract_core.extract_page(url, payload)
                expected.append((url, row["extracted"]))
                if row["status"] == "ok":
                    n_ok += 1
                else:
                    n_err += 1
        self_t = tracer.self_times()
        kernel_s = tracer.total("kernel.extract_page")
        m["kernel.pages_per_s"] = pages.num_rows / kernel_s
        for kind in ("html", "pdf", "doc"):
            m["kernel.detect.{}_ms".format(kind)] = 1e3 * tracer.total("kernel.detect." + kind)
        m["kernel.assemble_ms"] = 1e3 * self_t.get("kernel.assemble", 0.0)
        m["kernel.span_dedup_ms"] = 1e3 * tracer.total("kernel.span_dedup")
        m["kernel.span_dedup.pair_checks"] = tracer.counts.get("kernel.span_dedup.pair_checks", 0)
        m["kernel.span_dedup.dropped"] = tracer.counts.get("kernel.span_dedup.dropped", 0)
        m["kernel.digest_ms"] = 1e3 * tracer.total("kernel.digest")
        m["kernel.pages.ok"] = n_ok
        m["kernel.pages.error"] = n_err
        m["kernel.share"] = kernel_s / run_s
        m["engine.overhead_s"] = run_s - kernel_s
        m["stage.arrow_overhead_ms"] = m["stage.extract_batch_ms"] - 1e3 * kernel_s

        # every row of the traced run against the single-process kernel
        chk = check_extraction(self.pages, out, expected)
        chk["failed"] += abs(self.n_docs - full["extracted"])

        # state.manifest and resume: a fixed quarter invalidated, then a
        # resume with nothing left to do
        manifest = self._manifest_docs(out)
        pids = self._invalidate(out)
        with tracer.span("resume.recover"):
            again = extraction.run_extraction(self.pages_dir, out, n_partitions=self.n_partitions)
        with tracer.span("resume.noop"):
            noop = extraction.run_extraction(self.pages_dir, out, n_partitions=self.n_partitions)
        m["resume.recover_s"] = tracer.total("resume.recover")
        m["resume.noop_s"] = tracer.total("resume.noop")
        m["resume.recomputed_docs"] = again["extracted"]
        m["resume.skipped_partitions"] = again["skipped_partitions"]
        chk["failed"] += abs(again["extracted"] - sum(manifest.get(p, 0) for p in pids))
        chk["failed"] += noop["extracted"]
        chk["failed"] = min(chk["failed"], self.n_docs)

        m.update(_idle_metrics(DEDUP_METRICS))
        m["trace.overhead_s"] = run_s - untraced["wall_s"]
        detail = {"operators": operators, "check": chk, "untraced_wall_s": untraced["wall_s"]}
        return m, detail


class Curation:
    """The registered ``curation_neardup`` query over a generated
    ``documents`` table."""

    def __init__(self, inputs: str):
        self.inputs = inputs
        self.warm_dir = os.path.join(inputs, "warm")
        self.docs = pq.read_table(os.path.join(inputs, "documents.parquet"))
        self.n_docs = self.docs.num_rows
        self.ref = reference_cached(inputs)

    @staticmethod
    def _run(sf_dir: str) -> pa.Table:
        import ray

        from ocr_ray.pipelines import queries as Q

        refs = Q.QUERIES["curation_neardup"](sf_dir).to_arrow_refs()
        return _concat(ray.get(refs))

    def warm(self) -> None:
        self._run(self.warm_dir)

    def call(self) -> dict:
        t0 = time.perf_counter()
        result = self._run(self.inputs)
        return {"docs": self.n_docs, "wall_s": time.perf_counter() - t0, "result": result}

    def check(self, res: dict, *, seed: int) -> dict:
        return check_curation(res["result"], self.ref)

    def traced(self, tracer: Tracer, seed: int) -> tuple[dict, dict]:
        import ray

        from ocr_ray.sources.io import read_table, table_shuffle_blocks
        from ocr_ray.stages import dedup

        m: dict[str, float] = {}
        untraced = self.call()
        with tracer.span("pipelines.curation_neardup"):
            res = self.call()
        q_s = tracer.total("pipelines.curation_neardup")
        chk = check_curation(res["result"], self.ref)

        with tracer.span("sources.read_table"):
            read = read_table(self.inputs, "documents", columns=["doc_id", "text"]).materialize()
        m["io.read_s"] = tracer.total("sources.read_table")
        m["io.bytes_in"] = read.size_bytes()
        m["io.blocks"] = read.num_blocks()
        del read

        docs = read_table(self.inputs, "documents", columns=["doc_id", "text"])
        with tracer.span("stages.dedup.minhash_dedup_pairs"):
            pairs = dedup.minhash_dedup_pairs(
                docs, threshold=0.8,
                shuffle_blocks=table_shuffle_blocks(self.inputs, "documents")).materialize()
        m["dedup.minhash_pairs_s"] = tracer.total("stages.dedup.minhash_dedup_pairs")
        m["dedup.pairs"] = pairs.count()
        with tracer.span("stages.dedup.connected_components"):
            clusters = _concat(ray.get(
                dedup.connected_components(pairs.select_columns(["a", "b"])).to_arrow_refs()))
        m["dedup.components_s"] = tracer.total("stages.dedup.connected_components")
        m["dedup.clusters"] = len(set(clusters.column("cluster_id").to_pylist()))
        m["query.curation_neardup_s"] = q_s

        # the exact reference against DuckDB's ORACLE_SQL on a prefix small
        # enough for its quadratic all-pairs join
        small = self.docs.slice(0, ORACLE_DOCS)
        with tracer.span("check.duckdb_oracle"):
            oracle_ok = duckdb_oracle(small) == curation_reference(small)
        if not oracle_ok:
            chk["failed"] += 1
        chk["oracle_prefix_docs"] = ORACLE_DOCS
        chk["oracle_matches_reference"] = oracle_ok

        m.update(_idle_metrics(KERNEL_METRICS))
        m["trace.overhead_s"] = q_s - untraced["wall_s"]
        return m, {"check": chk, "untraced_wall_s": untraced["wall_s"]}


def make(name: str, inputs: str, work: str):
    if name == "cc_mixed_resume":
        return Extraction(inputs, work)
    if name == "neardup_curate":
        return Curation(inputs)
    raise ValueError(name)


WORKLOADS = ("cc_mixed_resume", "neardup_curate")
