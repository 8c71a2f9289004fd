"""Ray pipeline equivalence + resume tests (FIXTURES.md §5 invariants).

Invariant 2 (parallelism-invariance) is the analog of the reference's
graph-vs-eager conformance tests (tests/__init__.py:105-162): the same job
at different parallelism must produce identical bytes.
"""

import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ocr_ray import reference, synth
from ocr_ray.pipelines import extraction as ex
from ocr_ray.state import manifest as mf

from . import keyhash_reference as ref

N_PAGES = 72


@pytest.fixture(scope="module")
def corpus():
    return synth.synth_corpus(N_PAGES)


@pytest.fixture(scope="module")
def oracle(corpus):
    return reference.extract_table(corpus).sort_by("url")


def _collect(ray, ds, schema) -> pa.Table:
    tables = [ray.get(r) for r in ds.to_arrow_refs()]
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(t.select(schema.names).cast(schema) for t in tables).sort_by("url")


def test_fused_matches_oracle(ray_session, corpus, oracle):
    import ray.data

    ds = ex.extract_pages(ray.data.from_arrow(corpus).repartition(6), mode="fused")
    assert _collect(ray_session, ds, oracle.schema).equals(oracle)


def test_exploded_matches_oracle(ray_session, corpus, oracle):
    import ray.data

    ds = ex.extract_pages(ray.data.from_arrow(corpus).repartition(6), mode="exploded")
    assert _collect(ray_session, ds, oracle.schema).equals(oracle)


@pytest.mark.parametrize(
    "footnote_mode",
    ["keep", "skip", "insert", "insert_next_sentence", "insert_last_sentence"],
)
def test_fused_matches_exploded_in_every_footnote_mode(ray_session, corpus, footnote_mode):
    """Both modes give the same rows in every footnote mode, also for the
    markdown pages whose image paragraphs carry no ``text`` key: such a
    page extracts ``ok``, never ``KeyError: 'text'``."""
    import ray.data

    md = [u for u in corpus.column("url").to_pylist() if u.endswith(".md")]
    assert md
    want = reference.extract_table(corpus, footnote_mode=footnote_mode).sort_by("url")
    for mode in ("fused", "exploded"):
        ds = ex.extract_pages(
            ray.data.from_arrow(corpus).repartition(6), mode=mode, footnote_mode=footnote_mode
        )
        got = _collect(ray_session, ds, want.schema)
        assert got.to_pylist() == want.to_pylist(), mode
    status = dict(zip(want.column("url").to_pylist(), want.column("status").to_pylist()))
    assert all(status[u] == "ok" for u in md)


def test_parallelism_invariance(ray_session, corpus, oracle):
    import ray.data

    for nblocks in (1, 13):
        ds = ex.extract_pages(
            ray.data.from_arrow(corpus).repartition(nblocks), mode="fused", batch_size=7
        )
        assert _collect(ray_session, ds, oracle.schema).equals(oracle)


def test_run_and_resume(ray_session, corpus, oracle, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("extract_out"))
    shutil.rmtree(out, ignore_errors=True)
    stats = ex.run_extraction(corpus, out, n_partitions=6)
    assert stats["extracted"] == N_PAGES
    back = ex.read_extracted(out).select(oracle.column_names).cast(oracle.schema)
    assert back.sort_by("url").equals(oracle)

    # full resume: nothing recomputed
    stats2 = ex.run_extraction(corpus, out, n_partitions=6)
    assert stats2 == {"extracted": 0, "skipped_partitions": 6}

    # resume=False (the CLI's --no-resume): everything rewritten, once
    stats3 = ex.run_extraction(corpus, out, n_partitions=6, resume=False)
    assert stats3 == {"extracted": N_PAGES, "skipped_partitions": 0}
    back = ex.read_extracted(out).select(oracle.column_names).cast(oracle.schema)
    assert back.sort_by("url").equals(oracle)
    urls = back.column("url").to_pylist()
    assert len(urls) == len(set(urls)) == N_PAGES


def test_kill_and_resume(ray_session, corpus, oracle, tmp_path_factory):
    """Simulate a crash after some partitions committed: drop half the
    manifests + their output dirs, resume, and require byte-identical final
    output with no partition extracted twice (FIXTURES.md invariant 3)."""
    import os

    out = str(tmp_path_factory.mktemp("extract_resume"))
    ex.run_extraction(corpus, out, n_partitions=6)
    # wipe partitions 0-2 (simulating a run killed before committing them)
    for pid in (0, 1, 2):
        shutil.rmtree(os.path.join(out, "partition_id={}".format(pid)), ignore_errors=True)
        os.remove(os.path.join(mf.manifest_dir(out), "part-{:06d}.json".format(pid)))
    stats = ex.run_extraction(corpus, out, n_partitions=6)
    assert stats["skipped_partitions"] == 3
    back = ex.read_extracted(out).select(oracle.column_names).cast(oracle.schema)
    assert back.sort_by("url").equals(oracle)
    # each committed partition has exactly one manifest entry
    assert len(mf.completed_partitions(out)) == 6
    # no duplicate urls across partition dirs
    urls = pq.read_table(out, columns=["url"]).column("url").to_pylist()
    assert len(urls) == len(set(urls)) == N_PAGES


def test_resume_invalidates_changed_input(ray_session, corpus, oracle, tmp_path_factory):
    """ADVICE r1: a committed partition whose INPUT rows changed between
    runs must be recomputed, not silently skipped (input_digest check)."""
    import ray as _ray

    out = str(tmp_path_factory.mktemp("extract_changed"))
    ex.run_extraction(corpus, out, n_partitions=6)

    # perturb one page's url -> its old partition loses a row (digest
    # mismatch) and some partition gains one
    urls = corpus.column("url").to_pylist()
    old_pid = ref.partition_id(urls[0], 6)
    urls[0] = urls[0] + "-changed"
    changed = corpus.set_column(
        corpus.schema.get_field_index("url"), "url", pa.array(urls)
    )
    stats = ex.run_extraction(changed, out, n_partitions=6)
    new_pid = ref.partition_id(urls[0], 6)
    stale = {old_pid, new_pid}
    assert stats["skipped_partitions"] == 6 - len(stale)
    assert stats["extracted"] > 0
    back_urls = pq.read_table(out, columns=["url"]).column("url").to_pylist()
    assert sorted(back_urls) == sorted(urls)  # new corpus, no dropped rows


def test_combine_digests_duplicate_sensitive():
    """sum-mod-2^64 combine: a digest repeated an even number of times must
    NOT cancel out (the xor failure mode from round-1 ADVICE)."""
    d = "ab" * 32
    assert mf.combine_digests([d, d]) != mf.combine_digests([])
    assert mf.combine_digests([d, d, d, d]) != mf.combine_digests([d, d])


def test_documents_identity_roundtrip(ray_session):
    """pages synthesized from the documents table extract back to exactly
    the text column (the DuckDB-oracle identity)."""
    import ray.data

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    pages = synth.pages_from_documents(docs)
    ds = ex.extract_pages(ray.data.from_arrow(pages).repartition(4), mode="fused")
    got = _collect(ray_session, ds, reference.extract_table(pages.slice(0, 1)).schema)
    by_url = dict(zip(got.column("url").to_pylist(), got.column("extracted").to_pylist()))
    for url, text in zip(pages.column("url").to_pylist(), pages.column("text").to_pylist()):
        assert by_url[url] == text
    assert all(s == "ok" for s in got.column("status").to_pylist())


def test_crash_between_write_and_commit(ray_session, corpus, oracle, tmp_path_factory):
    """A run killed AFTER a partition's parquet landed but BEFORE its
    manifest committed must not duplicate that partition's rows on resume:
    the uncommitted dir is debris and gets recomputed from scratch."""
    import os

    out = str(tmp_path_factory.mktemp("extract_uncommitted"))
    ex.run_extraction(corpus, out, n_partitions=6)
    # simulate: manifest for partition 0 lost, output dir still present
    os.remove(os.path.join(mf.manifest_dir(out), "part-000000.json"))
    stats = ex.run_extraction(corpus, out, n_partitions=6)
    assert stats["skipped_partitions"] == 5
    urls = pq.read_table(out, columns=["url"]).column("url").to_pylist()
    assert len(urls) == len(set(urls)) == N_PAGES  # no duplicates
    back = ex.read_extracted(out).select(oracle.column_names).cast(oracle.schema)
    assert back.sort_by("url").equals(oracle)


def test_cli_batch_size_default_is_run_extractions(ray_session, monkeypatch):
    """``python -m ocr_ray`` passes ``batch_size`` only when
    ``--batch-size`` is given, so ``run_extraction``'s default is the one
    default; ``--no-resume`` is ``resume=False``."""
    from ocr_ray import __main__ as cli

    seen = []
    monkeypatch.setattr(ex, "run_extraction", lambda *a, **kw: seen.append(kw) or {})
    monkeypatch.setattr(ray_session, "shutdown", lambda: None)
    cli.main(["--input", "pages", "--output", "out"])
    cli.main(["--input", "pages", "--output", "out", "--batch-size", "16"])
    cli.main(["--input", "pages", "--output", "out", "--no-resume"])
    assert "batch_size" not in seen[0]
    assert seen[1]["batch_size"] == 16
    assert [kw["resume"] for kw in seen] == [True, True, False]
