"""Byte-level BPE tests (learned merges, rank-greedy encode, exact decode;
reference text_processing.py:334-385, tokenizer.py:54-188)."""

import hypothesis
import hypothesis.strategies as st

from ocr_ray.functions.bpe import BPETokenizer, bytes_to_unicode, train_bpe

CORPUS = [
    "the quick brown fox jumps over the lazy dog",
    "the quick brown fox is quick and the dog is lazy",
    "pack my box with five dozen liquor jugs",
    "the five boxing wizards jump quickly over the dog",
] * 4


def test_bytes_to_unicode_bijection():
    b2u = bytes_to_unicode()
    assert len(b2u) == 256
    assert len(set(b2u.values())) == 256
    assert b2u[ord("a")] == "a"  # printable bytes map to themselves


def test_training_learns_frequent_pairs():
    merges = train_bpe(CORPUS, n_merges=50)
    assert 0 < len(merges) <= 50
    products = {a + b for a, b in merges}
    # 'the' (with its leading-space byte form) is the most frequent word;
    # some merge chain must build a multi-char unit of it
    assert any("th" in p or "he" in p for p in products)


def test_encode_compresses_vs_bytes():
    tok = BPETokenizer.train(CORPUS, n_merges=100)
    text = CORPUS[0]
    ids = tok.encode(text)
    assert len(ids) < len(text.encode("utf-8"))
    assert all(0 <= i < len(tok.vocab) for i in ids)


def test_roundtrip_exact():
    tok = BPETokenizer.train(CORPUS, n_merges=60)
    for text in CORPUS + [
        "",
        "unseen wörds with ümlauts and emoji \U0001f600 and 中文 text",
        "tabs\tand\nnewlines  double  spaces",
        "it's the dog's toy, isn't it?",
    ]:
        assert tok.decode(tok.encode(text)) == text


@hypothesis.given(st.text(max_size=200))
@hypothesis.settings(max_examples=50, deadline=None)
def test_roundtrip_property(text):
    tok = _SHARED
    assert tok.decode(tok.encode(text)) == text


_SHARED = BPETokenizer.train(CORPUS, n_merges=40)


def test_determinism_and_serialization():
    m1 = train_bpe(CORPUS, n_merges=30)
    m2 = train_bpe(list(CORPUS), n_merges=30)
    assert m1 == m2
    tok = BPETokenizer(m1)
    tok2 = BPETokenizer.from_dict(tok.to_dict())
    assert tok2.encode(CORPUS[1]) == tok.encode(CORPUS[1])


def test_merge_application_order():
    """Rank order wins over position: lower-rank merges apply first
    (the reference bpe() min-rank loop, text_processing.py:343-345)."""
    merges = [("a", "b"), ("ab", "c")]
    tok = BPETokenizer(merges)
    # 'abc' -> a b c -> ab c -> abc : one token
    ids = tok.encode("abc")
    assert [tok.vocab[i] for i in ids] == ["abc"]


_BPE_ROUNDTRIP_SCRIPT = """
import json, sys, time

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
import ray.data

ray.data.DataContext.get_current().enable_progress_bars = False
from ocr_ray.pipelines.queries import ORACLE_SQL, QUERIES

sf = sys.argv[1]
texts = ["doc %d: naïve café 東京 ünïcödé — %s" % (i, "word " * (i % 7)) for i in range(120)]
docs = pa.table({"doc_id": pa.array(range(120), pa.int64()), "text": pa.array(texts)})
pq.write_table(docs, sf + "/documents.parquet")
t0 = time.perf_counter()
got = QUERIES["bpe_roundtrip"](sf).to_pandas().sort_values("doc_id")
took = time.perf_counter() - t0
con = duckdb.connect()
con.execute("CREATE VIEW documents AS SELECT * FROM read_parquet('%s')" % (sf + "/documents.parquet"))
want = con.execute(ORACLE_SQL["bpe_roundtrip"]).df().sort_values("doc_id")
assert got["doc_id"].tolist() == want["doc_id"].tolist()
assert got["text"].tolist() == want["text"].tolist() == texts
ray.shutdown()
print(json.dumps({"query_s": took}))
"""


def test_bpe_roundtrip_finishes_on_one_cpu(tmp_path):
    """On a 1-CPU Ray cluster the registered ``bpe_roundtrip`` query
    finishes within 30 s and equals its DuckDB oracle (an actor pool of
    four never got its CPUs there and hung).  Runs in its own process (own
    Ray cluster), killed with its whole process group on timeout."""
    import json
    import os
    import pathlib
    import signal
    import subprocess
    import sys

    import pytest

    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root))
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _BPE_ROUNDTRIP_SCRIPT, str(tmp_path)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("bpe_roundtrip did not finish within 120 s on a 1-CPU cluster")
    assert proc.returncode == 0, err[-3000:]
    took = json.loads(out.strip().splitlines()[-1])
    assert took["query_s"] < 30, took
