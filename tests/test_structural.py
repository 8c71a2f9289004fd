"""Structural golden column tests (FIXTURES.md §3 `paragraphs`)."""

import pyarrow as pa

from ocr_ray import reference, synth
from ocr_ray.sources.io import collect_tables
from ocr_ray.stages.extract import extract_batch


def test_ray_structural_matches_oracle(ray_session):
    import ray.data

    corpus = synth.synth_corpus(36)
    oracle = reference.extract_table(corpus, include_paragraphs=True).sort_by("url")
    ds = ray.data.from_arrow(corpus).repartition(4).map_batches(
        extract_batch,
        fn_kwargs={"include_paragraphs": True},
        batch_format="pyarrow",
        batch_size=7,
    )
    got = pa.concat_tables(collect_tables(ds))
    got = got.select(oracle.column_names).cast(oracle.schema).sort_by("url")
    assert got.equals(oracle)


def test_sections_structure():
    corpus = synth.synth_corpus(36)
    full = reference.extract_table(corpus, include_paragraphs=True)
    rows = [r for r in full.to_pylist() if "/sections/" in r["url"]]
    assert rows
    for r in rows:
        sections = [tuple(p["section"]) for p in r["paragraphs"]]
        assert ("Alpha",) in sections
        assert ("Alpha", "Beta") in sections
        assert ("Alpha", "Beta", "Gamma") in sections
        assert ("Alpha", "Delta") in sections  # h2 pops Gamma from the stack


def test_pdf_order_weights_in_structure():
    """FIXTURES invariant 5: headers before body before footnotes before
    page numbers within each page."""
    corpus = synth.synth_corpus(36)
    full = reference.extract_table(corpus, include_paragraphs=True)
    rows = [r for r in full.to_pylist() if "/pdf_footnote/" in r["url"]]
    assert rows
    rank = {"header": 0, "body": 1, "footnote": 2, "page_number": 3}
    for r in rows:
        per_page: dict[int, list[int]] = {}
        kinds_seen = set()
        for p in r["paragraphs"]:
            k = (
                "header" if p["is_header"]
                else "page_number" if p["is_page_number"]
                else "footnote" if p["is_footnote"]
                else "body"
            )
            kinds_seen.add(k)
            per_page.setdefault(p["page"], []).append(rank[k])
        assert {"header", "body", "page_number"} <= kinds_seen
        for page, ranks in per_page.items():
            assert ranks == sorted(ranks), (r["url"], page, ranks)


def test_structural_error_rows_have_empty_paragraphs():
    t = reference.extract_table(
        synth.synth_corpus(12), include_paragraphs=True
    )
    for r in t.to_pylist():
        if r["status"] == "error":
            assert r["paragraphs"] == []


def test_list_column_matrix():
    import numpy as np
    import pyarrow as pa
    import pytest

    from ocr_ray.schema import list_column_matrix

    col = pa.chunked_array([pa.array([[1.0, 2.0], [3.0, 4.0]], pa.list_(pa.float32()))])
    m = list_column_matrix(col)
    assert m.dtype == np.float64 and m.shape == (2, 2)
    assert m.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert list_column_matrix(pa.array([], pa.list_(pa.float64()))).shape == (0, 0)
    # ragged lists with a compatible TOTAL size must still raise
    with pytest.raises(ValueError, match="ragged"):
        list_column_matrix(pa.array([[1.0], [2.0, 3.0, 4.0]], pa.list_(pa.float64())))


#: approximate-by-design queries pinned by pytest accuracy gates instead
#: of a DuckDB oracle (README "rows-only" list) — additions to the
#: registry MUST either ship an oracle_sql() entry or be added here with
#: an accuracy gate, or this drift gate fails.
ROWS_ONLY_BY_DESIGN = {
    "knn_ivf",
    "knn_ivf_indexed",
    "distinct_tokens_hll",
    "distinct_tokens_by_lang",
    "value_quantiles_kll",
}


def test_registry_oracle_coverage():
    from ocr_ray.pipelines.queries import ORACLE_SQL, QUERIES

    missing = set(QUERIES) - set(ORACLE_SQL) - ROWS_ONLY_BY_DESIGN
    assert not missing, "queries with neither oracle nor rows-only waiver: %s" % sorted(missing)
    orphans = set(ORACLE_SQL) - set(QUERIES)
    assert not orphans, "oracles without a query: %s" % sorted(orphans)
    stale = ROWS_ONLY_BY_DESIGN & set(ORACLE_SQL)
    assert not stale, "rows-only entries that now HAVE oracles: %s" % sorted(stale)
    assert ROWS_ONLY_BY_DESIGN <= set(QUERIES)


#: the only hash/range-bucket shuffles allowed outside
#: ``groupagg.bucketed_map_groups`` and the only ``zlib.crc32`` calls
#: allowed beside ``strhash.key_hash``, keyed (file, top-level def) with
#: None for a whole file
BUCKET_GUARD_ALLOW = {
    ("stages/joins.py", "bucketed_prefix_sum"): "range buckets, which must stay ordered",
    ("stages/groupagg.py", "tree_merge_partials"): "buckets one partial per block, not data rows",
    ("codecs.py", "encode_png"): "the PNG chunk CRC is a format field",
    ("pipelines/queries_train.py", "q_fetch_corpus"): "one scalar scratch-dir key per run",
}


def _bucket_guard_findings(rel: str, tree) -> list:
    import ast

    found = []

    def visit(node, top):
        for child in ast.iter_child_nodes(node):
            where = top
            if top is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                where = child.name
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if name == "_add_key_bucket" or getattr(child, "name", None) == "_add_key_bucket":
                found.append((where, child.lineno, "_add_key_bucket"))
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                f = child.func
                key = child.args[0] if child.args else None
                if (
                    f.attr == "groupby"
                    and isinstance(key, ast.Constant)
                    and "bucket" in str(key.value)
                    and rel != "stages/groupagg.py"
                ):
                    found.append((where, child.lineno, f'groupby("{key.value}")'))
                if f.attr == "crc32" and getattr(f.value, "id", None) == "zlib":
                    found.append((where, child.lineno, "zlib.crc32"))
                if f.attr == "join" and any(
                    kw.arg == "num_partitions" for kw in child.keywords
                ):
                    found.append((where, child.lineno, "join(num_partitions=)"))
                grouped = f.value.value if isinstance(f.value, ast.Subscript) else f.value
                if (
                    f.attr == "head"
                    and isinstance(grouped, ast.Call)
                    and isinstance(grouped.func, ast.Attribute)
                    and grouped.func.attr == "groupby"
                    and rel != "stages/groupagg.py"
                ):
                    found.append((where, child.lineno, "groupby().head()"))
            visit(child, where)

    visit(tree, None)
    return found


def test_one_keyed_bucket_shuffle():
    """Every hash-bucket ``groupby().map_groups()`` goes through
    ``stages/groupagg.bucketed_map_groups``: no ``_add_key_bucket``, no
    ``groupby("...bucket...")``, no ``zlib.crc32`` call (a row-key hash
    beside ``strhash.key_hash``, even one called per row from a helper) and
    no ``Dataset.join`` (a ``.join(...)`` with ``num_partitions=``; joins
    are ``stages/joins.hash_join`` on the same shuffle) and no pandas
    ``.groupby(...).head(...)`` (a hand-rolled grouped top-k; that is
    ``groupagg.group_topk`` / ``topk_rows``) elsewhere in ``ocr_ray/``,
    except the allow-listed, reasoned sites."""
    import ast
    import pathlib

    import ocr_ray

    root = pathlib.Path(ocr_ray.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for where, line, what in _bucket_guard_findings(rel, ast.parse(path.read_text())):
            if (rel, where) not in BUCKET_GUARD_ALLOW and (rel, None) not in BUCKET_GUARD_ALLOW:
                bad.append(f"{rel}:{line} ({where}): {what}")
    assert not bad, "hand-rolled bucket shuffles:\n" + "\n".join(bad)


def test_bucket_guard_catches_hand_rolled_copies():
    """The guard above flags each pattern it exists for."""
    import ast

    src = (
        "def _vec_hash(v):\n"
        "    return zlib.crc32(v.tobytes())\n"
        "def q(ds, n):\n"
        "    b = [zlib.crc32(str(v).encode()) % n for v in ds]\n"
        "    h = [_vec_hash(v) for v in ds]\n"
        "    ds = joins._add_key_bucket(ds, key='k', n_buckets=n)\n"
        "    out = ds.join(ds, join_type='inner', num_partitions=n, on=('k',))\n"
        "    top = df.sort_values(['g', 'v']).groupby('g', sort=False).head(3)\n"
        "    return ds.groupby('__bucket').map_groups(f)\n"
    )
    found = {
        (where, what)
        for where, _, what in _bucket_guard_findings("pipelines/queries_x.py", ast.parse(src))
    }
    assert found == {
        ("_vec_hash", "zlib.crc32"),
        ("q", "zlib.crc32"),
        ("q", "_add_key_bucket"),
        ("q", 'groupby("__bucket")'),
        ("q", "join(num_partitions=)"),
        ("q", "groupby().head()"),
    }


#: the steps of the resume protocol and the partition-file write; outside
#: ``state/manifest.py`` they may appear only inside
#: ``pipelines/writer.write_partitioned``
RESUME_STEPS = {
    "purge_mismatched", "invalidate_partition", "clean_debris",
    "drop_partitions", "commit_partition", "write_partition",
}


def _resume_step_findings(tree) -> list:
    """(top-level def, line, step) of every use of a resume step in
    ``tree``: a call or a reference (``map_batches(drop_partitions)``) by
    name or attribute, and ``mf.clear`` / ``manifest.clear``."""
    import ast

    found = []
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name == "clear" and getattr(node.value, "id", None) in ("mf", "manifest"):
                found.append((where, node.lineno, "mf.clear"))
            elif name in RESUME_STEPS:
                found.append((where, node.lineno, name))
    return found


def test_one_resume_protocol():
    """Only ``writer.write_partitioned`` runs the resume protocol (purge,
    digest check and invalidate, debris cleanup, skip filter, commit) and
    writes partition files: no other function in ``ocr_ray/`` uses one of
    its steps."""
    import ast
    import pathlib

    import ocr_ray

    root = pathlib.Path(ocr_ray.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "state/manifest.py":
            continue
        for where, line, what in _resume_step_findings(ast.parse(path.read_text())):
            if (rel, where) != ("pipelines/writer.py", "write_partitioned"):
                bad.append(f"{rel}:{line} ({where}): {what}")
    assert not bad, "resume steps outside writer.write_partitioned:\n" + "\n".join(bad)


def test_resume_guard_catches_hand_rolled_copies():
    """The guard above flags each step of a hand-rolled resume sequence."""
    import ast

    src = (
        "def run(ds, out, n):\n"
        "    mf.purge_mismatched(out, n)\n"
        "    mf.invalidate_partition(out, 0)\n"
        "    mf.clear(out)\n"
        "    wr.clean_debris(out, committed=frozenset())\n"
        "    ds = ds.map_batches(wr.drop_partitions, fn_kwargs={})\n"
        "    parts = bucketed_map_groups(ds, [k], partial(write_partition, out))\n"
        "    seen.clear()\n"
        "    for r in rows:\n"
        "        commit_partition(out, r, n_docs=1, input_digest='', output_digest='')\n"
    )
    assert sorted(what for _, _, what in _resume_step_findings(ast.parse(src))) == sorted(
        ["purge_mismatched", "invalidate_partition", "mf.clear", "clean_debris",
         "drop_partitions", "write_partition", "commit_partition"]
    )


def _self_calls(tree) -> list:
    """Names of the functions in ``tree`` that call themselves by name (as
    ``f(...)`` or ``x.f(...)``, not ``super().f(...)``), including nested
    functions."""
    import ast

    def is_super(f):
        return isinstance(f, ast.Call) and getattr(f.func, "id", None) == "super"

    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    if isinstance(f, ast.Name):
                        name = f.id
                    elif isinstance(f, ast.Attribute) and not is_super(f.value):
                        name = f.attr
                    else:
                        continue
                    if name == fn.name:
                        found.append(fn.name)
                        break
    return found


def test_html_front_end_has_no_recursion():
    """The HTML front end walks DOM trees of any depth, so none of its
    functions may recurse: nesting depth must cost memory, never the
    interpreter stack."""
    import ast
    import pathlib

    import ocr_ray

    root = pathlib.Path(ocr_ray.__file__).parent
    bad = [
        "{}: {}".format(name, fn)
        for name in ("html_extract.py", "fast_html.py")
        for fn in _self_calls(ast.parse((root / name).read_text()))
    ]
    assert not bad, "recursive functions:\n" + "\n".join(bad)


def test_recursion_guard_catches_self_calls():
    import ast

    src = (
        "class Node:\n"
        "    def iter_text(self, parts):\n"
        "        for c in self.children:\n"
        "            c.iter_text(parts)\n"
        "def prepare(root):\n"
        "    def prune(node):\n"
        "        [prune(c) for c in node.children]\n"
        "    prune(root)\n"
        "class Doc(Node):\n"
        "    def iter_text(self, parts):\n"
        "        super().iter_text(parts)\n"
        "def flat(node):\n"
        "    return list(node.children)\n"
    )
    assert _self_calls(ast.parse(src)) == ["iter_text", "prune"]


def _row_literal_findings(tree) -> list:
    """(top-level def, line) of every dict literal or ``dict(...)`` call in
    ``tree`` that holds both an ``extracted`` and a ``digest`` key: an
    EXTRACTED row built by hand."""
    import ast

    found = []
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Dict):
                keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
                keys = {kw.arg for kw in node.keywords}
            else:
                continue
            if {"extracted", "digest"} <= keys:
                found.append((where, node.lineno))
    return found


def test_one_row_policy():
    """Only ``extract_core`` builds EXTRACTED rows (what an empty payload,
    an exception and an ok page become): no other module in ``ocr_ray/``
    writes a row literal with both ``extracted`` and ``digest`` keys."""
    import ast
    import pathlib

    import ocr_ray

    root = pathlib.Path(ocr_ray.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel != "extract_core.py":
            for where, line in _row_literal_findings(ast.parse(path.read_text())):
                bad.append(f"{rel}:{line} ({where})")
    assert not bad, "EXTRACTED rows built outside extract_core:\n" + "\n".join(bad)


def test_row_guard_catches_hand_built_rows():
    """The guard above flags a dict literal and a ``dict(...)`` call that
    build a row, and nothing that holds only one of the two keys."""
    import ast

    src = (
        "def _assemble_one(rows, mode):\n"
        "    if rows[0]['status'] == 'error':\n"
        "        return {'url': u, 'extracted': '', 'digest': '', 'lang': l}\n"
        "    return dict(base, extracted=text, digest=sha256_hex(text))\n"
        "def stats(batch):\n"
        "    return {'extracted': batch.num_rows, 'skipped_partitions': 0}\n"
        "def q(batch):\n"
        "    return pa.table({'url': batch['url'], 'digest': batch['digest']})\n"
    )
    assert sorted(_row_literal_findings(ast.parse(src))) == [
        ("_assemble_one", 3), ("_assemble_one", 4)
    ]
