"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of ``(workload, seed)``.  The page
archetypes follow FIXTURES.md section 2 and are copied, together with the
tiny PDF and DOCX writers they need, from the program's own synthetic-page
module, so that editing the program cannot change what the benchmark feeds
it.  The program only ever sees the Parquet files written by
:func:`ensure_inputs`.

Inputs are cached under ``<cache>/<workload>-v<GEN_VERSION>-s<seed>/`` with
a ``digest.json`` holding the sha256 of every file; bump ``GEN_VERSION``
whenever a generator changes its output.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import zipfile

import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 1

EPOCH_US = 1_577_836_800_000_000  # 2020-01-01T00:00:00Z

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("source", pa.string()),
        ("n_chars", pa.int64()),
    ]
)

_WORDS = (
    "the data stream merge sort table scan filter join order key value row "
    "column batch window group hash spark vector query small big fast slow "
    "part line customer agg dup"
).split()
_LANGS = ("en", "en", "en", "fr", "de", "es", "zh")

ARCHETYPES = (
    "plain", "chrome", "linklist", "sections", "table", "list",
    "fragments", "dupspans", "pdf_basic", "pdf_footnote", "empty", "garbage",
    "md_doc", "txt_doc", "py_code", "java_code", "docx_doc",
)
DOC_ARCH_EXT = {
    "md_doc": "md", "txt_doc": "txt", "py_code": "py",
    "java_code": "java", "docx_doc": "docx",
}

# ---------------------------------------------------------------------------
# workload shapes
# ---------------------------------------------------------------------------

#: cc_mixed_resume: archetype pages at PAGE_SCALE plus one-paragraph
#: documents-derived pages, a share of which is recrawled (same url, later
#: warc_ts, edited text) further down the crawl.
MIXED_ARCH_PAGES = 1200
MIXED_DOC_PAGES = 2400
RECRAWL_SHARE = 0.03
MIXED_ROWS_PER_FILE = 300
PAGE_SCALE = 6

#: neardup_curate: documents table with planted near-dup clusters.
NEARDUP_DOCS = 4000
NEARDUP_VOCAB = 4000

#: rows of each input used by the untimed warm-up call
WARM_ROWS = 96


def _rng(seed: int, i: int) -> random.Random:
    return random.Random((seed << 32) ^ (i * 2654435761 % (1 << 32)))


def _host(i: int) -> int:
    # Zipf-ish skew over 50 hosts: host 0 owns ~25% of pages
    r = (i * 48271) % 100
    if r < 25:
        return 0
    if r < 40:
        return 1
    return 2 + (i * 69621) % 48


def page_url(i: int, kind: str = "p") -> str:
    return "https://host-{:03d}.example/{}/{:08d}".format(_host(i), kind, i)


# ---------------------------------------------------------------------------
# PDF and DOCX writers (the dialect the program's readers accept)
# ---------------------------------------------------------------------------

def _pdf_esc(s: str) -> str:
    return s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


def _text_op(x: float, y: float, size: float, text: str) -> str:
    return "BT /F1 {:.2f} Tf {:.2f} {:.2f} Td ({}) Tj ET".format(size, x, y, _pdf_esc(text))


def _build_pdf(pages: list[list[str]]) -> bytes:
    objects: list[bytes] = []
    kids = " ".join("{} 0 R".format(4 + 2 * i) for i in range(len(pages)))
    objects.append(b"<< /Type /Catalog /Pages 2 0 R >>")
    objects.append("<< /Type /Pages /Kids [{}] /Count {} >>".format(kids, len(pages)).encode())
    objects.append(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    for i, ops in enumerate(pages):
        objects.append(
            (
                "<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
                "/Resources << /Font << /F1 3 0 R >> >> /Contents {} 0 R >>"
            ).format(5 + 2 * i).encode()
        )
        stream = "\n".join(ops).encode("latin-1", errors="replace")
        objects.append(
            b"<< /Length " + str(len(stream)).encode() + b" >>\nstream\n"
            + stream + b"\nendstream"
        )
    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for i, body in enumerate(objects, start=1):
        offsets.append(len(out))
        out += "{} 0 obj\n".format(i).encode() + body + b"\nendobj\n"
    xref_at = len(out)
    out += "xref\n0 {}\n".format(len(objects) + 1).encode()
    out += b"0000000000 65535 f \n"
    for off in offsets:
        out += "{:010d} 00000 n \n".format(off).encode()
    out += "trailer\n<< /Size {} /Root 1 0 R >>\nstartxref\n{}\n%%EOF\n".format(
        len(objects) + 1, xref_at).encode()
    return bytes(out)


def _build_docx(paragraph_texts: list[str]) -> bytes:
    from xml.sax.saxutils import escape

    body = "".join(
        "<w:p><w:r><w:t xml:space=\"preserve\">{}</w:t></w:r></w:p>".format(escape(t))
        for t in paragraph_texts
    )
    doc = (
        "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?>"
        "<w:document xmlns:w=\"http://schemas.openxmlformats.org/wordprocessingml/2006/main\">"
        "<w:body>{}</w:body></w:document>"
    ).format(body)
    content_types = (
        "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?>"
        "<Types xmlns=\"http://schemas.openxmlformats.org/package/2006/content-types\">"
        "<Default Extension=\"xml\" ContentType=\"application/xml\"/>"
        "<Override PartName=\"/word/document.xml\" ContentType=\"application/vnd."
        "openxmlformats-officedocument.wordprocessingml.document.main+xml\"/></Types>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, data in (("[Content_Types].xml", content_types), ("word/document.xml", doc)):
            info = zipfile.ZipInfo(name, date_time=(2020, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, data)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# page archetypes
# ---------------------------------------------------------------------------

_CHROME_NAV = ["Home", "Products", "About", "Contact"]


def _chrome_wrap(body_html: str, title: str) -> str:
    nav = "".join("<li><a href=\"/{0}\">{0}</a></li>".format(x) for x in _CHROME_NAV)
    return (
        "<html><head><title>{title}</title>"
        "<script>var t = track('all');</script>"
        "<style>.x {{ color: red }}</style></head>"
        "<body><header><h1>SiteName MegaPortal</h1></header>"
        "<nav><ul>{nav}</ul></nav>"
        "<aside><p>Subscribe to our newsletter for weekly updates!</p></aside>"
        "<div id=\"main\">{body}</div>"
        "<form action=\"/q\"><input name=\"q\"/></form>"
        "<footer><p>Copyright 2020 SiteName. All rights reserved.</p></footer>"
        "</body></html>"
    ).format(title=title, nav=nav, body=body_html)


def _sentence(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _paragraphs_html(rng: random.Random, n_paras: int) -> str:
    return "".join(
        "<p>{}</p>".format(_sentence(rng, rng.randint(8, 30))) for _ in range(n_paras)
    )


def _make_html(arch: str, rng: random.Random, i: int, scale: int) -> bytes:
    title = "{} page {}".format(arch, i)
    if arch == "plain":
        body = _paragraphs_html(rng, scale * rng.randint(2, 5))
        return "<html><head><title>{}</title></head><body>{}</body></html>".format(
            title, body).encode()
    if arch == "chrome":
        return _chrome_wrap(_paragraphs_html(rng, scale * rng.randint(2, 5)), title).encode()
    if arch == "linklist":
        body = (
            "<ul>"
            + "".join('<li><a href="/x{0}">link {0}</a></li>'.format(k) for k in range(5))
            + "</ul>"
            + "<p>See the <a href=\"https://ray.io/docs\">docs</a> and the "
            + "<a href=\"https://arrow.apache.org\">arrow site</a> for more. "
            + _sentence(rng, 10) + "</p>"
            + "<p>Also check the <a href=\"https://ray.io/docs\">docs</a> again.</p>"
        )
        return _chrome_wrap(body, title).encode()
    if arch == "sections":
        body = (
            "<h1>Alpha</h1>" + _paragraphs_html(rng, scale)
            + "<h2>Beta</h2>" + _paragraphs_html(rng, 2 * scale)
            + "<h3>Gamma</h3>" + _paragraphs_html(rng, scale)
            + "<h2>Delta</h2>" + _paragraphs_html(rng, scale)
        )
        return _chrome_wrap(body, title).encode()
    if arch == "table":
        rows = "".join(
            "<tr><td>row{0}</td><td>{1}</td><td>const</td></tr>".format(k, rng.randint(0, 99))
            for k in range(4 * scale)
        )
        body = (
            "<table><thead><tr><th>name</th><th>val</th><th>fixed</th></tr></thead>"
            "<tbody>{}</tbody></table>".format(rows) + _paragraphs_html(rng, 1)
        )
        return _chrome_wrap(body, title).encode()
    if arch == "list":
        body = (
            "<ul><li>first item</li><li></li><li>second item</li></ul>"
            "<ol><li>{}</li><li>{}</li></ol>".format(_sentence(rng, 4), _sentence(rng, 5))
        )
        return _chrome_wrap(body, title).encode()
    if arch == "fragments":
        words = [_sentence(rng, 2) for _ in range(8 * scale)]
        frag = "<p>" + "".join("<span>{} </span>".format(w) for w in words) + "</p>"
        return _chrome_wrap(frag + _paragraphs_html(rng, 1), title).encode()
    if arch == "dupspans":
        # exact and near-identical spans repeated down the page: the
        # per-document span filter keeps only the first of each
        parts = []
        for _ in range(scale):
            s = _sentence(rng, 12)
            near = s.rsplit(" ", 1)[0] + " altered"
            parts.append("<p>{0}</p><p>{0}</p><p>{1}</p><p>{2}</p>".format(
                s, near, _sentence(rng, 9)))
        return _chrome_wrap("".join(parts), title).encode()
    if arch == "empty":
        return b""
    if arch == "garbage":
        if (i // len(ARCHETYPES)) % 2 == 0:
            return b"%PDF-1.4\n1 0 obj\n<< truncated"
        return bytes([0xFF, 0xFE, 0x00, 0x9C]) * 8
    raise ValueError(arch)


def _make_doc(arch: str, rng: random.Random, i: int, scale: int) -> bytes:
    if arch == "md_doc":
        parts = [
            "# Guide {}".format(i), "", _sentence(rng, 12), "", "## Usage", "",
            _sentence(rng, scale * 10), "", "```python",
            "x = {}".format(rng.randint(0, 99)), "print(x)", "```", "",
            "![diagram.png](assets/diagram-{}.png)".format(i), "", "### Notes", "",
            "See [the docs](https://docs.example/{}) then {}".format(i, _sentence(rng, 6)),
        ]
        return "\n".join(parts).encode()
    if arch == "txt_doc":
        paras = [_sentence(rng, rng.randint(6, 20)) for _ in range(scale * rng.randint(2, 4))]
        return "\n\n".join(paras).encode()
    if arch == "py_code":
        return (
            "# module m{i}\nimport os\n\n"
            "def f_{i}(x):\n    return x + {k}\n\n"
            "class C{i}:\n    value = {k}\n\n"
            "@decorator\ndef g_{i}():\n    pass\n"
        ).format(i=i, k=rng.randint(0, 99)).encode()
    if arch == "java_code":
        return (
            "public class C{i} {{\n    static int value = {k};\n"
            "    public int get() {{ return value; }}\n}}\n"
        ).format(i=i, k=rng.randint(0, 99)).encode()
    if arch == "docx_doc":
        return _build_docx(
            ["Heading {}".format(i)]
            + [_sentence(rng, rng.randint(6, 15)) for _ in range(scale * 2)]
            + [""]
        )
    raise ValueError(arch)


def _make_pdf(arch: str, rng: random.Random, i: int, scale: int) -> bytes:
    body_size = 12.0
    leading = body_size * 1.2
    pages = []
    n_pages = rng.randint(1, 3) if arch == "pdf_basic" else 2
    for page in range(n_pages):
        ops = []
        y = 720.0
        if arch == "pdf_footnote":
            ops.append(_text_op(200, 760, 9.0, "Running Header {}".format(i)))
        fn_counter = 0
        for _ in range(scale * rng.randint(2, 3)):
            n_lines = rng.randint(1, 3)
            for ln in range(n_lines):
                x = 72.0
                for _w in range(rng.randint(3, 7)):
                    word = rng.choice(_WORDS)
                    ops.append(_text_op(x, y, body_size, word))
                    x += (len(word) + 1) * body_size * 0.5
                if arch == "pdf_footnote" and ln == 0 and fn_counter == 0 and page == 0:
                    fn_counter += 1
                    ops.append(_text_op(x, y + 3.0, 8.0, str(fn_counter)))
                y -= leading
            y -= leading
        if arch == "pdf_footnote":
            if page == 0:
                ops.append(_text_op(72, 100, 8.0, "^1 source note for page one"))
            ops.append(_text_op(300, 40, 9.0, str(page + 1)))
        pages.append(ops)
    return _build_pdf(pages)


def archetype_page(seed: int, i: int) -> tuple[str, bytes]:
    """(url, payload) of archetype page ``i``; archetypes cycle with ``i``."""
    arch = ARCHETYPES[i % len(ARCHETYPES)]
    rng = _rng(seed, i)
    if arch.startswith("pdf"):
        payload = _make_pdf(arch, rng, i, PAGE_SCALE)
    elif arch in DOC_ARCH_EXT:
        payload = _make_doc(arch, rng, i, PAGE_SCALE)
    else:
        payload = _make_html(arch, rng, i, PAGE_SCALE)
    url = page_url(i, arch)
    if arch in DOC_ARCH_EXT:
        url += "." + DOC_ARCH_EXT[arch]
    return url, payload


def document_page_html(doc_id: int, text: str) -> bytes:
    """One paragraph of ``text`` in site chrome; it extracts to ``text``."""
    return _chrome_wrap("<p>{}</p>".format(text), "doc {}".format(doc_id)).encode()


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _pages_table(urls, ts, payloads, langs) -> pa.Table:
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array(payloads, pa.binary()),
            "text": pa.array([""] * len(urls), pa.string()),
            "lang": pa.array(langs, pa.string()),
        },
        schema=PAGES_SCHEMA,
    )


def _doc_text(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(lo, hi)))


def crawl_pages(seed: int) -> pa.Table:
    """cc_mixed_resume: archetype and documents-derived pages interleaved in
    crawl order, then the recrawls, which come back later in the crawl."""
    urls, ts, payloads, langs = [], [], [], []
    for i in range(MIXED_ARCH_PAGES):
        url, payload = archetype_page(seed, i)
        urls.append(url)
        ts.append(EPOCH_US + i * 1_000_000)
        payloads.append(payload)
        langs.append(_LANGS[i % len(_LANGS)])
    for d in range(MIXED_DOC_PAGES):
        i = 1_000_000 + d
        rng = _rng(seed, i)
        urls.append(page_url(i))
        ts.append(EPOCH_US + i * 1_000_000)
        payloads.append(document_page_html(i, _doc_text(rng, 15, 60)))
        langs.append(rng.choice(_LANGS))
    order = sorted(range(len(urls)), key=lambda k: _rng(seed, k).random())
    urls, ts, payloads, langs = ([col[k] for k in order] for col in (urls, ts, payloads, langs))
    rng = random.Random(seed)
    for d in sorted(rng.sample(range(MIXED_DOC_PAGES), int(MIXED_DOC_PAGES * RECRAWL_SHARE))):
        i = 1_000_000 + d
        urls.append(page_url(i))
        ts.append(EPOCH_US + i * 1_000_000 + 86_400_000_000)
        payloads.append(document_page_html(i, _doc_text(_rng(seed + 1, i), 15, 60) + " recrawled"))
        langs.append("en")
    return _pages_table(urls, ts, payloads, langs)


def neardup_documents(seed: int) -> pa.Table:
    """neardup_curate: documents with planted near-dup clusters (one word of
    a 40-80 word text replaced per copy, word-3gram Jaccard >= 0.85
    to its base) and
    Zipf-skewed sources, so the per-source cap binds on the large ones."""
    rng = random.Random(seed)
    vocab = ["t{:04d}".format(k) for k in range(NEARDUP_VOCAB)]
    texts, sources = [], []
    while len(texts) < NEARDUP_DOCS:
        base = [rng.choice(vocab) for _ in range(rng.randint(40, 80))]
        copies = 1 if rng.random() < 0.7 else rng.randint(2, 5)
        src = "src{}".format(min(int(rng.paretovariate(1.1)) - 1, 199))
        for c in range(copies):
            words = list(base)
            if c:
                words[rng.randrange(len(words))] = rng.choice(vocab)
            texts.append(" ".join(words))
            # near-dups usually come from the same site, sometimes not
            sources.append(src if rng.random() < 0.8 else "src{}".format(rng.randrange(200)))
    texts, sources = texts[:NEARDUP_DOCS], sources[:NEARDUP_DOCS]
    return pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([rng.choice(_LANGS) for _ in texts], pa.string()),
            "source": pa.array(sources, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        },
        schema=DOCS_SCHEMA,
    )


# ---------------------------------------------------------------------------
# on-disk inputs
# ---------------------------------------------------------------------------

def _write_files(tbl: pa.Table, path: str, rows_per_file: int) -> None:
    os.makedirs(path, exist_ok=True)
    for k, start in enumerate(range(0, tbl.num_rows, rows_per_file)):
        pq.write_table(tbl.slice(start, rows_per_file),
                       os.path.join(path, "part-{:05d}.parquet".format(k)))


def _digest_dir(path: str) -> str:
    h = hashlib.sha256()
    for root, _dirs, files in sorted(os.walk(path)):
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def ensure_inputs(workload: str, seed: int, cache_dir: str) -> tuple[str, str]:
    """Generate (or reuse) the workload's inputs; returns (dir, sha256).

    Layout: ``pages/`` (extraction workloads) or ``documents.parquet``
    (neardup_curate) for the timed calls, and ``warm/`` with the same shape
    over the first WARM_ROWS rows for the untimed warm-up call."""
    path = os.path.join(cache_dir, "{}-v{}-s{}".format(workload, GEN_VERSION, seed))
    meta = os.path.join(path, "digest.json")
    if os.path.exists(meta):
        with open(meta) as f:
            return path, json.load(f)["sha256"]
    shutil.rmtree(path, ignore_errors=True)
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    if workload == "neardup_curate":
        docs = neardup_documents(seed)
        os.makedirs(os.path.join(tmp, "warm"))
        pq.write_table(docs, os.path.join(tmp, "documents.parquet"))
        pq.write_table(docs.slice(0, 4 * WARM_ROWS),
                       os.path.join(tmp, "warm", "documents.parquet"))
    else:
        if workload != "cc_mixed_resume":
            raise ValueError(workload)
        pages = crawl_pages(seed)
        _write_files(pages, os.path.join(tmp, "pages"), MIXED_ROWS_PER_FILE)
        _write_files(pages.slice(0, WARM_ROWS), os.path.join(tmp, "warm"), WARM_ROWS)
    digest = _digest_dir(tmp)
    with open(os.path.join(tmp, "digest.json"), "w") as f:
        json.dump({"sha256": digest, "workload": workload, "seed": seed,
                   "gen_version": GEN_VERSION}, f)
    os.replace(tmp, path)
    return path, digest
