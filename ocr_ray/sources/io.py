"""Input readers (the reference's parser/loader dispatch, SURVEY §2.1 S2/S11).

Always prune columns at the read: a pages read that ships the multi-MB
``html`` binary column into stages that don't parse it is wrong
(SURVEY §7.5 hard part 6).
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray.data


def read_pages(source, *, columns=None, override_num_blocks=None) -> ray.data.Dataset:
    """pages Dataset from a parquet path/dir or an in-memory Arrow table."""
    if isinstance(source, pa.Table):
        ds = ray.data.from_arrow(source)
        if columns:
            ds = ds.select_columns(columns)
        if override_num_blocks:
            ds = ds.repartition(override_num_blocks)
        return ds
    return ray.data.read_parquet(
        source, columns=columns, override_num_blocks=override_num_blocks
    )


# Read-task sizing: Ray Data's default splits even a 1 MB parquet into ~64
# blocks, and every downstream groupby/sort/aggregate pays a FIXED per-block
# shuffle cost (measured on this box: a 5000-row groupby costs 7.7 s at 64
# input blocks vs 0.8 s at 4).  Scale block count with the UNCOMPRESSED
# bytes (parquet footer metadata — no data pages read) instead: one read
# task per 2 MiB at the small end (capped at 4x CPUs so medium inputs still
# fan out; measured on the 600k-row lineitem aggregate: 2 blocks = 6.5-8 s
# serial decode, 8+ blocks = 2-2.7 s), one per 128 MiB at the large end (a
# 100-TB table gets thousands of read tasks, not millions).  Dynamic block
# splitting still bounds in-memory block size above this.
_BLOCK_TARGET_SMALL = 2 << 20
_BLOCK_TARGET_LARGE = 128 << 20


def parquet_uncompressed_bytes(path: str) -> int:
    """Total uncompressed byte size from the parquet footer (row-group
    metadata only)."""
    import pyarrow.parquet as pq

    md = pq.ParquetFile(path).metadata
    return sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))


def sized_num_blocks(total_bytes: int, *, min_blocks: int = 1) -> int:
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    small = -(-total_bytes // _BLOCK_TARGET_SMALL)
    large = -(-total_bytes // _BLOCK_TARGET_LARGE)
    return max(min(small, 4 * cpus), large, min_blocks, 1)


def cpu_count() -> int:
    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def collect_tables(ds: ray.data.Dataset) -> list[pa.Table]:
    """The non-empty Arrow blocks of ``ds``, from ONE run of its plan.

    Collect through here, never ``ray.get(ds.to_arrow_refs())``: on a lazy
    Dataset, Ray 2.49's ``to_arrow_refs`` runs the plan and then asks for
    its schema, and only a Read, Sort, Repartition or Limit tail reports a
    schema without running.  Any other tail (a map, an aggregate) runs a
    second time as ``limit(1)``, and above an all-to-all that second run
    repeats the whole upstream.  A map -> sort -> map pipeline shows it:
    ``to_arrow_refs()`` runs it twice, while ``iter_batches``,
    ``to_pandas``, ``take_all``, ``count`` and
    ``materialize().to_arrow_refs()`` each run it once.  Empty blocks
    (which may carry no schema) are dropped."""
    return [
        t for t in ds.iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]


def table_shuffle_blocks(sf_dir: str, name: str, *, scale: float = 1.0) -> int:
    """Shuffle width hint for pipelines derived from one testdata table:
    the derived row set (signatures, candidate pairs, exploded tokens) is
    byte-proportional to the source, so size the downstream all-to-alls by
    the SOURCE uncompressed bytes (a footer read, no execution barrier).
    ``scale`` is the caller's expansion factor (e.g. ~8x for overlapping
    10-word windows of ~300-byte docs)."""
    try:
        return sized_num_blocks(
            int(scale * parquet_uncompressed_bytes(
                os.path.join(sf_dir, name + ".parquet")))
        )
    except OSError:
        return cpu_count()


# ---------------------------------------------------------------------------
# extension-dispatch reader registry (reference: the parser/loader dispatch,
# utils/text/parsers/__init__.py extension registry + utils/datasets/builder
# csv/txt branches — SURVEY §2.1 S2/S11).  Parquet is the only format with
# true read-time column projection; the others select_columns after decode,
# which is why a 100-TB corpus should land as parquet first.
# ---------------------------------------------------------------------------

def _read_parquet_auto(path: str, columns):
    try:
        nblocks = sized_num_blocks(parquet_uncompressed_bytes(path))
    except OSError:
        nblocks = None
    return ray.data.read_parquet(path, columns=columns, override_num_blocks=nblocks)


def _read_csv_auto(path: str, columns):
    nblocks = sized_num_blocks(os.path.getsize(path))
    ds = ray.data.read_csv(path, override_num_blocks=nblocks)
    return ds.select_columns(columns) if columns else ds


def _read_jsonl_auto(path: str, columns):
    nblocks = sized_num_blocks(os.path.getsize(path))
    ds = ray.data.read_json(path, override_num_blocks=nblocks)
    return ds.select_columns(columns) if columns else ds


def _read_text_auto(path: str, columns):
    ds = ray.data.read_text(path)
    return ds.select_columns(columns) if columns else ds


READERS = {
    "parquet": _read_parquet_auto,
    "csv": _read_csv_auto,
    "jsonl": _read_jsonl_auto,
    "json": _read_jsonl_auto,  # newline-delimited json
    "txt": _read_text_auto,
}


def register_reader(ext: str, fn) -> None:
    """User-extension hook: map a file extension to a reader callable
    ``fn(path, columns) -> Dataset`` (the reference's parser-registry
    surface, SURVEY §2.10)."""
    READERS[ext.lower().lstrip(".")] = fn


def read_auto(path: str, *, columns=None) -> ray.data.Dataset:
    """Read a file by extension through the reader registry."""
    ext = os.path.splitext(path)[1].lstrip(".").lower()
    try:
        reader = READERS[ext]
    except KeyError:
        raise ValueError(
            f"no reader registered for extension {ext!r} "
            f"(known: {sorted(READERS)})"
        ) from None
    return reader(path, columns)


def _unify_types(a: pa.DataType, b: pa.DataType) -> pa.DataType:
    """Widening unification for evolved column types (the cases crawl
    segments actually produce); anything else is a real conflict."""
    if a.equals(b):
        return a
    order = [pa.int8(), pa.int16(), pa.int32(), pa.int64()]
    if a in order and b in order:
        return order[max(order.index(a), order.index(b))]
    floats = [pa.float32(), pa.float64()]
    if (a in floats or a in order) and (b in floats or b in order):
        return pa.float64()
    if pa.types.is_null(a):
        return b
    if pa.types.is_null(b):
        return a
    raise ValueError(f"cannot unify evolved column types {a} vs {b}")


def read_evolved(
    path: str, *, columns=None, min_blocks: int = 1
) -> ray.data.Dataset:
    """Read a DIRECTORY of parquet files whose schemas evolved across
    crawl segments — added/dropped columns and integer widening are the
    norm over a multi-year Common-Crawl-style store, and a naive
    multi-file read either errors or silently drops fields.

    Driver work is footer-only: the union schema unifies every file's
    schema (missing column -> nulls, numeric widening via
    :func:`_unify_types`); each file then reads with its OWN available
    column subset (pruning still pushes down) and a per-batch conform
    step adds null columns / casts / reorders so every block carries the
    same schema.  One Dataset.union over the per-file streams keeps it
    lazy and streaming."""
    import pyarrow.parquet as pq

    files = sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )
    if not files:
        raise ValueError(f"no parquet files under {path!r}")
    schemas = {f: pq.read_schema(f) for f in files}
    union: dict = {}
    for sch in schemas.values():
        for field in sch:
            if field.name in union:
                union[field.name] = _unify_types(union[field.name], field.type)
            else:
                union[field.name] = field.type
    if columns:
        missing = set(columns) - set(union)
        if missing:
            raise ValueError(f"columns {sorted(missing)} in no input file")
        union = {c: union[c] for c in columns}
    target = pa.schema(list(union.items()))

    def conform(batch: pa.Table) -> pa.Table:
        cols = []
        for field in target:
            if field.name in batch.column_names:
                col = batch.column(field.name)
                if not col.type.equals(field.type):
                    col = col.cast(field.type)
            else:
                col = pa.nulls(batch.num_rows, field.type)
            cols.append(col)
        return pa.table(cols, schema=target)

    parts = []
    for f in files:
        avail = [c for c in union if c in schemas[f].names]
        try:
            nblocks = sized_num_blocks(
                parquet_uncompressed_bytes(f), min_blocks=min_blocks
            )
        except OSError:
            nblocks = None
        ds = ray.data.read_parquet(
            f, columns=avail or None, override_num_blocks=nblocks
        )
        parts.append(ds.map_batches(conform, batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def read_table(
    sf_dir: str, name: str, *, columns=None, min_blocks: int = 1
) -> ray.data.Dataset:
    """One driver-generated testdata table (TESTDATA.md), with read tasks
    sized by uncompressed bytes (see :func:`sized_num_blocks`).  Pass
    ``min_blocks`` (e.g. the CPU count) for pipelines whose per-row compute
    is heavy enough that map parallelism matters more than shuffle
    overhead (MinHash signatures, BPE encoding)."""
    path = os.path.join(sf_dir, name + ".parquet")
    try:
        nblocks = sized_num_blocks(
            parquet_uncompressed_bytes(path), min_blocks=min_blocks
        )
    except OSError:
        nblocks = None
    return ray.data.read_parquet(path, columns=columns, override_num_blocks=nblocks)
