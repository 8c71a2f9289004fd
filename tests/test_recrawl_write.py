"""A url that reaches the writer in two blocks must land twice.

A recrawl brings back a url with a later ``warc_ts`` and, usually, edited
text.  When that url is a block's only row for its partition, two blocks
carry the same url set for one partition; a file name derived from that
url set made the second block's file overwrite the first, so the manifest
committed more rows than the disk held."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ocr_ray.pipelines import extraction as ex
from ocr_ray.state import manifest as mf

from . import keyhash_reference as ref

URL = "http://h/a"


def _page(text: str) -> bytes:
    return "<html><body><p>{}</p></body></html>".format(text).encode()


@pytest.mark.parametrize(
    "texts",
    [("first crawl text", "first crawl text"), ("first crawl text", "recrawl edited text")],
    ids=["identical", "recrawl_edit"],
)
def test_same_url_in_two_blocks_lands_twice(ray_session, tmp_path, texts):
    src = tmp_path / "src"
    src.mkdir()
    for i, text in enumerate(texts):
        pq.write_table(
            pa.table({"url": [URL], "html": [_page(text)], "lang": ["en"]}),
            str(src / "part-{}.parquet".format(i)),
        )
    out = str(tmp_path / "out")
    # batch_size=1: each extracted row is its own block at the writer
    stats = ex.run_extraction(str(src), out, n_partitions=4, batch_size=1)
    assert stats["extracted"] == 2

    committed = mf.completed_partitions(out)
    pid = ref.partition_id(URL, 4)
    assert set(committed) == {pid}
    on_disk = pq.read_table(out).column("extracted").to_pylist()
    assert len(on_disk) == committed[pid]["n_docs"] == 2
    assert sorted(on_disk) == sorted(texts)
    assert committed[pid]["output_digest"] == mf.combine_digests(
        pq.read_table(out).column("digest").to_pylist()
    )
