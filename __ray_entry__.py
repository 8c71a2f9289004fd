"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init(...)`` itself BEFORE importing this module:
nothing here (or in ocr_ray) calls ``ray.init`` / ``ray.shutdown``.

- ``entry()``     — flagship extraction pipeline on sf0.001.
- ``queries()``   — one callable per implemented operator family
  (SURVEY.md §2); each takes ``sf_dir`` and returns a materialized
  Dataset / DataFrame / pyarrow Table.
- ``oracle_sql()``— DuckDB-equivalent SQL per query, same column names.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: documents -> synthetic
    Common-Crawl-style pages -> two-stage detect+extract -> EXTRACTED,
    returned as the registered query returns it: executed once."""
    from ocr_ray.pipelines.queries import QUERIES

    q_extract_identity = QUERIES["extract_identity"]
    return q_extract_identity("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from ocr_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from ocr_ray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
