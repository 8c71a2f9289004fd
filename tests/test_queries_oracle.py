"""In-suite slice of the driver's correctness gate: a fast subset of
queries() run against their oracle_sql() on sf0.001 DuckDB views.

The full 35-query gate is tools/check_queries.py (run at sf0.01); this
keeps a representative slice inside `python -m pytest -x -q`.
"""

import os

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()

# fast, shuffle-light subset covering map/filter/agg/join/window/dedup shapes
PICKS = [
    "doc_clean",
    "doc_tokens",
    "doc_fingerprint",
    "lineitem_agg",
    "revenue_by_nation",
    "top_orders",
    "events_sessionize",
    "hash_sample",
    "split_counts",
    "doc_chunks",
    "distinct_segments",
    "tfidf_by_source",
    "paragraph_dedup",
    "source_cap",
    "len_quantiles",
    "doc_langid",
    "training_pack",
    "kmeans_train",
    "linear_probe_train",
    "semantic_dedup",
    "gopher_filter",
    "rare_shingle_pairs",
    "adaboost_stumps",
    "record_linkage",
    "span_corruption",
    "weighted_sample",
    "events_moving_win",
    "lineitem_cube",
    "host_stats",
    "pages_scd",
    "reciprocal_links",
    "edit1_matches",
    "lang_ntile",
    "robust_outliers",
    "decayed_value",
    "table_rows",
    "anchor_stats",
    "pages_asof",
    "props_stats",
    "source_except",
    "item_cooccurrence",
    "event_transitions",
    "cohort_retention",
    "source_intersect",
    "events_unpivot",
    "customer_order_full",
    "events_resample",
    "doc_row_number",
    "changelog_apply",
    "tier_lookup",
    "corr_by_nation",
    "mode_token_by_lang",
    "entropy_by_source",
    "fk_integrity",
    "user_day_join",
    "price_percentiles",
    "incremental_source_stats",
    "pages_to_blocks",
    "user_event_seq",
    "doc_winsorize",
]


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            "CREATE VIEW {} AS SELECT * FROM read_parquet('{}')".format(
                t, os.path.join(SF_DIR, t + ".parquet")
            )
        )
    yield con
    con.close()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


@pytest.mark.parametrize("name", PICKS)
def test_query_matches_oracle(ray_session, duck, name):
    import __ray_entry__ as entry

    ray_df = entry.queries()[name](SF_DIR)
    if not isinstance(ray_df, pd.DataFrame):
        ray_df = ray_df.to_pandas()
    ora_df = duck.execute(entry.oracle_sql()[name]).df()
    a, b = _norm(ray_df), _norm(ora_df)
    assert list(a.columns) == list(b.columns), name
    pd.testing.assert_frame_equal(a, b)
