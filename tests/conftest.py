import duckdb
import pandas as pd
import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


SF_DIR = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="session")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return con


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    """Mirror the driver's compare: sort columns by name, then rows."""
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )
    return df


def assert_matches_oracle(duck, query_fn, sql, **kwargs):
    got = normalize(to_pandas(query_fn(SF_DIR)))
    want = normalize(duck.sql(sql).df())
    pd.testing.assert_frame_equal(got, want, check_dtype=False, **kwargs)
    # the driver's hash compares stringified values — catches dtype
    # drift (int64 vs float64 prints 947 vs 947.0) that the frame
    # comparison above tolerates
    pd.testing.assert_frame_equal(got.astype(str), want.astype(str))


# modules a package actor's process must never load: the actors only
# buffer, count or write, and these cost ~50 MB of resident memory and
# half a second of start-up (CLAUDE.md, "Invariants to preserve")
HEAVY_MODULES = ("ray.data", "ray.air", "pandas")


def heavy_modules(actor) -> list[str]:
    """The ``HEAVY_MODULES`` (and their submodules) loaded in ``actor``'s
    process, read through ``__ray_call__``."""

    def probe(_self, heavy):
        import sys

        return sorted(
            m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in heavy)
        )

    return ray.get(actor.__ray_call__.remote(probe, HEAVY_MODULES))
