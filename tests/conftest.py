import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (per driver instructions)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("GRAFT_TEST_RAY_CPUS", "4")),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return SF_DIR


@pytest.fixture(scope="session")
def sharded_input(ray_session, sf_dir, tmp_path_factory):
    """documents.parquet split into 4 fragment files (multi-file input)."""
    import pyarrow.parquet as pq

    src = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    d = tmp_path_factory.mktemp("shards")
    n = len(src)
    step = (n + 3) // 4
    for i in range(4):
        pq.write_table(src.slice(i * step, step), str(d / f"part-{i:03d}.parquet"))
    return str(d), n
