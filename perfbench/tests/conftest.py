import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [ROOT, BENCH]


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    # Ray workers inherit the environment at init: make the package importable
    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR", object_store_memory=256 * 2**20)
    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()
