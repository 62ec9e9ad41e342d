import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture
def data_dir():
    return DATA_DIR


@pytest.fixture(autouse=True)
def cold_graphs():
    # Short parsed graphs are shared within a process, with what they have
    # cached; each test starts with none, so counts of forests and
    # eigensolves do not depend on the tests run before it.
    from skewspec.graph import _shared_graph

    _shared_graph.cache_clear()
