import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from cmclab import GridSpec


def pytest_configure(config):
    # Hypothesis caches what it reads from the sources in its home
    # directory, ./.hypothesis by default; keep the checkout clean.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture(scope="session")
def grid8():
    return GridSpec.cubic(8)


@pytest.fixture(scope="session")
def grid16():
    return GridSpec.cubic(16)


@pytest.fixture()
def rng():
    # fresh but fixed stream per test
    return np.random.default_rng(2024)
