import numpy as np
import pytest

from hardylab.arith import divisor_sieve


@pytest.fixture(autouse=True)
def _in_tmp_dir(tmp_path, monkeypatch):
    # whatever a test writes to the working directory stays out of the tree
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="session")
def d2_table():
    return divisor_sieve(2, 10_000)


@pytest.fixture(scope="session")
def d3_table():
    return divisor_sieve(3, 20_000)


@pytest.fixture(scope="session")
def d4_table():
    return divisor_sieve(4, 10_000)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
