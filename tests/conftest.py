import numpy as np
import pytest

from qtesters import tester


@pytest.fixture
def gen():
    return np.random.default_rng(20260810)


@pytest.fixture
def leaky_tester():
    """Bipartite qubit tester with only d = 2 projectors, |00> and |11>, and
    a Bell probe: nothing leaks at I or sigma_z, everything at sigma_x."""
    k0, k1 = tester.KET0, tester.KET1
    return tester.Tester(input=(np.kron(k0, k0) + np.kron(k1, k1)) / np.sqrt(2),
                         projectors=(np.kron(k0, k0), np.kron(k1, k1)), dim=2)
