import numpy as np
import pytest

from glsnum.measure import lp_norms
from glsnum.search import log_grid
from glsnum.verify import _random_function as random_function
from glsnum.verify import _random_space as random_space


def dense_gls_reference(f, psi, space, points=100_000, cap=200.0):
    """Brute-force grand norm: a very dense scan with no polish.  Used as an
    independent cross-check of the production scan-and-refine path."""
    ps = log_grid(psi.a, min(psi.b, cap), points)
    vals = lp_norms(f, ps, space) / np.asarray(psi(ps), dtype=float)
    return float(np.max(vals))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
