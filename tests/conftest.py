import numpy as np
import pytest
from hypothesis import strategies as st

from glsnum.bphi import power_phi, psi_from_phi, quadratic_phi
from glsnum.measure import lp_norms, make_space, probability_space
from glsnum.psi import (make_exp_psi, make_extremal_psi, make_power_psi,
                        make_sv_psi, make_table_psi, natural_function)
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


# ---------------------------------------------------------------------------
# instances for the pruned p-norm scan of gls_norm and associate_bound
# ---------------------------------------------------------------------------

_SV_LOG = lambda p: np.log(np.e - 1.0 + np.asarray(p, dtype=float))


def full_scan(f, ps, space, log_den, minimize=False):
    """Stand-in for glnorm._scan_norms that evaluates every node."""
    return lp_norms(f, ps, space)


@st.composite
def scan_psi(draw):
    """A generating function of every family: power, exponential, extremal,
    slowly varying, table, a natural function, and the companion psi."""
    kind = draw(st.sampled_from(["power", "exponential", "extremal", "sv",
                                 "table", "natural", "companion"]))
    if kind == "power":
        return make_power_psi(draw(st.floats(0.5, 6.0)))
    if kind == "exponential":
        return make_exp_psi(draw(st.floats(0.02, 0.5)),
                            draw(st.floats(0.3, 1.0)))
    if kind == "extremal":
        return make_extremal_psi(draw(st.floats(1.2, 8.0)))
    if kind == "sv":
        return make_sv_psi(draw(st.floats(1.0, 4.0)), _SV_LOG, label="sv")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "table":
        nodes = np.geomspace(1.0, float(rng.uniform(5.0, 300.0)), 9)
        return make_table_psi(nodes, np.cumprod(rng.uniform(1.0, 1.5, 9)))
    if kind == "natural":
        space = probability_space(rng.uniform(0.2, 1.0, 40))
        return natural_function([space.function(rng.standard_normal(40))
                                 for _ in range(3)])
    return psi_from_phi(quadratic_phi() if draw(st.booleans())
                        else power_phi(draw(st.floats(1.2, 3.0))))


@st.composite
def scan_function(draw):
    """Atom counts on both sides of the full-scan threshold, a share of
    exact zeros, lognormal, Student-t or constant magnitudes, values scaled
    by up to 10^+-300, on a probability space or another total mass."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from([30, 400, 2000, 6000]))
    weights = rng.uniform(0.2, 1.0, n)
    mass = draw(st.sampled_from(["one", "small", "large"]))
    space = (probability_space(weights) if mass == "one"
             else make_space(weights / n if mass == "small"
                             else weights * 3.0))
    kind = draw(st.sampled_from(["lognormal", "t3", "constant"]))
    if kind == "lognormal":
        values = np.exp(2.0 * rng.standard_normal(n))
    elif kind == "t3":
        values = rng.standard_t(3, n)
    else:
        values = np.ones(n)
    values *= rng.choice([-1.0, 1.0], n)
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    if not values.any():
        values[0] = 1.0
    scale = draw(st.sampled_from([0, 300, -300, draw(st.integers(-300, 300))]))
    return space.function(values * 10.0 ** scale)
