"""Scale safety across the double range: exact homogeneity under powers of
two, agreement with a 40-digit reference, and the inputs near 1e+-200 at
which the direct power sums, the bisection midpoint and the oracle's pairing
once overflowed or underflowed."""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsnum.duality import (SetFunction, associate_bound,
                            associate_norm_oracle, setfunction_norm)
from glsnum.glnorm import gls_norm
from glsnum.measure import lp_norm, lp_norms, make_space, probability_space
from glsnum.orlicz import luxemburg_norm, power_young
from glsnum.psi import make_extremal_psi, make_power_psi
from glsnum.search import min_feasible, min_feasible_batch

_MAGNITUDES = st.one_of(st.just(0.0), st.floats(min_value=1e-3,
                                                max_value=1e3))
_VALUES = st.lists(st.tuples(_MAGNITUDES, st.booleans()).map(
    lambda t: -t[0] if t[1] else t[0]), min_size=1, max_size=10)
_WEIGHTS = st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=10,
                    max_size=10)
_PSIS = {"extremal": lambda: make_extremal_psi(3.0),
         "power": lambda: make_power_psi(2.0)}
_PS = np.geomspace(1.0, 200.0, 64)


def _setup(values, weights, probability):
    weights = weights[:len(values)]
    space = (probability_space(weights) if probability
             else make_space(weights))
    return space, space.function(values)


@given(values=_VALUES, weights=_WEIGHTS, probability=st.booleans(),
       k=st.integers(-990, 990), psi=st.sampled_from(sorted(_PSIS)),
       p=st.floats(min_value=1.0, max_value=200.0))
@settings(max_examples=60, deadline=None)
def test_norms_exactly_homogeneous_under_powers_of_two(values, weights,
                                                       probability, k, psi,
                                                       p):
    c = 2.0 ** k
    space, f = _setup(values, weights, probability)
    cf = space.function([c * v for v in values])
    psi = _PSIS[psi]()
    assert lp_norm(cf, p, space) == c * lp_norm(f, p, space)
    assert np.array_equal(lp_norms(cf, _PS, space),
                          c * lp_norms(f, _PS, space))
    res, cres = gls_norm(f, psi, space), gls_norm(cf, psi, space)
    assert (cres.value, cres.argmax_p) == (c * res.value, res.argmax_p)
    bound, cbound = associate_bound(f, psi, space), associate_bound(cf, psi,
                                                                    space)
    assert (cbound.value, cbound.arginf_q) == (c * bound.value,
                                               bound.arginf_q)
    young = power_young(min(p, 6.0))
    assert luxemburg_norm(cf, young, space) == pytest.approx(
        c * luxemburg_norm(f, young, space), rel=1e-9)


@given(values=_VALUES.filter(lambda v: len(v) <= 5), weights=_WEIGHTS,
       k=st.integers(-990, 990), psi=st.sampled_from(sorted(_PSIS)))
@settings(max_examples=8, deadline=None)
def test_oracle_exactly_homogeneous_under_powers_of_two(values, weights, k,
                                                        psi):
    c = 2.0 ** k
    space, g = _setup(values, weights, True)
    cg = space.function([c * v for v in values])
    psi = _PSIS[psi]()
    assert associate_norm_oracle(cg, psi, space) == c * associate_norm_oracle(
        g, psi, space)
    gamma = SetFunction.from_density(g, space)
    cgamma = SetFunction.from_density(cg, space)
    assert setfunction_norm(cgamma, psi, space) == c * setfunction_norm(
        gamma, psi, space)


@given(values=_VALUES.filter(any), weights=_WEIGHTS,
       p=st.floats(min_value=1.0, max_value=200.0))
@settings(max_examples=60, deadline=None)
def test_lp_norm_within_2e15_of_40_digit_reference(values, weights, p):
    space, f = _setup(values, weights, False)
    with localcontext() as ctx:
        ctx.prec = 40
        total = sum(Decimal(w) * Decimal(abs(v)) ** Decimal(p)
                    for v, w in zip(values, space.weights) if v != 0.0)
        exact = total ** (1 / Decimal(p))
    for got in (lp_norm(f, p, space), lp_norms(f, [p], space)[0]):
        assert abs(Decimal(float(got)) - exact) <= Decimal(2e-15) * exact


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_lp_norm_and_grand_norm_at_extreme_scales(scale):
    space = probability_space([0.5, 0.5])
    f = space.function([scale, -scale])
    g = space.function([scale, 3.0 * scale])
    for p in (2.0, 7.5, 120.0):
        assert lp_norm(f, p, space) == scale
        assert lp_norm(g, p, space) == pytest.approx(
            scale * (0.5 + 0.5 * 3.0 ** p) ** (1.0 / p), rel=1e-14)
    assert np.array_equal(lp_norms(f, [1.0, 2.0, 120.0, math.inf], space),
                          np.full(4, scale))
    h = space.function([1e155, 1.0])
    assert gls_norm(h, make_extremal_psi(3.0), space).value == pytest.approx(
        1e155 * 0.5 ** (1 / 3), rel=1e-14)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_min_feasible_and_luxemburg_at_extreme_scales(scale):
    # the geometric midpoint of a bracket near 1e+-200 once overflowed or
    # underflowed, ending the bisection at 3/4 of the answer
    scalar = min_feasible(lambda x: x >= scale, 1.0, side="hi")
    assert scalar == pytest.approx(scale, rel=1e-10)
    assert min_feasible_batch(lambda r, x: x >= scale, 1).tolist() == [scalar]
    space = probability_space([0.5, 0.5])
    f = space.function([scale, -scale])
    assert luxemburg_norm(f, power_young(2.0), space) == pytest.approx(
        scale, rel=1e-9)


def test_oracle_finite_and_below_bound_at_1e160():
    space = probability_space([0.2, 0.3, 0.5])
    g = space.function([1e160, -2e160, 0.5e160])
    psi = make_power_psi(2.0)
    bound = associate_bound(g, psi, space).value
    oracle = associate_norm_oracle(g, psi, space)
    setnorm = setfunction_norm(SetFunction.from_density(g, space), psi, space)
    assert math.isfinite(oracle) and oracle <= bound + 1e-8
    assert setnorm == oracle
