"""Moment-generating-function norms: rate functions, sample constructors,
the minimal-tau norm, and the companion generating function."""

import dataclasses
import decimal
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from glsnum import (
    DiscreteMeasureSpace,
    PhiFunction,
    RandomVariableSample,
    bphi_norm,
    discretized_normal,
    log_mgf,
    membership_check,
    mgf,
    phi_from_descriptor,
    power_phi,
    probability_space,
    psi_from_phi,
    quadratic_phi,
    rademacher,
    two_point,
)
from glsnum import bphi
from glsnum.search import log_grid


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------

def test_phi_validation():
    with pytest.raises(ValueError, match="lambda0 > 0"):
        PhiFunction(lambda0=0.0, core=lambda x: x ** 2)
    with pytest.raises(ValueError, match="phi\\(0\\) must be 0"):
        PhiFunction(lambda0=1.0, core=lambda x: x + 1.0)
    with pytest.raises(ValueError, match="positive for lambda > 0"):
        PhiFunction(lambda0=1.0, core=lambda x: -x ** 2)
    with pytest.raises(ValueError, match="midpoint convexity"):
        PhiFunction(lambda0=4.0, core=lambda x: np.sqrt(x))
    with pytest.raises(ValueError, match="non-finite"):
        PhiFunction(lambda0=2.0, core=lambda x: np.where(x > 1, math.inf, x))


def test_phi_even_and_domain():
    phi = quadratic_phi(2.0)
    assert phi(1.5) == phi(-1.5) == pytest.approx(1.125)
    assert phi(2.0) == math.inf  # open interval
    assert phi(5.0) == math.inf
    out = phi(np.array([-1.0, 0.0, 3.0]))
    assert out.shape == (3,)
    assert out[0] == pytest.approx(0.5)
    assert out[1] == 0.0
    assert math.isinf(out[2])


@given(family=st.sampled_from(["quadratic", "power"]),
       lambda0=st.sampled_from([math.inf, 0.75, 3.0]),
       where=st.sampled_from(["interior", "-interior", "0", "-0", "l0",
                              "-l0", "below_l0", "above_l0", "above_-l0",
                              "below_-l0", "nan", "inf", "-inf"]),
       u=st.floats(min_value=0.0, max_value=1.0),
       form=st.sampled_from([float, np.float64, np.array]))
@settings(max_examples=400, deadline=None)
def test_phi_scalar_call_matches_one_element_array(family, lambda0, where, u,
                                                   form):
    # a scalar evaluation is a Python float with the bits of the masked
    # array path on a one-element array, on both sides of the open ends
    phi = quadratic_phi(lambda0) if family == "quadratic" else power_phi(
        2.5, lambda0)
    inner = u * min(lambda0, 40.0)
    lam = {"interior": inner, "-interior": -inner, "0": 0.0, "-0": -0.0,
           "l0": lambda0, "-l0": -lambda0,
           "below_l0": math.nextafter(lambda0, 0.0),
           "above_l0": math.nextafter(lambda0, math.inf),
           "above_-l0": math.nextafter(-lambda0, 0.0),
           "below_-l0": math.nextafter(-lambda0, -math.inf),
           "nan": math.nan, "inf": math.inf, "-inf": -math.inf}[where]
    with np.errstate(over="ignore"):  # phi of the largest float is inf
        out = phi(form(lam))
        ref = phi(np.array([lam]))[0]
    assert type(out) is float
    assert out.hex() == float(ref).hex()


def test_phi_diagnostics():
    quad = quadratic_phi()
    assert quad.curvature_at_zero() == pytest.approx(1.0, rel=1e-6)
    assert quad.sup_value == math.inf
    capped = quadratic_phi(3.0)
    assert capped.sup_value == pytest.approx(4.5, rel=1e-9)


def test_power_phi_values_and_validation():
    phi = power_phi(3.0)
    assert phi(2.0) == pytest.approx(8.0 / 3.0)
    with pytest.raises(ValueError, match="m > 1"):
        power_phi(1.0)
    with pytest.raises(ValueError, match="m > 1"):
        power_phi(math.inf)
    lam = np.linspace(0.0, 5.0, 11)
    np.testing.assert_allclose(power_phi(2.0)(lam), quadratic_phi()(lam))


def test_phi_from_descriptor(tmp_path):
    assert phi_from_descriptor({"family": "quadratic"}).label == "quadratic"
    phi = phi_from_descriptor('{"family": "power", "params": {"m": 3}}')
    assert phi(1.0) == pytest.approx(1.0 / 3.0)
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(
        {"family": "quadratic", "params": {"lambda0": 2.0}}))
    assert phi_from_descriptor(path).lambda0 == 2.0
    with pytest.raises(ValueError, match="family"):
        phi_from_descriptor({"params": {}})
    with pytest.raises(ValueError, match="unknown rate-function"):
        phi_from_descriptor({"family": "cubic"})


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

def test_sample_requires_probability_space():
    space = DiscreteMeasureSpace(weights=(0.5, 0.7))
    with pytest.raises(ValueError, match="probability space"):
        RandomVariableSample(space.function([1.0, -1.0]))


def test_sample_requires_centering():
    space = probability_space([0.5, 0.5])
    with pytest.raises(ValueError, match="not centered"):
        RandomVariableSample(space.function([1.0, 2.0]))


def test_rademacher_shape():
    xi = rademacher(2.0)
    assert sorted(xi.values.tolist()) == [-2.0, 2.0]
    np.testing.assert_allclose(xi.probs, [0.5, 0.5])


def test_two_point():
    xi = two_point(3.0, 0.25)
    mean = float(np.dot(xi.values, xi.probs))
    assert abs(mean) <= 1e-12
    assert xi.values[0] == pytest.approx(3.0, abs=1e-12)
    assert xi.values[1] == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError, match="q in \\(0, 1\\)"):
        two_point(1.0, 1.0)


def test_discretized_normal_moments():
    xi = discretized_normal()
    assert xi.space.is_probability
    mean = float(np.dot(xi.values, xi.probs))
    var = float(np.dot(xi.values ** 2, xi.probs))
    assert abs(mean) <= 1e-12
    assert var == pytest.approx(1.0, abs=1e-3)


def test_sample_scaled():
    xi = rademacher()
    np.testing.assert_allclose(xi.scaled(3.0).values, 3.0 * xi.values)


# ---------------------------------------------------------------------------
# mgf helpers
# ---------------------------------------------------------------------------

def test_log_mgf_rademacher_is_log_cosh():
    xi = rademacher()
    for lam in (0.0, 0.3, 1.0, 5.0, -2.0):
        assert log_mgf(xi, lam) == pytest.approx(
            math.log(math.cosh(lam)), abs=1e-12)
    lams = np.array([0.5, 1.5])
    out = log_mgf(xi, lams)
    assert out.shape == (2,)


def test_log_mgf_never_overflows():
    # lambda * sup = 5000: the plain expectation overflows but the
    # log-domain accumulation stays exact
    assert log_mgf(rademacher(), 5000.0) == pytest.approx(
        5000.0 - math.log(2.0), rel=1e-12)


_LMGF_CASES = {"rademacher": rademacher,
               "two_point": lambda: two_point(1.7, 0.3),
               "normal": lambda: discretized_normal(401, 8.0)}


def _decimal_log_mgf(xi, lam):
    # ln sum p_i exp(lam x_i) of the float data, to 60 digits
    ctx = decimal.Context(prec=60)
    total = sum((ctx.multiply(decimal.Decimal(p), ctx.exp(
        ctx.multiply(decimal.Decimal(lam), decimal.Decimal(x))))
        for x, p in zip(xi.values.tolist(), xi.probs.tolist())),
        decimal.Decimal(0))
    return ctx.ln(total)


@pytest.mark.parametrize("name", sorted(_LMGF_CASES))
def test_log_mgf_accuracy_against_decimal_reference(name):
    # the error is absolute, a few ulps of 1 + |lambda| max|x|: at
    # |lambda| = 1e-4 the log-mgf is about 5e-9, so only its relative
    # error grows there
    xi = _LMGF_CASES[name]()
    mags = np.geomspace(1e-4, 50.0, 13)
    lams = np.concatenate([-mags[::-1], mags])
    got = log_mgf(xi, lams)
    top = float(np.max(np.abs(xi.values)))
    for lam, value in zip(lams.tolist(), got.tolist()):
        err = abs(float(decimal.Decimal(value) - _decimal_log_mgf(xi, lam)))
        assert err <= 8 * np.finfo(float).eps * (1.0 + abs(lam) * top), lam


def test_log_mgf_non_finite_lambda_and_shapes():
    zero = RandomVariableSample(probability_space([0.5, 0.5]).function(
        [0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in (rademacher(), two_point(1.7, 0.3)):
            assert log_mgf(xi, math.inf) == log_mgf(xi, -math.inf) == math.inf
            assert math.isnan(log_mgf(xi, math.nan))
            assert log_mgf(xi, 0.0) == pytest.approx(0.0, abs=1e-15)
        for lam in (math.inf, -math.inf, math.nan):
            assert math.isnan(log_mgf(zero, lam))
        assert log_mgf(zero, 0.0) == 0.0
        assert type(log_mgf(rademacher(), np.float64(0.5))) is float
        assert type(log_mgf(rademacher(), np.array(0.5))) is float
        grid = np.array([[0.0, math.inf], [math.nan, -2.0]])
        out = log_mgf(rademacher(), grid)
    assert out.shape == (2, 2)
    assert out[0, 1] == math.inf and math.isnan(out[1, 0])
    assert out[1, 1] == pytest.approx(math.log(math.cosh(2.0)), rel=1e-15)
    assert log_mgf(rademacher(), np.empty((0, 3))).shape == (0, 3)


def test_mgf_values_and_overflow():
    xi = rademacher()
    assert mgf(xi, 0.0) == 1.0
    assert mgf(xi, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-12)
    assert mgf(xi, 5000.0) == math.inf


# ---------------------------------------------------------------------------
# the norm
# ---------------------------------------------------------------------------

def test_bphi_norm_rademacher_quadratic():
    # ln cosh(lambda) <= (lambda tau)^2 / 2 first binds as lambda -> 0
    # where ln cosh ~ lambda^2 / 2, so the norm is 1
    norm = bphi_norm(rademacher(), quadratic_phi())
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_bphi_norm_discretized_normal():
    norm = bphi_norm(discretized_normal(), quadratic_phi())
    assert 0.99 <= norm <= 1.01


def test_bphi_norm_zero_variable():
    space = probability_space([0.5, 0.5])
    xi = RandomVariableSample(space.function([0.0, 0.0]))
    assert bphi_norm(xi, quadratic_phi()) == 0.0


def test_bphi_norm_scale_invariance_exact():
    xi = rademacher()
    phi = quadratic_phi()
    base = bphi_norm(xi, phi)
    for c in (2.0, 10.0, 0.125, 3.7e3):
        assert bphi_norm(xi.scaled(c), phi) == pytest.approx(
            c * base, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.25, max_value=4.0))
def test_bphi_norm_homogeneous_two_point(q, c):
    xi = two_point(1.0, q)
    phi = quadratic_phi()
    assert bphi_norm(xi.scaled(c), phi) == pytest.approx(
        c * bphi_norm(xi, phi), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-996, max_value=996),
       st.floats(min_value=0.05, max_value=0.95))
def test_bphi_norm_homogeneous_over_double_range(k, q):
    # a power-of-two scale is exact, so the centring check must accept the
    # scaled variable and the unit-sup normalization gives the same norm bits
    c = 2.0 ** k
    xi = two_point(1.7, q)
    phi = quadratic_phi()
    assert bphi_norm(xi.scaled(c), phi) == c * bphi_norm(xi, phi)


def _two_point_subgaussian_norm(x: float, q: float) -> float:
    """Exact quadratic_phi norm of two_point(x, q): |x| / (1 - q) times the
    optimal variance proxy root sqrt((1 - 2q) / (2 ln((1 - q) / q))) of a
    centred Bernoulli(q), |x| at q = 1/2; ln((1 - q) / q) is taken as
    log1p((1 - 2q) / q) so that the ratio keeps its digits near q = 1/2."""
    d = 1.0 - 2.0 * q
    if d == 0.0:
        return abs(x)
    return abs(x) / (1.0 - q) * math.sqrt(d / (2.0 * math.log1p(d / q)))


@given(x=st.floats(min_value=1e-3, max_value=1e3),
       negative=st.booleans(),
       q=st.floats(min_value=0.001, max_value=0.999))
@settings(max_examples=150, deadline=None)
def test_bphi_norm_two_point_against_closed_form(x, negative, q):
    # the lambda grid can only leave the norm below the exact one (by at
    # most 5.05e-4 over 20,001 q); the value is the smallest tau feasible on
    # the grid, the largest phi^(-1)(lmgf - slack) / |lambda| over its
    # nodes, so only the rounding of both sides can put it above
    x = -x if negative else x
    exact = _two_point_subgaussian_norm(x, q)
    got = bphi_norm(two_point(x, q), quadratic_phi())
    assert exact * (1.0 - 1e-3) <= got <= exact * (1.0 + 1e-8) * (1.0 + 1e-12)


def test_bphi_norm_infinite_when_no_feasible_tau():
    # phi = lambda^4 / 4 vanishes faster than the mgf's lambda^2 / 2 at the
    # origin, so the smallest grid lambda forces tau into the hundreds; with
    # tau_max below that every probe is infeasible and the norm is +inf
    finite = bphi_norm(rademacher(), power_phi(4.0))
    assert 100.0 < finite < 1e4
    capped = bphi_norm(rademacher(), power_phi(4.0), tau_max=10.0)
    assert capped == math.inf


def _grid_excess(xi, phi, tau):
    """ln E exp(lambda xi) - phi(lambda tau) - FEASIBILITY_SLACK at the 400
    lambda nodes of bphi_norm, for the variable rescaled to unit sup as
    bphi_norm does, less 8 ulps of the log-mgf for the rounding of phi and
    its inverse: tau is feasible on the grid where no element is positive."""
    scale = float(np.max(np.abs(xi.values)))
    lam_max = (bphi.LAMBDA_CAP if math.isinf(phi.lambda0)
               else phi.lambda0 * (1 - 1e-9))
    mags = log_grid(1e-4, lam_max, 200)
    lams = np.concatenate([-mags[::-1], mags])
    lmgf = bphi._log_mgf(xi.values / scale, xi.probs, lams)
    return (lmgf - phi(lams * tau) - bphi.FEASIBILITY_SLACK
            - 8 * np.finfo(float).eps * np.abs(lmgf))


@given(family=st.sampled_from(["quadratic", "power"]),
       m=st.floats(min_value=1.05, max_value=8.0),
       lambda0=st.one_of(st.just(math.inf),
                         st.floats(min_value=0.5, max_value=60.0)),
       kind=st.sampled_from(["rademacher", "two_point", "normal"]),
       a=st.floats(min_value=0.5, max_value=3.0),
       q=st.floats(min_value=0.05, max_value=0.95),
       points=st.integers(min_value=11, max_value=61))
@example(family="power", m=4.0, lambda0=1.0, kind="rademacher", a=1.0,
         q=0.5, points=11)
@settings(max_examples=60, deadline=None)
def test_bphi_norm_is_the_smallest_grid_feasible_tau(family, m, lambda0, kind,
                                                    a, q, points):
    # the value over the sup is feasible at every grid node within the
    # slack and rounding, a hair less is not, and the bisection inverse of
    # a phi built without its closed form gives the same value;
    # power(4, lambda0=1) puts the log-mgf above sup phi at the top nodes,
    # where the inverse is lambda0
    phi = (quadratic_phi(lambda0) if family == "quadratic"
           else power_phi(m, lambda0))
    xi = {"rademacher": lambda: rademacher(a),
          "two_point": lambda: two_point(a, q),
          "normal": lambda: discretized_normal(points, 2.0 + 2.0 * a)}[kind]()
    value = bphi_norm(xi, phi)
    tau = value / float(np.max(np.abs(xi.values)))
    assert 0.0 < tau <= bphi.TAU_MAX
    assert np.max(_grid_excess(xi, phi, tau)) <= 0.0
    assert np.max(_grid_excess(xi, phi, tau * (1.0 - 1e-9))) > 0.0
    bisected = bphi_norm(xi, dataclasses.replace(phi, inverse=None))
    assert bisected == pytest.approx(value, rel=1e-11, abs=0.0)


def test_phi_inverse_is_lambda0_at_and_above_sup_phi():
    # power(4) on (-1, 1) has sup phi = 1/4: from there on both the closed
    # form and the bisection give lambda0; y = 0 gives 0
    phi = power_phi(4.0, 1.0)
    y = np.array([0.0, 1e-9, 0.1, 0.2499, 0.25, 0.3, 5.0])
    closed = bphi._phi_inverse(phi, y)
    bisected = bphi._phi_inverse(dataclasses.replace(phi, inverse=None), y)
    assert closed[0] == bisected[0] == 0.0
    assert closed[4:].tolist() == bisected[4:].tolist() == [1.0, 1.0, 1.0]
    np.testing.assert_allclose(bisected, closed, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(phi(closed[1:4]), y[1:4], rtol=1e-12)


# ---------------------------------------------------------------------------
# companion generating function and membership
# ---------------------------------------------------------------------------

def test_psi_from_phi_quadratic_is_sqrt():
    psi = psi_from_phi(quadratic_phi())
    ps = np.array([1.0, 2.0, 16.0, 100.0])
    np.testing.assert_allclose(psi(ps), np.sqrt(ps), rtol=1e-8)


def test_psi_from_phi_raw_scale():
    # without normalization: p / phi^(-1)(p) = p / sqrt(2 p) = sqrt(p / 2)
    psi = psi_from_phi(quadratic_phi(), normalize=False)
    ps = np.array([1.0, 4.0, 50.0])
    np.testing.assert_allclose(psi(ps), np.sqrt(ps / 2.0), rtol=1e-8)


# float.hex of the companion psi at p = 1, 2, 7.3 and 50 by the closed-form
# inverse of phi (each within 2.3e-16 of p^(1 - 1/m)); the bisection before
# it gave 0x1.59d642bc4f91dp+1 and 0x1.c48c6001eff93p+2 at 7.3 and 50 for
# the quadratic, and 0x1.000000000049cp+0, 0x1.8406003b2ab43p+0,
# 0x1.a5e4f29ddd46dp+1 and 0x1.4e9acaca3a59bp+3 for power-2.5-25.
# quadratic_phi(40) agrees with quadratic_phi() since phi^(-1)(p) = sqrt(2p)
# for every p < 800 on both
_COMPANION_PINS = {
    "quadratic": ["0x1.0000000000000p+0", "0x1.6a09e667f3bcdp+0",
                  "0x1.59d642bc4fc1cp+1", "0x1.c48c6001f0ac0p+2"],
    "quadratic-40": ["0x1.0000000000000p+0", "0x1.6a09e667f3bcdp+0",
                     "0x1.59d642bc4fc1cp+1", "0x1.c48c6001f0ac0p+2"],
    "power-2.5-25": ["0x1.0000000000000p+0", "0x1.8406003b2ae5cp+0",
                     "0x1.a5e4f29ddde61p+1", "0x1.4e9acaca3abfcp+3"],
}
_COMPANION_PHIS = {"quadratic": lambda: quadratic_phi(),
                   "quadratic-40": lambda: quadratic_phi(40.0),
                   "power-2.5-25": lambda: power_phi(2.5, 25.0)}


@pytest.mark.parametrize("name", sorted(_COMPANION_PINS))
def test_psi_from_phi_pinned(name):
    # exact bits of single-point evaluations (the normalization polish runs
    # them) and of an evaluation at an array
    psi = psi_from_phi(_COMPANION_PHIS[name]())
    ps = [1.0, 2.0, 7.3, 50.0]
    one_at_a_time = [float(psi.interior(np.array([p]))[0]).hex() for p in ps]
    assert one_at_a_time == _COMPANION_PINS[name]
    assert [float(v).hex() for v in psi.interior(np.array(ps))] == (
        _COMPANION_PINS[name])


def test_psi_from_phi_needs_enough_range():
    with pytest.raises(ValueError, match="no exponents"):
        psi_from_phi(quadratic_phi(1.0))  # sup over (-1, 1) is 1/2


@given(family=st.sampled_from(["quadratic", "power"]),
       m=st.floats(min_value=1.05, max_value=8.0),
       lambda0=st.one_of(st.just(math.inf),
                         st.floats(min_value=0.5, max_value=60.0)),
       closed=st.booleans())
@settings(max_examples=60, deadline=None)
def test_psi_from_phi_is_one_at_one_and_nondecreasing(family, m, lambda0,
                                                      closed):
    # the normalizer is the companion at p = 1, its infimum: phi is convex
    # with phi(0) = 0, so p / phi^(-1)(p) is nondecreasing
    phi = (quadratic_phi(lambda0) if family == "quadratic"
           else power_phi(m, lambda0))
    assume(phi.sup_value > 1.0)
    if not closed:
        phi = dataclasses.replace(phi, inverse=None)
    psi = psi_from_phi(phi)
    assert psi(1.0) == 1.0
    vals = psi(np.geomspace(1.0, min(psi.b, 200.0) * (1 - 1e-9), 64))
    assert np.all(np.diff(vals) >= 0.0)


@pytest.mark.parametrize("phi", [quadratic_phi(), power_phi(3.0),
                                 power_phi(1.5, 4.0)],
                         ids=["quadratic", "power-3", "power-1.5-4"])
def test_psi_from_phi_builds_with_one_inversion(phi, monkeypatch):
    # the build inverts phi once, at p = 1: one batched bisection for a phi
    # without its closed form and none with it
    calls = []
    batch = bphi.min_feasible_batch

    def counted(*args, **kwargs):
        calls.append(args[1])
        return batch(*args, **kwargs)

    monkeypatch.setattr(bphi, "min_feasible_batch", counted)
    psi_from_phi(phi)
    assert calls == []
    psi_from_phi(dataclasses.replace(phi, inverse=None))
    assert calls == [1]


def test_membership_check_rademacher():
    rep = membership_check(rademacher(), quadratic_phi())
    assert rep.bphi == pytest.approx(1.0, abs=1e-5)
    assert rep.grand == pytest.approx(1.0, abs=1e-6)
    assert rep.ratio == pytest.approx(1.0, abs=1e-4)
    assert set(rep.to_dict()) == {"bphi", "grand", "ratio"}
