import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_function, random_space
from glsnum.measure import lp_norm, make_space, probability_space
from glsnum.orlicz import (YoungFunction, batch_embedding_check, build_N,
                           conjugate_young, conjugate_young_function,
                           conjugate_young_point, embedding_check,
                           luxemburg_norm, orlicz_holder_check, power_young,
                           validate_young)
from glsnum.psi import (make_exp_psi, make_extremal_psi, make_power_psi,
                        make_sv_psi)

SV_LOG = lambda p: np.log(math.e - 1.0 + np.asarray(p, dtype=float))

ALL_FAMILIES = [make_extremal_psi(2.0), make_extremal_psi(3.0),
                make_extremal_psi(5.0), make_power_psi(1.0),
                make_power_psi(2.0), make_power_psi(4.0),
                make_sv_psi(2.0, SV_LOG, label="sv"), make_exp_psi(1.0, 1.0)]


# ---------------------------------------------------------------------------
# Young function construction
# ---------------------------------------------------------------------------

def test_power_young_basics():
    N = power_young(3.0)
    assert N(0.0) == 0.0
    assert N(-2.0) == N(2.0) == 8.0
    with pytest.raises(ValueError):
        power_young(0.5)
    with pytest.raises(ValueError):
        power_young(2.0, coeff=-1.0)


def test_build_N_zero_and_continuity_all_families():
    for psi in ALL_FAMILIES:
        N = build_N(psi)
        assert float(N(0.0)) == 0.0
        # probe width matters: at e the steepest family here (extremal r=5)
        # has slope ~5 e^4, so +-1e-13 keeps the genuine increase ~1.5e-10
        # and anything above 1e-9 would be an actual branch mismatch
        left = float(N(math.e * (1.0 - 1e-13)))
        right = float(N(math.e * (1.0 + 1e-13)))
        assert abs(right - left) <= 1e-9, psi.label


def test_build_N_extremal_is_power():
    # for psi == 1 on [1, r] the exponent is r ln u, so N(u) = u^r above e
    for r in (2.0, 3.0, 5.0):
        N = build_N(make_extremal_psi(r))
        us = np.geomspace(math.e, 100.0, 64)
        rel = np.abs(N(us) / us ** r - 1.0)
        assert float(np.max(rel)) <= 1e-6
        # quadratic patch constant fixed by continuity: C = e^(r)/e^2
        assert float(N(1.0)) == pytest.approx(math.e ** (r - 2.0), rel=1e-9)


def test_build_N_quadratic_below_e():
    N = build_N(make_extremal_psi(3.0))
    us = np.linspace(0.1, math.e * 0.999, 50)
    C = float(N(1.0))
    assert np.allclose(N(us), C * us ** 2, rtol=1e-12)


def test_validate_young_structural():
    for psi in (make_extremal_psi(3.0), make_power_psi(2.0)):
        rep = validate_young(build_N(psi))
        assert rep["zero_at_zero"]
        assert rep["nondecreasing"]
        assert rep["midpoint_convex"]
        assert rep["even_deviation"] == 0.0
        assert rep["branch_jump"] <= 1e-9


def test_trusted_up_to_power_family():
    # the conjugate scan saturates its cap once the maximizing exponent
    # outruns it: beyond that point the table holds lower bounds only
    N = build_N(make_power_psi(2.0))
    assert N.trusted_up_to < 200.0
    N_ext = build_N(make_extremal_psi(3.0))
    assert N_ext.trusted_up_to == 200.0


def test_young_overflow_saturates_to_inf():
    N = build_N(make_power_psi(1.0))
    assert math.isinf(float(N(1e300)))


# ---------------------------------------------------------------------------
# Luxemburg norm
# ---------------------------------------------------------------------------

def test_luxemburg_power_equals_lp(rng):
    for _ in range(25):
        space = random_space(rng)
        f = random_function(rng, space)
        p = float(rng.uniform(1.0, 8.0))
        k = luxemburg_norm(f, power_young(p), space)
        assert k == pytest.approx(lp_norm(f, p, space), abs=1e-9, rel=1e-9)


def test_luxemburg_integral_at_solution(rng):
    for _ in range(10):
        space = random_space(rng)
        f = random_function(rng, space)
        if not np.any(f.value_array):
            continue
        p = float(rng.uniform(1.0, 6.0))
        N = power_young(p)
        k = luxemburg_norm(f, N, space)
        integral = float(np.dot(N(np.abs(f.value_array) / k),
                                space.weight_array))
        assert abs(integral - 1.0) <= 1e-6


def test_luxemburg_two_atom_exact():
    # uniform two-point space, f = (1, 1), N = u^2: integral is (1/k)^2 = 1
    space = probability_space([0.5, 0.5])
    f = space.function([1.0, 1.0])
    assert luxemburg_norm(f, power_young(2.0), space) == pytest.approx(
        1.0, rel=1e-10)
    g = space.function([2.0, 0.0])
    # integral 0.5 (2/k)^2 = 1 at k = sqrt(2)
    assert luxemburg_norm(g, power_young(2.0), space) == pytest.approx(
        math.sqrt(2.0), rel=1e-10)


def test_luxemburg_zero_function():
    space = probability_space([0.5, 0.5])
    assert luxemburg_norm(space.function([0.0, 0.0]), power_young(2.0),
                          space) == 0.0


def test_luxemburg_exponential_young(rng):
    # exponential N: solver must cope with inf saturation during bracketing
    N = build_N(make_power_psi(2.0))
    space = random_space(rng)
    f = random_function(rng, space, lo=-50.0, hi=50.0)
    k = luxemburg_norm(f, N, space)
    assert math.isfinite(k) and k > 0
    vals = np.asarray(N(np.abs(f.value_array) / k), dtype=float)
    integral = float(np.dot(vals, space.weight_array))
    assert integral <= 1.0 + 1e-6


N_POW2 = build_N(make_power_psi(2.0))
N_EXP = build_N(make_exp_psi(0.1, 0.7))


@st.composite
def lux_case(draw):
    """(f, N): 1-3,000 atoms of log-normal magnitude (sigma 2) and random
    sign on a space of random total mass, under a power Young function or
    an exponential one from build_N."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from([1, 2, 7, 60, 3000]))
    space = make_space(rng.uniform(0.2, 1.0, n)
                       * draw(st.sampled_from([1.0 / n, 1.0, 3.0])))
    f = space.function(np.exp(2.0 * rng.standard_normal(n))
                       * rng.choice([-1.0, 1.0], n))
    N = draw(st.sampled_from([power_young(draw(st.floats(1.0, 8.0))),
                              N_POW2, N_EXP]))
    return f, N


def _young_integral(f, N, k):
    return float(np.dot(N(np.abs(f.value_array) / k), f.space.weight_array))


@given(case=lux_case())
@settings(max_examples=100, deadline=None)
def test_luxemburg_brackets_unit_integral(case):
    # the root steps after the doubling or halving bracket take at most 14
    # integrals (12 in a probe of 400 cases; up to 59 without the Illinois
    # halving)
    f, N = case
    calls = []
    counted = dataclasses.replace(
        N, eval_abs=lambda u: calls.append(u.size) or N.eval_abs(u))
    k = luxemburg_norm(f, counted)
    assert _young_integral(f, N, k * (1 + 1e-9)) <= 1.0
    assert _young_integral(f, N, k * (1 - 1e-9)) >= 1.0
    k0 = float(np.max(np.abs(f.value_array)))
    assert len(calls) <= abs(math.floor(math.log2(k / k0))) + 2 + 14


@given(case=lux_case(), power=st.sampled_from([900, -900]))
@settings(max_examples=60, deadline=None)
def test_luxemburg_homogeneous_at_extreme_scales(case, power):
    f, N = case
    scale = 2.0 ** power
    assert luxemburg_norm(scale * f, N) == pytest.approx(
        scale * luxemburg_norm(f, N), rel=1e-10)


@pytest.mark.parametrize("N", [power_young(3.0), N_POW2],
                         ids=["power3", "N_pow2"])
def test_luxemburg_integral_count(N):
    # regula falsi on ln integral N(f/k) in ln k: at most 16 integrals over
    # 1e5 Student-t atoms, bracket included (bisection took 37-41)
    calls = []
    counted = dataclasses.replace(
        N, eval_abs=lambda u: calls.append(u.size) or N.eval_abs(u))
    rng = np.random.default_rng(40)
    space = probability_space(rng.uniform(0.2, 1.0, 100_000))
    f = space.function(rng.standard_t(3, 100_000))
    k = luxemburg_norm(f, counted)
    assert len(calls) <= 16
    assert k == luxemburg_norm(f, N)


@pytest.mark.parametrize("weights, values", [
    ([0.5, 0.5], [1.0, 1e-3]),  # N(f/k) overflows at the bracket's low end
    ([3.0], [2.0]),  # and underflows to 0 at its high end
])
def test_luxemburg_converges_through_overflow_and_underflow(weights, values):
    space = make_space(weights)
    f = space.function(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = luxemburg_norm(f, power_young(2000.0))
    assert k == pytest.approx(lp_norm(f, 2000.0), rel=1e-10)


def test_luxemburg_degenerate_young_functions():
    f = probability_space([0.5, 0.5]).function([1.0, -2.0])
    flat = YoungFunction("flat", lambda u: np.zeros_like(u))
    with pytest.raises(ValueError, match="flat: no lower bracket for the "
                       "Luxemburg norm; the Young function is degenerate "
                       "near 0"):
        luxemburg_norm(f, flat)
    wall = YoungFunction("wall", lambda u: np.where(u > 0, np.inf, 0.0))
    with pytest.raises(ValueError, match=r"wall: no feasible scale up to "
                       r"1e14 \* ess sup; the Young function blows up too "
                       "fast"):
        luxemburg_norm(f, wall)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugate_young_power_pair():
    # N = u^p/p conjugates to y^q/q
    p, q = 3.0, 1.5
    N = power_young(p, coeff=1.0 / p)
    for y in (0.5, 1.0, 2.0, 5.0):
        assert conjugate_young(N, y) == pytest.approx(y ** q / q, rel=1e-8)


def test_conjugate_young_quadratic():
    N = power_young(2.0)
    for y in (0.1, 1.0, 10.0):
        assert conjugate_young(N, y) == pytest.approx(y * y / 4.0, rel=1e-9)


def test_conjugate_young_point_fields():
    pt = conjugate_young_point(power_young(2.0), 4.0)
    assert pt.value == pytest.approx(4.0, rel=1e-9)
    assert pt.argmax_z == pytest.approx(2.0, rel=1e-6)
    assert not pt.hit_cap


@pytest.mark.parametrize("name, y, value, argmax, hit_cap", [
    ("power", 0.0, "0x0.0p+0", "0x0.0p+0", False),
    ("power", -3.0, "0x1.2000000000000p+1", "0x1.7fffffae5ae7dp+0", False),
    ("power", 1e3, "0x1.3880000000000p+17", "0x1.9000000000000p+7", True),
    ("N_pow2", 0.0, "0x0.0p+0", "0x0.0p+0", False),
    ("N_pow2", -3.0, "0x1.10c492e2435acp+2", "0x1.5bf0a8b1492d7p+1", False),
    ("N_pow2", 1e300, "0x1.2aa4f4a405be2p+1004", "0x1.9000000000000p+7",
     True),
])
def test_conjugate_young_point_pinned(name, y, value, argmax, hit_cap):
    # bits of the point conjugate at 0, at a negative slope (|y| is used)
    # and at a slope whose maximizer lies beyond the scan cap u = 200
    N = (power_young(2.0) if name == "power"
         else build_N(make_power_psi(2.0)))
    pt = conjugate_young_point(N, y)
    assert (pt.value.hex(), pt.argmax_z.hex(), pt.hit_cap) == (
        value, argmax, hit_cap)


def test_conjugate_function_never_undershoots(rng):
    # the tabulated conjugate must stay >= pointwise conjugate values:
    # convexity makes the chords an overestimate, which keeps Hoelder
    # right-hand sides safe
    N = build_N(make_power_psi(2.0))
    Nc = conjugate_young_function(N)
    ys = np.concatenate([rng.uniform(1e-6, 2.0, 25),
                         rng.uniform(2.0, 5e3, 25)])
    for y in ys:
        point = conjugate_young(N, float(y))
        assert float(Nc(float(y))) >= point * (1.0 - 1e-12)
        assert float(Nc(float(y))) <= point * (1.0 + 1e-3) + 1e-9


def test_conjugate_function_degenerate_raises():
    # N(u) = |u| has conjugate 0 on [0, 1]: tabulation refuses
    with pytest.raises(ValueError):
        conjugate_young_function(power_young(1.0))


def test_asymptotic_band_log_factor():
    # conjugates of the exponential Young functions grow like
    # y * ln^(1/m)(e + y): the ratio stays in a narrow band
    for m in (1.0, 2.0):
        N = build_N(make_power_psi(m))
        ratios = []
        for y in np.geomspace(10.0, 1e4, 9):
            val = conjugate_young(N, float(y))
            ratios.append(val / (y * math.log(math.e + y) ** (1.0 / m)))
        assert max(ratios) / min(ratios) <= 10.0
        assert max(ratios) <= 10.0 and min(ratios) >= 0.1


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------

def test_orlicz_holder_random(rng):
    psi = make_power_psi(2.0)
    N = build_N(psi)
    Nc = conjugate_young_function(N)
    for _ in range(50):
        space = random_space(rng)
        f = random_function(rng, space)
        g = random_function(rng, space)
        rep = orlicz_holder_check(f, g, N, space, N_conj=Nc)
        assert rep.lhs <= rep.rhs + 1e-6
        assert rep.passed


def test_orlicz_holder_tight_for_quadratic():
    # N = u^2 with f = g: Cauchy-Schwarz equality, the factor-2 bound
    # collapses to equality through the conjugate y^2/4
    space = probability_space([0.3, 0.7])
    f = space.function([1.0, -2.0])
    exact = orlicz_holder_check(f, f, power_young(2.0), space,
                                N_conj=power_young(2.0, coeff=0.25))
    assert exact.ratio == pytest.approx(1.0, abs=1e-8)
    # with the tabulated conjugate the chords overestimate y^2/4, so the
    # ratio lands just below 1 -- never above, that side would break the bound
    tabulated = orlicz_holder_check(f, f, power_young(2.0), space)
    assert 1.0 - 1e-4 <= tabulated.ratio <= 1.0 + 1e-9


def test_orlicz_holder_proportional_pair_safe():
    # proportional pair inside the quadratic patch of the exponential
    # build: ratio reaches 1 up to table slack but never beyond
    psi = make_power_psi(2.0)
    N = build_N(psi)
    space = probability_space([0.5, 0.5])
    f = space.function([1.2, -1.1])
    rep = orlicz_holder_check(f, 2.0 * f, N, space)
    assert 0.99 <= rep.ratio <= 1.0 + 1e-9
    assert rep.lhs <= rep.rhs + 1e-6


def test_embedding_check(rng):
    psi = make_extremal_psi(2.0)
    space = random_space(rng)
    f = random_function(rng, space)
    rep = embedding_check(f, psi, space)
    # N[psi_(2)] = u^2 exactly, so Luxemburg == L_2 == grand norm
    assert rep.ratio == pytest.approx(1.0, rel=1e-9)


def test_batch_embedding(rng):
    space = random_space(rng)
    fs = [random_function(rng, space) for _ in range(6)]
    rep = batch_embedding_check(fs, make_power_psi(2.0), space)
    assert rep.c_low > 0
    assert rep.c_high >= rep.c_low
    assert rep.spread == pytest.approx(rep.c_high / rep.c_low)
    assert rep.spread <= 20.0
    # ratio invariance under scaling of one member
    rep2 = batch_embedding_check([2.0 * fs[0]], make_power_psi(2.0), space)
    assert rep2.c_low == pytest.approx(rep.ratios[0], rel=1e-9)


def test_young_function_dataclass():
    N = YoungFunction(label="abs", eval_abs=lambda u: u)
    assert N(-3.0) == 3.0
    assert N.branch_point == 0.0
