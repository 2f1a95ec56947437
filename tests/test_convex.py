import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsnum.convex import (ConjugatePoint, RealFunction1D,
                           check_growth_condition, check_sv_condition,
                           exponent_V, growth_report_for_psi, h_of,
                           young_fenchel, young_fenchel_point,
                           young_fenchel_table)
from glsnum.bphi import power_phi, psi_from_phi, quadratic_phi
from glsnum.psi import (SLOWLY_VARYING, PsiFunction, make_exp_psi,
                        make_extremal_psi, make_power_psi, make_sv_psi)
from glsnum.search import GridSpec


def test_real_function_domain_masking():
    h = RealFunction1D(1.0, 4.0, lambda z: z ** 2, label="sq")
    assert h(2.0) == 4.0
    assert h(0.5) == math.inf
    assert h(4.5) == math.inf
    arr = np.asarray(h(np.array([0.5, 2.0, 5.0])), dtype=float)
    assert math.isinf(arr[0]) and arr[1] == 4.0 and math.isinf(arr[2])


_CUBIC = RealFunction1D(-1.5, 2.5, lambda z: np.exp(z) - z ** 3,
                        label="cubic")


@given(fn=st.sampled_from(["cubic", "h_power"]),
       lo_included=st.booleans(), hi_included=st.booleans(),
       where=st.sampled_from(["interior", "lo", "hi", "below_lo", "above_lo",
                              "below_hi", "above_hi", "nan", "inf", "-inf"]),
       u=st.floats(min_value=0.0, max_value=1.0),
       form=st.sampled_from([float, np.float64, np.array]))
@settings(max_examples=400, deadline=None)
def test_real_function_scalar_call_matches_one_element_array(
        fn, lo_included, hi_included, where, u, form):
    # a scalar evaluation is a Python float with the bits of the masked
    # array path on a one-element array, for all four endpoint inclusions
    base = _CUBIC if fn == "cubic" else h_of(make_power_psi(2.0))
    h = dataclasses.replace(base, lo_included=lo_included,
                            hi_included=hi_included)
    z = {"interior": h.lo + u * (h.hi - h.lo), "lo": h.lo, "hi": h.hi,
         "below_lo": math.nextafter(h.lo, -math.inf),
         "above_lo": math.nextafter(h.lo, math.inf),
         "below_hi": math.nextafter(h.hi, -math.inf),
         "above_hi": math.nextafter(h.hi, math.inf),
         "nan": math.nan, "inf": math.inf, "-inf": -math.inf}[where]
    out = h(form(z))
    assert type(out) is float
    assert out.hex() == float(h(np.array([z]))[0]).hex()


def test_quadratic_self_conjugate():
    h = RealFunction1D(-100.0, 100.0, lambda z: 0.5 * z ** 2, label="q")
    for v in np.linspace(-50, 50, 41):
        assert young_fenchel(h, float(v)) == pytest.approx(
            0.5 * v * v, abs=1e-8)


def test_power_psi_conjugate_closed_form():
    # h(p) = p ln(p^(1/m)) = (p ln p)/m over p >= 1:
    # the stationary point e^(m v - 1) is interior only for v >= 1/m, so
    #   h*(v) = e^(m v - 1)/m   for v >= 1/m,
    #   h*(v) = v               otherwise (sup at the endpoint p = 1).
    for m in (1.0, 2.0, 3.0):
        h = h_of(make_power_psi(m))
        for v in np.linspace(0.2, 1.4, 7):
            v = float(v)
            exact = math.exp(m * v - 1.0) / m if v >= 1.0 / m else v
            assert young_fenchel(h, v) == pytest.approx(exact, rel=1e-8,
                                                        abs=1e-10)


def test_extremal_conjugate_two_branches():
    # h = 0 on [1, r]: h*(v) = r v for v >= 0 and v otherwise
    h = h_of(make_extremal_psi(4.0))
    assert young_fenchel(h, 2.0) == pytest.approx(8.0, abs=1e-10)
    assert young_fenchel(h, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert young_fenchel(h, -1.5) == pytest.approx(-1.5, abs=1e-10)


def test_conjugate_shift_rule():
    # conjugation maps h + c to h* - c
    base = lambda z: z * np.log(z + 1.0)
    h = RealFunction1D(1.0, 80.0, base, label="h")
    h_up = RealFunction1D(1.0, 80.0, lambda z: base(z) + 2.5, label="h+c")
    for v in (0.3, 1.0, 2.0):
        assert young_fenchel(h_up, v) == pytest.approx(
            young_fenchel(h, v) - 2.5, abs=1e-10)


def test_fenchel_young_inequality(rng):
    h = h_of(make_power_psi(2.0))
    for _ in range(200):
        z = float(rng.uniform(1.0, 190.0))
        v = float(rng.uniform(-2.0, 2.5))
        assert v * z <= float(h(z)) + young_fenchel(h, v) + 1e-9


_SLOPED_PSIS = [make_power_psi(2.0), make_exp_psi(0.3, 0.7),
                make_exp_psi(1.0, 1.0), make_extremal_psi(3.0),
                psi_from_phi(quadratic_phi()),
                psi_from_phi(power_phi(3.0, 4.0))]


def test_table_matches_pointwise():
    # every row of the table is the point query bit for bit, Newton-polished
    # on the slopes of h; under power psi the maximizer e^(2 v - 1) passes
    # the cap 200 from v = 3.15 on, and golden section polishes the
    # conjugate of a psi without slopes
    vs = np.linspace(-1.0, 6.0, 36)
    sv = make_sv_psi(2.0, SLOWLY_VARYING["log"])
    capped = []
    for psi in _SLOPED_PSIS + [sv]:
        h = h_of(psi)
        assert (h.slope is None) == (psi is sv)
        values, argmaxes, flags = young_fenchel_table(h, vs)
        for v, val, am, fl in zip(vs, values, argmaxes, flags):
            pt = young_fenchel_point(h, float(v))
            assert (val, am, fl) == (pt.value, pt.argmax_z, pt.hit_cap)
        capped.append(bool(flags.any()))
    assert capped[0]


@pytest.mark.parametrize("psi", _SLOPED_PSIS, ids=lambda psi: psi.label)
def test_newton_table_matches_golden_table(psi):
    # the Newton polish on h's slopes and the golden-section polish of the
    # same psi without them reach the same conjugate values
    vs = np.linspace(-1.0, 6.0, 64)
    newton, _, flags = young_fenchel_table(h_of(psi), vs)
    golden, _, golden_flags = young_fenchel_table(
        h_of(dataclasses.replace(psi, log_slope=None)), vs)
    np.testing.assert_allclose(newton, golden, rtol=1e-12, atol=0.0)
    assert flags.tolist() == golden_flags.tolist()


def test_hit_cap_reported():
    # for power psi the maximizer e^(m v - 1) outruns the cap at large v
    h = h_of(make_power_psi(2.0))
    pt = young_fenchel_point(h, 5.0)  # argmax would be e^9 >> 200
    assert pt.hit_cap
    assert pt.argmax_z == pytest.approx(200.0, rel=1e-6)
    pt_small = young_fenchel_point(h, 1.0)
    assert not pt_small.hit_cap


def test_conjugate_point_type():
    h = h_of(make_extremal_psi(2.0))
    pt = young_fenchel_point(h, 1.0)
    assert isinstance(pt, ConjugatePoint)
    assert pt.value == pytest.approx(2.0, abs=1e-10)


def test_exponent_V_closed_forms():
    psi2 = make_power_psi(2.0)
    assert exponent_V(psi2, math.e) == pytest.approx(math.e / 2.0, rel=1e-9)
    psi_r = make_extremal_psi(3.0)
    assert exponent_V(psi_r, math.e ** 2) == pytest.approx(6.0, rel=1e-10)
    # V is even in u
    assert exponent_V(psi_r, -math.e ** 2) == pytest.approx(6.0, rel=1e-10)


def test_exponent_V_domain():
    with pytest.raises(ValueError):
        exponent_V(make_power_psi(2.0), 1.5)


def test_exponent_V_amortized_h():
    psi = make_power_psi(2.0)
    h = h_of(psi)
    a = exponent_V(psi, 10.0, h=h)
    b = exponent_V(psi, 10.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_biconjugate_below_h():
    # weak duality: sup_v (v z - h*(v)) <= h(z), checked for every family
    families = [make_extremal_psi(3.0), make_power_psi(2.0),
                make_exp_psi(1.0, 1.0)]
    vs = np.linspace(-2.0, 30.0, 200)
    for psi in families:
        h = h_of(psi)
        hstar, _, _ = young_fenchel_table(h, vs)
        zs = np.linspace(h.lo, min(h.hi, 50.0), 40)
        for z in zs:
            biconj = float(np.max(vs * z - hstar))
            assert biconj <= float(h(z)) + 1e-8


# ---------------------------------------------------------------------------
# growth condition
# ---------------------------------------------------------------------------

def test_growth_power_exact():
    xs = np.geomspace(1e-4, 1e6, 500)
    for m in (1.0, 2.0, 3.0):
        rep = check_growth_condition(lambda x, _m=m: x ** _m, 2.0,
                                     2.0 ** (-m), x_grid=xs)
        assert rep.passed
        assert rep.worst_ratio == pytest.approx(2.0 ** (-m), abs=1e-12)
        rep_tight = check_growth_condition(lambda x, _m=m: x ** _m, 2.0,
                                           2.0 ** (-m) - 1e-3, x_grid=xs)
        assert not rep_tight.passed


def test_growth_log_fails_below_one():
    xs = np.geomspace(1e-2, 1e6, 800)
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 0.94):
        rep = check_growth_condition(lambda x: np.log1p(x), 2.0, alpha,
                                     x_grid=xs)
        assert not rep.passed, f"log should fail at alpha={alpha}"


def test_growth_flags_nonpositive_denominators():
    xs = np.geomspace(1e-3, 10.0, 50)
    # fn negative below 1: those grid points are vacuous and flagged
    rep = check_growth_condition(lambda x: x - 1.0, 2.0, 0.9, x_grid=xs)
    assert rep.n_flagged > 0


def test_growth_vacuous_raises():
    xs = np.geomspace(1e-3, 10.0, 20)
    with pytest.raises(ValueError):
        check_growth_condition(lambda x: -np.ones_like(x), 2.0, 0.5,
                               x_grid=xs)


def test_sv_condition():
    xs = np.geomspace(1.0, 1e4, 200)
    rep = check_sv_condition(lambda x: np.log(math.e + x), 2.0, 1.0, 2.0,
                             x_grid=xs)
    assert rep.passed  # nondecreasing L with alpha K^m = 4 > 1
    rep2 = check_sv_condition(lambda x: np.log(math.e + x), 2.0, 0.2, 1.0,
                              x_grid=xs)
    assert not rep2.passed  # alpha K^m = 0.4 < ratios near 1


def test_growth_report_for_psi_power():
    # V(x) = x^m/(e m) for psi_m: the scaled-growth ratio is exactly K^(-m)
    for m in (1.0, 2.0):
        rep = growth_report_for_psi(make_power_psi(m), 2.0, 2.0 ** (-m))
        assert rep.passed
        assert rep.worst_ratio == pytest.approx(2.0 ** (-m), rel=1e-9)


@pytest.mark.parametrize("m", [3.75, 4.0])
def test_growth_report_for_psi_vacuous_when_every_point_is_capped(m):
    # above m = 3.72 the maximizer of v z - h(z) passes the cap 200 at every
    # point of the default grid: the report says the check is vacuous
    # instead of raising, and verify_representation, which runs it, returns
    from glsnum.duality import verify_representation
    from glsnum.measure import probability_space
    psi = make_power_psi(m)
    rep = growth_report_for_psi(psi, 2.0, 0.75)
    assert rep.passed is False
    assert math.isnan(rep.worst_ratio) and math.isnan(rep.worst_x)
    assert (rep.alpha, rep.K, rep.n_flagged) == (0.75, 2.0, 160)
    space = probability_space([0.3, 0.7])
    out = verify_representation(space.function([1.0, -2.0]), psi, space)
    assert out.growth.n_flagged == 160 and out.growth.passed is False


def test_growth_report_for_psi_extremal_fails():
    # V(x) = r ln x grows too slowly: the log-type refutation applies
    rep = growth_report_for_psi(make_extremal_psi(3.0), 2.0, 0.5)
    assert not rep.passed


def test_h_of_respects_cap():
    h = h_of(make_power_psi(2.0), cap=50.0)
    assert h.hi == 50.0
    assert h.capped
    h2 = h_of(make_extremal_psi(3.0), cap=50.0)
    assert h2.hi == 3.0
    assert not h2.capped


@pytest.mark.parametrize("make_psi", [
    lambda: psi_from_phi(quadratic_phi(3.0)),
    lambda: PsiFunction(1.0, 5.0, False, False,
                        interior=lambda p: 1.0 + 0.1 * (p - 3.0) ** 2),
], ids=["from_phi", "open"])
def test_h_of_matches_psi_at_its_endpoints(make_psi):
    # h takes psi's formula without psi's support mask: its own interval is
    # psi's support (right end open below the cap), so both give the same
    # bits at the endpoints, the next floats inward, and +inf where excluded
    psi = make_psi()
    h = h_of(psi)
    assert h.hi == psi.b < 200.0 and not h.hi_included and not h.capped
    zs = np.array([h.lo, np.nextafter(h.lo, h.hi), np.nextafter(h.hi, h.lo),
                   h.hi])
    expected = zs * np.log(np.asarray(psi(zs), dtype=float))
    assert h(zs).tobytes() == expected.tobytes()
    for z, e in zip(zs, expected):
        assert float(h(float(z))).hex() == float(z * np.log(psi(float(z)))
                                                 ).hex() == float(e).hex()
    assert math.isinf(h(h.hi))
    assert math.isinf(h(h.lo)) == (not psi.include_a)
