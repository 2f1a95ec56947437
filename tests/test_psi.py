import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsnum.bphi import power_phi, psi_from_phi, quadratic_phi
from glsnum.convex import h_of
from glsnum.measure import probability_space
from glsnum.psi import (SLOWLY_VARYING, AdjacentFunction, PsiFunction,
                        adjacent, conjugate_exponent, export_psi_csv,
                        load_psi_csv, make_exp_psi, make_extremal_psi,
                        make_power_psi, make_sv_psi, make_table_psi,
                        natural_function, psi_from_descriptor)

# ---------------------------------------------------------------------------
# conjugate exponents
# ---------------------------------------------------------------------------


def test_conjugate_exponent_special_values():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(3.0) == pytest.approx(1.5)


def test_conjugate_exponent_rejects_below_one():
    with pytest.raises(ValueError):
        conjugate_exponent(0.99)


@given(p=st.floats(min_value=1.0 + 1e-9, max_value=1e6))
@settings(max_examples=100, deadline=None)
def test_conjugate_exponent_involution(p):
    assert conjugate_exponent(conjugate_exponent(p)) == pytest.approx(
        p, rel=1e-9)


# ---------------------------------------------------------------------------
# generating-function families
# ---------------------------------------------------------------------------

def test_extremal_psi_shape():
    psi = make_extremal_psi(3.0)
    assert psi(1.0) == 1.0
    assert psi(3.0) == 1.0
    assert psi(2.2) == 1.0
    assert psi(3.0001) == math.inf
    assert psi(0.9) == math.inf
    with pytest.raises(ValueError):
        make_extremal_psi(1.0)


def test_power_psi_values():
    psi = make_power_psi(2.0)
    ps = np.array([1.0, 4.0, 100.0])
    assert np.allclose(psi(ps), np.sqrt(ps))
    assert psi(0.5) == math.inf  # outside support


def test_power_psi_infimum_is_one():
    for m in (0.5, 1.0, 3.0):
        psi = make_power_psi(m)
        ps = np.geomspace(1.0, 200.0, 400)
        assert float(np.min(psi(ps))) == pytest.approx(1.0, abs=1e-12)


def test_sv_psi_normalized():
    L = lambda p: np.log(math.e - 1.0 + np.asarray(p, dtype=float))
    psi = make_sv_psi(2.0, L, label="sv-log")
    ps = np.geomspace(1.0, 200.0, 600)
    vals = np.asarray(psi(ps), dtype=float)
    assert float(np.min(vals)) >= 1.0 - 1e-9
    assert float(np.min(vals)) <= 1.0 + 1e-6


def test_sv_psi_rejects_nonpositive_factor():
    with pytest.raises(ValueError):
        make_sv_psi(2.0, lambda p: np.asarray(p) - 3.0, label="bad")


def test_exp_psi_values():
    psi = make_exp_psi(1.5, 0.7)
    assert psi(1.0) == pytest.approx(1.0)
    p = 4.0
    assert psi(p) == pytest.approx(math.exp(1.5 * (p ** 0.7 - 1.0)))
    with pytest.raises(ValueError):
        make_exp_psi(-1.0, 1.0)


def test_psi_function_validation():
    with pytest.raises(ValueError):
        PsiFunction(a=0.5, b=2.0, include_a=True, include_b=True,
                    interior=lambda p: np.ones_like(p), label="bad-a")
    with pytest.raises(ValueError):
        PsiFunction(a=2.0, b=2.0, include_a=True, include_b=True,
                    interior=lambda p: np.ones_like(p), label="empty")
    with pytest.raises(ValueError):
        PsiFunction(a=1.0, b=math.inf, include_a=True, include_b=True,
                    interior=lambda p: np.ones_like(p), label="inf-closed")


def test_effective_interval_capping():
    h = h_of(make_power_psi(2.0), cap=150.0)
    assert (h.lo, h.hi) == (1.0, 150.0)
    assert h.capped
    h2 = h_of(make_extremal_psi(4.0), cap=150.0)
    assert (h2.lo, h2.hi) == (1.0, 4.0)
    assert not h2.capped


def test_scan_grid_respects_open_endpoints():
    from glsnum.search import GridSpec
    psi = PsiFunction(a=1.0, b=5.0, include_a=False, include_b=False,
                      interior=lambda p: np.ones_like(np.asarray(p, float)),
                      label="open")
    grid, capped = psi.scan_grid(GridSpec(points=64, cap=200.0))
    assert grid[0] > 1.0 and grid[-1] < 5.0
    assert not capped
    assert np.all(np.isfinite(np.asarray(psi(grid), dtype=float)))


# ---------------------------------------------------------------------------
# adjacent functions
# ---------------------------------------------------------------------------

def test_adjacent_power_closed_form():
    for m in (1.0, 2.0, 4.0):
        nu = adjacent(make_power_psi(m))
        qs = np.geomspace(1.01, 150.0, 200)
        expected = ((qs - 1.0) / qs) ** (1.0 / m)
        assert np.allclose(nu(qs), expected, atol=1e-13, rtol=1e-13)


def test_adjacent_extremal_support():
    # psi_(3) lives on [1, 3]; conjugates of [1, 3] are [1.5, inf]
    nu = adjacent(make_extremal_psi(3.0))
    assert isinstance(nu, AdjacentFunction)
    assert nu(1.6) == 1.0  # 1/psi(conj q) with conj in support
    assert nu(1.4) == 0.0  # conj(1.4) = 3.5 outside [1, 3]
    assert nu(10.0) == 1.0


def test_adjacent_vanishes_where_psi_infinite():
    nu = adjacent(make_extremal_psi(2.0))
    # conj(1.2) = 6 > 2, so psi = inf there and nu = 0
    assert nu(1.2) == 0.0


# ---------------------------------------------------------------------------
# tables, natural functions, descriptors
# ---------------------------------------------------------------------------

def test_table_psi_loglog_interp_exact_on_powers():
    nodes = np.geomspace(1.0, 100.0, 20)
    psi = make_table_psi(nodes, nodes ** 0.5)
    queries = np.geomspace(1.1, 95.0, 77)
    assert np.allclose(psi(queries), queries ** 0.5, rtol=1e-12)


def test_table_round_trip(tmp_path):
    psi = make_power_psi(2.0)
    path = tmp_path / "psi.csv"
    export_psi_csv(psi, path)
    back = load_psi_csv(path)
    qs = np.geomspace(1.0, 190.0, 300)
    orig = np.asarray(psi(qs), dtype=float)
    again = np.asarray(back(qs), dtype=float)
    # round trip must reproduce evaluations within 1e-9
    assert np.max(np.abs(again - orig) / (1.0 + orig)) <= 1e-9


@pytest.mark.parametrize("make_psi", [
    lambda: psi_from_phi(quadratic_phi(3.0)),
    lambda: PsiFunction(1.0, 5.0, False, False,
                        interior=lambda p: 1.0 + 0.1 * (p - 3.0) ** 2,
                        label="open"),
], ids=["from_phi", "open"])
def test_export_round_trip_with_excluded_endpoints(tmp_path, make_psi):
    # excluded endpoints are not written (psi is +inf there); the nodes are
    # the scan grid, just inside the support, and the table loads back
    from glsnum.search import GridSpec
    psi = make_psi()
    path = tmp_path / "psi.csv"
    export_psi_csv(psi, path)
    back = load_psi_csv(path)
    nodes = psi.scan_grid(GridSpec(points=256, cap=200.0))[0]
    assert back.table[0] == tuple(nodes.tolist())
    assert back.table[1] == tuple(np.asarray(psi(nodes), float).tolist())
    assert np.allclose(back(nodes), psi(nodes), rtol=1e-14, atol=0.0)


def test_natural_function_single_member(rng):
    # tabulated on 4096 log nodes; between nodes the log-log interpolation
    # carries a few 1e-8 of relative error
    space = probability_space(rng.uniform(0.2, 1.0, size=4))
    f = space.function(rng.uniform(-2, 2, size=4))
    psi = natural_function([f], space)
    from glsnum.measure import lp_norm
    for p in (1.0, 2.0, 7.0):
        assert float(psi(p)) == pytest.approx(lp_norm(f, p, space), rel=1e-6)


def test_natural_function_errors():
    space = probability_space([0.5, 0.5])
    with pytest.raises(ValueError):
        natural_function([], space)
    zero = space.function([0.0, 0.0])
    with pytest.raises(ValueError):
        natural_function([zero], space)
    other = probability_space([0.3, 0.7])
    with pytest.raises(ValueError):
        natural_function([space.function([1, 2]), other.function([1, 2])])


def test_descriptor_dispatch(tmp_path):
    psi = psi_from_descriptor({"family": "extremal", "params": {"r": 2.5}})
    assert psi(2.0) == 1.0
    psi2 = psi_from_descriptor('{"family": "power", "params": {"m": 3}}')
    assert psi2(8.0) == pytest.approx(2.0)
    path = tmp_path / "desc.json"
    path.write_text(json.dumps({"family": "exponential",
                                "params": {"C": 1.0, "beta": 1.0}}))
    psi3 = psi_from_descriptor(path)
    assert psi3(1.0) == pytest.approx(1.0)
    psi4 = psi_from_descriptor({"family": "slowly_varying",
                                "params": {"m": 2, "L": "log"}})
    assert math.isfinite(float(psi4(10.0)))
    with pytest.raises(ValueError):
        psi_from_descriptor({"family": "nope"})
    with pytest.raises(ValueError):
        psi_from_descriptor({"params": {}})


def test_descriptor_table_inline():
    psi = psi_from_descriptor({"family": "table",
                               "params": {"p": [1.0, 10.0, 100.0],
                                          "psi": [1.0, 2.0, 4.0]}})
    assert float(psi(10.0)) == pytest.approx(2.0)
    assert psi(101.0) == math.inf


# ---------------------------------------------------------------------------
# the scalar call path
# ---------------------------------------------------------------------------

_FAST_PATH_FACTORIES = {
    "extremal": lambda: make_extremal_psi(3.0),
    "power": lambda: make_power_psi(2.0),
    "exp": lambda: make_exp_psi(1.5, 0.7),
    "sv": lambda: make_sv_psi(2.0, SLOWLY_VARYING["log"]),
    "table": lambda: make_table_psi([1.0, 2.0, 5.0, 20.0],
                                    [1.0, 1.3, 1.8, 3.0]),
    "companion": lambda: psi_from_phi(quadratic_phi()),
}


@functools.cache
def _fast_path_psi(name):
    return _FAST_PATH_FACTORIES[name]()


@given(name=st.sampled_from(sorted(_FAST_PATH_FACTORIES)),
       include_a=st.booleans(), include_b=st.booleans(),
       where=st.sampled_from(["interior", "a", "b", "below_a", "above_b",
                              "nan", "inf", "-inf"]),
       u=st.floats(min_value=0.0, max_value=1.0),
       form=st.sampled_from([float, np.float64, np.array]))
@settings(max_examples=400, deadline=None)
def test_scalar_call_matches_one_element_array(name, include_a, include_b,
                                               where, u, form):
    # a scalar evaluation is a Python float, bit-identical to the masked
    # array path on a one-element array, for every endpoint flag
    base = _fast_path_psi(name)
    psi = dataclasses.replace(base, include_a=include_a,
                              include_b=include_b and math.isfinite(base.b))
    hi = min(psi.b, 300.0)
    p = {"interior": psi.a + u * (hi - psi.a), "a": psi.a, "b": psi.b,
         "below_a": math.nextafter(psi.a, -math.inf),
         "above_b": math.nextafter(psi.b, math.inf),
         "nan": math.nan, "inf": math.inf, "-inf": -math.inf}[where]
    out = psi(form(p))
    assert type(out) is float
    assert out == psi(np.array([p]))[0]


@given(name=st.sampled_from(sorted(_FAST_PATH_FACTORIES)),
       include_a=st.booleans(), include_b=st.booleans(),
       where=st.sampled_from(["interior", "one", "lower", "upper",
                              "below_lower", "above_lower", "below_upper",
                              "above_upper", "below_one", "half", "nan",
                              "inf", "-inf"]),
       u=st.floats(min_value=0.0, max_value=1.0),
       form=st.sampled_from([float, np.float64, np.array]))
@settings(max_examples=400, deadline=None)
def test_adjacent_scalar_call_matches_one_element_array(name, include_a,
                                                        include_b, where, u,
                                                        form):
    # a scalar call of the adjacent function gives a float with the bits of
    # a one-element array call, and both reject exponents below 1
    base = _fast_path_psi(name)
    nu = adjacent(dataclasses.replace(
        base, include_a=include_a,
        include_b=include_b and math.isfinite(base.b)))
    hi = min(nu.q_upper, 300.0)
    q = {"interior": nu.q_lower + u * (hi - nu.q_lower), "one": 1.0,
         "lower": nu.q_lower, "upper": nu.q_upper,
         "below_lower": math.nextafter(nu.q_lower, -math.inf),
         "above_lower": math.nextafter(nu.q_lower, math.inf),
         "below_upper": math.nextafter(nu.q_upper, -math.inf),
         "above_upper": math.nextafter(nu.q_upper, math.inf),
         "below_one": math.nextafter(1.0, -math.inf), "half": 0.5,
         "nan": math.nan, "inf": math.inf, "-inf": -math.inf}[where]
    if q < 1.0:
        with pytest.raises(ValueError):
            nu(form(q))
        with pytest.raises(ValueError):
            nu(np.array([q]))
        return
    with np.errstate(over="ignore"):  # exp psi overflows to inf near q = 1
        out = nu(form(q))
        ref = nu(np.array([q]))[0]
    assert type(out) is float
    assert out.hex() == float(ref).hex()


@pytest.mark.parametrize("psi", [
    make_power_psi(1.0), make_power_psi(3.7), make_exp_psi(1.0, 0.5),
    make_exp_psi(0.1, 1.4), make_extremal_psi(1.5), make_extremal_psi(5.3),
    psi_from_phi(quadratic_phi()), psi_from_phi(power_phi(3.0, 4.0))],
    ids=lambda psi: psi.label)
def test_declared_log_slope_matches_central_differences(psi):
    # (ln psi)' against a central difference of ln psi, and (ln psi)''
    # against one of the declared (ln psi)', at 50 points of the support
    top = min(psi.b, 200.0)
    for p in np.geomspace(1.0 + 1e-3, top * (1.0 - 1e-3), 50):
        p = float(p)
        h = 1e-5 * p
        d1, d2 = psi.log_slope(p)
        diff1 = (math.log(psi(p + h)) - math.log(psi(p - h))) / (2.0 * h)
        diff2 = (psi.log_slope(p + h)[0] - psi.log_slope(p - h)[0]) / (2.0 * h)
        assert d1 == pytest.approx(diff1, rel=1e-6, abs=0.0)
        assert d2 == pytest.approx(diff2, rel=1e-6, abs=0.0)


def test_only_closed_form_families_declare_a_log_slope():
    assert make_sv_psi(2.0, SLOWLY_VARYING["log"]).log_slope is None
    assert make_table_psi([1.0, 2.0], [1.0, 1.5]).log_slope is None
    # a companion declares one exactly when its phi has a closed-form inverse
    for phi in (quadratic_phi(), power_phi(3.0, 4.0)):
        assert psi_from_phi(phi).log_slope is not None
        bisected = dataclasses.replace(phi, inverse=None)
        assert psi_from_phi(bisected).log_slope is None


@pytest.mark.parametrize("r", np.linspace(1.5, 6.0, 46))
def test_adjacent_ends_map_to_the_support_ends(r):
    # r -> r/(r-1) -> back can round past r; the domain's included end must
    # still give nu = 1/psi(r), not the 0 of a point outside the support
    nu = adjacent(make_extremal_psi(float(r)))
    assert nu(nu.q_lower) == 1.0
    assert nu(np.array([nu.q_lower, 2.0 * nu.q_lower]))[0] == 1.0
