import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glsnum.search import (BracketError, GridSpec, NoFeasiblePoint,
                           NoInfeasiblePoint, golden_max, grid_refine_max,
                           grid_refine_max_batch, increasing_inverse,
                           linear_grid, log_grid, min_feasible,
                           min_feasible_batch)


def test_grid_spec_validation():
    GridSpec(points=16, cap=10.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        GridSpec(points=1)
    with pytest.raises(ValueError):
        GridSpec(points=64, cap=-5.0)
    with pytest.raises(ValueError):
        GridSpec(points=64, cap=100.0, rel_tol=0.0)


def test_log_grid_endpoints_and_monotone():
    xs = log_grid(1.0, 200.0, 128)
    assert xs[0] == 1.0
    assert xs[-1] == pytest.approx(200.0, rel=1e-12)
    assert np.all(np.diff(xs) > 0)


def test_linear_grid():
    xs = linear_grid(-2.0, 3.0, 11)
    assert xs[0] == -2.0 and xs[-1] == 3.0
    assert len(xs) == 11


def test_golden_max_quadratic():
    x, v = golden_max(lambda x: -(x - math.pi) ** 2, 0.0, 10.0, tol=1e-12)
    assert abs(x - math.pi) < 1e-6
    assert v == pytest.approx(0.0, abs=1e-12)


def test_golden_max_skewed():
    # maximum of x * exp(-x) at x = 1
    x, v = golden_max(lambda x: x * math.exp(-x), 0.0, 20.0, tol=1e-12)
    assert abs(x - 1.0) < 1e-5
    assert v == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_grid_refine_never_below_grid_best():
    xs = log_grid(1.0, 100.0, 32)
    fn = lambda x: math.sin(3.0 * math.log(x)) / (1.0 + x / 40.0)
    x_star, f_star, idx = grid_refine_max(fn, xs, rel_tol=1e-10,
                                          refine_in_log=True)
    grid_best = max(fn(float(x)) for x in xs)
    assert f_star >= grid_best - 1e-15
    assert xs[0] <= x_star <= xs[-1]
    assert 0 <= idx < len(xs)


def test_grid_refine_handles_nan():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    fn = lambda x: float("nan") if x < 1.5 else -(x - 3.1) ** 2
    x_star, f_star, _ = grid_refine_max(fn, xs, rel_tol=1e-10,
                                        refine_in_log=False)
    assert abs(x_star - 3.1) < 1e-6


def test_grid_refine_precomputed_values():
    xs = np.linspace(0.0, 4.0, 21)
    fn = lambda x: -(x - 1.7) ** 2
    vals = np.array([fn(float(x)) for x in xs])
    x_a, f_a, _ = grid_refine_max(fn, xs, values=vals, rel_tol=1e-12,
                                  refine_in_log=False)
    x_b, f_b, _ = grid_refine_max(fn, xs, rel_tol=1e-12, refine_in_log=False)
    assert x_a == x_b and f_a == f_b


@given(threshold=st.floats(min_value=1e-6, max_value=1e5))
@settings(max_examples=60, deadline=None)
def test_min_feasible_recovers_threshold(threshold):
    got = min_feasible(lambda x: x >= threshold, 1.0, rel_tol=1e-12,
                       x_min=1e-9, x_max=1e9)
    assert got == pytest.approx(threshold, rel=1e-9)


def test_min_feasible_side_hi_is_feasible():
    feasible = lambda x: x >= 0.3
    got = min_feasible(feasible, 1.0, rel_tol=1e-10, x_min=1e-6, x_max=1e3,
                       side="hi")
    assert feasible(got)
    assert got == pytest.approx(0.3, rel=1e-8)


def test_min_feasible_no_feasible_point():
    with pytest.raises(NoFeasiblePoint):
        min_feasible(lambda x: False, 1.0, rel_tol=1e-10, x_min=1e-3,
                     x_max=1e3)


def test_min_feasible_everything_feasible():
    with pytest.raises(NoInfeasiblePoint):
        min_feasible(lambda x: True, 1.0, rel_tol=1e-10, x_min=1e-3,
                     x_max=1e3)


def test_bracket_error_is_base():
    assert issubclass(NoFeasiblePoint, BracketError)
    assert issubclass(NoInfeasiblePoint, BracketError)


@given(y=st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_increasing_inverse_square(y):
    x = increasing_inverse(lambda t: t * t, y, x_hi=2e3)
    assert x == pytest.approx(math.sqrt(y), rel=1e-9)


def test_increasing_inverse_log():
    x = increasing_inverse(math.log1p, 3.0, x_hi=1e9)
    assert x == pytest.approx(math.expm1(3.0), rel=1e-9)


# ---------------------------------------------------------------------------
# batched primitives: row by row bit-identical to the scalar routines
# ---------------------------------------------------------------------------

def _batch_objective(a, c, b, w):
    def fn(rows, x):
        return -a[rows] * (x - c[rows]) ** 2 + b[rows] * np.sin(w[rows] * x)
    return fn


@given(n_grid=st.integers(min_value=3, max_value=40),
       lo=st.floats(min_value=-300.0, max_value=300.0),
       span=st.floats(min_value=1e-3, max_value=600.0),
       cluster=st.integers(min_value=0, max_value=10_000),
       rel_tol=st.sampled_from([1e-12, 1e-10, 1e-6, 1e-3]),
       params=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.01, 5.0),
                                 st.floats(0.0, 2.0), st.floats(0.1, 10.0)),
                       min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_grid_refine_max_batch_matches_scalar(n_grid, lo, span, cluster,
                                              rel_tol, params):
    xs = np.linspace(lo, lo + span, n_grid)
    # a cluster of three nodes 2 eps wide: a row peaked at its middle node
    # polishes a cell narrower than its tolerance
    j = cluster % (n_grid - 1)
    eps = 1e-14 * max(abs(xs[j]), abs(xs[j + 1]), 1.0)
    centre = xs[j] + eps
    xs = np.insert(xs, j + 1, [centre, xs[j] + 2 * eps])
    # a last cell eps wide: its polish is the midpoint evaluation alone
    eps_end = 1e-14 * max(abs(xs[-1]), 1.0)
    xs = np.append(xs, xs[-1] + eps_end)
    assert np.all(np.diff(xs) > 0)
    # random rows peak anywhere inside the grid (their tolerances differ
    # with the magnitude of their best cell); then a constant row (the
    # polish ties the grid value), a row peaked inside the narrow last
    # cell, the cluster row, rows best at the left and right ends, an
    # all-NaN row and an all -inf row
    pos, a, b, w = (np.array(col) for col in zip(*params))
    c = np.concatenate([lo + pos * span,
                        [0.0, xs[-2] + 0.6 * eps_end, centre,
                         xs[0] - 1.0, xs[-1] + 1.0, 0.0, 0.0]])
    a = np.concatenate([a, [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
    b = np.concatenate([b, np.zeros(7)])
    w = np.concatenate([w, np.ones(7)])
    fn = _batch_objective(a, c, b, w)
    n = len(c)
    rows = np.repeat(np.arange(n), len(xs))
    values = fn(rows, np.tile(xs, n)).reshape(n, len(xs))
    values[-2] = np.nan
    values[-1] = -np.inf
    expected = [grid_refine_max(
        lambda x, k=k: float(fn(np.array([k]), np.array([x]))[0]), xs,
        values=values[k].copy(), rel_tol=rel_tol) for k in range(n)]
    x_star, f_star = grid_refine_max_batch(fn, xs, values, rel_tol=rel_tol)
    for k, (x_ref, f_ref, _) in enumerate(expected):
        assert (x_star[k], f_star[k]) == (x_ref, f_ref)
    assert x_star[n - 5] == centre
    assert (x_star[n - 4], x_star[n - 3]) == (xs[0], xs[-1])
    assert f_star[-2] == f_star[-1] == -np.inf


def _batch_slope(a, c, b, w):
    def slope(rows, x):
        return (-2.0 * a[rows] * (x - c[rows])
                + b[rows] * w[rows] * np.cos(w[rows] * x),
                -2.0 * a[rows] - b[rows] * w[rows] ** 2 * np.sin(w[rows] * x))
    return slope


@given(n_grid=st.integers(min_value=3, max_value=40),
       lo=st.floats(min_value=-300.0, max_value=300.0),
       span=st.floats(min_value=1e-3, max_value=600.0),
       rel_tol=st.sampled_from([1e-12, 1e-10, 1e-6, 1e-3]),
       params=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 5.0),
                                 st.floats(0.0, 2.0), st.floats(0.1, 10.0)),
                       min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_grid_refine_max_batch_newton_matches_scalar(n_grid, lo, span,
                                                     rel_tol, params):
    # the row-wise Newton twin against grid_refine_max(slope=...): random
    # rows, concave or not (a positive curvature or a step out of the
    # bracket bisects), then a constant row (zero slope: the best node
    # stays), rows best at the left and right ends, an all-NaN row and an
    # all -inf row
    xs = np.linspace(lo, lo + span, n_grid)
    pos, a, b, w = (np.array(col) for col in zip(*params))
    c = np.concatenate([lo + pos * span, [0.0, xs[0] - 1.0, xs[-1] + 1.0,
                                          0.0, 0.0]])
    a = np.concatenate([a, [0.0, 1.0, 1.0, 1.0, 1.0]])
    b = np.concatenate([b, np.zeros(5)])
    w = np.concatenate([w, np.ones(5)])
    fn, slope = _batch_objective(a, c, b, w), _batch_slope(a, c, b, w)
    n = len(c)
    rows = np.repeat(np.arange(n), len(xs))
    values = fn(rows, np.tile(xs, n)).reshape(n, len(xs))
    values[-2] = np.nan
    values[-1] = -np.inf

    def scalar_slope(x, k):
        g, h = slope(np.array([k]), np.array([x]))
        return float(g[0]), float(h[0])

    expected = [grid_refine_max(
        lambda x, k=k: float(fn(np.array([k]), np.array([x]))[0]), xs,
        values=values[k].copy(), rel_tol=rel_tol,
        slope=lambda x, k=k: scalar_slope(x, k)) for k in range(n)]
    x_star, f_star = grid_refine_max_batch(fn, xs, values, rel_tol=rel_tol,
                                           slope=slope)
    for k, (x_ref, f_ref, _) in enumerate(expected):
        assert (x_star[k], f_star[k]) == (x_ref, f_ref)
    assert (x_star[n - 4], x_star[n - 3]) == (xs[0], xs[-1])
    assert f_star[-2] == f_star[-1] == -np.inf


def _scalar_min_feasible(t, rel_tol, x_max):
    try:
        return min_feasible(lambda x: x >= t, 1.0, rel_tol=rel_tol,
                            x_max=x_max, side="hi")
    except BracketError as exc:
        return type(exc)


# thresholds t of the predicates x >= t: 0 is feasible everywhere (the
# shrink passes x_min and raises), t below 1 shrinks, t above 1 expands
_THRESHOLDS = st.one_of(st.just(0.0),
                        st.floats(min_value=-302.0, max_value=308.0).map(
                            lambda e: 10.0 ** e))


@given(t=st.lists(_THRESHOLDS, min_size=1, max_size=8),
       rel_tol=st.sampled_from([1e-12, 1e-8, 1e-3]),
       x_max=st.one_of(st.floats(min_value=1e-3, max_value=1e308),
                       st.just(1e308)))
# the clip: a threshold just below x_max, which the doubling overshoots;
# both exceptions, the first failing row deciding which is raised; x_max
# below the start 1, where the search starts at x_max; a threshold
# bracketed only by a step below x_min, which raises
@example(t=[0.3, 999.0], rel_tol=1e-12, x_max=1e3)
@example(t=[5.0, 0.0, 2e3], rel_tol=1e-12, x_max=1e3)
@example(t=[5.0, 2e3, 0.0], rel_tol=1e-12, x_max=1e3)
@example(t=[1e-3, 0.2], rel_tol=1e-12, x_max=0.3)
@example(t=[1e-300], rel_tol=1e-12, x_max=1e3)
@settings(max_examples=80, deadline=None)
def test_min_feasible_batch_matches_scalar(t, rel_tol, x_max):
    t = np.array(t)
    expected = [_scalar_min_feasible(float(tk), rel_tol, x_max) for tk in t]
    failures = [e for e in expected if isinstance(e, type)]
    if failures:
        with pytest.raises(failures[0]):
            min_feasible_batch(lambda r, x: x >= t[r], len(t),
                               rel_tol=rel_tol, x_max=x_max)
        return
    got = min_feasible_batch(lambda r, x: x >= t[r], len(t), rel_tol=rel_tol,
                             x_max=x_max)
    assert got.tolist() == expected


def test_conjugate_young_function_nodes_match_points():
    from glsnum.orlicz import (build_N, conjugate_young_function,
                               conjugate_young_point, power_young)
    from glsnum.psi import make_power_psi
    ys = np.geomspace(1e-8, 1e6, 64)
    # u^2 puts its maximizer y/2 beyond the scan cap 200 from y = 400 on
    for N, capped in ((build_N(make_power_psi(2.0), table_points=128), False),
                      (power_young(2.0), True)):
        Nc = conjugate_young_function(N, table_points=64)
        points = [conjugate_young_point(N, float(y)) for y in ys]
        assert Nc(ys).tolist() == [pt.value for pt in points]
        hits = [float(y) for y, pt in zip(ys, points) if pt.hit_cap]
        assert bool(hits) == capped
        assert Nc.trusted_up_to == min(hits + [1e6])


def test_conjugate_point_and_table_agree_where_young_function_is_nan():
    # both score a point where N is not finite as -inf; the point path
    # once compared the NaN itself and differed at 16 of these 64 nodes
    from glsnum.orlicz import (YoungFunction, conjugate_young_function,
                               conjugate_young_point)
    N = YoungFunction("nan-tail",
                      lambda u: np.where(u > 150.0, np.nan, u ** 2))
    ys = np.geomspace(1e-8, 1e6, 64)
    Nc = conjugate_young_function(N, table_points=64)
    assert Nc(ys).tolist() == [conjugate_young_point(N, float(y)).value
                               for y in ys]


# (grid, capped) hashes and end nodes, 9 points, computed before the three
# scan_grid methods shared search.interval_grid
_SCAN_GRID_PINS = {
    ("psi", True, True, False): ("62211ac61e5f2e8a", "0x1.8000000000000p+0",
                                 "0x1.c000000000000p+2"),
    ("psi", True, True, True): ("0532fee7fee878c1", "0x1.8000000000000p+0",
                                "0x1.0000000000000p+2"),
    ("psi", True, False, False): ("85387fa4ad44d661", "0x1.8000000000000p+0",
                                  "0x1.bffffffa182bfp+2"),
    ("psi", True, False, True): ("0532fee7fee878c1", "0x1.8000000000000p+0",
                                 "0x1.0000000000000p+2"),
    ("psi", False, True, False): ("92a68d884fff6923", "0x1.800000179f506p+0",
                                  "0x1.c000000000000p+2"),
    ("psi", False, True, True): ("af27c6dc68a8788a", "0x1.8000000abcc77p+0",
                                 "0x1.0000000000000p+2"),
    ("psi", False, False, False): ("2f3abe0280b2592e",
                                   "0x1.800000179f506p+0",
                                   "0x1.bffffffa182bfp+2"),
    ("psi", False, False, True): ("af27c6dc68a8788a", "0x1.8000000abcc77p+0",
                                  "0x1.0000000000000p+2"),
    ("adjacent", True, True, False): ("4071159e0027dc13",
                                      "0x1.2aaaaaaaaaaabp+0",
                                      "0x1.8000000000000p+1"),
    ("adjacent", True, True, True): ("7764acaab934b2a7",
                                     "0x1.2aaaaaaaaaaabp+0",
                                     "0x1.0000000000000p+1"),
    ("adjacent", True, False, False): ("b0d150ae448443a7",
                                       "0x1.2aaaaaaaaaaabp+0",
                                       "0x1.7ffffffc101d4p+1"),
    ("adjacent", True, False, True): ("7764acaab934b2a7",
                                      "0x1.2aaaaaaaaaaabp+0",
                                      "0x1.0000000000000p+1"),
    ("adjacent", False, True, False): ("703012879deb7a88",
                                       "0x1.2aaaaab28a702p+0",
                                       "0x1.8000000000000p+1"),
    ("adjacent", False, True, True): ("76e0324edb62a97e",
                                      "0x1.2aaaaaae3eed3p+0",
                                      "0x1.0000000000000p+1"),
    ("adjacent", False, False, False): ("62e563a30869103f",
                                        "0x1.2aaaaab28a702p+0",
                                        "0x1.7ffffffc101d4p+1"),
    ("adjacent", False, False, True): ("76e0324edb62a97e",
                                       "0x1.2aaaaaae3eed3p+0",
                                       "0x1.0000000000000p+1"),
    ("real", True, True, False): ("46fa9f55915e93ae", "0x0.0p+0",
                                  "0x1.c000000000000p+2"),
    ("real", True, False, False): ("a2be0a2a69e9c7af", "0x0.0p+0",
                                   "0x1.bffffff87bdadp+2"),
    ("real", False, True, False): ("cd2378b38d187bcc",
                                   "0x1.e1094d643f785p-28",
                                   "0x1.c000000000000p+2"),
    ("real", False, False, False): ("07028a78d0c9dc74",
                                    "0x1.e1094d643f785p-28",
                                    "0x1.bffffff87bdadp+2"),
}


@pytest.mark.parametrize("key", sorted(_SCAN_GRID_PINS), ids=str)
def test_scan_grids_pinned(key):
    # psi on [1.5, 7], capped at 4; its adjacent domain [7/6, 3], capped at
    # 2; a real function on [0, 7], whose grid ignores its capped flag
    import hashlib
    from glsnum.convex import RealFunction1D
    from glsnum.psi import AdjacentFunction, PsiFunction
    kind, include_lo, include_hi, capped = key
    psi = PsiFunction(1.5, 7.0, include_lo, include_hi,
                      interior=lambda p: p ** 0.5)
    if kind == "psi":
        grid, was_capped = psi.scan_grid(
            GridSpec(points=9, cap=4.0 if capped else 200.0))
    elif kind == "adjacent":
        nu = AdjacentFunction(psi, 7.0 / 6.0, 3.0, include_lo, include_hi)
        grid, was_capped = nu.scan_grid(
            GridSpec(points=9, cap=2.0 if capped else 200.0))
    else:
        grids = [RealFunction1D(0.0, 7.0, np.exp, include_lo, include_hi,
                                capped=flag).scan_grid(9)
                 for flag in (False, True)]
        assert grids[0].tobytes() == grids[1].tobytes()
        grid, was_capped = grids[0], False
    assert was_capped == capped
    digest = hashlib.sha256(grid.tobytes()).hexdigest()[:16]
    assert (digest, grid[0].hex(), grid[-1].hex()) == _SCAN_GRID_PINS[key]


def test_psi_from_phi_array_matches_scalar_calls():
    from glsnum.bphi import power_phi, psi_from_phi, quadratic_phi
    for phi in (quadratic_phi(), power_phi(3.0), power_phi(1.5, 4.0)):
        ps = np.concatenate([[1.0], np.geomspace(
            1.01, min(phi.sup_value, 200.0) * 0.999, 57)])
        psi = psi_from_phi(phi)
        assert psi(ps).tolist() == [psi(float(p)) for p in ps]


def test_psi_from_phi_without_inverse_bisects():
    # a phi without a closed-form inverse keeps the batched bisection: each
    # unnormalized value is p over the scalar inverse of phi, bit for bit
    import dataclasses
    from glsnum.bphi import power_phi, psi_from_phi, quadratic_phi
    for phi in (quadratic_phi(), power_phi(3.0), power_phi(1.5, 4.0)):
        phi = dataclasses.replace(phi, inverse=None)
        ps = np.concatenate([[1.0], np.geomspace(
            1.01, min(phi.sup_value, 200.0) * 0.999, 57)])
        psi = psi_from_phi(phi)
        assert psi(ps).tolist() == [psi(float(p)) for p in ps]
        lam_hi = phi.lambda0 if math.isfinite(phi.lambda0) else 1e154
        raw = psi_from_phi(phi, normalize=False)
        assert raw(ps).tolist() == [
            p / increasing_inverse(lambda lam: float(phi(lam)), float(p),
                                   x_hi=lam_hi)
            for p in ps]


@given(m=st.one_of(st.just(2.0), st.floats(min_value=1.05, max_value=8.0)),
       lambda0=st.one_of(st.just(math.inf),
                         st.floats(min_value=2.0, max_value=60.0)),
       u=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                  max_size=6))
@settings(max_examples=40, deadline=None)
def test_psi_from_phi_closed_form_matches_bisection(m, lambda0, u):
    # the closed-form inverse against the bisection it replaced and against
    # the exact companion p^(1 - 1/m) (normalized: infimum 1 at p = 1)
    import dataclasses
    from glsnum.bphi import power_phi, psi_from_phi, quadratic_phi
    phi = quadratic_phi(lambda0) if m == 2.0 else power_phi(m, lambda0)
    if phi.sup_value <= 1.0:
        return
    top = min(phi.sup_value, 200.0)
    ps = np.concatenate([[1.0], top ** (np.array(u) * (1.0 - 1e-9))])
    closed = psi_from_phi(phi)(ps)
    bisected = psi_from_phi(dataclasses.replace(phi, inverse=None))(ps)
    np.testing.assert_allclose(closed, bisected, rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(closed, ps ** (1.0 - 1.0 / m), rtol=1e-11,
                               atol=0.0)
