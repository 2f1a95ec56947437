"""Young conjugates of one-dimensional functions and growth-ratio checks.

The central object is h(p) = p * ln(psi(p)) on the support of a generating
function; its Young conjugate h*(v) = sup_z (v z - h(z)) evaluated at
v = ln|u| is the exponent function V(u) that builds the matching exponential
Young function.  Conjugates are computed by a grid scan plus a polish of the
best cell, for a table of slopes by one matrix scan whose polishes all
advance together.  The polish is a bracketed Newton iteration on the exact
slopes of h when psi declares its log-slope (power, exponential,
constant-one and companion families), golden section otherwise (slowly
varying and tabulated psi, the conjugate of a tabulated Young function);
when the maximizer abuts a computational cap the point is flagged
(the reported value is then a certified lower bound on the true supremum,
which may be finite or infinite depending on the growth of h beyond the cap).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from glsnum.psi import PsiFunction
from glsnum.search import (GridSpec, _on_interval, grid_refine_max,
                           grid_refine_max_batch, interval_grid)

__all__ = [
    "RealFunction1D",
    "ConjugatePoint",
    "h_of",
    "young_fenchel",
    "young_fenchel_point",
    "exponent_V",
    "GrowthReport",
    "check_growth_condition",
    "check_sv_condition",
    "growth_report_for_psi",
]

CONJUGATE_GRID = GridSpec(points=512, cap=200.0, rel_tol=1e-10)

#: multiplicative tolerance when comparing a worst ratio against alpha
RATIO_PASS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RealFunction1D:
    """A real function on a bounded interval, with endpoint bookkeeping.

    `capped` records that the interval is the truncation of a larger true
    domain (an infinite endpoint replaced by a computational cap), which the
    conjugate machinery surfaces as hit_cap flags.  `slope`, when set, maps
    a 1-d array of domain points to the arrays of the first and second
    derivatives of fn there; the conjugate polishes by Newton's method with
    it.
    """

    lo: float
    hi: float
    fn: Callable[[np.ndarray], np.ndarray]
    lo_included: bool = True
    hi_included: bool = True
    capped: bool = False
    label: str = "h"
    slope: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty domain [{self.lo}, {self.hi}]")

    def __call__(self, z):
        return _on_interval(z, self.lo, self.hi, self.lo_included,
                            self.hi_included, self.fn)

    def scan_grid(self, points: int) -> np.ndarray:
        return interval_grid(self.lo, self.hi, self.lo_included,
                             self.hi_included, points, log=False)[0]


def h_of(psi: PsiFunction, *, cap: float = 200.0) -> RealFunction1D:
    """h(p) = p * ln(psi(p)) on the support of psi, clipped to [a, cap]; h's
    interval check is the only one, fn takes psi's formula unmasked.  With
    psi.log_slope, h carries its slopes h' = ln psi + p (ln psi)' and
    h'' = 2 (ln psi)' + p (ln psi)''."""
    capped = psi.b > cap

    def fn(p: np.ndarray) -> np.ndarray:
        return p * np.log(psi.interior(p))

    slope = None
    if psi.log_slope is not None:
        def slope(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            d1, d2 = psi.log_slope(p)
            return np.log(psi.interior(p)) + p * d1, 2.0 * d1 + p * d2

    return RealFunction1D(lo=psi.a, hi=min(psi.b, cap), fn=fn,
                          lo_included=psi.include_a,
                          hi_included=psi.include_b or capped,
                          capped=capped,
                          label=f"h[{psi.label}]", slope=slope)


@dataclass(frozen=True)
class ConjugatePoint:
    """One conjugate evaluation: the supremum, its maximizer, and whether the
    maximizer abutted the domain cap (value then a lower bound only)."""

    value: float
    argmax_z: float
    hit_cap: bool

    def to_dict(self) -> dict:
        return {"value": self.value, "argmax_z": self.argmax_z,
                "hit_cap": self.hit_cap}


def young_fenchel_point(h: RealFunction1D, v: float,
                        grid: GridSpec = CONJUGATE_GRID) -> ConjugatePoint:
    """h*(v) = sup_z (v z - h(z)) over the domain of h, by grid scan plus a
    polish of the best cell: Newton's method on v - h'(z) when h.slope is
    set, golden section otherwise."""
    v = float(v)
    zs = h.scan_grid(grid.points)
    with np.errstate(invalid="ignore"):
        objective = v * zs - h(zs)

    def scalar(z: float) -> float:
        hz = h(z)  # a Python float
        if not math.isfinite(hz):
            return -math.inf
        return v * z - hz

    slope = None
    if h.slope is not None:
        def slope(z: float) -> tuple[float, float]:
            # a one-element array: the bits of young_fenchel_table's rows
            d1, d2 = h.slope(np.array([z]))
            return v - float(d1[0]), -float(d2[0])

    z_star, value, _ = grid_refine_max(scalar, zs, values=objective,
                                       rel_tol=grid.rel_tol, slope=slope)
    hit_cap = bool(h.capped and z_star >= zs[-2])
    return ConjugatePoint(value=float(value), argmax_z=float(z_star),
                          hit_cap=hit_cap)


def young_fenchel(h: RealFunction1D, v: float,
                  grid: GridSpec = CONJUGATE_GRID) -> float:
    return young_fenchel_point(h, v, grid).value


def young_fenchel_table(h: RealFunction1D, vs,
                        grid: GridSpec = CONJUGATE_GRID
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conjugate over an array of slopes, equal to young_fenchel_point at
    each slope bit for bit.

    The grid stage is one in-place matrix pass; the polishes of all slopes
    then advance together, Newton steps when h.slope is set and golden
    section otherwise.  Returns (values, argmaxes, hit_cap flags).
    """
    vs = np.asarray(vs, dtype=float)
    zs = h.scan_grid(grid.points)
    with np.errstate(invalid="ignore"):
        mat = np.multiply.outer(vs, zs)
        mat -= h(zs)

    def objective(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        hz = h(z)
        out = vs[rows] * z - hz
        out[~np.isfinite(hz)] = -math.inf
        return out

    slope = None
    if h.slope is not None:
        def slope(rows: np.ndarray, z: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
            d1, d2 = h.slope(z)
            return vs[rows] - d1, -d2

    argmaxes, values = grid_refine_max_batch(objective, zs, mat,
                                             rel_tol=grid.rel_tol,
                                             slope=slope)
    flags = h.capped & (argmaxes >= zs[-2])
    return values, argmaxes, flags


def exponent_V(psi: PsiFunction, u: float, *,
               h: RealFunction1D | None = None,
               grid: GridSpec = CONJUGATE_GRID) -> float:
    """Exponent function V(u) = h*(ln|u|) for |u| >= e, with
    h(p) = p ln psi(p).  Pass a prebuilt h to amortize across many queries."""
    u = float(u)
    if abs(u) < math.e * (1.0 - 1e-12):
        raise ValueError(
            f"the exponent function is used for |u| >= e, got {u}")
    if h is None:
        h = h_of(psi, cap=grid.cap)
    return young_fenchel(h, math.log(abs(u)), grid)


# ---------------------------------------------------------------------------
# growth-ratio checks
# ---------------------------------------------------------------------------

def _default_x_grid() -> np.ndarray:
    return np.geomspace(1e-6, 1e6, 481)


def _eval_on_grid(fn, xs: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(fn(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(float(x))) for x in xs])


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of a scaled-growth check sup_x fn(x/K) / (bound * fn(x)).

    passed is worst_ratio <= alpha up to a 1e-9 multiplicative tolerance;
    n_flagged counts grid points skipped because the denominator was not a
    positive finite number (the condition is vacuous there).
    """

    passed: bool
    worst_ratio: float
    worst_x: float
    alpha: float
    K: float
    n_flagged: int

    def to_dict(self) -> dict:
        return {"passed": self.passed, "worst_ratio": self.worst_ratio,
                "worst_x": self.worst_x, "alpha": self.alpha, "K": self.K,
                "n_flagged": self.n_flagged}


def _ratio_report(num: np.ndarray, den: np.ndarray, xs: np.ndarray,
                  alpha: float, K: float) -> GrowthReport:
    valid = np.isfinite(num) & np.isfinite(den) & (den > 0)
    n_flagged = int(np.size(valid) - np.count_nonzero(valid))
    if not valid.any():
        raise ValueError("no valid grid points: the check is vacuous")
    ratios = num[valid] / den[valid]
    i = int(np.argmax(ratios))
    worst = float(ratios[i])
    worst_x = float(xs[valid][i])
    passed = worst <= alpha * (1.0 + RATIO_PASS_TOL)
    return GrowthReport(passed=passed, worst_ratio=worst, worst_x=worst_x,
                        alpha=float(alpha), K=float(K), n_flagged=n_flagged)


def check_growth_condition(V, K: float, alpha: float,
                           x_grid=None) -> GrowthReport:
    """Check V(x/K) <= alpha * V(x) across a positive grid.

    This is the doubling-type hypothesis under which the set-function norm
    representation is verified; V(x) = C x^m satisfies it with alpha = K^(-m)
    exactly, while V(x) = ln(1+x) violates every fixed alpha < 1 once x is
    taken large enough (the ratio creeps up to 1).
    """
    K = float(K)
    alpha = float(alpha)
    if not (K > 1):
        raise ValueError(f"needs K > 1, got {K}")
    if not (0 < alpha < 1):
        raise ValueError(f"needs alpha in (0, 1), got {alpha}")
    xs = _default_x_grid() if x_grid is None else np.asarray(x_grid, float)
    if np.any(xs <= 0):
        raise ValueError("the grid must be strictly positive")
    num = _eval_on_grid(V, xs / K)
    den = _eval_on_grid(V, xs)
    return _ratio_report(num, den, xs, alpha, K)


def check_sv_condition(L, K: float, alpha: float, m: float,
                       x_grid=None) -> GrowthReport:
    """Check L(x/K) <= alpha * K^m * L(x) across a positive grid.

    Satisfied by any nondecreasing positive L with alpha >= K^(-m); a
    decreasing L can violate it at small x.
    """
    K = float(K)
    m = float(m)
    if not (K > 1):
        raise ValueError(f"needs K > 1, got {K}")
    xs = _default_x_grid() if x_grid is None else np.asarray(x_grid, float)
    if np.any(xs <= 0):
        raise ValueError("the grid must be strictly positive")
    num = _eval_on_grid(L, xs / K)
    den = (K ** m) * _eval_on_grid(L, xs)
    return _ratio_report(num, den, xs, float(alpha), K)


def growth_report_for_psi(psi: PsiFunction, K: float, alpha: float, *,
                          x_grid=None,
                          grid: GridSpec = CONJUGATE_GRID) -> GrowthReport:
    """Growth check applied to the exponent function of psi itself.

    The default grid starts at e*K so that both x and x/K stay in the range
    where the exponent function is used.  Grid points whose conjugate scan
    pressed against the exponent cap carry uncertified (lower-bound) values;
    those points are excluded from the ratios and counted in n_flagged.
    When every point is flagged (power psi above m = 3.72 on the default
    grid) the check is vacuous, and the report says so: passed False, NaN
    worst ratio and worst x, and every grid point in n_flagged.
    """
    if x_grid is None:
        x_grid = np.geomspace(math.e * K * 1.0000001, 1e4, 160)
    xs = np.asarray(x_grid, dtype=float)
    h = h_of(psi, cap=grid.cap)
    both, _, capped = young_fenchel_table(
        h, np.concatenate([np.log(xs), np.log(xs / K)]), grid)
    n = len(xs)
    bad = capped[:n] | capped[n:]
    if bad.all():
        return GrowthReport(passed=False, worst_ratio=math.nan,
                            worst_x=math.nan, alpha=float(alpha), K=float(K),
                            n_flagged=n)
    values = np.where(bad, math.nan, both[:n])  # flagged by _ratio_report
    return _ratio_report(both[n:], values, xs, float(alpha), float(K))
