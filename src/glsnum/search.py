"""Search utilities: grids, Newton and golden-section refinement, monotone
bisection.

Every supremum or infimum in this package reduces to a one-dimensional scan
over a bounded interval (computational caps stand in for infinite endpoints),
so the tools here stay deliberately small: evaluate on a grid, polish the best
cell, and never report less than the best grid value.  The polish is a
bracketed Newton iteration when the caller supplies exact first and second
derivatives (Newton steps, bisection where a step leaves the bracket or the
curvature is not negative), and golden-section search when it does not.
Norm-type quantities (Luxemburg norms, mgf-bounding norms) reduce to finding
the smallest feasible scale for a monotone feasibility predicate, handled by
geometric bracket expansion (doubling or halving) plus bisection, or, when
the predicate is residual <= 0 for a known monotone residual (the Luxemburg
norm), plus Illinois regula falsi on that residual in ln x.

grid_refine_max_batch and min_feasible_batch run many independent searches
of one kind together: the same per-row arithmetic as the scalar routines,
bit for bit, with one vectorized objective, slope or predicate call per
step.  The scalar routines stay for single queries, where numpy's per-call
overhead would outweigh the batching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: step budget of min_feasible's bracket doubling or halving
_BRACKET_STEPS = 1100

#: step budget of the Newton polish; bisection alone halves a cell to
#: relative width 1e-10 in well under 60 steps
_NEWTON_STEPS = 100


class BracketError(RuntimeError):
    """Raised when a monotone feasibility bracket cannot be established."""


class NoFeasiblePoint(BracketError):
    """Nothing was feasible up to the allowed expansion limit."""


class NoInfeasiblePoint(BracketError):
    """Everything stayed feasible down to the allowed shrink limit."""


@dataclass(frozen=True)
class GridSpec:
    """Resolution of a sup/inf scan.

    points   -- size of the coarse grid
    cap      -- computational stand-in for an infinite upper endpoint
    rel_tol  -- relative tolerance of the golden-section and Newton polish,
                and the oracle's stop margin below the adjacent bound
    """

    points: int = 256
    cap: float = 200.0
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.points < 3:
            raise ValueError("grid needs at least 3 points")
        if not (self.cap > 0 and math.isfinite(self.cap)):
            raise ValueError("cap must be a positive finite real")
        if not (0 < self.rel_tol < 1):
            raise ValueError("rel_tol must lie in (0, 1)")


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Geometrically spaced grid on [lo, hi] with lo > 0."""
    if not (0 < lo < hi):
        raise ValueError(f"log grid needs 0 < lo < hi, got [{lo}, {hi}]")
    return np.geomspace(lo, hi, n)


def linear_grid(lo: float, hi: float, n: int) -> np.ndarray:
    if not lo < hi:
        raise ValueError(f"grid needs lo < hi, got [{lo}, {hi}]")
    return np.linspace(lo, hi, n)


def interval_grid(lo: float, hi: float, include_lo: bool, include_hi: bool,
                  points: int, *, cap: float = math.inf,
                  log: bool = True) -> tuple[np.ndarray, bool]:
    """(grid, capped): a scan grid of the interval from lo to hi clipped to
    cap (geometric, or linear when log is false), capped when the cap cut
    it.  Included ends and the cap are nodes; excluded ends sit 1e-9 of the
    clipped length inside."""
    top = min(hi, cap)
    if not lo < top:
        raise ValueError(f"empty interval after capping: [{lo}, {top}]")
    capped = hi > cap
    span = top - lo
    lo_eff = lo if include_lo else lo + 1e-9 * span
    hi_eff = top if (include_hi or capped) else top - 1e-9 * span
    return (log_grid if log else linear_grid)(lo_eff, hi_eff, points), capped


def _interval_mask(x: np.ndarray, lo: float, hi: float, include_lo: bool,
                   include_hi: bool) -> np.ndarray:
    """Membership of each element of x in the interval from lo to hi, each
    endpoint included as its flag says; NaN is never a member."""
    inside = (x > lo) & (x < hi)
    if include_lo:
        inside = inside | (x == lo)
    if include_hi:
        inside = inside | (x == hi)
    return inside


def _on_interval(x, lo: float, hi: float, include_lo: bool, include_hi: bool,
                 interior: Callable[[np.ndarray], np.ndarray]):
    """interior(x) on the interval from lo to hi, +inf off it: the call of
    every function given on an interval (generating and rate functions, the
    h of the Legendre transforms).

    interior takes a 1-d array of member points.  An array x gives an array
    of its shape; a 0-d x (a float, numpy scalar or 0-d array) gives a Python
    float from Python comparisons and one one-element interior call, the
    call the array path makes for a one-element array, so both paths return
    the same bits.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        x = float(arr)
        if (lo < x < hi or (include_lo and x == lo)
                or (include_hi and x == hi)):
            return float(interior(np.array([x]))[0])
        return math.inf
    inside = _interval_mask(arr, lo, hi, include_lo, include_hi)
    out = np.full(arr.shape, math.inf)
    if inside.any():
        out[inside] = interior(arr[inside])
    return out


def golden_max(fn: Callable[[float], float], a: float, b: float,
               tol: float) -> tuple[float, float]:
    """Golden-section maximization of fn on [a, b]; returns (x, fn(x)).

    Assumes unimodality on the bracket; on flat or monotone stretches it
    converges to an endpoint, which is all the callers need.
    """
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, fn(x)
    c = b - _INV_GOLDEN * h
    d = a + _INV_GOLDEN * h
    fc = fn(c)
    fd = fn(d)
    while h > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_GOLDEN * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_GOLDEN * h
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def _newton_max(slope: Callable[[float], tuple[float, float]], x: float,
                g: float, h: float, lo: float, hi: float,
                rel_tol: float) -> float:
    """Bracketed Newton iteration for a zero of the slope g inside [lo, hi],
    from x with slope(x) = (g, h), the first and second derivative there.

    A step that leaves the bracket, or one taken where the curvature h is
    not negative, is replaced by a bisection; each new slope moves the end
    of the bracket whose side it lies on.  Stops once a step is at most
    rel_tol relative, or at a zero slope.
    """
    for _ in range(_NEWTON_STEPS):
        x_new = x - g / h if h < 0 else math.nan
        if not lo <= x_new <= hi:  # NaN fails too
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= rel_tol * abs(x_new):
            return x_new
        x = x_new
        g, h = slope(x)
        if g > 0:
            lo = x
        elif g < 0:
            hi = x
        else:
            break
    return x


def grid_refine_max(fn: Callable[[float], float], xs: Sequence[float], *,
                    values: Sequence[float] | None = None,
                    rel_tol: float = 1e-10,
                    refine_in_log: bool = False,
                    slope: Callable[[float], tuple[float, float]] | None = None
                    ) -> tuple[float, float, int]:
    """Coarse grid scan followed by a polish of the best cell.

    fn      -- scalar objective
    values  -- optional precomputed fn(xs) (a vectorized evaluation path)
    slope   -- optional slope(x) = (first, second) derivative at x of a
               smooth increasing transform of fn (ln fn, say).  With it the
               polish is a bracketed Newton iteration from the best node,
               toward the neighbour its slope points to, and the node itself
               when that points off the grid; without it, golden section on
               the cell between both neighbours (in ln x with refine_in_log).
    Returns (x_star, f_star, best_grid_index).  The polish never returns a
    value below the best grid value, so included endpoints are exact.
    """
    xs = np.asarray(xs, dtype=float)
    if values is None:
        vals = np.array([fn(float(x)) for x in xs], dtype=float)
    else:
        vals = np.asarray(values, dtype=float)
    vals = np.where(np.isnan(vals), -np.inf, vals)
    i = int(np.argmax(vals))
    x0, f0 = float(xs[i]), float(vals[i])
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, len(xs) - 1)])
    if not (hi > lo) or not math.isfinite(f0):
        return x0, f0, i
    if slope is not None:
        g, h = slope(x0)
        if g > 0 and hi > x0:
            lo = x0
        elif g < 0 and lo < x0:
            hi = x0
        else:
            return x0, f0, i
        xr = _newton_max(slope, x0, g, h, lo, hi, rel_tol)
        fr = fn(xr)
    elif refine_in_log and lo > 0:
        t, ft = golden_max(lambda t: fn(math.exp(t)),
                           math.log(lo), math.log(hi), tol=rel_tol)
        xr, fr = math.exp(t), ft
    else:
        tol = rel_tol * max(abs(lo), abs(hi), 1.0)
        xr, fr = golden_max(fn, lo, hi, tol=tol)
    if fr > f0:
        return xr, fr, i
    return x0, f0, i


def _golden_max_rows(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     rows: np.ndarray, a: np.ndarray, b: np.ndarray,
                     tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """golden_max on many brackets at once: row k maximizes fn(rows[k], .)
    on [a[k], b[k]] (a <= b) with tolerance tol[k].  Every row runs exactly
    the iterations and arithmetic of the scalar loop; finished rows drop out.
    """
    h = b - a
    x = 0.5 * (a + b)
    fx = np.empty_like(x)
    narrow = h <= tol
    if narrow.any():
        fx[narrow] = fn(rows[narrow], x[narrow])
    wide = np.flatnonzero(~narrow)
    if wide.size == 0:
        return x, fx
    a, b, h, tol, rw = a[wide], b[wide], h[wide], tol[wide], rows[wide]
    c = b - _INV_GOLDEN * h
    d = a + _INV_GOLDEN * h
    fc = fn(rw, c)
    fd = fn(rw, d)
    act = np.arange(wide.size)
    while act.size:
        left = fc[act] >= fd[act]
        lt, rt = act[left], act[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        h[act] = b[act] - a[act]
        c[lt] = b[lt] - _INV_GOLDEN * h[lt]
        d[rt] = a[rt] + _INV_GOLDEN * h[rt]
        f_new = fn(rw[act], np.where(left, c[act], d[act]))
        fc[lt] = f_new[left]
        fd[rt] = f_new[~left]
        act = act[h[act] > tol[act]]
    take_c = fc >= fd
    x[wide] = np.where(take_c, c, d)
    fx[wide] = np.where(take_c, fc, fd)
    return x, fx


def _newton_max_rows(slope: Callable[[np.ndarray, np.ndarray],
                                     tuple[np.ndarray, np.ndarray]],
                     rows: np.ndarray, x: np.ndarray, g: np.ndarray,
                     h: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     rel_tol: float) -> np.ndarray:
    """_newton_max on many brackets at once: row k runs from x[k] with slope
    (g[k], h[k]) inside [lo[k], hi[k]] on the slope of rows[k].  Every row
    runs exactly the steps and arithmetic of the scalar loop; finished rows
    drop out.  The argument arrays are overwritten."""
    act = np.arange(rows.size)
    for _ in range(_NEWTON_STEPS):
        xa, ga, ha, la, ua = x[act], g[act], h[act], lo[act], hi[act]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_new = np.where(ha < 0, xa - ga / ha, np.nan)
        out = ~((la <= x_new) & (x_new <= ua))  # NaN fails too
        x_new[out] = 0.5 * (la[out] + ua[out])
        x[act] = x_new
        act = act[~(np.abs(x_new - xa) <= rel_tol * np.abs(x_new))]
        if act.size == 0:
            break
        g[act], h[act] = slope(rows[act], x[act])
        ga = g[act]
        lo[act[ga > 0]] = x[act[ga > 0]]
        hi[act[ga < 0]] = x[act[ga < 0]]
        act = act[(ga > 0) | (ga < 0)]  # a zero or NaN slope stops the row
    return x


def grid_refine_max_batch(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          xs: Sequence[float], values: np.ndarray, *,
                          rel_tol: float = 1e-10,
                          slope: Callable[[np.ndarray, np.ndarray],
                                          tuple[np.ndarray, np.ndarray]]
                          | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """grid_refine_max for many objectives over one shared grid.

    fn      -- fn(rows, x): objective of each row in the index array rows at
               the matching point of x (both 1-d, same length)
    values  -- (rows, len(xs)) grid values; overwritten (NaN -> -inf)
    slope   -- optional slope(rows, x) = (first, second) derivative arrays,
               row by row what grid_refine_max's slope returns
    Returns arrays (x_star, f_star).  Row k is bit-identical to the first two
    results of grid_refine_max(lambda x: fn([k], [x])[0], xs,
    values=values[k], rel_tol=rel_tol, slope=...) with the row's slope, and
    without one with the linear (not log) golden-section polish; the
    polishes of all rows advance together, one vectorized fn or slope call
    per step.
    """
    xs = np.asarray(xs, dtype=float)
    values[np.isnan(values)] = -np.inf
    idx = np.argmax(values, axis=1)
    f_star = values[np.arange(len(idx)), idx]
    x_star = xs[idx]
    lo = xs[np.maximum(idx - 1, 0)]
    hi = xs[np.minimum(idx + 1, len(xs) - 1)]
    polish = np.flatnonzero((hi > lo) & np.isfinite(f_star))
    if polish.size == 0:
        return x_star, f_star
    lo, hi = lo[polish], hi[polish]
    if slope is not None:
        x0 = x_star[polish]
        g, h = slope(polish, x0)
        right = (g > 0) & (hi > x0)
        left = (g < 0) & (lo < x0)
        lo[right] = x0[right]
        hi[left] = x0[left]
        go = right | left  # the other rows keep their best node
        polish = polish[go]
        xr = _newton_max_rows(slope, polish, x0[go], g[go], h[go], lo[go],
                              hi[go], rel_tol)
        fr = fn(polish, xr)
    else:
        tol = rel_tol * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
        xr, fr = _golden_max_rows(fn, polish, lo, hi, tol)
    better = fr > f_star[polish]
    x_star[polish[better]] = xr[better]
    f_star[polish[better]] = fr[better]
    return x_star, f_star


def _bracket(residual: Callable[[float], float], x0: float, x_min: float,
             x_max: float) -> tuple[float, float, float, float]:
    """(lo, r_lo, hi, r_hi): the doubling or halving from x0, at most
    _BRACKET_STEPS times, to adjacent points lo infeasible and hi feasible,
    with their residuals; x is feasible when residual(x) <= 0, and
    feasibility must be nondecreasing in x.

    Raises NoFeasiblePoint if nothing up to x_max is feasible and
    NoInfeasiblePoint if everything down to x_min stays feasible.
    """
    if not (x0 > 0 and math.isfinite(x0)):
        raise ValueError("x0 must be a positive finite real")
    x0 = min(max(x0, x_min), x_max)
    r0 = residual(x0)
    if r0 <= 0:
        hi, r_hi = x0, r0
        lo = x0 / 2.0
        for _ in range(_BRACKET_STEPS):
            if lo < x_min:
                raise NoInfeasiblePoint(
                    f"feasible all the way down to {x_min:g}")
            r_lo = residual(lo)
            if not r_lo <= 0:
                break
            hi, r_hi = lo, r_lo
            lo /= 2.0
        else:
            raise NoInfeasiblePoint("bracket shrink budget exhausted")
    else:
        lo, r_lo = x0, r0
        hi = x0 * 2.0
        for _ in range(_BRACKET_STEPS):
            if hi > x_max:
                r_hi = residual(x_max)
                if r_hi <= 0:
                    hi = x_max
                    break
                raise NoFeasiblePoint(f"infeasible all the way up to {x_max:g}")
            r_hi = residual(hi)
            if r_hi <= 0:
                break
            lo, r_lo = hi, r_hi
            hi *= 2.0
        else:
            raise NoFeasiblePoint("bracket expansion budget exhausted")
    return lo, r_lo, hi, r_hi


def _geometric_mid(lo: float, hi: float) -> float:
    """sqrt(lo * hi), also where lo * hi leaves the normal range."""
    return (math.sqrt(lo * hi) if 2.0 ** -1022 <= lo * hi < math.inf
            else lo * math.sqrt(hi / lo))


def min_feasible(feasible: Callable[[float], bool], x0: float, *,
                 rel_tol: float = 1e-10, x_min: float = 1e-300,
                 x_max: float = 1e308, side: str = "mid") -> float:
    """Smallest x with feasible(x) true, for a monotone predicate.

    Feasibility must be nondecreasing in x (infeasible below some threshold,
    feasible above it).  Brackets by doubling or halving from x0, at most
    _BRACKET_STEPS times, then bisects in the geometric mean to relative
    tolerance rel_tol.

    Raises NoFeasiblePoint if nothing up to x_max is feasible and
    NoInfeasiblePoint if everything down to x_min stays feasible.
    """
    lo, _, hi, _ = _bracket(lambda x: -1.0 if feasible(x) else 1.0, x0,
                            x_min, x_max)
    while (hi - lo) > rel_tol * hi:
        mid = _geometric_mid(lo, hi)
        if not (lo < mid < hi):
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi if side == "hi" else 0.5 * (lo + hi)


def min_feasible_root(residual: Callable[[float], float], x0: float, *,
                      rel_tol: float = 1e-10, x_min: float = 1e-300,
                      x_max: float = 1e308) -> float:
    """min_feasible(side="mid") for the predicate residual(x) <= 0, with
    residual nonincreasing in x, by regula falsi on the residual.

    The bracket is min_feasible's.  Each step then takes the root of the
    line through (ln lo, residual) and (ln hi, residual), the Illinois
    variant: an end that the steps keep twice in a row has its residual
    halved, so both ends close in.  A step keeps rel_tol / 4 away from
    either end, and a non-finite residual at an end makes it a bisection
    step.  lo stays infeasible and hi feasible; stops at min_feasible's
    relative width rel_tol and returns the midpoint.  A residual linear in
    ln x is solved by the first step.
    """
    lo, f_lo, hi, f_hi = _bracket(residual, x0, x_min, x_max)
    moved = 0  # +1 when the last step moved hi, -1 when it moved lo
    gap = 0.25 * rel_tol
    while (hi - lo) > rel_tol * hi:
        x = math.nan
        if math.isfinite(f_lo) and math.isfinite(f_hi) and f_lo > f_hi:
            width = math.log(hi / lo)
            step = width * (f_lo / (f_lo - f_hi))
            x = lo * math.exp(min(max(step, gap), width - gap))
        if not lo < x < hi:  # NaN fails too
            x = _geometric_mid(lo, hi)
            if not lo < x < hi:
                break
        r = residual(x)
        if r <= 0:
            hi, f_hi = x, r
            if moved == 1:
                f_lo *= 0.5
            moved = 1
        else:
            lo, f_lo = x, r
            if moved == -1:
                f_hi *= 0.5
            moved = -1
    return 0.5 * (lo + hi)


def min_feasible_batch(feasible: Callable[[np.ndarray, np.ndarray],
                                          np.ndarray],
                       n: int, *, rel_tol: float = 1e-10,
                       x_max: float = 1e308) -> np.ndarray:
    """min_feasible(side="hi") from x0 = 1 for n monotone predicates at once.

    feasible -- feasible(rows, x): boolean array, the predicate of each row in
                the index array rows at the matching point of x
    x_max    -- finite upper limit of the search
    Row k of the result is bit-identical to min_feasible(lambda x:
    feasible([k], [x])[0], 1.0, rel_tol=rel_tol, x_max=x_max, side="hi")
    with its default x_min.  From x0 = 1 the halving passes x_min and the
    doubling passes x_max well inside _BRACKET_STEPS, so no row can
    exhaust it.  Bracketing and bisection advance all
    unfinished rows together, one vectorized feasible call per step.  If
    any row would raise, the exception of the first such row is raised.
    """
    x_min = 1e-300
    x0 = min(1.0, x_max)
    rows = np.arange(n)
    shrink = feasible(rows, np.full(n, x0))
    lo = np.where(shrink, x0 / 2.0, x0)
    hi = np.where(shrink, x0, x0 * 2.0)
    error: list = [None] * n
    act = rows
    while act.size:
        s = shrink[act]
        out_lo = s & (lo[act] < x_min)
        for k in act[out_lo]:
            error[k] = NoInfeasiblePoint(
                f"feasible all the way down to {x_min:g}")
        act, s = act[~out_lo], s[~out_lo]
        if act.size == 0:
            break
        clip = ~s & (hi[act] > x_max)
        probe = np.where(s, lo[act], np.where(clip, x_max, hi[act]))
        ok = feasible(act, probe)
        for k in act[clip & ~ok]:
            error[k] = NoFeasiblePoint(
                f"infeasible all the way up to {x_max:g}")
        hi[act[clip & ok]] = x_max
        step = np.where(s, ok, ~ok & ~clip)
        down, up = act[s & ok], act[~s & step]
        hi[down] = lo[down]
        lo[down] /= 2.0
        lo[up] = hi[up]
        with np.errstate(over="ignore"):
            hi[up] *= 2.0
        act = act[step]
    for err in error:
        if err is not None:
            raise err
    act = np.flatnonzero((hi - lo) > rel_tol * hi)
    while act.size:
        lo_a, hi_a = lo[act], hi[act]
        with np.errstate(over="ignore"):  # _geometric_mid, per row
            mid = lo_a * hi_a
            normal = (mid >= 2.0 ** -1022) & (mid < np.inf)
            mid = np.where(normal, np.sqrt(mid), lo_a * np.sqrt(hi_a / lo_a))
        inside = (lo_a < mid) & (mid < hi_a)
        act, mid = act[inside], mid[inside]
        if act.size == 0:
            break
        ok = feasible(act, mid)
        hi[act[ok]] = mid[ok]
        lo[act[~ok]] = mid[~ok]
        act = act[(hi[act] - lo[act]) > rel_tol * hi[act]]
    return hi


def increasing_inverse(fn: Callable[[float], float], y: float, *,
                       x_hi: float = 1e308, rel_tol: float = 1e-12) -> float:
    """Inverse of a continuous nondecreasing fn with fn(0) <= y: smallest x
    with fn(x) >= y.  Raises NoFeasiblePoint when y is above the range of fn
    on (0, x_hi]."""
    if y <= fn(0.0):
        return 0.0
    return min_feasible(lambda x: fn(x) >= y, 1.0,
                        rel_tol=rel_tol, x_max=x_hi, side="hi")
