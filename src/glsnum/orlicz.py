"""Young functions, Luxemburg norms, and the exponential embedding checks.

The exponential Young function attached to a generating function psi is

    N(u) = exp(V(u))            for |u| >= e,
    N(u) = C u^2                for |u| <  e,

where V(u) is the Young conjugate of h(p) = p ln psi(p) evaluated at ln|u|
and C = exp(V(e)) / e^2 makes the two branches meet continuously at u = e
(the quadratic constant is otherwise unconstrained).  The exponent table is
computed once on a dense log grid and interpolated linearly in v = ln u,
which is exact for the constant-one family (V is linear in v there) and
keeps nested conjugations and Luxemburg root searches fast.

Luxemburg norms are the smallest k with integral N(f/k) <= 1, found by
geometric bracketing plus regula falsi on ln integral N(f/k) in ln k;
conjugate Young functions N*(v) = sup_u (v u - N(u)) reuse the
scan-and-polish machinery, a tabulated conjugate in one
young_fenchel_table pass over all its nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from glsnum.convex import (CONJUGATE_GRID, ConjugatePoint, RealFunction1D,
                           h_of, young_fenchel_point, young_fenchel_table)
from glsnum.glnorm import DEFAULT_GRID, gls_norm
from glsnum.measure import (DiscreteMeasureSpace, MeasurableFunction,
                            _check_bound, integrate)
from glsnum.psi import PsiFunction
from glsnum.search import (GridSpec, NoFeasiblePoint, NoInfeasiblePoint,
                           min_feasible_root)

__all__ = [
    "YoungFunction",
    "power_young",
    "build_N",
    "luxemburg_norm",
    "conjugate_young",
    "conjugate_young_point",
    "conjugate_young_function",
    "HolderReport",
    "orlicz_holder_check",
    "EmbeddingReport",
    "embedding_check",
    "batch_embedding_check",
    "validate_young",
]

#: exponents above this overflow exp(); evaluations saturate to +inf instead
_EXP_OVERFLOW = 709.0

#: cap of every u-scan: the exponent table of build_N and the conjugate
#: scans all end here, so conjugate points and table nodes agree
DEFAULT_U_MAX = 200.0
DEFAULT_TABLE_POINTS = 2048

#: log-spaced y-range of the conjugate tables
_CONJ_Y_MIN, _CONJ_Y_MAX = 1e-8, 1e6


@dataclass(frozen=True, eq=False)
class YoungFunction:
    """Even convex cost function with N(0) = 0, vectorized on |u|.

    branch_point marks where a piecewise definition switches formula (e for
    the exponential builds, 0 when there is no switch).  trusted_up_to
    records the largest |u| whose value did not depend on a capped interior
    scan; beyond it values are certified lower bounds only.
    """

    label: str
    eval_abs: Callable[[np.ndarray], np.ndarray]
    branch_point: float = 0.0
    trusted_up_to: float = math.inf

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        scalar = arr.ndim == 0
        x = np.abs(np.atleast_1d(arr).astype(float))
        out = np.asarray(self.eval_abs(x), dtype=float)
        return float(out[0]) if scalar else out


def power_young(p: float, coeff: float = 1.0) -> YoungFunction:
    """N(u) = coeff * |u|^p, the plain power Young function (p >= 1)."""
    p = float(p)
    coeff = float(coeff)
    if p < 1:
        raise ValueError(f"power Young functions need p >= 1, got {p}")
    if coeff <= 0:
        raise ValueError(f"needs a positive coefficient, got {coeff}")
    return YoungFunction(label=f"power({p:g})",
                         eval_abs=lambda u: coeff * u ** p)


def build_N(psi: PsiFunction, *, table_points: int = DEFAULT_TABLE_POINTS,
            grid: GridSpec = CONJUGATE_GRID) -> YoungFunction:
    """Exponential Young function of a generating function.

    Tabulates the exponent V on ln u in [1, ln DEFAULT_U_MAX] (so u = e is a
    node), fixes the quadratic constant by continuity at e, and interpolates
    the exponent linearly between nodes, extending linearly beyond the table.
    """
    h = h_of(psi, cap=grid.cap)
    vs = np.linspace(1.0, math.log(DEFAULT_U_MAX), table_points)
    v_table, _, flags = young_fenchel_table(h, vs, grid)
    if not np.all(np.isfinite(v_table)):
        raise ValueError(f"non-finite exponent values for {psi.label}")
    c_quad = math.exp(v_table[0]) / (math.e ** 2)
    if flags.any():
        trusted = float(math.exp(vs[int(np.argmax(flags))]))
    else:
        trusted = DEFAULT_U_MAX
    end_slope = (v_table[-1] - v_table[-2]) / (vs[-1] - vs[-2])

    def eval_abs(u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            out = c_quad * u ** 2
        big = u >= math.e
        if big.any():
            v = np.log(u[big])
            V = np.interp(v, vs, v_table)
            beyond = v > vs[-1]
            if beyond.any():
                V = np.where(beyond, v_table[-1] + end_slope * (v - vs[-1]), V)
            with np.errstate(over="ignore"):
                out[big] = np.where(V > _EXP_OVERFLOW, math.inf, np.exp(V))
        return out

    return YoungFunction(label=f"N[{psi.label}]", eval_abs=eval_abs,
                         branch_point=math.e, trusted_up_to=trusted)


def _young_integral(absvals: np.ndarray, w: np.ndarray, N: YoungFunction,
                    k: float) -> float:
    """integral N(|f|/k) dmu; +inf when a term overflows."""
    with np.errstate(over="ignore"):
        terms = np.asarray(N(absvals / k), dtype=float)
    if np.any(np.isinf(terms)):
        return math.inf
    return float(np.dot(terms, w))


def luxemburg_norm(f: MeasurableFunction, N: YoungFunction,
                   space: DiscreteMeasureSpace | None = None) -> float:
    """Luxemburg norm: the smallest k > 0 with integral N(f/k) dmu <= 1.

    Brackets k by doubling/halving from the essential supremum of f, then
    runs regula falsi (min_feasible_root) on the residual ln integral
    N(f/k) dmu in ln k to relative width 1e-10: linear in ln k for power N,
    so a handful of integrals.  At the returned k the integral sits within
    a few parts in 1e10 of 1 for any continuous strictly increasing N.
    """
    space = _check_bound(f, space)
    absvals = np.abs(f.value_array)
    if not absvals.any():
        return 0.0
    w = space.weight_array
    k0 = float(np.max(absvals))

    def residual(k: float) -> float:
        integral = _young_integral(absvals, w, N, k)
        return math.log(integral) if integral > 0.0 else -math.inf

    try:
        return min_feasible_root(residual, k0, rel_tol=1e-10,
                                 x_min=k0 * 1e-14, x_max=k0 * 1e14)
    except NoInfeasiblePoint:
        raise ValueError(
            f"{N.label}: no lower bracket for the Luxemburg norm; the Young "
            "function is degenerate near 0") from None
    except NoFeasiblePoint:
        raise ValueError(
            f"{N.label}: no feasible scale up to 1e14 * ess sup; the Young "
            "function blows up too fast") from None


def conjugate_young_point(N: YoungFunction, v: float, *,
                          grid: GridSpec = CONJUGATE_GRID) -> ConjugatePoint:
    """N*(v) = sup_{u >= 0} (|v| u - N(u)) floored at 0: young_fenchel_point
    of N on [0, DEFAULT_U_MAX], the cap standing in for u = inf.  A u where N
    is not finite (inf or NaN) scores -inf, so each node of
    conjugate_young_function carries this value bit for bit."""
    on_scan = RealFunction1D(0.0, DEFAULT_U_MAX, N.eval_abs, capped=True,
                             label=N.label)
    pt = young_fenchel_point(on_scan, abs(float(v)), grid)
    return ConjugatePoint(value=max(pt.value, 0.0), argmax_z=pt.argmax_z,
                          hit_cap=pt.hit_cap)


def conjugate_young(N: YoungFunction, v: float, *,
                    grid: GridSpec = CONJUGATE_GRID) -> float:
    return conjugate_young_point(N, v, grid=grid).value


def conjugate_young_function(N: YoungFunction, *,
                             table_points: int = DEFAULT_TABLE_POINTS,
                             grid: GridSpec = CONJUGATE_GRID) -> YoungFunction:
    """Tabulated conjugate Young function, piecewise linear in y.

    The nodes are 0 and a log-spaced grid from 1e-8 to 1e6.  Their values
    are scan-and-polish values, not exact: where the maximizer lies in the
    first cell of the u-scan (y up to 2Ce under the branch C u^2, with the
    exact conjugate y^2/(4C)), they sit low by up to 2.4e-6 relative for
    power(2) and 2.4e-3 for power(4), though below 4e-15 absolute (the
    exact conjugate is ROADMAP Direction 8, slice B).  The true conjugate
    is convex in y, so chords between exact nodes never undershoot it,
    which keeps Hoelder right-hand sides built from this table on the safe
    side of the inequality up to that node error.  Beyond 1e6 the last chord
    extends linearly, which for a convex function is a certified lower bound
    only; trusted_up_to records where certification ends.
    """
    ys = np.geomspace(_CONJ_Y_MIN, _CONJ_Y_MAX, table_points)
    # the interval conjugate_young_point scans: each node carries its value
    on_scan = RealFunction1D(0.0, DEFAULT_U_MAX, N.eval_abs, capped=True,
                             label=N.label)
    values, _, hit_cap = young_fenchel_table(on_scan, ys, grid)
    values = np.where(0.0 > values, 0.0, values)  # as max(value, 0.0)
    first_hit = float(ys[np.argmax(hit_cap)]) if hit_cap.any() else math.inf
    if np.any(values <= 0):
        raise ValueError(f"conjugate of {N.label} vanished on the y-grid; "
                         "the conjugate degenerates (or widen the scan)")
    nodes = np.concatenate([[0.0], ys])
    table = np.concatenate([[0.0], values])
    hi_slope = (table[-1] - table[-2]) / (nodes[-1] - nodes[-2])

    def eval_abs(y: np.ndarray) -> np.ndarray:
        out = np.interp(y, nodes, table)
        beyond = y > nodes[-1]
        if beyond.any():
            out = np.where(beyond, table[-1] + hi_slope * (y - nodes[-1]),
                           out)
        return out

    return YoungFunction(label=f"conj[{N.label}]", eval_abs=eval_abs,
                         branch_point=0.0,
                         trusted_up_to=min(first_hit, _CONJ_Y_MAX))


# ---------------------------------------------------------------------------
# inequality and embedding checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderReport:
    """|integral f g| against 2 * ||f||_(N) * ||g||_(N*)."""

    lhs: float
    rhs: float
    ratio: float
    passed: bool
    norm_f: float
    norm_g: float

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "ratio": self.ratio,
                "passed": self.passed, "norm_f": self.norm_f,
                "norm_g": self.norm_g}


def orlicz_holder_check(f: MeasurableFunction, g: MeasurableFunction,
                        N: YoungFunction,
                        space: DiscreteMeasureSpace | None = None, *,
                        N_conj: YoungFunction | None = None,
                        tol: float = 1e-6) -> HolderReport:
    """Two-norm Hoelder bound |integral f g| <= 2 ||f||_(N) ||g||_(N*).

    Pass a prebuilt N_conj to amortize the conjugate tabulation over a batch.
    """
    space = _check_bound(f, space)
    _check_bound(g, space)
    if N_conj is None:
        N_conj = conjugate_young_function(N)
    lhs = abs(integrate(space.function(f.value_array * g.value_array), space))
    norm_f = luxemburg_norm(f, N, space)
    norm_g = luxemburg_norm(g, N_conj, space)
    rhs = 2.0 * norm_f * norm_g
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else math.inf
    else:
        ratio = lhs / rhs
    return HolderReport(lhs=lhs, rhs=rhs, ratio=ratio,
                        passed=ratio <= 1.0 + tol,
                        norm_f=norm_f, norm_g=norm_g)


@dataclass(frozen=True)
class EmbeddingReport:
    """Luxemburg norm under the exponential Young function against the grand
    norm, for one function."""

    luxemburg: float
    grand: float
    ratio: float

    def to_dict(self) -> dict:
        return {"luxemburg": self.luxemburg, "grand": self.grand,
                "ratio": self.ratio}


def embedding_check(f: MeasurableFunction, psi: PsiFunction,
                    space: DiscreteMeasureSpace | None = None, *,
                    N: YoungFunction | None = None,
                    grid: GridSpec = DEFAULT_GRID) -> EmbeddingReport:
    space = _check_bound(f, space)
    if N is None:
        N = build_N(psi)
    lux = luxemburg_norm(f, N, space)
    grand = gls_norm(f, psi, space, grid).value
    ratio = lux / grand if grand > 0 else (0.0 if lux == 0 else math.inf)
    return EmbeddingReport(luxemburg=lux, grand=grand, ratio=ratio)


@dataclass(frozen=True)
class BatchEmbeddingReport:
    """Empirical two-sided embedding constants over a batch: c_low <= ratio
    <= c_high, with spread = c_high / c_low."""

    c_low: float
    c_high: float
    spread: float
    ratios: tuple

    def to_dict(self) -> dict:
        return {"c_low": self.c_low, "c_high": self.c_high,
                "spread": self.spread, "n": len(self.ratios)}


def batch_embedding_check(fs: Sequence[MeasurableFunction],
                          psi: PsiFunction,
                          space: DiscreteMeasureSpace | None = None, *,
                          grid: GridSpec = DEFAULT_GRID
                          ) -> BatchEmbeddingReport:
    fs = list(fs)
    if not fs:
        raise ValueError("empty batch")
    if space is None:
        space = fs[0].space
    N = build_N(psi)
    ratios = tuple(embedding_check(f, psi, space, N=N, grid=grid).ratio
                   for f in fs)
    finite = [r for r in ratios if r > 0 and math.isfinite(r)]
    if not finite:
        raise ValueError("no nonzero functions in the batch")
    c_low, c_high = min(finite), max(finite)
    return BatchEmbeddingReport(c_low=c_low, c_high=c_high,
                                spread=c_high / c_low, ratios=ratios)


def validate_young(N: YoungFunction) -> dict:
    """Structural checks for a Young function: vanishing at 0, evenness,
    monotonicity and midpoint convexity on 512 points of [0, 50], and
    continuity across the branch point.  Returns a plain dict report."""
    us = np.linspace(0.0, 50.0, 512)
    vals = N(us)
    even_dev = float(np.max(np.abs(N(-us) - vals)))
    mono_ok = bool(np.all(np.diff(vals) >= -1e-12 * np.maximum(vals[1:], 1)))
    mid = 0.5 * (us[:-1] + us[1:])
    convex_gap = N(mid) - 0.5 * (vals[:-1] + vals[1:])
    finite = np.isfinite(convex_gap)
    convex_ok = bool(np.all(convex_gap[finite]
                            <= 1e-9 * np.maximum(vals[1:][finite], 1)))
    report = {
        "zero_at_zero": float(N(0.0)) == 0.0,
        "even_deviation": even_dev,
        "nondecreasing": mono_ok,
        "midpoint_convex": convex_ok,
    }
    bp = N.branch_point
    if bp > 0:
        left = float(N(bp * (1 - 1e-12)))
        right = float(N(bp * (1 + 1e-12)))
        report["branch_jump"] = abs(right - left)
    return report
