"""The grand norm: sup over exponents of |f|_p / psi(p).

The supremum is approximated by a log-spaced grid scan over the effective
support (infinite right endpoints are capped, with a flag when the maximizer
lands against the cap) followed by a polish of the best grid cell.  On many
atoms the scan is pruned: ln|f|_p is ln max|f| plus L(p)/p with L convex,
so chords and secants of the evaluated nodes bound the others, and only
the nodes whose bound can reach the best value are evaluated, which finds
the full scan's best node (_scan_norms).  The polish is a bracketed Newton
iteration on the exact slopes of ln|f|_p - ln psi(p) when psi declares its
log-slope (power, exponential and constant-one families), golden section
otherwise.  Included endpoints are grid nodes, so norms that are attained
at an endpoint (for instance under the constant-one family on [1, r], where
the grand norm is max(|f|_1, |f|_r), exactly the r-norm when the total mass
is at most 1) come out exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from glsnum.measure import (_LSE_BLOCK, DiscreteMeasureSpace,
                            MeasurableFunction, _check_bound,
                            _log_norm_slopes, _power_terms, _terms_norm,
                            lp_norm, lp_norms)
from glsnum.psi import PsiFunction, _family_norms
from glsnum.search import GridSpec, golden_max, grid_refine_max, interval_grid

__all__ = [
    "GlsNormResult",
    "gls_norm",
    "FamilyUnitNormReport",
    "family_unit_norm_check",
]

DEFAULT_GRID = GridSpec(points=256, cap=200.0, rel_tol=1e-10)

#: node stride of the first pass of a pruned scan
_PRUNE_STRIDE = 16

#: an unevaluated node stays open while its bound on the log objective comes
#: within this of the best evaluated node; far above the kernel's rounding
_PRUNE_MARGIN = 1e-12

#: scans of at most this many kernel blocks run in full: the pruned scan's
#: rounds cost more than the kernel work they save up to 2.25-3 blocks
#: (break-even at 576-768 atoms on 256 nodes, one BLAS thread)
_PRUNE_MIN_BLOCKS = 2


@dataclass(frozen=True)
class GlsNormResult:
    """Value and maximizing exponent of a grand-norm scan.

    hit_cap is set when the support is unbounded and the maximizer landed
    within one grid step of the computational cap, meaning the reported value
    is only a lower bound on the true supremum.
    """

    value: float
    argmax_p: float
    hit_cap: bool

    def to_dict(self) -> dict:
        return {"value": self.value, "argmax_p": self.argmax_p,
                "hit_cap": self.hit_cap}


def _scan_norms(f: MeasurableFunction, ps: np.ndarray,
                space: DiscreteMeasureSpace, log_den: np.ndarray,
                minimize: bool = False) -> np.ndarray:
    """|f|_p at every node of ps where the best of ln|f|_p - log_den (the
    largest, or the smallest with minimize) can lie; NaN at the others.

    L(p) = ln sum w exp(-p lam) (see _power_terms) is convex in p, and
    ln|f|_p = ln max|f| + L(p)/p.  So at a node not yet evaluated, L lies
    below the chord of the evaluated nodes on either side, and above their
    neighbours' secants extended into the gap (and above L at the right
    node: L is nonincreasing).  The scan evaluates every _PRUNE_STRIDE-th
    node and the last, then, one lp_norms call a round, the midpoint of
    every gap that still holds a node whose bound comes within
    _PRUNE_MARGIN of the best evaluated value, until none does.  Every node
    that can reach the best value is evaluated, so the best node and its
    value are those of the full scan, up to the last bit of a kernel sum
    that depends on the rows sharing its block (nodes tied within a few
    ulp may trade places).  A scan that fits in _PRUNE_MIN_BLOCKS kernel
    blocks runs in full.
    """
    top, lam, _ = _power_terms(f)
    n = ps.size
    if lam.size * n <= _PRUNE_MIN_BLOCKS * _LSE_BLOCK:
        return lp_norms(f, ps, space)
    sign = -1.0 if minimize else 1.0
    norms = np.full(n, np.nan)
    u = np.full(n, np.nan)  # ln(|f|_p / max|f|) = L(p)/p where evaluated
    new = np.unique(np.r_[np.arange(0, n, _PRUNE_STRIDE), n - 1])
    while new.size:
        norms[new] = lp_norms(f, ps[new], space)
        with np.errstate(divide="ignore"):
            u[new] = np.log(norms[new] / top)
        ev = np.flatnonzero(~np.isnan(norms))
        with np.errstate(invalid="ignore"):
            best = np.nanmax(sign * (u[ev] - log_den[ev]), initial=-np.inf)
        # L where the norm is a normal number; a NaN bound leaves nodes open
        L = np.where(norms >= np.finfo(float).tiny, ps * u, np.nan)
        j = np.flatnonzero(np.isnan(norms))
        k = ev.searchsorted(j)  # gap k runs from ev[k - 1] to ev[k]
        left, right = ev[k - 1], ev[k]
        p, pl, pr = ps[j], ps[left], ps[right]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if minimize:
                l2 = ev[np.maximum(k - 2, 0)]
                r2 = ev[np.minimum(k + 1, ev.size - 1)]
                from_left = L[left] + (p - pl) * (
                    (L[left] - L[l2]) / (pl - ps[l2]))
                from_right = L[right] + (p - pr) * (
                    (L[r2] - L[right]) / (ps[r2] - pr))
                from_left[k < 2] = np.nan
                from_right[k + 1 >= ev.size] = np.nan
                bound = np.fmax(np.fmax(from_left, from_right), L[right])
            else:
                bound = L[left] + (L[right] - L[left]) / (pr - pl) * (p - pl)
            open_ = ~(sign * (bound / p - log_den[j]) < best - _PRUNE_MARGIN)
        gaps = np.unique(k[open_])
        new = (ev[gaps - 1] + ev[gaps]) // 2
    return norms


def gls_norm(f: MeasurableFunction, psi: PsiFunction,
             space: DiscreteMeasureSpace | None = None,
             grid: GridSpec = DEFAULT_GRID) -> GlsNormResult:
    """Grand norm of f under the generating function psi.

    Scans |f|_p / psi(p) on a log-spaced grid over the effective support
    (the nodes that can hold the maximum, see _scan_norms) and polishes the
    best cell: Newton's method on the slope of ln|f|_p - ln psi(p) when
    psi.log_slope is set, golden-section search otherwise.
    The reported value is the scalar p-norm path at the argmax, so
    value == lp_norm(f, argmax_p) / psi(argmax_p) bit for bit.
    """
    space = _check_bound(f, space)
    ps, capped, psi_vals, log_psi = psi.scan(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        norms = _scan_norms(f, ps, space, log_psi)
        objective = norms / psi_vals

    def scalar(p: float) -> float:
        denom = psi(p)
        if not np.isfinite(denom):
            return -np.inf
        return lp_norm(f, p, space) / denom

    slope = None
    if psi.log_slope is not None:
        def slope(p: float) -> tuple[float, float]:
            d1, d2 = _log_norm_slopes(f, p)
            s1, s2 = psi.log_slope(p)
            return d1 - s1, d2 - s2

    p_star, value, idx = grid_refine_max(
        scalar, ps, values=objective, rel_tol=grid.rel_tol, refine_in_log=True,
        slope=slope)
    if p_star == ps[idx]:  # a polished value is scalar(p_star) already
        value = scalar(p_star)
    if value == -np.inf:  # zero function on a degenerate refinement cell
        value = 0.0
    hit_cap = bool(capped and p_star >= ps[-2])
    return GlsNormResult(value=float(value), argmax_p=float(p_star),
                         hit_cap=hit_cap)


@dataclass(frozen=True)
class FamilyUnitNormReport:
    """Grand norms of family members under their own natural generating
    function.  For any finite family with a nonzero member the supremum of
    those norms equals 1 (each exponent's sup over the family is attained by
    some member)."""

    sup_norm: float
    deviation: float
    member_norms: tuple

    def to_dict(self) -> dict:
        return {"sup_norm": self.sup_norm, "deviation": self.deviation,
                "member_norms": list(self.member_norms)}


def family_unit_norm_check(family: Sequence[MeasurableFunction],
                           space: DiscreteMeasureSpace | None = None, *,
                           grid: GridSpec = DEFAULT_GRID
                           ) -> FamilyUnitNormReport:
    """Each member's grand norm under the family's natural generating
    function max_z |f_z|_p on [1, 200], taken exactly (natural_function
    tabulates it), and the deviation of their supremum from 1.

    On the closed scan grid a member's objective is its lp_norms row over
    the column max; a member that is the column max at some node has norm
    exactly 1, so the supremum is exactly 1.  Each other member takes the
    larger of its best cell, polished by golden section in ln p, and its
    ratio at each crossing of the members that hold the column max on
    either side of a cell, where the ratio can peak in a cusp narrower
    than a cell.  Both are attained values of the exact ratio
    lp_norm(f, p) / max_z lp_norm(f_z, p), so neither exceeds 1.
    """
    family = list(family)
    ps, _ = interval_grid(1.0, 200.0, True, True, grid.points, cap=grid.cap)
    rows, envelope = _family_norms(family, space, ps)
    terms = [_power_terms(f) for f in family]

    def ratios(p: float) -> np.ndarray:
        at_p = np.array([_terms_norm(t, p) for t in terms])
        return at_p / at_p.max()

    def minus_gap(a: tuple, b: tuple):
        return lambda t: -abs(math.log(_terms_norm(a, math.exp(t))
                                       / _terms_norm(b, math.exp(t))))

    owner = rows.argmax(axis=0)
    at_kinks = []  # every member's ratio where the column max changes hands
    for j in np.flatnonzero(owner[1:] != owner[:-1]):
        t, _ = golden_max(minus_gap(terms[owner[j]], terms[owner[j + 1]]),
                          math.log(ps[j]), math.log(ps[j + 1]),
                          tol=grid.rel_tol)
        at_kinks.append(ratios(math.exp(t)))
    norms = tuple(1.0 if np.any(row == envelope) else float(max(
        [grid_refine_max(lambda p: ratios(p)[z], ps, values=row / envelope,
                         rel_tol=grid.rel_tol, refine_in_log=True)[1]]
        + [r[z] for r in at_kinks]))
        for z, row in enumerate(rows))
    return FamilyUnitNormReport(sup_norm=max(norms),
                                deviation=abs(max(norms) - 1.0),
                                member_norms=norms)
