"""The grand norm: sup over exponents of |f|_p / psi(p).

The supremum is approximated by a log-spaced grid scan over the effective
support (infinite right endpoints are capped, with a flag when the maximizer
lands against the cap) followed by a polish of the best grid cell: a
bracketed Newton iteration on the exact slopes of ln|f|_p - ln psi(p) when
psi declares its log-slope (power, exponential and constant-one families),
golden section otherwise.  Included endpoints are grid nodes, so norms that
are attained at an endpoint (for instance under the constant-one family on
[1, r], where the grand norm is max(|f|_1, |f|_r), exactly the r-norm when
the total mass is at most 1) come out exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from glsnum.measure import (DiscreteMeasureSpace, MeasurableFunction,
                            _check_bound, _log_norm_slopes, lp_norm, lp_norms)
from glsnum.psi import PsiFunction, natural_function
from glsnum.search import GridSpec, grid_refine_max

__all__ = [
    "GlsNormResult",
    "gls_norm",
    "FamilyUnitNormReport",
    "family_unit_norm_check",
]

DEFAULT_GRID = GridSpec(points=256, cap=200.0, rel_tol=1e-10)


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


def gls_norm(f: MeasurableFunction, psi: PsiFunction,
             space: DiscreteMeasureSpace | None = None,
             grid: GridSpec = DEFAULT_GRID) -> GlsNormResult:
    """Grand norm of f under the generating function psi.

    Scans |f|_p / psi(p) on a log-spaced grid over the effective support and
    polishes the best cell: Newton's method on the slope of ln|f|_p -
    ln psi(p) when psi.log_slope is set, golden-section search otherwise.
    The reported value is the scalar p-norm path at the argmax, so
    value == lp_norm(f, argmax_p) / psi(argmax_p) bit for bit.
    """
    space = _check_bound(f, space)
    ps, capped = psi.scan_grid(grid)
    norms = lp_norms(f, ps, space)
    with np.errstate(invalid="ignore"):
        objective = norms / psi(ps)

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
    """Build the natural generating function of the family and report each
    member's grand norm against it, plus the deviation of their supremum
    from 1."""
    family = list(family)
    if not family:
        raise ValueError("the family is empty")
    if space is None:
        space = family[0].space
    psi = natural_function(family, space)
    norms = tuple(gls_norm(f, psi, space, grid).value for f in family)
    sup_norm = max(norms)
    return FamilyUnitNormReport(sup_norm=sup_norm,
                                deviation=abs(sup_norm - 1.0),
                                member_norms=norms)
