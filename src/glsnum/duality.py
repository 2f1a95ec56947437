"""Associate-norm machinery: the adjacent-function bound, a brute-force
unit-ball oracle, and set-function norms on finite algebras.

For a density g the bounded linear functional f -> integral f g dmu on the
grand space satisfies

    ||l_g||' <= V(g) = inf_q |g|_q / nu(q)

with the infimum over the interval of conjugate exponents, found like the
grand norm's supremum: a pruned log grid scan and a polish.  On a finite
space the associate norm itself is a finite-dimensional optimization

    sup { integral f g dmu : ||f||_G <= 1 },

which this module solves by multi-start hill climbing on the scale-invariant
ratio (f . t) / ||f||_G, seeded with the power-density profiles that make the
classical Hoelder inequality tight.  Each iterate of a climb is scored (one
grand-norm scan) once, and a climb that never leaves its seed is not
rescored.  The oracle is a certified lower bound;
together with the adjacent-function upper bound it brackets the associate
norm.  Seeds are scored from the Hoelder profile of the bound's minimizer
on, and the first within the grid's polish tolerance rel_tol of that bound
is returned without climbing: no climb could raise it by rel_tol.  For the
constant-one family on a probability space the two meet (the bound is
attained), so there that seed settles the norm; with larger mass it need not.

Set functions on the finite algebra are determined by their atom values;
their total-variation-style norm against the grand unit ball reduces to the
same optimization through gamma({i}) = g_i w_i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from glsnum.convex import GrowthReport, growth_report_for_psi
from glsnum.glnorm import (DEFAULT_GRID, GlsNormResult, _scan_norms,
                           gls_norm)
from glsnum.measure import (DiscreteMeasureSpace, MeasurableFunction,
                            _atom_array, _check_bound, _log_norm_slopes,
                            lp_norm)
from glsnum.orlicz import (YoungFunction, build_N, conjugate_young_function,
                           luxemburg_norm)
from glsnum.psi import PsiFunction, adjacent
from glsnum.search import GridSpec, grid_refine_max

__all__ = [
    "AssociateBoundResult",
    "associate_bound",
    "associate_norm_oracle",
    "SetFunction",
    "StepFunction",
    "step_integral",
    "setfunction_norm",
    "RepresentationReport",
    "verify_representation",
    "DualBoundReport",
    "theorem_bound_check",
]

#: atom budget for the brute-force oracle
ORACLE_ATOM_BUDGET = 32

_ASCENT_ITERATIONS = 60
_SEED_EXPONENTS = 8


@dataclass(frozen=True)
class AssociateBoundResult:
    """Value and minimizing exponent of the adjacent-function bound; hit_cap
    marks a minimizer pressed against the computational q-cap."""

    value: float
    arginf_q: float
    hit_cap: bool

    def to_dict(self) -> dict:
        return {"value": self.value, "arginf_q": self.arginf_q,
                "hit_cap": self.hit_cap}


def associate_bound(g: MeasurableFunction, psi: PsiFunction,
                    space: DiscreteMeasureSpace | None = None,
                    grid: GridSpec = DEFAULT_GRID) -> AssociateBoundResult:
    """Upper bound inf_q |g|_q / nu(q) on the associate norm of the
    functional with density g: a log grid scan over the domain of nu,
    pruned to the nodes that can hold the minimum (glnorm._scan_norms), then
    Newton's method on the slope of ln|g|_q + ln psi(q/(q-1)) when psi
    declares its log-slope, golden section otherwise."""
    space = _check_bound(g, space)
    nu = adjacent(psi)
    qs, capped, nu_vals, log_nu = psi.scan(grid, dual=True)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norms = _scan_norms(g, qs, space, log_nu, minimize=True)
        objective = np.where(nu_vals > 0, norms / nu_vals, math.inf)

    def neg_scalar(q: float) -> float:
        nu_q = nu(q)
        if nu_q <= 0:
            return -math.inf
        return -lp_norm(g, q, space) / nu_q

    slope = None
    if psi.log_slope is not None:
        def slope(q: float) -> tuple[float, float]:
            # -(ln|g|_q + ln psi(c)) with c = q/(q-1), c' = -1/(q-1)^2 and
            # c'' = 2/(q-1)^3
            d1, d2 = _log_norm_slopes(g, q)
            s1, s2 = psi.log_slope(q / (q - 1.0))
            c1 = -1.0 / (q - 1.0) ** 2
            c2 = 2.0 / (q - 1.0) ** 3
            return -(d1 + s1 * c1), -(d2 + s2 * c1 * c1 + s1 * c2)

    q_star, neg_value, idx = grid_refine_max(
        neg_scalar, qs, values=-objective, rel_tol=grid.rel_tol,
        refine_in_log=True, slope=slope)
    value = -neg_scalar(q_star) if q_star == qs[idx] else -neg_value
    hit_cap = bool(capped and q_star >= qs[-2])
    return AssociateBoundResult(value=float(value), arginf_q=float(q_star),
                                hit_cap=hit_cap)


def _score(fv: np.ndarray, t: np.ndarray, space: DiscreteMeasureSpace,
           psi: PsiFunction, grid: GridSpec
           ) -> tuple[float, float, GlsNormResult | None,
                      MeasurableFunction | None]:
    """(ratio, pairing, grand norm, f) of fv: ratio (f . t) / ||f||_G, or
    0.0 when the pairing is not positive (no norm is computed and no f built
    then) or the norm is not positive and finite."""
    num = float(fv @ t)
    if num <= 0.0:
        return 0.0, num, None, None
    f = space.function(fv)
    res = gls_norm(f, psi, space, grid)
    if res.value <= 0.0 or not math.isfinite(res.value):
        return 0.0, num, res, f
    return num / res.value, num, res, f


def _gls_subgradient(fv: np.ndarray, f: MeasurableFunction,
                     psi: PsiFunction, p_star: float) -> np.ndarray:
    """Subgradient of the grand norm at fv, bound to its space as f, through
    its maximizing exponent: d_i = w_i sign(f_i) (|f_i| / |f|_p)^(p-1) /
    psi(p), stabilized in the log domain."""
    w = f.space.weight_array
    absf = np.abs(fv)
    lp = lp_norm(f, p_star)
    if lp <= 0:
        return np.zeros_like(fv)
    denom = psi(p_star)
    d = np.zeros_like(fv)
    nz = absf > 0
    ln_ratio = (p_star - 1.0) * (np.log(absf[nz]) - math.log(lp))
    d[nz] = w[nz] * np.sign(fv[nz]) * np.exp(np.clip(ln_ratio, -745.0, 60.0))
    return d / denom


def _hill_climb(fv: np.ndarray, t: np.ndarray, space: DiscreteMeasureSpace,
                psi: PsiFunction, grid: GridSpec) -> np.ndarray:
    """Best iterate of _ASCENT_ITERATIONS steps of a gradient ascent on
    ln (f . t) / ||f||_G from fv.

    Each iterate is scored once: the current point carries the score its
    step computed.  Returns fv itself when no step improves on it.
    """
    cur_val, cur_num, cur_res, cur_f = _score(fv, t, space, psi, grid)
    best_val, best_f = cur_val, fv
    cur = fv
    eta = 0.5
    for _ in range(_ASCENT_ITERATIONS):
        if cur_num <= 0 or cur_res.value <= 0:
            break
        d = _gls_subgradient(cur, cur_f, psi, cur_res.argmax_p)
        grad = t / cur_num - d / cur_res.value  # gradient of ln(ratio)
        scale = float(np.max(np.abs(grad)))
        if scale == 0 or not math.isfinite(scale):
            break
        step = grad / scale * float(np.max(np.abs(cur)))
        cand = cur + eta * step
        scored = _score(cand, t, space, psi, grid)
        if scored[0] > cur_val:
            cur, (cur_val, cur_num, cur_res, cur_f) = cand, scored
            eta = min(eta * 1.3, 1.0)
            if cur_val > best_val:
                best_val, best_f = cur_val, cand
        else:
            eta *= 0.5
            if eta < 1e-6:
                break
    return best_f


def _unit_ball_pairing_sup(t: np.ndarray, psi: PsiFunction,
                           space: DiscreteMeasureSpace,
                           grid: GridSpec) -> float:
    """sup over f of (f . t) / ||f||_G, by seeded hill climbing.

    Seeds: the sign vector of t (tight at exponent 1), the density, and
    Hoelder-extremal power profiles sign(g) |g|^(q-1) for a spread of
    exponents q including the minimizer of the adjacent-function bound.
    Seeds and t are scaled by powers of two to max|.| <= 1: no overflow.

    Stop rule: the adjacent-function bound V on the same t is an upper
    bound on the supremum.  Seeds are scored (each distinct one once) from
    the profile of V's minimizer on, then in the order above; the first
    scoring at least V (1 - grid.rel_tol) is returned, within rel_tol of the
    supremum, and no climb runs.  Otherwise the two best seeds climb on a
    96-point grid and their ends are rescored on the caller's grid.
    """
    if space.n_atoms > ORACLE_ATOM_BUDGET:
        raise ValueError(
            f"oracle budget exceeded: {space.n_atoms} atoms > "
            f"{ORACLE_ATOM_BUDGET}")
    if not t.any():
        return 0.0
    t_max = math.ldexp(1.0, math.frexp(float(np.max(np.abs(t))))[1])
    t = t / t_max
    w = space.weight_array
    g_eff = t / w
    g_fun = space.function(g_eff)
    bound = associate_bound(g_fun, psi, space, grid)
    nu = adjacent(psi)
    q_cap = min(nu.q_upper, grid.cap)
    q_lo = max(nu.q_lower, 1.0 + 1e-6)
    q_star = min(max(bound.arginf_q, q_lo), q_cap)
    q_seeds = sorted(set(
        float(q) for q in np.geomspace(q_lo + 1e-9, q_cap, _SEED_EXPONENTS)
    ) | {q_star})
    absg = np.abs(g_eff)
    sgn = np.sign(g_eff)
    max_abs = float(np.max(absg))
    seeds = [sgn.copy(), g_eff / math.ldexp(1.0, math.frexp(max_abs)[1])]
    for q in q_seeds:
        with np.errstate(divide="ignore", invalid="ignore"):
            prof = np.where(absg > 0, (absg / max_abs) ** (q - 1.0), 0.0)
        seeds.append(sgn * prof)
    # small refinement grid for the climb; the final value is re-scored below
    coarse = GridSpec(points=96, cap=grid.cap, rel_tol=1e-9)
    first = 2 + q_seeds.index(q_star)
    scored = []
    for i in [first] + [i for i in range(len(seeds)) if i != first]:
        if any(np.array_equal(seeds[i], seeds[j]) for _, j in scored):
            continue  # under constant |g| the profiles repeat the sign seed
        val = _score(seeds[i], t, space, psi, grid)[0]
        if val >= bound.value * (1.0 - grid.rel_tol):
            return float(val) * t_max  # no climb can gain rel_tol
        scored.append((val, i))
    scored.sort(reverse=True)
    best_val = scored[0][0]
    for _, idx in scored[:2]:
        fv = _hill_climb(seeds[idx], t, space, psi, coarse)
        if fv is seeds[idx]:
            continue  # its full-grid score is in `scored`, <= best_val
        rescored = _score(fv, t, space, psi, grid)[0]
        if rescored > best_val:
            best_val = rescored
    return float(best_val) * t_max


def associate_norm_oracle(g: MeasurableFunction, psi: PsiFunction,
                          space: DiscreteMeasureSpace | None = None,
                          grid: GridSpec = DEFAULT_GRID) -> float:
    """Lower-bound oracle for the associate norm of the functional with
    density g: maximizes |integral f g dmu| over the grand unit ball.

    The ball is symmetric under f -> -f, so the one-sided supremum of the
    pairing already equals the supremum of its absolute value.  The value
    is a feasible pairing, at most associate_bound up to rounding.  The
    Hoelder seed of the bound's minimizer is scored first, and the first
    seed within grid.rel_tol of the bound (as under flat psi on a probability
    space) is returned without a climb; the two bracket the norm to rel_tol.
    """
    space = _check_bound(g, space)
    t = g.value_array * space.weight_array
    return _unit_ball_pairing_sup(t, psi, space, grid)


# ---------------------------------------------------------------------------
# set functions on the finite algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SetFunction:
    """Finitely additive set function on the full algebra of a finite space,
    determined by its atom values (signed; no positivity assumed), held as
    a read-only 1-d float64 array (a private copy)."""

    space: DiscreteMeasureSpace
    atom_values: np.ndarray

    def __post_init__(self) -> None:
        values = _atom_array(self.atom_values, "atom values")
        if values.size != self.space.n_atoms:
            raise ValueError(
                f"{values.size} atom values for {self.space.n_atoms} atoms")
        if not np.isfinite(values).all():
            raise ValueError("set-function atom values must be finite")
        object.__setattr__(self, "atom_values", values)

    @classmethod
    def from_density(cls, g: MeasurableFunction,
                     space: DiscreteMeasureSpace | None = None
                     ) -> "SetFunction":
        space = _check_bound(g, space)
        return cls(space, g.value_array * space.weight_array)

    def of(self, indices: Sequence[int]) -> float:
        """Value on the union of the given atoms (indices, no repeats)."""
        idx = list(indices)
        if len(set(idx)) != len(idx):
            raise ValueError("repeated atom indices in a set")
        n = self.space.n_atoms
        for i in idx:
            if not 0 <= i < n:
                raise ValueError(f"atom index {i} out of range 0..{n - 1}")
        return float(sum(self.atom_values[i] for i in idx))

    @property
    def total(self) -> float:
        return float(sum(self.atom_values))


@dataclass(frozen=True)
class StepFunction:
    """Finite linear combination sum_i c_i 1_{D_i} with pairwise disjoint
    atom-index sets."""

    coefficients: tuple
    sets: tuple

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        sets = tuple(tuple(int(i) for i in d) for d in self.sets)
        if len(coeffs) != len(sets):
            raise ValueError("one coefficient per set required")
        seen: set[int] = set()
        for d in sets:
            if len(set(d)) != len(d):
                raise ValueError("repeated atom inside one set")
            overlap = seen.intersection(d)
            if overlap:
                raise ValueError(
                    f"step-function sets overlap on atoms {sorted(overlap)}")
            seen.update(d)
        for c in coeffs:
            if not math.isfinite(c):
                raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "sets", sets)


def step_integral(phi: StepFunction, gamma: SetFunction) -> float:
    """integral of a step function against a set function:
    sum_i c_i gamma(D_i).  Exact finite arithmetic."""
    return float(sum(c * gamma.of(d)
                     for c, d in zip(phi.coefficients, phi.sets)))


def setfunction_norm(gamma: SetFunction, psi: PsiFunction,
                     space: DiscreteMeasureSpace | None = None,
                     grid: GridSpec = DEFAULT_GRID) -> float:
    """Norm of a set function against the grand unit ball:
    sup { integral f dgamma : ||f||_G <= 1 }.

    On a finite algebra the pairing integral f dgamma is the atom sum
    f_i gamma({i}), the same optimization as the associate-norm oracle under
    the density g = gamma / w.
    """
    if space is None:
        space = gamma.space
    elif gamma.space != space:
        raise ValueError("set function is not defined on the given space")
    return _unit_ball_pairing_sup(gamma.atom_values, psi, space, grid)


@dataclass(frozen=True)
class RepresentationReport:
    """Agreement between the associate-norm oracle for a density and the
    set-function norm of its induced set function."""

    oracle: float
    setnorm: float
    difference: float
    passed: bool
    growth: GrowthReport | None

    def to_dict(self) -> dict:
        d = {"oracle": self.oracle, "setnorm": self.setnorm,
             "difference": self.difference, "passed": self.passed}
        if self.growth is not None:
            d["growth"] = self.growth.to_dict()
        return d


def verify_representation(g: MeasurableFunction, psi: PsiFunction,
                          space: DiscreteMeasureSpace | None = None,
                          grid: GridSpec = DEFAULT_GRID, *,
                          tol: float = 1e-5,
                          growth_alpha: float | None = None,
                          check_growth: bool = True) -> RepresentationReport:
    """Check that the functional norm of the density equals the norm of the
    set function gamma(A) = integral over A of g dmu.

    The growth condition on the exponent function (the hypothesis under which
    the representation is asserted) is checked alongside with K = 2 and
    reported; pass growth_alpha explicitly for families other than powers
    of p.
    """
    space = _check_bound(g, space)
    growth = None
    if check_growth:
        alpha = 0.75 if growth_alpha is None else float(growth_alpha)
        growth = growth_report_for_psi(psi, 2.0, alpha)
    oracle = associate_norm_oracle(g, psi, space, grid)
    gamma = SetFunction.from_density(g, space)
    setnorm = setfunction_norm(gamma, psi, space, grid)
    diff = abs(oracle - setnorm)
    magnitude = max(abs(oracle), abs(setnorm))
    return RepresentationReport(oracle=oracle, setnorm=setnorm,
                                difference=diff,
                                passed=diff <= tol * (1.0 + magnitude),
                                growth=growth)


@dataclass(frozen=True)
class DualBoundReport:
    """Oracle norm against the conjugate-Orlicz upper bound
    2 c_psi ||g||_(N*)."""

    oracle: float
    bound: float
    margin: float
    passed: bool

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "bound": self.bound,
                "margin": self.margin, "passed": self.passed}


def theorem_bound_check(g: MeasurableFunction, psi: PsiFunction,
                        c_psi: float,
                        space: DiscreteMeasureSpace | None = None, *,
                        N: YoungFunction | None = None,
                        N_conj: YoungFunction | None = None,
                        grid: GridSpec = DEFAULT_GRID,
                        tol: float = 1e-6) -> DualBoundReport:
    """Check ||l_g||' <= 2 c_psi ||g||_(N*) where N is the exponential Young
    function of psi and c_psi an embedding constant for ||.||_(N) against the
    grand norm (estimate it with batch_embedding_check)."""
    space = _check_bound(g, space)
    if N is None:
        N = build_N(psi)
    if N_conj is None:
        N_conj = conjugate_young_function(N)
    oracle = associate_norm_oracle(g, psi, space, grid)
    bound = 2.0 * float(c_psi) * luxemburg_norm(g, N_conj, space)
    return DualBoundReport(oracle=oracle, bound=bound,
                           margin=bound - oracle,
                           passed=oracle <= bound + tol)
