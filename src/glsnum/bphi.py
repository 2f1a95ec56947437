"""Moment-generating-function norms for centered random variables.

A centered random variable xi on a finite probability space belongs to the
ball of a convex even rate function phi at scale tau when

    E exp(lambda xi) <= exp(phi(lambda tau))   for all admissible lambda;

its norm is the smallest such tau.  Feasibility is checked on a fixed
symmetric log-spaced lambda grid with the comparison done in the log domain,
and the minimal tau is found by geometric bracketing plus bisection.  The
companion generating function psi_phi(p) = p / phi^(-1)(p) transfers the mgf
bound into moment growth, linking these norms to grand norms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from glsnum.glnorm import DEFAULT_GRID, gls_norm
from glsnum.measure import (DiscreteMeasureSpace, MeasurableFunction,
                            _exp_sums, _read_json)
from glsnum.psi import PsiFunction, _normalizing_infimum
from glsnum.search import (GridSpec, NoFeasiblePoint, NoInfeasiblePoint,
                           _on_interval, increasing_inverse, log_grid,
                           min_feasible, min_feasible_batch)

__all__ = [
    "PhiFunction",
    "quadratic_phi",
    "power_phi",
    "phi_from_descriptor",
    "RandomVariableSample",
    "rademacher",
    "two_point",
    "discretized_normal",
    "mgf",
    "log_mgf",
    "bphi_norm",
    "psi_from_phi",
    "MembershipReport",
    "membership_check",
]

#: largest |E xi| accepted as centred, relative to E|xi|
CENTERING_TOL = 1e-10

#: cap for the lambda grid when phi lives on the whole line
LAMBDA_CAP = 50.0

#: log-domain slack in the feasibility comparison
FEASIBILITY_SLACK = 1e-12

TAU_MAX = 1e6

#: relative tolerance of the phi inversions behind psi_from_phi
_INVERSE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PhiFunction:
    """Even convex rate function on (-lambda0, lambda0) with phi(0) = 0.

    Outside the open interval the function is +inf (so constraints there are
    vacuous).  `core` is the formula on nonnegative arguments inside the
    interval and must accept numpy arrays.  `inverse`, set by quadratic_phi
    and power_phi, is a pair (c, e) with phi^(-1)(y) = (c y)^e in closed
    form for y in [0, sup phi): psi_from_phi then evaluates its companion by
    that formula and declares its log-slope; without it psi_from_phi
    inverts phi by bisection.
    """

    lambda0: float
    core: Callable[[np.ndarray], np.ndarray]
    label: str = "phi"
    inverse: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.lambda0 > 0:
            raise ValueError(f"needs lambda0 > 0, got {self.lambda0}")
        probes = np.linspace(0.0, min(self.lambda0 * (1 - 1e-9), 10.0), 257)
        vals = np.asarray(self.core(probes), dtype=float)
        if abs(float(vals[0])) > 1e-12:
            raise ValueError(f"{self.label}: phi(0) must be 0")
        if np.any(~np.isfinite(vals)):
            raise ValueError(f"{self.label}: non-finite inside the interval")
        if np.any(vals[1:] <= 0):
            raise ValueError(f"{self.label}: must be positive for lambda > 0")
        mid = self.core(0.5 * (probes[:-1] + probes[1:]))
        if np.any(mid - 0.5 * (vals[:-1] + vals[1:])
                  > 1e-9 * np.maximum(vals[1:], 1.0)):
            raise ValueError(f"{self.label}: midpoint convexity fails")

    def __call__(self, lam):
        # core(|lam|) where |lam| < lambda0
        return _on_interval(np.abs(lam), -self.lambda0, self.lambda0, False,
                            False, self.core)

    def curvature_at_zero(self, eps: float = 1e-5) -> float:
        """Second difference at 0 (diagnostic; finite positive curvature is
        what makes small-lambda expansions control the second moment)."""
        return float((self.core(np.array([2 * eps]))[0]
                      - 2 * self.core(np.array([eps]))[0]) / eps ** 2)

    @property
    def sup_value(self) -> float:
        """Supremum of phi over its interval (may be inf)."""
        if math.isinf(self.lambda0):
            return math.inf
        return float(self.core(np.array([self.lambda0 * (1 - 1e-12)]))[0])


def quadratic_phi(lambda0: float = math.inf) -> PhiFunction:
    """phi(lambda) = lambda^2 / 2, the canonical subgaussian rate."""
    return PhiFunction(lambda0=float(lambda0),
                       core=lambda x: 0.5 * x ** 2,
                       label="quadratic", inverse=(2.0, 0.5))


def power_phi(m: float, lambda0: float = math.inf) -> PhiFunction:
    """phi(lambda) = |lambda|^m / m for m > 1 (even extension).

    Note the curvature at 0 degenerates for m != 2 (zero for m > 2, infinite
    for m < 2); the norm machinery still applies, but variables with a
    genuine second moment have no finite norm when m > 2.
    """
    m = float(m)
    if not (m > 1 and math.isfinite(m)):
        raise ValueError(f"needs m > 1, got {m}")
    return PhiFunction(lambda0=float(lambda0),
                       core=lambda x: x ** m / m,
                       label=f"power({m:g})", inverse=(m, 1.0 / m))


def phi_from_descriptor(desc) -> PhiFunction:
    """Build a rate function from {"family": "quadratic"|"power", "params": {}}.

    Accepts a dict, a JSON string, or a path to a JSON file; quadratic takes
    an optional lambda0, power takes m and an optional lambda0.
    """
    desc = _read_json(desc)
    if not isinstance(desc, dict) or "family" not in desc:
        raise ValueError("descriptor needs a 'family' field")
    family = desc["family"]
    params = desc.get("params", {})
    lambda0 = float(params.get("lambda0", math.inf))
    if family == "quadratic":
        return quadratic_phi(lambda0)
    if family == "power":
        return power_phi(params["m"], lambda0)
    raise ValueError(f"unknown rate-function family {family!r}")


@dataclass(frozen=True, eq=False)
class RandomVariableSample:
    """Centered random variable on a finite probability space."""

    function: MeasurableFunction

    def __post_init__(self) -> None:
        space = self.function.space
        if not space.is_probability:
            raise ValueError("random variables need a probability space")
        values, weights = self.function.value_array, space.weight_array
        mean = float(np.dot(values, weights))
        if abs(mean) > CENTERING_TOL * float(np.dot(np.abs(values), weights)):
            raise ValueError(f"not centered: mean = {mean!r}")

    @property
    def space(self) -> DiscreteMeasureSpace:
        return self.function.space

    @property
    def values(self) -> np.ndarray:
        return self.function.value_array

    @property
    def probs(self) -> np.ndarray:
        return self.function.space.weight_array

    def scaled(self, c: float) -> "RandomVariableSample":
        return RandomVariableSample(self.function * float(c))


def rademacher(scale: float = 1.0) -> RandomVariableSample:
    """Symmetric +-scale variable with equal masses."""
    space = DiscreteMeasureSpace((0.5, 0.5), is_probability=True)
    return RandomVariableSample(space.function((-scale, scale)))


def two_point(x: float, q: float) -> RandomVariableSample:
    """Centered two-point variable: value x with probability q, and the
    balancing value -q x / (1 - q) with probability 1 - q."""
    q = float(q)
    x = float(x)
    if not 0 < q < 1:
        raise ValueError(f"needs q in (0, 1), got {q}")
    y = -q * x / (1.0 - q)
    space = DiscreteMeasureSpace((q, 1.0 - q), is_probability=True)
    values = np.array([x, y])
    values -= float(np.dot(values, space.weight_array))  # exact recentering
    return RandomVariableSample(space.function(values))


def discretized_normal(points: int = 401, half_width: float = 8.0
                       ) -> RandomVariableSample:
    """Standard normal discretized on a symmetric grid, masses from the
    density renormalized to 1."""
    xs = np.linspace(-half_width, half_width, points)
    dens = np.exp(-0.5 * xs ** 2)
    probs = dens / math.fsum(dens)
    space = DiscreteMeasureSpace(probs, is_probability=True)
    values = xs - float(np.dot(xs, space.weight_array))
    return RandomVariableSample(space.function(values))


def _log_mgf(values: np.ndarray, probs: np.ndarray,
             lams: np.ndarray) -> np.ndarray:
    """ln sum_i p_i exp(lambda x_i) for every finite element of the 1-d
    array lams, as lambda x_e + ln sum_i p_i exp(-|lambda| |x_i - x_e|)
    with x_e the largest value for lambda >= 0 and the smallest below 0:
    no term exceeds its weight and the edge atom adds its whole weight.

    The distances are taken over a power of two c >= max|x| / 2 and
    |lambda| is multiplied by c, capped at the largest double, so neither
    can overflow whatever the values span; both scalings are exact, and the
    cap only reaches terms cut anyway.  lambda x_e overflows only where the
    result does (to +inf).
    """
    c = math.ldexp(0.5, math.frexp(float(np.max(np.abs(values))))[1])
    out = np.empty(lams.size)
    order = values.argsort()
    for rows, idx in ((lams >= 0, order[::-1]), (lams < 0, order)):
        if not rows.any():
            continue
        x = values[idx]
        with np.errstate(over="ignore"):
            s = np.minimum(np.abs(lams[rows]) * c, np.finfo(float).max)
            out[rows] = lams[rows] * x[0] + np.log(_exp_sums(
                s, np.abs(x / c - x[0] / c), probs[idx]))
    return out


def log_mgf(xi: RandomVariableSample, lam) -> np.ndarray | float:
    """ln E exp(lambda xi) for a number or an array of any shape.

    The error is absolute, a few ulps of 1 + |lambda| max|xi|, so at small
    lambda, where the log-mgf is about lambda^2 Var(xi) / 2, the relative
    error grows (4e-8 for discretized_normal() at |lambda| = 1e-4).
    bphi_norm compares with phi in absolute terms (FEASIBILITY_SLACK), so
    it needs no more.  An infinite lambda gives +inf (NaN for the zero
    variable), and NaN gives NaN.
    """
    arr = np.asarray(lam, dtype=float)
    flat = arr.ravel()
    fin = np.isfinite(flat)
    out = np.where(np.isnan(flat), np.nan,
                   np.inf if xi.values.any() else np.nan)
    out[fin] = _log_mgf(xi.values, xi.probs, flat[fin])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def mgf(xi: RandomVariableSample, lam: float) -> float:
    """E exp(lambda xi); overflows of the final exponential surface as inf."""
    lm = float(log_mgf(xi, float(lam)))
    if lm > 709.0:
        return math.inf
    return math.exp(lm)


def bphi_norm(xi: RandomVariableSample, phi: PhiFunction, *,
              tau_max: float = TAU_MAX) -> float:
    """Minimal tau with ln E exp(lambda xi) <= phi(lambda tau) + slack at
    every node of a 400-point lambda grid.

    Two errors enter.  The bisection on tau stops within relative tolerance
    1e-8 of the smallest tau feasible on the grid.  That tau is a maximum
    over the grid nodes, so it can sit below the norm, the same condition
    over every lambda: under quadratic_phi by 5.02e-4 relative for
    two_point(1, 0.001), whose norm is known in closed form.

    The grid is 200 log-spaced |lambda| from 1e-4 to LAMBDA_CAP
    (to just inside lambda0 when phi's interval is finite) on each side of
    0, and the slack FEASIBILITY_SLACK.  Returns +inf when no tau up to
    tau_max is feasible (the variable is not in the ball of phi) and 0 for
    the zero variable.  The variable is rescaled to unit sup before the
    scan and the result scaled back, so the lambda-grid discretization
    cancels between a variable and its multiples and the norm is exactly
    positively homogeneous.
    """
    scale = float(np.max(np.abs(xi.values)))
    if scale == 0.0:
        return 0.0
    lam_max = (LAMBDA_CAP if math.isinf(phi.lambda0)
               else phi.lambda0 * (1 - 1e-9))
    mags = log_grid(1e-4, lam_max, 200)
    lams = np.concatenate([-mags[::-1], mags])
    lmgf = _log_mgf(xi.values / scale, xi.probs, lams)

    def feasible(tau: float) -> bool:
        with np.errstate(invalid="ignore"):
            gap = lmgf - phi(lams * tau)
        return bool(np.max(gap) <= FEASIBILITY_SLACK)

    try:
        return scale * min_feasible(feasible, 1.0, rel_tol=1e-8,
                                    x_min=1e-12, x_max=tau_max, side="hi")
    except NoFeasiblePoint:
        return math.inf
    except NoInfeasiblePoint:
        return 0.0


def psi_from_phi(phi: PhiFunction, *, normalize: bool = True
                 ) -> PsiFunction:
    """Companion generating function psi(p) = p / phi^(-1)(p).

    The support is [1, b) with b the supremum of phi over its interval
    (exponents beyond the range of phi are outside the support); with
    normalize the function is rescaled to infimum 1 over [1, 200], scanned
    on 512 log-spaced points.

    With phi.inverse = (c, e) the companion is the formula p / (c p)^e,
    one vectorized expression at any number of points, and it declares
    its log-slope ((1 - e) / p, -(1 - e) / p^2), so grand norms and
    Legendre tables under it polish by Newton's method.  Without it an
    evaluation at several points inverts phi at all of them in one batched
    bracket-and-bisect pass that gives every point exactly the scalar
    increasing_inverse(phi, p, rel_tol=_INVERSE_TOL); an evaluation at one
    point (a scalar psi call, and each step of the normalization polish)
    runs that scalar inversion, about 44 scalar phi calls.
    """
    sup_phi = phi.sup_value
    if sup_phi <= 1.0:
        raise ValueError(
            f"{phi.label}: range sup {sup_phi!r} <= 1 leaves no exponents "
            "p >= 1 in the support")
    log_slope = None
    if phi.inverse is not None:
        c, e = phi.inverse

        def raw(p):
            return p / (c * p) ** e

        def log_slope(p):
            return (1.0 - e) / p, -(1.0 - e) / (p * p)
    else:
        lam_hi = phi.lambda0 if math.isfinite(phi.lambda0) else 1e154

        def raw(p):
            flat = np.atleast_1d(np.asarray(p, dtype=float))
            if flat.size == 1:  # one point: the scalar loop has less overhead
                inv = increasing_inverse(phi, float(flat[0]), x_hi=lam_hi,
                                         rel_tol=_INVERSE_TOL)
            else:
                # support points p >= 1 lie above phi(0) = 0, where
                # increasing_inverse is min_feasible(side="hi") from 1
                inv = min_feasible_batch(
                    lambda rows, lam: phi(lam) >= flat[rows], flat.size,
                    rel_tol=_INVERSE_TOL, x_max=lam_hi)
            out = flat / inv
            return out if np.ndim(p) else out[0]

    scale = 1.0
    if normalize:
        hi = min(sup_phi * (1 - 1e-9), 200.0)
        scale = _normalizing_infimum(raw, log_grid(1.0, hi, 512))
    return PsiFunction(
        a=1.0, b=sup_phi, include_a=True, include_b=False,
        interior=lambda p: raw(p) / scale,
        label=f"from_phi[{phi.label}]", log_slope=log_slope)


@dataclass(frozen=True)
class MembershipReport:
    """mgf-ball norm next to the grand norm under the companion generating
    function, with their ratio (empirical equivalence constant)."""

    bphi: float
    grand: float
    ratio: float

    def to_dict(self) -> dict:
        return {"bphi": self.bphi, "grand": self.grand, "ratio": self.ratio}


def membership_check(xi: RandomVariableSample, phi: PhiFunction, *,
                     psi: PsiFunction | None = None,
                     grid: GridSpec = DEFAULT_GRID) -> MembershipReport:
    if psi is None:
        psi = psi_from_phi(phi)
    norm = bphi_norm(xi, phi)
    grand = gls_norm(xi.function, psi, xi.space, grid).value
    if grand > 0 and math.isfinite(norm):
        ratio = norm / grand
    elif norm == 0 and grand == 0:
        ratio = 1.0
    else:
        ratio = math.inf
    return MembershipReport(bphi=norm, grand=grand, ratio=ratio)
