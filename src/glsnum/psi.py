"""Generating functions psi(p) on exponent intervals and their adjacent maps.

A generating function is defined on a support interval inside [1, inf] (any
of the four shapes [a,b], [a,b), (a,b], (a,b)), takes values >= 1 there, and
is +inf outside.  The grand norm of f is sup_p |f|_p / psi(p) over the
support.  The adjacent function nu(q) = 1 / psi(q/(q-1)) lives on the
interval of conjugate exponents and drives the associate-norm bound.

Four named families are provided (constant-one on [1,r], p^(1/m), slowly
varying corrections, exponentials), plus tabulated functions obtained either
from CSV tables or as the natural generating function of a finite family of
functions: psi_S(p) = sup over the family of |f|_p.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from glsnum.measure import (DiscreteMeasureSpace, MeasurableFunction,
                            _read_json, lp_norms)
from glsnum.search import (GridSpec, _interval_mask, _on_interval,
                           grid_refine_max, interval_grid, log_grid)

__all__ = [
    "PsiFunction",
    "AdjacentFunction",
    "conjugate_exponent",
    "make_extremal_psi",
    "make_power_psi",
    "make_sv_psi",
    "make_exp_psi",
    "make_table_psi",
    "natural_function",
    "adjacent",
    "psi_from_descriptor",
    "export_psi_csv",
    "load_psi_csv",
    "SLOWLY_VARYING",
]

_NORMALIZATION_TOL = 1e-9


def conjugate_exponent(p: float) -> float:
    """Conjugate exponent p/(p-1), with 1 <-> inf."""
    p = float(p)
    if p < 1.0:
        raise ValueError(f"conjugate exponent needs p >= 1, got {p}")
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True, eq=False)
class PsiFunction:
    """Generating function on a support interval inside [1, inf].

    Calls accept scalars or arrays; points outside the support evaluate to
    +inf.  `interior` is the closed-form (or interpolated) formula on the
    support and must accept numpy arrays.  `log_slope`, set by the families
    whose ln psi has closed-form derivatives (and by psi_from_phi when phi
    has a closed-form inverse), maps a support point p, a float or an
    array, to ((ln psi)'(p), (ln psi)''(p)); the grand-norm, adjacent-bound
    and Legendre scans polish by Newton's method with it, and by golden
    section without.  scan keeps its read-only arrays in a private memo
    per grid size and cap (not nu, whose reference to psi makes a cycle).
    """

    a: float
    b: float
    include_a: bool
    include_b: bool
    interior: Callable[[np.ndarray], np.ndarray]
    label: str = "psi"
    table: tuple | None = None  # (p_nodes, values) for tabulated functions
    log_slope: Callable[[float], tuple[float, float]] | None = None
    _scans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self) -> None:
        if not (1.0 <= self.a < self.b):
            raise ValueError(
                f"support needs 1 <= a < b, got a={self.a}, b={self.b}")
        if math.isinf(self.b) and self.include_b:
            raise ValueError("an infinite right endpoint cannot be included")

    def in_support(self, p) -> np.ndarray:
        return _interval_mask(np.asarray(p, dtype=float), self.a, self.b,
                              self.include_a, self.include_b)

    def __call__(self, p):
        return _on_interval(p, self.a, self.b, self.include_a, self.include_b,
                            self.interior)

    def scan_grid(self, grid: GridSpec) -> tuple[np.ndarray, bool]:
        """Log-spaced interval_grid over the support, capped at grid.cap;
        returns (grid, capped)."""
        return interval_grid(self.a, self.b, self.include_a, self.include_b,
                             grid.points, cap=grid.cap)

    def scan(self, grid: GridSpec, dual: bool = False) -> tuple:
        """(nodes, capped, values, log values) on scan_grid(grid) of psi, or
        of adjacent(psi) with dual: built on first use, then memoized."""
        key = (grid.points, grid.cap, dual)
        if key not in self._scans:
            fn = adjacent(self) if dual else self
            nodes, capped = fn.scan_grid(grid)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                values = fn(nodes)
                log_values = np.log(values)
            for a in (nodes, values, log_values):
                a.flags.writeable = False
            self._scans[key] = (nodes, capped, values, log_values)
        return self._scans[key]


@dataclass(frozen=True, eq=False)
class AdjacentFunction:
    """nu(q) = 1 / psi(q/(q-1)) on the interval of conjugate exponents.

    The domain runs from q_lower = b/(b-1) to q_upper = a/(a-1); an endpoint
    belongs to the domain exactly when its conjugate belongs to the support
    of psi.  Outside the domain psi is +inf, so nu evaluates to 0 there.
    """

    psi: PsiFunction
    q_lower: float
    q_upper: float
    lower_included: bool
    upper_included: bool

    def __call__(self, q):
        arr = np.asarray(q, dtype=float)
        scalar = arr.ndim == 0
        x = np.atleast_1d(arr).astype(float)
        if np.any(x < 1.0):
            raise ValueError("adjacent functions live on exponents q >= 1")
        with np.errstate(divide="ignore", invalid="ignore"):  # 1 -> inf
            c = np.where(np.isinf(x), 1.0, x / (x - 1.0))
        # the domain's ends map to psi's ends exactly, not rounded past them
        c[x == self.q_lower] = self.psi.b
        c[x == self.q_upper] = self.psi.a
        out = 1.0 / self.psi(c)  # psi = inf outside its support: nu = 0
        return float(out[0]) if scalar else out

    def scan_grid(self, grid: GridSpec) -> tuple[np.ndarray, bool]:
        """Log-spaced grid over the domain, capped at grid.cap from above."""
        return interval_grid(self.q_lower, self.q_upper, self.lower_included,
                             self.upper_included, grid.points, cap=grid.cap)


def adjacent(psi: PsiFunction) -> AdjacentFunction:
    return AdjacentFunction(
        psi=psi,
        q_lower=conjugate_exponent(psi.b),
        q_upper=conjugate_exponent(psi.a),
        lower_included=psi.include_b,
        upper_included=psi.include_a,
    )


def _check_normalized(psi: PsiFunction) -> PsiFunction:
    vals = psi(psi.scan_grid(GridSpec(points=512, cap=200.0))[0])
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{psi.label}: non-finite values on the support")
    if float(np.min(vals)) < 1.0 - _NORMALIZATION_TOL:
        raise ValueError(
            f"{psi.label}: values below 1 on the support "
            f"(min {float(np.min(vals))!r}); generating functions are "
            "normalized to infimum 1")
    return psi


def _normalizing_infimum(raw: Callable, probes: np.ndarray) -> float:
    """Infimum of raw by a scan of the log grid probes and a golden-section
    polish in log p: the constant that normalizes raw to infimum 1."""
    _, neg_min, _ = grid_refine_max(lambda p: -float(raw(p)), probes,
                                    values=-raw(probes), rel_tol=1e-12,
                                    refine_in_log=True)
    c = -neg_min
    if not (c > 0 and math.isfinite(c)):
        raise ValueError("could not normalize: infimum not positive/finite")
    return c


def make_extremal_psi(r: float) -> PsiFunction:
    """Constant-one generating function on [1, r]; its grand norm is
    max(|f|_1, |f|_r), the plain r-norm when the total mass is at most 1.
    Needs r > 1 (r = 1 would collapse the support)."""
    r = float(r)
    if not (r > 1.0 and math.isfinite(r)):
        raise ValueError(f"extremal family needs finite r > 1, got {r}")
    return _check_normalized(PsiFunction(
        a=1.0, b=r, include_a=True, include_b=True,
        interior=lambda p: np.ones_like(p),
        label=f"extremal(r={r:g})", log_slope=lambda p: (0.0, 0.0)))


def make_power_psi(m: float) -> PsiFunction:
    """psi(p) = p^(1/m) on [1, inf); already normalized since psi(1) = 1."""
    m = float(m)
    if not (m > 0 and math.isfinite(m)):
        raise ValueError(f"power family needs finite m > 0, got {m}")
    return _check_normalized(PsiFunction(
        a=1.0, b=math.inf, include_a=True, include_b=False,
        interior=lambda p: p ** (1.0 / m),
        label=f"power(m={m:g})",
        log_slope=lambda p: (1.0 / (m * p), -1.0 / (m * p * p))))


def make_sv_psi(m: float, L: Callable[[np.ndarray], np.ndarray], *,
                label: str = "sv") -> PsiFunction:
    """psi(p) = p^(1/m) L(p) / c on [1, inf) with a slowly varying positive L.

    The constant c is the infimum of the raw product over [1, 200], found
    by a 512-point log-grid scan with golden-section polish, so the result
    is normalized to infimum 1 (within scan accuracy).
    """
    m = float(m)
    if not (m > 0 and math.isfinite(m)):
        raise ValueError(f"needs finite m > 0, got {m}")
    raw = lambda p: p ** (1.0 / m) * L(p)
    probes = log_grid(1.0, 200.0, 512)
    lvals = np.asarray(L(probes), dtype=float)
    if np.any(~np.isfinite(lvals)) or np.any(lvals <= 0):
        raise ValueError("the slowly varying factor must be positive and "
                         "finite on [1, 200]")
    c = _normalizing_infimum(raw, probes)
    return _check_normalized(PsiFunction(
        a=1.0, b=math.inf, include_a=True, include_b=False,
        interior=lambda p: raw(p) / c,
        label=f"{label}(m={m:g})"))


def make_exp_psi(C: float, beta: float) -> PsiFunction:
    """psi(p) = exp(C (p^beta - 1)) on [1, inf), normalized at p = 1."""
    C = float(C)
    beta = float(beta)
    if not (C > 0 and math.isfinite(C)):
        raise ValueError(f"needs C > 0, got {C}")
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"needs beta > 0, got {beta}")
    return _check_normalized(PsiFunction(
        a=1.0, b=math.inf, include_a=True, include_b=False,
        interior=lambda p: np.exp(C * (p ** beta - 1.0)),
        label=f"exponential(C={C:g},beta={beta:g})",
        log_slope=lambda p: (C * beta * p ** (beta - 1.0),
                             C * beta * (beta - 1.0) * p ** (beta - 2.0))))


def make_table_psi(p_nodes, values, *, label: str = "table") -> PsiFunction:
    """Tabulated generating function, interpolated linearly in log-log.

    The support is the closed node range; evaluation outside it is +inf.
    """
    p_nodes = np.asarray(p_nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if p_nodes.ndim != 1 or p_nodes.size < 2:
        raise ValueError("need at least two table nodes")
    if p_nodes.shape != values.shape:
        raise ValueError("node and value arrays differ in length")
    if np.any(np.diff(p_nodes) <= 0):
        raise ValueError("table nodes must be strictly increasing")
    if p_nodes[0] < 1.0:
        raise ValueError("table nodes must lie in [1, inf)")
    if np.any(~np.isfinite(values)) or np.any(values <= 0):
        raise ValueError("table values must be positive and finite")
    log_p = np.log(p_nodes)
    log_v = np.log(values)

    def interior(p: np.ndarray) -> np.ndarray:
        return np.exp(np.interp(np.log(p), log_p, log_v))

    return PsiFunction(
        a=float(p_nodes[0]), b=float(p_nodes[-1]),
        include_a=True, include_b=True,
        interior=interior, label=label,
        table=(tuple(float(x) for x in p_nodes),
               tuple(float(v) for v in values)))


def _family_norms(family: list, space: DiscreteMeasureSpace | None,
                  ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, envelope): each member's p-norms on ps, one lp_norms call and
    one row per member, and their column max.  The family must be non-empty
    with a nonzero member, all bound to the same space."""
    if not family:
        raise ValueError("the family is empty")
    space = family[0].space if space is None else space
    if any(f.space != space for f in family):
        raise ValueError("family members live on different spaces")
    rows = np.array([lp_norms(f, ps, space) for f in family])
    envelope = rows.max(axis=0)
    if not np.all(envelope > 0):
        raise ValueError("every member vanishes identically; the natural "
                         "generating function would be zero")
    return rows, envelope


def natural_function(family: Sequence[MeasurableFunction],
                     space: DiscreteMeasureSpace | None = None
                     ) -> PsiFunction:
    """Natural generating function of a finite family, tabulated: sup_z
    |f_z|_p on 4096 log-spaced exponents in [1, 200], interpolated log-log
    (see _family_norms for what the family must be).  Between nodes the
    table can sit about 3e-7 below a member's p-norm, so a member's grand
    norm under it can read 1 + 3e-7; glnorm.family_unit_norm_check takes
    the sup exactly."""
    family = list(family)
    p_grid = log_grid(1.0, 200.0, 4096)
    _, sup = _family_norms(family, space, p_grid)
    return make_table_psi(p_grid, sup, label=f"natural(k={len(family)})")


# ---------------------------------------------------------------------------
# descriptors and CSV tables
# ---------------------------------------------------------------------------

SLOWLY_VARYING: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "one": lambda p: np.ones_like(np.asarray(p, dtype=float)),
    "log": lambda p: np.log(math.e - 1.0 + np.asarray(p, dtype=float)),
}


def psi_from_descriptor(desc) -> PsiFunction:
    """Build a generating function from a JSON descriptor.

    Accepts a dict, a JSON string, or a path to a JSON file with shape
    {"family": "extremal"|"power"|"slowly_varying"|"exponential"|"table",
     "params": {...}}.
    """
    desc = _read_json(desc)
    if not isinstance(desc, dict) or "family" not in desc:
        raise ValueError("descriptor needs a 'family' field")
    family = desc["family"]
    params = desc.get("params", {})
    if family == "extremal":
        return make_extremal_psi(params["r"])
    if family == "power":
        return make_power_psi(params["m"])
    if family == "slowly_varying":
        name = params.get("L", "log")
        if name not in SLOWLY_VARYING:
            raise ValueError(
                f"unknown slowly varying factor {name!r}; "
                f"choose from {sorted(SLOWLY_VARYING)}")
        return make_sv_psi(params["m"], SLOWLY_VARYING[name],
                           label=f"sv[{name}]")
    if family == "exponential":
        return make_exp_psi(params.get("C", 1.0), params.get("beta", 1.0))
    if family == "table":
        if "path" in params:
            return load_psi_csv(params["path"])
        return make_table_psi(params["p"], params["psi"])
    raise ValueError(f"unknown generating-function family {family!r}")


def export_psi_csv(psi: PsiFunction, path) -> None:
    """Write a p,psi table that load_psi_csv reads back.  Tabulated
    functions dump their own nodes; the closed-form families are sampled on
    their 256-point scan grid under the cap 200, where excluded endpoints
    sit just inside the support instead of writing their +inf."""
    if psi.table is not None:
        nodes, values = psi.table
    else:
        nodes = psi.scan_grid(GridSpec(points=256, cap=200.0))[0]
        values = psi(nodes)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "psi"])
        for p, v in zip(nodes, values):
            writer.writerow([repr(float(p)), repr(float(v))])


def load_psi_csv(path) -> PsiFunction:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header][:2] != ["p", "psi"]:
            raise ValueError(f"{path}: expected header 'p,psi'")
        nodes: list[float] = []
        values: list[float] = []
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            nodes.append(float(row[0]))
            values.append(float(row[1]))
    return make_table_psi(nodes, values, label=f"table[{path.name}]")
