"""Finite discrete measure spaces, functions bound to them, and p-norms.

Everything heavier in this package (grand norms, associate bounds, Orlicz
norms) reduces to weighted p-norms on a finite atom set.  This module is that
substrate: an immutable space type, function values bound to it, integration,
and p-norms.  A space holds its weights, and a function its values, once: as
a private read-only 1-d float64 array, validated in one vectorized pass.  The
p-norms are m (sum w (|f|/m)^p)^(1/p) with m = max|f|, from sorted log
ratios, so no term overflows and none below the normal range reaches exp.
Exponent scans, and the log-mgf of bphi, share one kernel (_exp_sums) that
works on a small reused block of rows at a time.  The grand-norm scans call
lp_norms on the nodes that can still hold their optimum only, a few rounds
of a few nodes each on many atoms (glnorm._scan_norms).
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DiscreteMeasureSpace",
    "MeasurableFunction",
    "make_space",
    "probability_space",
    "integrate",
    "lp_norm",
    "lp_norms",
    "load_csv",
    "load_json",
    "parse_space_dict",
]

PROBABILITY_TOL = 1e-12

#: doubles in the block buffer of _exp_sums
_LSE_BLOCK = 2 ** 16

#: exp(x) >= 2^-1022 for x >= _EXP_FLOOR; below it exp is far slower
_EXP_FLOOR = -708.0
_kept_terms: tuple = (None, None)  # (function, its _power_terms)


def _atom_array(values, name: str) -> np.ndarray:
    """A private read-only float64 copy of one datum per atom."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape "
                         f"{arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteMeasureSpace:
    """Finite atomic measure: strictly positive weights, one per atom.

    Spaces with equal weights and probability flags compare equal, so an
    equal space built separately binds the same functions.

    Attributes
    ----------
    weights : read-only 1-d float64 array
        Strictly positive, finite atom masses (a private copy).
    is_probability : bool
        When set, the weights must sum to 1 within 1e-12.
    """

    weights: np.ndarray
    is_probability: bool = False

    def __post_init__(self) -> None:
        weights = _atom_array(self.weights, "weights")
        if weights.size == 0:
            raise ValueError("a measure space needs at least one atom")
        bad = ~((weights > 0) & np.isfinite(weights))
        if bad.any():
            raise ValueError("weights must be positive and finite, got "
                             f"{float(weights[bad][0])}")
        object.__setattr__(self, "weights", weights)
        if self.is_probability:
            total = self.total_mass
            if abs(total - 1.0) > PROBABILITY_TOL:
                raise ValueError(
                    f"probability weights sum to {total!r}, not 1")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasureSpace):
            return NotImplemented
        return (self.is_probability == other.is_probability
                and np.array_equal(self.weights, other.weights))

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        return math.fsum(self.weights)

    @property
    def weight_array(self) -> np.ndarray:
        return self.weights

    def function(self, values) -> "MeasurableFunction":
        """Bind one finite value per atom to this space."""
        return MeasurableFunction(self, values)


@dataclass(frozen=True, eq=False)
class MeasurableFunction:
    """Function on a finite measure space: one finite real per atom, held
    as a read-only 1-d float64 array (a private copy)."""

    space: DiscreteMeasureSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _atom_array(self.values, "values")
        if values.size != self.space.n_atoms:
            raise ValueError(
                f"{values.size} values for a space with "
                f"{self.space.n_atoms} atoms")
        bad = ~np.isfinite(values)
        if bad.any():
            raise ValueError("function values must be finite, got "
                             f"{float(values[bad][0])}")
        object.__setattr__(self, "values", values)

    @property
    def value_array(self) -> np.ndarray:
        return self.values

    def __add__(self, other: "MeasurableFunction") -> "MeasurableFunction":
        _check_bound(other, self.space)
        return self.space.function(self.values + other.values)

    def __sub__(self, other: "MeasurableFunction") -> "MeasurableFunction":
        _check_bound(other, self.space)
        return self.space.function(self.values - other.values)

    def __mul__(self, c) -> "MeasurableFunction":
        return self.space.function(self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "MeasurableFunction":
        return self.space.function(-self.values)


def make_space(weights, probability: bool | None = None
               ) -> DiscreteMeasureSpace:
    """Build a space from weights; probability=None auto-detects a unit sum."""
    weights = np.asarray(weights, dtype=float)
    if probability is None:
        probability = abs(math.fsum(weights.flat) - 1.0) <= PROBABILITY_TOL
    return DiscreteMeasureSpace(weights, probability)


def probability_space(weights) -> DiscreteMeasureSpace:
    """Probability space from positive masses, normalized to unit total."""
    arr = np.asarray(weights, dtype=float)
    if arr.size == 0 or np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("need strictly positive finite masses")
    # fsum keeps the normalized total within one ulp of 1
    return make_space(arr / math.fsum(arr.flat), probability=True)


def _check_bound(f: MeasurableFunction, space: DiscreteMeasureSpace | None
                 ) -> DiscreteMeasureSpace:
    if space is None or space is f.space:
        return f.space
    if f.space != space:
        raise ValueError("function is not bound to the given measure space")
    return space


def integrate(f: MeasurableFunction,
              space: DiscreteMeasureSpace | None = None) -> float:
    """Integral of f: the weighted sum over atoms."""
    space = _check_bound(f, space)
    return float(np.dot(f.value_array, space.weight_array))


def _power_terms(f: MeasurableFunction
                 ) -> tuple[float, np.ndarray, np.ndarray]:
    """(top, lam, w): top = max|f|, lam = -ln(|f_i| / top) over the nonzero
    atoms in ascending order, w their weights.  Kept for the latest function
    only: its scan and polish reuse them; more would cost memory per atom."""
    global _kept_terms
    kept_f, terms = _kept_terms
    if kept_f is f:
        return terms
    order = np.abs(f.value_array).argsort()[::-1]
    order = order[:np.count_nonzero(f.value_array)]
    lam = np.abs(f.value_array)[order]  # each abs array dies on its line
    top = float(lam[0]) if lam.size else 0.0
    lam /= top
    with np.errstate(divide="ignore"):  # a ratio that underflows to 0: lam inf
        np.negative(np.log(lam, out=lam), out=lam)
    _kept_terms = (f, (top, lam, f.space.weight_array[order]))
    return _kept_terms[1]


def lp_norm(f: MeasurableFunction, p: float,
            space: DiscreteMeasureSpace | None = None) -> float:
    """Weighted p-norm (sum |f|^p dmu)^(1/p) for p in [1, inf), ess sup at inf.

    top * (sum w_i exp(-p lam_i))^(1/p) (see _power_terms): no term exceeds
    its weight and the top atoms add their whole weight, so nothing overflows
    or underflows, and f * 2^k has exactly 2^k times the norm.  One binary
    search cuts the terms below exp(_EXP_FLOOR) w_i < 2^-1022 w_i before
    exp, negligible against a sum of at least the top weight.
    """
    _check_bound(f, space)
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"p-norms need p >= 1, got {p}")
    return _terms_norm(_power_terms(f), p)


def _terms_norm(terms: tuple, p: float) -> float:
    """lp_norm at a float p >= 1 from a function's kept _power_terms."""
    top, lam, w = terms
    if top == 0.0 or math.isinf(p):
        return top
    cut = -_EXP_FLOOR / p
    hi = lam.size if lam[-1] <= cut else lam.searchsorted(cut, side="right")
    terms = -p * lam[:hi]
    return top * float(np.dot(np.exp(terms, out=terms), w[:hi])) ** (1.0 / p)


def _log_norm_slopes(f: MeasurableFunction, p: float) -> tuple[float, float]:
    """First and second derivatives of ln|f|_p in p at one finite p >= 1.

    With S_k = sum w lam^k exp(-p lam) over lp_norm's terms (same cut),
    L = ln S0 has L' = -S1/S0 and L'' = S2/S0 - (S1/S0)^2, the variance of
    lam under the weights w exp(-p lam), taken about its mean so that it
    does not cancel.  ln|f|_p = ln top + L/p then gives L'/p - L/p^2 and
    L''/p - 2L'/p^2 + 2L/p^3.  Scale-free (lam only); (0, 0) for f = 0.
    """
    top, lam, w = _power_terms(f)
    if top == 0.0:
        return 0.0, 0.0
    cut = -_EXP_FLOOR / p
    hi = lam.size if lam[-1] <= cut else lam.searchsorted(cut, side="right")
    lam = lam[:hi]
    e = -p * lam
    np.exp(e, out=e)
    e *= w[:hi]
    s0 = float(e.sum())
    mean = float(np.dot(e, lam)) / s0  # -L'
    dev = lam - mean
    var = float(np.dot(e, dev * dev)) / s0  # L''
    L = math.log(s0)
    return (-mean - L / p) / p, (var + 2.0 * (mean + L / p) / p) / p


def lp_norms(f: MeasurableFunction, ps,
             space: DiscreteMeasureSpace | None = None) -> np.ndarray:
    """Vectorized p-norms: lp_norm's sums for every finite exponent from
    one _exp_sums call.  Agrees with lp_norm to near machine precision, and
    exactly at p = inf (the ess sup)."""
    _check_bound(f, space)
    ps = np.asarray(ps, dtype=float)
    if not np.all(ps >= 1.0):
        raise ValueError("p-norms need p >= 1")
    top, lam, w = _power_terms(f)
    out = np.full(ps.shape, top)  # p = inf: the ess sup
    if top == 0.0:
        return out
    fin = ~np.isinf(ps)
    pf = ps[fin]
    out[fin] = top * _exp_sums(pf, lam, w) ** (1.0 / pf)
    return out


def _exp_sums(s: np.ndarray, d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i exp(-s_k d_i) for every element s_k of the 1-d array s.

    The one kernel behind every weighted exponential sum over atoms: the
    p-norms (s = p, d = -ln(|f_i| / max|f|)) and the log-mgf (s = |lambda|,
    d = distance to the edge value).  Needs finite s_k >= 0 and ascending
    d >= 0 (+inf allowed when every s_k > 0), so no term exceeds its weight.
    Terms with -s_k d_i below _EXP_FLOOR (less than 2^-1022 of their
    weight) are cut before exp.  A block of rows at a time is filled into
    one buffer of about _LSE_BLOCK doubles, the entries that one row cuts
    and another keeps set to -inf before exp.
    """
    with np.errstate(divide="ignore", over="ignore"):  # s ~ 0 cuts nothing
        ends = d.searchsorted(-_EXP_FLOOR / s, side="right")
    sums = np.empty(s.size)
    rows = max(1, _LSE_BLOCK // d.size)
    buf = np.empty(min(rows, s.size) * d.size)
    for i in range(0, s.size, rows):
        hi = ends[i:i + rows]
        m = hi.max()
        mat = buf[:hi.size * m].reshape(hi.size, m)
        np.multiply.outer(-s[i:i + rows], d[:m], out=mat)
        if hi.min() < m:
            mat[mat < _EXP_FLOOR] = -np.inf
        np.dot(np.exp(mat, out=mat), w[:m], out=sums[i:i + hi.size])
    return sums


# ---------------------------------------------------------------------------
# ingestion: CSV "weight,value" rows and a small JSON schema
# ---------------------------------------------------------------------------

def load_csv(path) -> tuple[DiscreteMeasureSpace, MeasurableFunction]:
    """Read a space and one function from a CSV file with header weight,value."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        cols = [c.strip().lower() for c in header]
        if cols[:2] != ["weight", "value"]:
            raise ValueError(
                f"{path}: expected header 'weight,value', got {header!r}")
        weights: list[float] = []
        values: list[float] = []
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: malformed row {row!r}")
            weights.append(float(row[0]))
            values.append(float(row[1]))
    space = make_space(weights)
    return space, space.function(values)


def parse_space_dict(data: dict
                     ) -> tuple[DiscreteMeasureSpace, list[MeasurableFunction]]:
    """Parse {"weights": [...], "values": [...], "probability": bool}.

    "values" may be a flat list (one function) or a list of lists (a finite
    family on the shared space).
    """
    if "weights" not in data:
        raise ValueError("JSON input needs a 'weights' field")
    weights = data["weights"]
    probability = data.get("probability")
    space = make_space(weights, probability=probability)
    raw = data.get("values")
    if raw is None:
        return space, []
    if raw and isinstance(raw[0], (list, tuple)):
        return space, [space.function(v) for v in raw]
    return space, [space.function(raw)]


def _read_json(source):
    """Inline JSON (text starting with "{") or a JSON file path, parsed;
    anything else (a dict) is returned as it is."""
    if not isinstance(source, (str, Path)):
        return source
    text = str(source)
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with Path(text).open() as fh:
        return json.load(fh)


def load_json(path) -> tuple[DiscreteMeasureSpace, list[MeasurableFunction]]:
    with Path(path).open() as fh:
        data = json.load(fh)
    return parse_space_dict(data)
