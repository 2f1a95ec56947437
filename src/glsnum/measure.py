"""Finite discrete measure spaces, functions bound to them, and p-norms.

Everything heavier in this package (grand norms, associate bounds, Orlicz
norms) reduces to weighted p-norms on a finite atom set.  This module is that
substrate: an immutable space type, function values bound to it, integration,
and p-norms.  Large exponents and exponent scans accumulate in the log domain
through one row-wise log-sum-exp that works on a small reused block of rows,
so a scan over many exponents never holds the full exponent-by-atom matrix.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "DiscreteMeasureSpace",
    "MeasurableFunction",
    "make_space",
    "probability_space",
    "uniform_probability_space",
    "integrate",
    "lp_norm",
    "lp_norms",
    "ess_sup",
    "load_csv",
    "load_json",
    "parse_space_dict",
]

#: exponent above which p-norm accumulation switches to log-sum-exp
LOG_DOMAIN_EXPONENT = 50.0

PROBABILITY_TOL = 1e-12

#: doubles in the block buffer of _outer_logsumexp
_LSE_BLOCK = 2 ** 16


@dataclass(frozen=True)
class DiscreteMeasureSpace:
    """Finite atomic measure: labelled atoms with strictly positive weights.

    Attributes
    ----------
    atoms : tuple
        Hashable atom labels, one per atom.
    weights : tuple of float
        Strictly positive, finite atom masses.
    is_probability : bool
        When set, the weights must sum to 1 within 1e-12.
    """

    atoms: tuple
    weights: tuple
    is_probability: bool = False

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        weights = tuple(float(w) for w in self.weights)
        if len(weights) == 0:
            raise ValueError("a measure space needs at least one atom")
        if len(atoms) != len(weights):
            raise ValueError(
                f"{len(atoms)} atom labels for {len(weights)} weights")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom labels must be distinct")
        for w in weights:
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"weights must be positive and finite, got {w}")
        if self.is_probability:
            total = math.fsum(weights)
            if abs(total - 1.0) > PROBABILITY_TOL:
                raise ValueError(
                    f"probability weights sum to {total!r}, not 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.weights)

    @cached_property
    def weight_array(self) -> np.ndarray:
        arr = np.array(self.weights, dtype=float)
        arr.flags.writeable = False
        return arr

    def function(self, values) -> "MeasurableFunction":
        """Bind one finite value per atom to this space."""
        return MeasurableFunction(self, tuple(float(v) for v in values))


@dataclass(frozen=True)
class MeasurableFunction:
    """Function on a finite measure space: one finite real per atom."""

    space: DiscreteMeasureSpace
    values: tuple

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if len(values) != self.space.n_atoms:
            raise ValueError(
                f"{len(values)} values for a space with "
                f"{self.space.n_atoms} atoms")
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"function values must be finite, got {v}")
        object.__setattr__(self, "values", values)

    @cached_property
    def value_array(self) -> np.ndarray:
        arr = np.array(self.values, dtype=float)
        arr.flags.writeable = False
        return arr

    def __add__(self, other: "MeasurableFunction") -> "MeasurableFunction":
        _check_bound(other, self.space)
        return self.space.function(self.value_array + other.value_array)

    def __sub__(self, other: "MeasurableFunction") -> "MeasurableFunction":
        _check_bound(other, self.space)
        return self.space.function(self.value_array - other.value_array)

    def __mul__(self, c) -> "MeasurableFunction":
        return self.space.function(self.value_array * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "MeasurableFunction":
        return self.space.function(-self.value_array)


def make_space(weights, atoms=None, probability: bool | None = None
               ) -> DiscreteMeasureSpace:
    """Build a space from weights; probability=None auto-detects a unit sum."""
    weights = tuple(float(w) for w in weights)
    if atoms is None:
        atoms = tuple(range(len(weights)))
    if probability is None:
        probability = abs(math.fsum(weights) - 1.0) <= PROBABILITY_TOL
    return DiscreteMeasureSpace(tuple(atoms), weights, probability)


def probability_space(weights, atoms=None) -> DiscreteMeasureSpace:
    """Probability space from positive masses, normalized to unit total."""
    arr = np.asarray(list(weights), dtype=float)
    if arr.size == 0 or np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("need strictly positive finite masses")
    arr = arr / math.fsum(arr)
    # fsum keeps the normalized total within one ulp of 1
    return make_space(arr, atoms=atoms, probability=True)


def uniform_probability_space(n: int) -> DiscreteMeasureSpace:
    if n < 1:
        raise ValueError("need at least one atom")
    return make_space([1.0 / n] * n, probability=True)


def _check_bound(f: MeasurableFunction, space: DiscreteMeasureSpace | None
                 ) -> DiscreteMeasureSpace:
    if space is None:
        return f.space
    if f.space != space:
        raise ValueError("function is not bound to the given measure space")
    return space


def integrate(f: MeasurableFunction,
              space: DiscreteMeasureSpace | None = None) -> float:
    """Integral of f: the weighted sum over atoms."""
    space = _check_bound(f, space)
    return float(np.dot(f.value_array, space.weight_array))


def ess_sup(f: MeasurableFunction,
            space: DiscreteMeasureSpace | None = None) -> float:
    """Essential supremum of |f|; every atom carries positive mass."""
    _check_bound(f, space)
    return float(np.max(np.abs(f.value_array)))


def lp_norm(f: MeasurableFunction, p: float,
            space: DiscreteMeasureSpace | None = None) -> float:
    """Weighted p-norm (sum |f|^p dmu)^(1/p) for p in [1, inf].

    Exponents above LOG_DOMAIN_EXPONENT accumulate in the log domain so that
    large p never overflows; p = inf is the essential supremum.
    """
    space = _check_bound(f, space)
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"p-norms need p >= 1, got {p}")
    if math.isinf(p):
        return ess_sup(f, space)
    absvals = np.abs(f.value_array)
    w = space.weight_array
    if p <= LOG_DOMAIN_EXPONENT:
        return float(np.dot(absvals ** p, w) ** (1.0 / p))
    nz = absvals > 0.0
    if not nz.any():
        return 0.0
    ln_sum = _outer_logsumexp(np.array([p]), np.log(absvals[nz]),
                              np.log(w[nz]))[0]
    return float(math.exp(ln_sum / p))


def lp_norms(f: MeasurableFunction, ps,
             space: DiscreteMeasureSpace | None = None) -> np.ndarray:
    """Vectorized p-norms over an array of exponents.

    Each ln sum w|f|^p is a row-wise log-sum-exp over the nonzero atoms,
    computed a block of exponents at a time, so memory stays near 2^16
    doubles however many exponents and atoms there are.  Agrees with lp_norm
    to near machine precision, and exactly at p = inf (the essential
    supremum); meant for the inner loops of sup/inf scans.
    """
    space = _check_bound(f, space)
    ps = np.asarray(ps, dtype=float)
    if not np.all(ps >= 1.0):
        raise ValueError("p-norms need p >= 1")
    absvals = np.abs(f.value_array)
    nz = absvals > 0.0
    if not nz.any():
        return np.zeros_like(ps)
    logs = np.log(absvals[nz])
    logw = np.log(space.weight_array[nz])
    out = np.full(ps.shape, np.max(absvals))  # p = inf: the ess sup
    fin = ~np.isinf(ps)
    out[fin] = np.exp(_outer_logsumexp(ps[fin], logs, logw) / ps[fin])
    return out


def _outer_logsumexp(xs, a, b) -> np.ndarray:
    """ln sum_j exp(xs_i * a_j + b_j) for every element xs_i of xs.

    Bit-identical to scipy.special.logsumexp(np.multiply.outer(xs, a) + b,
    axis=-1), but only one buffer of about _LSE_BLOCK doubles holds rows at a
    time.  Each row repeats scipy's real-input steps in the same order: the
    row max, the count of entries equal to it, exp(row - max) with those
    entries zeroed, the pairwise row sum divided by the count (scipy skips a
    zero sum, which the division leaves zero), and log1p(sum) + log(count) +
    max.  Zeroing the max entries after the exp, where scipy sets them to
    -inf before it, turns a row with a NaN, a +inf or only -inf entries into
    NaN, +inf or -inf: what scipy's fallback ln sum exp(row) returns for
    it.  No other row can come out non-finite, so no fallback is needed.
    """
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    out = np.empty(flat.size)
    rows = max(1, _LSE_BLOCK // a.size)
    buf = np.empty((min(rows, flat.size), a.size))
    with np.errstate(all="ignore"):
        for start in range(0, flat.size, rows):
            block = flat[start:start + rows]
            mat = buf[:block.size]
            np.multiply.outer(block, a, out=mat)
            mat += b
            top = mat.max(axis=1)
            at_top = mat == top[:, None]
            count = np.count_nonzero(at_top, axis=1)
            mat -= top[:, None]
            np.exp(mat, out=mat)
            mat[at_top] = 0.0
            out[start:start + block.size] = (
                np.log1p(mat.sum(axis=1) / count) + np.log(count) + top)
    return out.reshape(xs.shape)


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
