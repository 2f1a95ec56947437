"""Seeded workloads of the glsnum benchmark and their reference checks.

Each workload turns a seed into inputs (`__init__`), builds what its queries
share (`setup`), and yields an endless, deterministic stream of queries
(`queries`).  A query is a closure over the public glsnum API plus a check
that compares its result with a reference the benchmark computes itself.
References are scale-safe (every p-norm divides by max|f| first) and never
call the function under test; a check may read results of earlier queries in
the same stream, as when the oracle is compared with the bound.

Library calls go through the `glsnum` namespace at call time, so that the
tracer's wrappers, once installed, see them.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import glsnum as G
import glsnum.cli

Check = Callable[[object], "tuple[str | None, str]"]


@dataclass(frozen=True)
class Query:
    """One closed-loop request: `run` is timed, `check` is not.

    `check(result)` returns (error message or None, digest token).  A run is
    a whole number of cycles; the first query of each cycle opens it.
    """

    kind: str
    run: Callable[[], object]
    check: Check
    opens_cycle: bool = False


class InputDigest:
    """SHA-256 over every generated input, in generation order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self._hash.update(np.ascontiguousarray(item, float).tobytes())
            else:
                self._hash.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


# ---------------------------------------------------------------------------
# scale-safe references
# ---------------------------------------------------------------------------

def ref_lp(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """(sum w |f|^p)^(1/p), computed scale-safely as
    max|f| * (sum w (|f|/max|f|)^p)^(1/p)."""
    a = np.abs(values)
    top = float(a.max())
    if top == 0.0:
        return 0.0
    if math.isinf(p):
        return top
    return top * float(np.dot((a / top) ** p, weights)) ** (1.0 / p)


def rel_dev(value, ref: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        return math.inf
    if ref == 0.0:
        return abs(value)
    return abs(value - ref) / abs(ref)


def psi_at(psi, p: float) -> float:
    """psi(p) from the generating function's own formula; +inf off support."""
    if not bool(psi.in_support(p)):
        return math.inf
    return float(psi.interior(np.array([float(p)]))[0])


def conj(p: float) -> float:
    return math.inf if p == 1.0 else p / (p - 1.0)


def _fail(ok: bool, message: str) -> str | None:
    return None if ok else message


def _token(*values) -> str:
    return repr(tuple(float(v) for v in values))


def _mixed_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """A tenth exact zeros; the rest a third each lognormal with random
    sign, Student-t (3 degrees of freedom) and uniform on [-1, 1]."""
    zeros = n // 10
    rest = n - zeros
    a, b = rest // 3, rest // 3
    c = rest - a - b
    vals = np.concatenate([
        rng.lognormal(0.0, 1.0, a) * rng.choice([-1.0, 1.0], a),
        rng.standard_t(3.0, b),
        rng.uniform(-1.0, 1.0, c),
        np.zeros(zeros),
    ])
    return rng.permutation(vals)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = glsnum.cli.main(argv)
    return code, buf.getvalue()


def _cli_value(result, path: tuple[str, ...]) -> float:
    code, text = result
    if code != 0:
        raise RuntimeError(f"CLI exit code {code}")
    node = json.loads(text)
    for key in path:
        node = node[key]
    return float(node)


def _psi_descriptor(family: str, param: float) -> str:
    key = "r" if family == "extremal" else "m"
    return json.dumps({"family": family, "params": {key: param}})


class Workload:
    """Base class: a seeded input set, set-up builds and a query stream."""

    name = ""
    salt = 0
    #: time of one cycle at the seed on the reference machine (2-core Xeon):
    #: a run of S seconds is round(S / cycle_seconds) cycles, at least one
    cycle_seconds = 1.0

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([self.salt, seed])
        self.digest = InputDigest()

    def setup(self) -> None:
        raise NotImplementedError

    def queries(self) -> Iterator[Query]:
        raise NotImplementedError

    def probe(self) -> Iterator[Query]:
        """Queries run once after the timed loop, untimed; their failures
        are reported but do not fail the run."""
        return iter(())


# ---------------------------------------------------------------------------
# wide-atoms: the p-norm kernel over many atoms
# ---------------------------------------------------------------------------

class WideAtoms(Workload):
    """Few functions on 1e3..1e5 atoms; the `measure` kernel dominates.

    Atom counts are the eight log-uniform quantiles of [1e3, 1e5], the same
    for every seed, so that peak RSS (set by the 1e5-atom scans) and the cost
    per cycle are comparable across seeds; the seed draws the values, the
    weights, the generating-function parameters, the exponents and the scale
    factors.  Every cycle pairs each function with the same generating
    functions and query kinds, so cycles cost alike.

    The scale-extreme share (values times 10^k, k uniform in [-300, 300]) is
    a separate `probe`: one query per function, of the kind a fifth of each
    function's queries would have been, run after the timed loop.  Its
    failures are the known scale defects of `lp_norm` and `min_feasible`;
    they are reported, not timed and not part of the run's pass/fail.
    """

    name = "wide-atoms"
    salt = 101
    cycle_seconds = 5.7
    SIZES = tuple(round(10 ** (3 + 2 * i / 7)) for i in range(8))
    ORDER = (7, 3, 5, 1, 6, 2, 4, 0)  # big and small functions interleave
    KINDS = ("gls_norm", "associate_bound", "lp_norm", "luxemburg_power",
             "luxemburg_N")
    CYCLES = 6  # distinct parameter cycles; the stream repeats after them
    FAMILY_ELEMS = 6000  # k members x atoms of each family check

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng, d = self.rng, self.digest
        self.raw = []
        for i, n in enumerate(self.SIZES):
            weights = rng.uniform(0.2, 1.0, n)
            values = _mixed_values(rng, n)
            self.raw.append((i % 2 == 0, weights, values))
            d.add(n, weights, values)
        self.psi_params = {
            "r": float(rng.uniform(2.0, 5.0)),
            "m": float(rng.uniform(1.0, 4.0)),
            "C": float(rng.uniform(0.02, 0.2)),
            "beta": float(rng.uniform(0.5, 1.0)),
            "m_sv": float(rng.uniform(1.0, 4.0)),
        }
        d.add(sorted(self.psi_params.items()))
        self.natural_raw = (rng.uniform(0.2, 1.0, 500),
                            [_mixed_values(rng, 500) for _ in range(3)])
        d.add(self.natural_raw[0], *self.natural_raw[1])
        self.family_raw = []
        for _ in range(2 * self.CYCLES):
            k = int(rng.integers(2, 5))
            n = self.FAMILY_ELEMS // k
            fam = (rng.uniform(0.2, 1.0, n),
                   [_mixed_values(rng, n) for _ in range(k)])
            self.family_raw.append(fam)
            d.add(fam[0], *fam[1])
        # per cycle and function: the exponents of lp_norm and luxemburg
        self.params = []
        for _ in range(self.CYCLES):
            row = []
            for i in range(len(self.SIZES)):
                # lp_norm switches to log-sum-exp above p = 50: half each
                p_lp = float(10 ** rng.uniform(0.0, math.log10(50.0))
                             if i % 2 else rng.uniform(50.0, 100.0))
                p_lux = float(rng.uniform(1.0, 6.0))
                row.append((p_lp, p_lux))
                d.add(p_lp, p_lux)
            self.params.append(row)
        # per function: the decimal exponent of the probe's scale factor
        self.scales = [float(k) for k in rng.uniform(-300.0, 300.0,
                                                     len(self.SIZES))]
        d.add(self.scales)

    def setup(self) -> None:
        self.functions = []
        for prob, weights, values in self.raw:
            space = (G.probability_space(weights) if prob
                     else G.make_space(weights / len(weights)))
            self.functions.append(space.function(values))
        pp = self.psi_params
        nat_weights, nat_values = self.natural_raw
        nat_space = G.probability_space(nat_weights)
        natural = G.natural_function([nat_space.function(v)
                                      for v in nat_values])
        # (psi, r for the extremal family else None)
        self.psis = [
            (G.make_extremal_psi(pp["r"]), pp["r"]),
            (G.make_power_psi(pp["m"]), None),
            (G.make_exp_psi(pp["C"], pp["beta"]), None),
            (G.make_sv_psi(pp["m_sv"], lambda p: np.log(math.e - 1.0 + p),
                           label="sv[log]"), None),
            (natural, None),
        ]
        self.N2 = G.build_N(G.make_power_psi(2.0))
        self.scaled = [f.space.function(f.value_array * 10.0 ** k)
                       for f, k in zip(self.functions, self.scales)]
        self.families = []
        for weights, members in self.family_raw:
            space = G.probability_space(weights)
            self.families.append([space.function(v) for v in members])

    def queries(self) -> Iterator[Query]:
        for c in itertools.count():
            cc = c % self.CYCLES
            for pos, i in enumerate(self.ORDER):
                for j, kind in enumerate(self.KINDS):
                    yield self._query(kind, i, self.functions[i],
                                      self.params[cc][i],
                                      opens=pos == 0 and j == 0)
                if pos % 4 == 3:
                    fam = self.families[(2 * c + pos // 4)
                                        % len(self.families)]
                    yield Query("family_unit_norm_check",
                                _call("family_unit_norm_check", fam),
                                _check_family)

    def probe(self) -> Iterator[Query]:
        for i, f in enumerate(self.scaled):
            yield self._query(self.KINDS[i % len(self.KINDS)], i, f,
                              self.params[0][i], tag="@scaled")

    def _query(self, kind: str, i: int, f, params: tuple, opens=False,
               tag="") -> Query:
        p_lp, p_lux = params
        if kind == "gls_norm":
            psi, r = self.psis[i % len(self.psis)]
            return Query(kind + tag, _call("gls_norm", f, psi),
                         _check_gls(f, psi, r), opens)
        if kind == "associate_bound":
            psi, r = self.psis[(i + 2) % len(self.psis)]
            return Query(kind + tag, _call("associate_bound", f, psi),
                         _check_bound(f, psi, r), opens)
        if kind == "lp_norm":
            return Query(kind + tag, _call("lp_norm", f, p_lp),
                         _check_lp(f, p_lp), opens)
        if kind == "luxemburg_power":
            return Query(kind + tag, _lux_power(f, p_lux),
                         _check_lp(f, p_lux), opens)
        return Query(kind + tag, _call("luxemburg_norm", f, self.N2),
                     _check_luxemburg_integral(f, self.N2), opens)


def _call(name: str, *args):
    """A query body calling glsnum.<name>(*args), looked up at call time."""
    return lambda: getattr(G, name)(*args)


def _lux_power(f, p: float):
    return lambda: G.luxemburg_norm(f, G.power_young(p), f.space)


def _check_gls(f, psi, r: float | None) -> Check:
    def check(res):
        v = res.value
        vals, w = f.value_array, f.space.weight_array
        token = _token(v, res.argmax_p)
        if r is not None:
            ref = ref_lp(vals, w, r)
            return _fail(rel_dev(v, ref) <= 1e-9,
                         f"gls_norm extremal: {v!r} vs L_r {ref!r}"), token
        p = res.argmax_p
        at_argmax = ref_lp(vals, w, p) / psi_at(psi, p)
        if not rel_dev(v, at_argmax) <= 1e-9:
            return f"gls_norm: {v!r} vs |f|_p/psi(p) {at_argmax!r}", token
        for probe in (1.0, 200.0):
            lower = ref_lp(vals, w, probe) / psi_at(psi, probe)
            if not v >= lower * (1.0 - 1e-9):
                return f"gls_norm: {v!r} below grid node p={probe}", token
        return None, token
    return check


def _nu(psi, q: float) -> float:
    return 1.0 / psi_at(psi, conj(q))


def _check_bound(g, psi, r: float | None) -> Check:
    def check(res):
        v = res.value
        vals, w = g.value_array, g.space.weight_array
        token = _token(v, res.arginf_q)
        if r is not None:
            ref = ref_lp(vals, w, conj(r))
            return _fail(rel_dev(v, ref) <= 1e-6,
                         f"associate_bound extremal: {v!r} vs L_r' {ref!r}"), \
                token
        q = res.arginf_q
        at_arginf = ref_lp(vals, w, q) / _nu(psi, q)
        if not rel_dev(v, at_arginf) <= 1e-9:
            return (f"associate_bound: {v!r} vs |g|_q/nu(q) {at_arginf!r}",
                    token)
        upper = ref_lp(vals, w, 200.0) / _nu(psi, 200.0)
        return _fail(v <= upper * (1.0 + 1e-9),
                     f"associate_bound: {v!r} above grid node q=200"), token
    return check


def _check_lp(f, p: float) -> Check:
    def check(v):
        ref = ref_lp(f.value_array, f.space.weight_array, p)
        return _fail(rel_dev(v, ref) <= 1e-9,
                     f"p={p:.4g}: {v!r} vs L_p {ref!r}"), _token(v)
    return check


def _check_luxemburg_integral(f, N) -> Check:
    """The returned k must bracket the unit integral: integral N(f/k) <= 1
    just above k and >= 1 just below it."""
    def check(k):
        token = _token(k)
        if not (math.isfinite(k) and k > 0):
            return f"luxemburg_norm: {k!r}", token
        a, w = np.abs(f.value_array), f.space.weight_array
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            above = float(np.dot(N.eval_abs(a / (k * (1 + 1e-8))), w))
            below = float(np.dot(N.eval_abs(a / (k * (1 - 1e-8))), w))
        return _fail(above <= 1.0 <= below,
                     f"luxemburg_norm {k!r}: integral {above!r} above k, "
                     f"{below!r} below k"), token
    return check


def _check_family(report):
    token = _token(*report.member_norms)
    top = max(report.member_norms)
    return _fail(abs(top - 1.0) <= 1e-6,
                 f"family sup norm {top!r} is not 1"), token


# ---------------------------------------------------------------------------
# young-tables: Legendre tables, no atoms
# ---------------------------------------------------------------------------

def _power_conjugate(m: float, v: float, cap: float = 200.0) -> float:
    """sup over z in [1, cap] of v z - (z/m) ln z (concave in z)."""
    z = min(max(math.exp(m * v - 1.0), 1.0), cap)
    return v * z - z / m * math.log(z)


def _young_cycle(first: str, second: str) -> tuple[str, ...]:
    """One young-tables cycle: two table builds and the conjugate of the
    first, then 13 rounds of a growth report, a psi_from_phi and four point
    queries, and seven more point queries.

    The 29 table-sized queries (builds, conjugate, growth reports,
    psi_from_phi) match the 29 light point queries (0.1-0.5 ms) in number, so
    the median falls among the 30 middle ones (1-2 ms); with two cycles a
    run has six queries above the growth reports and psi_from_phi, so the
    tail percentile falls among those.
    """
    light = itertools.cycle(("cy_power", "growth_condition"))
    middle = itertools.cycle(("yf_power", "yf_extremal", "exponent_V"))
    slots = [f"build_N[{first}]", "conjugate_young_function",
             f"build_N[{second}]"]
    for t in range(13):
        slots += ["growth_report", next(light), next(middle),
                  "psi_from_quadratic" if t % 2 == 0 else "psi_from_power",
                  next(light), next(middle)]
    slots += [next(light) for _ in range(3)]
    slots += [next(middle) for _ in range(4)]
    return tuple(slots)


class YoungTables(Workload):
    """Table builds on generating functions alone; no measure space.

    Every query draws fresh parameters, so no two queries share a psi.
    Cycles alternate between building N for the power and extremal families
    and for the exponential and slowly varying families; each also builds
    the conjugate of its first N, 13 growth reports, 13 psi_from_phi
    companions and 59 single-point queries.  Parameters that set the cost of
    a query are drawn from narrow ranges or strata, so that runs on
    different seeds cost alike.
    """

    name = "young-tables"
    salt = 202
    cycle_seconds = 16.2
    CYCLES = 16  # distinct parameter cycles; the stream repeats after them
    CYCLE_SLOTS = (_young_cycle("power", "extremal"),
                   _young_cycle("exponential", "sv"))
    GROWTH_REPORTS = 13

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.params = []
        for c in range(self.CYCLES):
            slots = self.CYCLE_SLOTS[c % 2]
            row = [self._draw(kind, slots[:i].count(kind))
                   for i, kind in enumerate(slots)]
            self.params.append(row)
            self.digest.add(row)

    def _draw(self, kind: str, occurrence: int) -> tuple:
        """Fresh parameters for the occurrence-th `kind` query of a cycle."""
        u = lambda lo, hi: float(self.rng.uniform(lo, hi))  # noqa: E731
        draws = {
            "build_N[power]": lambda: (u(1.0, 3.0),),
            "build_N[extremal]": lambda: (u(2.0, 5.0),),
            # C (200^beta - 1) stays below the exp overflow at 709
            "build_N[exponential]": lambda: (u(0.1, 0.5), u(0.6, 0.9)),
            "build_N[sv]": lambda: (u(1.5, 3.0),),
            "conjugate_young_function": lambda: (),
            # one growth report per stratum of m in [1, 2.4]
            "growth_report": lambda: (
                1.0 + 1.4 * (occurrence + u(0.0, 1.0)) / self.GROWTH_REPORTS,),
            "psi_from_quadratic": lambda: (u(20.0, 60.0),),
            "psi_from_power": lambda: (u(1.5, 4.0), u(10.0, 40.0)),
            "yf_power": lambda: (u(0.5, 4.0), u(-1.0, 3.0)),
            "cy_power": lambda: (u(1.2, 4.0), u(0.5, 2.0), u(0.1, 10.0)),
            "exponent_V": lambda: (u(0.5, 4.0), u(math.e, 50.0)),
            "yf_extremal": lambda: (u(1.5, 8.0), u(-2.0, 5.0)),
            "growth_condition": lambda: (u(0.5, 3.0), u(1.5, 4.0),
                                         u(0.5, 2.0)),
        }
        return draws[kind]()

    def setup(self) -> None:
        pass  # every query builds its own inputs from fresh parameters

    def queries(self) -> Iterator[Query]:
        for c in itertools.count():
            state: dict = {}
            slots = self.CYCLE_SLOTS[c % 2]
            for i, (kind, params) in enumerate(
                    zip(slots, self.params[c % self.CYCLES])):
                if kind.startswith("build_N["):
                    yield self._build(kind[8:-1], params, state,
                                      opens_cycle=i == 0)
                elif kind == "conjugate_young_function":
                    yield self._conjugate(state)
                elif kind == "growth_report":
                    yield self._growth(*params)
                elif kind == "psi_from_quadratic":
                    phi = _call("quadratic_phi", *params)
                    yield Query(kind, lambda phi=phi: G.psi_from_phi(phi()),
                                _check_psi_power(0.5))
                elif kind == "psi_from_power":
                    phi = _call("power_phi", *params)
                    yield Query(kind, lambda phi=phi: G.psi_from_phi(phi()),
                                _check_psi_power(1.0 - 1.0 / params[0]))
                else:
                    yield self._point((kind,) + params, c)

    def _build(self, family: str, params: tuple, state: dict,
               opens_cycle: bool) -> Query:
        def run():
            if family == "power":
                psi = G.make_power_psi(*params)
            elif family == "extremal":
                psi = G.make_extremal_psi(*params)
            elif family == "exponential":
                psi = G.make_exp_psi(*params)
            else:
                psi = G.make_sv_psi(*params,
                                    lambda p: np.log(math.e - 1.0 + p),
                                    label="sv[log]")
            return psi, G.build_N(psi)

        def check(result):
            psi, N = result
            state["N"] = N
            ev = N.eval_abs
            us = np.geomspace(math.e, 100.0, 16)
            token = _token(*ev(us))
            if float(ev(np.zeros(1))[0]) != 0.0:
                return "build_N: N(0) != 0", token
            at_e = float(ev(np.array([math.e]))[0])
            jump = abs(float(ev(np.array([math.e * (1 + 1e-13)]))[0])
                       - float(ev(np.array([math.e * (1 - 1e-13)]))[0]))
            if not jump <= 1e-9 * max(1.0, at_e):
                return f"build_N: branch jump {jump!r} at e", token
            if family == "extremal":
                r = params[0]
                us = np.geomspace(math.e, 100.0, 128)
                dev = float(np.max(np.abs(ev(us) / us ** r - 1.0)))
                return _fail(dev <= 1e-6,
                             f"N[extremal]/u^r deviates by {dev!r}"), token
            # Fenchel-Young at table nodes: V(u) = h*(ln u) >= z ln u - h(z)
            vs = np.linspace(1.0, math.log(200.0), 2048)[::64]
            with np.errstate(over="ignore"):
                V = np.log(ev(np.exp(vs)))
            zs = np.geomspace(1.0, 200.0, 64)
            hz = zs * np.log(psi.interior(zs))
            gap = float(np.max(np.multiply.outer(vs, zs) - hz[None, :]
                               - V[:, None]))
            if not gap <= 1e-9 * (1.0 + float(np.max(np.abs(V)))):
                return f"build_N: Fenchel-Young gap {gap!r}", token
            if family == "power":
                m = params[0]
                inside = [v for v in vs
                          if 1.0 <= math.exp(m * v - 1.0) <= 200.0]
                got = np.log(ev(np.exp(inside))) if inside else []
                dev = max((rel_dev(x, _power_conjugate(m, v))
                           for x, v in zip(got, inside)), default=0.0)
                return _fail(dev <= 1e-8,
                             f"N[power] exponent deviates by {dev!r}"), token
            return None, token

        return Query(f"build_N[{family}]", run, check, opens_cycle)

    def _conjugate(self, state: dict) -> Query:
        def run():
            if "N" not in state:
                raise RuntimeError("no N from this cycle's build_N")
            return state["N"], G.conjugate_young_function(state["N"])

        def check(result):
            N, Nc = result
            us = np.linspace(0.0, 200.0, 64)
            ys = np.geomspace(1e-6, 1e6, 64)
            with np.errstate(over="ignore", invalid="ignore"):
                Nu = N.eval_abs(us)
                Ny = Nc.eval_abs(ys)
                gap = np.multiply.outer(us, ys) - Nu[:, None] - Ny[None, :]
            token = _token(*Ny[::8])
            worst = float(np.nanmax(gap / (1.0 + np.abs(
                np.multiply.outer(us, ys)))))
            if float(Nc.eval_abs(np.zeros(1))[0]) != 0.0:
                return "conjugate Young function: N*(0) != 0", token
            return _fail(worst <= 1e-9,
                         f"Fenchel-Young fails for N, N*: {worst!r}"), token

        return Query("conjugate_young_function", run, check)

    def _growth(self, m: float) -> Query:
        alpha = 0.75

        def check(report):
            token = _token(report.worst_ratio, report.n_flagged)
            ref = 2.0 ** -m
            if not rel_dev(report.worst_ratio, ref) <= 1e-6:
                return (f"growth report m={m:.4g}: worst ratio "
                        f"{report.worst_ratio!r} vs K^-m {ref!r}"), token
            return _fail(report.passed == (ref <= alpha),
                         "growth report: wrong verdict"), token

        return Query("growth_report_for_psi",
                     lambda: G.growth_report_for_psi(G.make_power_psi(m),
                                                     2.0, alpha), check)

    def _point(self, params: tuple, cycle: int) -> Query:
        kind = params[0]
        if kind == "yf_power":
            _, m, v = params

            def run():
                return G.young_fenchel_point(G.h_of(G.make_power_psi(m)), v)

            def check(pt):
                ref = _power_conjugate(m, v)
                return _fail(abs(pt.value - ref) <= 1e-9 * (1 + abs(ref)),
                             f"h*({v:.4g}) = {pt.value!r} vs {ref!r}"), \
                    _token(pt.value, pt.argmax_z)
            return Query("young_fenchel_point", run, check)
        if kind == "yf_extremal":
            _, r, v = params

            def run():
                return G.young_fenchel(G.h_of(G.make_extremal_psi(r)), v)

            def check(value):
                ref = v * r if v >= 0 else v
                return _fail(abs(value - ref) <= 1e-9 * (1 + abs(ref)),
                             f"h*({v:.4g}) = {value!r} vs {ref!r}"), \
                    _token(value)
            return Query("young_fenchel", run, check)
        if kind == "cy_power":
            _, p, coeff, y = params
            use_point = cycle % 2 == 0

            def run():
                N = G.power_young(p, coeff)
                if use_point:
                    return G.conjugate_young_point(N, y).value
                return G.conjugate_young(N, y)

            def check(value):
                u = min((y / (coeff * p)) ** (1.0 / (p - 1.0)), 200.0)
                ref = y * u - coeff * u ** p
                return _fail(abs(value - ref) <= 1e-9 * (1 + abs(ref)),
                             f"N*({y:.4g}) = {value!r} vs {ref!r}"), \
                    _token(value)
            return Query("conjugate_young_point", run, check)
        if kind == "exponent_V":
            _, m, u = params

            def check(value):
                ref = _power_conjugate(m, math.log(u))
                return _fail(abs(value - ref) <= 1e-9 * (1 + abs(ref)),
                             f"V({u:.4g}) = {value!r} vs {ref!r}"), \
                    _token(value)
            return Query("exponent_V",
                         lambda: G.exponent_V(G.make_power_psi(m), u), check)
        _, m, K, C = params
        alpha = K ** -m * (1.0 + 1e-6)

        def check(report):
            ref = K ** -m
            return _fail(rel_dev(report.worst_ratio, ref) <= 1e-9
                         and report.passed,
                         f"growth condition: {report.worst_ratio!r} vs "
                         f"{ref!r}"), _token(report.worst_ratio)
        return Query("check_growth_condition",
                     lambda: G.check_growth_condition(
                         lambda x: C * np.asarray(x) ** m, K, alpha), check)


def _check_psi_power(exponent: float) -> Check:
    """psi_from_phi for phi = lambda^m / m is p^(1 - 1/m) after
    normalization (sqrt(p) for the quadratic)."""
    def check(psi):
        ps = np.array([1.0, 2.0, 7.3, 50.0, 150.0])
        ps = ps[ps < psi.b]
        got = psi.interior(ps)
        dev = float(np.max(np.abs(got / ps ** exponent - 1.0)))
        return _fail(dev <= 1e-9,
                     f"psi_from_phi deviates from p^{exponent:.4g} by "
                     f"{dev!r}"), _token(*got)
    return check


# ---------------------------------------------------------------------------
# small-batch: property-testing traffic on 2..32 atoms
# ---------------------------------------------------------------------------

LAMBDA_MAGS = np.geomspace(1e-4, 50.0, 200)
LAMBDAS = np.concatenate([-LAMBDA_MAGS[::-1], LAMBDA_MAGS])


def ref_bphi_quadratic(values: np.ndarray, probs: np.ndarray) -> float:
    """Smallest tau with ln E exp(lambda xi) <= (lambda tau)^2 / 2 + 1e-12
    on the default lambda grid of the unit-sup variable, times the sup."""
    scale = float(np.max(np.abs(values)))
    mat = np.multiply.outer(LAMBDAS, values / scale) + np.log(probs)
    top = mat.max(axis=1)
    lmgf = top + np.log(np.exp(mat - top[:, None]).sum(axis=1))
    tau = np.sqrt(2.0 * np.maximum(lmgf - 1e-12, 0.0)) / np.abs(LAMBDAS)
    return scale * float(tau.max())


class SmallBatch(Workload):
    """Many queries on spaces of 2..32 atoms under a few reused psi and phi.

    Each case (one space, a function f, a density g, an exponent, a random
    variable) runs a fixed sequence of library and CLI queries; the CLI
    queries replay earlier library queries of the same case, so their JSON
    is compared with the library value.  A cycle is eight cases with fixed
    atom counts, psi families and random-variable kinds, one of them with a
    `verify_representation` query; each case of a cycle has its own psi,
    reused by the same case of every cycle.
    """

    name = "small-batch"
    salt = 303
    cycle_seconds = 6.7
    CASES = 512
    REPRESENTATION_EVERY = 8
    #: atom counts of the eight cases of a cycle, the same for every seed
    SIZES = (32, 4, 24, 8, 16, 2, 28, 12)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng, d = self.rng, self.digest
        # one psi per case of a cycle: extremal r in [2, 5] and power m in
        # [1, 4], each drawn from one of four strata, so that every seed
        # spans both ranges
        self.psi_params = [
            ("extremal", 2.0 + 0.75 * (k // 2 + float(rng.uniform())))
            if k % 2 == 0 else
            ("power", 1.0 + 0.75 * (k // 2 + float(rng.uniform())))
            for k in range(len(self.SIZES))]
        d.add(self.psi_params)
        self.cases = []
        for j in range(self.CASES):
            n = self.SIZES[j % len(self.SIZES)]
            case = {
                "weights": rng.uniform(0.2, 1.0, n),
                "f": rng.uniform(-3.0, 3.0, n),
                "g": rng.uniform(-3.0, 3.0, n),
                "p": float(rng.uniform(1.1, 6.0)),
                "psi": j % len(self.psi_params),
                "xi": self._xi_params(rng, j),
                "blocks": rng.integers(0, 3, n),
                "coeffs": rng.uniform(-2.0, 2.0, 3),
            }
            self.cases.append(case)
            d.add(*[case[k] for k in sorted(case)])

    @staticmethod
    def _xi_params(rng, j: int) -> tuple:
        kind = ("rademacher", "two_point", "discretized_normal")[j % 8 % 3]
        if kind == "rademacher":
            return kind, float(rng.uniform(0.5, 3.0))
        if kind == "two_point":
            return kind, float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.1,
                                                                         0.9))
        return kind, int(rng.integers(101, 402)), float(rng.uniform(6.0, 8.0))

    def setup(self) -> None:
        self.psis = []
        for family, param in self.psi_params:
            psi = (G.make_extremal_psi(param) if family == "extremal"
                   else G.make_power_psi(param))
            self.psis.append((psi, family, param))
        self.quadratic = G.quadratic_phi()
        self.companion = G.psi_from_phi(self.quadratic)
        self.built = []
        for case in self.cases:
            space = G.probability_space(case["weights"])
            kind, *args = case["xi"]
            xi = {"rademacher": G.rademacher, "two_point": G.two_point,
                  "discretized_normal": G.discretized_normal}[kind](*args)
            blocks = case["blocks"]
            sets = [tuple(int(i) for i in np.flatnonzero(blocks == b))
                    for b in range(3)]
            step = G.StepFunction(tuple(case["coeffs"]), tuple(sets))
            self.built.append((space, space.function(case["f"]),
                               space.function(case["g"]), xi, step))

    def queries(self) -> Iterator[Query]:
        for j in itertools.count():
            yield from self._case(j)

    def _case(self, j: int) -> Iterator[Query]:
        case = self.cases[j % self.CASES]
        space, f, g, xi, step = self.built[j % self.CASES]
        psi, family, param = self.psis[case["psi"]]
        r = param if family == "extremal" else None
        p = case["p"]
        state: dict = {}
        desc = _psi_descriptor(family, param)
        f_json = json.dumps({"weights": list(space.weights),
                             "values": list(f.values)})
        g_json = json.dumps({"weights": list(space.weights),
                             "values": list(g.values)})
        gamma = G.SetFunction.from_density(g, space)
        gamma_json = json.dumps({"weights": list(space.weights),
                                 "gamma": list(gamma.atom_values)})
        xi_json = json.dumps({"weights": list(xi.probs),
                              "values": list(xi.values)})
        fv, gv, w = f.value_array, g.value_array, space.weight_array

        def store(key, check, value_of):
            def wrapped(result):
                error, token = check(result)
                if error is None:
                    state[key] = value_of(result)
                return error, token
            return wrapped

        def replay(key, path, label):
            def check(result):
                value = _cli_value(result, path)
                token = _token(value)
                if key not in state:
                    return f"{label}: no library value to compare", token
                return _fail(rel_dev(value, state[key]) <= 1e-12,
                             f"{label}: CLI {value!r} vs library "
                             f"{state[key]!r}"), token
            return check

        yield Query("gls_norm", lambda: G.gls_norm(f, psi, space),
                    store("gls", _check_gls(f, psi, r), lambda res: res.value),
                    opens_cycle=j % self.REPRESENTATION_EVERY == 0)
        yield Query("associate_bound",
                    lambda: G.associate_bound(g, psi, space),
                    store("bound", _check_bound(g, psi, r),
                          lambda res: res.value))
        yield Query("luxemburg_norm", _lux_power(f, p),
                    store("lux", _check_lp(f, p), float))
        yield Query("bphi_norm", lambda: G.bphi_norm(xi, self.quadratic),
                    store("bphi", _check_bphi(xi), float))
        yield Query("cli.gnorm",
                    lambda: _cli(["gnorm", "--input", f_json, "--psi", desc]),
                    replay("gls", ("result", "value"), "gnorm"))

        def check_oracle(value):
            token = _token(value)
            if "bound" not in state:
                return "oracle: no bound to compare", token
            bound = state["bound"]
            if not value <= bound + 1e-8:
                return f"oracle {value!r} above bound {bound!r}", token
            if r is not None and not bound - value <= 1e-4:
                return f"extremal oracle gap {bound - value!r}", token
            return None, token
        yield Query("associate_norm_oracle",
                    lambda: G.associate_norm_oracle(g, psi, space),
                    store("oracle", check_oracle, float))

        def check_step(value):
            ref = math.fsum(c * math.fsum(gv[i] * w[i] for i in d)
                            for c, d in zip(step.coefficients, step.sets))
            return _fail(abs(value - ref) <= 1e-12 * (1 + abs(ref)),
                         f"step integral {value!r} vs {ref!r}"), _token(value)
        yield Query("step_integral", lambda: G.step_integral(step, gamma),
                    check_step)
        yield Query("cli.dual-bound",
                    lambda: _cli(["dual-bound", "--input", g_json,
                                  "--psi", desc]),
                    replay("bound", ("result", "value"), "dual-bound"))

        def check_setnorm(value):
            token = _token(value)
            if "oracle" not in state:
                return "setfunction_norm: no oracle to compare", token
            oracle = state["oracle"]
            return _fail(abs(value - oracle) <= 1e-5 * (1 + abs(value)),
                         f"setfunction_norm {value!r} vs oracle "
                         f"{oracle!r}"), token
        yield Query("setfunction_norm",
                    lambda: G.setfunction_norm(gamma, psi, space),
                    store("setnorm", check_setnorm, float))
        yield Query("cli.orlicz-norm",
                    lambda: _cli(["orlicz-norm", "--input", f_json,
                                  "--power", repr(p)]),
                    replay("lux", ("value",), "orlicz-norm"))

        # exact conjugate of |u|^p: (p - 1) p^(-q) |v|^q
        q = conj(p)
        coeff = (p - 1.0) * p ** (-q)

        def holder():
            return G.orlicz_holder_check(f, g, G.power_young(p), space,
                                         N_conj=G.power_young(q, coeff))

        def check_holder(rep):
            token = _token(rep.lhs, rep.rhs)
            ref_f = ref_lp(fv, w, p)
            ref_g = coeff ** (1.0 / q) * ref_lp(gv, w, q)
            if not rel_dev(rep.norm_f, ref_f) <= 1e-9:
                return f"holder: |f|_(N) {rep.norm_f!r} vs {ref_f!r}", token
            if not rel_dev(rep.norm_g, ref_g) <= 1e-9:
                return f"holder: |g|_(N*) {rep.norm_g!r} vs {ref_g!r}", token
            return _fail(rep.passed, "holder inequality reported failing"), \
                token
        yield Query("orlicz_holder_check", holder, check_holder)
        yield Query("cli.bphi-norm",
                    lambda: _cli(["bphi-norm", "--input", xi_json, "--phi",
                                  '{"family": "quadratic"}']),
                    replay("bphi", ("value",), "bphi-norm"))

        def check_membership(rep):
            error, token = _check_bphi(xi)(rep.bphi)
            if error is not None:
                return error, token
            ps = np.geomspace(1.0, 200.0, 4096)
            dense = max(ref_lp(xi.values, xi.probs, pp) / math.sqrt(pp)
                        for pp in ps[::16])
            return _fail(rep.grand >= dense * (1.0 - 1e-9),
                         f"membership: grand {rep.grand!r} below "
                         f"|xi|_p/sqrt(p) = {dense!r}"), \
                _token(rep.bphi, rep.grand)
        yield Query("membership_check",
                    lambda: G.membership_check(xi, self.quadratic,
                                               psi=self.companion),
                    check_membership)
        yield Query("cli.setnorm",
                    lambda: _cli(["setnorm", "--input", gamma_json,
                                  "--psi", desc]),
                    replay("setnorm", ("value",), "setnorm"))
        yield Query("cli.dual-oracle",
                    lambda: _cli(["dual-oracle", "--input", g_json,
                                  "--psi", desc]),
                    replay("oracle", ("oracle",), "dual-oracle"))
        if j % self.REPRESENTATION_EVERY == 0:
            def check_representation(rep):
                token = _token(rep.oracle, rep.setnorm)
                magnitude = max(abs(rep.oracle), abs(rep.setnorm))
                return _fail(rep.passed and rep.difference
                             <= 1e-5 * (1.0 + magnitude),
                             f"representation gap {rep.difference!r}"), token
            yield Query("verify_representation",
                        lambda: G.verify_representation(g, psi, space,
                                                        check_growth=False),
                        check_representation)


def _check_bphi(xi) -> Check:
    def check(value):
        ref = ref_bphi_quadratic(xi.values, xi.probs)
        error = _fail(rel_dev(value, ref) <= 2e-8,
                      f"bphi_norm {value!r} vs grid reference {ref!r}")
        return error, _token(value)
    return check


WORKLOADS = {cls.name: cls for cls in (WideAtoms, YoungTables, SmallBatch)}
