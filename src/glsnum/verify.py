"""One ordered registry of seeded checks C01-C13 of the package's identities.

Each check `run(rng, n)` draws n instances from `rng`, never asserts, and
returns `passed` with its worst figures and their tolerances.  The acceptance
battery runs check k at its full count with `default_rng(100 + k)`; `glsnum
verify --seed S` runs all of them at their compact counts from one
`default_rng(S)`, in order, so one seed always gives the same report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from glsnum.bphi import bphi_norm, discretized_normal, quadratic_phi, \
    rademacher, two_point
from glsnum.convex import (RealFunction1D, check_growth_condition, h_of,
                           young_fenchel, young_fenchel_table)
from glsnum.duality import (SetFunction, StepFunction, associate_bound,
                            associate_norm_oracle, setfunction_norm,
                            step_integral)
from glsnum.glnorm import gls_norm
from glsnum.measure import integrate, lp_norm, probability_space
from glsnum.orlicz import (build_N, conjugate_young_function,
                           conjugate_young_point, luxemburg_norm,
                           orlicz_holder_check, power_young)
from glsnum.psi import (SLOWLY_VARYING, adjacent, conjugate_exponent,
                        make_exp_psi, make_extremal_psi, make_power_psi,
                        make_sv_psi)

__all__ = ["run_verification_suite"]


@dataclass(frozen=True)
class _Check:
    name: str
    title: str
    run: Callable[[np.random.Generator, int], dict]
    full: int
    compact: int


_REGISTRY: list[_Check] = []


def _check(title: str, full: int, compact: int):
    """Register the decorated check as the next criterion C01, C02, ..."""
    def register(run):
        name = f"C{len(_REGISTRY) + 1:02d}"
        _REGISTRY.append(_Check(name, title, run, full, compact))
        return run
    return register


def _report(ok: bool = True, **figures) -> dict:
    """Passed when ok holds and every (worst, tolerance) figure has
    worst <= tolerance; any other figure is reported as it is."""
    bounded = {k: v for k, v in figures.items() if isinstance(v, tuple)}
    return {"passed": bool(ok and all(w <= t for w, t in bounded.values())),
            "tolerances": {k: t for k, (_, t) in bounded.items()},
            **{k: v[0] if isinstance(v, tuple) else v
               for k, v in figures.items()}}


def _random_space(rng: np.random.Generator, max_atoms: int = 16,
                  min_atoms: int = 2):
    n = int(rng.integers(min_atoms, max_atoms + 1))
    return probability_space(rng.uniform(0.2, 1.0, size=n))


def _random_function(rng: np.random.Generator, space, lo=-3.0, hi=3.0):
    return space.function(rng.uniform(lo, hi, size=space.n_atoms))


def _families() -> list:
    # three flat, three power, one slowly varying, one exponential
    return [make_extremal_psi(2.0), make_extremal_psi(3.0),
            make_extremal_psi(5.0), make_power_psi(1.0), make_power_psi(2.0),
            make_power_psi(4.0),
            make_sv_psi(2.0, SLOWLY_VARYING["log"], label="sv"),
            make_exp_psi(1.0, 1.0)]


@_check("grand norm == L_r and bound == dual L_r' for flat psi", 20, 6)
def _flat_psi_identities(rng, n):
    worst_norm = worst_bound = 0.0
    for _ in range(n):
        space = _random_space(rng)
        f, g = _random_function(rng, space), _random_function(rng, space)
        for r in (2.0, 3.0, 5.0):
            psi = make_extremal_psi(r)
            worst_norm = max(worst_norm, abs(gls_norm(f, psi, space).value
                                             - lp_norm(f, r, space)))
            worst_bound = max(worst_bound, abs(
                associate_bound(g, psi, space).value
                - lp_norm(g, conjugate_exponent(r), space)))
    return _report(norm_dev=(worst_norm, 1e-9),
                   bound_dev=(worst_bound, 1e-6))


@_check("adjacent function of power psi matches ((q-1)/q)^(1/m)", 100, 50)
def _adjacent_closed_form(rng, n):
    qs = np.geomspace(1.01, 150.0, n)
    worst = 0.0
    for m in (1.0, 2.0, 4.0):
        expected = ((qs - 1.0) / qs) ** (1.0 / m)
        nu = adjacent(make_power_psi(m))
        worst = max(worst, float(np.max(np.abs(nu(qs) - expected))))
    return _report(dev=(worst, 1e-12))


@_check("pairing oracle <= exponent-scan bound", 500, 24)
def _oracle_bound_bracket(rng, n):
    psis = _families()[:6]
    worst_excess = -math.inf
    worst_flat_gap = 0.0
    for i in range(n):
        psi = psis[i % len(psis)]
        space = _random_space(rng, max_atoms=12)
        g = _random_function(rng, space)
        bound = associate_bound(g, psi, space).value
        oracle = associate_norm_oracle(g, psi, space)
        worst_excess = max(worst_excess, oracle - bound)
        if psi.label.startswith("extremal"):
            worst_flat_gap = max(worst_flat_gap, bound - oracle)
    return _report(excess=(worst_excess, 1e-8),
                   flat_psi_gap=(worst_flat_gap, 1e-4))


@_check("two-norm product bound on random triples", 1000, 200)
def _holder_inequality(rng, n):
    worst = -math.inf
    for _ in range(n):
        space = _random_space(rng)
        f, g = _random_function(rng, space), _random_function(rng, space)
        p = float(np.exp(rng.uniform(0.0, 3.0)))
        lhs = abs(integrate(space.function(f.value_array * g.value_array),
                            space))
        rhs = lp_norm(f, p, space) * lp_norm(g, conjugate_exponent(p), space)
        worst = max(worst, lhs - rhs)
    return _report(excess=(worst, 1e-10))


@_check("conjugate: self-dual quadratic, pair bound, biconjugate", 500, 100)
def _convex_conjugate(rng, n):
    quad = RealFunction1D(lo=-60.0, hi=60.0, fn=lambda z: 0.5 * z ** 2,
                          label="z^2/2")
    worst_sq = float(max(abs(young_fenchel(quad, float(v)) - 0.5 * v ** 2)
                         for v in np.linspace(-50.0, 50.0, 101)))
    worst_fy = -math.inf
    for psi in (make_power_psi(2.0), make_extremal_psi(3.0)):
        h = h_of(psi)
        zs = rng.uniform(h.lo, min(h.hi, 50.0), size=n)
        vs = rng.uniform(-2.0, 10.0, size=n)
        conj, _, _ = young_fenchel_table(h, vs)
        worst_fy = max(worst_fy, float(np.max(vs * zs - (h(zs) + conj))))
    worst_bi = -math.inf
    vgrid = np.linspace(-2.0, 30.0, 257)
    for psi in _families():
        h = h_of(psi)
        conj, _, _ = young_fenchel_table(h, vgrid)
        zs = np.linspace(h.lo, min(h.hi, 200.0), 64)
        finite = np.isfinite(conj)
        bicon = np.max(np.outer(zs, vgrid[finite]) - conj[finite][None, :],
                       axis=1)
        worst_bi = max(worst_bi, float(np.max(bicon - h(zs))))
    return _report(quadratic_dev=(worst_sq, 1e-8),
                   pair_excess=(worst_fy, 1e-9),
                   double_transform_excess=(worst_bi, 1e-8))


@_check("exponential Young: u^r identity, branch jump, N(0) == 0", 128, 32)
def _exponential_young(rng, n):
    us = np.geomspace(math.e, 100.0, n)
    worst_rel = 0.0
    for r in (2.0, 3.0, 5.0):
        N = build_N(make_extremal_psi(r))
        worst_rel = max(worst_rel,
                        float(np.max(np.abs(N(us) / us ** r - 1.0))))
    worst_jump = 0.0
    zero_at_zero = True
    for psi in _families():
        N = build_N(psi)
        zero_at_zero = zero_at_zero and float(N(0.0)) == 0.0
        worst_jump = max(worst_jump, abs(float(N(math.e * (1.0 + 1e-13)))
                                         - float(N(math.e * (1.0 - 1e-13)))))
    return _report(zero_at_zero, power_rel_dev=(worst_rel, 1e-6),
                   branch_jump=(worst_jump, 1e-9), zero_at_zero=zero_at_zero)


@_check("Luxemburg norm == L_p for power Young functions", 200, 20)
def _luxemburg_on_powers(rng, n):
    worst_dev = worst_int = 0.0
    for _ in range(n):
        space = _random_space(rng)
        f = _random_function(rng, space)
        p = float(rng.uniform(1.0, 6.0))
        N = power_young(p)
        k = luxemburg_norm(f, N, space)
        worst_dev = max(worst_dev, abs(k - lp_norm(f, p, space)))
        at_solution = integrate(space.function(np.asarray(
            N(np.abs(f.value_array) / k), dtype=float)), space)
        worst_int = max(worst_int, abs(at_solution - 1.0))
    return _report(norm_dev=(worst_dev, 1e-9),
                   unit_integral_dev=(worst_int, 1e-6))


@_check("N*(y) / (y ln^(1/m)(e+y)) in [0.1, 10], spread <= 10", 25, 7)
def _conjugate_growth(rng, n):
    worst_spread = 0.0
    low, high = math.inf, 0.0
    for m in (1.0, 2.0):
        N = build_N(make_power_psi(m))
        ratios = [conjugate_young_point(N, float(y)).value
                  / (y * math.log(math.e + y) ** (1.0 / m))
                  for y in np.geomspace(10.0, 1e4, n)]
        worst_spread = max(worst_spread, max(ratios) / min(ratios))
        low, high = min(low, min(ratios)), max(high, max(ratios))
    return _report(low >= 0.1, spread=(worst_spread, 10.0),
                   ratio_high=(high, 10.0), ratio_low=low)


@_check("factor-2 Orlicz product bound", 1000, 40)
def _orlicz_holder(rng, n):
    N = build_N(make_power_psi(2.0))
    N_conj = conjugate_young_function(N)
    worst = worst_ratio = -math.inf
    for _ in range(n):
        space = _random_space(rng, max_atoms=12)
        f, g = _random_function(rng, space), _random_function(rng, space)
        rep = orlicz_holder_check(f, g, N, space, N_conj=N_conj)
        worst = max(worst, rep.lhs - rep.rhs)
        worst_ratio = max(worst_ratio, rep.ratio)
    return _report(excess=(worst, 1e-6), ratio=(worst_ratio, 1.0 + 1e-6))


@_check("growth checker: exact power thresholds, log refuted", 400, 400)
def _growth_checker(rng, n):
    xs = np.geomspace(1e-3, 1e6, n)
    worst = [0.0, 0.0]  # on the default grid and on xs
    power_ok = True
    for m in (1.0, 2.0, 3.0):
        V = lambda x, m=m: x ** m
        alpha = 2.0 ** (-m)
        for i, grid in enumerate((None, xs)):
            at = check_growth_condition(V, 2.0, alpha, x_grid=grid)
            below = check_growth_condition(V, 2.0, alpha - 1e-3, x_grid=grid)
            power_ok = power_ok and at.passed and not below.passed
            worst[i] = max(worst[i], abs(at.worst_ratio - alpha))
    log_refuted = not any(
        check_growth_condition(np.log1p, 2.0, alpha, x_grid=xs).passed
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.85, 0.9, 0.94))
    return _report(power_ok and log_refuted, threshold_dev=(worst[0], 1e-12),
                   threshold_dev_on_grid=(worst[1], 1e-12),
                   power_cases_ok=power_ok, log_refuted=log_refuted)


@_check("set-function norm matches the density oracle", 100, 6)
def _setfunction_representation(rng, n):
    psi = make_power_psi(2.0)
    worst = 0.0
    for _ in range(n):
        space = _random_space(rng, max_atoms=12)
        g = _random_function(rng, space)
        oracle = associate_norm_oracle(g, psi, space)
        setnorm = setfunction_norm(SetFunction.from_density(g, space), psi,
                                   space)
        worst = max(worst, abs(setnorm - oracle)
                    / (1.0 + max(abs(oracle), abs(setnorm))))
    space = _random_space(rng, max_atoms=8, min_atoms=4)
    gamma = SetFunction.from_density(_random_function(rng, space), space)
    mu = gamma.atom_values.tolist()
    fixed_exact = step_integral(StepFunction((2.0, -0.5), ((0, 1), (2,))),
                                gamma) == 2.0 * (mu[0] + mu[1]) - 0.5 * mu[2]
    perm = [int(i) for i in rng.permutation(space.n_atoms)]
    lo, hi = tuple(perm[:len(perm) // 2]), tuple(perm[len(perm) // 2:])
    direct = 1.5 * sum(mu[i] for i in lo) - 0.5 * sum(mu[i] for i in hi)
    step_dev = abs(step_integral(StepFunction((1.5, -0.5), (lo, hi)), gamma)
                   - direct)
    return _report(fixed_exact, scaled_dev=(worst, 1e-5),
                   step_dev=(step_dev, 1e-12), fixed_step_exact=fixed_exact)


@_check("mgf-ball norms: two-point, normal, homogeneity", 100, 10)
def _mgf_ball_norms(rng, n):
    phi = quadratic_phi()
    rad = bphi_norm(rademacher(), phi)
    normal = bphi_norm(discretized_normal(401, 8.0), phi)
    worst_rel = worst_abs = 0.0
    for _ in range(n):
        xi = two_point(float(rng.uniform(0.5, 3.0)),
                       float(rng.uniform(0.1, 0.9)))
        c = float(np.exp(rng.uniform(-3.0, 3.0)))
        base = bphi_norm(xi, phi)
        dev = abs(bphi_norm(xi.scaled(c), phi) - c * base)
        worst_rel = max(worst_rel, dev / (c * base))
        worst_abs = max(worst_abs, dev)
    return _report(abs(rad - 1.0) <= 1e-6 and 0.99 <= normal <= 1.01,
                   rademacher=rad, normal=normal,
                   homogeneity_rel_dev=(worst_rel, 1e-6),
                   homogeneity_abs_dev=(worst_abs, 1e-6))


@_check("grand-norm homogeneity and triangle inequality", 1000, 96)
def _grand_norm_axioms(rng, n):
    families = _families()
    worst_rel = worst_abs = 0.0
    worst_tri = -math.inf
    for i in range(n):
        psi = families[i % len(families)]
        space = _random_space(rng, max_atoms=12)
        f, g = _random_function(rng, space), _random_function(rng, space)
        c = float(np.exp(rng.uniform(-2.0, 2.0)))
        nf = gls_norm(f, psi, space).value
        ng = gls_norm(g, psi, space).value
        worst_tri = max(worst_tri,
                        gls_norm(f + g, psi, space).value - (nf + ng))
        dev = abs(gls_norm(c * f, psi, space).value - c * nf)
        worst_rel = max(worst_rel, dev / (1.0 + c * nf))
        worst_abs = max(worst_abs, dev)
    return _report(homogeneity_rel_dev=(worst_rel, 1e-9),
                   homogeneity_abs_dev=(worst_abs, 1e-9),
                   triangle_excess=(worst_tri, 1e-9))


def run_verification_suite(seed: int) -> dict:
    """Run every check at its compact count from one `default_rng(seed)`."""
    rng = np.random.default_rng(seed)
    checks = {c.name: {"title": c.title} | c.run(rng, c.compact)
              for c in _REGISTRY}
    return {"seed": seed, "checks": checks,
            "all_passed": all(c["passed"] for c in checks.values()),
            "n_checks": len(checks)}
