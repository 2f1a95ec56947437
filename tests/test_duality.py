"""Associate-norm machinery: the exponent-scan upper bound, the unit-ball
pairing oracle, set functions on the finite algebra, and the representation /
dual-bound reports."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsnum import (
    SetFunction,
    StepFunction,
    adjacent,
    associate_bound,
    associate_norm_oracle,
    batch_embedding_check,
    conjugate_exponent,
    lp_norm,
    lp_norms,
    make_exp_psi,
    make_extremal_psi,
    make_power_psi,
    make_space,
    make_sv_psi,
    make_table_psi,
    probability_space,
    psi_from_phi,
    quadratic_phi,
    setfunction_norm,
    step_integral,
    theorem_bound_check,
    verify_representation,
)
import glsnum.duality
import glsnum.psi
from conftest import (full_scan, random_function, random_space,
                      scan_function, scan_psi)

SV_LOG = lambda p: np.log(math.e - 1.0 + np.asarray(p, dtype=float))


# ---------------------------------------------------------------------------
# associate_bound
# ---------------------------------------------------------------------------

def test_bound_is_dual_lp_norm_for_extremal(rng):
    # psi == 1 on [1, r] has adjacent function == 1 from r' = r/(r-1) on,
    # so the infimum sits at q = r' and the bound is the plain dual norm
    for r in (2.0, 3.0, 5.0):
        psi = make_extremal_psi(r)
        r_conj = conjugate_exponent(r)
        for _ in range(5):
            space = random_space(rng)
            g = random_function(rng, space)
            res = associate_bound(g, psi, space)
            assert res.value == pytest.approx(lp_norm(g, r_conj, space),
                                              rel=1e-9)
            assert res.arginf_q == pytest.approx(r_conj, rel=1e-6)
            assert not res.hit_cap


def test_bound_scaling(rng):
    space = random_space(rng)
    g = random_function(rng, space)
    psi = make_power_psi(2.0)
    one = associate_bound(g, psi, space).value
    three = associate_bound(3.0 * g, psi, space).value
    assert three == pytest.approx(3.0 * one, rel=1e-12)


def test_bound_zero_density(rng):
    space = random_space(rng)
    res = associate_bound(space.function(np.zeros(space.n_atoms)),
                          make_power_psi(2.0), space)
    assert res.value == 0.0


def test_bound_takes_small_exponent_for_rare_large_value():
    # a near-degenerate two-atom space with one rare large value: the scan
    # wants a small exponent (the weight of the big atom barely registers in
    # low moments)
    space = probability_space([0.999, 0.001])
    g = space.function([0.1, 50.0])
    full = associate_bound(g, make_power_psi(1.0), space)
    assert full.arginf_q < 2.0
    assert full.value == pytest.approx(1.30995, rel=1e-4)


def test_bound_under_exp_psi_is_silent():
    # psi at conjugate exponents of q near 1 overflows exp; nu is then 0
    space = make_space([0.5, 0.5])
    g = space.function([1.0, -2.0])
    psi = make_exp_psi(1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        unfiltered = associate_bound(g, psi, space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert associate_bound(g, psi, space) == unfiltered


def test_bound_result_to_dict(rng):
    space = random_space(rng)
    g = random_function(rng, space)
    d = associate_bound(g, make_power_psi(2.0), space).to_dict()
    assert set(d) == {"value", "arginf_q", "hit_cap"}
    assert isinstance(d["hit_cap"], bool)


@given(g=scan_function(), psi=scan_psi())
@settings(max_examples=150, deadline=None)
def test_pruned_scan_matches_full_scan(g, psi):
    # the pruned scan of the bound against the full 256-node scan: the same
    # node and value, except among nodes tied within 4 ulp (a row's kernel
    # sum may differ in the last bit with the rows that share its block)
    slack = 4 * np.finfo(float).eps
    res = associate_bound(g, psi)
    with mock.patch.object(glsnum.duality, "_scan_norms", full_scan):
        full = associate_bound(g, psi)
    nu = adjacent(psi)
    qs = nu.scan_grid(glsnum.duality.DEFAULT_GRID)[0]
    with np.errstate(divide="ignore", over="ignore"):
        nu_vals = nu(qs)
        objective = np.where(nu_vals > 0, lp_norms(g, qs) / nu_vals, np.inf)
    best = np.min(objective)
    if np.count_nonzero(objective <= best * (1.0 + slack)) > 1:
        assert res.value == pytest.approx(full.value, rel=slack, abs=0.0)
    else:
        assert (res.value, res.arginf_q) == (full.value, full.arginf_q)
    assert res.hit_cap == full.hit_cap


# ---------------------------------------------------------------------------
# the pairing oracle against the bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("psi_factory", [
    lambda: make_extremal_psi(3.0),
    lambda: make_power_psi(1.0),
    lambda: make_power_psi(2.0),
    lambda: make_sv_psi(2.0, SV_LOG),
])
def test_oracle_never_exceeds_bound(rng, psi_factory):
    psi = psi_factory()
    for _ in range(6):
        space = random_space(rng, max_atoms=8)
        g = random_function(rng, space)
        bound = associate_bound(g, psi, space).value
        oracle = associate_norm_oracle(g, psi, space)
        assert oracle <= bound + 1e-8 * (1.0 + bound)


def test_oracle_tight_for_extremal(rng):
    # against L_r the associate norm IS the dual norm; the seeded ascent
    # reaches it through the Hoelder-equality profile
    psi = make_extremal_psi(3.0)
    for _ in range(6):
        space = random_space(rng, max_atoms=8)
        g = random_function(rng, space)
        bound = associate_bound(g, psi, space).value
        oracle = associate_norm_oracle(g, psi, space)
        assert bound - oracle <= 1e-4 * (1.0 + bound)


@st.composite
def _flat_psi_instances(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    r = draw(st.floats(min_value=1.5, max_value=6.0))
    weights = draw(st.lists(st.floats(min_value=0.2, max_value=1.0),
                            min_size=n, max_size=n))
    g = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                      min_size=n, max_size=n))
    return r, weights, g


@given(_flat_psi_instances())
@settings(max_examples=40, deadline=None)
def test_oracle_certified_tight_for_extremal(instance):
    # under flat psi a seed meets the adjacent-function bound to the polish
    # tolerance, and the oracle returns it: bound and oracle bracket the
    # associate norm to within 1e-10 relative
    r, weights, values = instance
    psi = make_extremal_psi(r)
    space = probability_space(weights)
    g = space.function(values)
    bound = associate_bound(g, psi, space).value
    oracle = associate_norm_oracle(g, psi, space)
    assert bound * (1.0 - 1e-10) <= oracle <= bound * (1.0 + 1e-12)


def test_oracle_zero_density(rng):
    space = random_space(rng)
    z = space.function(np.zeros(space.n_atoms))
    assert associate_norm_oracle(z, make_power_psi(2.0), space) == 0.0


def test_oracle_scaling(rng):
    space = random_space(rng, max_atoms=6)
    g = random_function(rng, space)
    psi = make_power_psi(2.0)
    one = associate_norm_oracle(g, psi, space)
    five = associate_norm_oracle(5.0 * g, psi, space)
    assert five == pytest.approx(5.0 * one, rel=1e-6)


# ---------------------------------------------------------------------------
# set functions and step functions
# ---------------------------------------------------------------------------

def test_setfunction_validation():
    space = probability_space([0.25, 0.25, 0.5])
    with pytest.raises(ValueError, match="atom values"):
        SetFunction(space, (1.0, 2.0))
    with pytest.raises(ValueError, match="finite"):
        SetFunction(space, (1.0, math.inf, 0.0))


def test_setfunction_from_density_and_of():
    space = probability_space([0.25, 0.25, 0.5])
    g = space.function([2.0, -4.0, 1.0])
    gamma = SetFunction.from_density(g, space)
    assert np.array_equal(gamma.atom_values, [0.5, -1.0, 0.5])
    assert not gamma.atom_values.flags.writeable
    assert gamma.of([0]) == 0.5
    assert gamma.of([0, 2]) == 1.0
    assert gamma.of([]) == 0.0
    assert gamma.total == pytest.approx(0.0)
    with pytest.raises(ValueError, match="repeated"):
        gamma.of([1, 1])
    with pytest.raises(ValueError, match="out of range"):
        gamma.of([3])


def test_stepfunction_validation():
    with pytest.raises(ValueError, match="one coefficient per set"):
        StepFunction((1.0,), ((0,), (1,)))
    with pytest.raises(ValueError, match="repeated atom inside"):
        StepFunction((1.0,), ((0, 0),))
    with pytest.raises(ValueError, match="overlap on atoms"):
        StepFunction((1.0, 2.0), ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="finite"):
        StepFunction((math.nan,), ((0,),))


def test_step_integral_matches_direct_sum():
    space = probability_space([0.1, 0.2, 0.3, 0.4])
    gamma = SetFunction(space, (1.0, -2.0, 0.5, 3.0))
    phi = StepFunction((2.0, -1.0), ((0, 3), (1,)))
    # 2 * (1 + 3) + (-1) * (-2)
    assert step_integral(phi, gamma) == 10.0


def test_setfunction_norm_equals_oracle_on_induced_gamma(rng):
    # gamma(A) = integral_A g dmu carries exactly the pairing weights
    # g_i w_i, so both optimizations coincide
    psi = make_power_psi(2.0)
    for _ in range(4):
        space = random_space(rng, max_atoms=6)
        g = random_function(rng, space)
        gamma = SetFunction.from_density(g, space)
        direct = associate_norm_oracle(g, psi, space)
        vianorm = setfunction_norm(gamma, psi, space)
        assert vianorm == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_setfunction_norm_space_mismatch():
    space_a = probability_space([0.5, 0.5])
    space_b = probability_space([0.4, 0.6])
    gamma = SetFunction(space_a, (1.0, 2.0))
    with pytest.raises(ValueError, match="not defined on the given space"):
        setfunction_norm(gamma, make_power_psi(2.0), space_b)


# ---------------------------------------------------------------------------
# representation and the dual bound
# ---------------------------------------------------------------------------

def test_verify_representation_power_family(rng):
    psi = make_power_psi(2.0)
    for _ in range(3):
        space = random_space(rng, max_atoms=6)
        g = random_function(rng, space)
        rep = verify_representation(g, psi, space, growth_alpha=0.25)
        assert rep.passed, rep.to_dict()
        assert rep.difference <= 1e-5 * (1.0 + max(rep.oracle, rep.setnorm))
        assert rep.growth is not None
        assert rep.growth.passed


def test_verify_representation_without_growth(rng):
    space = random_space(rng, max_atoms=5)
    g = random_function(rng, space)
    rep = verify_representation(g, make_power_psi(1.0), space,
                                check_growth=False)
    assert rep.growth is None
    d = rep.to_dict()
    assert "growth" not in d
    assert set(d) == {"oracle", "setnorm", "difference", "passed"}


def test_theorem_bound_check(rng):
    # ||f||_(N) <= c_high ||f||_G on the sampled batch, so with a modest
    # safety factor the conjugate-Orlicz bound 2 c ||g||_(N*) must dominate
    # the pairing oracle; an absurdly small constant must flip it to failing
    psi = make_power_psi(2.0)
    space = random_space(rng, max_atoms=6)
    batch = [random_function(rng, space) for _ in range(30)]
    c_high = batch_embedding_check(batch, psi, space).c_high
    g = random_function(rng, space)
    rep = theorem_bound_check(g, psi, 1.2 * c_high, space)
    assert rep.passed, rep.to_dict()
    assert rep.margin >= -1e-6
    assert set(rep.to_dict()) == {"oracle", "bound", "margin", "passed"}
    assert not theorem_bound_check(g, psi, 1e-9 * c_high, space).passed


# ---------------------------------------------------------------------------
# the climb's bookkeeping: one grand-norm scan per iterate, pinned outputs
# ---------------------------------------------------------------------------

# (name, psi factory, weights, density g, set-function atom values,
#  float.hex of the oracle on g, float.hex of the set-function norm).
# The pins are exact bits of one numpy build on one CPU family (vectorized
# exp/log may round differently elsewhere); where they differ, recompute them
# at the parent commit of the change under test.
_PINNED = [
    ("extremal", lambda: make_extremal_psi(3.0), [0.2, 0.3, 0.1, 0.4],
     [1.5, -0.4, 2.2, 0.7], [0.3, -1.1, 0.8, 0.05],
     "0x1.00aa180bdea95p+0", "0x1.69e786f79e195p+1"),
    ("power-2", lambda: make_power_psi(2.0),
     [0.5, 1.0, 0.25, 0.75, 1.5, 0.125],
     [2.5, -1.25, 0.5, 3.0, -0.1, 1.75], [0.6, 0.2, -0.9, 1.3, 0.45, -0.3],
     "0x1.7ffffffffffffp+1", "0x1.85a1873ec1be6p+1"),
    ("power-1", lambda: make_power_psi(1.0), [1.0] * 12,
     [0.1 * k - 0.55 + 0.013 * k * k for k in range(12)],
     [(-1.0) ** k * (0.2 + 0.07 * k) for k in range(12)],
     "0x1.0fbe76c8b4396p+1", "0x1.f0a3d6400b51cp-1"),
    ("table", lambda: make_table_psi([1.0, 2.0, 5.0, 20.0, 200.0],
                                     [1.0, 1.2, 1.5, 2.4, 4.0]),
     [0.1, 0.2, 0.3, 0.15, 0.25], [3.0, -0.5, 1.0, 0.25, -2.0],
     [0.5, 0.5, -0.25, 1.5, 0.75],
     "0x1.c86d48b38fd67p+0", "0x1.53b135e0ec4d2p+2"),
    ("companion", lambda: psi_from_phi(quadratic_phi()), [0.3, 0.3, 0.4],
     [1.0, -2.0, 0.5], [0.7, 0.1, -0.4],
     "0x1.b72b03c9a09d3p+0", "0x1.f9ff8ee46fbefp+0"),
    ("power-3-two-atoms", lambda: make_power_psi(3.0), [0.7, 0.3],
     [4.0, -1.0], [0.2, 0.9],
     "0x1.ff99ac7c1ab1cp+1", "0x1.029c65a1691d3p+1"),
]


def _pinned_inputs(case):
    _, factory, weights, g, atoms, _, _ = case
    space = make_space(weights)
    return factory(), space, space.function(g), SetFunction(space,
                                                           tuple(atoms))


def _record_scans(monkeypatch):
    """Swap the grand norm of the oracle for one that records the (point,
    grid) key of every scan; returns the list it appends to."""
    keys = []
    real = glsnum.duality.gls_norm

    def recording(f, psi, space, grid):
        keys.append((f.value_array.tobytes(), grid))
        return real(f, psi, space, grid)

    monkeypatch.setattr(glsnum.duality, "gls_norm", recording)
    return keys


@pytest.mark.parametrize("case", [c for c in _PINNED
                                  if c[0] != "companion"],
                         ids=lambda c: c[0])
def test_oracle_scores_each_iterate_once(monkeypatch, case):
    # every grand-norm scan inside one oracle or set-function-norm call is
    # of a new (point, grid) pair: the climb reuses the score it holds (the
    # slow companion case runs the same climb and is left out)
    keys = _record_scans(monkeypatch)
    psi, space, g, gamma = _pinned_inputs(case)
    for run in (lambda: associate_norm_oracle(g, psi, space),
                lambda: setfunction_norm(gamma, psi, space)):
        keys.clear()
        run()
        assert keys
        assert len(set(keys)) == len(keys)


def test_oracle_skips_the_climb_once_a_seed_meets_the_bound(monkeypatch):
    # flat psi: a Hoelder-extremal seed attains the adjacent-function bound,
    # so only the seeds are scored, each once, on the caller's grid; under
    # power psi (relative gap 1.1e-3 here) the coarse-grid climb still runs
    keys = _record_scans(monkeypatch)
    cases = {c[0]: c for c in _PINNED}
    # the sign and density seeds and at most _SEED_EXPONENTS + 1 profiles
    n_seeds = glsnum.duality._SEED_EXPONENTS + 3
    psi, space, g, gamma = _pinned_inputs(cases["extremal"])
    for run in (lambda: associate_norm_oracle(g, psi, space),
                lambda: setfunction_norm(gamma, psi, space)):
        keys.clear()
        run()
        assert keys
        assert {grid for _, grid in keys} == {glsnum.duality.DEFAULT_GRID}
        assert len(keys) <= n_seeds
    psi, space, g, _ = _pinned_inputs(cases["power-2"])
    keys.clear()
    associate_norm_oracle(g, psi, space)
    assert any(grid.points == 96 for _, grid in keys)


@pytest.mark.parametrize("case", _PINNED, ids=lambda c: c[0])
def test_oracle_and_setfunction_norm_pinned(case):
    # bit-level pins of both optimizations; a change to the climb, its
    # seeds, grids or scoring that moves any output bit shows here
    psi, space, g, gamma = _pinned_inputs(case)
    assert associate_norm_oracle(g, psi, space).hex() == case[5]
    assert setfunction_norm(gamma, psi, space).hex() == case[6]


# ---------------------------------------------------------------------------
# the seed order and the scan memo: counted grand-norm scans and grids
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("values, weights, pinned", [
    ([1.0, -1.0, 1.0], [0.2, 0.3, 0.5], "0x1.0000000000000p+0"),
    ([2.0, -2.0, 2.0, 2.0, -2.0, 2.0], [0.1] * 6, "0x1.fff0dbb232f38p+0"),
    ([2.0, -2.0, 2.0, 2.0, -2.0, 2.0], [0.5, 1.0, 0.25, 0.75, 1.5, 0.125],
     "0x1.0000000000000p+1"),
])
def test_oracle_scores_each_distinct_seed_once(monkeypatch, values, weights,
                                               pinned):
    # under constant |g| the sign seed and every power profile are one
    # array: it is scored once, and the value keeps the bits it had when
    # every seed was scored
    keys = _record_scans(monkeypatch)
    space = make_space(weights)
    value = associate_norm_oracle(space.function(values), make_power_psi(2.0),
                                  space)
    assert len(set(keys)) == len(keys)
    assert value.hex() == pinned


def test_oracle_scores_one_seed_for_extremal(monkeypatch):
    # the Hoelder seed of the bound's minimizer is scored first and meets
    # the bound under flat psi: one scan on the caller's grid per call
    keys = _record_scans(monkeypatch)
    psi, space, g, gamma = _pinned_inputs(_PINNED[0])
    for run in (lambda: associate_norm_oracle(g, psi, space),
                lambda: setfunction_norm(gamma, psi, space)):
        keys.clear()
        run()
        assert [grid for _, grid in keys] == [glsnum.duality.DEFAULT_GRID]


def test_oracle_builds_each_grid_once(monkeypatch):
    # a fresh psi builds its full, 96-node climb and adjacent grids on the
    # first oracle call; later calls on the same psi read them from its memo
    psi, space, g, gamma = _pinned_inputs(
        next(c for c in _PINNED if c[0] == "power-2"))
    built = []
    real = glsnum.psi.interval_grid
    monkeypatch.setattr(glsnum.psi, "interval_grid",
                        lambda *a, **k: built.append(a[4]) or real(*a, **k))
    associate_norm_oracle(g, psi, space)
    assert 96 in built and len(built) <= 3
    built.clear()
    associate_norm_oracle(g, psi, space)
    setfunction_norm(gamma, psi, space)
    assert built == []


def test_scan_memo_is_read_only():
    psi = make_power_psi(2.0)
    for dual in (False, True):
        nodes, _, values, log_values = psi.scan(glsnum.duality.DEFAULT_GRID,
                                                dual)
        assert psi.scan(glsnum.duality.DEFAULT_GRID, dual)[0] is nodes
        for a in (nodes, values, log_values):
            with pytest.raises(ValueError):
                a[0] = 1.0
