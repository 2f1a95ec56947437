import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glsnum.duality
import glsnum.glnorm
import glsnum.psi
from conftest import (dense_gls_reference, full_scan, random_function,
                      random_space, scan_function, scan_psi)
from glsnum.duality import associate_bound
from glsnum.glnorm import (DEFAULT_GRID, FamilyUnitNormReport,
                           family_unit_norm_check, gls_norm)
from glsnum.measure import lp_norm, lp_norms, make_space, probability_space
from glsnum.psi import (adjacent, make_exp_psi, make_extremal_psi,
                        make_power_psi, make_sv_psi, make_table_psi)
from glsnum.search import GridSpec

SV_LOG = lambda p: np.log(math.e - 1.0 + np.asarray(p, dtype=float))


def test_extremal_recovers_lp(rng):
    # psi identically 1 on [1, r] on a probability space: the L_r norm
    for r in (2.0, 3.0, 5.0):
        psi = make_extremal_psi(r)
        for _ in range(5):
            space = random_space(rng)
            f = random_function(rng, space)
            res = gls_norm(f, psi, space)
            assert res.value == pytest.approx(lp_norm(f, r, space),
                                              abs=1e-12, rel=1e-12)
            assert res.argmax_p == pytest.approx(r, rel=1e-9)
            assert not res.hit_cap


def test_extremal_on_mass_above_one_is_max_of_end_norms():
    # ln |f|_p is convex in 1/p, so the sup over [1, r] sits at an end; on a
    # total mass above 1 the 1-norm can win
    space = make_space([1.5, 0.5])
    f = space.function([1.0, 0.2])
    res = gls_norm(f, make_extremal_psi(3.0), space)
    assert res.value == lp_norm(f, 1.0, space) == pytest.approx(1.6)
    assert lp_norm(f, 3.0, space) == pytest.approx(1.1457, rel=1e-4)
    assert res.argmax_p == 1.0


def test_zero_function():
    space = probability_space([0.5, 0.5])
    res = gls_norm(space.function([0.0, 0.0]), make_power_psi(2.0), space)
    assert res.value == 0.0


def test_argmax_invariant(rng):
    # reported value must equal |f|_p / psi(p) at the reported argmax
    psi = make_power_psi(2.0)
    for _ in range(10):
        space = random_space(rng)
        f = random_function(rng, space)
        res = gls_norm(f, psi, space)
        recomputed = lp_norm(f, res.argmax_p, space) / float(psi(res.argmax_p))
        assert res.value == pytest.approx(recomputed, rel=1e-14)


def test_against_dense_reference(rng):
    families = [make_power_psi(1.0), make_power_psi(2.0),
                make_sv_psi(2.0, SV_LOG, label="sv"),
                make_exp_psi(1.0, 1.0)]
    for psi in families:
        for _ in range(3):
            space = random_space(rng, max_atoms=10)
            f = random_function(rng, space)
            got = gls_norm(f, psi, space).value
            ref = dense_gls_reference(f, psi, space)
            # ours is scan+polish: never materially below the dense scan,
            # never above the true sup by more than solver noise
            assert got >= ref - 1e-9 * (1.0 + ref)
            assert got <= ref * (1.0 + 1e-6) + 1e-12


def test_hit_cap_flag():
    # slow psi growth pushes the maximizer past the cap
    space = probability_space([0.5, 0.5])
    f = space.function([1.0, 0.5])
    res = gls_norm(f, make_power_psi(1000.0), space)
    assert res.hit_cap
    res2 = gls_norm(f, make_power_psi(1.0), space)
    assert not res2.hit_cap


def test_custom_grid_spec(rng):
    space = random_space(rng)
    f = random_function(rng, space)
    psi = make_power_psi(2.0)
    coarse = gls_norm(f, psi, space, GridSpec(points=32, cap=100.0)).value
    fine = gls_norm(f, psi, space, GridSpec(points=1024, cap=200.0)).value
    assert coarse == pytest.approx(fine, rel=1e-6)


@given(c=st.floats(min_value=0.01, max_value=50.0),
       seed=st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=50, deadline=None)
def test_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, max_atoms=8)
    f = random_function(rng, space)
    psi = make_power_psi(2.0)
    assert gls_norm(c * f, psi, space).value == pytest.approx(
        c * gls_norm(f, psi, space).value, rel=1e-12, abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=50, deadline=None)
def test_triangle(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, max_atoms=8)
    f = random_function(rng, space)
    g = random_function(rng, space)
    psi = make_extremal_psi(3.0) if seed % 2 else make_power_psi(1.0)
    lhs = gls_norm(f + g, psi, space).value
    rhs = gls_norm(f, psi, space).value + gls_norm(g, psi, space).value
    assert lhs <= rhs + 1e-9


def test_family_unit_norm(rng):
    space = random_space(rng, max_atoms=8)
    family = [random_function(rng, space) for _ in range(4)]
    report = family_unit_norm_check(family, space)
    assert isinstance(report, FamilyUnitNormReport)
    assert report.deviation <= 1e-6
    assert all(n <= 1.0 + 1e-6 for n in report.member_norms)
    assert report.sup_norm == max(report.member_norms)


def test_family_unit_norm_scaled_pair():
    # {f, 2f}: the sup is attained by 2f and equals 1 exactly
    space = probability_space([0.25, 0.75])
    f = space.function([1.0, -0.5])
    report = family_unit_norm_check([f, 2.0 * f], space)
    assert report.member_norms[1] == pytest.approx(1.0, abs=1e-6)
    assert report.member_norms[0] == pytest.approx(0.5, abs=1e-6)


@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 4),
       n=st.integers(50, 3000))
@settings(max_examples=8, deadline=None)
def test_family_unit_norm_exact_envelope(seed, k, n):
    # against the exact envelope max_z |f_z|_p: the sup is 1 to 4 ulp, no
    # member exceeds it, and no member falls below its best ratio on a
    # 65,536-node log grid of [1, 200]
    rng = np.random.default_rng(seed)
    space = probability_space(rng.uniform(0.2, 1.0, n))
    family = [space.function(rng.uniform(0.7, 1.4) * rng.standard_t(3, n))
              for _ in range(k)]
    report = family_unit_norm_check(family, space)
    ulp4 = 4 * math.ulp(1.0)
    assert abs(report.sup_norm - 1.0) <= ulp4
    assert report.deviation <= ulp4
    rows = np.array([lp_norms(f, np.geomspace(1.0, 200.0, 65_536), space)
                     for f in family])
    dense = (rows / rows.max(axis=0)).max(axis=1)
    for norm, ref in zip(report.member_norms, dense):
        assert norm <= 1.0 + ulp4
        assert norm >= ref * (1.0 - 1e-9)


def test_family_unit_norm_kernel_calls(monkeypatch):
    # k members: k lp_norms calls over the 256 scan nodes, none over the
    # 4,096 table nodes, and no natural_function table
    calls = []
    for module in (glsnum.psi, glsnum.glnorm):
        real = module.lp_norms
        monkeypatch.setattr(module, "lp_norms",
                            lambda f, ps, *a, real=real:
                            calls.append(np.size(ps)) or real(f, ps, *a))

    def no_table(*args, **kwargs):
        raise AssertionError("natural_function was called")
    monkeypatch.setattr(glsnum.psi, "natural_function", no_table)
    monkeypatch.setattr(glsnum.glnorm, "natural_function", no_table,
                        raising=False)
    rng = np.random.default_rng(41)
    for k in (2, 3, 4):
        space = probability_space(rng.uniform(0.2, 1.0, 6000 // k))
        family = [space.function(rng.standard_t(3, 6000 // k))
                  for _ in range(k)]
        calls.clear()
        report = family_unit_norm_check(family, space)
        assert calls == [DEFAULT_GRID.points] * k
        assert report.sup_norm == 1.0


# ---------------------------------------------------------------------------
# the Newton polish of psi families that declare their log-slope
# ---------------------------------------------------------------------------

#: the scan's vector p-norms and the scalar p-norm that values are
#: recomputed with may differ in the last bits
KERNEL_SLACK = 4 * np.finfo(float).eps


@st.composite
def slope_psi(draw):
    kind = draw(st.sampled_from(["power", "exponential", "extremal"]))
    if kind == "power":
        return make_power_psi(draw(st.floats(1.0, 4.0)))
    if kind == "extremal":
        return make_extremal_psi(draw(st.floats(1.5, 6.0)))
    beta = draw(st.floats(0.25, 1.5))
    # C (200^beta - 1) stays below exp's overflow on the scan's [1, 200]
    return make_exp_psi(draw(st.floats(0.05, min(1.0, 600.0 / 200 ** beta))),
                        beta)


@st.composite
def lognormal_function(draw):
    """2-12 atoms with log-normal magnitudes (sigma 3) and random signs, on
    a probability space or a space of random total mass."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 12))
    weights = rng.uniform(0.1, 1.0, n)
    space = (probability_space(weights) if draw(st.booleans())
             else make_space(weights * rng.uniform(0.2, 3.0)))
    return space.function(np.exp(3.0 * rng.standard_normal(n))
                          * rng.choice([-1.0, 1.0], n))


@given(f=lognormal_function(), psi=slope_psi())
@settings(max_examples=150, deadline=None)
def test_newton_polish_gls_norm(f, psi):
    res = gls_norm(f, psi)
    assert res.value == lp_norm(f, res.argmax_p) / psi(res.argmax_p)
    ps = psi.scan_grid(DEFAULT_GRID)[0]
    grid_best = float(np.max(lp_norms(f, ps) / psi(ps)))
    assert res.value >= grid_best * (1.0 - KERNEL_SLACK)
    golden = gls_norm(f, dataclasses.replace(psi, log_slope=None))
    assert res.value == pytest.approx(golden.value, rel=1e-12, abs=0.0)


@given(g=lognormal_function(), psi=slope_psi())
@settings(max_examples=150, deadline=None)
def test_newton_polish_associate_bound(g, psi):
    res = associate_bound(g, psi)
    nu = adjacent(psi)
    assert res.value == lp_norm(g, res.arginf_q) / nu(res.arginf_q)
    qs = nu.scan_grid(DEFAULT_GRID)[0]
    with np.errstate(divide="ignore", over="ignore"):
        grid_best = float(np.min(lp_norms(g, qs) / nu(qs)))
    assert res.value <= grid_best * (1.0 + KERNEL_SLACK)
    golden = associate_bound(g, dataclasses.replace(psi, log_slope=None))
    assert res.value == pytest.approx(golden.value, rel=1e-12, abs=0.0)


def test_newton_polish_evaluation_count(monkeypatch):
    # a polish under power psi takes at most 8 p-norm or slope evaluations
    # (the value compare and recompute included); golden section took 40-43
    calls = []
    for name in ("lp_norm", "_log_norm_slopes"):
        real = getattr(glsnum.glnorm, name)
        monkeypatch.setattr(glsnum.glnorm, name,
                            lambda *a, real=real: calls.append(a) or real(*a))
    rng = np.random.default_rng(31)
    interior = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        space = probability_space(rng.uniform(0.1, 1.0, n))
        f = space.function(np.exp(3.0 * rng.standard_normal(n))
                           * rng.choice([-1.0, 1.0], n))
        calls.clear()
        res = gls_norm(f, make_power_psi(float(rng.uniform(1.0, 4.0))))
        assert len(calls) <= 8
        interior += 1.0 < res.argmax_p < 200.0
    assert interior >= 50


# ---------------------------------------------------------------------------
# the pruned p-norm scan
# ---------------------------------------------------------------------------

@given(f=scan_function(), psi=scan_psi())
@settings(max_examples=150, deadline=None)
def test_pruned_scan_matches_full_scan(f, psi):
    # the pruned scan evaluates every node that can hold the best value, so
    # it picks the full scan's node; a row's kernel sum may differ in the
    # last bit with the rows that share its block, so nodes tied within 4
    # ulp may trade places, and then only the value is pinned
    res = gls_norm(f, psi)
    with mock.patch.object(glsnum.glnorm, "_scan_norms", full_scan):
        full = gls_norm(f, psi)
    ps = psi.scan_grid(DEFAULT_GRID)[0]
    objective = lp_norms(f, ps) / psi(ps)
    best = np.max(objective)
    if np.count_nonzero(objective >= best * (1.0 - KERNEL_SLACK)) > 1:
        assert res.value == pytest.approx(full.value, rel=KERNEL_SLACK,
                                          abs=0.0)
    else:
        assert (res.value, res.argmax_p) == (full.value, full.argmax_p)
    assert res.hit_cap == full.hit_cap


def test_pruned_scan_node_count(monkeypatch):
    # on 1e5 Student-t atoms the scan passes at most 64 of its 256 nodes to
    # lp_norms under power and exponential psi (the full scan passes 256),
    # and finds the full scan's result
    nodes = []
    real = glsnum.glnorm.lp_norms
    monkeypatch.setattr(glsnum.glnorm, "lp_norms",
                        lambda f, ps, *a: nodes.append(np.size(ps))
                        or real(f, ps, *a))
    rng = np.random.default_rng(40)
    space = probability_space(rng.uniform(0.2, 1.0, 100_000))
    f = space.function(rng.standard_t(3, 100_000))
    for psi in (make_power_psi(2.0), make_exp_psi(0.1, 0.7)):
        for bound in (gls_norm, associate_bound):
            nodes.clear()
            res = bound(f, psi)
            assert 17 <= sum(nodes) <= 64
            with monkeypatch.context() as m:
                m.setattr(glsnum.glnorm, "_scan_norms", full_scan)
                m.setattr(glsnum.duality, "_scan_norms", full_scan)
                assert bound(f, psi) == res


# ---------------------------------------------------------------------------
# the per-psi scan memo
# ---------------------------------------------------------------------------

@st.composite
def psi_factory(draw):
    """A factory that builds the same generating function afresh on each
    call: power, extremal, exponential or table."""
    kind = draw(st.sampled_from(["power", "extremal", "exponential",
                                 "table"]))
    if kind == "power":
        m = draw(st.floats(0.5, 6.0))
        return lambda: make_power_psi(m)
    if kind == "extremal":
        r = draw(st.floats(1.2, 8.0))
        return lambda: make_extremal_psi(r)
    if kind == "exponential":
        C, beta = draw(st.floats(0.02, 0.5)), draw(st.floats(0.3, 1.0))
        return lambda: make_exp_psi(C, beta)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nodes = np.geomspace(1.0, float(rng.uniform(5.0, 300.0)), 9)
    values = np.cumprod(rng.uniform(1.0, 1.5, 9))
    return lambda: make_table_psi(nodes, values)


@given(f=lognormal_function(), warm_with=lognormal_function(),
       factory=psi_factory())
@settings(max_examples=60, deadline=None)
def test_warm_scan_memo_keeps_every_bit(f, warm_with, factory):
    # the grand norm and the adjacent bound read psi's scan from its memo;
    # after other functions have filled it they give the bits of a psi
    # built afresh
    warm = factory()
    for grid in (DEFAULT_GRID, GridSpec(points=96, cap=200.0, rel_tol=1e-9),
                 GridSpec(points=256, cap=50.0)):
        gls_norm(warm_with, warm, grid=grid)
        associate_bound(warm_with, warm, grid=grid)
        for norm in (gls_norm, associate_bound):
            got = norm(f, warm, grid=grid).to_dict()
            want = norm(f, factory(), grid=grid).to_dict()
            assert got == want
            assert [float(v).hex() for v in got.values()] == [
                float(v).hex() for v in want.values()]
