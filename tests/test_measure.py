import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glsnum
from glsnum.duality import SetFunction, setfunction_norm
from glsnum.measure import (_LSE_BLOCK, DiscreteMeasureSpace, _exp_sums,
                            integrate, load_csv, load_json, lp_norm,
                            lp_norms, make_space, parse_space_dict,
                            probability_space)
from glsnum.psi import make_power_psi, natural_function

weights_st = st.lists(st.floats(min_value=0.05, max_value=5.0),
                      min_size=2, max_size=8)


def uniform_probability_space(n: int) -> DiscreteMeasureSpace:
    return make_space([1.0 / n] * n, probability=True)


def ess_sup(f) -> float:
    """Essential supremum of |f|: every atom carries positive mass."""
    return float(np.max(np.abs(f.value_array)))


def _paired(draw_weights, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return rng.uniform(-10, 10, size=len(draw_weights))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_space_rejects_bad_weights():
    with pytest.raises(ValueError):
        make_space([1.0, -0.5])
    with pytest.raises(ValueError):
        make_space([1.0, 0.0])
    with pytest.raises(ValueError):
        make_space([1.0, math.inf])
    with pytest.raises(ValueError):
        make_space([])


def test_probability_flag_consistency():
    with pytest.raises(ValueError):
        make_space([0.4, 0.4], probability=True)  # sums to 0.8
    s = make_space([0.5, 0.5])
    assert s.is_probability  # auto-detected
    s2 = make_space([0.5, 0.7])
    assert not s2.is_probability


def test_probability_space_normalizes():
    s = probability_space([2.0, 6.0])
    assert s.weight_array[0] == pytest.approx(0.25)
    assert s.is_probability


def test_uniform_probability_space():
    s = uniform_probability_space(4)
    assert np.allclose(s.weight_array, 0.25)


def test_function_validation_and_binding():
    s = make_space([1.0, 2.0])
    with pytest.raises(ValueError):
        s.function([1.0])  # wrong length
    with pytest.raises(ValueError):
        s.function([1.0, math.nan])
    other = make_space([1.0, 2.0, 3.0])
    f = s.function([1.0, -1.0])
    with pytest.raises(ValueError):
        lp_norm(f, 2.0, other)


def test_function_arithmetic():
    s = make_space([1.0, 1.0])
    f = s.function([1.0, 2.0])
    g = s.function([0.5, -1.0])
    assert np.allclose((f + g).value_array, [1.5, 1.0])
    assert np.allclose((f - g).value_array, [0.5, 3.0])
    assert np.allclose((2.0 * f).value_array, [2.0, 4.0])
    assert np.allclose((f * 2.0).value_array, [2.0, 4.0])
    assert np.allclose((-f).value_array, [-1.0, -2.0])


def test_weight_array_read_only():
    s = make_space([1.0, 2.0])
    with pytest.raises(ValueError):
        s.weight_array[0] = 5.0


def test_atom_data_held_once_as_read_only_arrays():
    s = make_space([1.0, 2.0])
    f = s.function([3, -4])
    for arr, alias in ((s.weights, s.weight_array), (f.values, f.value_array)):
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        assert arr.ndim == 1 and not arr.flags.writeable
        assert arr is alias


def test_atom_arrays_are_private_copies():
    w = np.array([0.25, 0.75])
    v = np.array([1.0, -2.0])
    s = DiscreteMeasureSpace(w, is_probability=True)
    f = s.function(v)
    w[0], v[0] = 9.0, 9.0
    assert s.weights.tolist() == [0.25, 0.75]
    assert f.values.tolist() == [1.0, -2.0]
    fresh = make_space([0.25, 0.75]).function([1.0, -2.0])
    assert lp_norm(f, 2.0) == lp_norm(fresh, 2.0)


def test_atom_arrays_must_be_one_dimensional():
    square = [[0.25, 0.25], [0.25, 0.25]]
    with pytest.raises(ValueError, match="one-dimensional"):
        DiscreteMeasureSpace(square)
    with pytest.raises(ValueError, match="one-dimensional"):
        make_space(square)
    with pytest.raises(ValueError, match="one-dimensional"):
        make_space([0.5, 0.5, 0.5, 0.5]).function(square)


def test_equal_spaces_built_separately_bind_the_same_functions():
    weights = [0.2, 0.3, 0.5]
    space, twin = make_space(weights), make_space(np.array(weights))
    assert space == twin and space is not twin
    f = space.function([1.0, -2.0, 0.5])
    assert lp_norm(f, 3.0, twin) == lp_norm(f, 3.0, space)
    assert (natural_function([f], twin)(2.5)
            == natural_function([f], space)(2.5))
    gamma = SetFunction.from_density(f)
    power = make_power_psi(2.0)
    assert (setfunction_norm(gamma, power, twin)
            == setfunction_norm(gamma, power, space))
    other = make_space([0.2, 0.5, 0.3])
    assert space != other
    for call in (lambda: lp_norm(f, 3.0, other),
                 lambda: natural_function([f], other),
                 lambda: setfunction_norm(gamma, power, other)):
        with pytest.raises(ValueError):
            call()


def test_atom_storage_memory():
    n = 100_000
    weights = np.random.default_rng(7).uniform(0.1, 1.0, n)
    values = np.random.default_rng(8).standard_t(3, n)
    tracemalloc.start()
    try:
        space = make_space(weights)
        f = space.function(values)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert f.space is space
    assert held < 4e6


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=1e-3, max_value=1e3),
                          st.floats(min_value=-1e6, max_value=1e6)),
                min_size=1, max_size=12))
def test_list_tuple_and_array_inputs_agree_bitwise(atoms):
    weights, values = zip(*atoms)
    ps = np.geomspace(1.0, 200.0, 17)
    norms = [lp_norms(make_space(kind(weights)).function(kind(values)), ps)
             for kind in (list, tuple, np.array)]
    assert norms[0].tobytes() == norms[1].tobytes() == norms[2].tobytes()


# ---------------------------------------------------------------------------
# integration and norms
# ---------------------------------------------------------------------------

def test_integrate_and_ess_sup():
    s = make_space([0.25, 0.75])
    f = s.function([4.0, -2.0])
    assert integrate(f, s) == pytest.approx(4 * 0.25 - 2 * 0.75)
    assert ess_sup(f) == 4.0


def test_lp_norm_two_atom_closed_form():
    s = probability_space([0.3, 0.7])
    f = s.function([1.0, -2.0])
    for p in (1.0, 2.0, 3.5, 17.0):
        expected = (0.3 * 1.0 ** p + 0.7 * 2.0 ** p) ** (1.0 / p)
        assert lp_norm(f, p, s) == pytest.approx(expected, rel=1e-12)
    assert lp_norm(f, math.inf, s) == 2.0


def test_lp_norm_rejects_p_below_one():
    s = make_space([1.0])
    f = s.function([1.0])
    for p in (0.5, math.nan):
        with pytest.raises(ValueError):
            lp_norm(f, p, s)
        with pytest.raises(ValueError):
            lp_norms(f, [2.0, p], s)


def test_lp_norm_log_domain_matches_direct():
    # the norm is continuous in p, here across p = 50
    s = probability_space([0.4, 0.6])
    f = s.function([1.3, 0.7])
    left = lp_norm(f, 50.0, s)
    right = lp_norm(f, 50.0 + 1e-9, s)
    assert right == pytest.approx(left, rel=1e-10)


def test_lp_norm_extreme_exponent_no_overflow():
    s = probability_space([0.5, 0.5])
    f = s.function([1e3, 2e3])
    val = lp_norm(f, 150.0, s)
    assert math.isfinite(val)
    assert 1e3 <= val <= 2e3 + 1e-9


def test_lp_norm_underflowing_ratio_is_silent():
    s = make_space([0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tiny in (1e-300, -1e-300):
            f = s.function([1e300, tiny])
            assert lp_norm(f, 2.0) == 1e300 * 0.5 ** 0.5
            assert lp_norms(f, [2.0])[0] == 1e300 * 0.5 ** 0.5


def test_lp_norms_vectorized_matches_scalar(rng):
    s = probability_space(rng.uniform(0.1, 1.0, size=5))
    f = s.function(rng.uniform(-4, 4, size=5))
    ps = np.array([1.0, 2.0, 7.3, 49.9, 61.0, 120.0])
    vec = lp_norms(f, ps, s)
    for p, v in zip(ps, vec):
        assert v == pytest.approx(lp_norm(f, float(p), s), rel=1e-12)


@pytest.mark.parametrize("values", [[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
def test_lp_norms_agrees_with_lp_norm_at_every_exponent(values):
    # p = inf is the essential supremum on both paths, not NaN
    s = probability_space([0.2, 0.5, 0.3])
    f = s.function(values)
    ps = [1.0, 2.0, 7.5, math.inf]
    for p, v in zip(ps, lp_norms(f, ps, s)):
        if math.isinf(p):
            assert v == lp_norm(f, p, s) == max(abs(x) for x in values)
        else:
            assert v == pytest.approx(lp_norm(f, p, s), rel=1e-12, abs=1e-12)


# float.hex of lp_norm from p = 1 to the scan cap 200, a zero atom included
_LP_NORM_PINS = {1.0: "0x1.0666666666667p+0", 2.0: "0x1.82a8500794e6cp+0",
                 7.3: "0x1.344a05b8d9942p+1", 50.0: "0x1.73d619f7721bep+1",
                 50.5: "0x1.73f471831e0c2p+1", 120.0: "0x1.7ae259c05bac6p+1",
                 200.0: "0x1.7cec1a7f535b2p+1"}


def test_lp_norm_pinned_bits():
    s = make_space([0.2, 0.5, 0.1, 0.2])
    f = s.function([1.5, -0.25, 0.0, 3.0])
    for p, pin in _LP_NORM_PINS.items():
        assert lp_norm(f, p, s).hex() == pin
    assert lp_norm(s.function([0.0] * 4), 60.0, s) == 0.0


@given(n=st.sampled_from([1, 3, 130, _LSE_BLOCK + 3]),
       blocks=st.integers(0, 2), tail=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=130, blocks=1, tail=2, seed=0)
@example(n=_LSE_BLOCK + 3, blocks=0, tail=1, seed=1)
@settings(max_examples=40, deadline=None)
def test_exp_sums_blocks_match_direct_sum(n, blocks, tail, seed):
    # Row counts straddle block boundaries (n above the block gives one row
    # per block); s = 0 keeps every term, and the large s cut some of them,
    # each below 2^-1022 of its weight
    m = blocks * max(1, _LSE_BLOCK // n) + tail
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 400.0, m)
    s[0] = 0.0
    d = np.sort(rng.exponential(2.0, n))
    w = rng.uniform(0.1, 1.0, n)
    with np.errstate(under="ignore"):
        expected = np.exp(-np.multiply.outer(s, d)) @ w
    got = _exp_sums(s, d, w)
    assert got.shape == (m,)
    assert got[0] == pytest.approx(w.sum(), rel=1e-12)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-300)


def test_lp_norms_wide_scan_memory():
    n = 100_000
    s = probability_space(np.random.default_rng(7).uniform(0.1, 1.0, n))
    f = s.function(np.random.default_rng(8).standard_t(3, n))
    ps = np.geomspace(1.0, 200.0, 256)
    tracemalloc.start()
    try:
        lp_norms(f, ps, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_import_does_not_load_scipy():
    src = str(Path(glsnum.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import glsnum; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@given(weights=weights_st, p=st.floats(min_value=1.0, max_value=40.0),
       c=st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=80, deadline=None)
def test_lp_homogeneity(weights, p, c):
    s = probability_space(weights)
    vals = _paired(weights)
    f = s.function(vals)
    assert lp_norm(c * f, p, s) == pytest.approx(abs(c) * lp_norm(f, p, s),
                                                 rel=1e-12, abs=1e-12)


@given(weights=weights_st,
       p=st.floats(min_value=1.0, max_value=30.0),
       q_shift=st.floats(min_value=0.0, max_value=30.0))
@settings(max_examples=80, deadline=None)
def test_lp_monotone_in_p_on_probability_space(weights, p, q_shift):
    s = probability_space(weights)
    f = s.function(_paired(weights, rng_seed=1))
    assert lp_norm(f, p, s) <= lp_norm(f, p + q_shift, s) * (1 + 1e-12)


@given(weights=weights_st, p=st.floats(min_value=1.0, max_value=25.0))
@settings(max_examples=60, deadline=None)
def test_lp_triangle(weights, p):
    s = probability_space(weights)
    f = s.function(_paired(weights, rng_seed=2))
    g = s.function(_paired(weights, rng_seed=3))
    lhs = lp_norm(f + g, p, s)
    assert lhs <= lp_norm(f, p, s) + lp_norm(g, p, s) + 1e-10


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("weight,value\n0.25,1.5\n0.75,-2.0\n")
    space, f = load_csv(path)
    assert np.allclose(space.weight_array, [0.25, 0.75])
    assert np.allclose(f.value_array, [1.5, -2.0])
    assert space.is_probability


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("w,v\n1,2\n")
    with pytest.raises(ValueError):
        load_csv(path)


def test_json_single_and_family(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text('{"weights": [0.5, 0.5], '
                    '"values": [[1, 2], [3, 4], [5, 6]]}')
    space, fs = load_json(path)
    assert len(fs) == 3
    assert np.allclose(fs[2].value_array, [5, 6])

    space2, fs2 = parse_space_dict({"weights": [1.0, 2.0],
                                    "values": [1.0, -1.0]})
    assert len(fs2) == 1
    assert not space2.is_probability


def test_parse_space_dict_needs_weights():
    with pytest.raises(ValueError):
        parse_space_dict({"values": [1, 2]})
