"""End-to-end command-line tests: every subcommand through main(argv),
plus subprocess runs of the entry points.

`test_console_script_entry_point` reads the `glsnum` console script declared
in `[project.scripts]` of pyproject.toml and runs its target in a fresh
interpreter the way the generated wrapper does, so it needs no install.
`test_installed_console_script` runs the `glsnum` executable itself and is
skipped where the package is not installed."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glsnum.bphi
import glsnum.cli
import glsnum.duality
from glsnum import (
    RandomVariableSample,
    SetFunction,
    associate_bound,
    associate_norm_oracle,
    bphi_norm,
    build_N,
    conjugate_young_point,
    exponent_V,
    gls_norm,
    h_of,
    lp_norm,
    luxemburg_norm,
    make_extremal_psi,
    make_space,
    membership_check,
    phi_from_descriptor,
    power_young,
    probability_space,
    psi_from_descriptor,
    psi_from_phi,
    setfunction_norm,
    validate_young,
    young_fenchel_point,
)
from glsnum.cli import main

POWER2 = '{"family": "power", "params": {"m": 2}}'
EXTREMAL3 = '{"family": "extremal", "params": {"r": 3}}'
INLINE_F = '{"weights": [0.25, 0.75], "values": [2.0, -1.0]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("weight,value\n0.5,1.0\n0.5,-2.0\n")
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "weights": [0.5, 0.5],
        "values": [[1.0, -1.0], [2.0, -0.5], [0.25, 3.0]],
    }))
    return str(path)


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_gnorm_matches_library(capsys, csv_file):
    rep = run_json(capsys, "gnorm", "--input", csv_file, "--psi", POWER2)
    space = probability_space([0.5, 0.5])
    f = space.function([1.0, -2.0])
    from glsnum import make_power_psi
    direct = gls_norm(f, make_power_psi(2.0), space)
    assert rep["result"]["value"] == pytest.approx(direct.value, rel=1e-12)
    assert rep["n_atoms"] == 2
    assert rep["command"] == "gnorm"


def test_lp_and_inf(capsys, csv_file):
    space = probability_space([0.5, 0.5])
    f = space.function([1.0, -2.0])
    rep = run_json(capsys, "lp", "--input", csv_file, "--p", "3")
    assert rep["value"] == pytest.approx(lp_norm(f, 3.0, space), rel=1e-12)
    rep = run_json(capsys, "lp", "--input", csv_file, "--p", "inf")
    ess_sup = float(np.max(np.abs(f.value_array)))
    assert rep["value"] == pytest.approx(ess_sup, rel=1e-12)


def test_natural_with_csv_export(capsys, family_file, tmp_path):
    table = tmp_path / "psi.csv"
    rep = run_json(capsys, "natural", "--input", family_file,
                   "--csv", str(table))
    assert rep["n_members"] == 3
    assert abs(rep["sup_member_norm"] - 1.0) <= 1e-5
    header, first = table.read_text().splitlines()[:2]
    assert header == "p,psi"
    float(first.split(",")[1])  # numeric, not a numpy repr


def test_natural_builds_no_table_without_csv(capsys, family_file,
                                             monkeypatch):
    # the label comes from the member count; only --csv needs the table,
    # and the family check raises the table's errors itself
    def no_table(*args, **kwargs):
        raise AssertionError("natural_function was called")
    monkeypatch.setattr(glsnum.cli, "natural_function", no_table)
    rep = run_json(capsys, "natural", "--input", family_file)
    assert (rep["psi"], rep["sup_member_norm"]) == ("natural(k=3)", 1.0)
    pair = [make_space([0.5, 0.5]).function([1.0, 2.0]),
            make_space([0.25, 0.75]).function([1.0, 2.0])]
    for family, message in (([], "the family is empty"),
                            (pair, "family members live on different spaces")):
        monkeypatch.setattr(glsnum.cli, "_load_functions",
                            lambda source, family=family: (None, family))
        assert run_cli(capsys, "natural", "--input", "x") == (
            1, "", f"error: {message}\n")


def test_adjacent_closed_form(capsys):
    rep = run_json(capsys, "adjacent", "--psi", POWER2,
                   "--q", "2.0", "--q", "4.0")
    for row in rep["values"]:
        q = row["q"]
        assert row["nu"] == pytest.approx(((q - 1.0) / q) ** 0.5, rel=1e-12)


def test_dual_bound_extremal(capsys, csv_file):
    rep = run_json(capsys, "dual-bound", "--input", csv_file,
                   "--psi", EXTREMAL3)
    space = probability_space([0.5, 0.5])
    g = space.function([1.0, -2.0])
    assert rep["result"]["value"] == pytest.approx(
        lp_norm(g, 1.5, space), rel=1e-9)
    direct = associate_bound(g, make_extremal_psi(3.0), space)
    assert rep["result"]["arginf_q"] == pytest.approx(direct.arginf_q,
                                                      rel=1e-6)


def test_dual_oracle_with_representation(capsys, csv_file):
    rep = run_json(capsys, "dual-oracle", "--input", csv_file,
                   "--psi", EXTREMAL3, "--representation")
    assert rep["gap"] >= -1e-8
    assert rep["oracle"] <= rep["bound"]["value"] + 1e-8
    assert rep["representation_difference"] <= 1e-6 * (1 + rep["oracle"])


def test_setnorm_matches_library(capsys):
    payload = json.dumps({"weights": [0.25, 0.75], "gamma": [0.4, -0.9]})
    rep = run_json(capsys, "setnorm", "--input", payload, "--psi", POWER2)
    space = make_space([0.25, 0.75])
    gamma = SetFunction(space, (0.4, -0.9))
    from glsnum import make_power_psi
    direct = setfunction_norm(gamma, make_power_psi(2.0), space)
    assert rep["value"] == pytest.approx(direct, rel=1e-9)
    assert rep["total_mass"] == pytest.approx(-0.5)


def test_legendre_values(capsys):
    rep = run_json(capsys, "legendre", "--psi", EXTREMAL3,
                   "--v", "1.0", "--u", str(math.e ** 2))
    # h(p) = 0 on [1, 3]: conjugate of the indicator is 3 v for v >= 0
    conj = rep["conjugate"][0]
    assert conj["value"] == pytest.approx(3.0, rel=1e-9)
    assert rep["exponent"][0]["V"] == pytest.approx(6.0, rel=1e-9)


def test_reused_parser_prints_what_a_fresh_one_prints(capsys, csv_file):
    # main builds its parser once per process; the append defaults of
    # legendre's --v and --u must not carry values into a later call
    calls = [("gnorm", "--input", csv_file, "--psi", POWER2),
             ("legendre", "--psi", POWER2, "--v", "3", "--v", "4"),
             ("legendre", "--psi", POWER2, "--u", "3"),
             ("gnorm", "--input", csv_file, "--psi", POWER2)]
    reused = [run_cli(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        glsnum.cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert reused == fresh
    assert all(code == 0 for code, _, _ in reused)
    assert "conjugate" not in json.loads(reused[2][1])


def test_orlicz_build_with_table(capsys, tmp_path):
    table = tmp_path / "N.csv"
    rep = run_json(capsys, "orlicz-build", "--psi", EXTREMAL3,
                   "--csv", str(table))
    assert rep["branch_point"] == pytest.approx(math.e)
    checks = rep["validation"]
    for key, value in checks.items():
        if isinstance(value, bool):
            assert value, key
    assert checks["branch_jump"] <= 1e-9
    assert checks["even_deviation"] <= 1e-12
    assert rep["value_at_e"] == pytest.approx(math.e ** 3, rel=1e-9)
    lines = table.read_text().splitlines()
    assert lines[0] == "u,N"
    for line in lines[1:4]:
        u, val = map(float, line.split(","))
        assert val >= 0.0


def test_orlicz_norm_power_is_lp(capsys, csv_file):
    rep = run_json(capsys, "orlicz-norm", "--input", csv_file,
                   "--power", "2.0")
    space = probability_space([0.5, 0.5])
    f = space.function([1.0, -2.0])
    assert rep["value"] == pytest.approx(lp_norm(f, 2.0, space), rel=1e-9)


def test_conjugate_young_quadratic(capsys):
    rep = run_json(capsys, "conjugate-young", "--power", "2.0", "--y", "1.0")
    assert rep["values"][0]["value"] == pytest.approx(0.25, rel=1e-8)


def test_bphi_norm_with_membership(capsys):
    payload = '{"weights": [0.5, 0.5], "values": [1.0, -1.0]}'
    rep = run_json(capsys, "bphi-norm", "--input", payload,
                   "--phi", '{"family": "quadratic"}', "--membership")
    assert rep["value"] == pytest.approx(1.0, abs=1e-5)
    assert rep["membership"]["ratio"] == pytest.approx(1.0, abs=1e-4)


def test_bphi_norm_center_flag(capsys):
    payload = '{"weights": [0.5, 0.5], "values": [3.0, 1.0]}'
    code, out, err = run_cli(capsys, "bphi-norm", "--input", payload,
                             "--phi", '{"family": "quadratic"}')
    assert code == 1
    assert "not centered" in err
    rep = run_json(capsys, "bphi-norm", "--input", payload, "--center",
                   "--phi", '{"family": "quadratic"}')
    assert rep["value"] == pytest.approx(1.0, abs=1e-5)


# ---------------------------------------------------------------------------
# the CLI prints the library's values, bit for bit
# ---------------------------------------------------------------------------

FAMILIES = {
    "power": POWER2,
    "exponential": '{"family": "exponential", "params": {"C": 1, "beta": 1}}',
    "slowly_varying": '{"family": "slowly_varying", "params": {"m": 2}}',
    "extremal": EXTREMAL3,
}
# total mass 1.5: the extremal grand norm is the 1-norm here, not the 3-norm
MASS_F = '{"weights": [0.5, 0.25, 0.75], "values": [1.5, -0.4, 0.9]}'
GAMMA = '{"weights": [0.25, 0.75], "gamma": [0.4, -0.9]}'
XI = '{"weights": [0.25, 0.5, 0.25], "values": [-1.0, 0.0, 1.0]}'
PHIS = ['{"family": "quadratic"}', '{"family": "power", "params": {"m": 3}}']


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cli_prints_library_values(capsys, family):
    desc = FAMILIES[family]
    psi = psi_from_descriptor(desc)
    space = make_space([0.5, 0.25, 0.75])
    f = space.function([1.5, -0.4, 0.9])

    rep = run_json(capsys, "gnorm", "--input", MASS_F, "--psi", desc)
    assert rep["result"] == gls_norm(f, psi).to_dict()
    rep = run_json(capsys, "dual-bound", "--input", MASS_F, "--psi", desc)
    bound = associate_bound(f, psi).to_dict()
    assert rep["result"] == bound
    oracle = associate_norm_oracle(f, psi)
    for extra in ((), ("--representation",)):
        rep = run_json(capsys, "dual-oracle", "--input", MASS_F,
                       "--psi", desc, *extra)
        assert (rep["oracle"], rep["bound"]) == (oracle, bound)
    gamma = SetFunction(make_space([0.25, 0.75]), [0.4, -0.9])
    rep = run_json(capsys, "setnorm", "--input", GAMMA, "--psi", desc)
    assert rep["value"] == setfunction_norm(gamma, psi)

    rep = run_json(capsys, "legendre", "--psi", desc, "--v", "0.5",
                   "--v", "3", "--u", "7.5", "--u", "50")
    h = h_of(psi)
    for row, v in zip(rep["conjugate"], (0.5, 3.0)):
        pt = young_fenchel_point(h, v)
        assert (row["value"], row["argmax_p"]) == (pt.value, pt.argmax_z)
    assert [row["V"] for row in rep["exponent"]] == [
        exponent_V(psi, 7.5), exponent_V(psi, 50.0)]

    N = build_N(psi)
    rep = run_json(capsys, "orlicz-build", "--psi", desc)
    assert (rep["value_at_1"], rep["value_at_e"], rep["trusted_up_to"]) == (
        N(1.0), N(math.e), N.trusted_up_to)
    assert rep["validation"] == validate_young(N)
    rep = run_json(capsys, "orlicz-norm", "--input", MASS_F, "--psi", desc)
    assert rep["value"] == luxemburg_norm(f, N)
    rep = run_json(capsys, "conjugate-young", "--psi", desc,
                   "--y", "1", "--y", "10")
    for row, y in zip(rep["values"], (1.0, 10.0)):
        pt = conjugate_young_point(N, y)
        assert (row["value"], row["argmax_u"]) == (pt.value, pt.argmax_z)


def test_cli_prints_library_values_without_psi(capsys):
    space = make_space([0.5, 0.25, 0.75])
    f = space.function([1.5, -0.4, 0.9])
    rep = run_json(capsys, "orlicz-norm", "--input", MASS_F,
                   "--power", "2.5")
    assert rep["value"] == luxemburg_norm(f, power_young(2.5))
    rep = run_json(capsys, "conjugate-young", "--power", "2", "--y", "7")
    assert rep["values"][0]["value"] == conjugate_young_point(
        power_young(2.0), 7.0).value
    xi = RandomVariableSample(
        probability_space([0.25, 0.5, 0.25]).function([-1.0, 0.0, 1.0]))
    for desc in PHIS:
        phi = phi_from_descriptor(desc)
        rep = run_json(capsys, "bphi-norm", "--input", XI, "--phi", desc,
                       "--membership")
        mem = membership_check(xi, phi, psi=psi_from_phi(phi))
        assert rep["value"] == bphi_norm(xi, phi) == mem.bphi
        assert rep["membership"] == mem.to_dict() | {
            "psi": psi_from_phi(phi).label}


def _count_calls(monkeypatch, module, name, also=()):
    """Wrap module.name (and the same name in the modules `also`) in one
    counting wrapper; returns the list its calls append to."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kw):
        calls.append(name)
        return real(*args, **kw)
    for mod in (module, *also):
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_bphi_norm_membership_computes_the_norm_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, glsnum.bphi, "bphi_norm",
                         also=(glsnum.cli,))
    for extra in ((), ("--membership",)):
        calls.clear()
        run_json(capsys, "bphi-norm", "--input", XI, "--phi", PHIS[0],
                 *extra)
        assert len(calls) == 1, extra


def test_dual_oracle_representation_runs_two_pairing_sups(capsys,
                                                          monkeypatch):
    calls = _count_calls(monkeypatch, glsnum.duality,
                         "_unit_ball_pairing_sup")
    for extra, expected in (((), 1), (("--representation",), 2)):
        calls.clear()
        run_json(capsys, "dual-oracle", "--input", MASS_F,
                 "--psi", EXTREMAL3, *extra)
        assert len(calls) == expected, extra


# ---------------------------------------------------------------------------
# output contract
# ---------------------------------------------------------------------------

def test_output_deterministic_and_sorted(capsys, csv_file):
    args = ("dual-oracle", "--input", csv_file, "--psi", EXTREMAL3)
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    parsed = json.loads(out1)
    assert out1 == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_out_file_matches_stdout(capsys, csv_file, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "lp", "--input", csv_file, "--p", "2",
                           "--out", str(dest))
    assert code == 0
    assert dest.read_text() == out


def test_nonfinite_floats_serialized_as_strings():
    from glsnum.cli import _jsonable
    blob = _jsonable({"a": math.inf, "b": -math.inf, "c": math.nan,
                      "d": np.float64(2.5), "e": np.bool_(True),
                      "f": (1, 2)})
    assert blob == {"a": "inf", "b": "-inf", "c": "nan", "d": 2.5,
                    "e": True, "f": [1, 2]}
    json.dumps(blob)


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------

def test_missing_file_is_reported(capsys):
    code, _, err = run_cli(capsys, "gnorm", "--input", "/nope/missing.csv",
                           "--psi", POWER2)
    assert code == 1
    assert err.startswith("error:")


def test_malformed_inline_json(capsys):
    code, _, err = run_cli(capsys, "gnorm", "--input", "{broken",
                           "--psi", POWER2)
    assert code == 1
    assert "error:" in err


def test_setnorm_requires_gamma(capsys):
    code, _, err = run_cli(capsys, "setnorm",
                           "--input", '{"weights": [1.0]}', "--psi", POWER2)
    assert code == 1
    assert "gamma" in err


def test_legendre_needs_a_point(capsys):
    code, _, err = run_cli(capsys, "legendre", "--psi", POWER2)
    assert code == 1
    assert "--v or --u" in err


def test_orlicz_norm_psi_power_exclusive(capsys, csv_file):
    code, _, err = run_cli(capsys, "orlicz-norm", "--input", csv_file,
                           "--psi", POWER2, "--power", "2.0")
    assert code == 1
    assert "not both" in err
    code, _, err = run_cli(capsys, "orlicz-norm", "--input", csv_file)
    assert code == 1
    assert "--psi or --power" in err


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_console_script_entry_point(csv_file):
    proc = subprocess.run(
        [sys.executable, "-m", "glsnum.cli", "lp", "--input", csv_file,
         "--p", "2"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "lp"
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "glsnum" in scripts
    mod, attr = scripts["glsnum"].split(":")
    which = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {mod} import {attr}; sys.exit({attr}())",
         "--help"],
        capture_output=True, text=True, check=False)
    assert which.returncode == 0
    assert "gnorm" in which.stdout


@pytest.mark.skipif(shutil.which("glsnum") is None,
                    reason="glsnum console script not installed")
def test_installed_console_script():
    which = subprocess.run(["glsnum", "--help"], capture_output=True,
                           text=True, check=False)
    assert which.returncode == 0
    assert "gnorm" in which.stdout
