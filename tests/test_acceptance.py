"""Acceptance battery: one test per release criterion.

C01-C13 run the checks of `glsnum.verify` at their full instance counts, check
k with `default_rng(100 + k)`, so the battery is reproducible run to run.
Each test prints a single `[C##] ... PASS` line with its worst figures
(visible under `pytest -rP`) and fails when its check does not pass.
"""

import json

import numpy as np

import glsnum.verify
from glsnum.cli import main as cli_main
from glsnum.verify import _REGISTRY

_CHECKS = {check.name: check for check in _REGISTRY}


def _criterion(name):
    check = _CHECKS[name]
    result = check.run(np.random.default_rng(100 + int(name[1:])), check.full)
    figures = ", ".join(
        f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
        for k, v in result.items() if k not in ("passed", "tolerances"))
    print(f"[{name}] {check.title} (n = {check.full}): "
          f"{'PASS' if result['passed'] else 'FAIL'} ({figures})")
    assert result["passed"], result


# one item per criterion, under the ids the battery has always had
def test_c01_extremal_norm_and_bound_identities(): _criterion("C01")
def test_c02_adjacent_function_closed_form(): _criterion("C02")
def test_c03_oracle_bound_bracket(): _criterion("C03")
def test_c04_holder_inequality(): _criterion("C04")
def test_c05_convex_conjugate_machinery(): _criterion("C05")
def test_c06_exponential_young_construction(): _criterion("C06")
def test_c07_luxemburg_solver_on_powers(): _criterion("C07")
def test_c08_conjugate_growth_band(): _criterion("C08")
def test_c09_orlicz_holder_bound(): _criterion("C09")
def test_c10_scaled_growth_condition_checker(): _criterion("C10")
def test_c11_setfunction_norm_representation(): _criterion("C11")
def test_c12_mgf_ball_norms(): _criterion("C12")
def test_c13_grand_norm_axioms(): _criterion("C13")


def test_c11_fails_on_a_diverging_setfunction_side(monkeypatch):
    # a set-function side off by 1e-4 relative must fail C11 (on real inputs
    # both sides pair the same vector, so only a seeded fault can show this)
    real = glsnum.verify.setfunction_norm
    monkeypatch.setattr(glsnum.verify, "setfunction_norm",
                        lambda *args, **kw: real(*args, **kw) * (1.0 + 1e-4))
    check = _CHECKS["C11"]
    result = check.run(np.random.default_rng(111), check.compact)
    assert result["passed"] is False
    assert result["scaled_dev"] > result["tolerances"]["scaled_dev"]


def test_c14_verification_battery_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code = cli_main(["verify", "--seed", "42"])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["all_passed"] is True
    assert report["n_checks"] == len(report["checks"]) >= 10
    for name, check in report["checks"].items():
        assert check["passed"], name
    print(f"[C14] verification battery with seed 42 is byte-identical "
          f"across runs ({report['n_checks']} checks): PASS")
