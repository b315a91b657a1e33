"""Acceptance gate: the headline requirements, one pass/fail line each.

The full verification corpus runs once (seed 42); each test pins one
requirement to its stated tolerance and instance count and prints a
single summary line.
"""

import pytest

from decnorms.cli import main
from decnorms.suite import load_manifest, run_suite

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def full_report():
    return run_suite(profile="full", seed=42)


def _check(report, name):
    for r in report.results:
        if r.name == name:
            return r
    raise AssertionError(f"check {name} missing from the suite report")


def _line(label, ok):
    print(f"acceptance {label}: {'pass' if ok else 'FAIL'}")
    assert ok


def test_01_dec_equals_cb_agreement(full_report):
    r = _check(full_report, "dec_cb_agreement")
    ok = (r.passed and r.instances == 200 and r.tolerance == 5e-4
          and r.worst <= 5e-4 and r.seconds < 300.0)
    _line("1 upper/lower agreement, 200 instances within [-1e-6, 5e-4], under 5 min", ok)


def test_02_factorization_certificates(full_report):
    r = _check(full_report, "dec_certificates")
    ok = r.passed and r.instances == 200 and r.worst <= r.tolerance
    _line("2 certificates rebuild inputs (1e-6) and value (1e-5)", ok)


def test_03_closed_forms(full_report):
    scal = _check(full_report, "closed_form_scalars")
    unit = _check(full_report, "closed_form_unitary")
    trac = _check(full_report, "closed_form_trace")
    ok = (scal.passed and scal.instances == 50 and scal.tolerance == 1e-8
          and unit.passed and unit.instances == 30 and unit.tolerance == 1e-6
          and trac.passed and trac.instances == 30 and trac.tolerance == 1e-7)
    _line("3 closed forms: scalars 1e-8, unitaries 1e-6, trace functionals 1e-7", ok)


def test_04_selfadjoint_route_consistency(full_report):
    r = _check(full_report, "selfadjoint_consistency")
    ok = r.passed and r.instances == 50 and r.tolerance == 2e-6
    _line("4 self-adjoint route equals the general route within 2e-6", ok)


def test_05_inequality_families(full_report):
    names = (
        "ineq_submultiplicative",
        "ineq_cb_le_dec",
        "ineq_factored_bound",
        "ineq_contraction",
        "ineq_tensor_submult",
    )
    ok = True
    for name in names:
        r = _check(full_report, name)
        ok = ok and r.passed and r.instances == 100 and r.worst <= r.tolerance
    _line("5 five inequality families, zero violations over 100 instances each", ok)


def test_06_direct_sums(full_report):
    r = _check(full_report, "direct_sum")
    ok = r.passed and r.instances == 30 and r.tolerance == 1e-6
    _line("6 joint value equals max over blocks within 1e-6, 30 instances", ok)


def test_07_nuclearity_gap(full_report):
    r = _check(full_report, "nuclearity")
    ok = r.passed and r.instances == 100 and r.tolerance == 5e-4
    _line("7 min and max tensor norms agree within 5e-4, 100 instances", ok)


def test_08_multiplicative_domains(full_report):
    r = _check(full_report, "mult_domain")
    ok = (r.passed and r.tolerance == 1e-9 and r.worst <= 1e-9
          and "flagged" in r.detail)
    _line("8 domain dimensions d^2/1/d, residuals 1e-9, negative control flagged", ok)


def test_09_solver_validation(full_report):
    r = _check(full_report, "solver_eigenvalue")
    ok = r.passed and r.instances == 100 and r.tolerance == 1e-7
    _line("9 eigenvalue programs match eigh within 1e-7, certificates clean", ok)


def test_10_repeat_determinism(full_report, capsys):
    r = _check(full_report, "determinism")
    assert r.passed and r.worst == 0.0
    assert main(["verify", "--seed", "42"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert main(["verify", "--seed", "42"]) == 0
    second = capsys.readouterr().out.splitlines()
    # the overall line carries wall time; every verdict and residual above
    # it must match exactly
    ok = (first[:-1] == second[:-1]
          and first[-1].startswith("overall: pass")
          and second[-1].startswith("overall: pass"))
    _line("10 repeated seeded runs report identical verdicts and residuals", ok)


def test_11_instance_counts_match_the_manifest(full_report):
    want = {c["name"]: c["full"] for c in load_manifest()["checks"]}
    ok = {r.name: r.instances for r in full_report.results} == want
    _line("11 every check runs the manifest's full instance count", ok)
