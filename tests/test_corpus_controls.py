"""Negative controls for the verification corpus.

Each control injects a defect into the code a check exercises and requires
that the check fail on the corpus draw, so a check that cannot fail is
caught.  The check alone also passes on the same draw without the defect.
"""

import dataclasses

import pytest

from decnorms import suite


def _only(monkeypatch, name):
    monkeypatch.setattr(suite, "_RUNNERS",
                        {names: fn for names, fn in suite._RUNNERS.items() if name in names})


def _on_one_instance(name):
    report = suite.run_suite(profile="quick", seed=42, max_instances=1)
    return next(r for r in report.results if r.name == name)


def test_contraction_check_fails_when_the_map_doubles_its_images(monkeypatch):
    # on this draw dec(u . xs) / (dec(u) dec(xs)) is about 0.71, so a doubled
    # image breaks the inequality by about 40 % of the bound
    _only(monkeypatch, "ineq_contraction")
    clean, = suite.run_suite(profile="quick", seed=42, max_instances=1).results
    assert clean.name == "ineq_contraction" and clean.passed

    apply_map = suite.apply_map
    monkeypatch.setattr(suite, "apply_map", lambda u, x: 2.0 * apply_map(u, x))
    broken, = suite.run_suite(profile="quick", seed=42, max_instances=1).results
    assert broken.name == "ineq_contraction"
    assert not broken.passed
    assert broken.worst > 0.3


@pytest.mark.parametrize("name", ["dec_cb_agreement", "nuclearity"])
def test_bracket_check_fails_when_the_sdp_under_reports(monkeypatch, name):
    # the bracket stops once the see-saw's deterministic start meets the SDP
    # value, so an SDP that reports too little must not pass for a closed
    # bracket: the lower end then sits above the upper one
    _only(monkeypatch, name)
    clean = _on_one_instance(name)
    assert clean.passed

    dec_norms = suite.dec_norms

    def under_reported(inputs, **kwargs):
        return [dataclasses.replace(c, value=c.value * (1 - 1e-4))
                for c in dec_norms(inputs, **kwargs)]

    monkeypatch.setattr(suite, "dec_norms", under_reported)
    broken = _on_one_instance(name)
    # failed on the lower end, which crossed the upper by the whole defect
    assert not broken.passed
    assert broken.worst <= broken.tolerance
    assert "-1.00e-04" in broken.detail


def test_certificate_check_fails_when_the_value_is_inflated(monkeypatch):
    # dec_certificates matches each value against its factors' column-norm
    # bound within 1e-5, so a value 1e-4 too high fails on the value match
    _only(monkeypatch, "dec_certificates")
    clean = _on_one_instance("dec_certificates")
    assert clean.passed and clean.instances == 1

    dec_norms = suite.dec_norms

    def inflated(inputs, **kwargs):
        return [dataclasses.replace(c, value=c.value * (1 + 1e-4))
                for c in dec_norms(inputs, **kwargs)]

    monkeypatch.setattr(suite, "dec_norms", inflated)
    broken = _on_one_instance("dec_certificates")
    assert not broken.passed
    assert "value match 1.00e-04 (tol 1e-05)" in broken.detail


def test_certificate_check_fails_when_the_factors_are_scaled(monkeypatch):
    # the certificate's own residual is not recomputed, so factors that no
    # longer rebuild the tuple are caught by cb_norm_linf's certificate
    # check, which raises inside the runner, before the 1e-6 residual gate
    _only(monkeypatch, "dec_certificates")
    assert _on_one_instance("dec_certificates").passed

    dec_norms = suite.dec_norms

    def scaled(inputs, **kwargs):
        return [dataclasses.replace(c, factor_b=[(1 + 1e-4) * b for b in c.factor_b])
                for c in dec_norms(inputs, **kwargs)]

    monkeypatch.setattr(suite, "dec_norms", scaled)
    broken = _on_one_instance("dec_certificates")
    assert not broken.passed and broken.instances == 0
    assert broken.detail.startswith("ValueError: certificate factors miss these coefficients by ")


def test_oracle_check_fails_when_the_seesaw_reports_low(monkeypatch):
    # the grid oracle and the see-saw agree to about 1e-14 on this draw, so
    # a see-saw 1e-2 low breaks the 1e-3 agreement gate tenfold
    _only(monkeypatch, "oracle_cross_check")
    clean, = suite.run_suite(profile="quick", seed=42).results
    assert clean.name == "oracle_cross_check" and clean.passed

    seesaw_min_norm = suite.seesaw_min_norm

    def low(xs, **kwargs):
        saw = seesaw_min_norm(xs, **kwargs)
        return dataclasses.replace(saw, lower=saw.lower - 1e-2)

    monkeypatch.setattr(suite, "seesaw_min_norm", low)
    broken, = suite.run_suite(profile="quick", seed=42).results
    assert not broken.passed
    assert broken.worst == pytest.approx(1e-2, rel=1e-6)
    assert "SOUNDNESS VIOLATED" not in broken.detail


def test_oracle_check_fails_when_the_oracle_exceeds_the_sdp(monkeypatch):
    # an oracle 1e-4 above the SDP value stays within the agreement gate but
    # exceeds the SDP value by ten times the check's upper slack (1e-5)
    _only(monkeypatch, "oracle_cross_check")
    clean, = suite.run_suite(profile="quick", seed=42).results
    assert clean.passed

    monkeypatch.setattr(suite, "grid_oracle_min_norm",
                        lambda xs: suite.dec_norm_linf(xs).value + 1e-4)
    broken, = suite.run_suite(profile="quick", seed=42).results
    assert not broken.passed
    assert broken.worst <= broken.tolerance
    assert "SOUNDNESS VIOLATED" in broken.detail
