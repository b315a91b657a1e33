"""Negative controls for the verification corpus.

Each control injects a defect into the code a check exercises and requires
that the check fail on the corpus draw, so a check that cannot fail is
caught.  The check alone also passes on the same draw without the defect.
"""

from decnorms import suite


def _only(monkeypatch, name):
    monkeypatch.setattr(suite, "_RUNNERS",
                        {names: fn for names, fn in suite._RUNNERS.items() if names == (name,)})


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
