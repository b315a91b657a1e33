"""Kept only for the benchmark's tracer, which imports this module.

The min tensor norm is :func:`decnorms.cbnorm.min_norm`, and the corpus
check ``ineq_contraction`` in :mod:`decnorms.suite` checks the contraction
inequality max(u . t) <= dec(u) * min(t).
"""

# unused here; perfbench/tests/test_perfbench.py checks that the tracer rebinds this name
from decnorms.cbnorm import seesaw_min_norm  # noqa: F401
