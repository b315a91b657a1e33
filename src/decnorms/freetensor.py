"""Min and max tensor norms of unitary-generator tensors.

The tensor ``sum_j U_j (x) x_j`` (``U_0`` the unit, the other generators
universal unitaries) is given by its coefficient tuple ``xs`` in M_d.  Its
largest C*-tensor norm is the decomposable norm ``dec_norm_linf(xs).value``
of the map ``e_j -> x_j``, with its certificate; the smallest tensor norm
equals the completely bounded norm and is bracketed by
:func:`decnorms.cbnorm.cb_norm_linf` with the see-saw's first unitary
pinned to the identity, so one SDP serves both norms.

Pinning the first slot loses nothing: multiplying through by the adjoint
of any candidate first unitary turns an arbitrary family into one whose
first member is the identity without changing the norm.

For matrix-algebra coefficients the two tensor norms agree, so the
bracket :func:`min_norm` returns closes on the max norm: its upper value
is the max norm and its gap is how far the see-saw's lower bound for the
min norm sits below it.  :func:`check_finite_rank_contractions` takes
``(u, xs)`` pairs and checks the companion inequality that pushing a
tensor forward through a map can grow the max norm by at most the map's
decomposable norm times the original min norm.
"""

from __future__ import annotations

from dataclasses import dataclass

from decnorms.algebra import coefficient_tuple
from decnorms.cbnorm import CbAgreement, cb_norm_linf
# unused here; perfbench/tests/test_perfbench.py checks that the tracer rebinds this name
from decnorms.cbnorm import seesaw_min_norm  # noqa: F401
from decnorms.decomposable import dec_norms
from decnorms.maps import LinearMapRep, apply_map


def min_norm(xs, **kwargs) -> CbAgreement:
    """Smallest tensor norm of the coefficients ``xs``: :func:`cb_norm_linf` with slot 0 pinned.

    Slot 0 belongs to the unit.  Keyword arguments are those of
    :func:`cb_norm_linf`; the bracket's upper value is the max norm.
    """
    return cb_norm_linf(xs, pin_first=True, **kwargs)


@dataclass
class ContractionReport:
    """One instance of max(u . t) <= dec(u) * min(t)."""

    lhs: float
    dec_value: float
    min_upper: float
    rhs: float
    slack: float
    ok: bool


def check_finite_rank_contractions(pairs: list[tuple[LinearMapRep, list]], *,
                                   tol: float = 1e-6) -> list[ContractionReport]:
    """Push each tensor ``xs`` through its map ``u`` and compare norms.

    For each ``(u, xs)`` pair the left side is the max norm of the tensor
    with coefficients ``u(x_j)``; the right side is ``dec(u)`` times the
    min-norm upper value of ``xs``.  ``ok`` allows slack ``tol`` relative
    to the right side.  Every pair is validated before any norm is
    computed.  The three norms of every pair go to :func:`dec_norms`
    together, so norms of one constraint structure (the two n-tuples in
    M_d of a pair, and those of pairs of equal sizes) are solved in
    lockstep, and each report is the one the pair gets alone.
    """
    inputs = []
    for u, xs in pairs:
        elems = coefficient_tuple(xs)
        if u.domain != elems[0].shape:
            raise ValueError("map domain must be the coefficient matrix algebra")
        inputs += [[apply_map(u, x) for x in elems], u, elems]
    values = [float(cert.value) for cert in dec_norms(inputs)]
    reports = []
    for lhs, dec_value, min_upper in zip(values[0::3], values[1::3], values[2::3]):
        rhs = dec_value * min_upper
        reports.append(ContractionReport(
            lhs=lhs,
            dec_value=dec_value,
            min_upper=min_upper,
            rhs=float(rhs),
            slack=float(rhs - lhs),
            ok=bool(lhs <= rhs + tol * max(1.0, rhs)),
        ))
    return reports
