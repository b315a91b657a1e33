"""Min and max tensor norms of unitary-generator tensors.

A ``FreeTensor`` stores coefficients ``x_0..x_{n-1}`` in M_d for the
element ``sum_j U_j (x) x_j`` where ``U_0`` is the unit and the remaining
generators are universal unitaries.  Its largest C*-tensor norm equals
the decomposable norm of the map ``e_j -> x_j``, so the max norm comes
with a full decomposable certificate; the smallest tensor norm equals
the completely bounded norm and is bracketed by
:func:`decnorms.cbnorm.cb_norm_linf` with the see-saw's first unitary
pinned to the identity, so one SDP serves both norms.

Pinning the first slot loses nothing: multiplying through by the adjoint
of any candidate first unitary turns an arbitrary family into one whose
first member is the identity without changing the norm.

For matrix-algebra coefficients the two tensor norms agree, so the
bracket :func:`min_norm` returns closes on the max norm: its upper value
is the max norm and its gap is how far the see-saw's lower bound for the
min norm sits below it.  ``check_finite_rank_contraction`` (and its batch form) checks the
companion inequality that pushing a tensor forward through a map can
grow the max norm by at most the map's decomposable norm times the
original min norm.
"""

from __future__ import annotations

from dataclasses import dataclass

from decnorms import linalg
from decnorms.cbnorm import CbAgreement, cb_norm_linf
# unused here; perfbench/tests/test_perfbench.py checks that the tracer rebinds this name
from decnorms.cbnorm import seesaw_min_norm  # noqa: F401
from decnorms.decomposable import DecCertificate, dec_norm_linf, dec_norms
from decnorms.algebra import element, matrix_algebra
from decnorms.maps import LinearMapRep, apply_map


@dataclass(frozen=True)
class FreeTensor:
    """Coefficients of sum_j U_j (x) x_j; slot 0 belongs to the unit."""

    coeffs: tuple

    def __post_init__(self):
        mats = tuple(linalg.as_matrix(c) for c in self.coeffs)
        if not mats:
            raise ValueError("need at least one coefficient")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise ValueError("coefficients must be square of one size")
        object.__setattr__(self, "coeffs", mats)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def coeff_dim(self) -> int:
        return self.coeffs[0].shape[0]


def free_tensor(coeffs) -> FreeTensor:
    return FreeTensor(coeffs=tuple(coeffs))


def max_norm(t: FreeTensor, *, tol: float = 1e-8) -> tuple[float, DecCertificate]:
    """Largest tensor norm, as the decomposable norm of ``e_j -> x_j``."""
    cert = dec_norm_linf(list(t.coeffs), tol=tol)
    return float(cert.value), cert


def min_norm(t: FreeTensor, **kwargs) -> CbAgreement:
    """Smallest tensor norm: :func:`cb_norm_linf` with the unit slot pinned.

    Keyword arguments are those of :func:`cb_norm_linf`.
    """
    return cb_norm_linf(list(t.coeffs), pin_first=True, **kwargs)


@dataclass
class ContractionReport:
    """One instance of max(u . t) <= dec(u) * min(t)."""

    lhs: float
    dec_value: float
    min_upper: float
    rhs: float
    slack: float
    ok: bool


def check_finite_rank_contraction(u: LinearMapRep, t: FreeTensor, *,
                                  tol: float = 1e-6) -> ContractionReport:
    """Push ``t`` through ``u`` and compare norms.

    The left side is the max norm of the tensor with coefficients
    ``u(x_j)``; the right side is ``dec(u)`` times the min-norm upper value
    of ``t``.  ``ok`` allows slack ``tol`` relative to the right side.
    """
    return check_finite_rank_contractions([(u, t)], tol=tol)[0]


def check_finite_rank_contractions(pairs: list[tuple[LinearMapRep, FreeTensor]], *,
                                   tol: float = 1e-6) -> list[ContractionReport]:
    """:func:`check_finite_rank_contraction` of many ``(u, t)`` pairs, in one call.

    Every pair is validated before any norm is computed.  The three norms
    of every pair go to :func:`dec_norms` together, so norms of one
    constraint structure (the two n-tuples in M_d of a pair, and those of
    pairs of equal sizes) are solved in lockstep; each report is the one
    the single call returns.
    """
    inputs = []
    for u, t in pairs:
        if u.domain.num_blocks != 1 or u.domain.block_dims[0] != t.coeff_dim:
            raise ValueError("map domain must be the coefficient matrix algebra")
        dom = matrix_algebra(t.coeff_dim)
        inputs += [[apply_map(u, element(dom, [x])) for x in t.coeffs], u, list(t.coeffs)]
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
