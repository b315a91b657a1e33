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

For matrix-algebra coefficients the two tensor norms agree, and
``nuclearity_gap`` checks that numerically; ``check_finite_rank_contraction``
checks the companion inequality that pushing a tensor forward through a
map can grow the max norm by at most the map's decomposable norm times
the original min norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from decnorms import linalg
from decnorms.cbnorm import CbAgreement, cb_norm_linf
# unused here; perfbench/tests/test_perfbench.py checks that the tracer rebinds this name
from decnorms.cbnorm import seesaw_min_norm  # noqa: F401
from decnorms.decomposable import (
    DecCertificate,
    dec_norm_linf,
    dec_norm_matrix_domain,
)
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


def max_norm(
    t: FreeTensor,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200_000,
) -> tuple[float, DecCertificate]:
    """Largest tensor norm, as the decomposable norm of ``e_j -> x_j``."""
    cert = dec_norm_linf(list(t.coeffs), gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter)
    return float(cert.value), cert


def min_norm(t: FreeTensor, **kwargs) -> CbAgreement:
    """Smallest tensor norm: :func:`cb_norm_linf` with the unit slot pinned.

    Keyword arguments are those of :func:`cb_norm_linf`.
    """
    return cb_norm_linf(list(t.coeffs), pin_first=True, **kwargs)


@dataclass
class NuclearityReport:
    """Numerical agreement of min and max norms for one tensor."""

    max_value: float
    min_upper: float
    min_lower: float
    rel_gap: float
    seesaw_gap: float
    verdict: str
    max_certificate: DecCertificate = field(repr=False)
    min_bracket: CbAgreement = field(repr=False)


def nuclearity_gap(
    t: FreeTensor,
    *,
    restarts: int = 24,
    seed: int = 0,
    agree_tol: float = 5e-4,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200_000,
    aux_dim: int | None = None,
) -> NuclearityReport:
    """Compare the two tensor norms of ``t``.

    ``rel_gap`` is (max - min_lower) / max(1, max): how far the largest
    norm sits above the best certified lower bound for the smallest one.
    ``seesaw_gap`` is the width of the min-norm bracket itself.  Verdict
    ``"agree"`` needs both within ``agree_tol``.
    """
    br = min_norm(
        t, restarts=restarts, seed=seed, agree_tol=agree_tol,
        gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter, aux_dim=aux_dim,
    )
    # the min-norm upper value is the max norm: both are dec(e_j -> x_j)
    mx = br.upper
    rel = (mx - br.lower) / max(1.0, mx)
    verdict = "agree" if (rel <= agree_tol and br.gap <= agree_tol) else "inconclusive"
    return NuclearityReport(
        max_value=mx,
        min_upper=br.upper,
        min_lower=br.lower,
        rel_gap=float(rel),
        seesaw_gap=float(br.gap),
        verdict=verdict,
        max_certificate=br.certificate,
        min_bracket=br,
    )


@dataclass
class ContractionReport:
    """One instance of max(u . t) <= dec(u) * min(t)."""

    lhs: float
    dec_value: float
    min_upper: float
    rhs: float
    slack: float
    ok: bool


def check_finite_rank_contraction(
    u: LinearMapRep,
    t: FreeTensor,
    *,
    dec_value: float | None = None,
    seed: int = 0,
    restarts: int = 24,
    tol: float = 1e-6,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200_000,
) -> ContractionReport:
    """Push ``t`` through ``u`` and compare norms.

    The left side is the max norm of the tensor with coefficients
    ``u(x_j)``; the right side is ``dec(u)`` times the min-norm upper value
    of ``t``.  ``dec_value`` can be supplied to reuse a known decomposable
    norm, otherwise it is computed from ``u``.  ``ok`` allows slack ``tol``
    relative to the right side.
    """
    if u.domain.num_blocks != 1 or u.domain.block_dims[0] != t.coeff_dim:
        raise ValueError("map domain must be the coefficient matrix algebra")
    dom = matrix_algebra(t.coeff_dim)
    mapped = [apply_map(u, element(dom, [x])) for x in t.coeffs]
    lhs_cert = dec_norm_linf(mapped, gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter)
    lhs = float(lhs_cert.value)
    if dec_value is None:
        dec_value = float(dec_norm_matrix_domain(
            u, gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter
        ).value)
    min_upper = float(dec_norm_linf(
        list(t.coeffs), gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter
    ).value)
    rhs = dec_value * min_upper
    slack = rhs - lhs
    ok = lhs <= rhs + tol * max(1.0, rhs)
    return ContractionReport(
        lhs=lhs,
        dec_value=float(dec_value),
        min_upper=min_upper,
        rhs=float(rhs),
        slack=float(slack),
        ok=bool(ok),
    )
