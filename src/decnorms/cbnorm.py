"""Completely bounded norms via unitary tensors, from both sides.

For coefficients ``x_1..x_n`` in M_d the completely bounded norm of the
map ``e_i -> x_i`` equals the supremum of ``||sum u_i (x) x_i||`` over
families of unitaries of any size.  Two independent routes bracket it:

* a see-saw search (alternating maximization over the unitaries and the
  top singular pair) climbs toward the supremum from below, and
* the decomposable-norm semidefinite program reaches the value from
  above; its certificate factors ``x_i = y_i z_i`` with ``y_i = a_i*`` and
  ``z_i = b_i``, and the Gram norms of those witnesses certify the bound.

For maps into M_d the decomposable norm equals the completely bounded
norm, which is exactly what the package's agreement checks exercise, with
the see-saw confirming from below that the program did not stop short.
``cb_norm_linf`` is the one bracket routine; with ``pin_first`` it also
brackets the min tensor norm of ``decnorms.freetensor``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from decnorms import linalg
from decnorms.algebra import AlgebraElement
from decnorms.decomposable import DecCertificate, dec_norm_linf
from decnorms.testkit import make_generator, random_haar_unitary


def _coerce_mats(xs) -> list[np.ndarray]:
    out = []
    d = None
    for x in xs:
        if isinstance(x, AlgebraElement):
            if x.shape.num_blocks != 1:
                raise ValueError("coefficients must live in a single matrix block")
            m = x.blocks[0]
        else:
            m = linalg.as_matrix(x)
        if m.shape[0] != m.shape[1]:
            raise ValueError("coefficients must be square")
        if d is None:
            d = m.shape[0]
        elif m.shape[0] != d:
            raise ValueError("coefficients must share one size")
        out.append(m.astype(np.complex128))
    if not out:
        raise ValueError("need at least one coefficient")
    return out


def evaluate_tensor_norm(us, xs) -> float:
    """Operator norm of ``sum_i u_i (x) x_i``.

    ``us`` and ``xs`` are equally long lists of square matrices; the u_i
    must share one size and the x_i another.
    """
    if len(us) != len(xs):
        raise ValueError("need one u per coefficient")
    u_mats = [linalg.as_matrix(u) for u in us]
    x_mats = _coerce_mats(xs)
    k = u_mats[0].shape[0]
    for u in u_mats:
        if u.shape != (k, k):
            raise ValueError("all u_i must share one square size")
    acc = sum(np.kron(u, x) for u, x in zip(u_mats, x_mats))
    return linalg.operator_norm(acc)


@dataclass
class SeeSawResult:
    """Best value found by alternating maximization, with its witnesses."""

    lower: float
    witness_unitaries: list[np.ndarray] = field(repr=False)
    witness_vectors: tuple[np.ndarray, np.ndarray] = field(repr=False)
    iterations: int = 0
    restarts_used: int = 0
    converged: bool = False
    aux_dimension: int = 0
    objective_history: list[float] = field(default_factory=list, repr=False)


def _check_seesaw_args(aux_dim: int, restarts: int):
    if aux_dim < 1:
        raise ValueError("auxiliary dimension must be positive")
    if restarts < 1:
        raise ValueError("need at least one restart")


def _assemble(us: list[np.ndarray], xs: list[np.ndarray]) -> np.ndarray:
    return sum(np.kron(u, x) for u, x in zip(us, xs))


def seesaw_min_norm(
    xs,
    *,
    aux_dim: int | None = None,
    restarts: int = 32,
    seed: int = 0,
    max_sweeps: int = 400,
    tol: float = 1e-11,
    pin_first: bool = False,
) -> SeeSawResult:
    """Lower bound for sup ||sum u_i (x) x_i|| by alternating maximization.

    One sweep freezes the current top singular pair (xi, eta) of the
    assembled tensor and replaces each u_i by the unitary polar factor that
    maximizes the pairing -- those updates are independent across i -- then
    recomputes the top singular pair.  Both half-steps are exact
    maximizations of the same functional, so the objective never decreases;
    the sweep stops after the improvement stays below ``tol`` (relative)
    three times in a row.

    Restart 0 is deterministic: ``u_i`` is the unitary polar factor of
    ``conj(x_i)`` padded by the identity, which is exactly optimal when the
    coefficients are unitaries.  Further restarts draw Haar unitaries from
    a Philox stream keyed by ``(seed, aux_dim)``.  With ``pin_first`` the
    first unitary stays the identity throughout, which computes the norm
    of a tensor whose first generator is the unit.
    """
    mats = _coerce_mats(xs)
    n = len(mats)
    d = mats[0].shape[0]
    k = int(aux_dim) if aux_dim is not None else d
    _check_seesaw_args(k, restarts)

    gen = make_generator(seed, stream=k)
    best: SeeSawResult | None = None

    for restart in range(restarts):
        if restart == 0:
            us = []
            for x in mats:
                pad = np.eye(k, dtype=np.complex128)
                c = min(k, d)
                pad[:c, :c] = x.conj()[:c, :c]
                us.append(linalg.polar_unitary(pad))
        else:
            us = [random_haar_unitary(gen, k) for _ in range(n)]
        if pin_first:
            us[0] = np.eye(k, dtype=np.complex128)

        t_mat = _assemble(us, mats)
        sigma, xi, eta = linalg.top_singular_triple(t_mat)
        history = [sigma]
        streak = 0
        converged = False
        sweeps = 0
        for sweep in range(1, max_sweeps + 1):
            sweeps = sweep
            xi_m = xi.reshape(k, d)
            eta_m = eta.reshape(k, d)
            for i in range(n):
                if pin_first and i == 0:
                    continue
                g = xi_m.conj() @ mats[i] @ eta_m.T
                us[i] = linalg.polar_unitary(g.conj())
            t_mat = _assemble(us, mats)
            new_sigma, xi, eta = linalg.top_singular_triple(t_mat)
            history.append(new_sigma)
            if new_sigma - sigma <= tol * max(1.0, new_sigma):
                streak += 1
            else:
                streak = 0
            sigma = new_sigma
            if streak >= 3:
                converged = True
                break

        if best is None or sigma > best.lower:
            best = SeeSawResult(
                lower=float(sigma),
                witness_unitaries=[u.copy() for u in us],
                witness_vectors=(xi.copy(), eta.copy()),
                iterations=sweeps,
                restarts_used=restarts,
                converged=converged,
                aux_dimension=k,
                objective_history=history,
            )
    return best


@dataclass
class CbAgreement:
    """Two-sided bracket of a completely bounded norm.

    ``certificate`` is the decomposable-norm certificate behind ``upper``;
    its factors give the witnesses ``x_i = y_i z_i`` with
    ``y_i = factor_a[i]*`` and ``z_i = factor_b[i]``.
    """

    upper: float
    lower: float
    gap: float
    verdict: str
    seesaw: SeeSawResult = field(repr=False)
    certificate: DecCertificate = field(repr=False)


def cb_norm_linf(
    xs,
    *,
    restarts: int = 24,
    seed: int = 0,
    agree_tol: float = 5e-4,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200_000,
    aux_dim: int | None = None,
    pin_first: bool = False,
) -> CbAgreement:
    """cb norm of ``e_i -> x_i`` into M_d, bracketed from both sides.

    The decomposable-norm SDP gives the upper value; the see-saw starts at
    auxiliary dimension d (or ``aux_dim``) and, if the bracket stays wider
    than ``agree_tol`` (relative), retries at twice that with double the
    restarts.  ``pin_first`` keeps the see-saw's first unitary at the
    identity.  Verdict ``"agree"`` means the bracket closed within
    ``agree_tol``.
    """
    mats = _coerce_mats(xs)
    k0 = int(aux_dim) if aux_dim is not None else mats[0].shape[0]
    _check_seesaw_args(k0, restarts)  # before the SDP, which bad arguments would waste
    cert = dec_norm_linf(mats, gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter)
    upper = float(cert.value)

    saw = seesaw_min_norm(mats, aux_dim=k0, restarts=restarts, seed=seed, pin_first=pin_first)
    gap = (upper - saw.lower) / max(1.0, upper)
    if gap > agree_tol:
        saw2 = seesaw_min_norm(mats, aux_dim=2 * k0, restarts=2 * restarts, seed=seed,
                               pin_first=pin_first)
        if saw2.lower > saw.lower:
            saw = saw2
        gap = (upper - saw.lower) / max(1.0, upper)

    verdict = "agree" if gap <= agree_tol else "inconclusive"
    return CbAgreement(
        upper=upper,
        lower=float(saw.lower),
        gap=float(gap),
        verdict=verdict,
        seesaw=saw,
        certificate=cert,
    )
