"""Completely bounded norms via unitary tensors, from both sides.

For coefficients ``x_1..x_n`` in M_d the completely bounded norm of the
map ``e_i -> x_i`` equals the supremum of ``||sum u_i (x) x_i||`` over
families of unitaries of any size.  Two independent routes bracket it:

* a see-saw search (alternating maximization over the unitaries and the
  top singular pair) climbs toward the supremum from below; its restarts
  run as stacked arrays, chunked to a fixed memory budget, and each sweep
  takes two stacked SVDs for all of them, and
* the decomposable-norm semidefinite program reaches the value from
  above; its certificate factors ``x_i = y_i z_i`` with ``y_i = a_i*`` and
  ``z_i = b_i``, and the Gram norms of those witnesses certify the bound.

For maps into M_d the decomposable norm equals the completely bounded
norm, which is exactly what the package's agreement checks exercise, with
the see-saw confirming from below that the program did not stop short.
``cb_norm_linf`` is the one bracket routine.  It runs the see-saw's
deterministic start first and stops there once the bracket closes; the
random restarts, and then the escalation to a larger auxiliary dimension,
run only while it is still open.  :func:`min_norm` is the same
bracket with the see-saw's first unitary pinned to the identity: the min
tensor norm of ``sum_j U_j (x) x_j`` (``U_0`` the unit, the others universal
unitaries), whose max norm is ``dec_norm_linf(xs).value``.  For matrix
coefficients the two norms agree, so the bracket closes on the max norm and
its gap is how far the see-saw's lower bound sits below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from decnorms import linalg
from decnorms.algebra import AlgebraElement, coefficient_tuple, element_norm
from decnorms.decomposable import (
    FLAG_RESIDUAL,
    DecCertificate,
    dec_norm_linf,
    reconstruction_residual,
)
from decnorms.maps import map_from_linf
from decnorms.testkit import make_generator, random_haar_unitary

# Bytes of stacked see-saw arrays that one chunk of restarts may hold at
# once.  Per restart a sweep holds four kd x kd matrices (the running sum
# of the products u_i (x) x_i, the product being added, and the two unitary
# factors of the sum's SVD) and six stacks of n k x k matrices (the
# unitaries, their copy for the active set, the pairings, and the polar
# step's SVD factors and product).  A restart above the budget runs alone.
SWEEP_BYTES = 8 << 20
# A restart stops once its relative improvement stays at most this small
# for three sweeps in a row.
SWEEP_TOL = 1e-11


def evaluate_tensor_norm(us, xs) -> float:
    """Operator norm of ``sum_i u_i (x) x_i``.

    ``us`` is a list of square matrices of one size, one per coefficient
    of the tuple ``xs``, whose coefficients lie in one matrix block.
    """
    if len(us) != len(xs):
        raise ValueError("need one u per coefficient")
    u_mats = [linalg.as_matrix(u) for u in us]
    elems = coefficient_tuple(xs)
    if not elems[0].shape.is_factor():
        raise ValueError("coefficients must live in a single matrix block")
    x_mats = [x.blocks[0] for x in elems]
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


def _seesaw_aux_dim(elems: list[AlgebraElement], aux_dim: int | None, restarts: int,
                    seed: int, max_sweeps: int = 0) -> int:
    """The see-saw's auxiliary dimension, ``aux_dim`` or d, once its arguments are checked."""
    if not elems[0].shape.is_factor():
        raise ValueError("coefficients must live in a single matrix block")
    k = int(aux_dim) if aux_dim is not None else elems[0].shape.embed_dim
    if k < 1:
        raise ValueError(f"aux_dim must be positive, got {aux_dim}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be non-negative, got {max_sweeps}")
    return k


def seesaw_min_norm(
    xs,
    *,
    aux_dim: int | None = None,
    restarts: int = 32,
    seed: int = 0,
    max_sweeps: int = 400,
    pin_first: bool = False,
) -> SeeSawResult:
    """Lower bound for sup ||sum u_i (x) x_i|| by alternating maximization.

    One sweep freezes the current top singular pair (xi, eta) of the
    assembled tensor and replaces each u_i by the unitary polar factor that
    maximizes the pairing -- those updates are independent across i -- then
    recomputes the top singular pair.  Both half-steps are exact
    maximizations of the same functional, so the objective never decreases;
    a restart stops after its improvement stays below ``SWEEP_TOL``
    (relative) three times in a row.

    Restart 0 is deterministic: ``u_i`` is the unitary polar factor of
    ``conj(x_i)`` padded by the identity, which is exactly optimal when the
    coefficients are unitaries.  Further restarts draw Haar unitaries from
    a Philox stream keyed by ``(seed, aux_dim)``.  With ``pin_first`` the
    first unitary stays the identity throughout, which computes the norm
    of a tensor whose first generator is the unit.

    The restarts run together, in chunks that keep their stacked arrays
    within ``SWEEP_BYTES``; a restart that alone exceeds it runs by itself
    and holds four kd x kd matrices, whatever n.  A sweep updates every
    active restart of a chunk at once: n broadcast products, added in
    place, assemble every tensor, one stacked SVD gives every polar factor
    and one stacked SVD every top pair.  A restart leaves the active set
    when it converges, so each restart ends where it would on its own, bit
    for bit, whatever the chunk split.
    """
    elems = coefficient_tuple(xs)
    k = _seesaw_aux_dim(elems, aux_dim, restarts, seed, max_sweeps)
    x = np.stack([e.blocks[0] for e in elems])
    n, d = x.shape[:2]
    kd = k * d
    chunk = max(1, SWEEP_BYTES // (16 * (4 * kd * kd + 6 * n * k * k)))
    lo = 1 if pin_first else 0

    def top_pairs(us):
        # the broadcast products u_i (x) x_i added in place in order
        # i = 0..n-1: the same bits as a sum of np.kron terms (einsum's
        # fused multiply-add is not), so degenerate polar steps complete
        # alike, with one product held at a time
        t = np.multiply(us[:, 0, :, None, :, None], x[0, :, None, :])
        term = np.empty_like(t)
        for i in range(1, n):
            t += np.multiply(us[:, i, :, None, :, None], x[i, :, None, :], out=term)
        return linalg.top_singular_triple(t.reshape(len(us), kd, kd))

    gen = make_generator(seed, stream=k)
    best: SeeSawResult | None = None
    for first in range(0, restarts, chunk):
        us = []
        for restart in range(first, min(first + chunk, restarts)):
            if restart == 0:
                pad = np.tile(np.eye(k, dtype=np.complex128), (n, 1, 1))
                c = min(k, d)
                pad[:, :c, :c] = x.conj()[:, :c, :c]
                us.append(linalg.polar_unitary(pad))
            else:
                us.append(np.stack([random_haar_unitary(gen, k) for _ in range(n)]))
        us = np.stack(us)
        if pin_first:
            us[:, 0] = np.eye(k)

        sigma, xi, eta = top_pairs(us)
        history = np.full((max_sweeps + 1, len(us)), np.nan)
        history[0] = sigma
        streak = np.zeros(len(us), dtype=int)
        sweeps = np.zeros(len(us), dtype=int)
        active = np.arange(len(us))
        for sweep in range(1, max_sweeps + 1):
            if active.size == 0:
                break
            xi_m = xi[active].reshape(-1, 1, k, d)
            eta_m = eta[active].reshape(-1, 1, k, d)
            g = xi_m.conj() @ x @ eta_m.swapaxes(-1, -2)
            us[active, lo:] = linalg.polar_unitary(g[:, lo:].conj())
            new_sigma, xi[active], eta[active] = top_pairs(us[active])
            history[sweep, active] = new_sigma
            sweeps[active] = sweep
            small = new_sigma - sigma[active] <= SWEEP_TOL * np.maximum(1.0, new_sigma)
            streak[active] = np.where(small, streak[active] + 1, 0)
            sigma[active] = new_sigma
            active = active[streak[active] < 3]

        r = int(np.argmax(sigma))
        if best is None or sigma[r] > best.lower:
            best = SeeSawResult(
                lower=float(sigma[r]),
                witness_unitaries=list(us[r].copy()),
                witness_vectors=(xi[r].copy(), eta[r].copy()),
                iterations=int(sweeps[r]),
                restarts_used=restarts,
                converged=bool(streak[r] >= 3),
                aux_dimension=k,
                objective_history=history[:sweeps[r] + 1, r].tolist(),
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


def _check_certificate(xs: list[AlgebraElement], cert: DecCertificate):
    """Raise ``ValueError`` unless ``cert`` is a tuple certificate whose factors rebuild ``xs``."""
    if (cert.kind != "linf" or len(cert.factor_a) != len(xs)
            or cert.factor_a[0].shape != xs[0].shape):
        raise ValueError("certificate is not a dec_norm_linf certificate of these coefficients")
    resid = reconstruction_residual(map_from_linf(xs), cert.factor_a, cert.factor_b)
    # as closely as they rebuilt their own tuple, or to the level that flags a certificate
    limit = max(cert.reconstruction_residual,
                FLAG_RESIDUAL * max(1.0, max(element_norm(x) for x in xs)))
    if resid > limit:
        raise ValueError(f"certificate factors miss these coefficients by {resid:.3g}")


def cb_norm_linf(
    xs,
    *,
    restarts: int = 24,
    seed: int = 0,
    agree_tol: float = 5e-4,
    tol: float = 1e-8,
    aux_dim: int | None = None,
    pin_first: bool = False,
    certificate: DecCertificate | None = None,
) -> CbAgreement:
    """cb norm of ``e_i -> x_i`` into M_d, bracketed from both sides.

    The decomposable-norm SDP gives the upper value; the see-saw works at
    auxiliary dimension d (or ``aux_dim``).  Its deterministic restart 0
    runs first, alone, and if the bracket is then within ``agree_tol``
    (relative) that is the result, with ``seesaw.restarts_used`` 1.  While
    the bracket stays wider, the see-saw runs again with all ``restarts``
    (restart 0 included, with the same bits), and then at twice the
    dimension with double the restarts; so ``restarts`` is a ceiling, and
    an open bracket ends as if every restart had run from the start.  The
    SDP's value only decides when to stop: it does not seed the see-saw.
    ``pin_first`` keeps the see-saw's first unitary at the identity.
    Verdict ``"agree"`` means the bracket closed within ``agree_tol``.  A
    caller that already holds the ``dec_norm_linf`` certificate of ``xs``
    (say from one ``dec_norms`` call over many tuples) passes it as
    ``certificate``, and the SDP is not solved again; a certificate whose
    factors do not rebuild ``xs`` raises ``ValueError``, as does, before
    any work, an ``agree_tol`` that is not positive and finite or a see-saw
    argument out of range.
    """
    elems = coefficient_tuple(xs)
    # checked before the SDP, which bad arguments would waste
    k0 = _seesaw_aux_dim(elems, aux_dim, restarts, seed)
    if not (math.isfinite(agree_tol) and agree_tol > 0):
        raise ValueError(f"agree_tol must be positive and finite, got {agree_tol!r}")
    cert = certificate
    if cert is None:
        cert = dec_norm_linf(elems, tol=tol)
    else:
        _check_certificate(elems, cert)
    upper = float(cert.value)

    # restart 0 alone first: its bits are those it has among the others
    saw = seesaw_min_norm(elems, aux_dim=k0, restarts=1, seed=seed, pin_first=pin_first)
    gap = (upper - saw.lower) / max(1.0, upper)
    if gap > agree_tol and restarts > 1:
        saw = seesaw_min_norm(elems, aux_dim=k0, restarts=restarts, seed=seed,
                              pin_first=pin_first)
        gap = (upper - saw.lower) / max(1.0, upper)
    if gap > agree_tol:
        saw2 = seesaw_min_norm(elems, aux_dim=2 * k0, restarts=2 * restarts, seed=seed,
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


def min_norm(xs, **kwargs) -> CbAgreement:
    """Smallest tensor norm of the coefficients ``xs``: :func:`cb_norm_linf` with slot 0 pinned.

    Slot 0 belongs to the unit.  Pinning loses nothing: multiplying through
    by the adjoint of any first unitary makes it the identity without
    changing the norm.  Keyword arguments are those of :func:`cb_norm_linf`;
    the bracket's upper value is the max norm.  As there, the see-saw's
    deterministic start runs first, and its random restarts and the
    escalation run only while the bracket is open.
    """
    return cb_norm_linf(xs, pin_first=True, **kwargs)
