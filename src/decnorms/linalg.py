"""Dense complex linear-algebra primitives used across the package.

Everything here operates on square or rectangular complex matrices held as
``numpy`` arrays in ``complex128``.  The routines are thin, opinionated
wrappers around LAPACK (via ``numpy.linalg``) that fix the conventions the
rest of the package relies on:

* Hermitian eigensystems come back with eigenvalues in ascending order and
  inputs are symmetrized as ``(a + a*) / 2`` before factoring, provided the
  Hermitian defect is within tolerance.
* ``svd`` returns ``(u, s, vh)`` with ``a = u @ diag(s) @ vh`` and singular
  values in descending order.
* All results are deterministic: the same input bits produce the same
  output bits on repeated calls.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance for accepting a matrix as Hermitian before symmetrizing.
HERMITIAN_RTOL = 1e-12


def as_matrix(a, *, stack: bool = False) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array, rejecting non-finite entries.

    With ``stack`` any array of ndim >= 2 is accepted as a stack of
    matrices over its last two axes.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise ValueError(f"expected a matrix, got an array of ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def symmetrize(a, *, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Return ``(a + a*) / 2`` after checking ``a`` is Hermitian within ``rtol``.

    The tolerance is relative to the norm of the input; exact zeros pass
    trivially.  Raises ``ValueError`` when the defect is too large, since a
    silently symmetrized non-Hermitian matrix usually hides a bug upstream.
    A stack ``(..., m, m)`` is checked and symmetrized matrix by matrix.
    """
    m = as_matrix(a, stack=True)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"cannot symmetrize a non-square matrix {m.shape}")
    mh = np.swapaxes(m.conj(), -1, -2)
    diff = m - mh
    # the Frobenius norm bounds the operator norm and max(norm, 1) >= 1, so
    # only a Frobenius defect above rtol needs the exact test
    if np.linalg.norm(diff) > rtol:
        q = m.shape[-1]
        for mk, dk in zip(m.reshape(-1, q, q), diff.reshape(-1, q, q)):
            if np.linalg.norm(dk) <= rtol:
                continue
            scale = operator_norm(mk)
            defect = operator_norm(dk)
            if defect > rtol * max(scale, 1.0):
                raise ValueError(
                    f"matrix is not Hermitian: defect {defect:.3e} exceeds "
                    f"{rtol:.1e} * max(norm, 1) = {rtol * max(scale, 1.0):.3e}"
                )
    return (m + mh) / 2.0


def herm_eigensystem(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary
    ``v`` such that ``a = v @ diag(w) @ v*``.  The input is symmetrized
    first; a Hermitian defect above ``HERMITIAN_RTOL`` (relative) raises.
    A stack ``(..., m, m)`` is decomposed matrix by matrix in one call.
    """
    h = symmetrize(a)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise np.linalg.LinAlgError(
            f"eigh failed to converge on an array of shape {h.shape} "
            f"with max entry {np.abs(h).max():.3e}"
        ) from exc
    return w, v


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full singular value decomposition ``a = u @ diag(s) @ vh``.

    Singular values are descending; ``u`` and ``vh`` are unitary.  Shapes
    follow the full (not reduced) convention so ``u`` is m-by-m and ``vh``
    is n-by-n for an m-by-n input.  A stack ``(..., m, n)`` is factored
    matrix by matrix in one call, each exactly as it would be on its own.
    """
    m = as_matrix(a, stack=True)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise np.linalg.LinAlgError(
            f"svd failed to converge on an array of shape {m.shape} "
            f"with max entry {np.abs(m).max():.3e}"
        ) from exc
    return u, s, vh


def operator_norm(a) -> float:
    """Largest singular value of ``a`` (the operator norm on column vectors)."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def polar_unitary(a) -> np.ndarray:
    """Unitary factor of the polar decomposition of a square matrix.

    For ``a = u @ diag(s) @ vh`` this is ``u @ vh``; it maximizes
    ``Re tr(w* a)`` over all unitaries ``w``, which is what the alternating
    maximization in the min-norm search needs.  Rank-deficient inputs get
    the deterministic completion LAPACK's full SVD provides.  A stack
    ``(..., m, m)`` gets one polar factor per matrix.
    """
    m = as_matrix(a, stack=True)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"polar factor needs square matrices, got {m.shape}")
    u, _, vh = svd(m)
    return u @ vh


def psd_roots(a, *, rcond: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Square root and pseudo-inverse square root of a PSD matrix.

    Both come from one eigendecomposition.  The square root clips tiny
    negative modes to zero.  In the pseudo-inverse root, eigenvalues below
    ``rcond * max(eigenvalue)`` are treated as zero, so it acts as
    ``a**(-1/2)`` on the numerical range of ``a`` and as zero on its kernel.
    A stack ``(..., m, m)`` gets the roots of each matrix, each with the
    bits it gets on its own.
    """
    w, v = herm_eigensystem(a)
    vh = np.swapaxes(v.conj(), -1, -2)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ vh
    top = np.maximum(w[..., -1:], 0.0)
    inv = np.zeros_like(w)
    keep = w > rcond * np.maximum(top, np.finfo(float).tiny)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    return root, (v * inv[..., None, :]) @ vh


def top_singular_triple(a) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Largest singular value with its left and right unit vectors.

    Returns ``(sigma, left, right)`` with ``a @ right = sigma * left``.  For
    a stack ``(..., m, n)`` the three carry the stack's leading axes.
    """
    u, s, vh = svd(a)
    if s.shape[-1] == 0:
        raise ValueError("matrix has no singular values")
    return s[..., 0], u[..., :, 0].copy(), vh[..., 0, :].conj()
