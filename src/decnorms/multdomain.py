"""Multiplicative domains of unital completely positive maps.

The multiplicative domain of a unital CP map u consists of the elements a
with u(a*a) = u(a)*u(a) and u(aa*) = u(a)u(a)*.  It is a C*-subalgebra,
u restricts to a *-homomorphism on it, and u is a bimodule map over it:
u(axb) = u(a)u(x)u(b) whenever a and b lie in the domain.

Those quadratic equalities are equivalent to the linear system
u(ea) = u(e)u(a), u(ae) = u(a)u(e) over all matrix units e, so the
computation here is one singular value decomposition: stack the linear
conditions, read the kernel at cutoff 1e-9 times the largest singular
value, and verify the Schwarz equalities on the result afterwards.
Products of matrix units are again matrix units, so every entry of the
system matrix comes from precomputed images, no generic map application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from decnorms import linalg
from decnorms.algebra import (
    AlgebraElement,
    AlgebraShape,
    element_norm,
    unit,
)
from decnorms.maps import LinearMapRep, apply_map, is_cp, is_unital, matrix_units

RANK_CUTOFF = 1e-9
SCHWARZ_TOL = 1e-9


@dataclass(frozen=True)
class SubalgebraBasis:
    """Hilbert-Schmidt-orthonormal basis of a subalgebra of ``ambient``."""

    ambient: AlgebraShape
    basis: tuple
    dimension: int


def coefficient_vector(x: AlgebraElement) -> np.ndarray:
    """Coordinates of ``x`` over the matrix-unit basis (blocks flattened)."""
    return np.concatenate([b.reshape(-1) for b in x.blocks])


def element_from_coefficients(shape: AlgebraShape, v: np.ndarray) -> AlgebraElement:
    """Inverse of :func:`coefficient_vector`."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != shape.total_dim:
        raise ValueError("coefficient vector length does not match the algebra")
    blocks = []
    pos = 0
    for d in shape.block_dims:
        blocks.append(v[pos:pos + d * d].reshape(d, d).copy())
        pos += d * d
    return AlgebraElement(shape=shape, blocks=tuple(blocks))


def span_projector(basis) -> np.ndarray:
    """Orthogonal projector onto the span of the given elements."""
    cols = np.stack([coefficient_vector(b) for b in basis], axis=1)
    q, _ = np.linalg.qr(cols)
    return q @ q.conj().T


def subalgebra_closure_report(d: SubalgebraBasis) -> dict:
    """Residuals of the subalgebra axioms on the stored basis.

    Returns unit membership, adjoint closure and product closure residuals,
    each as the Hilbert-Schmidt distance from the span, and the largest
    deviation of the basis Gram matrix from the identity.
    """
    proj = span_projector(d.basis)
    shape = d.ambient

    def dist(x: AlgebraElement) -> float:
        v = coefficient_vector(x)
        return float(np.linalg.norm(v - proj @ v))

    one = unit(shape)
    unit_res = dist(one) / max(1.0, float(np.linalg.norm(coefficient_vector(one))))
    adj_res = max(dist(b.adjoint()) for b in d.basis)
    prod_res = max(dist(a * b) for a in d.basis for b in d.basis)
    cols = np.stack([coefficient_vector(b) for b in d.basis], axis=1)
    gram = cols.conj().T @ cols
    ortho = float(np.abs(gram - np.eye(d.dimension)).max())
    return {
        "unit": unit_res,
        "adjoint": adj_res,
        "product": prod_res,
        "orthonormality": ortho,
    }


def _unit_images(u: LinearMapRep) -> tuple[list, list[tuple]]:
    """Assembled codomain matrices of u on every matrix unit, in index order."""
    imgs = []
    idx = []
    for k, i, r, s in matrix_units(u.domain):
        imgs.append(u.images[k].assemble())
        idx.append((i, r, s))
    return imgs, idx


def multiplicative_domain(u: LinearMapRep, *, tol: float = 1e-9) -> SubalgebraBasis:
    """Largest subalgebra on which ``u`` multiplies.

    Requires a unital completely positive map.  Solves the linear system
    u(ea) = u(e)u(a), u(ae) = u(a)u(e) over all matrix units e; the kernel
    is read off at singular-value cutoff 1e-9 relative to the largest
    singular value, orthonormalized in the Hilbert-Schmidt inner product.
    The Schwarz equalities u(a*a) = u(a)*u(a) and u(aa*) = u(a)u(a)* are
    re-checked on the returned basis and a violation raises.
    """
    if not is_cp(u, tol=tol):
        raise ValueError("map must be completely positive")
    if not is_unital(u, tol=max(tol, 1e-9)):
        raise ValueError("map must be unital")

    shape = u.domain
    dim = shape.total_dim
    m = u.codomain.embed_dim
    imgs, idx = _unit_images(u)
    pos_of = {key: p for p, key in enumerate(idx)}

    # Column k of the system: both products against every unit e_t, stacked.
    zero = np.zeros((m, m), dtype=np.complex128)
    cols = np.empty((2 * dim * m * m, dim), dtype=np.complex128)
    for k, (bk, rk, sk) in enumerate(idx):
        rows = []
        for t, (bt, rt, st) in enumerate(idx):
            if bk == bt and sk == rt:
                left = imgs[pos_of[(bk, rk, st)]]
            else:
                left = zero
            rows.append((left - imgs[k] @ imgs[t]).reshape(-1))
        for t, (bt, rt, st) in enumerate(idx):
            if bt == bk and st == rk:
                right = imgs[pos_of[(bt, rt, sk)]]
            else:
                right = zero
            rows.append((right - imgs[t] @ imgs[k]).reshape(-1))
        cols[:, k] = np.concatenate(rows)

    sing = np.linalg.svd(cols, compute_uv=True)
    s, vh = sing[1], sing[2]
    top = float(s[0]) if s.size else 0.0
    # anchor the cutoff to the image scale too: a homomorphism leaves only
    # roundoff in the system, and a purely relative cutoff would then count
    # noise singular values as rank
    img_scale = max((linalg.operator_norm(g) for g in imgs), default=0.0)
    floor = RANK_CUTOFF * max(top, img_scale * img_scale, np.finfo(float).tiny)
    rank = int(np.sum(s > floor))
    null = vh[rank:].conj()
    if null.shape[0] == 0:
        raise RuntimeError("empty multiplicative domain; the unit should always belong")

    basis = tuple(element_from_coefficients(shape, row) for row in null)
    worst = 0.0
    for b in basis:
        ub = apply_map(u, b)
        lhs1 = apply_map(u, b.adjoint() * b)
        lhs2 = apply_map(u, b * b.adjoint())
        worst = max(
            worst,
            element_norm(lhs1 - ub.adjoint() * ub),
            element_norm(lhs2 - ub * ub.adjoint()),
        )
    if worst > SCHWARZ_TOL:
        raise RuntimeError(
            f"kernel basis violates the Schwarz equality (residual {worst:.3e})"
        )
    return SubalgebraBasis(ambient=shape, basis=basis, dimension=len(basis))


def bimodularity_residual(
    u: LinearMapRep,
    a: AlgebraElement,
    x: AlgebraElement,
    b: AlgebraElement,
) -> float:
    """Largest deviation among u(ax)=u(a)u(x), u(xb)=u(x)u(b), u(axb)=u(a)u(x)u(b)."""
    ua = apply_map(u, a)
    ux = apply_map(u, x)
    ub = apply_map(u, b)
    r1 = element_norm(apply_map(u, a * x) - ua * ux)
    r2 = element_norm(apply_map(u, x * b) - ux * ub)
    r3 = element_norm(apply_map(u, a * x * b) - ua * ux * ub)
    return max(r1, r2, r3)


@dataclass
class BimodularityReport:
    """Worst sampled residual of the bimodule identities."""

    max_residual: float
    samples: int
    dimension: int


def verify_bimodularity(
    u: LinearMapRep,
    d: SubalgebraBasis,
    *,
    samples: int = 25,
    seed: int = 0,
) -> BimodularityReport:
    """Sample a, b from span(d) and arbitrary x; report the worst residual.

    The sampled a and b are normalized to unit Hilbert-Schmidt norm and x
    to unit operator norm, so residuals are on an absolute scale.
    """
    from decnorms.testkit import make_generator, random_element

    if d.ambient != u.domain:
        raise ValueError("subalgebra ambient shape must match the map domain")
    gen = make_generator(seed, stream=77)
    dim = d.dimension
    worst = 0.0
    for _ in range(samples):
        ca = gen.standard_normal((dim, 2)) @ np.array([1.0, 1.0j]) / np.sqrt(2.0)
        cb = gen.standard_normal((dim, 2)) @ np.array([1.0, 1.0j]) / np.sqrt(2.0)
        ca /= max(np.linalg.norm(ca), 1e-30)
        cb /= max(np.linalg.norm(cb), 1e-30)
        a = _combine(ca, d.basis)
        b = _combine(cb, d.basis)
        x = random_element(gen, u.domain)
        nx = element_norm(x)
        if nx > 0:
            x = (1.0 / nx) * x
        worst = max(worst, bimodularity_residual(u, a, x, b))
    return BimodularityReport(max_residual=float(worst), samples=samples, dimension=dim)


def _combine(coeffs: np.ndarray, basis) -> AlgebraElement:
    acc = coeffs[0] * basis[0]
    for c, b in zip(coeffs[1:], basis[1:]):
        acc = acc + c * b
    return acc
