"""Multiplicative domains of unital completely positive maps.

The multiplicative domain of a unital CP map u consists of the elements a
with u(a*a) = u(a)*u(a) and u(aa*) = u(a)u(a)*.  It is a C*-subalgebra,
u restricts to a *-homomorphism on it, and u is a bimodule map over it:
u(axb) = u(a)u(x)u(b) whenever a and b lie in the domain.

Both defects u(a*a) - u(a)*u(a) and u(aa*) - u(a)u(a)* are positive for a
unital CP map (Choi's Schwarz inequality), so a lies in the domain exactly
when the sum of their traces vanishes.  Over the matrix-unit coordinates
alpha of a that trace sum is one Hermitian form alpha* H alpha with a
dim x dim matrix H, and the domain is the kernel of one ``eigh``.  Products
and adjoints of matrix units are matrix units, so the traces come from the
traces of the unit images, and the u(a)*u(a) terms from the Gram matrix of
the flattened images.

Elements are handled as stacked coefficient rows throughout: the Schwarz
re-check on the kernel basis, the closure report and the sampled
bimodularity check are batched block products and one contraction with the
image stack each, no per-element map application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from decnorms.algebra import (
    AlgebraElement,
    AlgebraShape,
    element_norm,
    unit,
)
from decnorms.maps import LinearMapRep, apply_map, is_cp, is_unital

RANK_CUTOFF = 1e-9
SCHWARZ_TOL = 1e-9
# bytes of one chunk of stacked basis products in the closure report
CLOSURE_CHUNK_BYTES = 1 << 23


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
    return AlgebraElement(shape, [b.copy() for b in _blocks(shape, v)])


def _blocks(shape: AlgebraShape, x: np.ndarray) -> list[np.ndarray]:
    """Coefficient rows ``x[..., dim]`` viewed as one ``(..., d, d)`` stack per block."""
    out = []
    pos = 0
    for d in shape.block_dims:
        out.append(x[..., pos:pos + d * d].reshape(x.shape[:-1] + (d, d)))
        pos += d * d
    return out


def _flatten(blocks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([b.reshape(b.shape[:-2] + (-1,)) for b in blocks], axis=-1)


def _product(shape: AlgebraShape, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the blockwise products of two broadcast stacks of elements."""
    return _flatten([p @ q for p, q in zip(_blocks(shape, x), _blocks(shape, y))])


def _adjoint(shape: AlgebraShape, x: np.ndarray) -> np.ndarray:
    return _flatten([b.conj().swapaxes(-1, -2) for b in _blocks(shape, x)])


def _opnorms(stack: np.ndarray) -> np.ndarray:
    """Operator norm of every matrix in a stack."""
    return np.linalg.norm(stack, 2, axis=(-2, -1))


def _image_stack(u: LinearMapRep) -> np.ndarray:
    """Assembled codomain matrices of u on every matrix unit, stacked in index order."""
    return np.stack([img.assemble() for img in u.images])


def _apply(images: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u on a stack of coefficient rows, as assembled codomain matrices."""
    m = images.shape[-1]
    return (x @ images.reshape(len(images), m * m)).reshape(x.shape[:-1] + (m, m))


def _basis_rows(d: SubalgebraBasis) -> np.ndarray:
    return np.stack([coefficient_vector(b) for b in d.basis])


def subalgebra_closure_report(d: SubalgebraBasis) -> dict:
    """Residuals of the subalgebra axioms on the stored basis.

    Returns unit membership, adjoint closure and product closure residuals,
    each as the Hilbert-Schmidt distance from the span, and the largest
    deviation of the basis Gram matrix from the identity.  The products of
    all basis pairs are formed in chunks of rows, at most
    ``CLOSURE_CHUNK_BYTES`` of products at a time.
    """
    shape = d.ambient
    rows = _basis_rows(d)
    n, dim = rows.shape
    q, _ = np.linalg.qr(rows.T)
    # projector onto the orthogonal complement of the span, applied to rows
    comp = (np.eye(dim) - q @ q.conj().T).T

    def dist(x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(x.reshape(-1, dim) @ comp, axis=1)

    one = coefficient_vector(unit(shape))
    unit_res = float(dist(one)[0]) / max(1.0, float(np.linalg.norm(one)))
    adj_res = float(dist(_adjoint(shape, rows)).max())
    prod_res = 0.0
    chunk = max(1, CLOSURE_CHUNK_BYTES // (16 * n * dim))
    for start in range(0, n, chunk):
        prods = _product(shape, rows[start:start + chunk, None], rows[None])
        prod_res = max(prod_res, float(dist(prods).max()))
    gram = rows.conj() @ rows.T
    ortho = float(np.abs(gram - np.eye(n)).max())
    return {
        "unit": unit_res,
        "adjoint": adj_res,
        "product": prod_res,
        "orthonormality": ortho,
    }


def multiplicative_domain(u: LinearMapRep) -> SubalgebraBasis:
    """Largest subalgebra on which ``u`` multiplies.

    Requires a map that is unital and completely positive to within 1e-9.
    For a = sum_k alpha_k e_k over the matrix units e_k = (block, r_k, s_k)
    the Schwarz defect tr(u(a*a) - u(a)*u(a)) + tr(u(aa*) - u(a)u(a)*) is
    alpha* H alpha with

        H[k, t] = [same block, r_k = r_t] tr u(e_{s_k s_t})
                + [same block, s_k = s_t] tr u(e_{r_t r_k})
                - 2 tr(u(e_k)* u(e_t)),

    positive semidefinite, and the domain is its kernel: the eigenvectors
    whose eigenvalue is at most 1e-9 times the squared image scale (the
    largest operator norm of a unit image).  They are orthonormal in the
    Hilbert-Schmidt inner product.  The Schwarz equalities
    u(a*a) = u(a)*u(a) and u(aa*) = u(a)u(a)* are re-checked on the
    returned basis and a violation raises.
    """
    if not is_cp(u):
        raise ValueError("map must be completely positive")
    if not is_unital(u):
        raise ValueError("map must be unital")

    shape = u.domain
    images = _image_stack(u)
    flat = images.reshape(len(images), -1)
    traces = np.trace(images, axis1=1, axis2=2)
    h = -2.0 * (flat.conj() @ flat.T)
    pos = 0
    for d in shape.block_dims:
        tb = traces[pos:pos + d * d].reshape(d, d)
        eye = np.eye(d)
        h[pos:pos + d * d, pos:pos + d * d] += np.kron(eye, tb) + np.kron(tb.T, eye)
        pos += d * d
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    # the defect is quadratic in the images, so the cutoff scales with the
    # squared image scale; a homomorphism leaves only roundoff in H
    scale = float(_opnorms(images).max())
    floor = RANK_CUTOFF * max(scale * scale, np.finfo(float).tiny)
    null = v[:, w <= floor].T
    if null.shape[0] == 0:
        raise RuntimeError("empty multiplicative domain; the unit should always belong")

    ub = _apply(images, null)
    ub_adj = ub.conj().swapaxes(-1, -2)
    defects = np.concatenate([
        _apply(images, _product(shape, _adjoint(shape, null), null)) - ub_adj @ ub,
        _apply(images, _product(shape, null, _adjoint(shape, null))) - ub @ ub_adj,
    ])
    worst = float(_opnorms(defects).max())
    if worst > SCHWARZ_TOL:
        raise RuntimeError(
            f"kernel basis violates the Schwarz equality (residual {worst:.3e})"
        )
    basis = tuple(element_from_coefficients(shape, row) for row in null)
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
    to unit operator norm, so residuals are on an absolute scale.  Sample
    i draws the coefficients of a, then of b, then x; all samples are
    evaluated together, each residual as :func:`bimodularity_residual`
    would report it.  ``samples`` below 1 raises ``ValueError``: an empty
    check would report a residual of 0.
    """
    from decnorms.testkit import make_generator, random_element

    if d.ambient != u.domain:
        raise ValueError("subalgebra ambient shape must match the map domain")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    dim = d.dimension
    gen = make_generator(seed, stream=77)
    shape = u.domain
    draws = []
    for _ in range(samples):
        pair = []
        for _ in range(2):
            c = gen.standard_normal((dim, 2)) @ np.array([1.0, 1.0j]) / np.sqrt(2.0)
            pair.append(c / max(np.linalg.norm(c), 1e-30))
        x = coefficient_vector(random_element(gen, shape))
        nx = max(float(_opnorms(b)) for b in _blocks(shape, x))
        draws.append((*pair, x / nx if nx > 0 else x))
    ca, cb, xs = (np.stack(col) for col in zip(*draws))
    rows = _basis_rows(d)
    a, b = ca @ rows, cb @ rows
    images = _image_stack(u)
    ua, ux, ub = (_apply(images, y) for y in (a, xs, b))
    ax = _product(shape, a, xs)
    uaux = ua @ ux
    residuals = np.concatenate([
        _apply(images, ax) - uaux,
        _apply(images, _product(shape, xs, b)) - ux @ ub,
        _apply(images, _product(shape, ax, b)) - uaux @ ub,
    ])
    return BimodularityReport(
        max_residual=float(_opnorms(residuals).max()), samples=samples, dimension=dim
    )
