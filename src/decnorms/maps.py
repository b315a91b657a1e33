"""Linear maps between finite-dimensional C*-algebras and their Choi matrices.

A map ``u`` from ``A = M_{d_1} + ... + M_{d_k}`` into ``B`` is stored by its
images on the matrix units of ``A``, enumerated domain-block by domain-block
in row-major order: block ``i`` contributes the images of ``e_rs`` for
``r = 0..d_i-1`` (outer) and ``s = 0..d_i-1`` (inner).

The Choi matrix of ``u`` splits along the domain blocks.  For block ``i``
it is the ``d_i * m`` square matrix (``m`` the codomain embedding size)

    C_i = sum_{r,s} e_rs (x) embed(u(e_rs))

with the domain index major, so the (r, s) sub-block of ``C_i`` of size
``m x m`` equals the assembled image of ``e_rs``.

Worked example: the identity on M_2 has a single Choi block of size 4 with
ones at positions (0, 0), (0, 3), (3, 0) and (3, 3) and zeros elsewhere,
i.e. the rank-one projector onto the maximally entangled vector scaled to
trace 2.  The transpose map on M_2 instead produces the 4x4 swap matrix,
whose smallest eigenvalue is -1, which is how ``is_cp`` rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from decnorms import linalg
from decnorms.algebra import (
    AlgebraElement,
    AlgebraShape,
    is_positive,
    matrix_algebra,
    abelian_algebra,
    unit,
    zero,
)


@dataclass
class LinearMapRep:
    """A linear map stored by matrix-unit images.

    ``images[k]`` is the image in the codomain of the k-th matrix unit of
    the domain under the enumeration of :func:`matrix_unit_index`.
    """

    domain: AlgebraShape
    codomain: AlgebraShape
    images: list[AlgebraElement] = field(repr=False)

    def __post_init__(self):
        want = self.domain.total_dim
        if len(self.images) != want:
            raise ValueError(f"need {want} matrix-unit images, got {len(self.images)}")
        for k, img in enumerate(self.images):
            if img.shape != self.codomain:
                raise ValueError(
                    f"image {k} lives in shape {img.shape.block_dims}, "
                    f"expected {self.codomain.block_dims}"
                )

    def image(self, block: int, r: int, s: int) -> AlgebraElement:
        return self.images[matrix_unit_index(self.domain, block, r, s)]


def matrix_unit_index(shape: AlgebraShape, block: int, r: int, s: int) -> int:
    """Flat position of the matrix unit ``e_rs`` of the given block."""
    dims = shape.block_dims
    if not 0 <= block < len(dims):
        raise ValueError(f"block {block} out of range for {dims}")
    d = dims[block]
    if not (0 <= r < d and 0 <= s < d):
        raise ValueError(f"unit index ({r}, {s}) out of range for a {d}x{d} block")
    offset = sum(dd * dd for dd in dims[:block])
    return offset + r * d + s


def matrix_units(shape: AlgebraShape):
    """Yield ``(flat_index, block, r, s)`` in enumeration order."""
    k = 0
    for i, d in enumerate(shape.block_dims):
        for r in range(d):
            for s in range(d):
                yield k, i, r, s
                k += 1


def matrix_unit_element(shape: AlgebraShape, block: int, r: int, s: int) -> AlgebraElement:
    e = zero(shape)
    e.blocks[block][r, s] = 1.0
    return e


def apply_map(u: LinearMapRep, x: AlgebraElement) -> AlgebraElement:
    """Evaluate ``u`` on an element as one contraction per codomain block.

    The coefficients of ``x`` over the matrix units (blocks flattened in
    enumeration order) are contracted against the stacked images of the
    units, so codomain block j is ``sum_k x_k * u(e_k)_j``.
    """
    if x.shape != u.domain:
        raise ValueError(
            f"element shape {x.shape.block_dims} does not match domain {u.domain.block_dims}"
        )
    coeffs = np.concatenate([b.reshape(-1) for b in x.blocks])
    return AlgebraElement(u.codomain, [
        np.tensordot(coeffs, np.stack([img.blocks[j] for img in u.images]), axes=1)
        for j in range(u.codomain.num_blocks)
    ])


def map_from_function(domain: AlgebraShape, codomain: AlgebraShape, f) -> LinearMapRep:
    """Tabulate ``f`` on matrix units.  ``f`` takes an AlgebraElement."""
    images = [f(matrix_unit_element(domain, i, r, s)) for _, i, r, s in matrix_units(domain)]
    return LinearMapRep(domain, codomain, images)


def identity_map(shape: AlgebraShape) -> LinearMapRep:
    return map_from_function(shape, shape, lambda e: e)


def map_from_linf(xs: list[AlgebraElement]) -> LinearMapRep:
    """Map from the abelian algebra of dimension n sending ``e_j`` to ``xs[j]``."""
    if len(xs) == 0:
        raise ValueError("need at least one coefficient")
    codomain = xs[0].shape
    return LinearMapRep(abelian_algebra(len(xs)), codomain, [x.copy() for x in xs])


def choi(u: LinearMapRep) -> list[np.ndarray]:
    """Choi matrices of ``u``, one per domain block (domain index major)."""
    m = u.codomain.embed_dim
    out = []
    for i, d in enumerate(u.domain.block_dims):
        c = np.zeros((d * m, d * m), dtype=np.complex128)
        for r in range(d):
            for s in range(d):
                img = u.image(i, r, s).assemble()
                c[r * m:(r + 1) * m, s * m:(s + 1) * m] = img
        out.append(c)
    return out


def is_cp(u: LinearMapRep, tol: float = 1e-9) -> bool:
    """Complete positivity: every Choi block passes :func:`algebra.is_positive` at ``tol``.

    A Choi block with Hermitian defect above ``tol`` means the map does not
    even preserve adjoints, so it is not CP; no error is raised.
    """
    return all(is_positive(AlgebraElement(matrix_algebra(len(c)), [c]), tol) for c in choi(u))


def compose(v: LinearMapRep, u: LinearMapRep) -> LinearMapRep:
    """The composition ``v after u``."""
    if u.codomain != v.domain:
        raise ValueError(
            f"cannot compose: inner codomain {u.codomain.block_dims} "
            f"differs from outer domain {v.domain.block_dims}"
        )
    return LinearMapRep(u.domain, v.codomain, [apply_map(v, img) for img in u.images])


def tensor(u1: LinearMapRep, u2: LinearMapRep) -> LinearMapRep:
    """Tensor product of two maps between single matrix blocks.

    Domains ``M_{n1}, M_{n2}`` combine into ``M_{n1 n2}`` with the index
    convention ``(r1, r2) -> r1 * n2 + r2``, and likewise for codomains.
    """
    for w in (u1, u2):
        if not (w.domain.is_factor() and w.codomain.is_factor()):
            raise ValueError("tensor products are supported for single-block maps only")
    n1 = u1.domain.block_dims[0]
    n2 = u2.domain.block_dims[0]
    c1 = u1.codomain.block_dims[0]
    c2 = u2.codomain.block_dims[0]
    codomain = matrix_algebra(c1 * c2)
    # (r1, r2, s1, s2) nested order is row-major over the combined indices
    images = [AlgebraElement(codomain, [np.kron(u1.image(0, r1, s1).blocks[0],
                                                u2.image(0, r2, s2).blocks[0])])
              for r1 in range(n1) for r2 in range(n2) for s1 in range(n1) for s2 in range(n2)]
    return LinearMapRep(matrix_algebra(n1 * n2), codomain, images)


def is_unital(u: LinearMapRep, tol: float = 1e-9) -> bool:
    from decnorms.algebra import element_norm
    return element_norm(apply_map(u, unit(u.domain)) - unit(u.codomain)) <= tol


def kraus_map(kraus: list[np.ndarray]) -> LinearMapRep:
    """The CP map ``x -> sum_k a_k* x a_k`` built from Kraus operators."""
    if len(kraus) == 0:
        raise ValueError("need at least one Kraus operator")
    ms = [linalg.as_matrix(k) for k in kraus]
    d, c = ms[0].shape
    for m in ms:
        if m.shape != (d, c):
            raise ValueError("all Kraus operators must share one shape")
    domain = matrix_algebra(d)
    codomain = matrix_algebra(c)

    def f(e):
        x = e.blocks[0]
        return AlgebraElement(codomain, [sum(m.conj().T @ x @ m for m in ms)])

    return LinearMapRep(domain, codomain, [f(matrix_unit_element(domain, 0, r, s)) for r in range(d) for s in range(d)])
