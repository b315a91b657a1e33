"""Finite-dimensional C*-algebras as direct sums of matrix blocks.

An algebra is described by its block dimensions ``(d_1, ..., d_k)`` and an
element is one complex ``d_i x d_i`` matrix per block.  The abelian algebra
of dimension n is the shape ``(1,) * n``.  Norms, products, adjoints and
positivity are all blockwise; the element norm is the max over blocks of
the operator norm, which matches the norm of the assembled block-diagonal
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from decnorms import linalg

# Relative tolerance for element_equal.
EQUAL_RTOL = 1e-10


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions of a direct sum of matrix algebras."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.block_dims) == 0:
            raise ValueError("an algebra needs at least one block")
        for d in self.block_dims:
            if not isinstance(d, (int, np.integer)) or d < 1:
                raise ValueError(f"block dimensions must be positive integers, got {self.block_dims}")
        object.__setattr__(self, "block_dims", tuple(int(d) for d in self.block_dims))

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def total_dim(self) -> int:
        """Linear dimension, the sum of squared block sizes."""
        return int(sum(d * d for d in self.block_dims))

    @property
    def embed_dim(self) -> int:
        """Size of the block-diagonal matrix an element assembles into."""
        return int(sum(self.block_dims))

    def is_abelian(self) -> bool:
        return all(d == 1 for d in self.block_dims)

    def is_factor(self) -> bool:
        return len(self.block_dims) == 1


def matrix_algebra(d: int) -> AlgebraShape:
    return AlgebraShape((d,))


def abelian_algebra(n: int) -> AlgebraShape:
    return AlgebraShape((1,) * n)


@dataclass
class AlgebraElement:
    """One matrix per block of an :class:`AlgebraShape`."""

    shape: AlgebraShape
    blocks: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        if len(self.blocks) != self.shape.num_blocks:
            raise ValueError(
                f"expected {self.shape.num_blocks} blocks, got {len(self.blocks)}"
            )
        coerced = []
        for i, (b, d) in enumerate(zip(self.blocks, self.shape.block_dims)):
            m = linalg.as_matrix(b)
            if m.shape != (d, d):
                raise ValueError(f"block {i} must be {d}x{d}, got {m.shape}")
            coerced.append(m)
        self.blocks = coerced

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, [b.conj().T for b in self.blocks])

    def assemble(self) -> np.ndarray:
        """Block-diagonal matrix of size ``shape.embed_dim``."""
        m = self.shape.embed_dim
        out = np.zeros((m, m), dtype=np.complex128)
        off = 0
        for b, d in zip(self.blocks, self.shape.block_dims):
            out[off:off + d, off:off + d] = b
            off += d
        return out

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_same_shape(self, other)
        return AlgebraElement(self.shape, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_same_shape(self, other)
        return AlgebraElement(self.shape, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, [-b for b in self.blocks])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            _require_same_shape(self, other)
            return AlgebraElement(self.shape, [a @ b for a, b in zip(self.blocks, other.blocks)])
        return AlgebraElement(self.shape, [complex(other) * b for b in self.blocks])

    def __rmul__(self, other):
        return AlgebraElement(self.shape, [complex(other) * b for b in self.blocks])

    def copy(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, [b.copy() for b in self.blocks])


def _require_same_shape(x: AlgebraElement, y: AlgebraElement):
    if x.shape != y.shape:
        raise ValueError(f"algebra shapes differ: {x.shape.block_dims} vs {y.shape.block_dims}")


def element(shape: AlgebraShape, blocks) -> AlgebraElement:
    return AlgebraElement(shape, list(blocks))


def scalar_element(values) -> AlgebraElement:
    """Element of the abelian algebra with the given diagonal entries."""
    vals = list(values)
    shape = abelian_algebra(len(vals))
    return AlgebraElement(shape, [np.array([[complex(v)]]) for v in vals])


def matrix_element(m) -> AlgebraElement:
    """Element of a single matrix block."""
    a = linalg.as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix block must be square, got {a.shape}")
    return AlgebraElement(matrix_algebra(a.shape[0]), [a])


def unit(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.eye(d, dtype=np.complex128) for d in shape.block_dims])


def zero(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.zeros((d, d), dtype=np.complex128) for d in shape.block_dims])


def element_norm(x: AlgebraElement) -> float:
    """Operator norm: max over blocks of the largest singular value."""
    return max(linalg.operator_norm(b) for b in x.blocks)


def hilbert_schmidt_inner(x: AlgebraElement, y: AlgebraElement) -> complex:
    """Trace inner product ``tr(x* y)`` on the assembled matrices."""
    _require_same_shape(x, y)
    return complex(sum(np.trace(a.conj().T @ b) for a, b in zip(x.blocks, y.blocks)))


def is_positive(x: AlgebraElement, tol: float = 1e-9) -> bool:
    """True iff every block is Hermitian within ``tol`` and PSD within ``tol``.

    Unlike :func:`decnorms.linalg.psd_check` this never raises on
    non-Hermitian input; such an element is simply not positive.
    """
    for b in x.blocks:
        if linalg.operator_norm(b - b.conj().T) > tol:
            return False
        h = (b + b.conj().T) / 2.0
        w = np.linalg.eigvalsh(h)
        if float(w[0]) < -tol:
            return False
    return True


def is_selfadjoint(x: AlgebraElement, tol: float = 1e-10) -> bool:
    return all(linalg.operator_norm(b - b.conj().T) <= tol for b in x.blocks)


def element_equal(x: AlgebraElement, y: AlgebraElement, rtol: float = EQUAL_RTOL) -> bool:
    """Blockwise equality up to ``rtol`` relative to the larger norm."""
    if x.shape != y.shape:
        return False
    scale_ = max(element_norm(x), element_norm(y), 1.0)
    return element_norm(x - y) <= rtol * scale_


def from_assembled(shape: AlgebraShape, full) -> AlgebraElement:
    """Split a block-diagonal ``embed_dim`` matrix back into blocks.

    Entries off the block diagonal are discarded; callers that care should
    check them first.
    """
    m = linalg.as_matrix(full)
    n = shape.embed_dim
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {m.shape}")
    blocks = []
    off = 0
    for d in shape.block_dims:
        blocks.append(m[off:off + d, off:off + d].copy())
        off += d
    return AlgebraElement(shape, blocks)
