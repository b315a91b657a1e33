"""Block-diagonal algebra arithmetic checked against assembled numpy matrices."""

import numpy as np
import pytest

from decnorms import algebra
from decnorms.testkit import make_generator, random_element, random_ginibre


def test_shape_invariants():
    s = algebra.AlgebraShape((2, 1, 3))
    assert s.num_blocks == 3
    assert s.total_dim == 4 + 1 + 9
    assert s.embed_dim == 6
    assert not s.is_factor()
    assert algebra.abelian_algebra(4).block_dims == (1, 1, 1, 1)
    assert algebra.matrix_algebra(3).is_factor()
    with pytest.raises(ValueError):
        algebra.AlgebraShape(())
    with pytest.raises(ValueError):
        algebra.AlgebraShape((2, 0))


def test_element_validation():
    s = algebra.AlgebraShape((2, 3))
    with pytest.raises(ValueError):
        algebra.element(s, [np.eye(2)])
    with pytest.raises(ValueError):
        algebra.element(s, [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        algebra.element(s, [np.eye(2), np.full((3, 3), np.nan)])


def test_arithmetic_matches_assembled():
    # Oracle: assemble to a dense block-diagonal matrix, do the same
    # operation with plain numpy, compare.
    gen = make_generator(10)
    s = algebra.AlgebraShape((2, 1, 3))
    for _ in range(20):
        x = random_element(gen, s)
        y = random_element(gen, s)
        c = complex(gen.standard_normal() + 1j * gen.standard_normal())
        ax, ay = x.assemble(), y.assemble()
        assert np.allclose((x + y).assemble(), ax + ay)
        assert np.allclose((x - y).assemble(), ax - ay)
        assert np.allclose((x * y).assemble(), ax @ ay)
        assert np.allclose((c * x).assemble(), c * ax)
        assert np.allclose((-x).assemble(), -ax)
        assert np.allclose(x.adjoint().assemble(), ax.conj().T)
        assert algebra.element_norm(x) == pytest.approx(np.linalg.norm(ax, 2), rel=1e-12)


def test_shape_mismatch_raises():
    x = algebra.unit(algebra.AlgebraShape((2, 2)))
    y = algebra.unit(algebra.AlgebraShape((2, 3)))
    with pytest.raises(ValueError):
        _ = x + y
    with pytest.raises(ValueError):
        _ = x * y


def test_unit_and_zero():
    s = algebra.AlgebraShape((3, 2))
    one = algebra.unit(s)
    nil = algebra.zero(s)
    assert np.allclose(one.assemble(), np.eye(5))
    assert algebra.element_norm(one) == 1.0
    assert algebra.element_norm(nil + one) == 1.0
    x = algebra.element(s, [np.diag([2.0, 1.0, 1.0]), np.eye(2)])
    assert algebra.element_norm(x * one - x) == 0.0
    assert algebra.element_norm(one * x - x) == 0.0


def test_positivity_and_selfadjointness():
    gen = make_generator(11)
    s = algebra.AlgebraShape((2, 3))
    g = random_element(gen, s)
    p = g * g.adjoint()
    assert algebra.is_positive(p)
    assert algebra.is_selfadjoint(p)
    h = g + g.adjoint()
    assert algebra.is_selfadjoint(h)
    # shifting one block far down makes the element non-positive
    low = h - 100.0 * algebra.unit(s)
    assert not algebra.is_positive(low)
    # a generic non-Hermitian element is not positive and never raises
    assert not algebra.is_positive(g)
    assert not algebra.is_selfadjoint(g)


def test_scalar_and_matrix_constructors():
    x = algebra.element(algebra.abelian_algebra(3), [[[1.0]], [[-2.0]], [[3j]]])
    assert algebra.element_norm(x) == pytest.approx(3.0)
    m = algebra.element(algebra.matrix_algebra(2), [np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert algebra.element_norm(m) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        algebra.element(algebra.matrix_algebra(2), [np.zeros((2, 3))])


def test_from_assembled_round_trip():
    gen = make_generator(12)
    s = algebra.AlgebraShape((1, 2, 2))
    x = random_element(gen, s)
    back = algebra.from_assembled(s, x.assemble())
    assert algebra.element_norm(back - x) == 0.0
    with pytest.raises(ValueError):
        algebra.from_assembled(s, random_ginibre(gen, 4, 4))
