"""Block-diagonal algebra arithmetic checked against assembled numpy matrices.

The coefficient-tuple tests at the end hold every routine that takes a
tuple to the one validation of ``algebra.coefficient_tuple``.
"""

import re

import numpy as np
import pytest

from decnorms import algebra, cbnorm, decomposable, testkit
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


TUPLE_ROUTINES = {
    "dec_norm_linf": decomposable.dec_norm_linf,
    "dec_norms": lambda xs: decomposable.dec_norms([xs]),
    "selfadjoint_dec_norm": lambda xs: decomposable.selfadjoint_dec_norms([xs]),
    "seesaw_min_norm": cbnorm.seesaw_min_norm,
    "cb_norm_linf": cbnorm.cb_norm_linf,
    "min_norm": cbnorm.min_norm,
    "evaluate_tensor_norm": lambda xs: cbnorm.evaluate_tensor_norm([np.eye(1)] * len(xs), xs),
    "grid_oracle_min_norm": testkit.grid_oracle_min_norm,
}
SINGLE_BLOCK_ROUTINES = ("seesaw_min_norm", "cb_norm_linf", "min_norm", "evaluate_tensor_norm",
                         "grid_oracle_min_norm")
BAD_TUPLES = {
    "empty": ([], "need at least one coefficient"),
    "non-square": ([np.zeros((2, 3))],
                   "coefficient 0: expected a square matrix, got shape (2, 3)"),
    "mixed sizes": ([np.eye(2), np.eye(3)],
                    "coefficient 1: algebra (3,) differs from coefficient 0's (2,)"),
    "NaN entry": ([np.eye(2), [[np.nan, 0], [0, 1]]],
                  "coefficient 1: matrix contains NaN or Inf entries"),
}


@pytest.mark.parametrize("bad", BAD_TUPLES)
@pytest.mark.parametrize("routine", TUPLE_ROUTINES)
def test_every_tuple_routine_rejects_a_bad_tuple_alike(routine, bad):
    xs, message = BAD_TUPLES[bad]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TUPLE_ROUTINES[routine](xs)


@pytest.mark.parametrize("routine", SINGLE_BLOCK_ROUTINES)
def test_unitary_tensor_routines_take_one_matrix_block(routine):
    two_blocks = [algebra.unit(algebra.AlgebraShape((1, 1)))]
    with pytest.raises(ValueError, match="^coefficients must live in a single matrix block$"):
        TUPLE_ROUTINES[routine](two_blocks)


def test_coefficient_tuple_keeps_elements_and_wraps_matrices():
    x = random_element(make_generator(13), algebra.AlgebraShape((2, 1)))
    assert all(e is x for e in algebra.coefficient_tuple([x, x]))
    m = random_ginibre(make_generator(14), 2, 2)
    (e,) = algebra.coefficient_tuple([m])
    assert e.shape == algebra.matrix_algebra(2)
    assert e.blocks[0].tobytes() == m.tobytes()
    with pytest.raises(ValueError, match=r"^coefficient 1: algebra \(2,\) differs"):
        algebra.coefficient_tuple([x, m])
