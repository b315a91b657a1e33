"""Tests for the instance generators and the independent grid oracle."""

import numpy as np
import pytest

from decnorms import testkit
from decnorms.algebra import AlgebraShape, element_norm, unit
from decnorms.cbnorm import seesaw_min_norm
from decnorms.decomposable import dec_norm_linf
from decnorms.maps import apply_map, is_cp, is_unital


def test_generators_are_deterministic():
    a = testkit.random_ginibre(testkit.make_generator(7, stream=3), 4, 4)
    b = testkit.random_ginibre(testkit.make_generator(7, stream=3), 4, 4)
    c = testkit.random_ginibre(testkit.make_generator(7, stream=4), 4, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_haar_unitary_defect():
    gen = testkit.make_generator(100)
    for _ in range(10):
        d = int(gen.integers(2, 6))
        u = testkit.random_haar_unitary(gen, d)
        assert np.linalg.norm(u @ u.conj().T - np.eye(d), 2) <= 1e-12


def test_random_hermitian_and_positive():
    gen = testkit.make_generator(101)
    h = testkit.random_hermitian(gen, 4)
    assert np.allclose(h, h.conj().T)
    shape = AlgebraShape((2, 3))
    p = testkit.random_positive_element(gen, shape)
    for blk in p.blocks:
        assert float(np.linalg.eigvalsh(blk)[0]) >= -1e-12


def test_random_cp_map_properties():
    gen = testkit.make_generator(102)
    dom, cod = AlgebraShape((2,)), AlgebraShape((3,))
    u = testkit.random_cp_map(gen, dom, cod)
    assert is_cp(u, tol=1e-9)
    assert element_norm(apply_map(u, unit(dom))) == pytest.approx(1.0, abs=1e-10)


def test_random_unital_cp_map_properties():
    gen = testkit.make_generator(103)
    for d in (2, 4):
        u = testkit.random_unital_cp_map(gen, d)
        assert is_cp(u, tol=1e-9)
        assert is_unital(u, tol=1e-9)


def test_grid_oracle_closed_forms():
    # scalar tuples: the supremum over phases is the absolute sum
    gen = testkit.make_generator(104)
    vals = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    xs = [np.array([[v]]) for v in vals]
    got = testkit.grid_oracle_min_norm(xs)
    assert got == pytest.approx(float(np.abs(vals).sum()), abs=1e-6)

    # unitary coefficients in M_2 reach the coefficient count
    us = [testkit.random_haar_unitary(gen, 2) for _ in range(2)]
    got2 = testkit.grid_oracle_min_norm(us)
    assert got2 == pytest.approx(2.0, abs=1e-4)

    # single coefficient: plain operator norm
    x = testkit.random_ginibre(gen, 2, 2)
    assert testkit.grid_oracle_min_norm([x]) == pytest.approx(np.linalg.norm(x, 2), rel=1e-12)


def test_grid_oracle_limits():
    with pytest.raises(ValueError):
        testkit.grid_oracle_min_norm([])
    with pytest.raises(ValueError):
        testkit.grid_oracle_min_norm([np.eye(3), np.eye(3)])
    with pytest.raises(ValueError):
        testkit.grid_oracle_min_norm([np.eye(2)] * 4)


def test_grid_oracle_against_seesaw_and_sdp():
    # three-way consistency on 20 seeded instances: the grid value and the
    # see-saw value agree to 1e-3 and neither exceeds the SDP upper value
    gen = testkit.make_generator(105)
    sizes = [(2, 1), (3, 1), (2, 2), (3, 2)]
    for i in range(20):
        n, d = sizes[i % len(sizes)]
        xs = testkit.random_matrix_tuple(gen, n, d)
        grid = testkit.grid_oracle_min_norm(xs)
        saw = seesaw_min_norm(xs, restarts=16, seed=1000 + i)
        sdp = dec_norm_linf(xs)
        assert abs(grid - saw.lower) <= 1e-3 * max(1.0, sdp.value)
        assert grid <= sdp.value + 1e-5 * max(1.0, sdp.value)
        assert saw.lower <= sdp.value + 1e-9 * max(1.0, sdp.value)


def test_eigenvalue_program_shape():
    gen = testkit.make_generator(106)
    prog = testkit.eigenvalue_program(testkit.random_hermitian(gen, 3))
    assert prog.num_vars == 1
    assert prog.psd_blocks[0].size == 3
