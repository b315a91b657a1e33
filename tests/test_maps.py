"""Linear map representation and Choi matrix tests.

The identity and transpose maps on M_2 have Choi matrices known entry by
entry, so those serve as frozen oracles for the enumeration convention.
"""

import numpy as np
import pytest

from decnorms import maps
from decnorms.algebra import (
    AlgebraElement,
    AlgebraShape,
    abelian_algebra,
    element,
    element_norm,
    from_assembled,
    matrix_algebra,
    unit,
)
from decnorms.testkit import (
    make_generator,
    random_element,
    random_ginibre,
    random_haar_unitary,
    random_unital_cp_map,
)


def _random_map(gen, domain, codomain):
    imgs = [random_element(gen, codomain) for _ in range(domain.total_dim)]
    return maps.LinearMapRep(domain, codomain, imgs)


def _map_from_choi(domain, codomain, blocks):
    """Read matrix-unit images off Choi blocks, the inverse of ``maps.choi``."""
    m = codomain.embed_dim
    images = []
    for c, d in zip(blocks, domain.block_dims, strict=True):
        for r in range(d):
            for s in range(d):
                images.append(from_assembled(codomain, c[r * m:(r + 1) * m, s * m:(s + 1) * m]))
    return maps.LinearMapRep(domain, codomain, images)


def random_cp_map(gen, domain, codomain):
    """Random CP map with a full-rank Wishart Choi block per domain block.

    Normalized so the image of the unit has norm one, which pins the norm,
    cb norm and dec norm of the result all to exactly one.
    """
    m = codomain.embed_dim
    blocks = []
    for d in domain.block_dims:
        g = random_ginibre(gen, d * m, d * m)
        blocks.append(g @ g.conj().T)
    # reading images off the Choi blocks keeps only their codomain blocks
    u = _map_from_choi(domain, codomain, blocks)
    nrm = element_norm(maps.apply_map(u, unit(domain)))
    return maps.LinearMapRep(domain, codomain, [(1.0 / nrm) * img for img in u.images])


def _transpose_map(d):
    shape = matrix_algebra(d)
    return maps.map_from_function(shape, shape, lambda e: AlgebraElement(shape, [e.blocks[0].T.copy()]))


def _trace_map(d):
    """The map ``x -> tr(x) * 1/d`` on M_d, whose Choi block is ``I / d``."""
    shape = matrix_algebra(d)
    return maps.map_from_function(
        shape, shape,
        lambda e: AlgebraElement(shape, [np.trace(e.blocks[0]) / d * np.eye(d, dtype=np.complex128)]),
    )


def _all_close(xs, ys, rtol=1e-10):
    """Elementwise agreement up to ``rtol`` relative to the larger norm."""
    return all(element_norm(x - y) <= rtol * max(element_norm(x), element_norm(y), 1.0)
               for x, y in zip(xs, ys, strict=True))


def test_matrix_unit_index_enumeration():
    s = AlgebraShape((2, 3))
    seen = []
    for k, i, r,(ss) in maps.matrix_units(s):
        assert maps.matrix_unit_index(s, i, r, ss) == k
        seen.append(k)
    assert seen == list(range(s.total_dim))
    # block 1 starts after the 4 units of the first block
    assert maps.matrix_unit_index(s, 1, 0, 0) == 4
    assert maps.matrix_unit_index(s, 1, 2, 1) == 4 + 2 * 3 + 1
    with pytest.raises(ValueError):
        maps.matrix_unit_index(s, 2, 0, 0)
    with pytest.raises(ValueError):
        maps.matrix_unit_index(s, 0, 0, 2)


def test_choi_identity_on_m2():
    # Frozen oracle: ones exactly at (0,0), (0,3), (3,0), (3,3).
    c = maps.choi(maps.identity_map(matrix_algebra(2)))
    assert len(c) == 1
    want = np.zeros((4, 4))
    want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 1.0
    assert np.array_equal(c[0], want)


def test_choi_transpose_is_swap():
    c = maps.choi(_transpose_map(2))[0]
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[1, 2] = swap[2, 1] = swap[3, 3] = 1.0
    assert np.array_equal(c, swap)
    w = np.linalg.eigvalsh(c)
    assert w[0] == pytest.approx(-1.0)
    assert not maps.is_cp(_transpose_map(2))


def test_is_cp_hermitian_defect_between_operator_and_frobenius_bounds():
    # Choi block C_id + i*eps*1 of size 4: defect operator norm 2*eps,
    # Frobenius norm 4*eps.  Between the bounds the exact test passes it;
    # above both it is rejected.
    dom = matrix_algebra(2)
    c = maps.choi(maps.identity_map(dom))[0]
    tol = 1e-9
    assert maps.is_cp(_map_from_choi(dom, dom, [c + 0.4j * tol * np.eye(4)]), tol=tol)
    assert not maps.is_cp(_map_from_choi(dom, dom, [c + 1j * tol * np.eye(4)]), tol=tol)


def test_trace_map_choi_and_properties():
    u = _trace_map(3)
    c = maps.choi(u)[0]
    assert np.allclose(c, np.eye(9) / 3.0)
    assert maps.is_cp(u)
    assert maps.is_unital(u)


def test_choi_round_trip():
    gen = make_generator(20)
    for dims_in, dims_out in [((2,), (3,)), ((1, 2), (2, 1)), ((3,), (1, 1, 2))]:
        domain, codomain = AlgebraShape(dims_in), AlgebraShape(dims_out)
        u = _random_map(gen, domain, codomain)
        v = _map_from_choi(domain, codomain, maps.choi(u))
        assert _all_close(u.images, v.images)


def test_apply_map_linearity():
    gen = make_generator(21)
    domain = AlgebraShape((2, 1))
    codomain = matrix_algebra(3)
    u = _random_map(gen, domain, codomain)
    for _ in range(10):
        x = random_element(gen, domain)
        y = random_element(gen, domain)
        c = complex(gen.standard_normal() + 1j * gen.standard_normal())
        lhs = maps.apply_map(u, c * x + y)
        rhs = c * maps.apply_map(u, x) + maps.apply_map(u, y)
        assert element_norm(lhs - rhs) <= 1e-10 * max(1.0, element_norm(rhs))


def test_apply_map_shape_check():
    u = maps.identity_map(matrix_algebra(2))
    with pytest.raises(ValueError):
        maps.apply_map(u, unit(matrix_algebra(3)))


def test_apply_map_matches_unit_expansion():
    # Reference: sum_k x_k u(e_k) accumulated block by block from u.images,
    # in the matrix-unit order of maps.matrix_units.
    gen = make_generator(23)
    dom, cod = AlgebraShape((2, 1)), AlgebraShape((3, 1))
    u = _random_map(gen, dom, cod)
    x = random_element(gen, dom)
    x.blocks[0][0, 1] = 0.0
    x.blocks[0][1, 1] = 0.0
    x.blocks[1][0, 0] = 0.0
    want = [np.zeros((3, 3), dtype=complex), np.zeros((1, 1), dtype=complex)]
    for k, i, r, s in maps.matrix_units(dom):
        for j in range(cod.num_blocks):
            want[j] += x.blocks[i][r, s] * u.images[k].blocks[j]
    got = maps.apply_map(u, x)
    assert got.shape == cod
    for g, w in zip(got.blocks, want):
        assert np.abs(g - w).max() <= 1e-12


def test_compose_matches_sequential_application():
    gen = make_generator(22)
    a, b, c = AlgebraShape((2,)), AlgebraShape((1, 2)), AlgebraShape((3,))
    u = _random_map(gen, a, b)
    v = _random_map(gen, b, c)
    w = maps.compose(v, u)
    for _ in range(5):
        x = random_element(gen, a)
        assert _all_close([maps.apply_map(w, x)], [maps.apply_map(v, maps.apply_map(u, x))], rtol=1e-9)
    with pytest.raises(ValueError):
        maps.compose(u, v)


def test_tensor_on_product_elements():
    gen = make_generator(24)
    u1 = random_unital_cp_map(gen, 2)
    u2 = random_unital_cp_map(gen, 3)
    w = maps.tensor(u1, u2)
    assert w.domain == matrix_algebra(6)
    for _ in range(5):
        a = random_ginibre(gen, 2, 2)
        b = random_ginibre(gen, 3, 3)
        got = maps.apply_map(w, element(matrix_algebra(6), [np.kron(a, b)])).blocks[0]
        want = np.kron(
            maps.apply_map(u1, element(matrix_algebra(2), [a])).blocks[0],
            maps.apply_map(u2, element(matrix_algebra(3), [b])).blocks[0],
        )
        assert np.allclose(got, want, atol=1e-10)


def test_conjugation_and_kraus_maps():
    gen = make_generator(25)
    a = random_ginibre(gen, 3, 2)
    u = maps.kraus_map([a])
    assert u.domain == matrix_algebra(3) and u.codomain == matrix_algebra(2)
    x = random_ginibre(gen, 3, 3)
    got = maps.apply_map(u, element(matrix_algebra(3), [x])).blocks[0]
    assert np.allclose(got, a.conj().T @ x @ a, atol=1e-12)
    assert maps.is_cp(u)

    ks = [random_ginibre(gen, 2, 2) for _ in range(3)]
    v = maps.kraus_map(ks)
    y = random_ginibre(gen, 2, 2)
    got2 = maps.apply_map(v, element(matrix_algebra(2), [y])).blocks[0]
    want2 = sum(k.conj().T @ y @ k for k in ks)
    assert np.allclose(got2, want2, atol=1e-12)
    assert maps.is_cp(v)


def test_unitary_conjugation_is_unital_cp():
    gen = make_generator(26)
    w = random_haar_unitary(gen, 3)
    u = maps.kraus_map([w])
    assert maps.is_cp(u)
    assert maps.is_unital(u)


def test_random_cp_map_properties():
    gen = make_generator(102)
    dom, cod = AlgebraShape((2,)), AlgebraShape((3,))
    u = random_cp_map(gen, dom, cod)
    assert maps.is_cp(u, tol=1e-9)
    assert element_norm(maps.apply_map(u, unit(dom))) == pytest.approx(1.0, abs=1e-10)


def test_random_unital_cp_map_is_unital_cp():
    gen = make_generator(27)
    for d in (2, 3, 4):
        u = random_unital_cp_map(gen, d)
        assert maps.is_cp(u)
        assert maps.is_unital(u)


def test_linf_coefficient_round_trip():
    gen = make_generator(28)
    codomain = matrix_algebra(2)
    xs = [random_element(gen, codomain) for _ in range(3)]
    u = maps.map_from_linf(xs)
    assert u.domain == abelian_algebra(3)
    assert _all_close(xs, u.images)


def test_map_validation():
    dom, cod = matrix_algebra(2), matrix_algebra(2)
    good = [unit(cod)] * 4
    with pytest.raises(ValueError):
        maps.LinearMapRep(dom, cod, good[:3])
    with pytest.raises(ValueError):
        maps.LinearMapRep(dom, cod, [unit(matrix_algebra(3))] * 4)
