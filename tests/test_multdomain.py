"""Multiplicative domain tests.

Expected dimensions come from hand analysis: the identity multiplies on
everything (d^2), a pinching multiplies exactly on the diagonal (d), the
depolarizing channel only on scalars (1), and a unitary conjugation is a
homomorphism (d^2).  The pinching case is additionally cross-checked by
enumerating the matrix-unit conditions directly, without the kernel
machinery under test.
"""

import tracemalloc

import numpy as np
import pytest

from decnorms import multdomain
from decnorms.algebra import AlgebraElement, AlgebraShape, element_norm, matrix_algebra, unit
from decnorms.maps import (
    LinearMapRep,
    apply_map,
    compose,
    identity_map,
    kraus_map,
    map_from_function,
    matrix_unit_element,
)
from decnorms.testkit import make_generator, random_element, random_haar_unitary, random_unital_cp_map


def pinching_map(d: int) -> LinearMapRep:
    shape = matrix_algebra(d)
    return map_from_function(
        shape, shape,
        lambda e: AlgebraElement(shape, [np.diag(np.diagonal(e.blocks[0])).astype(np.complex128)]),
    )


def depolarizing_map(d: int, lam: float) -> LinearMapRep:
    shape = matrix_algebra(d)
    return map_from_function(
        shape, shape,
        lambda e: AlgebraElement(shape, [
            lam * e.blocks[0] + (1.0 - lam) * np.trace(e.blocks[0]) / d * np.eye(d)
        ]),
    )


def _span_projector(basis) -> np.ndarray:
    """Orthogonal projector onto the span of the given elements."""
    q, _ = np.linalg.qr(np.stack([multdomain.coefficient_vector(b) for b in basis], axis=1))
    return q @ q.conj().T


def test_coefficient_vector_round_trip():
    gen = make_generator(90)
    shape = AlgebraShape((2, 3))
    x = random_element(gen, shape)
    v = multdomain.coefficient_vector(x)
    assert v.shape == (shape.total_dim,)
    back = multdomain.element_from_coefficients(shape, v)
    assert element_norm(back - x) <= 1e-14
    with pytest.raises(ValueError):
        multdomain.element_from_coefficients(shape, v[:-1])


def test_closure_report_measures_distance_to_the_span():
    # Oracle: least-squares distances from the span of an orthonormalized
    # random basis, which is neither unital nor closed.
    gen = make_generator(91)
    shape = matrix_algebra(3)
    cols = np.stack([multdomain.coefficient_vector(random_element(gen, shape)) for _ in range(4)], axis=1)
    q, _ = np.linalg.qr(cols)
    basis = tuple(multdomain.element_from_coefficients(shape, c) for c in q.T)
    rep = multdomain.subalgebra_closure_report(multdomain.SubalgebraBasis(shape, basis, 4))

    def dist(x):
        v = multdomain.coefficient_vector(x)
        return float(np.linalg.norm(v - q @ np.linalg.lstsq(q, v, rcond=None)[0]))

    one = unit(shape)
    assert rep["unit"] == pytest.approx(dist(one) / np.sqrt(3.0), rel=1e-9)
    assert rep["adjoint"] == pytest.approx(max(dist(b.adjoint()) for b in basis), rel=1e-9)
    assert rep["product"] == pytest.approx(max(dist(a * b) for a in basis for b in basis), rel=1e-9)
    assert rep["unit"] > 0.1 and rep["product"] > 0.1
    assert rep["orthonormality"] <= 1e-12
    # a basis element is at distance zero: the span contains what it should
    assert dist(basis[0]) <= 1e-12


def _assert_closed(md):
    rep = multdomain.subalgebra_closure_report(md)
    for key in ("unit", "adjoint", "product", "orthonormality"):
        assert rep[key] <= 1e-9, key


def test_identity_map_has_full_domain():
    # M_1 is the edge input; M_2 + M_1, M_3 + M_1 and M_1 + M_2 are the
    # multi-block inputs, with the larger block first and last
    for dims in ((2,), (3,), (1,), (2, 1), (3, 1), (1, 2)):
        shape = AlgebraShape(dims)
        md = multdomain.multiplicative_domain(identity_map(shape))
        assert md.dimension == shape.total_dim
        _assert_closed(md)


def test_pinching_domain_is_diagonal():
    for d in (2, 3):
        md = multdomain.multiplicative_domain(pinching_map(d))
        assert md.dimension == d
        proj = _span_projector(md.basis)
        shape = matrix_algebra(d)
        for r in range(d):
            for s in range(d):
                v = multdomain.coefficient_vector(matrix_unit_element(shape, 0, r, s))
                dist = float(np.linalg.norm(v - proj @ v))
                if r == s:
                    assert dist <= 1e-9
                else:
                    assert dist >= 0.99


def test_pinching_conditions_by_direct_enumeration():
    # Independent oracle: evaluate u(e a) - u(e) u(a) and the mirrored
    # condition for every pair of matrix units with plain matrix products.
    d = 3
    u = pinching_map(d)
    shape = matrix_algebra(d)
    units = [(r, s, matrix_unit_element(shape, 0, r, s)) for r in range(d) for s in range(d)]
    for r, s, e in units:
        worst = 0.0
        for _, _, a in units:
            worst = max(worst, element_norm(apply_map(u, e * a) - apply_map(u, e) * apply_map(u, a)))
            worst = max(worst, element_norm(apply_map(u, a * e) - apply_map(u, a) * apply_map(u, e)))
        if r == s:
            assert worst <= 1e-12
        else:
            assert worst > 1e-3


def test_depolarizing_domain_is_scalars():
    md = multdomain.multiplicative_domain(depolarizing_map(2, 0.6))
    assert md.dimension == 1
    # the single basis element is proportional to the unit
    b = md.basis[0]
    one = unit(matrix_algebra(2))
    inner = complex(sum(np.trace(x.conj().T @ y) for x, y in zip(b.blocks, one.blocks)))
    assert element_norm(b - (inner / 2.0) * one) <= 1e-9


def test_unitary_conjugation_is_homomorphism():
    gen = make_generator(92)
    d = 3
    w = random_haar_unitary(gen, d)
    md = multdomain.multiplicative_domain(kraus_map([w]))
    assert md.dimension == d * d


def test_trace_map_domain_is_scalars():
    # at lam = 0 the depolarizing map is x -> tr(x) / d * 1
    md = multdomain.multiplicative_domain(depolarizing_map(3, 0.0))
    assert md.dimension == 1


def test_generic_unital_cp_map_domain_is_scalars():
    gen = make_generator(93)
    md = multdomain.multiplicative_domain(random_unital_cp_map(gen, 2))
    assert md.dimension == 1


def test_bimodularity_residuals():
    d = 3
    u = pinching_map(d)
    md = multdomain.multiplicative_domain(u)
    rep = multdomain.verify_bimodularity(u, md, samples=20, seed=0)
    assert rep.max_residual <= 1e-9
    assert rep.samples == 20
    assert rep.dimension == d

    # negative control: a non-diagonal a breaks multiplicativity visibly
    shape = matrix_algebra(d)
    a = matrix_unit_element(shape, 0, 0, 1) + matrix_unit_element(shape, 0, 1, 0)
    x = matrix_unit_element(shape, 0, 1, 0)
    res = multdomain.bimodularity_residual(u, a, x, unit(shape))
    assert res > 1e-3


def test_bimodularity_shape_mismatch():
    u = pinching_map(2)
    md = multdomain.multiplicative_domain(pinching_map(3))
    with pytest.raises(ValueError):
        multdomain.verify_bimodularity(u, md)


def test_rejects_non_cp_and_non_unital():
    with pytest.raises(ValueError):
        shape = matrix_algebra(2)
        transpose = map_from_function(shape, shape, lambda e: AlgebraElement(shape, [e.blocks[0].T.copy()]))
        multdomain.multiplicative_domain(transpose)
    with pytest.raises(ValueError):
        multdomain.multiplicative_domain(kraus_map([0.5 * np.eye(2)]))


def _pullback_dimension(through: LinearMapRep, inner_md, outer_md) -> int:
    """dim {a in span(inner_md): through(a) in span(outer_md)}.

    The kernel of the projection onto the complement of span(outer_md),
    restricted to the images of the inner basis, counts the pullback
    directions.
    """
    proj = _span_projector(outer_md.basis)
    mat = np.stack(
        [multdomain.coefficient_vector(apply_map(through, b)) for b in inner_md.basis], axis=1
    )
    resid = mat - proj @ mat
    s = np.linalg.svd(resid, compute_uv=False)
    top = float(s[0]) if s.size else 0.0
    if top <= 1e-12:
        return inner_md.dimension
    rank = int(np.sum(s > 1e-9 * top))
    return inner_md.dimension - rank


def test_composition_domain_contains_pullback():
    # a in MD(v) with v(a) in MD(u) multiplies under u . v, so the
    # composed domain is at least as large as that pullback.
    gen = make_generator(94)
    d = 2
    cases = []
    w = random_haar_unitary(gen, d)
    cases.append((pinching_map(d), kraus_map([w])))
    cases.append((depolarizing_map(d, 0.7), pinching_map(d)))
    cases.append((random_unital_cp_map(gen, d), random_unital_cp_map(gen, d)))
    for u, v in cases:
        md_u = multdomain.multiplicative_domain(u)
        md_v = multdomain.multiplicative_domain(v)
        md_uv = multdomain.multiplicative_domain(compose(u, v))
        want_at_least = _pullback_dimension(v, md_v, md_u)
        assert md_uv.dimension >= want_at_least


def test_pinch_after_unitary_domain_is_rotated_diagonal():
    gen = make_generator(95)
    d = 2
    w = random_haar_unitary(gen, d)
    u = compose(pinching_map(d), kraus_map([w]))
    md = multdomain.multiplicative_domain(u)
    assert md.dimension == d
    # the domain is w diag w*: conjugating diagonal units back lands in span
    proj = _span_projector(md.basis)
    shape = matrix_algebra(d)
    for r in range(d):
        e = matrix_unit_element(shape, 0, r, r)
        rot = AlgebraElement(shape, [w @ e.blocks[0] @ w.conj().T])
        vv = multdomain.coefficient_vector(rot)
        assert float(np.linalg.norm(vv - proj @ vv)) <= 1e-8


def test_block_pinching_on_multi_block_domain():
    # pinch the M_2 block to its diagonal, keep the M_1 block: the domain is
    # the diagonal of M_2 plus the M_1 block
    shape = AlgebraShape((2, 1))
    u = map_from_function(
        shape, shape,
        lambda e: AlgebraElement(shape, [np.diag(np.diagonal(e.blocks[0])), e.blocks[1]]),
    )
    md = multdomain.multiplicative_domain(u)
    assert md.dimension == 3
    _assert_closed(md)


def test_domain_memory_stays_at_system_size():
    # At d=7 the system is 4802x49; a full left factor U alone would be 369 MB.
    u = random_unital_cp_map(make_generator(96), 7)
    tracemalloc.start()
    try:
        md = multdomain.multiplicative_domain(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert md.dimension == 1
    assert peak < 40e6, f"traced peak {peak / 1e6:.1f} MB"
