"""Multiplicative domain tests.

Expected dimensions come from hand analysis: the identity multiplies on
everything (d^2), a pinching multiplies exactly on the diagonal (d), the
depolarizing channel only on scalars (1), and a unitary conjugation is a
homomorphism (d^2).  The pinching case is additionally cross-checked by
enumerating the matrix-unit conditions directly, without the kernel
machinery under test, and every domain is compared with the kernel of the
linear system u(ea) = u(e)u(a), u(ae) = u(a)u(e) over all matrix units e,
solved by SVD.  The stacked reports are compared with their per-element
definitions.
"""


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
    matrix_units,
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


def _random_span(gen, shape: AlgebraShape, n: int):
    """Orthonormalized random elements, neither unital nor closed, and their
    coefficient columns."""
    cols = np.stack([multdomain.coefficient_vector(random_element(gen, shape)) for _ in range(n)], axis=1)
    q, _ = np.linalg.qr(cols)
    basis = tuple(multdomain.element_from_coefficients(shape, c) for c in q.T)
    return multdomain.SubalgebraBasis(shape, basis, n), q


def test_closure_report_measures_distance_to_the_span(monkeypatch):
    # Oracle: least-squares distances from the span of an orthonormalized
    # random basis, element by element, on one block and on three.
    # One-byte chunks form the products one row of the basis at a time.
    gen = make_generator(91)
    for dims in ((3,), (2, 2, 1)):
        shape = AlgebraShape(dims)
        sub, q = _random_span(gen, shape, 4)
        basis = sub.basis

        def dist(x):
            v = multdomain.coefficient_vector(x)
            return float(np.linalg.norm(v - q @ np.linalg.lstsq(q, v, rcond=None)[0]))

        for chunk_bytes in (multdomain.CLOSURE_CHUNK_BYTES, 1):
            monkeypatch.setattr(multdomain, "CLOSURE_CHUNK_BYTES", chunk_bytes)
            rep = multdomain.subalgebra_closure_report(sub)
            one = unit(shape)
            assert rep["unit"] == pytest.approx(dist(one) / np.sqrt(shape.embed_dim), rel=1e-9)
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


def _linear_system_domain(u: LinearMapRep) -> np.ndarray:
    """Coefficient rows of the kernel of u(ea) = u(e)u(a), u(ae) = u(a)u(e)
    over all matrix units e, from an SVD of the stacked conditions with
    singular-value cutoff 1e-9 times the largest singular value or the
    squared image scale, whichever is larger."""
    shape = u.domain
    units = [matrix_unit_element(shape, i, r, s) for _, i, r, s in matrix_units(shape)]
    imgs = [apply_map(u, e) for e in units]
    cols = []
    for t, et in enumerate(units):
        rows = []
        for k, ek in enumerate(units):
            rows.append((apply_map(u, ek * et) - imgs[k] * imgs[t]).assemble().ravel())
            rows.append((apply_map(u, et * ek) - imgs[t] * imgs[k]).assemble().ravel())
        cols.append(np.concatenate(rows))
    _, s, vh = np.linalg.svd(np.stack(cols, axis=1), full_matrices=False)
    scale = max(element_norm(img) for img in imgs)
    floor = 1e-9 * max(float(s[0]), scale * scale, np.finfo(float).tiny)
    return vh[int(np.sum(s > floor)):].conj()


def _assert_matches_linear_system(u: LinearMapRep) -> int:
    md = multdomain.multiplicative_domain(u)
    want = _linear_system_domain(u)
    assert md.dimension == want.shape[0]
    gap = _span_projector(md.basis) - want.T @ want.conj()
    assert np.linalg.norm(gap, 2) <= 1e-9
    return md.dimension


def _block_pinching() -> LinearMapRep:
    # pinch the M_2 block to its diagonal, keep the M_1 block
    shape = AlgebraShape((2, 1))
    return map_from_function(
        shape, shape,
        lambda e: AlgebraElement(shape, [np.diag(np.diagonal(e.blocks[0])), e.blocks[1]]),
    )


def test_domain_matches_linear_system_oracle():
    for dims in ((2,), (3,), (1,), (2, 1), (3, 1), (1, 2), (1, 1, 1)):
        assert _assert_matches_linear_system(identity_map(AlgebraShape(dims))) == AlgebraShape(dims).total_dim
    gen = make_generator(97)
    maps = [pinching_map(2), pinching_map(3), kraus_map([random_haar_unitary(gen, 3)]), _block_pinching()]
    maps += [random_unital_cp_map(gen, d) for d in (2, 3, 4)]
    for u, want in zip(maps, (2, 3, 9, 3, 1, 1, 1)):
        assert _assert_matches_linear_system(u) == want


def test_domain_matches_linear_system_near_the_identity():
    # (1 - t) id + t depolarizing: the Schwarz defects off the scalars are
    # about 4t, so the cutoff counts them as rank down to t = 1e-8 and as
    # kernel at 1e-10, as the linear system's cutoff does
    dims = [_assert_matches_linear_system(depolarizing_map(4, 1.0 - t))
            for t in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)]
    assert dims == [1, 1, 1, 1, 16]


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
    # an empty sample would report a residual of 0
    for bad in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            multdomain.verify_bimodularity(u, md, samples=bad)

    # negative control: a non-diagonal a breaks multiplicativity visibly
    shape = matrix_algebra(d)
    a = matrix_unit_element(shape, 0, 0, 1) + matrix_unit_element(shape, 0, 1, 0)
    x = matrix_unit_element(shape, 0, 1, 0)
    res = multdomain.bimodularity_residual(u, a, x, unit(shape))
    assert res > 1e-3


def _bimodularity_by_element(u, d, samples, seed) -> float:
    """Worst ``bimodularity_residual`` over the draws ``verify_bimodularity`` makes."""
    gen = make_generator(seed, stream=77)
    worst = 0.0
    for _ in range(samples):
        coeffs = []
        for _ in range(2):
            c = gen.standard_normal((d.dimension, 2)) @ np.array([1.0, 1.0j]) / np.sqrt(2.0)
            coeffs.append(c / np.linalg.norm(c))
        a, b = (sum((complex(c) * e for c, e in zip(cs, d.basis)), 0 * d.basis[0]) for cs in coeffs)
        x = random_element(gen, u.domain)
        x = (1.0 / element_norm(x)) * x
        worst = max(worst, multdomain.bimodularity_residual(u, a, x, b))
    return worst


def test_stacked_bimodularity_equals_per_element_residuals():
    gen = make_generator(98)
    shape = AlgebraShape((2, 1))
    pinch, block = pinching_map(3), _block_pinching()
    cases = [
        (pinch, multdomain.multiplicative_domain(pinch)),
        (block, multdomain.multiplicative_domain(block)),
        # a span that is no domain: residuals of order one
        (block, _random_span(gen, shape, 3)[0]),
    ]
    for u, d in cases:
        rep = multdomain.verify_bimodularity(u, d, samples=7, seed=5)
        assert rep.max_residual == pytest.approx(_bimodularity_by_element(u, d, 7, 5), abs=1e-12)
    assert rep.max_residual > 0.1


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
    # the domain is the diagonal of M_2 plus the M_1 block
    md = multdomain.multiplicative_domain(_block_pinching())
    assert md.dimension == 3
    _assert_closed(md)


def test_domain_memory_stays_at_system_size(traced):
    # At d=7 the Schwarz-defect matrix is 49x49 and the image stack 49x7x7;
    # the budget leaves room for the Choi-matrix test of complete positivity.
    u = random_unital_cp_map(make_generator(96), 7)
    md, peak = traced(multdomain.multiplicative_domain, u)
    assert md.dimension == 1
    assert peak < 40e6, f"traced peak {peak / 1e6:.1f} MB"


def test_domain_scales_to_d16(traced):
    # the matrix-unit linear system at d=16 would take 2 * 16^6 x 256
    # entries, about 537 MB; the Schwarz-defect matrix is 256x256
    u = random_unital_cp_map(make_generator(99), 16)
    md, peak = traced(multdomain.multiplicative_domain, u)
    assert md.dimension == 1
    assert peak < 64e6, f"traced peak {peak / 1e6:.1f} MB"
