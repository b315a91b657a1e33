"""Decomposable norm tests against closed forms and independent oracles.

The oracles: scalar tuples have norm sum |x_j|, diagonal tuples have norm
max_k sum_j |x_j[k, k]| (factor through the diagonal), a single coefficient
gives its operator norm, trace functionals give the trace norm of the
defining matrix, and CP maps give the norm of the image of the unit.  None
of these are computed with the SDP machinery under test.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decnorms import decomposable, maps
from decnorms.algebra import (
    AlgebraShape,
    abelian_algebra,
    element,
    element_norm,
    is_positive,
    matrix_algebra,
    unit,
    zero,
)
from decnorms.testkit import (
    make_generator,
    random_ginibre,
    random_haar_unitary,
    random_hermitian,
    random_matrix_tuple,
    random_unital_cp_map,
)

TIGHT = dict(tol=1e-10)


def test_scalar_tuple_closed_form():
    cert = decomposable.dec_norm_linf([np.array([[1.0]]), np.array([[-2.0]]), np.array([[3j]])], **TIGHT)
    assert cert.value == pytest.approx(6.0, abs=1e-8)
    gen = make_generator(40)
    for _ in range(6):
        n = int(gen.integers(2, 6))
        vals = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        cert = decomposable.dec_norm_linf([np.array([[v]]) for v in vals], **TIGHT)
        assert cert.value == pytest.approx(float(np.abs(vals).sum()), abs=1e-8)
        assert not cert.flagged


def test_diagonal_tuple_closed_form():
    # Diagonal coefficients factor through the diagonal subalgebra, so the
    # norm is the max over positions of the absolute column sums.
    gen = make_generator(41)
    for _ in range(5):
        n = int(gen.integers(2, 4))
        d = int(gen.integers(2, 4))
        diags = gen.standard_normal((n, d)) + 1j * gen.standard_normal((n, d))
        xs = [np.diag(row) for row in diags]
        want = float(np.abs(diags).sum(axis=0).max())
        cert = decomposable.dec_norm_linf(xs, **TIGHT)
        assert cert.value == pytest.approx(want, abs=1e-7)


def test_unitary_tuple_closed_form():
    gen = make_generator(42)
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        xs = [random_haar_unitary(gen, d) for _ in range(n)]
        cert = decomposable.dec_norm_linf(xs, **TIGHT)
        assert cert.value == pytest.approx(float(n), abs=1e-7)


def test_single_coefficient_is_operator_norm():
    gen = make_generator(43)
    for _ in range(5):
        x = random_ginibre(gen, 3, 3)
        cert = decomposable.dec_norm_linf([x], **TIGHT)
        assert cert.value == pytest.approx(np.linalg.norm(x, 2), abs=1e-8)


def test_cp_tuple_is_norm_of_unit_image():
    # Positive coefficients make the map CP, and then the norm is just
    # ||sum x_j||, computed here with eigh.
    gen = make_generator(44)
    shape = matrix_algebra(2)
    for _ in range(4):
        gs = [random_ginibre(gen, 2, 2) for _ in range(3)]
        xs = [element(shape, [g @ g.conj().T]) for g in gs]
        want = element_norm(xs[0] + xs[1] + xs[2])
        cert = decomposable.dec_norm_linf(xs, **TIGHT)
        assert cert.value == pytest.approx(want, abs=1e-7 * max(1.0, want))


def test_homogeneity_and_phase_invariance():
    gen = make_generator(45)
    xs = random_matrix_tuple(gen, 3, 2)
    base = decomposable.dec_norm_linf(xs).value
    c = 2.5 - 1.5j
    scaled = decomposable.dec_norm_linf([c * x for x in xs]).value
    assert scaled == pytest.approx(abs(c) * base, abs=1e-6 * max(1.0, base))
    phases = np.exp(1j * gen.uniform(0, 2 * np.pi, size=3))
    rotated = decomposable.dec_norm_linf([p * x for p, x in zip(phases, xs)]).value
    assert rotated == pytest.approx(base, abs=1e-6)


def test_permutation_and_common_unitary_invariance():
    gen = make_generator(46)
    xs = random_matrix_tuple(gen, 3, 2)
    base = decomposable.dec_norm_linf(xs).value
    perm = decomposable.dec_norm_linf([xs[2], xs[0], xs[1]]).value
    assert perm == pytest.approx(base, abs=1e-6)
    w = random_haar_unitary(gen, 2)
    v = random_haar_unitary(gen, 2)
    moved = decomposable.dec_norm_linf([w @ x @ v for x in xs]).value
    assert moved == pytest.approx(base, abs=1e-6)


def test_triangle_inequality():
    gen = make_generator(47)
    for _ in range(3):
        xs = random_matrix_tuple(gen, 2, 2)
        ys = random_matrix_tuple(gen, 2, 2)
        both = decomposable.dec_norm_linf([x + y for x, y in zip(xs, ys)]).value
        split = decomposable.dec_norm_linf(xs).value + decomposable.dec_norm_linf(ys).value
        assert both <= split + 1e-6


def test_certificate_contents_linf():
    gen = make_generator(48)
    single = [element(matrix_algebra(2), [x]) for x in random_matrix_tuple(gen, 3, 2)]
    # into M_2 + M_1: one coefficient vanishes on M_1, the last one everywhere
    shape = AlgebraShape((2, 1))
    multi = [
        element(shape, [random_ginibre(gen, 2, 2), random_ginibre(gen, 1, 1)]),
        element(shape, [random_ginibre(gen, 2, 2), np.zeros((1, 1))]),
        zero(shape),
    ]
    for xs in (single, multi):
        cert = decomposable.dec_norm_linf(xs)
        scale = max(element_norm(x) for x in xs)
        assert cert.reconstruction_residual <= 1e-6 * max(1.0, scale)
        assert not cert.flagged
        assert cert.factor_bound == pytest.approx(cert.value, abs=1e-6 * max(1.0, cert.value))
        # the repaired dressing is exactly feasible: pair blocks PSD, sums bounded
        for x, p, q in zip(xs, cert.P, cert.Q):
            for xt, pt, qt in zip(x.blocks, p.blocks, q.blocks):
                big = np.block([[pt, xt], [xt.conj().T, qt]])
                assert float(np.linalg.eigvalsh(big)[0]) >= -1e-10
        sp = cert.P[0] + cert.P[1] + cert.P[2]
        sq = cert.Q[0] + cert.Q[1] + cert.Q[2]
        assert element_norm(sp) <= cert.value + 1e-8
        assert element_norm(sq) <= cert.value + 1e-8
        # rebuilding the coefficients from the factors reproduces the map
        for x, a, b in zip(xs, cert.factor_a, cert.factor_b):
            assert element_norm(a.adjoint() * b - x) <= 1e-6
        assert decomposable.dec_upper_bound_factored(cert.factor_a, cert.factor_b) == pytest.approx(
            cert.factor_bound)
    # the zero coefficient gets no variables, so its dressing and factors are exact zeros
    for part in (cert.P[2], cert.Q[2], cert.factor_a[2], cert.factor_b[2]):
        assert not any(np.any(b) for b in part.blocks)


def test_identity_map_has_norm_one():
    for d in (2, 3):
        cert = decomposable.dec_norms([maps.identity_map(matrix_algebra(d))], **TIGHT)[0]
        assert cert.value == pytest.approx(1.0, abs=1e-7)
        assert cert.reconstruction_residual <= 1e-7


def test_trace_functional_is_trace_norm():
    # u(x) = tr(x a) as a map into M_1; its norm is the trace norm of a.
    gen = make_generator(49)
    for _ in range(4):
        n = int(gen.integers(2, 4))
        a = random_ginibre(gen, n, n)
        dom = matrix_algebra(n)
        cod = matrix_algebra(1)
        images = [element(cod, [np.array([[a[s, r]]])]) for r in range(n) for s in range(n)]
        u = maps.LinearMapRep(dom, cod, images)
        want = float(np.linalg.svd(a, compute_uv=False).sum())
        cert = decomposable.dec_norms([u], **TIGHT)[0]
        assert cert.value == pytest.approx(want, abs=1e-7 * max(1.0, want))


def test_cp_matrix_domain_map_has_norm_of_unit_image():
    gen = make_generator(50)
    # x -> sum_k a_k* x a_k with 2x3 Kraus operators: a CP map from M_2 into M_3
    u = maps.kraus_map([random_ginibre(gen, 2, 3) for _ in range(3)])
    cert = decomposable.dec_norms([u])[0]
    want = element_norm(maps.apply_map(u, unit(u.domain)))
    assert cert.value == pytest.approx(want, abs=1e-6)


def test_matrix_domain_certificate_reconstruction():
    gen = make_generator(51)
    imgs = [element(matrix_algebra(2), [random_ginibre(gen, 2, 2)]) for _ in range(4)]
    u = maps.LinearMapRep(matrix_algebra(2), matrix_algebra(2), imgs)
    cert = decomposable.dec_norms([u])[0]
    n = 2
    worst = 0.0
    for i in range(n):
        for j in range(n):
            acc = np.zeros((2, 2), dtype=np.complex128)
            for k in range(n):
                acc += cert.factor_a[k * n + i].blocks[0].conj().T @ cert.factor_b[k * n + j].blocks[0]
            worst = max(worst, np.linalg.norm(u.image(0, i, j).blocks[0] - acc, 2))
    assert worst <= 1e-6
    assert cert.factor_bound == pytest.approx(cert.value, abs=1e-5 * max(1.0, cert.value))


def test_matrix_route_agrees_with_abelian_route_through_pinching():
    # Composing the coefficient map with the diagonal pinching gives a
    # matrix-domain map with exactly the same norm, computed by a program
    # with different variables; the two routes must agree.
    gen = make_generator(52)
    n, d = 2, 2
    xs = random_matrix_tuple(gen, n, d)
    w = maps.map_from_linf([element(matrix_algebra(d), [x]) for x in xs])
    pinch = maps.map_from_function(
        matrix_algebra(n), abelian_algebra(n),
        lambda e: element(abelian_algebra(n), [[[v]] for v in np.diagonal(e.blocks[0])]),
    )
    composed = maps.compose(w, pinch)
    via_matrix = decomposable.dec_norms([composed])[0].value
    via_abelian = decomposable.dec_norm_linf(xs).value
    assert via_matrix == pytest.approx(via_abelian, abs=2e-6 * max(1.0, via_abelian))


def test_submultiplicativity_under_composition():
    gen = make_generator(53)
    for _ in range(3):
        xs = random_matrix_tuple(gen, 2, 2)
        v = random_unital_cp_map(gen, 2)
        u = maps.map_from_linf([element(matrix_algebra(2), [x]) for x in xs])
        comp = maps.compose(v, u)
        lhs = decomposable.dec_norm_linf(comp.images).value
        rhs = decomposable.dec_norm_linf(xs).value * decomposable.dec_norms([v])[0].value
        assert lhs <= rhs + 1e-6 * max(1.0, rhs)


def test_direct_sum_joint_equals_max_block():
    gen = make_generator(54)
    dom = np.array([2, 2])
    shape = tuple(int(t) for t in dom)
    domain = AlgebraShape(shape)
    codomain = AlgebraShape(shape)
    images, block_maps = [], []
    for i, di in enumerate(shape):
        block_images = []
        for _ in range(di * di):
            blocks = [np.zeros((c, c), dtype=np.complex128) for c in shape]
            blocks[i] = random_ginibre(gen, di, di)
            images.append(element(codomain, blocks))
            block_images.append(element(matrix_algebra(di), [blocks[i]]))
        block_maps.append(maps.LinearMapRep(matrix_algebra(di), matrix_algebra(di), block_images))
    u = maps.LinearMapRep(domain, codomain, images)
    joint, *blocks = decomposable.dec_norms([u, *block_maps])
    assert joint.kind == "direct_sum"
    assert [c.kind for c in blocks] == ["matrix_domain"] * 2
    top = max(c.value for c in blocks)
    assert joint.value == pytest.approx(top, abs=1e-6 * max(1.0, top))


def test_direct_sum_certificate_rebuilds_the_map():
    gen = make_generator(58)
    domain = AlgebraShape((2, 1))
    codomain = AlgebraShape((3, 2))
    images = []
    for i, di in enumerate(domain.block_dims):
        for _ in range(di * di):
            blocks = [np.zeros((c, c), dtype=np.complex128) for c in codomain.block_dims]
            blocks[i] = random_ginibre(gen, codomain.block_dims[i], codomain.block_dims[i])
            images.append(element(codomain, blocks))
    u = maps.LinearMapRep(domain, codomain, images)
    cert = decomposable.dec_norms([u])[0]
    assert cert.kind == "direct_sum"
    assert len(cert.factor_a) == len(cert.factor_b) == domain.total_dim
    worst = 0.0
    for k, i, r, s in maps.matrix_units(domain):
        acc = zero(codomain)
        for l in range(domain.block_dims[i]):
            a = cert.factor_a[maps.matrix_unit_index(domain, i, l, r)]
            b = cert.factor_b[maps.matrix_unit_index(domain, i, l, s)]
            acc = acc + a.adjoint() * b
        worst = max(worst, element_norm(u.images[k] - acc))
    assert worst <= 1e-6
    assert cert.reconstruction_residual == pytest.approx(worst, abs=1e-12)
    assert cert.factor_bound == pytest.approx(cert.value, abs=1e-5 * max(1.0, cert.value))
    assert not cert.flagged


def test_direct_sum_takes_any_map_on_the_sum():
    # a tuple is the map e_j -> x_j on M_1 + ... + M_1, so handing dec_norms
    # that map solves the tuple's own program
    xs = random_matrix_tuple(make_generator(60), 3, 2)
    as_map = maps.map_from_linf([element(matrix_algebra(2), [x]) for x in xs])
    # every matrix unit of both domain blocks goes to the unit: support
    # across the blocks, where no per-block program applies
    shape = AlgebraShape((2, 2))
    across = maps.LinearMapRep(shape, shape, [unit(shape) for _ in range(8)])
    got, cert = decomposable.dec_norms([as_map, across])
    want = decomposable.dec_norm_linf(xs)
    assert (got.kind, want.kind) == ("direct_sum", "linf")
    assert (got.value, got.factor_bound) == (want.value, want.factor_bound)
    assert got.solver.y.tobytes() == want.solver.y.tobytes()
    assert got.solver.history == want.solver.history
    assert cert.kind == "direct_sum"
    assert cert.factor_bound == pytest.approx(cert.value, abs=1e-5 * max(1.0, cert.value))
    assert not cert.flagged


def test_selfadjoint_route_agrees_with_general_route():
    gen = make_generator(55)
    for _ in range(3):
        xs = [random_hermitian(gen, 2) for _ in range(3)]
        sa = decomposable.selfadjoint_dec_norms([xs])[0]
        gl = decomposable.dec_norm_linf(xs)
        assert sa.value == pytest.approx(gl.value, abs=2e-6 * max(1.0, gl.value))
        assert sa.kind == "selfadjoint" and not sa.flagged
        assert sa.factor_bound <= sa.value * (1 + 1e-12)
        # the dressing is S1 = S2 = R + N, so the split reads off P
        for p, q, x in zip(sa.P, sa.Q, xs, strict=True):
            assert p.blocks[0].tobytes() == q.blocks[0].tobytes()
            assert is_positive(element(p.shape, [(p.blocks[0] + x) / 2]), tol=1e-8)
            assert is_positive(element(p.shape, [(p.blocks[0] - x) / 2]), tol=1e-8)


def test_selfadjoint_route_rejects_nonhermitian():
    gen = make_generator(56)
    with pytest.raises(ValueError):
        decomposable.selfadjoint_dec_norms([[random_ginibre(gen, 2, 2)]])
    # a batch names the failing input; a single input keeps the bare message
    nilpotent = [[0, 1], [0, 0]]
    with pytest.raises(ValueError, match="^input 1: coefficient 1 is not self-adjoint$"):
        decomposable.selfadjoint_dec_norms([[np.eye(2)], [np.eye(2), nilpotent]])
    with pytest.raises(ValueError, match="^coefficient 1 is not self-adjoint$"):
        decomposable.selfadjoint_dec_norms([[np.eye(2), nilpotent]])


def test_degenerate_inputs():
    cert = decomposable.dec_norm_linf([np.zeros((2, 2)), np.zeros((2, 2))])
    assert cert.value == 0.0
    assert not cert.flagged
    with pytest.raises(ValueError):
        decomposable.dec_norm_linf([])
    with pytest.raises(ValueError):
        decomposable.dec_norm_linf([np.eye(2), np.eye(3)])
    (cert,) = decomposable.selfadjoint_dec_norms([[np.zeros((2, 2)), np.zeros((2, 2))]])
    assert (cert.value, cert.factor_bound, cert.kind) == (0.0, 0.0, "selfadjoint")
    assert not cert.flagged


def test_zero_coefficient_among_live_ones():
    gen = make_generator(57)
    x = random_ginibre(gen, 2, 2)
    cert = decomposable.dec_norm_linf([x, np.zeros((2, 2))], **TIGHT)
    assert cert.value == pytest.approx(np.linalg.norm(x, 2), abs=1e-7)
    assert element_norm(cert.P[1]) == 0.0


def _block_diagonal_map(gen, dims):
    shape = AlgebraShape(dims)
    images = []
    for i, di in enumerate(dims):
        for _ in range(di * di):
            blocks = [np.zeros((c, c), dtype=np.complex128) for c in dims]
            blocks[i] = random_ginibre(gen, di, di)
            images.append(element(shape, blocks))
    return maps.LinearMapRep(shape, shape, images)


def _certificate_bytes(cert):
    def elements(xs):
        return [b.tobytes() for x in xs for b in x.blocks]

    return (cert.kind, cert.flagged, cert.solver.y.tobytes(),
            np.array([cert.value, cert.factor_bound, cert.reconstruction_residual]).tobytes(),
            elements(cert.P), elements(cert.Q), elements(cert.factor_a), elements(cert.factor_b))


def test_batch_entry_matches_the_single_entries(monkeypatch):
    gen = make_generator(59)
    xs = random_matrix_tuple(gen, 3, 2)
    ys = random_matrix_tuple(gen, 3, 2)
    u = maps.map_from_function(matrix_algebra(2), matrix_algebra(2),
                               lambda x: element(matrix_algebra(2), [x.blocks[0].T]))
    w = _block_diagonal_map(gen, (2, 1))
    zeros = [np.zeros((2, 2)), np.zeros((2, 2))]
    # a zero coefficient changes the live blocks, so this tuple is a group of its own
    gap = random_matrix_tuple(gen, 3, 2)
    gap[1] = np.zeros((2, 2))
    m2 = matrix_algebra(2)
    more = [gap, random_matrix_tuple(gen, 1, 1),
            maps.LinearMapRep(m2, m2, [element(m2, [random_ginibre(gen, 2, 2)]) for _ in range(4)]),
            _block_diagonal_map(gen, (2, 2))]
    batch = decomposable.dec_norms([xs, u, ys, zeros, w] + more)
    singles = [decomposable.dec_norm_linf(xs), decomposable.dec_norms([u])[0],
               decomposable.dec_norm_linf(ys), decomposable.dec_norm_linf(zeros),
               decomposable.dec_norms([w])[0]] + [decomposable.dec_norms([x])[0] for x in more]
    for got, want in zip(batch, singles, strict=True):
        assert _certificate_bytes(got) == _certificate_bytes(want)
        assert got.solver.history == want.solver.history
    assert [c.kind for c in batch[4:]] == ["direct_sum", "linf", "linf", "matrix_domain", "direct_sum"]
    assert element_norm(batch[5].P[1]) == 0.0
    assert decomposable.dec_norms([]) == []
    # an input that fails validation is named too
    with pytest.raises(ValueError, match=r"^input 1: coefficient 1: algebra \(3,\) differs"):
        decomposable.dec_norms([xs, [np.eye(2), np.eye(3)]])
    # the capped program names its input
    monkeypatch.setattr(decomposable.conic, "MAX_ITER", 5)
    with pytest.raises(decomposable.conic.SolverError, match="input 1: .*max_iterations"):
        decomposable.dec_norms([zeros, xs])


def test_solver_failure_names_the_input_behind_a_zero_one(monkeypatch):
    # a zero input gets no program, so the failing input's position among the
    # programs (0 alone, 1 in a batch) is not its position among the inputs
    gen = make_generator(58)
    xs, ys = random_matrix_tuple(gen, 3, 2), random_matrix_tuple(gen, 3, 2)
    zeros = [np.zeros((2, 2)), np.zeros((2, 2))]
    finish = decomposable.conic._Lockstep.finish

    def lose_last_point(self, j):
        if j == len(self.programs) - 1:
            self.best_point[j] = None
        return finish(self, j)

    monkeypatch.setattr(decomposable.conic._Lockstep, "finish", lose_last_point)
    with pytest.raises(decomposable.conic.SolverError, match="^input 1: no usable iterate"):
        decomposable.dec_norms([zeros, xs])
    with pytest.raises(decomposable.conic.SolverError, match="^input 2: no usable iterate"):
        decomposable.dec_norms([zeros, xs, ys])


def test_direct_sum_batch_matches_the_single_calls():
    gen = make_generator(61)
    us = [_block_diagonal_map(gen, dims) for dims in ((2, 2), (2, 1), (2, 2))]
    for got, u in zip(decomposable.dec_norms(us), us, strict=True):
        want = decomposable.dec_norms([u])[0]
        assert (got.kind, want.kind) == ("direct_sum", "direct_sum")
        assert (got.value, got.factor_bound) == (want.value, want.factor_bound)
        assert got.solver.y.tobytes() == want.solver.y.tobytes()
        assert got.solver.history == want.solver.history


def test_selfadjoint_batch_matches_the_single_calls(monkeypatch):
    gen = make_generator(62)
    tuples = [[random_hermitian(gen, 2) for _ in range(3)] for _ in range(3)]
    tuples.insert(0, [np.zeros((2, 2))] * 3)  # no program: the first failing input is 1
    # a zero coefficient leaves the program's structure, and so its group, as it is
    tuples += [[random_hermitian(gen, 2), np.zeros((2, 2)), random_hermitian(gen, 2)],
               [random_hermitian(gen, 3) for _ in range(2)]]
    for got, xs in zip(decomposable.selfadjoint_dec_norms(tuples), tuples, strict=True):
        want = decomposable.selfadjoint_dec_norms([xs])[0]
        assert (got.kind, want.kind) == ("selfadjoint", "selfadjoint")
        assert _certificate_bytes(got) == _certificate_bytes(want)
        assert got.solver.history == want.solver.history
    monkeypatch.setattr(decomposable.conic, "MAX_ITER", 5)
    with pytest.raises(decomposable.conic.SolverError, match="^input 1: .*max_iterations"):
        decomposable.selfadjoint_dec_norms(tuples)


def test_edge_inputs_meet_their_closed_forms_in_one_call():
    gen = make_generator(65)
    x = random_ginibre(gen, 3, 3)
    scalars = [np.array([[2.0 - 1.0j]]), np.array([[-3.0]]), np.array([[0.5j]])]
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    e = np.eye(3)
    rank_one = [np.outer(e[0], e[0]), np.outer(e[0], e[1])]  # e11, e12 in M_3
    draws = make_generator(1, stream=3)
    spread = [s * random_matrix_tuple(draws, 1, 3)[0] for s in (1e8, 1.0, 1e-8)]
    n_one, d_one, nil, rank, wide = decomposable.dec_norms([[x], scalars, [e12, e12.T], rank_one,
                                                            spread])
    assert n_one.value == pytest.approx(np.linalg.norm(x, 2), rel=1e-7)
    assert d_one.value == pytest.approx(sum(abs(s[0, 0]) for s in scalars), rel=1e-7)
    # e12 = e11 e12 and e21 = e22 e21 have Gram sums e11 + e22 = 1 on both sides
    assert nil.value == pytest.approx(1.0, rel=1e-7)
    # ||e11 + e12|| = sqrt(2) from below; e1j = (e11 / 2^(1/4))* (2^(1/4) e1j) from above,
    # with Gram sums sqrt(2) e11 and sqrt(2) (e11 + e22)
    assert rank.value == pytest.approx(np.sqrt(2.0), rel=1e-7)
    norms = [np.linalg.norm(s, 2) for s in spread]
    assert max(norms) * (1 - 1e-7) <= wide.value <= sum(norms) * (1 + 1e-7)
    for cert in (n_one, d_one, nil, rank, wide):
        assert not cert.flagged


# Property tests: a Ginibre tuple of n <= 4 matrices in M_d, d <= 3, drawn from
# a Philox stream keyed by the example's seed, and one dec_norms call per example.
SEEDS = st.integers(0, 2**31 - 1)
SIZES = st.tuples(st.integers(1, 4), st.integers(1, 3))
REL = 1e-6


def _tuple(seed, size):
    gen = make_generator(seed, stream=4)
    return gen, random_matrix_tuple(gen, *size)


@given(seed=SEEDS, size=SIZES)
def test_dec_is_unitarily_invariant(seed, size):
    gen, xs = _tuple(seed, size)
    v, w = random_haar_unitary(gen, size[1]), random_haar_unitary(gen, size[1])
    plain, rotated = decomposable.dec_norms([xs, [v @ x @ w for x in xs]])
    assert rotated.value == pytest.approx(plain.value, rel=REL)


@given(seed=SEEDS, size=SIZES, data=st.data())
def test_dec_is_invariant_under_permutation(seed, size, data):
    _, xs = _tuple(seed, size)
    order = data.draw(st.permutations(range(size[0])))
    plain, permuted = decomposable.dec_norms([xs, [xs[j] for j in order]])
    assert permuted.value == pytest.approx(plain.value, rel=REL)


@given(seed=SEEDS, size=SIZES, modulus=st.floats(0.1, 10.0), phase=st.floats(0.0, 2 * np.pi))
def test_dec_is_homogeneous(seed, size, modulus, phase):
    _, xs = _tuple(seed, size)
    c = modulus * np.exp(1j * phase)
    plain, scaled = decomposable.dec_norms([xs, [c * x for x in xs]])
    assert scaled.value == pytest.approx(abs(c) * plain.value, rel=REL)


@given(seed=SEEDS, size=SIZES)
def test_dec_lies_between_the_largest_norm_and_the_norm_sum(seed, size):
    _, xs = _tuple(seed, size)
    cert, = decomposable.dec_norms([xs])
    norms = [np.linalg.norm(x, 2) for x in xs]
    assert max(norms) * (1 - REL) <= cert.value <= sum(norms) * (1 + REL)
