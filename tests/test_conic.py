"""Conic solver tests: coordinates, builder placement, solves, certificates.

Every solved program here has a dense linear-algebra oracle (eigh), so the
solver is checked against answers it cannot influence.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decnorms import conic
from decnorms.algebra import AlgebraShape, element, matrix_algebra
from decnorms.decomposable import _choi_data, _choi_programs, _pair_shapes, dec_norm_linf, dec_norms
from decnorms.maps import LinearMapRep, map_from_linf, tensor
from decnorms.suite import _random_map
from decnorms.testkit import (
    eigenvalue_program,
    make_generator,
    random_ginibre,
    random_hermitian,
    random_matrix_tuple,
)


def test_svec_round_trip_and_isometry():
    gen = make_generator(30)
    for q in [1, 1, 2, 3] + [int(q) for q in gen.integers(1, 7, size=20)]:
        a = random_hermitian(gen, q)
        b = random_hermitian(gen, q)
        va, vb = conic.svec(a), conic.svec(b)
        assert va.shape == (q * q,)
        assert np.allclose(conic.unsvec(va, q), a, atol=1e-14)
        # Euclidean pairing of coordinates equals the trace pairing
        assert float(va @ vb) == pytest.approx(np.trace(a @ b).real, abs=1e-10)
    with pytest.raises(ValueError):
        conic.unsvec(np.zeros(5), 2)


def test_block_builder_hermitian_var_placement():
    # Oracle: evaluate the built block at random coordinates and compare
    # against a hand-assembled [[P, x], [x*, Q]] matrix.
    gen = make_generator(31)
    d = 3
    x = random_hermitian(gen, d) + 1j * random_hermitian(gen, d)
    builder = conic.BlockBuilder(2 * d, 2 * d * d)
    builder.add_hermitian_var(0, d, 0)
    builder.add_hermitian_var(d * d, d, d)
    builder.add_constant_offdiag(x, 0, d)
    blk = builder.build()
    p = random_hermitian(gen, d)
    q = random_hermitian(gen, d)
    y = np.concatenate([conic.svec(p), conic.svec(q)])
    got = conic.unsvec(conic.svec(blk.f0) + blk.lin @ y, 2 * d)
    want = np.block([[p, x], [x.conj().T, q]])
    assert np.allclose(got, want, atol=1e-12)


def test_block_family_shares_its_linear_part_and_keeps_each_constant():
    # a family builds the block once; each program gets the F0 and the
    # linear part a builder of its own gives it, bit for bit
    gen = make_generator(35)
    d = 2
    xs = np.stack([random_hermitian(gen, d) + 1j * random_hermitian(gen, d) for _ in range(3)])
    family = conic.BlockBuilder(2 * d, d * d, family=len(xs))
    family.add_hermitian_var(0, d, 0)
    family.add_constant_offdiag(xs, 0, d)
    family.add_constant(np.eye(d))
    specs = family.build_family()
    for x, spec in zip(xs, specs, strict=True):
        builder = conic.BlockBuilder(2 * d, d * d)
        builder.add_hermitian_var(0, d, 0)
        builder.add_constant_offdiag(x, 0, d)
        builder.add_constant(np.eye(d))
        want = builder.build()
        assert spec.lin is specs[0].lin
        assert spec.f0.tobytes() == want.f0.tobytes()
        assert spec.lin.data.tobytes() == want.lin.data.tobytes()
        assert spec.lin.indices.tobytes() == want.lin.indices.tobytes()
    # the stacked inverse of svec reads each row as the lone call does
    rows = np.stack([conic.svec(spec.f0) for spec in specs])
    for row, spec in zip(conic.unsvec(rows, 2 * d), specs):
        assert row.tobytes() == conic.unsvec(conic.svec(spec.f0), 2 * d).tobytes()


def test_block_builder_partial_trace():
    gen = make_generator(32)
    n, c = 3, 2
    builder = conic.BlockBuilder(c, n * c * n * c)
    builder.add_partial_trace_var(0, n, c, 0, 1.0)
    blk = builder.build()
    big = random_hermitian(gen, n * c)
    got = conic.unsvec(blk.lin @ conic.svec(big), c)
    want = sum(big[r * c:(r + 1) * c, r * c:(r + 1) * c] for r in range(n))
    assert np.allclose(got, want, atol=1e-12)


def test_program_validation_errors():
    blk = conic.BlockBuilder(2, 2)
    blk.add_scalar_identity(0, 2, 0)
    spec = blk.build()
    with pytest.raises(conic.SolverError):
        conic.ConicProgram(objective=np.array([1.0, 0.0, 0.0]), psd_blocks=[spec])
    with pytest.raises(conic.SolverError):
        conic.ConicProgram(objective=np.array([1.0, 0.0]), psd_blocks=[])
    # an empty objective, with a block whose linear part has 0 columns to match
    with pytest.raises(conic.SolverError, match="at least one variable"):
        conic.ConicProgram(objective=np.zeros(0), psd_blocks=[conic.BlockBuilder(2, 0).build()])
    with pytest.raises(conic.SolverError):
        builder = conic.BlockBuilder(4, 1)
        builder.add_constant_offdiag(np.eye(2), 0, 0)


def test_eigenvalue_program_matches_eigh():
    gen = make_generator(33)
    for _ in range(12):
        d = int(gen.integers(2, 9))
        h = random_hermitian(gen, d)
        sol = conic.solve(eigenvalue_program(h))
        top = float(np.linalg.eigvalsh(h)[-1])
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(top, abs=1e-7)
        assert sol.gap <= 1e-7
        assert sol.dual_value <= sol.primal_value + 1e-7


def test_verify_certificate_flags_tampering():
    gen = make_generator(35)
    h = random_hermitian(gen, 4)
    prog = eigenvalue_program(h)
    sol = conic.solve(prog)
    rep = conic.verify_certificate(prog, sol)
    assert rep.clean, rep.discrepancies
    assert rep.stationarity_residual <= 1e-6
    assert rep.dual_psd_residual <= 1e-8

    bad = dataclasses.replace(sol, y=sol.y - 1e-2)
    rep_bad = conic.verify_certificate(prog, bad)
    assert not rep_bad.clean
    assert rep_bad.discrepancies
    # shrinking y below the top eigenvalue breaks primal feasibility
    assert any("PSD" in msg or "primal" in msg for msg in rep_bad.discrepancies)

    lied = dataclasses.replace(sol, primal_value=sol.primal_value + 1.0)
    rep_lied = conic.verify_certificate(prog, lied)
    assert not rep_lied.clean


def test_infeasible_program_detected():
    # P >= 0 and -I - P >= 0 cannot both hold.
    d = 2
    m = d * d
    b1 = conic.BlockBuilder(d, m)
    b1.add_hermitian_var(0, d, 0, 1.0)
    b2 = conic.BlockBuilder(d, m)
    b2.add_constant(-np.eye(d))
    b2.add_hermitian_var(0, d, 0, -1.0)
    prog = conic.ConicProgram(objective=np.zeros(m), psd_blocks=[b1.build(), b2.build()])
    sol = conic.solve(prog)
    assert sol.status == "infeasible_suspected"
    assert "infeasibility" in sol.message


def test_unbounded_program_reported_as_suspected():
    builder = conic.BlockBuilder(1, 1)
    builder.add_scalar_identity(0, 1, 0, 1.0)
    prog = conic.ConicProgram(objective=np.array([-1.0]), psd_blocks=[builder.build()])
    sol = conic.solve(prog)
    assert sol.status == "infeasible_suspected"
    assert "unbounded" in sol.message


def test_extrapolation_guard_keeps_tau_and_tau_plus_kappa():
    # x_tau projects to tau = max(x_tau, 0), and tau + kappa = |x_tau|
    plain = np.array([2.0, 2.0, -2.0, -2.0, -2.0, 2.0])
    ext = np.array([1.5, 0.9, -1.5, -0.9, 1.5, -1.5])
    assert conic._keeps_tau(ext, plain).tolist() == [True, False, True, False, True, False]
    # the lone step's scalar form: tau stays 0 but tau + kappa falls from 2 to 0.9
    assert not conic._keeps_tau(np.float64(-0.9), np.float64(-2.0))


def test_unbounded_program_certified_at_the_first_check(monkeypatch):
    # Without the tau + kappa guard, extrapolation takes this program to
    # x = 0, the embedding's trivial fixed point, and never certifies it.
    solves, spd_solve = [], conic._spd_solve

    def counted(lhs, rhs):
        solves.append(lhs.shape[0])
        return spd_solve(lhs, rhs)

    monkeypatch.setattr(conic, "_spd_solve", counted)
    sol = conic.solve(_scalar_program(0.0, -1.0, 1.0))
    assert solves  # acceleration is on
    assert sol.status == "infeasible_suspected" and "unbounded" in sol.message
    assert sol.iterations == conic.CHECK_EVERY


def test_check_runs_on_a_step_whose_extrapolation_was_dropped(monkeypatch):
    # With no growth allowed, every extrapolated point is dropped on the next
    # step, and about half the checks fall on such steps: each must still run.
    monkeypatch.setattr(conic, "AA_SAFEGUARD", 0.0)
    programs = [eigenvalue_program(random_hermitian(make_generator(80 + i), 6)) for i in range(2)]
    for program, sol in zip(programs, conic.solve_all(programs)):
        assert sol.status == "optimal"
        checks = [h[0] for h in sol.history]
        assert checks[-1] == sol.iterations and max(np.diff(checks)) <= conic.CHECK_EVERY
        _assert_same_solution(sol, conic.solve(program))


def test_solver_determinism():
    gen = make_generator(36)
    h = random_hermitian(gen, 5)
    prog = eigenvalue_program(h)
    s1 = conic.solve(prog)
    s2 = conic.solve(prog)
    assert s1.iterations == s2.iterations
    assert np.array_equal(s1.y, s2.y)
    assert s1.primal_value == s2.primal_value
    assert s1.dual_value == s2.dual_value


def test_residual_history_ends_at_the_stopping_check():
    gen = make_generator(37)
    short = conic.solve(eigenvalue_program(random_hermitian(gen, 3)))
    # converges after several checks, at one placed from the measured rate
    long = dec_norm_linf(random_matrix_tuple(make_generator(38), 6, 4)).solver
    assert len(long.history) > 2 and long.iterations % conic.CHECK_EVERY != 0
    for sol in (short, long):
        assert sol.status == "optimal"
        assert sol.history
        assert np.all(np.isfinite(np.array(sol.history)))
        assert [h[0] for h in sol.history] == sorted({h[0] for h in sol.history})
        it, res_p, res_d, gap = sol.history[-1]
        assert it == sol.iterations
        assert (res_p, res_d, gap) == (sol.res_primal, sol.res_dual, sol.gap)
        # checks come at most CHECK_EVERY apart, and each one before the last failed
        checks = [h[0] for h in sol.history]
        assert checks[0] <= conic.CHECK_EVERY
        assert max(np.diff(checks), default=0) <= conic.CHECK_EVERY
        for _, rp, rd, g in sol.history[:-1]:
            assert max(rp / 1e-8, rd / 1e-8, g / 1e-8) > 1.0


def test_bad_solver_arguments_are_rejected_by_name(monkeypatch):
    prog = eigenvalue_program(np.eye(2))
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            conic.solve(prog, tol=bad)
    monkeypatch.setattr(conic, "MAX_ITER", 1)
    assert conic.solve(prog).iterations == 1


def _multi_size_program(gen, sizes):
    """Minimize s subject to s*I - h_l >= 0 for one random h_l per block size."""
    hs = [random_hermitian(gen, q) for q in sizes]
    blocks = []
    for h in hs:
        builder = conic.BlockBuilder(h.shape[0], 1)
        builder.add_constant(-h)
        builder.add_scalar_identity(0, h.shape[0], 0)
        blocks.append(builder.build())
    return conic.ConicProgram(objective=np.array([1.0]), psd_blocks=blocks), hs


def test_projection_matches_per_block_reference_bitwise():
    # One segment with blocks of sizes 1, 2, 2, 3 and 5, in that order.
    gen = make_generator(40)
    sizes = [1, 2, 2, 3, 5]
    seg = np.concatenate([conic.svec(random_hermitian(gen, q)) for q in sizes])
    want, off = [], 0
    for q in sizes:
        w, v = np.linalg.eigh(conic.unsvec(seg[off:off + q * q], q))
        w = np.clip(w, 0.0, None)
        want.append(conic.svec((v * w[None, :]) @ v.conj().T))
        off += q * q
    got = seg.copy()
    conic._psd_projector(sizes)(got)
    assert got.tobytes() == np.concatenate(want).tobytes()


def test_multi_size_solve_is_repeatable_across_map_rebuilds():
    gen = make_generator(41)
    prog, hs = _multi_size_program(gen, [3, 1, 2, 5, 2])
    s1 = conic.solve(prog)
    conic._svec_map.cache_clear()
    s2 = conic.solve(prog)
    assert s1.status == s2.status == "optimal"
    assert s1.iterations == s2.iterations
    assert s1.y.tobytes() == s2.y.tobytes()
    top = max(float(np.linalg.eigvalsh(h)[-1]) for h in hs)
    assert s1.primal_value == pytest.approx(top, abs=1e-7)


def test_setup_reuse_is_exact_and_bounded(monkeypatch):
    # P and Q share every block's linear part and differ only in F0.
    gen = make_generator(42)
    prog_p, _ = _multi_size_program(gen, [3, 2, 2])
    prog_q, _ = _multi_size_program(gen, [3, 2, 2])
    assert conic._structure_key(prog_p) == conic._structure_key(prog_q)
    solo = [conic.solve(p) for p in (prog_p, prog_q)]
    built, build = [], conic._build_setup

    def counted(program):
        built.append(build(program))
        return built[-1]

    monkeypatch.setattr(conic, "_build_setup", counted)
    batch = conic.solve_all([prog_p, prog_q, prog_p])
    assert len(built) == 1
    for got, want in zip(batch, solo + solo[:1]):
        assert got.status == "optimal"
        _assert_same_solution(got, want)
    # the chunks of a group share the setup, so nothing in it can be written
    setup = built[0]
    for arr in (setup.a.data, setup.at.indices, setup.d_row, setup.e_col,
                setup.gram.d0_inv, setup.gram.r.data, setup.gram.rt.indices, setup.gram.c_inv):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # one setup per structure per call, however the group is chunked
    programs = _three_structure_programs()
    first = conic.solve_all(programs)
    assert len(built) == 1 + 3
    for got, want in zip(conic.solve_all(programs), first):
        _assert_same_solution(got, want)
    assert len(built) == 1 + 3 + 3
    monkeypatch.setattr(conic, "BATCH_BYTES", 1)  # every chunk holds one program
    for got, want in zip(conic.solve_all(programs), first):
        _assert_same_solution(got, want)
    assert len(built) == 1 + 3 + 3 + 3


def _choi(u):
    # the Choi program of u alone, every domain block live
    dn, cn = u.domain.block_dims, u.codomain.block_dims
    x_choi = _choi_data(u)
    xs = {key: np.array([[x_choi[p] for p in pairs]]) for key, pairs in _pair_shapes(dn, cn).items()}
    return _choi_programs(dn, cn, tuple(range(len(dn))), xs)[0][0]


def _direct_sum_map(gen):
    # domain block i of M_2 + M_1 goes into codomain block i of M_3 + M_2
    domain, codomain = AlgebraShape((2, 1)), AlgebraShape((3, 2))
    images = []
    for i, n_i in enumerate(domain.block_dims):
        for _ in range(n_i * n_i):
            blocks = [np.zeros((c, c), dtype=np.complex128) for c in codomain.block_dims]
            blocks[i] = random_ginibre(gen, codomain.block_dims[i], codomain.block_dims[i])
            images.append(element(codomain, blocks))
    return LinearMapRep(domain, codomain, images)


def _every_row_couples():
    # rows P - Q and P + Q: every row has two nonzeros and shares both columns
    q = 3
    blocks = []
    for sign in (-1.0, 1.0):
        builder = conic.BlockBuilder(q, 2 * q * q)
        builder.add_constant(np.eye(q))
        builder.add_hermitian_var(0, q, 0)
        builder.add_hermitian_var(q * q, q, 0, sign)
        blocks.append(builder.build())
    return conic.ConicProgram(objective=np.ones(2 * q * q), psd_blocks=blocks)


def _dense(mat):
    out = np.zeros(mat.shape)
    out[mat.row_of, mat.indices] = mat.data
    return out


# program, and the rows of the dense block of C^-1: 2 * sum(c_t) for a Choi program
_GRAM_CASES = {
    "linf_12x8": (lambda gen: _choi(map_from_linf(
        [element(matrix_algebra(8), [x]) for x in random_matrix_tuple(gen, 12, 8)])), 2 * 8),
    "matrix_domain_m4": (lambda gen: _choi(_random_map(gen, 4)), 2 * 4),
    "direct_sum": (lambda gen: _choi(_direct_sum_map(gen)), 2 * (3 + 2)),
    "eigenvalue": (lambda gen: eigenvalue_program(random_hermitian(gen, 5)), 0),
    "every_row_couples": (lambda gen: _every_row_couples(), 2 * 3 * 3),
}


@pytest.mark.parametrize("case", sorted(_GRAM_CASES))
def test_gram_solve_matches_dense_algebra(case):
    build, coupled = _GRAM_CASES[case]
    gen = make_generator(44)
    setup = conic._build_setup(build(gen))
    a = _dense(setup.a)
    m = a.shape[1]
    rhs = gen.standard_normal(m)
    want = np.linalg.solve(np.eye(m) + a.T @ a, rhs)
    got = setup.gram.solve(rhs)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert setup.gram.c_inv.shape == (coupled, coupled)
    # R holds the rows of A with several nonzeros, and no others
    several = np.diff(setup.a.indptr) > 1
    assert setup.gram.r.shape == (int(several.sum()), m)
    assert setup.gram.r.nnz == int(np.diff(setup.a.indptr)[several].sum())


def test_anderson_solve_refuses_a_gram_that_is_not_positive_definite():
    # None makes the solver clear its Anderson memory
    assert conic._spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2)) is None
    assert conic._spd_solve(np.ones((2, 2)), np.ones(2)) is None  # singular
    lhs = np.array([[4.0, 1.0], [1.0, 3.0]])
    assert np.allclose(lhs @ conic._spd_solve(lhs, np.ones(2)), np.ones(2), rtol=0, atol=1e-15)


def test_solver_determinism_multi_block():
    # Several PSD blocks of different sizes, so the sparse assembly, the
    # per-block Ruiz scalars and the grouped projection all take part.
    iterations = []
    for xs in (random_matrix_tuple(make_generator(38), 6, 4),
               random_matrix_tuple(make_generator(0, stream=1000), 12, 8)):
        c1 = dec_norm_linf(xs)
        c2 = dec_norm_linf(xs)
        assert len(c1.solver.dual_psd) > 1
        assert c1.solver.iterations == c2.solver.iterations
        assert c1.solver.y.tobytes() == c2.solver.y.tobytes()
        assert [z.tobytes() for z in c1.solver.dual_psd] == [z.tobytes() for z in c2.solver.dual_psd]
        assert c1.solver.history == c2.solver.history
        sol = c1.solver
        assert sol.history[-1] == (sol.iterations, sol.res_primal, sol.res_dual, sol.gap)
        assert c1.solver.primal_value == c2.solver.primal_value
        assert c1.solver.dual_value == c2.solver.dual_value
        assert c1.value == c2.value
        iterations.append(sol.iterations)
    # over a hundred iterations, so many extrapolated steps are taken
    assert max(iterations) > 4 * 25


def test_large_program_memory_stays_sparse(traced):
    # At 16x10 a dense constraint matrix alone would take 169 MB.
    xs = random_matrix_tuple(make_generator(39), 16, 10)
    cert, peak = traced(dec_norm_linf, xs)
    assert cert.solver.status == "optimal"
    assert not cert.flagged
    assert peak < 40e6, f"traced peak {peak / 1e6:.1f} MB"


def test_tensor_submult_corpus_tail_converges_quickly():
    # Instance 1 of the quick corpus check ineq_tensor_submult at seed 5:
    # dec(u (x) v) on M_4 took 83,525 plain ADMM iterations.
    gen = make_generator(5, stream=111)
    pairs = [(_random_map(gen, 2, scale=0.6), _random_map(gen, 2, scale=0.6)) for _ in range(2)]
    u, v = pairs[1]
    sol = dec_norms([tensor(u, v)])[0].solver
    assert sol.status == "optimal"
    assert sol.iterations <= 3000


def test_extrapolation_never_collapses_tau():
    # The 9th solver_eigenvalue program of the quick corpus at seed 5 (one
    # variable, one 10x10 block).  Extrapolation proposes points here whose
    # tau is below half the plain iterate's, and the guard must drop them.
    gen = make_generator(5, stream=101)
    h = [random_hermitian(gen, q) for q in range(2, 11)][-1]
    prog = eigenvalue_program(h)
    sol = conic.solve(prog, tol=1e-9)
    assert sol.status == "optimal"
    assert sol.primal_value == pytest.approx(float(np.linalg.eigvalsh(h)[-1]), abs=1e-7)
    rep = conic.verify_certificate(prog, sol)
    assert rep.clean, rep.discrepancies


def _assert_same_solution(got, want):
    """Every field but the wall time agrees bit for bit, NaN fields included."""
    assert (got.status, got.message, got.iterations) == (want.status, want.message, want.iterations)
    for name in ("primal_value", "dual_value", "psd_residual", "gap", "res_primal", "res_dual"):
        assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(want, name)).tobytes()
    assert got.y.tobytes() == want.y.tobytes()
    assert [z.tobytes() for z in got.dual_psd] == [z.tobytes() for z in want.dual_psd]
    assert got.history == want.history


def _scalar_program(f0, c, sign=None):
    """Minimize c * y subject to the 1x1 block f0 + sign * y >= 0 (y absent without sign)."""
    builder = conic.BlockBuilder(1, 1)
    builder.add_constant(np.array([[f0]]))
    if sign is not None:
        builder.add_scalar_identity(0, 1, 0, sign)
    return conic.ConicProgram(objective=np.array([c]), psd_blocks=[builder.build()])


def _linf_choi(seed, n=6, d=4):
    return _choi(map_from_linf([element(matrix_algebra(d), [x])
                                for x in random_matrix_tuple(make_generator(seed), n, d)]))


def test_iteration_cap_is_the_last_check_lone_and_stacked(monkeypatch):
    monkeypatch.setattr(conic, "MAX_ITER", 25)
    programs = [_linf_choi(seed) for seed in (38, 39, 40)]
    setup = conic._build_setup(programs[0])
    assert conic.BATCH_BYTES // conic._state_bytes(setup) >= max(len(programs), conic.LOCKSTEP_MIN)
    for program, sol in zip(programs, conic.solve_all(programs)):
        assert sol.status == "max_iterations" and sol.iterations == 25
        assert sol.history[-1][0] == 25
        _assert_same_solution(sol, conic.solve(program))


@pytest.mark.parametrize("case", sorted(_GRAM_CASES))
def test_state_bytes_cover_what_a_lockstep_holds(case, monkeypatch):
    # the arrays a run holds after a few steps, per program: stacked rows,
    # Anderson memory, scratch, projection buffers and stacked CSR indices
    program = _GRAM_CASES[case][0](make_generator(44))
    setup = conic._build_setup(program)
    monkeypatch.setattr(conic, "MAX_ITER", 3)

    def held(n):
        tracemalloc.start()
        try:
            run = conic._Lockstep(setup, [program] * n, [None] * n, 1e-8)
            run.run()
            assert run.ids.size == n
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    per_program = (held(6) - held(2)) / 4
    assert per_program <= conic._state_bytes(setup) <= 1.5 * per_program


def test_batch_gives_each_program_its_own_outcome(monkeypatch):
    capped = _choi(map_from_linf([element(matrix_algebra(4), [x])
                                  for x in random_matrix_tuple(make_generator(38), 6, 4)]))
    programs = [
        _scalar_program(-1.0, 0.0),  # -1 >= 0: infeasible
        capped,  # needs more than 30 iterations
        _scalar_program(0.0, -1.0, 1.0),  # minimize -y subject to y >= 0: unbounded
        eigenvalue_program(random_hermitian(make_generator(50), 2)),
    ]
    monkeypatch.setattr(conic, "MAX_ITER", 30)
    batch = conic.solve_all(programs)
    assert [sol.status for sol in batch] == [
        "infeasible_suspected", "max_iterations", "infeasible_suspected", "optimal"]
    assert "primal infeasibility" in batch[0].message and "unbounded" in batch[2].message
    assert np.isnan(batch[0].primal_value) and np.all(np.isnan(batch[2].y))
    for program, sol in zip(programs, batch):
        _assert_same_solution(sol, conic.solve(program))


def _interval_program(lo, hi, c):
    """Minimize c * y subject to y - lo >= 0 and hi - y >= 0, two 1x1 blocks."""
    blocks = []
    for f0, sign in ((-lo, 1.0), (hi, -1.0)):
        builder = conic.BlockBuilder(1, 1)
        builder.add_constant(np.array([[f0]]))
        builder.add_scalar_identity(0, 1, 0, sign)
        blocks.append(builder.build())
    return conic.ConicProgram(objective=np.array([c]), psd_blocks=blocks)


def test_stacked_rows_stop_on_their_own_outcomes():
    # one constraint structure, so one stacked chunk: empty intervals are
    # infeasible and stop at a tau-collapse check while the others go on
    programs = [_interval_program(lo, hi, c) for lo, hi, c in
                ((0.0, 1.0, 1.0), (0.0, -1.0, 1.0), (-2.0, 3.0, -1.0), (1.0, 0.5, -1.0),
                 (0.5, 4.0, 2.0))]
    assert len({conic._structure_key(p) for p in programs}) == 1
    batch = conic.solve_all(programs)
    assert [sol.status for sol in batch] == [
        "optimal", "infeasible_suspected", "optimal", "infeasible_suspected", "optimal"]
    for program, sol in zip(programs, batch):
        _assert_same_solution(sol, conic.solve(program))


def test_solve_all_of_nothing_is_empty():
    assert conic.solve_all([]) == []


def test_bad_tolerance_is_rejected_before_any_setup(monkeypatch):
    def no_setup(program):
        raise AssertionError("setup built before the arguments were checked")

    monkeypatch.setattr(conic, "_build_setup", no_setup)
    prog = eigenvalue_program(np.eye(2))
    for bad in (0.0, -1e-8):
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            conic.solve_all([prog], tol=bad)


def _three_structure_programs() -> list:
    """20 programs of three structures, interleaved: matrix-domain Choi
    programs on M_2, 3-tuples in M_2 and eigenvalue programs of size 4."""
    gen = make_generator(60)
    programs = []
    for i in range(20):
        if i % 5 in (0, 3):
            programs.append(_choi(_random_map(gen, 2, scale=0.7)))
        elif i % 5 in (1, 4):
            programs.append(_choi(map_from_linf([element(matrix_algebra(2), [x])
                                                 for x in random_matrix_tuple(gen, 3, 2)])))
        else:
            programs.append(eigenvalue_program(random_hermitian(gen, 4)))
    return programs


def test_lockstep_solutions_are_the_solo_solutions_bitwise(monkeypatch):
    programs = _three_structure_programs()
    assert len({conic._structure_key(p) for p in programs}) == 3
    solo = [conic.solve(p) for p in programs]
    assert all(sol.status == "optimal" for sol in solo)
    assert len({sol.iterations for sol in solo}) > 3  # rows leave the batch at different checks
    for batch in (conic.solve_all(programs), conic.solve_all(programs[::-1])[::-1]):
        for got, want in zip(batch, solo):
            _assert_same_solution(got, want)
    monkeypatch.setattr(conic, "BATCH_BYTES", 1)  # every chunk holds one program
    for got, want in zip(conic.solve_all(programs), solo):
        _assert_same_solution(got, want)


def test_batch_failure_names_the_program_by_position(monkeypatch):
    finish = conic._Lockstep.finish

    def lose_last_point(self, j):
        if j == len(self.programs) - 1:
            self.best_point[j] = None
        return finish(self, j)

    monkeypatch.setattr(conic._Lockstep, "finish", lose_last_point)
    programs = [eigenvalue_program(random_hermitian(make_generator(70 + i), 2)) for i in range(2)]
    with pytest.raises(conic.SolverError, match="^program 1: no usable iterate") as err:
        conic.solve_all(programs)
    assert (err.value.index, err.value.reason.startswith("no usable iterate")) == (1, True)
    with pytest.raises(conic.SolverError, match="^no usable iterate") as err:
        conic.solve(programs[0])
    assert err.value.index is None


_POOL = _three_structure_programs()[:12]


@functools.lru_cache(maxsize=None)
def _pool_solutions():
    return [conic.solve(p) for p in _POOL]


@settings(max_examples=6)
@given(order=st.permutations(range(len(_POOL))), budget=st.sampled_from(["one", "few", "default"]))
def test_any_order_and_chunking_gives_the_solo_solutions(order, budget):
    # "few" lets LOCKSTEP_MIN programs of the largest structure share a chunk
    few = conic.LOCKSTEP_MIN * max(conic._state_bytes(conic._build_setup(p)) for p in _POOL)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conic, "BATCH_BYTES", {"one": 1, "few": few, "default": conic.BATCH_BYTES}[budget])
        batch = conic.solve_all([_POOL[i] for i in order])
    for i, sol in zip(order, batch):
        _assert_same_solution(sol, _pool_solutions()[i])
