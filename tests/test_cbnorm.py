"""Completely bounded norm tests: see-saw lower bounds vs SDP upper bounds.

The see-saw is validated against a direct kron-assembly oracle, against
closed forms, and against the independent grid search in the test kit; the
upper value's certificate is validated by reconstructing the coefficients
from its factors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decnorms import cbnorm, conic, maps
from decnorms.algebra import matrix_algebra
from decnorms.decomposable import dec_norm_linf, dec_norms
from decnorms.multdomain import multiplicative_domain, verify_bimodularity
from decnorms.testkit import (
    grid_oracle_min_norm,
    make_generator,
    random_ginibre,
    random_haar_unitary,
    random_matrix_tuple,
)


def test_evaluate_tensor_norm_matches_direct_assembly():
    gen = make_generator(60)
    for _ in range(8):
        n = int(gen.integers(1, 4))
        d = int(gen.integers(1, 4))
        k = int(gen.integers(1, 4))
        us = [random_ginibre(gen, k, k) for _ in range(n)]
        xs = [random_ginibre(gen, d, d) for _ in range(n)]
        acc = np.zeros((k * d, k * d), dtype=np.complex128)
        for u, x in zip(us, xs):
            acc += np.kron(u, x)
        assert cbnorm.evaluate_tensor_norm(us, xs) == pytest.approx(
            np.linalg.norm(acc, 2), rel=1e-12)
    with pytest.raises(ValueError):
        cbnorm.evaluate_tensor_norm([np.eye(2)], [np.eye(2), np.eye(2)])


def test_seesaw_objective_is_monotone():
    gen = make_generator(61)
    for _ in range(5):
        xs = random_matrix_tuple(gen, 3, 2)
        saw = cbnorm.seesaw_min_norm(xs, restarts=2, seed=7)
        hist = np.array(saw.objective_history)
        assert np.all(np.diff(hist) >= -1e-9 * max(1.0, hist.max()))
        assert saw.converged
        # the reported value is reproduced by the stored witnesses
        direct = cbnorm.evaluate_tensor_norm(saw.witness_unitaries, xs)
        assert direct == pytest.approx(saw.lower, abs=1e-9)
        for u in saw.witness_unitaries:
            assert np.allclose(u @ u.conj().T, np.eye(saw.aux_dimension), atol=1e-10)


def test_seesaw_exact_on_scalars():
    gen = make_generator(62)
    vals = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    xs = [np.array([[v]]) for v in vals]
    saw = cbnorm.seesaw_min_norm(xs, restarts=1, seed=0)
    assert saw.lower == pytest.approx(float(np.abs(vals).sum()), abs=1e-9)


def test_seesaw_exact_on_unitaries_first_restart():
    # The deterministic restart is built to be optimal for unitary
    # coefficients, so one restart must already reach n.
    gen = make_generator(63)
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        xs = [random_haar_unitary(gen, d) for _ in range(n)]
        saw = cbnorm.seesaw_min_norm(xs, restarts=1, seed=0)
        assert saw.lower == pytest.approx(float(n), abs=1e-8)


def test_seesaw_matches_grid_oracle():
    gen = make_generator(64)
    for n, d in [(2, 1), (3, 1), (2, 2)]:
        for _ in range(3):
            xs = random_matrix_tuple(gen, n, d)
            saw = cbnorm.seesaw_min_norm(xs, restarts=16, seed=5)
            grid = grid_oracle_min_norm(xs)
            assert saw.lower == pytest.approx(grid, abs=1e-3 * max(1.0, grid))


def test_seesaw_input_validation():
    with pytest.raises(ValueError):
        cbnorm.seesaw_min_norm([])
    with pytest.raises(ValueError):
        cbnorm.seesaw_min_norm([np.eye(2)], restarts=0)
    with pytest.raises(ValueError):
        cbnorm.seesaw_min_norm([np.eye(2)], aux_dim=0)
    with pytest.raises(ValueError):
        cbnorm.seesaw_min_norm([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match="max_sweeps"):
        cbnorm.seesaw_min_norm([np.eye(2)], max_sweeps=-1)
    # no sweep: the start values of restart 0
    start = cbnorm.seesaw_min_norm([np.eye(2)], max_sweeps=0)
    assert start.iterations == 0
    assert start.objective_history == [start.lower]


def test_factorization_witnesses_rebuild_coefficients():
    gen = make_generator(65)
    xs = random_matrix_tuple(gen, 3, 2)
    cert = cbnorm.cb_norm_linf(xs, restarts=2, seed=0).certificate
    # witnesses x = y z with y = a*, z = b
    ys = [a.blocks[0].conj().T for a in cert.factor_a]
    zs = [b.blocks[0] for b in cert.factor_b]
    assert cert.reconstruction_residual <= 1e-6
    for x, y, z in zip(xs, ys, zs):
        assert np.linalg.norm(x - y @ z, 2) <= 1e-6
    # Gram bound recomputed from the witnesses matches the reported value
    gy = sum(y @ y.conj().T for y in ys)
    gz = sum(z.conj().T @ z for z in zs)
    bound = float(np.sqrt(np.linalg.norm(gy, 2) * np.linalg.norm(gz, 2)))
    assert bound == pytest.approx(cert.factor_bound, rel=1e-12)
    assert cert.factor_bound == pytest.approx(cert.value, abs=1e-6 * max(1.0, cert.value))


def test_bracket_is_sound_and_closes():
    gen = make_generator(66)
    for _ in range(6):
        n = int(gen.integers(2, 4))
        xs = random_matrix_tuple(gen, n, 2)
        agg = cbnorm.cb_norm_linf(xs, restarts=16, seed=3)
        assert agg.lower <= agg.upper + 1e-9 * max(1.0, agg.upper)
        assert agg.verdict == "agree"
        assert agg.gap <= 5e-4


def test_pinning_the_first_unitary_loses_nothing():
    # Left-multiplying every unitary by w_0* is an isometry of the
    # objective, so fixing u_0 = 1 reaches the same supremum.
    gen = make_generator(67)
    for _ in range(3):
        xs = random_matrix_tuple(gen, 3, 2)
        free = cbnorm.seesaw_min_norm(xs, restarts=16, seed=9)
        pinned = cbnorm.seesaw_min_norm(xs, restarts=16, seed=9, pin_first=True)
        assert pinned.lower == pytest.approx(free.lower, abs=1e-5 * max(1.0, free.lower))
        assert np.array_equal(pinned.witness_unitaries[0], np.eye(pinned.aux_dimension))


def test_cb_norm_scalar_closed_form():
    agg = cbnorm.cb_norm_linf([np.array([[2.0]]), np.array([[-1.0]]), np.array([[2j]])],
                              restarts=4, seed=0, tol=1e-10)
    assert agg.upper == pytest.approx(5.0, abs=1e-8)
    assert agg.lower == pytest.approx(5.0, abs=1e-8)


def test_cb_norm_unitary_closed_form():
    gen = make_generator(68)
    xs = [random_haar_unitary(gen, 2) for _ in range(3)]
    agg = cbnorm.cb_norm_linf(xs, restarts=4, seed=0, tol=1e-10)
    assert agg.upper == pytest.approx(3.0, abs=1e-7)
    assert agg.lower == pytest.approx(3.0, abs=1e-7)


def test_cb_le_dec_always():
    # the lower bracket end never exceeds the decomposable value
    from decnorms.decomposable import dec_norm_linf

    gen = make_generator(69)
    for _ in range(4):
        xs = random_matrix_tuple(gen, 2, 3)
        agg = cbnorm.cb_norm_linf(xs, restarts=8, seed=1)
        dec = dec_norm_linf(xs).value
        assert agg.lower <= dec + 1e-6 * max(1.0, dec)


def test_aux_dim_override_and_escalation():
    gen = make_generator(70)
    xs = random_matrix_tuple(gen, 2, 2)
    agg = cbnorm.cb_norm_linf(xs, restarts=8, seed=2, aux_dim=3)
    assert agg.seesaw.aux_dimension in (3, 6)
    frozen = cbnorm.seesaw_min_norm(xs, aux_dim=1, restarts=1, seed=2, max_sweeps=1)
    assert frozen.lower <= agg.upper + 1e-9


def _oracle_seesaw(xs, k, restarts, seed, max_sweeps, pin_first, tol=1e-11):
    """The see-saw one restart at a time: kron assembly, one polar SVD per
    coefficient, the same starts and stopping rule."""

    def top(us):
        u, s, vh = np.linalg.svd(sum(np.kron(a, x) for a, x in zip(us, xs)))
        return float(s[0]), u[:, 0], vh[0].conj()

    def polar(a):
        u, _, vh = np.linalg.svd(a)
        return u @ vh

    n, d = len(xs), xs[0].shape[0]
    gen = make_generator(seed, stream=k)
    best = None
    for restart in range(restarts):
        if restart == 0:
            us = []
            for x in xs:
                pad = np.eye(k, dtype=np.complex128)
                c = min(k, d)
                pad[:c, :c] = x.conj()[:c, :c]
                us.append(polar(pad))
        else:
            us = [random_haar_unitary(gen, k) for _ in range(n)]
        if pin_first:
            us[0] = np.eye(k, dtype=np.complex128)
        sigma, xi, eta = top(us)
        streak, sweeps, converged = 0, 0, False
        for sweeps in range(1, max_sweeps + 1):
            for i in range(1 if pin_first else 0, n):
                g = xi.reshape(k, d).conj() @ xs[i] @ eta.reshape(k, d).T
                us[i] = polar(g.conj())
            new_sigma, xi, eta = top(us)
            streak = streak + 1 if new_sigma - sigma <= tol * max(1.0, new_sigma) else 0
            sigma = new_sigma
            if streak >= 3:
                converged = True
                break
        if best is None or sigma > best[0]:
            best = (sigma, sweeps, converged)
    return best


@pytest.mark.parametrize("n,d,k", [(1, 1, 1), (3, 2, 2), (2, 3, 2), (2, 2, 4), (4, 3, 3)])
@pytest.mark.parametrize("pin_first", [False, True])
@pytest.mark.parametrize("max_sweeps", [1, 400])
def test_seesaw_matches_one_restart_at_a_time_oracle(n, d, k, pin_first, max_sweeps):
    # k > d, and a pinned pair, leave the pairings rank-deficient, where the
    # polar completion follows the last bits of the assembled tensor
    xs = random_matrix_tuple(make_generator(100 + 10 * n + d), n, d)
    saw = cbnorm.seesaw_min_norm(xs, aux_dim=k, restarts=6, seed=4, max_sweeps=max_sweeps,
                                 pin_first=pin_first)
    lower, iterations, converged = _oracle_seesaw(xs, k, 6, 4, max_sweeps, pin_first)
    assert saw.lower == pytest.approx(lower, rel=1e-12)
    assert saw.iterations == iterations
    assert saw.converged == converged


def test_seesaw_svd_calls_do_not_grow_with_restarts(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    xs = random_matrix_tuple(make_generator(71), 5, 2)
    cbnorm.seesaw_min_norm(xs, restarts=12, seed=0, max_sweeps=4)
    # one start and, per sweep, one polar and one top-pair call for the chunk
    assert len(calls) <= 2 * (4 + 1)


def test_seesaw_memory_is_chunked(traced):
    # One restart of this 4x16 tuple at k=16 holds about 4 MB (four 256x256
    # matrices: the running sum, the product u_i (x) x_i being added and the
    # two unitary factors of the sum's SVD); all 32 restarts at once would
    # hold 32 times that.
    xs = random_matrix_tuple(make_generator(72), 4, 16)
    _, peak = traced(cbnorm.seesaw_min_norm, xs, aux_dim=16, restarts=32, seed=1, max_sweeps=1)
    assert peak < 12e6


def test_seesaw_restart_above_the_budget_holds_one_product(traced):
    # One restart of this 32x16 tuple at k=16 exceeds SWEEP_BYTES; built
    # whole, its 32 products u_i (x) x_i alone would take 33.6 MB.
    xs = random_matrix_tuple(make_generator(74), 32, 16)
    saw, peak = traced(cbnorm.seesaw_min_norm, xs, aux_dim=16, restarts=2, seed=3, max_sweeps=3)
    assert peak < 10e6, f"traced peak {peak / 1e6:.1f} MB"
    lower, iterations, converged = _oracle_seesaw(xs, 16, 2, 3, 3, False)
    assert saw.lower == pytest.approx(lower, rel=1e-12)
    assert saw.iterations == iterations
    assert saw.converged == converged


@pytest.mark.parametrize("pin_first", [False, True])
def test_seesaw_is_bitwise_independent_of_the_chunk_split(monkeypatch, pin_first):
    xs = random_matrix_tuple(make_generator(73), 3, 2)
    per_restart = 16 * (4 * (4 * 2) ** 2 + 6 * 3 * 4 ** 2)
    runs = []
    for chunk in (1, 3, 7):  # 7 restarts: one at a time, uneven chunks, all at once
        monkeypatch.setattr(cbnorm, "SWEEP_BYTES", chunk * per_restart)
        runs.append(cbnorm.seesaw_min_norm(xs, aux_dim=4, restarts=7, seed=2,
                                           pin_first=pin_first))
    first = runs[0]
    for other in runs[1:]:
        assert other.lower == first.lower
        assert other.iterations == first.iterations
        assert other.converged == first.converged
        assert other.objective_history == first.objective_history
        assert all(np.array_equal(a, b)
                   for a, b in zip(other.witness_unitaries, first.witness_unitaries))
        assert all(np.array_equal(a, b)
                   for a, b in zip(other.witness_vectors, first.witness_vectors))


def test_given_certificate_replaces_the_sdp(monkeypatch):
    xs = random_matrix_tuple(make_generator(57), 3, 2)
    alone = cbnorm.cb_norm_linf(xs, restarts=4, seed=3)

    def no_solve(*args, **kwargs):
        raise AssertionError("the SDP was solved again")

    monkeypatch.setattr(cbnorm, "dec_norm_linf", no_solve)
    given = cbnorm.cb_norm_linf(xs, restarts=4, seed=3, certificate=alone.certificate)
    assert (given.upper, given.lower, given.verdict) == (alone.upper, alone.lower, alone.verdict)
    assert given.certificate is alone.certificate


def test_certificate_of_other_coefficients_is_rejected(monkeypatch):
    gen = make_generator(0)
    other = dec_norm_linf(random_matrix_tuple(gen, 3, 2))
    xs = random_matrix_tuple(gen, 3, 2)
    longer = random_matrix_tuple(gen, 4, 2)
    # the identity on M_2 has a certificate of another kind for its own images
    u = maps.identity_map(matrix_algebra(2))
    images = [img.blocks[0] for img in u.images]
    (map_cert,) = dec_norms([u])

    def no_seesaw(*args, **kwargs):
        raise AssertionError("the see-saw ran on a foreign certificate")

    monkeypatch.setattr(cbnorm, "seesaw_min_norm", no_seesaw)
    for coeffs, cert in ((xs, other), (longer, other), (images, map_cert)):
        with pytest.raises(ValueError, match="certificate"):
            cbnorm.cb_norm_linf(coeffs, certificate=cert)


# one out-of-range argument of the bracket routines, as (name, value)
BAD_BRACKET_ARGUMENT = st.one_of(
    st.tuples(st.just("agree_tol"),
              st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan])),
    st.tuples(st.just("seed"), st.integers(max_value=-1)),
    st.tuples(st.just("restarts"), st.integers(max_value=0)),
    st.tuples(st.just("aux_dim"), st.integers(max_value=0)),
)


@given(route=st.sampled_from([cbnorm.cb_norm_linf, cbnorm.min_norm]), bad=BAD_BRACKET_ARGUMENT)
def test_bracket_rejects_a_bad_argument_before_any_solve(route, bad):
    name, value = bad

    def no_solve(*args, **kwargs):
        raise AssertionError(f"solved an SDP with {name}={value!r}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conic, "solve_all", no_solve)
        with pytest.raises(ValueError, match=f"^{name} must be "):
            route([np.eye(2), np.diag([1.0, -1.0])], **{name: value})


def test_negative_seed_is_named_by_every_seeded_routine():
    message = "^seed must be a non-negative integer, got -1$"
    u = maps.identity_map(matrix_algebra(2))
    domain = multiplicative_domain(u)
    for call in (lambda: make_generator(-1),
                 lambda: cbnorm.seesaw_min_norm([np.eye(2)], seed=-1),
                 lambda: verify_bimodularity(u, domain, seed=-1)):
        with pytest.raises(ValueError, match=message):
            call()
