"""Completely bounded norm tests: see-saw lower bounds vs SDP upper bounds.

The see-saw is validated against a direct kron-assembly oracle, against
closed forms, and against the independent grid search in the test kit; the
upper value's certificate is validated by reconstructing the coefficients
from its factors.
"""

import numpy as np
import pytest

from decnorms import cbnorm
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
                              restarts=4, seed=0, gap_tol=1e-10, feas_tol=1e-10)
    assert agg.upper == pytest.approx(5.0, abs=1e-8)
    assert agg.lower == pytest.approx(5.0, abs=1e-8)


def test_cb_norm_unitary_closed_form():
    gen = make_generator(68)
    xs = [random_haar_unitary(gen, 2) for _ in range(3)]
    agg = cbnorm.cb_norm_linf(xs, restarts=4, seed=0, gap_tol=1e-10, feas_tol=1e-10)
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
