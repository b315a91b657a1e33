"""Tests for the instance generators and the independent grid oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import decnorms

from decnorms import testkit
from decnorms.algebra import AlgebraShape, is_positive
from decnorms.cbnorm import evaluate_tensor_norm, seesaw_min_norm
from decnorms.decomposable import dec_norm_linf
from decnorms.maps import is_cp, is_unital


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
    g = testkit.random_element(gen, AlgebraShape((2, 3)))
    assert is_positive(g * g.adjoint())
    assert not is_positive(g)


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
    assert got == pytest.approx(float(np.abs(vals).sum()), rel=1e-15)

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


def _scipy_polish(fun, starts, shrinks):
    """The polish one start after another through scipy's Nelder-Mead.

    Appends to ``shrinks`` whether each start took a shrink step: a step
    without one makes at most two evaluations, one with one makes 2 + N.
    """
    mins = []
    for p in starts:
        res = scipy.optimize.minimize(
            lambda x: float(fun(x[None, :])[0]), p, method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
        )
        shrinks.append(res.nfev - (p.size + 1) > 2 * (res.nit - 1))
        mins.append(res.fun)
    return np.array(mins)


def test_lockstep_polish_matches_scipy_bit_for_bit(monkeypatch):
    # every start's minimum and the oracle's value equal those of the
    # sequential scipy polish, on tuples whose polish takes shrink steps
    lockstep = testkit._polish_lockstep
    shrinks = []

    def reference(fun, starts):
        want = _scipy_polish(fun, starts, shrinks)
        got = lockstep(fun, starts)
        assert got.tobytes() == want.tobytes()
        return want

    gen = testkit.make_generator(107)
    for n in (2, 2, 3):
        xs = testkit.random_matrix_tuple(gen, n, 2)
        got = testkit.grid_oracle_min_norm(xs)
        with monkeypatch.context() as m:
            m.setattr(testkit, "_polish_lockstep", reference)
            want = testkit.grid_oracle_min_norm(xs)
        assert got.hex() == want.hex()
    assert any(shrinks)


def test_grid_oracle_is_bitwise_independent_of_the_chunk_size(monkeypatch):
    gen = testkit.make_generator(108)
    for n in (2, 3):
        xs = testkit.random_matrix_tuple(gen, n, 2)
        runs = []
        for budget in (1, 100_001, 1 << 40):  # one point at a time, uneven chunks, all at once
            monkeypatch.setattr(testkit, "GRID_BYTES", budget)
            runs.append(testkit.grid_oracle_min_norm(xs).hex())
        assert runs[1:] == runs[:1] * 2


def test_grid_oracle_memory_is_chunked(traced):
    # built whole, the (3, 2) grid of 7,776 points and its random layer
    # traced 5.3 MB; chunked within the 2 MiB budget, 1.8 MB
    xs = testkit.random_matrix_tuple(testkit.make_generator(109), 3, 2)
    _, peak = traced(testkit.grid_oracle_min_norm, xs)
    assert peak < 3e6, f"traced peak {peak / 1e6:.1f} MB"


def _objective_at(angles, xs):
    return testkit._objective_batch(testkit._quotient_families(np.atleast_2d(angles)), xs)


def test_quotient_representative_keeps_the_norm():
    # the oracle's objective at the representative of a tuple's class under
    # u -> V u W, with u_1 = I, is the tensor norm of the tuple itself
    gen = testkit.make_generator(110)
    for _ in range(10):
        xs = testkit.random_matrix_tuple(gen, 3, 2)
        u2, u3 = (testkit.random_haar_unitary(gen, 2) for _ in range(2))
        eye = np.eye(2)

        # n = 2: the norm is the larger of ||x_1 + e^{i theta_l} x_2|| over
        # the eigenphases theta_l of u_2
        want = evaluate_tensor_norm([eye, u2], xs[:2])
        got = _objective_at(np.angle(np.linalg.eigvals(u2))[:, None], xs[:2]).max()
        assert abs(got - want) <= 1e-13 * max(1.0, want)

        # n = 3: diagonalize u_2, then make the (1, 2) entry of u_3's SU(2)
        # factor real with a diagonal conjugation
        t2, z = scipy.linalg.schur(u2, output="complex")
        v = z.conj().T @ u3 @ z
        psi = np.angle(np.linalg.det(v)) / 2
        s = np.exp(-1j * psi) * v
        angles = [*np.angle(np.diag(t2)), psi, np.angle(s[0, 0]),
                  np.arctan2(abs(s[0, 1]), abs(s[0, 0]))]
        want = evaluate_tensor_norm([eye, u2, u3], xs)
        got = _objective_at(angles, xs)[0]
        assert abs(got - want) <= 1e-13 * max(1.0, want)


def test_package_import_leaves_scipy_optimize_unloaded():
    # numpy is the only runtime dependency: no scipy module at all, not only scipy.optimize
    code = (
        "import sys, decnorms, decnorms.cli, decnorms.suite, decnorms.testkit\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded"
    )
    src = str(Path(decnorms.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})


def test_eigenvalue_program_shape():
    gen = testkit.make_generator(106)
    prog = testkit.eigenvalue_program(testkit.random_hermitian(gen, 3))
    assert prog.num_vars == 1
    assert prog.psd_blocks[0].size == 3
