"""Matrix kernel tests against dense numpy oracles."""

import numpy as np
import pytest

from decnorms import linalg
from decnorms.testkit import make_generator, random_ginibre, random_haar_unitary, random_hermitian


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_symmetrize_accepts_hermitian_rejects_skew():
    gen = make_generator(1)
    h = random_hermitian(gen, 4)
    out = linalg.symmetrize(h + 1e-14 * random_ginibre(gen, 4, 4))
    assert np.allclose(out, out.conj().T)
    with pytest.raises(ValueError):
        linalg.symmetrize(h + 0.1 * 1j * np.eye(4) @ random_ginibre(gen, 4, 4))


def test_herm_eigensystem_matches_numpy():
    gen = make_generator(2)
    for _ in range(20):
        d = int(gen.integers(2, 8))
        h = random_hermitian(gen, d)
        w, v = linalg.herm_eigensystem(h)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose((v * w) @ v.conj().T, h, atol=1e-12)
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), w, atol=1e-12)


def test_operator_and_frobenius_norms():
    gen = make_generator(3)
    for _ in range(20):
        a = random_ginibre(gen, int(gen.integers(1, 6)), int(gen.integers(1, 6)))
        assert linalg.operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
        assert linalg.frobenius_norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-12)


def test_psd_check():
    gen = make_generator(4)
    g = random_ginibre(gen, 4, 4)
    ok, mineig = linalg.psd_check(g @ g.conj().T)
    assert ok and mineig >= -1e-12
    bad, mineig2 = linalg.psd_check(random_hermitian(gen, 4) - 10 * np.eye(4))
    assert not bad and mineig2 < -1.0
    with pytest.raises(ValueError):
        linalg.psd_check(g + np.eye(4))


def test_polar_unitary_is_optimal_rotation():
    # The unitary polar factor maximizes Re tr(w* a) over all unitaries.
    gen = make_generator(5)
    for _ in range(10):
        d = int(gen.integers(2, 5))
        a = random_ginibre(gen, d, d)
        w = linalg.polar_unitary(a)
        assert np.allclose(w @ w.conj().T, np.eye(d), atol=1e-12)
        best = np.real(np.trace(w.conj().T @ a))
        assert best == pytest.approx(np.linalg.svd(a, compute_uv=False).sum(), rel=1e-12)
        for _ in range(8):
            u = random_haar_unitary(gen, d)
            assert np.real(np.trace(u.conj().T @ a)) <= best + 1e-10


def test_psd_sqrt_and_pinv_sqrt():
    gen = make_generator(6)
    for _ in range(10):
        d = int(gen.integers(2, 6))
        g = random_ginibre(gen, d, d - 1 if d > 2 else d)
        p = g @ g.conj().T
        r, rinv = linalg.psd_roots(p)
        assert np.allclose(r @ r, p, atol=1e-10)
        proj = rinv @ p @ rinv
        # rinv is the square root of the pseudoinverse: sandwiching gives
        # the orthogonal projector onto the range.
        assert np.allclose(proj @ proj, proj, atol=1e-8)
        assert np.allclose(proj @ p, p, atol=1e-8)


def test_top_singular_triple():
    gen = make_generator(7)
    for _ in range(10):
        a = random_ginibre(gen, int(gen.integers(2, 7)), int(gen.integers(2, 7)))
        sigma, left, right = linalg.top_singular_triple(a)
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
        assert np.allclose(a @ right, sigma * left, atol=1e-10)
        assert np.linalg.norm(left) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(right) == pytest.approx(1.0, abs=1e-12)
