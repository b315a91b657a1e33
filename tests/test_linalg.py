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
    with pytest.raises(ValueError, match="NaN or Inf"):
        linalg.as_matrix(np.array([[1.0, complex(0.0, np.nan)], [0.0, 1.0]]))


def test_symmetrize_accepts_hermitian_rejects_skew():
    gen = make_generator(1)
    h = random_hermitian(gen, 4)
    out = linalg.symmetrize(h + 1e-14 * random_ginibre(gen, 4, 4))
    assert np.allclose(out, out.conj().T)
    with pytest.raises(ValueError):
        linalg.symmetrize(h + 0.1 * 1j * np.eye(4) @ random_ginibre(gen, 4, 4))


def test_symmetrize_defect_between_operator_and_frobenius_bounds(monkeypatch):
    # m = h + i*eps*1 has defect 2i*eps*1: operator norm 2*eps, Frobenius
    # norm 4*eps.  A defect between the two bounds gets the exact test and
    # passes; one above both raises with the exact defect in the message.
    h = np.diag([0.5, 0.2, -0.3, 0.1]).astype(complex)
    rtol = linalg.HERMITIAN_RTOL
    assert np.array_equal(linalg.symmetrize(h + 0.4j * rtol * np.eye(4)), h)
    with pytest.raises(ValueError, match="defect 2.000e-12 exceeds 1.0e-12"):
        linalg.symmetrize(h + 1j * rtol * np.eye(4))

    # a Frobenius defect within rtol passes without an SVD
    def no_svd(a):
        raise AssertionError("operator_norm called")

    monkeypatch.setattr(linalg, "operator_norm", no_svd)
    assert np.array_equal(linalg.symmetrize(h + 0.2j * rtol * np.eye(4)), h)


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


def test_psd_check():
    # a PSD decision reads the smallest eigenvalue of the eigensystem, and
    # a non-Hermitian input raises rather than being symmetrized
    gen = make_generator(4)
    g = random_ginibre(gen, 4, 4)
    w, _ = linalg.herm_eigensystem(g @ g.conj().T)
    assert w[0] >= -1e-12
    w2, _ = linalg.herm_eigensystem(random_hermitian(gen, 4) - 10 * np.eye(4))
    assert w2[0] < -1.0
    with pytest.raises(ValueError):
        linalg.herm_eigensystem(g + np.eye(4))


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
    # a stack gets one factor per matrix, each the one it gets on its own
    stack = np.stack([random_ginibre(gen, 3, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
    ws = linalg.polar_unitary(stack)
    assert ws.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(ws[idx], linalg.polar_unitary(stack[idx]))
    with pytest.raises(ValueError):
        linalg.polar_unitary(np.zeros((2, 3, 4)))
    stack[1, 2, 0, 0] = np.nan
    with pytest.raises(ValueError):
        linalg.polar_unitary(stack)


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
    # a stack gets the roots of each matrix, each with the bits it gets alone
    gs = [random_ginibre(gen, 3, 2) for _ in range(4)]
    stack = np.stack([g @ g.conj().T for g in gs]).reshape(2, 2, 3, 3)
    roots, invs = linalg.psd_roots(stack)
    for idx in np.ndindex(2, 2):
        r, rinv = linalg.psd_roots(stack[idx])
        assert (roots[idx].tobytes(), invs[idx].tobytes()) == (r.tobytes(), rinv.tobytes())
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.psd_roots(stack + 1e-3j * np.eye(3))


def test_top_singular_triple():
    gen = make_generator(7)
    for _ in range(10):
        a = random_ginibre(gen, int(gen.integers(2, 7)), int(gen.integers(2, 7)))
        sigma, left, right = linalg.top_singular_triple(a)
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
        assert np.allclose(a @ right, sigma * left, atol=1e-10)
        assert np.linalg.norm(left) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(right) == pytest.approx(1.0, abs=1e-12)
    stack = np.stack([random_ginibre(gen, 4, 3) for _ in range(5)])
    sigmas, lefts, rights = linalg.top_singular_triple(stack)
    assert sigmas.shape == (5,) and lefts.shape == (5, 4) and rights.shape == (5, 3)
    for a, sigma, left, right in zip(stack, sigmas, lefts, rights):
        one = linalg.top_singular_triple(a)
        assert sigma == one[0]
        assert np.array_equal(left, one[1]) and np.array_equal(right, one[2])
    with pytest.raises(ValueError):
        linalg.top_singular_triple(np.full((2, 2, 2), np.inf))
