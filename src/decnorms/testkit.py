"""Reproducible random instances and independent oracles for checking norms.

Randomness goes through a counter-based Philox generator so streams are
identical across platforms and runs.  Complex Gaussians are drawn as one
``standard_normal`` array of shape ``(..., 2)`` whose last axis supplies
the real and imaginary parts, scaled by 1/sqrt(2); every sampler documents
its draws in terms of that primitive so the exact stream is pinned down.

The grid oracle at the bottom maximizes the norm of a unitary-coefficient
tensor over a brute-force angle grid plus a Nelder-Mead polish.  It shares
no code with the alternating-maximization search in ``decnorms.cbnorm``,
which is the point: the two must agree without either being able to copy
the other's mistakes.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from decnorms import linalg
from decnorms.algebra import AlgebraElement, AlgebraShape, element_norm, unit
from decnorms.maps import LinearMapRep, apply_map, kraus_map, map_from_choi


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by ``(seed, stream)``.

    Philox is counter-based, so the stream is reproducible bit-for-bit
    across platforms and numpy builds that share the Generator interface.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), int(stream)])))


def random_ginibre(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Matrix of iid standard complex Gaussians.

    Entry (i, j) is ``(x + 1j y) / sqrt(2)`` where (x, y) are consecutive
    draws from one ``standard_normal((rows, cols, 2))`` call.
    """
    raw = gen.standard_normal((rows, cols, 2))
    return (raw[..., 0] + 1j * raw[..., 1]) / np.sqrt(2.0)


def random_haar_unitary(gen: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix.

    The R factor's diagonal phases are divided out, which makes the
    distribution exactly Haar rather than merely orthogonally invariant.
    """
    g = random_ginibre(gen, d, d)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases.conj()


def random_hermitian(gen: np.random.Generator, d: int) -> np.ndarray:
    g = random_ginibre(gen, d, d)
    return (g + g.conj().T) / 2.0


def random_element(gen: np.random.Generator, shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(shape, [random_ginibre(gen, d, d) for d in shape.block_dims])


def random_positive_element(gen: np.random.Generator, shape: AlgebraShape) -> AlgebraElement:
    blocks = []
    for d in shape.block_dims:
        g = random_ginibre(gen, d, d)
        blocks.append(g @ g.conj().T)
    return AlgebraElement(shape, blocks)


def random_matrix_tuple(gen: np.random.Generator, n: int, d: int) -> list[np.ndarray]:
    """n independent Ginibre matrices in M_d; the workhorse test input."""
    return [random_ginibre(gen, d, d) for _ in range(n)]


def random_cp_map(gen: np.random.Generator, domain: AlgebraShape, codomain: AlgebraShape) -> LinearMapRep:
    """Random CP map with a full-rank Wishart Choi block per domain block.

    Normalized so the image of the unit has norm one, which pins the norm,
    cb norm and dec norm of the result all to exactly one.
    """
    m = codomain.embed_dim
    blocks = []
    for d in domain.block_dims:
        g = random_ginibre(gen, d * m, d * m)
        blocks.append(g @ g.conj().T)
    u = map_from_choi(domain, codomain, blocks)
    # the raw Choi has cross-terms between codomain blocks; project them out
    # by rebuilding images as proper algebra elements (map_from_choi already
    # did the splitting), then scale.
    nrm = element_norm(apply_map(u, unit(domain)))
    if nrm <= 0:
        raise ValueError("degenerate random CP map")
    images = [(1.0 / nrm) * img for img in u.images]
    return LinearMapRep(domain, codomain, images)


def random_unital_cp_map(gen: np.random.Generator, d: int, num_kraus: int = 3) -> LinearMapRep:
    """Unital CP map on M_d as x -> sum_k a_k* x a_k with sum a_k* a_k = 1."""
    gs = [random_ginibre(gen, d, d) for _ in range(num_kraus)]
    s = sum(g.conj().T @ g for g in gs)
    _, s_inv_half = linalg.psd_roots(s, rcond=1e-12)
    kraus = [g @ s_inv_half for g in gs]
    return kraus_map(kraus)


def random_free_tensor_coeffs(gen: np.random.Generator, n: int, d: int) -> list[np.ndarray]:
    """Coefficients x_0..x_{n-1} for a free-unitary tensor, iid Ginibre."""
    return [random_ginibre(gen, d, d) for _ in range(n)]


def random_free_tensor(gen: np.random.Generator, n: int, d: int):
    """Random tensor over n unitary generators (slot 0 the unit), M_d coefficients."""
    from decnorms.freetensor import FreeTensor

    return FreeTensor(coeffs=tuple(random_free_tensor_coeffs(gen, n, d)))


# ---------------------------------------------------------------------------
# Grid oracle for the min tensor norm on small instances
# ---------------------------------------------------------------------------

def _angles_to_unitary(angles: np.ndarray) -> np.ndarray:
    """U(2) element from 4 angles (phi, alpha, theta, beta), batched.

    U = exp(i phi) * [[exp(i a) cos t, exp(i b) sin t],
                      [-exp(-i b) sin t, exp(-i a) cos t]]
    covers all of U(2).
    """
    phi, al, th, be = angles[..., 0], angles[..., 1], angles[..., 2], angles[..., 3]
    ct, st = np.cos(th), np.sin(th)
    u = np.empty(angles.shape[:-1] + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = np.exp(1j * al) * ct
    u[..., 0, 1] = np.exp(1j * be) * st
    u[..., 1, 0] = -np.exp(-1j * be) * st
    u[..., 1, 1] = np.exp(-1j * al) * ct
    return u * np.exp(1j * phi)[..., None, None]


def _coerce_tuple(xs) -> list[np.ndarray]:
    out = []
    for x in xs:
        if isinstance(x, AlgebraElement):
            if x.shape.num_blocks != 1:
                raise ValueError("grid oracle handles single-block coefficients only")
            out.append(x.blocks[0])
        else:
            out.append(linalg.as_matrix(x))
    return out


def _objective_batch(us_batch: list[np.ndarray], xs: list[np.ndarray]) -> np.ndarray:
    """Largest singular value of sum_i u_i (x) x_i for a batch of families."""
    d = xs[0].shape[0]
    k = us_batch[0].shape[-1]
    batch = us_batch[0].shape[0]
    acc = np.zeros((batch, k * d, k * d), dtype=np.complex128)
    for u, x in zip(us_batch, xs):
        acc += np.einsum("bij,kl->bikjl", u, x).reshape(batch, k * d, k * d)
    return np.linalg.svd(acc, compute_uv=False)[:, 0]


def grid_oracle_min_norm(
    xs,
    *,
    grid: int | None = None,
    polish: bool = True,
    polish_starts: int = 16,
) -> float:
    """Brute-force lower estimate of sup ||sum u_i (x) x_i|| over unitaries.

    Supports coefficient dimension d in {1, 2} and up to three
    coefficients.  The first unitary is fixed to the identity, which loses
    nothing: left-multiplying every u_i by a fixed unitary is an isometry
    of the objective.  A dense angle grid seeds Nelder-Mead refinement, so
    the returned value approaches the true supremum from below.
    """
    mats = _coerce_tuple(xs)
    n = len(mats)
    if n == 0:
        raise ValueError("need at least one coefficient")
    d = mats[0].shape[0]
    for x in mats:
        if x.shape != (d, d):
            raise ValueError("coefficients must share one square shape")
    if d > 2 or n > 3:
        raise ValueError("grid oracle supports d <= 2 and n <= 3 only")
    if n == 1:
        return linalg.operator_norm(mats[0])

    angles_per = 1 if d == 1 else 4
    free = (n - 1) * angles_per
    if grid is None:
        grid = {1: 72, 2: 72, 4: 14, 8: 4}[free] if free in (1, 2, 4, 8) else 6

    axes = [np.linspace(0.0, 2 * np.pi, grid, endpoint=False)] * free
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)  # (B, free)

    def families(angles_flat: np.ndarray) -> list[np.ndarray]:
        batch = angles_flat.shape[0]
        eye = np.broadcast_to(np.eye(d, dtype=np.complex128), (batch, d, d))
        us = [eye]
        for i in range(n - 1):
            seg = angles_flat[:, i * angles_per:(i + 1) * angles_per]
            if d == 1:
                us.append(np.exp(1j * seg[:, 0])[:, None, None])
            else:
                us.append(_angles_to_unitary(seg))
        return us

    chunk = 65536
    vals = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], chunk):
        hi = min(lo + chunk, pts.shape[0])
        vals[lo:hi] = _objective_batch(families(pts[lo:hi]), mats)

    best = float(vals.max())
    if not polish:
        return best

    # starts must cover distinct basins: the top mesh points cluster around
    # one peak, so enforce a torus separation of half the grid spacing
    order = np.argsort(-vals, kind="stable")
    min_dist = np.pi / grid
    starts = []
    for idx in order:
        p = pts[idx]
        separated = True
        for q in starts:
            delta = np.abs(p - q)
            delta = np.minimum(delta, 2 * np.pi - delta)
            if delta.max() < min_dist:
                separated = False
                break
        if separated:
            starts.append(p)
        if len(starts) >= polish_starts:
            break

    # a fixed-seed random layer breaks any alignment between the mesh and
    # the objective's ridges; deterministic, so the oracle stays reproducible
    rg = np.random.Generator(np.random.Philox(0x9e3779b9))
    rand_pts = rg.uniform(0.0, 2 * np.pi, size=(4096, free))
    rand_vals = _objective_batch(families(rand_pts), mats)
    best = max(best, float(rand_vals.max()))
    for idx in np.argsort(-rand_vals, kind="stable")[:6]:
        starts.append(rand_pts[idx])

    def neg_obj(flat: np.ndarray) -> float:
        return -float(_objective_batch(families(flat[None, :]), mats)[0])

    for p in starts:
        res = scipy.optimize.minimize(
            neg_obj, p, method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
        )
        best = max(best, -float(res.fun))
    return best


# ---------------------------------------------------------------------------
# Solver validation program
# ---------------------------------------------------------------------------

def eigenvalue_program(h: np.ndarray):
    """SDP whose optimum is the largest eigenvalue of the Hermitian ``h``.

    Minimize s subject to s*I - h >= 0.  Used to validate the conic solver
    against the dense eigensolver.
    """
    from decnorms.conic import BlockBuilder, ConicProgram

    h = linalg.symmetrize(np.asarray(h, dtype=np.complex128))
    d = h.shape[0]
    builder = BlockBuilder(d, 1)
    builder.add_constant(-h)
    builder.add_scalar_identity(0, d, 0, 1.0)
    return ConicProgram(objective=np.array([1.0]), psd_blocks=[builder.build()])
