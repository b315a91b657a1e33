"""Reproducible random instances and independent oracles for checking norms.

Randomness goes through a counter-based Philox generator so streams are
identical across platforms and runs.  Complex Gaussians are drawn as one
``standard_normal`` array of shape ``(..., 2)`` whose last axis supplies
the real and imaginary parts, scaled by 1/sqrt(2); every sampler documents
its draws in terms of that primitive so the exact stream is pinned down.

The grid oracle at the bottom maximizes the norm of a unitary-coefficient
tensor over a brute-force angle grid plus a Nelder-Mead polish.  For 1x1
coefficients it returns the exact supremum sum |x_i| instead, since all the
phases can be aligned.  It searches only the quotient of the unitary tuples
by the symmetries the norm has exactly: multiplying every unitary on the
left by one unitary and on the right by another multiplies the tensor by
unitaries.  That pins the first unitary to the identity and leaves the
conjugations, which bring two coefficients down to one phase and three to
five angles.  The grid is evaluated in chunks within a fixed byte budget,
``GRID_BYTES``, and never built whole, so one call holds a few MB
whatever the grid size.  The polish runs all its starts in lockstep, one
batched objective call per phase of an iteration, and follows scipy's
Nelder-Mead per start step for step, so each start ends bit for bit where
scipy's would.  The oracle shares no code with the alternating-maximization
search in ``decnorms.cbnorm``, which is the point: the two must agree
without either being able to copy the other's mistakes.
"""

from __future__ import annotations

import numpy as np

from decnorms import linalg
from decnorms.algebra import AlgebraElement, AlgebraShape, coefficient_tuple
from decnorms.maps import LinearMapRep, kraus_map


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by ``(seed, stream)``.

    Philox is counter-based, so the stream is reproducible bit-for-bit
    across platforms and numpy builds that share the Generator interface.
    A negative ``seed`` raises ``ValueError``.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
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


def random_matrix_tuple(gen: np.random.Generator, n: int, d: int) -> list[np.ndarray]:
    """n independent Ginibre matrices in M_d; the workhorse test input."""
    return [random_ginibre(gen, d, d) for _ in range(n)]


def random_unital_cp_map(gen: np.random.Generator, d: int, num_kraus: int = 3) -> LinearMapRep:
    """Unital CP map on M_d as x -> sum_k a_k* x a_k with sum a_k* a_k = 1."""
    gs = [random_ginibre(gen, d, d) for _ in range(num_kraus)]
    s = sum(g.conj().T @ g for g in gs)
    _, s_inv_half = linalg.psd_roots(s, rcond=1e-12)
    kraus = [g @ s_inv_half for g in gs]
    return kraus_map(kraus)


# ---------------------------------------------------------------------------
# Grid oracle for the min tensor norm on small instances
# ---------------------------------------------------------------------------

# Bytes of stacked arrays that one chunk of grid points may hold at once.
# Per point a chunk holds three kd x kd complex matrices (the running sum,
# the product being added and the SVD's copy), the n k x k unitaries, and
# three rows of one float or index per angle (the mesh indices, their
# stacked row and the angles).
GRID_BYTES = 2 << 20

# Per arity n: the angles of a point of the quotient, the size k of its
# unitaries and the grid points per angle.
_QUOTIENT = {2: (1, 1, 4096), 3: (5, 2, 6)}


def _quotient_families(angles: np.ndarray) -> list[np.ndarray]:
    """The unitary family (u_1, ..., u_n) at each row of ``angles``, batched.

    One angle theta gives the 1x1 family (1, exp(i theta)).  Five angles
    (a, b, psi, alpha, t) give (I, diag(exp(i a), exp(i b)), U) with

    U = exp(i psi) * [[exp(i alpha) cos t, sin t],
                      [-sin t, exp(-i alpha) cos t]].
    """
    m = len(angles)
    if angles.shape[1] == 1:
        return [np.ones((m, 1, 1), dtype=np.complex128), np.exp(1j * angles)[:, :, None]]
    a, b, psi, al, t = angles.T
    eye = np.broadcast_to(np.eye(2, dtype=np.complex128), (m, 2, 2))
    diag = np.zeros((m, 2, 2), dtype=np.complex128)
    diag[:, 0, 0], diag[:, 1, 1] = np.exp(1j * a), np.exp(1j * b)
    ct, st = np.cos(t), np.sin(t)
    u = np.empty((m, 2, 2), dtype=np.complex128)
    u[:, 0, 0] = np.exp(1j * al) * ct
    u[:, 0, 1] = st
    u[:, 1, 0] = -st
    u[:, 1, 1] = np.exp(-1j * al) * ct
    return [eye, diag, u * np.exp(1j * psi)[:, None, None]]


def _objective_batch(us_batch: list[np.ndarray], xs: list[np.ndarray]) -> np.ndarray:
    """Largest singular value of sum_i u_i (x) x_i for a batch of families."""
    d = xs[0].shape[0]
    batch, k = us_batch[0].shape[:2]
    acc = np.zeros((batch, k * d, k * d), dtype=np.complex128)
    for u, x in zip(us_batch, xs):
        acc += (u[:, :, None, :, None] * x[:, None, :]).reshape(batch, k * d, k * d)
    return np.linalg.svd(acc, compute_uv=False)[:, 0]


# Nelder-Mead as scipy's minimize(method="Nelder-Mead") runs it
# without adaptive coefficients: the move coefficients, the initial simplex
# offsets and the stopping rule (no cap on function evaluations)
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
_XATOL, _FATOL, _MAXITER = 1e-10, 1e-12, 2000


def _sort_simplices(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, order], fsim[rows, order]


def _polish_lockstep(fun, starts: np.ndarray) -> np.ndarray:
    """Minimum that Nelder-Mead reaches from each row of ``starts``.

    ``fun`` maps a (B, N) array of points to their B values.  All starts
    advance together: each phase of an iteration (reflect; expand or
    contract; shrink) is one ``fun`` call over the starts still running.
    Per start the moves are scipy's step for step, with the same initial
    simplex, update formulas, ``argsort`` reordering and stopping rule, so
    each start's minimum equals scipy's ``fun`` for it bit for bit.
    """
    m, dim = starts.shape
    sim = np.repeat(starts[:, None, :].astype(np.float64), dim + 1, axis=1)
    for k in range(dim):
        y = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(y != 0, (1 + _NONZDELT) * y, _ZDELT)
    fsim = fun(sim.reshape(-1, dim)).reshape(m, dim + 1)
    # scipy sorts the first simplex twice; argsort need not fix ties, so
    # the second pass can still move vertices
    sim, fsim = _sort_simplices(*_sort_simplices(sim, fsim))

    out = np.empty(m)
    live = np.arange(m)
    for _ in range(_MAXITER - 1):  # scipy counts iterations from 1 up to maxiter
        done = ((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= _XATOL)
                & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= _FATOL))
        if done.any():
            out[live[done]] = fsim[done].min(axis=1)
            live, sim, fsim = live[~done], sim[~done], fsim[~done]
            if live.size == 0:
                return out

        worst = sim[:, -1]
        xbar = np.add.reduce(sim[:, :-1], 1) / dim
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = fun(xr)

        expand = fxr < fsim[:, 0]
        accept = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~accept & (fxr < fsim[:, -1])
        inside = ~(expand | accept | outside)
        x2 = np.where(
            expand[:, None], (1 + _RHO * _CHI) * xbar - _RHO * _CHI * worst,
            np.where(outside[:, None], (1 + _PSI * _RHO) * xbar - _PSI * _RHO * worst,
                     (1 - _PSI) * xbar + _PSI * worst))
        f2 = np.full(live.size, np.inf)
        if not accept.all():
            f2[~accept] = fun(x2[~accept])

        take2 = (expand & (f2 < fxr)) | (outside & (f2 <= fxr)) | (inside & (f2 < fsim[:, -1]))
        shrink = (outside | inside) & ~take2
        take_r = accept | (expand & ~take2)
        sim[take2, -1], fsim[take2, -1] = x2[take2], f2[take2]
        sim[take_r, -1], fsim[take_r, -1] = xr[take_r], fxr[take_r]
        if shrink.any():
            s = sim[shrink]
            s[:, 1:] = s[:, :1] + _SIGMA * (s[:, 1:] - s[:, :1])
            sim[shrink] = s
            fsim[shrink, 1:] = fun(s[:, 1:].reshape(-1, dim)).reshape(-1, dim)
        sim, fsim = _sort_simplices(sim, fsim)
    out[live] = fsim.min(axis=1)
    return out


def grid_oracle_min_norm(xs) -> float:
    """Brute-force lower estimate of sup ||sum u_i (x) x_i|| over unitaries.

    Supports coefficient dimension d in {1, 2} and up to three
    coefficients.  For d = 1 the supremum is sum |x_i|, reached by
    aligning every phase u_i with that of x_i, and that closed form is
    returned.  For d = 2 the search runs over the quotient of the 2x2
    unitary tuples by two exact invariances of the objective, so no angle
    is spent on a direction along which it is constant:

    - (V u_1 W, ..., V u_n W) has the objective of (u_1, ..., u_n) for
      unitaries V and W, since sum V u_i W (x) x_i is (V (x) 1)
      (sum u_i (x) x_i) (W (x) 1).  V = u_1* and W = 1 pin u_1 = I.
    - Conjugation, V = W*, keeps u_1 = I.  For n = 2 take W with
      u_2 = W diag(exp(i theta_1), exp(i theta_2)) W*: the tensor becomes
      the direct sum over l of x_1 + exp(i theta_l) x_2, whose norm is the
      larger of the two.  So the oracle maximizes
      ||x_1 + exp(i theta) x_2|| over the one phase theta, which is also
      the supremum over unitaries of every size, as C*(F_1) = C(T).
    - For n = 3 conjugate u_2 to diag(exp(i a), exp(i b)).  A diagonal
      conjugation keeps it diagonal and turns real the (1, 2) entry of
      u_3's SU(2) factor exp(-i psi) u_3, so psi, alpha and t fix u_3 (see
      ``_quotient_families``): five angles instead of the eight of
      (u_2, u_3).

    A dense angle grid on the quotient and a seeded random layer seed
    Nelder-Mead refinement, so the returned value approaches the supremum
    from below.  The grid and the random layer are evaluated in chunks of
    at most ``GRID_BYTES``, each mesh point built from its flat index, and
    every value is the same whatever the chunk size.
    """
    elems = coefficient_tuple(xs)
    if not elems[0].shape.is_factor():
        raise ValueError("coefficients must live in a single matrix block")
    mats = [x.blocks[0] for x in elems]
    n, d = len(mats), mats[0].shape[0]
    if d > 2 or n > 3:
        raise ValueError("grid oracle supports d <= 2 and n <= 3 only")
    if d == 1:
        return float(np.abs([x[0, 0] for x in mats]).sum())
    if n == 1:
        return linalg.operator_norm(mats[0])

    free, k, grid = _QUOTIENT[n]
    axis = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    chunk = max(1, GRID_BYTES // (16 * (3 * (k * d) ** 2 + n * k * k) + 3 * 8 * free))

    def mesh_points(flat: np.ndarray) -> np.ndarray:
        # rows of the C-order mesh of ``free`` copies of ``axis``
        return axis[np.stack(np.unravel_index(flat, (grid,) * free), axis=-1)]

    def evaluate(count: int, points) -> np.ndarray:
        vals = np.empty(count)
        for first in range(0, count, chunk):
            rows = slice(first, min(first + chunk, count))
            vals[rows] = _objective_batch(_quotient_families(points(rows)), mats)
        return vals

    vals = evaluate(grid ** free, lambda rows: mesh_points(np.arange(rows.start, rows.stop)))
    best = float(vals.max())

    # starts must cover distinct basins: the top mesh points cluster around
    # one peak, so enforce a torus separation of half the grid spacing
    order = np.argsort(-vals, kind="stable")
    min_dist = np.pi / grid
    starts = []
    for idx in order:
        p = mesh_points(idx)
        separated = True
        for q in starts:
            delta = np.abs(p - q)
            delta = np.minimum(delta, 2 * np.pi - delta)
            if delta.max() < min_dist:
                separated = False
                break
        if separated:
            starts.append(p)
        if len(starts) >= 16:  # grid points polished
            break

    # a fixed-seed random layer breaks any alignment between the mesh and
    # the objective's ridges; deterministic, so the oracle stays reproducible
    rg = np.random.Generator(np.random.Philox(0x9e3779b9))
    rand_pts = rg.uniform(0.0, 2 * np.pi, size=(4096, free))
    rand_vals = evaluate(len(rand_pts), lambda rows: rand_pts[rows])
    best = max(best, float(rand_vals.max()))
    for idx in np.argsort(-rand_vals, kind="stable")[:6]:
        starts.append(rand_pts[idx])

    mins = _polish_lockstep(lambda flat: -_objective_batch(_quotient_families(flat), mats),
                            np.array(starts))
    return max(best, -float(mins.min()))


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
