"""A small first-order conic solver for Hermitian semidefinite programs.

Problems take the variational form

    minimize    c . y
    subject to  F0_l + sum_k y_k Fk_l  is PSD      (one block per l)

with real variables ``y`` and complex Hermitian data ``F``; the cone is
a product of PSD blocks alone.  The solver runs ADMM on the homogeneous
self-dual embedding (the splitting SCS made standard): primal and dual
are folded into one monotone inclusion whose fixed point encodes either
an optimal pair or an infeasibility certificate.  Each iteration solves
one quasi-definite linear system and projects onto the cone product.
The iterate is the Douglas-Rachford variable x of length vars + rows + 1,
as in SCS 3 (O'Donoghue, SIAM J. Optim. 2021): a step solves the system
at 2u - x, where u = Pi(x) and v = u - x, and moves x by the relaxed
difference of that solution and u.  Ruiz equilibration speeds up the
linear rate, and safeguarded type-II Anderson acceleration of x -> x+
cuts the iteration count (Zhang, O'Donoghue and Boyd, 2020): checks read
plain iterates, and an extrapolated point that halves tau or tau + kappa,
or whose image grows the fixed-point residual, gives way to the plain one.

The constraint matrix A stays sparse (CSR, :class:`CsrMatrix`, numpy
arrays only) from assembly through Ruiz scaling, residual checks and
infeasibility tests; the linear system is reduced to ``I + A^T A``,
whose inverse is built once, exactly, by the Woodbury identity
(:func:`_gram_inverse`): the rows of A with one nonzero give a diagonal,
the others a small sparse correction with one small dense block.  The
package's programs have about two nonzeros per column of A, so memory
and per-iteration cost scale with the nonzeros, not with rows x columns.
A depends only on the block sizes and the linear parts; F0 enters
through b alone.  So one call of :func:`solve_all` builds the assembled
and equilibrated A and the inverse's parts once per constraint
structure, keyed by its exact bytes, and every program of that
structure reads them, read-only.  Nothing is kept between calls.

Residual checks are at most ``CHECK_EVERY`` iterations apart.  Each
check scores the iterate against the one tolerance ``tol``, and while
that score decays the next check is placed where the measured geometric
rate says it reaches it, so a solve stops within a few iterations of
converging, or at ``MAX_ITER`` iterations.

:func:`solve_all` solves many programs at once, and :func:`solve` is its
batch of one.  Programs of one constraint structure form a group that
iterates in lockstep on stacked arrays, one row per program, in chunks
whose stacked state stays within ``BATCH_BYTES``; numpy's per-call cost,
most of the time of a small program, is then paid once per chunk.  A
program too large for ``LOCKSTEP_MIN`` of them to fit in the budget runs
alone, and so does the last program left in a chunk, on the 1-D kernels.
Every program keeps its own tau and kappa, b/c scaling, Anderson memory
and safeguard, check schedule, best point and stop, and leaves the chunk
when it stops.  Each row gets exactly the bits its program gets alone,
whatever the batch and its order: every kernel works row by row with the
arithmetic of the solo kernel (stacked ``matmul`` for each dot product,
matrix-vector product and norm, a bincount over ``row + k * rows`` for
the CSR products, stacked ``eigh``, and stacked ``cholesky`` and
``solve`` for the Anderson systems, grouped by memory fill).

Hermitian matrices travel through the cone machinery in "svec"
coordinates: the q real diagonal entries first, then sqrt(2) * Re and
sqrt(2) * Im of the strict upper triangle in row-major order.  This makes
the Euclidean inner product of two svec vectors equal the real
Hilbert-Schmidt pairing of the matrices, so PSD cones stay self-dual in
coordinates.  The index arrays of these coordinates are built once per
block size and cached (``_svec_map``): svec, unsvec, the block builder
and the solver's projection all read them.  Per iteration the projection
is one gather of the whole cone segment into stacked complex matrices
(real arithmetic on their float64 view), one ``eigh`` per block size and
one gather back into svec order.

Everything is deterministic: no randomness, fixed iteration order, a
fixed factorization and a check schedule read from the iterates, so
repeated solves of the same program give bit-identical output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from decnorms import linalg

_SQRT2 = np.sqrt(2.0)


class SolverError(Exception):
    """Raised for malformed programs; solver outcomes are returned, not raised.

    ``index`` is the position of the failing program in a :func:`solve_all`
    batch of several, and None otherwise; the message then starts with
    ``program {index}:``, and ``reason`` is the message without that label.
    """

    def __init__(self, reason: str, index: int | None = None):
        super().__init__(reason if index is None else f"program {index}: {reason}")
        self.reason, self.index = reason, index


# ---------------------------------------------------------------------------
# svec coordinates for complex Hermitian matrices
# ---------------------------------------------------------------------------

class _SvecMap(NamedTuple):
    """Index arrays of the svec coordinates of one block size q.

    ``pair[a, b]`` is the row-major strict-upper index of (a, b), a < b;
    ``diag``, ``upper`` and ``lower`` are the flat positions of the
    diagonal and of the strict upper triangle and its mirror.  The other
    arrays address the float64 view of a C-ordered complex q x q matrix,
    where flat position k has its real part at 2k and imaginary part at
    2k + 1: ``mat_f64[dst] = vec[src] * scale`` is unsvec and
    ``mat_f64[read] * read_scale`` is svec.
    """

    pair: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    scale: np.ndarray
    read: np.ndarray
    read_scale: np.ndarray


@functools.lru_cache(maxsize=None)
def _svec_map(q: int) -> _SvecMap:
    rows, cols = np.triu_indices(q, k=1)
    t = rows.size
    pair = np.full((q, q), -1)
    pair[rows, cols] = np.arange(t)
    diag, upper, lower = np.arange(q) * (q + 1), rows * q + cols, cols * q + rows
    re_c, im_c = q + np.arange(t), q + t + np.arange(t)
    # complex division by sqrt(2) is a multiply by 1/sqrt(2)
    half = np.full(t, 1.0 / _SQRT2)
    out = _SvecMap(
        pair, diag, upper, lower,
        np.concatenate([np.arange(q), re_c, re_c, im_c, im_c]),
        np.concatenate([2 * diag, 2 * upper, 2 * lower, 2 * upper + 1, 2 * lower + 1]),
        np.concatenate([np.ones(q), half, half, half, -half]),
        np.concatenate([2 * diag, 2 * upper, 2 * upper + 1]),
        np.concatenate([np.ones(q), np.full(2 * t, _SQRT2)]),
    )
    for arr in out:
        arr.setflags(write=False)
    return out


def svec(mat: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix.

    Layout: q diagonal entries (real parts), then sqrt(2) * Re of the
    strict upper triangle row-major, then sqrt(2) * Im of the same.
    """
    m = np.ascontiguousarray(mat, dtype=np.complex128)
    mp = _svec_map(m.shape[0])
    return m.reshape(-1).view(np.float64)[mp.read] * mp.read_scale


def unsvec(vec: np.ndarray, q: int) -> np.ndarray:
    """Inverse of :func:`svec`; a stack ``(..., q*q)`` gives ``(..., q, q)``.

    This runs in complex arithmetic, not through the real gather of the
    map, so a -0.0 coordinate yields the signed zeros complex division gives.
    """
    v = np.asarray(vec, dtype=np.float64)
    if v.shape[-1:] != (q * q,):
        raise ValueError(f"svec vector for size {q} must have length {q * q}")
    mp = _svec_map(q)
    t = mp.upper.size
    out = np.zeros(v.shape[:-1] + (q * q,), dtype=np.complex128)
    out[..., mp.diag] = v[..., :q]
    off = (v[..., q:q + t] + 1j * v[..., q + t:]) / _SQRT2
    out[..., mp.upper] = off
    out[..., mp.lower] = off.conj()
    return out.reshape(v.shape[:-1] + (q, q))


# ---------------------------------------------------------------------------
# Sparse matrices
# ---------------------------------------------------------------------------

class CsrMatrix:
    """A real sparse matrix in compressed sparse row form, on numpy arrays.

    Row i stores ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending and without repeats;
    ``row_of`` is the row of every stored entry.  The solver needs
    products with vectors, the transpose and negation, and nothing more.
    A product sums each row's entries in stored order, so it is
    deterministic, and a stack of vectors ``x[k]`` gets, row k for row k,
    the bits of ``self @ x[k]``: one bincount over the flat index
    ``k * rows + row`` adds each bin's terms in the same order.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "row_of", "_stack_index")

    def __init__(self, shape: tuple[int, int], indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.row_of = np.repeat(np.arange(self.shape[0]), np.diff(indptr))
        self._stack_index = self.row_of  # bincount index for the last stack height used

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def T(self) -> CsrMatrix:
        rows, cols = self.shape
        order = np.argsort(self.indices, kind="stable")  # rows stay ascending per column
        indptr = np.zeros(cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=cols), out=indptr[1:])
        return CsrMatrix((cols, rows), indptr, self.row_of[order], self.data[order])

    def __neg__(self) -> CsrMatrix:
        return CsrMatrix(self.shape, self.indptr, self.indices, -self.data)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``self @ x`` for a vector, or ``self @ x[k]`` for each row of a 2-D stack."""
        rows = self.shape[0]
        if x.ndim == 1:
            return _sum_at(self.row_of, self.data * x[self.indices], rows)
        height = x.shape[0]
        if self._stack_index.size != height * self.nnz:
            self._stack_index = (np.arange(height)[:, None] * rows + self.row_of).ravel()
        terms = (self.data * x[:, self.indices]).ravel()
        return _sum_at(self._stack_index, terms, height * rows).reshape(height, rows)


def _sum_at(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Length-n float vector whose entry i sums ``weights`` where ``index`` is i, in order."""
    # bincount of no entries is integer-typed, whatever the weights
    return np.bincount(index, weights=weights, minlength=n).astype(np.float64, copy=False)


def _csr_from_entries(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray,
                      vals: np.ndarray) -> CsrMatrix:
    """The matrix with entries ``(rows, cols, vals)``; repeated positions are summed."""
    nrows, ncols = shape
    if rows.size and not (0 <= rows.min() and rows.max() < nrows
                          and 0 <= cols.min() and cols.max() < ncols):
        raise SolverError(f"entry position outside a {nrows}x{ncols} matrix")
    pos, where = np.unique(rows * ncols + cols, return_inverse=True)
    data = _sum_at(where, vals, pos.size)
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    if pos.size:
        np.cumsum(np.bincount(pos // ncols, minlength=nrows), out=indptr[1:])
    return CsrMatrix(shape, indptr, pos % max(ncols, 1), data)


def _vstack(mats: list[CsrMatrix]) -> CsrMatrix:
    """Stack matrices with equal column counts on top of each other."""
    ends = np.cumsum([0] + [mat.nnz for mat in mats])
    indptr = np.concatenate([[0]] + [mat.indptr[1:] + end for mat, end in zip(mats, ends)])
    return CsrMatrix((sum(mat.shape[0] for mat in mats), mats[0].shape[1]), indptr,
                     np.concatenate([mat.indices for mat in mats]),
                     np.concatenate([mat.data for mat in mats]))


def _take_rows(mat: CsrMatrix, rows: np.ndarray) -> CsrMatrix:
    """The matrix of the given rows of ``mat``, in the given order."""
    counts = np.diff(mat.indptr)[rows]
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    pos = np.repeat(mat.indptr[rows] - indptr[:-1], counts) + np.arange(indptr[-1])
    return CsrMatrix((rows.size, mat.shape[1]), indptr, mat.indices[pos], mat.data[pos])


# ---------------------------------------------------------------------------
# Program description
# ---------------------------------------------------------------------------

@dataclass
class PsdBlockSpec:
    """One PSD constraint block ``F0 + sum_k y_k F_k >= 0``.

    ``lin`` holds the svec coordinates of the F_k: column k is
    ``svec(F_k)``, shape ``(size**2, num_vars)``.  Keeping the linear part
    in coordinates avoids ever materializing dense F_k tensors.
    """

    size: int
    f0: np.ndarray
    lin: CsrMatrix

    def __post_init__(self):
        q = self.size
        self.f0 = linalg.symmetrize(self.f0, rtol=1e-9)
        if self.f0.shape != (q, q):
            raise SolverError(f"F0 must be {q}x{q}, got {self.f0.shape}")
        if self.lin.shape[0] != q * q:
            raise SolverError(
                f"linear part has {self.lin.shape[0]} rows, expected {q * q}"
            )


@dataclass
class ConicProgram:
    """Hermitian SDP in variational form; see the module docstring."""

    objective: np.ndarray
    psd_blocks: list[PsdBlockSpec]

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=np.float64).ravel()
        if not np.all(np.isfinite(self.objective)):
            raise SolverError("objective contains non-finite entries")
        m = self.objective.size
        if m == 0:
            raise SolverError("program needs at least one variable")
        if len(self.psd_blocks) == 0:
            raise SolverError("program needs at least one PSD block")
        for blk in self.psd_blocks:
            if blk.lin.shape[1] != m:
                raise SolverError(
                    f"block linear part has {blk.lin.shape[1]} columns, expected {m}"
                )

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_eq(self) -> int:
        """Always 0: the cone has no equality rows.  Kept for callers that count rows."""
        return 0


class BlockBuilder:
    """Accumulates one PSD block from matrix-valued contributions.

    All package SDPs place Hermitian variables (in svec coordinates) at
    diagonal sub-positions of a constraint block, which in svec terms is a
    coordinate-for-coordinate copy.  The three primitives below cover
    every program the package builds.

    A builder builds the block of ``family`` programs that differ only in
    their constants: a constant is one matrix for all of them or a stack
    of ``family``, one per program, and :meth:`build_family` returns one
    spec per program, all sharing one linear part.
    """

    def __init__(self, size: int, num_vars: int, family: int = 1):
        self.size = size
        self.num_vars = num_vars
        self.f0 = np.zeros((family, size, size), dtype=np.complex128)
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []

    def _svec_coords(self, qsub: int, row0: int):
        """svec coordinates in the big block for a qsub-sized diagonal slot."""
        q = self.size
        # pair (a, b), a < b inside the sub-block -> big pair (row0+a, row0+b)
        a_sub, b_sub = np.triu_indices(qsub, k=1)
        pair_idx = _svec_map(q).pair[a_sub + row0, b_sub + row0]
        return np.arange(row0, row0 + qsub), q + pair_idx, q + q * (q - 1) // 2 + pair_idx

    def add_constant(self, mat: np.ndarray):
        """Add the constant ``mat`` at the top-left corner of the block."""
        m = np.asarray(mat, dtype=np.complex128)
        qsub = m.shape[-1]
        self.f0[..., :qsub, :qsub] += m

    def add_constant_offdiag(self, mat: np.ndarray, row0: int, col0: int):
        """Place a constant rectangular block at (row0, col0), mirrored."""
        m = np.asarray(mat, dtype=np.complex128)
        r, c = m.shape[-2:]
        if row0 == col0:
            raise SolverError("use add_constant for diagonal placements")
        self.f0[..., row0:row0 + r, col0:col0 + c] += m
        self.f0[..., col0:col0 + c, row0:row0 + r] += np.swapaxes(m.conj(), -1, -2)

    def add_hermitian_var(self, var_offset: int, qsub: int, row0: int, sign: float = 1.0):
        """Add ``sign * P`` at a diagonal slot, P a Hermitian svec variable."""
        diag_big, re_big, im_big = self._svec_coords(qsub, row0)
        rows = np.concatenate([diag_big, re_big, im_big])
        cols = var_offset + np.arange(qsub * qsub)
        self._rows.append(rows)
        self._cols.append(cols)
        self._vals.append(np.full(qsub * qsub, float(sign)))

    def add_scalar_identity(self, var_index: int, qsub: int, row0: int, sign: float = 1.0):
        """Add ``sign * y_k * I`` on a diagonal slot."""
        diag_big = np.arange(row0, row0 + qsub)
        self._rows.append(diag_big)
        self._cols.append(np.full(qsub, var_index))
        self._vals.append(np.full(qsub, float(sign)))

    def add_partial_trace_var(self, var_offset: int, n: int, c: int, row0: int, sign: float = 1.0):
        """Add ``sign * ptr(C)`` where C is an (n*c) Hermitian svec variable.

        The partial trace sums over the first (size n) tensor factor:
        ``ptr(C)[a, b] = sum_r C[(r, a), (r, b)]`` with the row index major,
        leaving a c x c matrix placed at the diagonal slot ``row0``.
        """
        qv = n * c
        tv = qv * (qv - 1) // 2
        diag_big, re_big, im_big = self._svec_coords(c, row0)
        a_sub, b_sub = np.triu_indices(c, k=1)
        pair = _svec_map(qv).pair
        rows_all, cols_all, vals_all = [], [], []
        for r in range(n):
            # diagonal coordinates of C at ((r, a), (r, a))
            src_diag = r * c + np.arange(c)
            rows_all.append(diag_big)
            cols_all.append(var_offset + src_diag)
            vals_all.append(np.full(c, float(sign)))
            if a_sub.size:
                pair_idx = pair[r * c + a_sub, r * c + b_sub]
                rows_all.append(re_big)
                cols_all.append(var_offset + qv + pair_idx)
                vals_all.append(np.full(pair_idx.size, float(sign)))
                rows_all.append(im_big)
                cols_all.append(var_offset + qv + tv + pair_idx)
                vals_all.append(np.full(pair_idx.size, float(sign)))
        self._rows.append(np.concatenate(rows_all))
        self._cols.append(np.concatenate(cols_all))
        self._vals.append(np.concatenate(vals_all))

    def _lin(self) -> CsrMatrix:
        q = self.size
        if self._rows:
            rows = np.concatenate(self._rows)
            cols = np.concatenate(self._cols)
            vals = np.concatenate(self._vals)
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0)
        return _csr_from_entries((q * q, self.num_vars), rows, cols, vals)

    def build(self) -> PsdBlockSpec:
        """The spec of the first program of the family."""
        return self.build_family()[0]

    def build_family(self) -> list[PsdBlockSpec]:
        """One spec per program of the family, each with its own F0 and the shared linear part."""
        lin = self._lin()
        return [PsdBlockSpec(size=self.size, f0=f0, lin=lin) for f0 in self.f0]


# ---------------------------------------------------------------------------
# Solution container and certificate verification
# ---------------------------------------------------------------------------

@dataclass
class ConicSolution:
    """Solver output; ``status`` is optimal, max_iterations or infeasible_suspected."""

    status: str
    primal_value: float
    y: np.ndarray
    dual_value: float
    psd_residual: float
    gap: float
    iterations: int
    res_primal: float
    res_dual: float
    dual_psd: list[np.ndarray] = field(default_factory=list, repr=False)
    message: str = ""
    # (iteration, res_primal, res_dual, gap) at every residual check
    history: list[tuple[int, float, float, float]] = field(default_factory=list, repr=False)


@dataclass
class CertificateReport:
    clean: bool
    discrepancies: list[str]
    psd_residual: float
    primal_value: float
    dual_value: float
    gap: float
    stationarity_residual: float
    dual_psd_residual: float


def block_matrices(program: ConicProgram, y: np.ndarray) -> list[np.ndarray]:
    """Evaluate every constraint block ``F0 + sum_k y_k F_k`` at ``y``."""
    out = []
    for blk in program.psd_blocks:
        vec = svec(blk.f0) + blk.lin @ y
        out.append(unsvec(vec, blk.size))
    return out


def _psd_residual(program: ConicProgram, y: np.ndarray) -> float:
    """Largest PSD violation (negated smallest eigenvalue) over the blocks at ``y``."""
    res = 0.0
    for mat in block_matrices(program, y):
        w = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
        res = max(res, max(0.0, -float(w[0])))
    return res


def verify_certificate(program: ConicProgram, sol: ConicSolution) -> CertificateReport:
    """Recompute all residuals of a reported solution from scratch.

    Primal feasibility, objective values, dual feasibility (cone membership
    and stationarity of the Lagrangian) and the duality gap are rebuilt
    from the program data alone; any disagreement with the reported fields
    beyond ``tol = 1e-6`` is listed in ``discrepancies``.
    """
    tol = 1e-6
    issues: list[str] = []
    y = np.asarray(sol.y, dtype=np.float64)
    if y.shape != (program.num_vars,):
        return CertificateReport(False, [f"variable vector has shape {y.shape}"], np.inf,
                                 np.nan, np.nan, np.inf, np.inf, np.inf)
    if sol.status != "optimal":
        issues.append(f"status is {sol.status!r}, not optimal")

    psd_res = _psd_residual(program, y)
    primal = float(program.objective @ y)

    stat_res = np.inf
    dual_psd_res = np.inf
    dual = np.nan
    if len(sol.dual_psd) != len(program.psd_blocks):
        issues.append("dual PSD variables missing or mismatched in count")
    else:
        dual_psd_res = 0.0
        stat = -program.objective.copy()
        dual = 0.0
        for blk, z in zip(program.psd_blocks, sol.dual_psd):
            zh = (z + z.conj().T) / 2.0
            wz = np.linalg.eigvalsh(zh)
            dual_psd_res = max(dual_psd_res, max(0.0, -float(wz[0])))
            zv = svec(zh)
            stat = stat + blk.lin.T @ zv
            dual -= float(svec(blk.f0) @ zv)
        # stationarity: sum_l <F_k, Z_l> = c_k for every k
        stat_res = float(np.max(np.abs(stat), initial=0.0))
    gap = abs(primal - dual) / (1.0 + abs(primal) + abs(dual)) if np.isfinite(dual) else np.inf

    scale = 1.0 + abs(primal)
    if psd_res > tol:
        issues.append(f"PSD residual {psd_res:.3e} exceeds {tol:.1e}")
    if abs(psd_res - sol.psd_residual) > tol:
        issues.append(f"reported PSD residual {sol.psd_residual:.3e} is off by "
                      f"{abs(psd_res - sol.psd_residual):.3e}")
    if abs(primal - sol.primal_value) > tol * scale:
        issues.append(f"reported primal value {sol.primal_value:.9g} differs from "
                      f"recomputed {primal:.9g}")
    if np.isfinite(dual) and abs(dual - sol.dual_value) > tol * (1.0 + abs(dual)):
        issues.append(f"reported dual value {sol.dual_value:.9g} differs from "
                      f"recomputed {dual:.9g}")
    if np.isfinite(stat_res) and stat_res > tol * (1.0 + float(np.abs(program.objective).max(initial=0.0))):
        issues.append(f"dual stationarity residual {stat_res:.3e} exceeds tolerance")
    if dual_psd_res > tol:
        issues.append(f"dual cone violation {dual_psd_res:.3e}")
    if np.isfinite(gap) and gap > max(10 * tol, 1e-6):
        issues.append(f"recomputed duality gap {gap:.3e} is large")

    return CertificateReport(
        clean=(len(issues) == 0),
        discrepancies=issues,
        psd_residual=psd_res,
        primal_value=primal,
        dual_value=dual,
        gap=gap,
        stationarity_residual=stat_res,
        dual_psd_residual=dual_psd_res,
    )


# ---------------------------------------------------------------------------
# The HSDE ADMM engine
# ---------------------------------------------------------------------------

def _ruiz_equilibrate(a: CsrMatrix, block_slices: list[slice], iters: int):
    """Diagonal row/column scaling of a CSR matrix; PSD block rows share one scalar.

    Only the stored nonzeros are touched: row and column maxima are
    gathered over the row and column index of each entry.  Returns (d, e)
    with the scaled matrix D A E written into ``a.data`` in place.
    """
    rows, cols = a.shape
    d = np.ones(rows)
    e = np.ones(cols)
    row_of, col_of = a.row_of, a.indices
    for _ in range(iters):
        row_max = np.zeros(rows)
        np.maximum.at(row_max, row_of, np.abs(a.data))
        # uniform scale inside each PSD block keeps the cone geometry intact
        for sl in block_slices:
            if sl.stop > sl.start:
                row_max[sl] = row_max[sl].max()
        row_scale = np.ones_like(row_max)
        nz = row_max > 0
        row_scale[nz] = 1.0 / np.sqrt(row_max[nz])
        a.data *= row_scale[row_of]
        d *= row_scale
        col_max = np.zeros(cols)
        np.maximum.at(col_max, col_of, np.abs(a.data))
        col_scale = np.ones_like(col_max)
        nz = col_max > 0
        col_scale[nz] = 1.0 / np.sqrt(col_max[nz])
        a.data *= col_scale[col_of]
        e *= col_scale
    return d, e


def _psd_projector(qs: list[int]):
    """In-place projection of cone segments onto PSD blocks of sizes ``qs``.

    A segment holds the blocks' svec vectors back to back; ``seg`` is one
    segment or a 2-D stack of them, one per row.  Blocks are grouped by
    size: one gather fills every group's stacked matrices (real arithmetic
    on their float64 view), each group takes one ``eigh`` over the whole
    stack, and one gather reads the projections back in segment order.
    Each matrix gets the bits it gets alone.  The projector owns its index
    arrays and buffers.
    """
    sizes = np.array([q * q for q in qs])
    offs = np.cumsum(sizes) - sizes  # segment offset of each block
    order = np.argsort(qs, kind="stable")
    base = np.empty_like(offs)  # complex offset of each block in the matrix buffers
    base[order] = np.cumsum(sizes[order]) - sizes[order]
    maps = [_svec_map(q) for q in qs]
    # seg[src] * scale fills the float64 view of the matrices at dst, and
    # mats_f64[read] * read_scale reads the segment back
    src = np.concatenate([o + mp.src for o, mp in zip(offs, maps)])
    dst = np.concatenate([2 * o + mp.dst for o, mp in zip(base, maps)])
    scale = np.concatenate([mp.scale for mp in maps])
    read = np.concatenate([2 * o + mp.read for o, mp in zip(base, maps)])
    read_scale = np.concatenate([mp.read_scale for mp in maps])
    groups, length = [], 0  # (slice, stack shape) per block size; complex entries
    for q in sorted(set(qs)):
        nb = qs.count(q)
        groups.append((slice(length, length + nb * q * q), (nb, q, q)))
        length += nb * q * q
    buffers = {}

    def project(seg: np.ndarray):
        lead = seg.shape[:-1]
        if lead not in buffers:
            buffers.clear()
            mats = np.zeros(lead + (length,), dtype=np.complex128)  # imaginary diagonals stay 0
            projs = np.empty(lead + (length,), dtype=np.complex128)
            rows = (slice(None),) * len(lead)
            views = [(mats[rows + (sl,)].reshape(lead + shape), projs[rows + (sl,)].reshape(lead + shape))
                     for sl, shape in groups]
            buffers[lead] = (mats.view(np.float64), projs.view(np.float64), views,
                             rows + (src,), rows + (dst,), rows + (read,))
        mats_f, projs_f, views, at_src, at_dst, at_read = buffers[lead]
        mats_f[at_dst] = seg[at_src] * scale
        for mats, projs in views:
            w, vecs = np.linalg.eigh(mats)
            np.maximum(w, 0.0, out=w)
            np.matmul(vecs * w[..., None, :], vecs.conj().swapaxes(-1, -2), out=projs)
        np.multiply(projs_f[at_read], read_scale, out=seg)

    return project


class _GramInverse(NamedTuple):
    """The inverse of I + A^T A, split as :func:`_gram_inverse` describes.

    The diagonal factors are folded into the sparse ones: ``r`` holds
    R D0^-1, and ``rt`` holds D0^-1 R^T with the columns of the uncoupled
    rows scaled by their 1 / C_ii.  A solve is then
    ``D0^-1 rhs - rt v``, where v is ``r rhs`` with ``c_inv`` applied to
    its leading entries, those of the coupled rows.
    """

    d0_inv: np.ndarray  # 1 / D0
    r: CsrMatrix  # R D0^-1, coupled rows first
    rt: CsrMatrix
    c_inv: np.ndarray  # dense inverse of C on the coupled rows

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(I + A^T A)^-1 rhs``, for a vector or for each row of a 2-D stack."""
        v = self.r @ rhs
        kc = self.c_inv.shape[0]
        v[..., :kc] = np.matmul(self.c_inv, v[..., :kc, None])[..., 0]
        return rhs * self.d0_inv - self.rt @ v


def _gram_inverse(a: CsrMatrix) -> _GramInverse:
    """The exact inverse of I + A^T A by the Woodbury identity.

    A row of A with one nonzero a adds a^2 to a diagonal entry of
    I + A^T A; together with I these rows give the diagonal D0.  The k
    rows with several nonzeros form R, so I + A^T A = D0 + R^T R and

        (I + A^T A)^-1 = D0^-1 - D0^-1 R^T C^-1 R D0^-1,  C = I + R D0^-1 R^T.

    C_ij is nonzero off the diagonal only when rows i and j of R share a
    column.  The kc rows that share a column with another are the coupled
    rows; C is diagonal on the others, and only its kc x kc coupled part is
    formed densely and inverted (C >= I, so it is well conditioned).  In
    the package's Choi programs R holds the rows of the operator-norm
    blocks, and the coupled ones are their diagonal rows, which share s.
    Neither A^T A nor any dense k x m matrix is formed.
    """
    m = a.shape[1]
    counts = np.diff(a.indptr)
    single = np.repeat(counts == 1, counts)  # entries alone in their row
    multi = np.repeat(counts > 1, counts)
    d0_inv = 1.0 / (1.0 + _sum_at(a.indices[single], a.data[single] ** 2, m))
    in_shared = multi & (np.bincount(a.indices[multi], minlength=m)[a.indices] > 1)
    coupled = np.zeros(a.shape[0], dtype=bool)
    coupled[a.row_of[in_shared]] = True
    kc = int(coupled.sum())
    r = _take_rows(a, np.concatenate([np.flatnonzero(coupled),
                                      np.flatnonzero((counts > 1) & ~coupled)]))
    rt = r.T
    c_diag = 1.0 + _sum_at(r.row_of, r.data ** 2 * d0_inv[r.indices], r.shape[0])
    # Off the diagonal, each ordered pair (e, f) of distinct entries in one
    # column j of R adds R_e R_f / D0_j to C.  Entry e of R^T is paired with
    # every entry of its column: it is repeated once per entry there, and
    # its partners run from the column's first entry on.
    size = np.repeat(np.diff(rt.indptr), np.diff(rt.indptr))  # entries in each entry's column
    first = np.repeat(np.arange(rt.nnz), size)
    start = rt.indptr[rt.row_of] - (np.cumsum(size) - size)
    second = np.arange(first.size) + np.repeat(start, size)
    off = first != second
    first, second = first[off], second[off]
    c = _sum_at(rt.indices[first] * kc + rt.indices[second],
                rt.data[first] * rt.data[second] * d0_inv[rt.row_of[first]], kc * kc)
    c = c.reshape(kc, kc) + np.diag(c_diag[:kc])
    c_inv_diag = np.concatenate([np.ones(kc), 1.0 / c_diag[kc:]])
    r.data *= d0_inv[r.indices]
    rt.data *= d0_inv[rt.row_of] * c_inv_diag[rt.indices]
    return _GramInverse(d0_inv, r, rt, np.linalg.inv(c))


class _Setup(NamedTuple):
    """The part of a solve fixed by the constraint matrix alone; shared, read-only."""

    a: CsrMatrix  # D A E after Ruiz scaling
    at: CsrMatrix
    d_row: np.ndarray
    e_col: np.ndarray
    block_slices: tuple[slice, ...]
    gram: _GramInverse


def _structure_key(program: ConicProgram) -> tuple:
    """The exact bytes A is assembled from, so equal keys mean equal A."""
    blocks = []
    for blk in program.psd_blocks:
        lin = blk.lin
        blocks.append((blk.size, lin.shape) + tuple(
            (arr.dtype.str, arr.tobytes()) for arr in (lin.indptr, lin.indices, lin.data)))
    return tuple(blocks)


def _build_setup(program: ConicProgram) -> _Setup:
    """Assemble A, equilibrate it and invert I + A^T A; F0, b and c are not read."""
    parts, block_slices, off = [], [], 0
    for blk in program.psd_blocks:
        block_slices.append(slice(off, off + blk.size ** 2))
        # cone row: s_block = svec(F0) + lin y  =>  -lin y + s = svec(F0)
        parts.append(-blk.lin)
        off += blk.size ** 2
    a = _vstack(parts)
    d_row, e_col = _ruiz_equilibrate(a, block_slices, RUIZ_ITERS)
    at = a.T
    gram = _gram_inverse(a)
    for arr in (d_row, e_col, gram.d0_inv, gram.c_inv):
        arr.setflags(write=False)
    for mat in (a, at, gram.r, gram.rt):
        for arr in (mat.data, mat.indices, mat.indptr, mat.row_of):
            arr.setflags(write=False)
    return _Setup(a, at, d_row, e_col, tuple(block_slices), gram)


def _spd_solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """``lhs^-1 rhs``, or None when Cholesky finds ``lhs`` not positive definite.

    The factor only decides definiteness, as LAPACK's dposv reports it:
    numpy has no triangular solve, and one LU solve of the small system
    costs less than two through ``np.linalg.solve``.
    """
    try:
        np.linalg.cholesky(lhs)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(lhs, rhs)


def _spd_solve_rows(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """:func:`_spd_solve` for a stack of systems; NaN rows where ``lhs[k]`` is not definite.

    The stacked ``cholesky`` and ``solve`` give each system its own bits;
    only when some factor fails are the systems solved one by one.
    """
    try:
        np.linalg.cholesky(lhs)
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = [_spd_solve(mat, vec) for mat, vec in zip(lhs, rhs)]
        return np.stack([np.full(rhs.shape[1], np.nan) if x is None else x for x in out])


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of the rows of two stacks, or of two vectors, with the bits of ``np.dot``."""
    if x.ndim == 1:
        return np.dot(x, y)
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _dist_to_cone(neg_w: np.ndarray, block_slices, qs) -> float:
    """Euclidean distance of a row-space vector to the cone K."""
    sq = 0.0
    for sl, q in zip(block_slices, qs):
        neg = np.clip(np.linalg.eigvalsh(unsvec(neg_w[sl], q)), None, 0.0)
        sq += float(np.dot(neg, neg))
    return float(np.sqrt(sq))


# Fixed solver settings; no caller tunes them.
OVER_RELAX = 1.5
RUIZ_ITERS = 10
# Residual checks are at most this many iterations apart.
CHECK_EVERY = 25
# Relative accuracy an infeasibility certificate must reach.
INFEAS_TOL = 1e-8
# Iterations a program may run before it stops with status ``max_iterations``.
MAX_ITER = 200_000
# Bytes of stacked iterate state a lockstep run may hold; larger groups run in chunks.
BATCH_BYTES = 2 << 20
# Programs run in lockstep only when at least this many fit in BATCH_BYTES.  A
# larger program's per-row work outweighs numpy's per-call cost, and stacking
# it only adds copies, so it runs alone.
LOCKSTEP_MIN = 4
# Anderson acceleration (type-II) of the x fixed-point map and its safeguards
AA_MEMORY = 10
AA_REG = 1e-9  # Tikhonov weight relative to the trace of the Gram matrix
AA_SAFEGUARD = 4.0  # largest growth of the fixed-point residual an extrapolation may cause
AA_MAX_WEIGHT = 1e6
_EYE = np.eye(AA_MEMORY)
_EYE.setflags(write=False)


def _state_bytes(setup: _Setup) -> int:
    """Bytes of stacked state one program adds to a lockstep run, temporaries included."""
    size = sum(setup.a.shape) + 1
    # S doubles: 2 * AA_MEMORY of Anderson memory, 11 of iterates, scratch and data, and 13 of
    # temporaries such as a row group's gathered memory; then the Gram, projection and CSR indices
    return 8 * (size * (2 * AA_MEMORY + 24) + AA_MEMORY ** 2 + 4 * setup.a.shape[0] + 4 * setup.a.nnz)


def _keeps_tau(ext, plain):
    """Whether extrapolated x_tau may replace the plain ones: neither tau = max(x_tau, 0) nor
    tau + kappa = |x_tau| may halve, lest x head for tau = 0 or for x = 0, which certifies nothing."""
    return (np.maximum(ext, 0.0) >= 0.5 * np.maximum(plain, 0.0)) & (np.abs(ext) >= 0.5 * np.abs(plain))


class _Lockstep:
    """ADMM on the HSDE for programs of one constraint structure, iterated together.

    Row k of every stacked array belongs to the program ``ids[k]``; a
    program that stops leaves the rows.  Each program keeps its iterate x
    and u = Pi(x), tau, kappa, beta and gamma, Anderson memory and
    safeguard, check schedule, best point and stop, and each kernel gives
    a row the bits it gives that program alone: elementwise arithmetic,
    row-wise ``matmul`` for every dot product, matrix-vector product and
    norm, stacked CSR products, stacked ``eigh``, and Anderson solves
    stacked by memory fill.  :meth:`run` alternates a step and the
    projection of its output, which the next step and :meth:`_check` both
    read; :meth:`finish` builds one program's solution.  While one row is
    left the step is :meth:`_step_one`: the same iteration on its 1-D
    views, at about two thirds of the cost of :meth:`_step` on one row.
    """

    _STACKED = ("ids", "b", "c", "b_s", "c_s", "beta", "gamma", "norm_b", "norm_c", "g",
                "denom", "x", "u", "xo", "xg", "f", "f_old", "f_sq_old", "d_f", "d_g", "aa_gram",
                "stored", "slot", "on_trial", "next_check")

    def __init__(self, setup: _Setup, programs: list[ConicProgram], index: list[int | None],
                 tol: float):
        self.setup, self.programs, self.index = setup, programs, index
        self.tol, self.max_iter = tol, MAX_ITER
        a, _, d_row, e_col, block_slices, _ = setup
        n = len(programs)
        m, rows = a.shape[1], a.shape[0]
        self.m, self.rows, self.size = m, rows, m + rows + 1
        self.qs = [blk.size for blk in programs[0].psd_blocks]
        self.project_psd = _psd_projector(self.qs)

        # --- b in svec coordinates, and the b/c normalization ----------------
        self.b = np.zeros((n, rows))
        for b, program in zip(self.b, programs):
            for blk, sl in zip(program.psd_blocks, block_slices):
                b[sl] = svec(blk.f0)
        self.c = np.stack([program.objective for program in programs])
        self.b_s, self.c_s = d_row * self.b, e_col * self.c
        self.norm_b = np.sqrt(_rowdot(self.b, self.b))
        self.norm_c = np.sqrt(_rowdot(self.c, self.c))
        self.beta = np.clip(1.0 / np.maximum(np.sqrt(_rowdot(self.b_s, self.b_s)), 1e-10), 1e-6, 1e6)
        self.gamma = np.clip(1.0 / np.maximum(np.sqrt(_rowdot(self.c_s, self.c_s)), 1e-10), 1e-6, 1e6)
        self.b_s *= self.beta[:, None]
        self.c_s *= self.gamma[:, None]
        self.ids = np.arange(n)
        self._scratch(n)
        # --- linear system: M = [[I, A^T], [-A, I]] via (I + A^T A) ----------
        self.g = np.zeros((n, self.size))  # (g_x, g_y, 0)
        g_x = self._solve_m(self.c_s, self.b_s, self.g)
        self.denom = 1.0 + (_rowdot(self.c_s, g_x) + _rowdot(self.b_s, self.g[:, m:-1]))

        # x is the map's input, u = Pi(x), and xo the map's output; xg keeps
        # the last plain output, the point an extrapolated x on trial falls back to.
        self.x, self.u, self.xo, self.xg, self.f, self.f_old = np.zeros((6, n, self.size))
        self.x[:, -1] = self.u[:, -1] = 1.0  # tau = 1, kappa = 0
        self.d_f, self.d_g = (np.zeros((n, AA_MEMORY, self.size)) for _ in range(2))
        self.aa_gram = np.zeros((n, AA_MEMORY, AA_MEMORY))
        self.stored, self.slot = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        self.on_trial = np.zeros(n, dtype=bool)
        self.f_sq_old = np.zeros(n)
        self.next_check = np.full(n, min(CHECK_EVERY, self.max_iter))

        # per-program records, indexed by position in ``programs``
        self.history: list[list] = [[] for _ in range(n)]
        self.best_score = [np.inf] * n
        self.best_point: list[tuple | None] = [None] * n
        self.last_check: list[tuple[int, float] | None] = [None] * n  # (iteration, sigma)
        self.status: list[str | None] = [None] * n
        self.message = [""] * n
        self.iterations = [self.max_iter] * n

    def _scratch(self, n: int):
        self.row_ix = np.arange(n)
        self.w, self.t = (np.empty((n, self.size)) for _ in range(2))

    def _solve_m(self, wx: np.ndarray, wy: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Solve M (x, y) = (wx, wy), row by row for stacks, into ``out[..., :m]`` and
        ``out[..., m:m + rows]``; returns x."""
        m, a, at, gram = self.m, self.setup.a, self.setup.at, self.setup.gram
        x = gram.solve(wx - at @ wy)
        out[..., :m] = x
        np.add(wy, a @ x, out=out[..., m:m + self.rows])
        return x

    def run(self):
        """Iterate until every program has stopped or reached ``MAX_ITER``."""
        next_check = int(self.next_check.min())
        for it in range(1, self.max_iter + 1):
            check = it == next_check
            if self.ids.size == 1:
                self._step_one(it, check)
                self._project(self.x[0], self.u[0])
            else:
                self._step(it, self.next_check == it if check else None)
                self._project(self.x, self.u)
            if not check:
                continue
            self._check(it, np.flatnonzero(self.next_check == it))
            if not self.ids.size:
                break
            next_check = int(self.next_check.min())

    def _admm(self, x, u, xo, w, t, c_s, b_s, g, denom):
        """One ADMM iteration from ``x`` and u = Pi(x) into ``xo``, on 1-D views or on stacks."""
        np.multiply(u, 2.0, out=w)
        w -= x
        t_x = self._solve_m(w[..., :self.m], w[..., self.m:-1], t)
        tau_t = (w[..., -1] + _rowdot(c_s, t_x) + _rowdot(b_s, t[..., self.m:-1])) / denom
        t[..., -1] = tau_t
        # over-relaxed step x+ = x + alpha (t - tau_t g - u)
        np.multiply(g.T, tau_t, out=xo.T)
        np.subtract(t, xo, out=xo)
        xo -= u
        xo *= OVER_RELAX
        xo += x

    def _project(self, x: np.ndarray, u: np.ndarray):
        """u = Pi(x) onto R^m x PSD x R_+, keeping a -0.0 tau as max(-0.0, 0.0) does."""
        u[...] = x
        self.project_psd(u[..., self.m:-1])
        np.copyto(u[..., -1:], 0.0, where=u[..., -1:] < 0.0)

    def _step(self, it: int, check: np.ndarray | None):
        """One ADMM iteration and Anderson step of every row; ``check`` rows stay plain."""
        x, xo, xg, f = self.x, self.xo, self.xg, self.f
        self._admm(x, self.u, xo, self.w, self.t, self.c_s, self.b_s, self.g, self.denom)

        # Anderson step on x; residual checks read plain output, so they never
        # extrapolate.  xg holds the last plain output of every row.
        np.subtract(xo, x, out=f)
        f_sq = _rowdot(f, f)
        # an extrapolated point that made the residual grow (or overflow) is
        # dropped: its row restarts from the plain output with cleared memory
        fail = self.on_trial & ~(f_sq <= AA_SAFEGUARD ** 2 * self.f_sq_old)
        any_fail = bool(fail.any())
        self.stored[fail] = self.slot[fail] = 0
        # from the second iteration on, every kept row extends its memory
        trials = []
        if it > 1:
            for sel, s in self._remember(self.row_ix[~fail] if any_fail else self.row_ix):
                if check is not None:
                    sel = sel[~check[sel]]
                if sel.size:
                    trials.append(self._extrapolate(sel, s))

        # kept rows: f becomes f_old and xo the plain output xg; x is xg or the extrapolated point
        if any_fail:
            kept = ~fail[:, None]
            np.copyto(self.f_old, f, where=kept)
            self.f_sq_old = np.where(fail, self.f_sq_old, f_sq)
            np.copyto(xg, xo, where=kept)
        else:
            self.f, self.f_old, self.f_sq_old = self.f_old, f, f_sq
            self.xg, self.xo = xo, xg
        x[...] = self.xg
        self.on_trial = np.zeros(self.row_ix.size, dtype=bool)
        for sel, x_ext in trials:
            x[sel] = x_ext
            self.on_trial[sel] = True

    def _at(self, sel: np.ndarray):
        """Rows ``sel`` as an index: a slice, so indexing gives views, when they are all rows."""
        return slice(None) if sel.size == self.row_ix.size else sel

    def _remember(self, ok: np.ndarray) -> list:
        """Extend the Anderson memory of the rows ``ok``; returns them grouped by fill s."""
        at = self._at(ok)
        slot = self.slot[ok]
        self.d_f[ok, slot] = self.f[at] - self.f_old[at]
        self.d_g[ok, slot] = self.xo[at] - self.xg[at]
        fills = np.minimum(self.stored[ok] + 1, AA_MEMORY)
        self.stored[ok] = fills
        self.slot[ok] = (slot + 1) % AA_MEMORY
        groups = []
        for s in sorted(set(fills.tolist())):  # np.unique would import numpy.ma
            ix, sl = ok[fills == s], slot[fills == s]
            row = np.matmul(self.d_f[self._at(ix), :s], self.d_f[ix, sl, :, None])[..., 0]
            self.aa_gram[ix, sl, :s] = row
            self.aa_gram[ix, :s, sl] = row
            groups.append((ix, s))
        return groups

    def _extrapolate(self, sel: np.ndarray, s: int):
        """Type-II Anderson points of the rows ``sel``, all of memory fill s.

        Returns the rows whose point :func:`_keeps_tau` accepts, and those
        points.  Rows whose memory is degenerate (singular Gram, huge or
        non-finite weights) clear it and drop out.
        """
        at = self._at(sel)
        lhs = self.aa_gram[at, :s, :s]
        lhs = lhs + (AA_REG * lhs.trace(axis1=1, axis2=2))[:, None, None] * _EYE[:s, :s]
        weights = _spd_solve_rows(lhs, np.matmul(self.d_f[at, :s], self.f[at, :, None])[..., 0])
        good = np.abs(weights).max(axis=1) <= AA_MAX_WEIGHT
        if not good.all():
            self.stored[sel[~good]] = self.slot[sel[~good]] = 0
            sel, weights = sel[good], weights[good]
            at = sel
        x_ext = self.xo[at] - np.matmul(weights[:, None, :], self.d_g[at, :s])[:, 0]
        keep = _keeps_tau(x_ext[:, -1], self.xo[at, -1])
        return sel[keep], x_ext[keep]

    def _step_one(self, it: int, check: bool):
        """:meth:`_step` for a chunk of one row, on its 1-D views with the 1-D kernels.

        Buffers are swapped, not copied, so the plain output is ``xg`` while
        the row is on trial and ``x`` otherwise.
        """
        x, xo, xg, f = self.x[0], self.xo[0], self.xg[0], self.f[0]
        self._admm(x, self.u[0], xo, self.w[0], self.t[0], self.c_s[0], self.b_s[0], self.g[0],
                   self.denom[0])
        np.subtract(xo, x, out=f)
        f_sq = np.dot(f, f)
        on_trial = self.on_trial[0]
        if on_trial and not f_sq <= AA_SAFEGUARD ** 2 * self.f_sq_old[0]:
            self.x, self.xg = self.xg, self.x
            self.stored[0] = self.slot[0] = self.on_trial[0] = 0
            return
        d_f, d_g, gram = self.d_f[0], self.d_g[0], self.aa_gram[0]
        s = int(self.stored[0])
        if it > 1:
            sl = int(self.slot[0])
            s = min(s + 1, AA_MEMORY)
            np.subtract(f, self.f_old[0], out=d_f[sl])
            np.subtract(xo, xg if on_trial else x, out=d_g[sl])
            np.dot(d_f[:s], d_f[sl], out=gram[sl, :s])
            gram[:s, sl] = gram[sl, :s]
            self.stored[0], self.slot[0] = s, (sl + 1) % AA_MEMORY
        self.f, self.f_old, self.f_sq_old[0] = self.f_old, self.f, f_sq
        trial = False
        if s and not check:
            lhs = gram[:s, :s]
            weights = _spd_solve(lhs + AA_REG * lhs.trace() * _EYE[:s, :s], d_f[:s] @ f)
            if weights is None or not np.abs(weights).max() <= AA_MAX_WEIGHT:
                self.stored[0] = self.slot[0] = 0
            else:
                np.dot(weights, d_g[:s], out=x)
                np.subtract(xo, x, out=x)
                trial = bool(_keeps_tau(x[-1], xo[-1]))
        if trial:
            self.xg, self.xo = self.xo, self.xg
        else:
            self.x, self.xo = self.xo, self.x
        self.on_trial[0] = trial

    def _check(self, it: int, rows: np.ndarray):
        """Residual check of ``rows`` at iteration ``it``; stopped programs leave the rows."""
        m = self.m
        a, at, d_row, e_col, block_slices = self.setup[:5]
        u = self.u[self._at(rows)]
        v = u - self.x[self._at(rows)]
        finite = np.isfinite(u).all(axis=1)
        if not finite.all():
            j = self.ids[rows[np.argmin(finite)]]
            raise SolverError(f"iterate diverged to non-finite values at iteration {it}",
                              self.index[j])
        tau, kappa = u[:, -1], v[:, -1]
        live = tau > 1e-9 * np.where(kappa > 1.0, kappa, 1.0)
        stopped = []

        if live.any():
            lv = slice(None) if live.all() else live
            lr = rows[lv]
            ix, tau_l = self._at(lr), tau[lv, None]
            x_hat, eta_hat, s_hat = u[lv, :m] / tau_l, u[lv, m:-1] / tau_l, v[lv, m:-1] / tau_l
            beta, gamma = self.beta[ix, None], self.gamma[ix, None]
            # unscaled candidates
            x = e_col * x_hat / beta
            eta = d_row * eta_hat / gamma
            # residuals in original data coordinates
            rp_vec = (a @ x_hat + s_hat - self.b_s[ix]) / (d_row * beta)
            rd_vec = (at @ eta_hat + self.c_s[ix]) / (e_col * gamma)
            res_p = np.sqrt(_rowdot(rp_vec, rp_vec)) / (1.0 + self.norm_b[ix])
            res_d = np.sqrt(_rowdot(rd_vec, rd_vec)) / (1.0 + self.norm_c[ix])
            pobj = _rowdot(self.c[ix], x)
            dobj = -_rowdot(self.b[ix], eta)
            res_g = np.abs(pobj - dobj) / (1.0 + np.abs(pobj) + np.abs(dobj))
            for k, (row, rp, rd, rg, po, do) in enumerate(zip(
                    lr.tolist(), res_p.tolist(), res_d.tolist(), res_g.tolist(),
                    pobj.tolist(), dobj.tolist())):
                j = int(self.ids[row])
                self.history[j].append((it, rp, rd, rg))
                score = max(rp, rd, rg)
                if score < self.best_score[j]:
                    self.best_score[j] = score
                    self.best_point[j] = (x[k].copy(), eta[k].copy(), po, do, rp, rd, rg, it)
                sigma = max(rp / self.tol, rd / self.tol, rg / self.tol)
                if sigma <= 1.0:
                    self.status[j], self.iterations[j] = "optimal", it
                    stopped.append(row)
                    continue
                last = self.last_check[j]
                drop = math.log(last[1] / sigma) if last else 0.0
                wait = CHECK_EVERY  # iterations to the next residual check
                if drop > 0:
                    # sigma decays geometrically: check where it is predicted to reach 1
                    wait = math.ceil((it - last[0]) * math.log(sigma) / drop)
                    wait = max(1, min(CHECK_EVERY, wait))
                self.last_check[j] = (it, sigma)
                self.next_check[row] = min(it + wait, self.max_iter)

        for row in rows[~live].tolist():
            # tau collapsed: look for infeasibility certificates
            j = int(self.ids[row])
            self.last_check[j] = None
            uu = self.u[row]
            gamma, beta = self.gamma[row], self.beta[row]
            message = ""
            eta_c = d_row * uu[m:-1] / gamma
            bty = float(self.b[row] @ eta_c)
            if bty < -1e-12:
                atn = float(np.linalg.norm((at @ uu[m:-1]) / (e_col * gamma)))
                if atn * max(1.0, float(self.norm_b[row])) <= INFEAS_TOL * (-bty):
                    message = "primal infeasibility certificate found"
            x_c = e_col * uu[:m] / beta
            ctx = float(self.c[row] @ x_c)
            if not message and ctx < -1e-12:
                w_rows = (a @ uu[:m]) / (d_row * beta)
                dist = _dist_to_cone(-w_rows, block_slices, self.qs)
                if dist * max(1.0, float(self.norm_c[row])) <= INFEAS_TOL * (-ctx):
                    message = "dual infeasibility certificate found; primal appears unbounded"
            if message:
                self.status[j], self.message[j], self.iterations[j] = \
                    "infeasible_suspected", message, it
                stopped.append(row)
            else:
                self.next_check[row] = min(it + CHECK_EVERY, self.max_iter)

        if len(stopped) == self.ids.size:
            self.ids = self.ids[:0]  # the run is over
        elif stopped:
            keep = np.ones(self.ids.size, dtype=bool)
            keep[stopped] = False
            for name in self._STACKED:
                setattr(self, name, getattr(self, name)[keep])
            self._scratch(self.ids.size)

    def finish(self, j: int) -> ConicSolution:
        """The solution of program ``j`` once the run is over."""
        program, status, iterations = self.programs[j], self.status[j], self.iterations[j]
        m, history = self.m, self.history[j]
        if status == "infeasible_suspected":
            nan = np.nan
            return ConicSolution(
                status=status, primal_value=nan, y=np.full(m, nan), dual_value=nan,
                psd_residual=nan, gap=nan, iterations=iterations,
                res_primal=nan, res_dual=nan, message=self.message[j], history=history,
            )
        if self.best_point[j] is None:
            raise SolverError(
                f"no usable iterate after {iterations} iterations "
                f"(tau stayed degenerate; the program may be pathological)", self.index[j])
        x, eta, pobj, dobj, res_p, res_d, res_g, seen_at = self.best_point[j]
        message = ""
        if status is None:
            status = "max_iterations"
            message = (f"iteration limit {self.max_iter} reached; best residuals "
                       f"primal {res_p:.3e} dual {res_d:.3e} gap {res_g:.3e} at iteration {seen_at}")
        return ConicSolution(
            status=status,
            primal_value=pobj,
            y=x,
            dual_value=dobj,
            # direct feasibility measurements at the returned point
            psd_residual=_psd_residual(program, x),
            gap=res_g,
            iterations=iterations,
            res_primal=res_p,
            res_dual=res_d,
            dual_psd=[unsvec(eta[sl], q) for sl, q in zip(self.setup.block_slices, self.qs)],
            message=message,
            history=history,
        )


def solve_all(programs: list[ConicProgram], *, tol: float = 1e-8) -> list[ConicSolution]:
    """Solve many programs; each gets, bit for bit, the solution :func:`solve` gives it.

    Programs are grouped by constraint structure (:func:`_structure_key`),
    each group's setup is built once, and the group runs in lockstep, in
    input order and in chunks of at most ``BATCH_BYTES`` of stacked state
    (one program at least) that share that setup: one iteration of the
    chunk is one iteration of each program still running, so numpy's
    per-call cost is paid once per chunk.  Solutions come back in input
    order.  Arguments and outcomes are those of :func:`solve`; a
    ``SolverError`` from a batch of several names the failing program by
    its position.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    groups: dict[tuple, list[int]] = {}
    for i, program in enumerate(programs):
        groups.setdefault(_structure_key(program), []).append(i)
    out: list[ConicSolution | None] = [None] * len(programs)
    for members in groups.values():
        setup = _build_setup(programs[members[0]])
        chunk = BATCH_BYTES // _state_bytes(setup)
        if chunk < LOCKSTEP_MIN:
            chunk = 1
        for start in range(0, len(members), chunk):
            part = members[start:start + chunk]
            index = [i if len(programs) > 1 else None for i in part]
            run = _Lockstep(setup, [programs[i] for i in part], index, tol)
            run.run()
            for j, i in enumerate(part):
                out[i] = run.finish(j)
    return out


def solve(program: ConicProgram, *, tol: float = 1e-8) -> ConicSolution:
    """Solve a program to the normalized tolerance ``tol``: ``solve_all([program])[0]``.

    Termination: primal residual / (1 + ||b||), dual residual / (1 + ||c||)
    and relative duality gap all below ``tol``.  When the iteration cap
    ``MAX_ITER`` is hit the best candidate seen is returned with status
    ``max_iterations``; infeasibility certificates come back as
    ``infeasible_suspected`` (a dual-infeasibility certificate, meaning an
    unbounded primal, is reported the same way and distinguished in the
    message).  ``tol`` must be positive and finite; anything else raises
    ``ValueError``.

    Residual checks are scheduled from the measured convergence rate.  A
    check scores the iterate by sigma = max(res_p, res_d, gap) / tol, and
    the solve stops once sigma <= 1.  When sigma fell since the previous
    check, the next check goes where the geometric decay between the two
    predicts sigma = 1, between 1 and ``CHECK_EVERY`` iterations ahead;
    otherwise it comes ``CHECK_EVERY`` iterations later.  The setup, which depends on the constraint matrix
    alone, is built for this call; :func:`solve_all` shares one setup among
    the programs of one structure in its batch.
    """
    return solve_all([program], tol=tol)[0]
