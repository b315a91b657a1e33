"""A small first-order conic solver for Hermitian semidefinite programs.

Problems take the variational form

    minimize    c . y
    subject to  F0_l + sum_k y_k Fk_l  is PSD      (one block per l)

with real variables ``y`` and complex Hermitian data ``F``; the cone is
a product of PSD blocks alone.  The solver runs ADMM on the homogeneous
self-dual embedding (the splitting SCS made standard): primal and dual
are folded into one monotone inclusion whose fixed point encodes either
an optimal pair or an infeasibility certificate.  Each iteration solves
one quasi-definite linear system and projects onto the cone product;
over-relaxation and Ruiz equilibration speed up the linear rate, and
safeguarded type-II Anderson acceleration of the fixed-point map
z = (u, v) -> (u+, v+) cuts the iteration count (Zhang, O'Donoghue and
Boyd, 2020): residual checks read plain iterates, and an extrapolated
point that halves tau, or whose image grows the fixed-point residual, is
dropped for the plain one.

The constraint matrix A stays sparse (CSR, :class:`CsrMatrix`, numpy
arrays only) from assembly through Ruiz scaling, residual checks and
infeasibility tests; the linear system is reduced to ``I + A^T A``,
whose inverse is built once, exactly, by the Woodbury identity
(:func:`_gram_inverse`): the rows of A with one nonzero give a diagonal,
the others a small sparse correction with one small dense block.  The
package's programs have about two nonzeros per column of A, so memory
and per-iteration cost scale with the nonzeros, not with rows x columns.
A depends only on the block sizes and the linear parts; F0 enters
through b alone.  So the assembled and equilibrated A, the inverse's
parts and the projection's index arrays are kept, read-only, for the
``SETUP_CACHE_SIZE`` most recently used structures, keyed by their exact
bytes; a program that shares its structure with an earlier one skips
that setup and gets the output a fresh setup would give.

Residual checks are at most ``CHECK_EVERY`` iterations apart.  Each
check scores the iterate against the tolerances, and while that score
decays the next check is placed where the measured geometric rate says
it reaches them, so a solve stops within a few iterations of converging.

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
one gather back into svec order; the other iterate updates run on
preallocated full-length vectors.

Everything is deterministic: no randomness, fixed iteration order, a
fixed factorization and a check schedule read from the iterates, so
repeated solves of the same program give bit-identical output.
"""

from __future__ import annotations

import collections
import functools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from decnorms import linalg

_SQRT2 = np.sqrt(2.0)


class SolverError(Exception):
    """Raised for malformed programs; solver outcomes are returned, not raised."""


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
    """Inverse of :func:`svec`.

    This runs in complex arithmetic, not through the real gather of the
    map, so a -0.0 coordinate yields the signed zeros complex division gives.
    """
    v = np.asarray(vec, dtype=np.float64)
    if v.shape != (q * q,):
        raise ValueError(f"svec vector for size {q} must have length {q * q}")
    mp = _svec_map(q)
    t = mp.upper.size
    out = np.zeros(q * q, dtype=np.complex128)
    out[mp.diag] = v[:q]
    off = (v[q:q + t] + 1j * v[q + t:]) / _SQRT2
    out[mp.upper] = off
    out[mp.lower] = off.conj()
    return out.reshape(q, q)


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
    deterministic.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "row_of")

    def __init__(self, shape: tuple[int, int], indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.row_of = np.repeat(np.arange(self.shape[0]), np.diff(indptr))

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
        return _sum_at(self.row_of, self.data * x[self.indices], self.shape[0])


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
    """

    def __init__(self, size: int, num_vars: int):
        self.size = size
        self.num_vars = num_vars
        self.f0 = np.zeros((size, size), dtype=np.complex128)
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

    def add_constant(self, mat: np.ndarray, row0: int = 0):
        m = np.asarray(mat, dtype=np.complex128)
        qsub = m.shape[0]
        self.f0[row0:row0 + qsub, row0:row0 + qsub] += m

    def add_constant_offdiag(self, mat: np.ndarray, row0: int, col0: int):
        """Place a constant rectangular block at (row0, col0), mirrored."""
        m = np.asarray(mat, dtype=np.complex128)
        r, c = m.shape
        if row0 == col0:
            raise SolverError("use add_constant for diagonal placements")
        self.f0[row0:row0 + r, col0:col0 + c] += m
        self.f0[col0:col0 + c, row0:row0 + r] += m.conj().T

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

    def build(self) -> PsdBlockSpec:
        q = self.size
        if self._rows:
            rows = np.concatenate(self._rows)
            cols = np.concatenate(self._cols)
            vals = np.concatenate(self._vals)
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0)
        lin = _csr_from_entries((q * q, self.num_vars), rows, cols, vals)
        return PsdBlockSpec(size=q, f0=self.f0, lin=lin)


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
    solve_seconds: float = 0.0
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


def verify_certificate(program: ConicProgram, sol: ConicSolution, tol: float = 1e-6) -> CertificateReport:
    """Recompute all residuals of a reported solution from scratch.

    Primal feasibility, objective values, dual feasibility (cone membership
    and stationarity of the Lagrangian) and the duality gap are rebuilt
    from the program data alone; any disagreement with the reported fields
    beyond ``tol`` is listed in ``discrepancies``.
    """
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


class _Projection(NamedTuple):
    """Index arrays of the projection of a cone segment; see :func:`_psd_projector`.

    ``seg[src] * scale`` fills the float64 view of the stacked matrices at
    ``dst``; ``groups`` holds one (slice, stack shape) per block size, and
    ``mats_f64[read] * read_scale`` reads the segment back.
    """

    src: np.ndarray
    dst: np.ndarray
    scale: np.ndarray
    read: np.ndarray
    read_scale: np.ndarray
    groups: tuple
    length: int  # complex entries of the stacked matrices


def _projection(qs: list[int]) -> _Projection:
    """Read-only index arrays projecting onto PSD blocks of sizes ``qs``."""
    sizes = np.array([q * q for q in qs])
    offs = np.cumsum(sizes) - sizes  # segment offset of each block
    order = np.argsort(qs, kind="stable")
    base = np.empty_like(offs)  # complex offset of each block in the matrix buffers
    base[order] = np.cumsum(sizes[order]) - sizes[order]
    maps = [_svec_map(q) for q in qs]
    groups, start = [], 0
    for q in sorted(set(qs)):
        nb = qs.count(q)
        groups.append((slice(start, start + nb * q * q), (nb, q, q)))
        start += nb * q * q
    out = _Projection(
        np.concatenate([o + mp.src for o, mp in zip(offs, maps)]),
        np.concatenate([2 * o + mp.dst for o, mp in zip(base, maps)]),
        np.concatenate([mp.scale for mp in maps]),
        np.concatenate([2 * o + mp.read for o, mp in zip(base, maps)]),
        np.concatenate([mp.read_scale for mp in maps]),
        tuple(groups), start,
    )
    for arr in out[:5]:
        arr.setflags(write=False)
    return out


def _psd_projector(plan: _Projection):
    """In-place projection of a cone segment onto its PSD blocks, with its own buffers.

    The segment holds the blocks' svec vectors back to back.  Blocks are
    grouped by size: one gather fills every group's stacked matrices (real
    arithmetic on their float64 view), each group takes one ``eigh``, and
    one gather reads the projections back in segment order.
    """
    src, dst, scale, read, read_scale, groups, length = plan
    mats = np.zeros(length, dtype=np.complex128)  # imaginary diagonal parts stay zero
    projs = np.empty(length, dtype=np.complex128)
    mats_f, projs_f = mats.view(np.float64), projs.view(np.float64)

    def project(seg: np.ndarray):
        mats_f[dst] = seg[src] * scale
        for sl, shape in groups:
            w, vecs = np.linalg.eigh(mats[sl].reshape(shape))
            np.maximum(w, 0.0, out=w)
            np.matmul(vecs * w[:, None, :], vecs.conj().swapaxes(-1, -2),
                      out=projs[sl].reshape(shape))
        np.multiply(projs_f[read], read_scale, out=seg)

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
        """``(I + A^T A)^-1 rhs``."""
        v = self.r @ rhs
        kc = self.c_inv.shape[0]
        v[:kc] = self.c_inv @ v[:kc]
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
    projection: _Projection


# Setups of the most recently solved constraint structures, least recent first.
_setups: collections.OrderedDict[tuple, _Setup] = collections.OrderedDict()


def _structure_key(program: ConicProgram) -> tuple:
    """The exact bytes A is assembled from, so equal keys mean equal A."""
    blocks = []
    for blk in program.psd_blocks:
        lin = blk.lin
        blocks.append((blk.size, lin.shape) + tuple(
            (arr.dtype.str, arr.tobytes()) for arr in (lin.indptr, lin.indices, lin.data)))
    return tuple(blocks)


def _setup(program: ConicProgram) -> _Setup:
    """The setup of the program's constraint structure, built or reused.

    The setup reads neither F0, b nor c, so programs that share the
    constraint structure share one setup: the last ``SETUP_CACHE_SIZE``
    structures are kept, keyed by :func:`_structure_key`.
    """
    key = _structure_key(program)
    setup = _setups.pop(key, None)
    if setup is None:
        setup = _build_setup(program)
    _setups[key] = setup  # most recently used last
    if len(_setups) > SETUP_CACHE_SIZE:
        _setups.popitem(last=False)
    return setup


def _build_setup(program: ConicProgram) -> _Setup:
    """Assemble A, equilibrate it, invert I + A^T A and plan the projection."""
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
    return _Setup(a, at, d_row, e_col, tuple(block_slices), gram,
                  _projection([blk.size for blk in program.psd_blocks]))


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


# Fixed solver settings; no caller tunes them.
OVER_RELAX = 1.5
RUIZ_ITERS = 10
# Residual checks are at most this many iterations apart.
CHECK_EVERY = 25
# Relative accuracy an infeasibility certificate must reach.
INFEAS_TOL = 1e-8
# Constraint structures whose setup is kept for reuse.
SETUP_CACHE_SIZE = 16
# Anderson acceleration (type-II) of the (u, v) fixed-point map and its safeguards
AA_MEMORY = 10
AA_REG = 1e-9  # Tikhonov weight relative to the trace of the Gram matrix
AA_SAFEGUARD = 4.0  # largest growth of the fixed-point residual an extrapolation may cause
AA_MAX_WEIGHT = 1e6


def solve(
    program: ConicProgram,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 100_000,
) -> ConicSolution:
    """Solve a program to the requested normalized tolerances.

    Termination: primal residual / (1 + ||b||), dual residual / (1 + ||c||)
    both below ``feas_tol`` and relative duality gap below ``gap_tol``.
    When the iteration cap is hit the best candidate seen is returned with
    status ``max_iterations``; infeasibility certificates come back as
    ``infeasible_suspected`` (a dual-infeasibility certificate, meaning an
    unbounded primal, is reported the same way and distinguished in the
    message).  Tolerances must be positive and finite and ``max_iter`` at
    least 1; anything else raises ``ValueError``.

    Residual checks are scheduled from the measured convergence rate.  A
    check scores the iterate by sigma = max(res_p / feas_tol, res_d /
    feas_tol, gap / gap_tol), and the solve stops once sigma <= 1.  When
    sigma fell since the previous check, the next check goes where the
    geometric decay between the two predicts sigma = 1, between 1 and
    ``CHECK_EVERY`` iterations ahead; otherwise it comes ``CHECK_EVERY``
    iterations later.  The setup that depends on the constraint matrix
    alone (see :func:`_setup`) is reused across programs that share it,
    with output byte-identical to a fresh setup.
    """
    t0 = time.perf_counter()
    for name, tol in (("gap_tol", gap_tol), ("feas_tol", feas_tol)):
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"{name} must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    m = program.num_vars
    qs = [blk.size for blk in program.psd_blocks]
    rows = sum(q * q for q in qs)
    a, at, d_row, e_col, block_slices, gram, projection = _setup(program)

    # --- b in svec coordinates, and the b/c normalization ------------------
    b = np.zeros(rows, dtype=np.float64)
    for blk, sl in zip(program.psd_blocks, block_slices):
        b[sl] = svec(blk.f0)
    c = program.objective.copy()
    b_s = d_row * b
    c_s = e_col * c
    beta = 1.0 / max(float(np.linalg.norm(b_s)), 1e-10)
    gamma = 1.0 / max(float(np.linalg.norm(c_s)), 1e-10)
    beta = float(np.clip(beta, 1e-6, 1e6))
    gamma = float(np.clip(gamma, 1e-6, 1e6))
    b_s *= beta
    c_s *= gamma

    # --- linear system: M = [[I, A^T], [-A, I]] via (I + A^T A) ------------
    def solve_m(wx: np.ndarray, wy: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Solve M (x, y) = (wx, wy) into ``out[:m]``, ``out[m:m + rows]``; return x."""
        x = gram.solve(wx - at @ wy)
        out[:m] = x
        np.add(wy, a @ x, out=out[m:m + rows])
        return x

    size = m + rows + 1
    g = np.zeros(size)  # (g_x, g_y, 0)
    g_x = solve_m(c_s, b_s, g)
    denom = 1.0 + float(c_s @ g_x + b_s @ g[m:-1])

    project_psd_segment = _psd_projector(projection)

    # --- iterate ------------------------------------------------------------
    # z = (u, v) is the map's input and zo its output; zg keeps the last
    # plain output while an extrapolated z is on trial.
    z, zo, zg = (np.zeros(2 * size) for _ in range(3))
    z[size - 1] = z[-1] = 1.0  # tau = kappa = 1
    w, t, r = (np.empty(size) for _ in range(3))
    f, f_old = np.empty(2 * size), np.empty(2 * size)
    d_f, d_g = np.zeros((AA_MEMORY, 2 * size)), np.zeros((AA_MEMORY, 2 * size))
    aa_gram, aa_eye = np.zeros((AA_MEMORY, AA_MEMORY)), np.eye(AA_MEMORY)
    stored = slot = 0
    have_f = on_trial = False
    f_sq_old = 0.0
    cone = slice(m, m + rows)

    norm_b = float(np.linalg.norm(b))
    norm_c = float(np.linalg.norm(c))

    best_score = np.inf
    best_point: tuple | None = None
    history: list[tuple[int, float, float, float]] = []
    status = None
    message = ""
    iterations = 0
    next_check = min(CHECK_EVERY, max_iter)
    last_check: tuple[int, float] | None = None  # (iteration, sigma) of the previous check

    def dist_to_cone(neg_w: np.ndarray) -> float:
        """Euclidean distance of a row-space vector to the cone K."""
        sq = 0.0
        for sl, q in zip(block_slices, qs):
            mat = unsvec(neg_w[sl], q)
            wv = np.linalg.eigvalsh(mat)
            neg = np.clip(wv, None, 0.0)
            sq += float(np.dot(neg, neg))
        return float(np.sqrt(sq))

    for it in range(1, max_iter + 1):
        u, v = z[:size], z[size:]
        un, vn = zo[:size], zo[size:]
        np.add(u, v, out=w)
        t_x = solve_m(w[:m], w[m:-1], t)
        t[-1] = tau_t = (w[-1] + c_s @ t_x + b_s @ t[m:-1]) / denom

        # over-relaxed point r = alpha (t - tau_t g) + (1 - alpha) u; w is scratch now
        np.multiply(g, tau_t, out=r)
        np.subtract(t, r, out=r)
        r *= OVER_RELAX
        np.multiply(u, 1 - OVER_RELAX, out=w)
        r += w

        # u update: project (r - v) onto R^m x PSD x R_+
        np.subtract(r, v, out=un)
        project_psd_segment(un[cone])
        un[-1] = max(un[-1], 0.0)

        # v update keeps the pair complementary
        np.subtract(un, r, out=vn)
        vn += v

        # Anderson step on z; residual checks read plain output, so they never extrapolate
        check = it == next_check
        np.subtract(zo, z, out=f)
        f_sq = float(np.dot(f, f))
        if on_trial and not f_sq <= AA_SAFEGUARD ** 2 * f_sq_old:
            # the extrapolated point made the residual grow (or overflow):
            # drop its image, restart from the plain output, clear the memory
            z, zg = zg, z
            on_trial = False
            stored = slot = 0
        else:
            if have_f:
                np.subtract(f, f_old, out=d_f[slot])
                np.subtract(zo, zg if on_trial else z, out=d_g[slot])
                stored = min(stored + 1, AA_MEMORY)
                np.dot(d_f[:stored], d_f[slot], out=aa_gram[slot, :stored])
                aa_gram[:stored, slot] = aa_gram[slot, :stored]
                slot = (slot + 1) % AA_MEMORY
            f, f_old = f_old, f
            f_sq_old, have_f = f_sq, True
            on_trial = False
            if stored and not check:
                lhs = aa_gram[:stored, :stored]
                lhs = lhs + AA_REG * lhs.trace() * aa_eye[:stored, :stored]
                weights = _spd_solve(lhs, d_f[:stored] @ f_old)
                if weights is None or not np.abs(weights).max() <= AA_MAX_WEIGHT:
                    stored = slot = 0  # degenerate memory: singular Gram, huge or non-finite weights
                else:
                    np.dot(weights, d_g[:stored], out=z)
                    np.subtract(zo, z, out=z)
                    # an extrapolation may not collapse tau towards the infeasible branch
                    on_trial = z[size - 1] >= 0.5 * zo[size - 1]
            if on_trial:
                zg, zo = zo, zg
            else:
                z, zo = zo, z

        if not check:
            continue
        u, v = z[:size], z[size:]
        if not np.all(np.isfinite(u)):
            raise SolverError(f"iterate diverged to non-finite values at iteration {it}")

        tau = u[-1]
        kappa = v[-1]
        wait = CHECK_EVERY  # iterations to the next residual check

        if tau > 1e-9 * max(1.0, kappa):
            x_hat = u[:m] / tau
            eta_hat = u[m:-1] / tau
            s_hat = v[m:-1] / tau
            # unscaled candidates
            x = e_col * x_hat / beta
            eta = d_row * eta_hat / gamma
            s = (s_hat / d_row) / beta
            # residuals in original data coordinates
            rp_vec = (a @ x_hat + s_hat - b_s) / (d_row * beta)
            rd_vec = (at @ eta_hat + c_s) / (e_col * gamma)
            res_p = float(np.linalg.norm(rp_vec)) / (1.0 + norm_b)
            res_d = float(np.linalg.norm(rd_vec)) / (1.0 + norm_c)
            pobj = float(c @ x)
            dobj = -float(b @ eta)
            res_g = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

            history.append((it, res_p, res_d, res_g))
            score = max(res_p, res_d, res_g)
            if score < best_score:
                best_score = score
                best_point = (x.copy(), eta.copy(), s.copy(), pobj, dobj, res_p, res_d, res_g, it)

            sigma = max(res_p / feas_tol, res_d / feas_tol, res_g / gap_tol)
            if sigma <= 1.0:
                status = "optimal"
                iterations = it
                break
            drop = math.log(last_check[1] / sigma) if last_check else 0.0
            if drop > 0:
                # sigma decays geometrically: check where it is predicted to reach 1
                wait = math.ceil((it - last_check[0]) * math.log(sigma) / drop)
                wait = max(1, min(CHECK_EVERY, wait))
            last_check = (it, sigma)
        else:
            last_check = None
            # tau collapsed: look for infeasibility certificates
            eta_c = d_row * u[m:-1] / gamma
            bty = float(b @ eta_c)
            if bty < -1e-12:
                atn = float(np.linalg.norm((at @ u[m:-1]) / (e_col * gamma)))
                if atn * max(1.0, norm_b) <= INFEAS_TOL * (-bty):
                    status = "infeasible_suspected"
                    message = "primal infeasibility certificate found"
                    iterations = it
                    break
            x_c = e_col * u[:m] / beta
            ctx = float(c @ x_c)
            if ctx < -1e-12:
                w_rows = (a @ u[:m]) / (d_row * beta)
                dist = dist_to_cone(-w_rows)
                if dist * max(1.0, norm_c) <= INFEAS_TOL * (-ctx):
                    status = "infeasible_suspected"
                    message = "dual infeasibility certificate found; primal appears unbounded"
                    iterations = it
                    break
        next_check = min(it + wait, max_iter)

    if status is None:
        status = "max_iterations"
        iterations = max_iter

    elapsed = time.perf_counter() - t0

    if status == "infeasible_suspected":
        nan = np.nan
        return ConicSolution(
            status=status, primal_value=nan, y=np.full(m, nan), dual_value=nan,
            psd_residual=nan, gap=nan, iterations=iterations,
            res_primal=nan, res_dual=nan, message=message, solve_seconds=elapsed,
            history=history,
        )

    if best_point is None:
        raise SolverError(
            f"no usable iterate after {iterations} iterations "
            f"(tau stayed degenerate; the program may be pathological)"
        )

    x, eta, s, pobj, dobj, res_p, res_d, res_g, seen_at = best_point
    if status == "max_iterations":
        message = (f"iteration limit {max_iter} reached; best residuals "
                   f"primal {res_p:.3e} dual {res_d:.3e} gap {res_g:.3e} at iteration {seen_at}")

    # direct feasibility measurements at the returned point
    psd_res = _psd_residual(program, x)
    dual_psd = [unsvec(eta[sl], q) for sl, q in zip(block_slices, qs)]

    return ConicSolution(
        status=status,
        primal_value=pobj,
        y=x,
        dual_value=dobj,
        psd_residual=psd_res,
        gap=res_g,
        iterations=iterations,
        res_primal=res_p,
        res_dual=res_d,
        dual_psd=dual_psd,
        message=message,
        solve_seconds=elapsed,
        history=history,
    )

