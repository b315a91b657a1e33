"""Decomposable norms of maps into finite-dimensional C*-algebras.

A map ``u`` is decomposable when it splits over the cone of completely
positive maps: there are CP maps ``S1, S2`` making

    V = [[S1, u], [u_*, S2]]

completely positive as a map into 2x2 matrices over the codomain, and the
decomposable norm is the infimum of ``max(||S1||, ||S2||)`` over such
dressings.  In finite dimensions that infimum is a semidefinite program
over the Choi blocks of ``S1`` and ``S2``, one pair per domain block and
codomain block.  The same program serves every domain: a tuple
``x_1..x_n`` is the map ``e_j -> x_j`` on ``l_inf^n = M_1 + ... + M_1``
(:func:`maps.map_from_linf`), a matrix domain is a single block, and a
direct sum has several.  A self-adjoint tuple may instead go through
Haagerup's smaller program ``inf ||u1(1) + u2(1)||`` over splittings
``u = u1 - u2`` into CP maps, whose optimum is the dressing
``S1 = S2 = u1 + u2``.

Every routine returns not just the optimal value but a certificate: the
dressing evaluated on diagonal units plus an explicit factorization
``u(e_rs) = sum_k a_kr* b_ks`` inside each domain block (``x_j = a_j* b_j``
for tuples) whose column norms certify the value from above.

Values are post-processed to be honest upper bounds: the solver's
approximately-feasible dressing is repaired by an explicit diagonal shift
into an exactly feasible one, and the reported value is the norm that
repaired dressing achieves.  The repair also balances the two CP halves
(rescaling S1 by t and S2 by 1/t preserves positivity), which tightens
``max(||S1||, ||S2||)`` into the geometric mean of the two norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from decnorms import conic, linalg
from decnorms.algebra import (
    AlgebraElement,
    coefficient_tuple,
    element_norm,
    is_selfadjoint,
    zero,
)
from decnorms.maps import LinearMapRep, choi, map_from_linf, matrix_units


@dataclass
class DecCertificate:
    """Optimal value with a verifiable dressing and factorization.

    ``P`` and ``Q`` list the diagonal-unit images ``S1(e_rr)`` and
    ``S2(e_rr)`` of the repaired dressing, domain block by domain block;
    for a tuple these are the full data.  ``factor_a`` and ``factor_b``
    follow the matrix-unit enumeration of the domain
    (:func:`maps.matrix_unit_index`) and reconstruct the map inside each
    domain block: ``u(e_rs) = sum_k factor_a[o + k*n + r]* factor_b[o + k*n + s]``
    for a block of size n whose units start at position o.  For a tuple
    this reads ``x_j = factor_a[j]* factor_b[j]``.  ``factor_bound`` is the
    column-norm value ``||sum a* a||^(1/2) ||sum b* b||^(1/2)``, which never
    exceeds ``value`` beyond roundoff.

    ``kind`` names the program: ``linf``, ``matrix_domain`` and
    ``direct_sum`` come from the Choi program of :func:`dec_norms`, and
    ``selfadjoint`` from the split ``x_j = R_j - N_j`` of
    :func:`selfadjoint_dec_norms`, whose dressing is ``S1 = S2 = u1 + u2``:
    there ``P[j] = Q[j] = R_j + N_j``, so ``R_j = (P[j] + x_j) / 2`` and
    ``N_j = (P[j] - x_j) / 2``.

    ``solver`` is the record of the program actually solved, which is the
    map scaled to max ||image|| = 1: its ``primal_value`` and ``dual_value``
    are in those units, not the user's.  For
    ``random_matrix_tuple(make_generator(0, stream=7), 12, 8)`` its
    ``dual_value`` reads 4.8786 against a ``value`` of 30.2855; times the
    scale 6.2078 it is 30.2855.
    """

    value: float
    kind: str
    P: list[AlgebraElement]
    Q: list[AlgebraElement]
    factor_a: list[AlgebraElement]
    factor_b: list[AlgebraElement]
    reconstruction_residual: float
    factor_bound: float
    flagged: bool
    solver: conic.ConicSolution = field(repr=False)


# Residual above which a certificate is flagged rather than trusted.
FLAG_RESIDUAL = 1e-5


def _require_optimal(sol: conic.ConicSolution, label: str = "") -> conic.ConicSolution:
    if sol.status != "optimal":
        raise conic.SolverError(
            f"{label}norm SDP did not reach optimality: status {sol.status} "
            f"after {sol.iterations} iterations ({sol.message})"
        )
    return sol


def _solve_optimal(programs: list[conic.ConicProgram], inputs: list[int], several: bool,
                   tol: float) -> list[conic.ConicSolution]:
    """Solve the programs of the inputs ``inputs`` in one batch, all to optimality.

    A lone program goes through :func:`conic.solve`, where solve counters
    and tracers look.  When the call has ``several`` inputs, a
    ``SolverError`` names the failing one as ``input k``.
    """
    try:
        sols = (conic.solve_all(programs, tol=tol) if len(programs) > 1
                else [conic.solve(program, tol=tol) for program in programs])
    except conic.SolverError as exc:
        at = exc.index if len(programs) > 1 else 0  # position among the programs
        if not several or at is None:
            raise
        raise conic.SolverError(f"input {inputs[at]}: {exc.reason}") from exc
    for k, sol in zip(inputs, sols):
        _require_optimal(sol, f"input {k}: " if several else "")
    return sols


def _trivial_solution() -> conic.ConicSolution:
    """Solver record for a zero input, where no program is solved."""
    return conic.ConicSolution(
        status="optimal", primal_value=0.0, y=np.zeros(0), dual_value=0.0,
        psd_residual=0.0, gap=0.0, iterations=0,
        res_primal=0.0, res_dual=0.0,
    )


# ---------------------------------------------------------------------------
# The Choi program, its repair and the factor extraction
# ---------------------------------------------------------------------------

def _choi_data(u: LinearMapRep) -> dict:
    """Choi data of ``u`` per (domain block i, codomain block t).

    Entry ``(i, t)`` is the ``n_i * c_t`` square matrix whose ``(r, s)``
    sub-block of size ``c_t`` is block t of ``u(e_rs)``: the rows and
    columns of codomain block t in the i-th block of :func:`maps.choi`.
    """
    cn = u.codomain.block_dims
    m = u.codomain.embed_dim
    offs = np.cumsum((0, *cn))
    out = {}
    for i, (n_i, full) in enumerate(zip(u.domain.block_dims, choi(u))):
        full = full.reshape(n_i, m, n_i, m)
        for t, c_t in enumerate(cn):
            o = offs[t]
            out[(i, t)] = full[:, o:o + c_t, :, o:o + c_t].reshape(n_i * c_t, n_i * c_t)
    return out


def _choi_program(u: LinearMapRep, x_choi: dict):
    """SDP over Choi blocks of the dressing maps S1, S2.

    For each pair (domain block i of size n_i, codomain block t of size
    c_t) there are Hermitian variables C1, C2 of size n_i * c_t tied by

        [[C1, X], [X*, C2]] is PSD

    with X = ``x_choi[(i, t)]`` the fixed Choi data of u, plus for each
    codomain block t the operator-norm constraints s - sum_i ptr(C1) >= 0
    and likewise for C2, the partial trace running over the domain index.
    A domain block on which u vanishes gets no variables: its optimal
    dressing is zero, and ``decode`` returns exact zeros for it.
    """
    dn = u.domain.block_dims
    cn = u.codomain.block_dims
    live = [i for i in range(len(dn)) if any(np.any(x_choi[(i, t)]) for t in range(len(cn)))]

    m = 1
    offs1, offs2 = {}, {}
    for i in live:
        for t, c_t in enumerate(cn):
            q = dn[i] * c_t
            offs1[(i, t)] = m
            m += q * q
            offs2[(i, t)] = m
            m += q * q

    blocks = []
    for i in live:
        for t, c_t in enumerate(cn):
            q = dn[i] * c_t
            bb = conic.BlockBuilder(2 * q, m)
            bb.add_hermitian_var(offs1[(i, t)], q, 0, +1.0)
            bb.add_hermitian_var(offs2[(i, t)], q, q, +1.0)
            bb.add_constant_offdiag(x_choi[(i, t)], 0, q)
            blocks.append(bb.build())
    for offs in (offs1, offs2):
        for t, c_t in enumerate(cn):
            bb = conic.BlockBuilder(c_t, m)
            bb.add_scalar_identity(0, c_t, 0, +1.0)
            for i in live:
                bb.add_partial_trace_var(offs[(i, t)], dn[i], c_t, 0, -1.0)
            blocks.append(bb.build())

    cvec = np.zeros(m)
    cvec[0] = 1.0
    program = conic.ConicProgram(objective=cvec, psd_blocks=blocks)

    def decode(y: np.ndarray):
        def read(offs: dict) -> dict:
            out = {}
            for k, x in x_choi.items():
                q = x.shape[0]
                out[k] = (conic.unsvec(y[offs[k]:offs[k] + q * q], q) if k in offs
                          else np.zeros((q, q), dtype=np.complex128))
            return out
        return read(offs1), read(offs2)

    return program, decode


def _ptr_domain(c: np.ndarray, n: int, cdim: int) -> np.ndarray:
    """Partial trace over the domain index of an (n*cdim) Choi block."""
    return c.reshape(n, cdim, n, cdim).trace(axis1=0, axis2=2)


def _repair_choi(u: LinearMapRep, x_choi: dict, c1: dict, c2: dict):
    """Exact-feasibility shift and balancing for the Choi dressing.

    Adding eps to both diagonal corners of a pair block shifts the whole
    block by eps, so feasibility is restored exactly; afterwards the two
    sums are rescaled into their geometric mean, which a congruence by
    diag(sqrt(t), 1/sqrt(t)) shows keeps every pair block PSD.
    """
    dn = u.domain.block_dims
    cn = u.codomain.block_dims
    r1, r2 = {}, {}
    for i, n_i in enumerate(dn):
        for t, c_t in enumerate(cn):
            q = n_i * c_t
            x = x_choi[(i, t)]
            h1 = (c1[(i, t)] + c1[(i, t)].conj().T) / 2.0
            h2 = (c2[(i, t)] + c2[(i, t)].conj().T) / 2.0
            big = np.block([[h1, x], [x.conj().T, h2]])
            w = np.linalg.eigvalsh(big)
            eps = max(0.0, -float(w[0]))
            r1[(i, t)] = h1 + eps * np.eye(q)
            r2[(i, t)] = h2 + eps * np.eye(q)

    def norm_of_sum(cs: dict) -> float:
        worst = 0.0
        for t, c_t in enumerate(cn):
            acc = np.zeros((c_t, c_t), dtype=np.complex128)
            for i, n_i in enumerate(dn):
                acc += _ptr_domain(cs[(i, t)], n_i, c_t)
            worst = max(worst, linalg.operator_norm(acc))
        return worst

    lam1 = norm_of_sum(r1)
    lam2 = norm_of_sum(r2)
    if lam1 <= 0 or lam2 <= 0:
        return r1, r2, max(lam1, lam2)
    t = np.sqrt(lam2 / lam1)
    r1 = {k: t * v for k, v in r1.items()}
    r2 = {k: v / t for k, v in r2.items()}
    return r1, r2, float(np.sqrt(lam1 * lam2))


def extract_factorization(
    u: LinearMapRep,
    x_choi: dict,
    c1: dict,
    c2: dict,
) -> tuple[list[AlgebraElement], list[AlgebraElement]]:
    """Factors ``u(e_rs) = sum_k a_kr* b_ks`` from a feasible Choi dressing.

    In every (domain block, codomain block) pair the Choi data is written
    as ``X = C1^(1/2) K C2^(1/2)`` with ``K`` the pseudo-inverse sandwich
    clipped to a contraction; ``A = (C1^(1/2) K)*`` and ``B = C2^(1/2)``
    then satisfy ``A* B = X``, and their ``(k, r)`` sub-blocks are
    ``a_kr`` and ``b_kr``.  The factors come out block by block in
    row-major order, the layout of :class:`DecCertificate`; a block of size
    1 gives ``x_j = a_j* b_j``.  With a feasible dressing the column norms
    obey ``sum a* a <= sum ptr(C1)`` and ``sum b* b <= sum ptr(C2)``.
    """
    cn = u.codomain.block_dims
    factor_a, factor_b = [], []
    for i, n_i in enumerate(u.domain.block_dims):
        a_mats, b_mats = [], []
        for t in range(len(cn)):
            p_half, p_inv = linalg.psd_roots(c1[(i, t)])
            q_half, q_inv = linalg.psd_roots(c2[(i, t)])
            contraction = p_inv @ x_choi[(i, t)] @ q_inv
            uu, sv, vh = linalg.svd(contraction)
            contraction = (uu * np.clip(sv, 0.0, 1.0)) @ vh
            a_mats.append((p_half @ contraction).conj().T)
            b_mats.append(q_half)
        for k in range(n_i):
            for j in range(n_i):
                for mats, out in ((a_mats, factor_a), (b_mats, factor_b)):
                    out.append(AlgebraElement(u.codomain, [
                        mat[k * c_t:(k + 1) * c_t, j * c_t:(j + 1) * c_t].copy()
                        for mat, c_t in zip(mats, cn)]))
    return factor_a, factor_b


def dec_upper_bound_factored(a: list[AlgebraElement], b: list[AlgebraElement]) -> float:
    """Column-norm bound ``||sum a* a||^(1/2) ||sum b* b||^(1/2)``.

    Any factorization ``x_j = a_j* b_j`` makes this an upper bound for the
    decomposable norm of the tuple; the SDP certificates reach it.
    """
    if len(a) != len(b) or not a:
        raise ValueError("factor families must be nonempty and equally long")
    gram_a = a[0].adjoint() * a[0]
    gram_b = b[0].adjoint() * b[0]
    for ai, bi in zip(a[1:], b[1:]):
        gram_a = gram_a + ai.adjoint() * ai
        gram_b = gram_b + bi.adjoint() * bi
    return float(np.sqrt(element_norm(gram_a) * element_norm(gram_b)))


def reconstruction_residual(u: LinearMapRep, factor_a: list[AlgebraElement],
                            factor_b: list[AlgebraElement]) -> float:
    """Largest ``||u(e_rs) - sum_k a_kr* b_ks||``, factors laid out as in ``DecCertificate``."""
    resid = 0.0
    for k, i, r, s in matrix_units(u.domain):
        n_i = u.domain.block_dims[i]
        o = k - r * n_i - s
        acc = zero(u.codomain)
        for l in range(n_i):
            acc = acc + factor_a[o + l * n_i + r].adjoint() * factor_b[o + l * n_i + s]
        resid = max(resid, element_norm(u.images[k] - acc))
    return resid


def _diagonal_images(u: LinearMapRep, cs: dict) -> list[AlgebraElement]:
    """Images ``S(e_jj)`` of the diagonal domain units, read off Choi blocks."""
    cn = u.codomain.block_dims
    out = []
    for i, n_i in enumerate(u.domain.block_dims):
        for j in range(n_i):
            out.append(AlgebraElement(u.codomain, [
                cs[(i, t)][j * c_t:(j + 1) * c_t, j * c_t:(j + 1) * c_t].copy()
                for t, c_t in enumerate(cn)]))
    return out


def _certify_all(inputs: list, item, tol: float) -> list[DecCertificate]:
    """Decomposable norms of the maps of ``inputs``, with their certificates.

    ``item`` validates one input and returns its map ``u``, from any
    domain, with its certificate kind; every input is validated before any
    program is solved, and with several inputs a ``ValueError`` names the
    failing one as ``input k``.  Each map is scaled to unit size and its
    program built (the split for kind ``selfadjoint``, else the Choi
    program); the programs are solved in one :func:`conic.solve_all` call
    at tolerance ``tol``, so programs of one structure run in lockstep and
    each gets the solution it gets alone.
    Each dressing is then repaired and factored, and everything is scaled
    back using the homogeneity of the norm (value and dressing linearly,
    factors by the square root).  A program that misses optimality raises
    ``SolverError``, naming its input when there are several.
    """
    several = len(inputs) > 1
    certs: list[DecCertificate | None] = [None] * len(inputs)
    jobs, programs = [], []
    for k, x in enumerate(inputs):
        try:
            u, kind = item(x)
        except ValueError as exc:
            if several:
                raise ValueError(f"input {k}: {exc}") from exc
            raise
        scale = max(element_norm(img) for img in u.images)
        if scale == 0.0:
            diagonal = [zero(u.codomain) for _ in range(u.domain.embed_dim)]
            factors = [zero(u.codomain) for _ in u.images]
            certs[k] = DecCertificate(
                value=0.0, kind=kind, P=diagonal, Q=list(diagonal),
                factor_a=factors, factor_b=list(factors), reconstruction_residual=0.0,
                factor_bound=0.0, flagged=False, solver=_trivial_solution(),
            )
            continue
        su = LinearMapRep(u.domain, u.codomain, [(1.0 / scale) * img for img in u.images])
        x_choi = _choi_data(su)
        build = _selfadjoint_program if kind == "selfadjoint" else _choi_program
        program, decode = build(su, x_choi)
        jobs.append((k, u, kind, scale, su, x_choi, decode))
        programs.append(program)
    sols = _solve_optimal(programs, [job[0] for job in jobs], several, tol)
    del programs
    for (k, *job), sol in zip(jobs, sols):
        certs[k] = _finish_certificate(*job, sol)
    return certs


def _finish_certificate(u: LinearMapRep, kind: str, scale: float, su: LinearMapRep,
                        x_choi: dict, decode, sol: conic.ConicSolution) -> DecCertificate:
    """Repair, factor and scale back the solution of the Choi program of ``su = u / scale``."""
    c1, c2 = decode(sol.y)
    c1, c2, value = _repair_choi(su, x_choi, c1, c2)
    factor_a, factor_b = extract_factorization(su, x_choi, c1, c2)

    root = np.sqrt(scale)
    value *= scale
    c1 = {k: scale * v for k, v in c1.items()}
    c2 = {k: scale * v for k, v in c2.items()}
    factor_a = [root * x for x in factor_a]
    factor_b = [root * x for x in factor_b]

    resid = reconstruction_residual(u, factor_a, factor_b)
    bound = dec_upper_bound_factored(factor_a, factor_b)

    return DecCertificate(
        value=float(value), kind=kind,
        P=_diagonal_images(u, c1), Q=_diagonal_images(u, c2),
        factor_a=factor_a, factor_b=factor_b,
        reconstruction_residual=float(resid), factor_bound=float(bound),
        flagged=bool(resid > FLAG_RESIDUAL * max(1.0, scale)), solver=sol,
    )


# ---------------------------------------------------------------------------
# Tuples, matrix domains and direct sums
# ---------------------------------------------------------------------------

def dec_norm_linf(xs, *, tol: float = 1e-8) -> DecCertificate:
    """Decomposable norm of the map ``e_j -> x_j`` on an abelian domain.

    The coefficients are those :func:`algebra.coefficient_tuple` accepts.
    The tuple is the map :func:`maps.map_from_linf` on ``M_1 + ... + M_1``,
    so each coefficient is one domain block of the Choi program and a zero
    coefficient gets no variables.
    """
    return dec_norms([xs], tol=tol)[0]


def dec_norms(inputs: list, *, tol: float = 1e-8) -> list[DecCertificate]:
    """Decomposable norms of many tuples and maps, in one call.

    Each input is either the coefficients of a tuple, as
    :func:`dec_norm_linf` takes them, or a :class:`LinearMapRep` from any
    direct sum of matrix blocks.  A tuple gets the certificate
    :func:`dec_norm_linf` returns, bit for bit, with kind ``linf``; a map
    gets kind ``matrix_domain`` from one block and ``direct_sum`` from
    several.  The programs go to :func:`conic.solve_all` together, so
    inputs whose programs share a constraint structure (tuples of one
    length and algebra, maps of one shape) are solved in lockstep.  An
    error, from validation or the solver, names the failing input by
    position.
    """
    def item(x):
        if isinstance(x, LinearMapRep):
            return x, "matrix_domain" if x.domain.is_factor() else "direct_sum"
        return map_from_linf(coefficient_tuple(x)), "linf"

    return _certify_all(inputs, item, tol)


# ---------------------------------------------------------------------------
# Self-adjoint tuples
# ---------------------------------------------------------------------------

def selfadjoint_dec_norms(inputs: list, *, tol: float = 1e-8) -> list[DecCertificate]:
    """Dec norms of self-adjoint tuples as inf ||u1(1) + u2(1)||, in one call.

    Each tuple is split as ``x_j = R_j - N_j`` with both parts positive;
    minimizing the norm of the sum of the two CP halves over such
    splittings is the decomposable norm for self-adjoint maps from an
    abelian domain.  The split is the dressing ``S1 = S2 = u1 + u2``, so
    each certificate, of kind ``selfadjoint``, is repaired, factored and
    checked like every other.  As in :func:`dec_norms`, every tuple is
    validated before any solve (a coefficient that is not self-adjoint
    raises), the programs go to the solver together, errors name the
    failing input, and each tuple gets the certificate it gets alone.
    """
    def item(xs):
        elems = coefficient_tuple(xs)
        for j, x in enumerate(elems):
            if not is_selfadjoint(x):
                raise ValueError(f"coefficient {j} is not self-adjoint")
        return map_from_linf(elems), "selfadjoint"

    return _certify_all(inputs, item, tol)


def _selfadjoint_program(su: LinearMapRep, x_choi: dict):
    """The two-CP-summands program of a unit-scale self-adjoint tuple.

    One Hermitian variable R_j per coefficient and codomain block, with
    R_j >= 0, R_j - x_j >= 0 and s - sum_j (2 R_j - x_j) >= 0.  ``decode``
    returns the dressing S1 = S2 with Choi blocks R_j + N_j = 2 R_j - x_j.
    """
    dims = su.codomain.block_dims
    n = len(su.domain.block_dims)
    m = 1
    offs = {}
    for j in range(n):
        for t, c in enumerate(dims):
            offs[(j, t)] = m
            m += c * c
    blocks = []
    for j in range(n):
        for t, c in enumerate(dims):
            bb = conic.BlockBuilder(c, m)
            bb.add_hermitian_var(offs[(j, t)], c, 0, +1.0)
            blocks.append(bb.build())
            bb = conic.BlockBuilder(c, m)
            bb.add_hermitian_var(offs[(j, t)], c, 0, +1.0)
            bb.add_constant(-x_choi[(j, t)])
            blocks.append(bb.build())
    for t, c in enumerate(dims):
        bb = conic.BlockBuilder(c, m)
        bb.add_scalar_identity(0, c, 0, +1.0)
        acc = np.zeros((c, c), dtype=np.complex128)
        for j in range(n):
            bb.add_hermitian_var(offs[(j, t)], c, 0, -2.0)
            acc += x_choi[(j, t)]
        bb.add_constant((acc + acc.conj().T) / 2.0)
        blocks.append(bb.build())
    cvec = np.zeros(m)
    cvec[0] = 1.0

    def decode(y: np.ndarray):
        dressing = {}
        for k, x in x_choi.items():
            c = x.shape[0]
            r = conic.unsvec(y[offs[k]:offs[k] + c * c], c)
            dressing[k] = (r + r.conj().T) - x
        return dressing, dressing

    return conic.ConicProgram(objective=cvec, psd_blocks=blocks), decode
