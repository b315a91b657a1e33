"""Decomposable norms of maps into finite-dimensional C*-algebras.

A map ``u`` is decomposable when it splits over the cone of completely
positive maps: there are CP maps ``S1, S2`` making

    V = [[S1, u], [u_*, S2]]

completely positive as a map into 2x2 matrices over the codomain, and the
decomposable norm is the infimum of ``max(||S1||, ||S2||)`` over such
dressings.  In finite dimensions that infimum is a semidefinite program,
and every routine here returns not just the optimal value but a
certificate: the dressing evaluated on diagonal units plus an explicit
factorization ``x_j = a_j* b_j`` (or ``u(e_ij) = sum_k a_ki* b_kj`` for
matrix domains) whose column norms certify the value from above.

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
    AlgebraShape,
    element_norm,
    is_selfadjoint,
    zero,
)
from decnorms.maps import LinearMapRep, choi, matrix_units


@dataclass
class DecCertificate:
    """Optimal value with a verifiable dressing and factorization.

    ``P[j]`` and ``Q[j]`` are the diagonal-unit images ``S1(e_jj)`` and
    ``S2(e_jj)`` of the repaired dressing; for abelian domains these are
    the full data.  ``factor_a`` and ``factor_b`` reconstruct the map:
    ``x_j = factor_a[j]* factor_b[j]`` for abelian domains, and
    ``u(e_ij) = sum_k factor_a[k*n+i]* factor_b[k*n+j]`` for a matrix
    domain of size n.  ``factor_bound`` is the column-norm value
    ``||sum a* a||^(1/2) ||sum b* b||^(1/2)``, which never exceeds
    ``value`` beyond roundoff.
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
    choi_s1: list[np.ndarray] | None = field(default=None, repr=False)
    choi_s2: list[np.ndarray] | None = field(default=None, repr=False)


# Residual above which a certificate is flagged rather than trusted.
FLAG_RESIDUAL = 1e-5


def _coerce_elements(xs) -> list[AlgebraElement]:
    out = []
    shape = None
    for x in xs:
        if isinstance(x, AlgebraElement):
            e = x
        else:
            m = linalg.as_matrix(x)
            if m.shape[0] != m.shape[1]:
                raise ValueError("coefficients must be square matrices")
            e = AlgebraElement(AlgebraShape((m.shape[0],)), [m])
        if shape is None:
            shape = e.shape
        elif e.shape != shape:
            raise ValueError("all coefficients must live in one algebra")
        out.append(e)
    if not out:
        raise ValueError("need at least one coefficient")
    return out


def _solver_or_raise(program: conic.ConicProgram, options: dict) -> conic.ConicSolution:
    sol = conic.solve(program, **options)
    if sol.status != "optimal":
        raise conic.SolverError(
            f"norm SDP did not reach optimality: status {sol.status} "
            f"after {sol.iterations} iterations ({sol.message})"
        )
    return sol


# ---------------------------------------------------------------------------
# Abelian domains: one PSD pair per coefficient
# ---------------------------------------------------------------------------

def _linf_program(xs: list[AlgebraElement]):
    """SDP for coefficients from an abelian domain.

    Variables: s plus Hermitian P_j, Q_j per coefficient and codomain
    block; blocks [[P_j, x_j], [x_j*, Q_j]] must be PSD and both sums stay
    below s times the unit.
    """
    shape = xs[0].shape
    dims = shape.block_dims
    n = len(xs)
    live = [j for j, x in enumerate(xs) if element_norm(x) > 0]

    m = 1
    offs_p = {}
    offs_q = {}
    for j in live:
        for t, c in enumerate(dims):
            offs_p[(j, t)] = m
            m += c * c
        for t, c in enumerate(dims):
            offs_q[(j, t)] = m
            m += c * c

    blocks = []
    for j in live:
        for t, c in enumerate(dims):
            bb = conic.BlockBuilder(2 * c, m)
            bb.add_hermitian_var(offs_p[(j, t)], c, 0, +1.0)
            bb.add_hermitian_var(offs_q[(j, t)], c, c, +1.0)
            bb.add_constant_offdiag(xs[j].blocks[t], 0, c)
            blocks.append(bb.build())
    for offs in (offs_p, offs_q):
        for t, c in enumerate(dims):
            bb = conic.BlockBuilder(c, m)
            bb.add_scalar_identity(0, c, 0, +1.0)
            for j in live:
                bb.add_hermitian_var(offs[(j, t)], c, 0, -1.0)
            blocks.append(bb.build())

    cvec = np.zeros(m)
    cvec[0] = 1.0
    program = conic.ConicProgram(objective=cvec, psd_blocks=blocks)

    def decode(y: np.ndarray):
        ps, qs = [], []
        for j in range(n):
            if j in live:
                pj = [conic.unsvec(y[offs_p[(j, t)]:offs_p[(j, t)] + c * c], c) for t, c in enumerate(dims)]
                qj = [conic.unsvec(y[offs_q[(j, t)]:offs_q[(j, t)] + c * c], c) for t, c in enumerate(dims)]
                ps.append(AlgebraElement(shape, pj))
                qs.append(AlgebraElement(shape, qj))
            else:
                ps.append(zero(shape))
                qs.append(zero(shape))
        return ps, qs

    return program, decode


def _repair_linf(xs: list[AlgebraElement], ps: list[AlgebraElement], qs: list[AlgebraElement]):
    """Shift the dressing into exact feasibility and balance the halves.

    Adding eps to both diagonal corners of a pair block shifts the whole
    block by eps, so feasibility is restored exactly; afterwards the two
    sums are rescaled into their geometric mean, which a congruence by
    diag(sqrt(t), 1/sqrt(t)) shows keeps every pair block PSD.
    """
    shape = xs[0].shape
    rep_p, rep_q = [], []
    for x, p, q in zip(xs, ps, qs):
        eps = 0.0
        for t, c in enumerate(shape.block_dims):
            big = np.zeros((2 * c, 2 * c), dtype=np.complex128)
            big[:c, :c] = (p.blocks[t] + p.blocks[t].conj().T) / 2.0
            big[c:, c:] = (q.blocks[t] + q.blocks[t].conj().T) / 2.0
            big[:c, c:] = x.blocks[t]
            big[c:, :c] = x.blocks[t].conj().T
            w = np.linalg.eigvalsh(big)
            eps = max(eps, -float(w[0]))
        eye = AlgebraElement(shape, [np.eye(c, dtype=np.complex128) for c in shape.block_dims])
        ph = AlgebraElement(shape, [(b + b.conj().T) / 2.0 for b in p.blocks])
        qh = AlgebraElement(shape, [(b + b.conj().T) / 2.0 for b in q.blocks])
        rep_p.append(ph + eps * eye if eps > 0 else ph)
        rep_q.append(qh + eps * eye if eps > 0 else qh)

    sum_p = rep_p[0]
    sum_q = rep_q[0]
    for p in rep_p[1:]:
        sum_p = sum_p + p
    for q in rep_q[1:]:
        sum_q = sum_q + q
    lam_p = max(element_norm(sum_p), 0.0)
    lam_q = max(element_norm(sum_q), 0.0)
    if lam_p <= 0 or lam_q <= 0:
        return rep_p, rep_q, max(lam_p, lam_q)
    t = np.sqrt(lam_q / lam_p)
    rep_p = [t * p for p in rep_p]
    rep_q = [(1.0 / t) * q for q in rep_q]
    return rep_p, rep_q, float(np.sqrt(lam_p * lam_q))


def extract_factorization(
    xs,
    P: list[AlgebraElement],
    Q: list[AlgebraElement],
    *,
    rcond: float = 1e-9,
) -> tuple[list[AlgebraElement], list[AlgebraElement]]:
    """Factor each coefficient as ``x_j = a_j* b_j`` through a dressing.

    Writes ``x_j = P_j^(1/2) C_j Q_j^(1/2)`` with ``C_j`` the pseudo-inverse
    sandwich clipped to a contraction, then returns
    ``a_j = (P_j^(1/2) C_j)*`` and ``b_j = Q_j^(1/2)``.  With a feasible
    dressing the column norms obey ``sum a* a <= sum P`` and
    ``sum b* b <= sum Q``.
    """
    elems = _coerce_elements(xs)
    a_out, b_out = [], []
    for x, p, q in zip(elems, P, Q):
        a_blocks, b_blocks = [], []
        for t in range(x.shape.num_blocks):
            ph = (p.blocks[t] + p.blocks[t].conj().T) / 2.0
            qh = (q.blocks[t] + q.blocks[t].conj().T) / 2.0
            p_half, p_inv = linalg.psd_roots(ph, rcond=rcond)
            q_half, q_inv = linalg.psd_roots(qh, rcond=rcond)
            contraction = p_inv @ x.blocks[t] @ q_inv
            uu, sv, vh = linalg.svd(contraction)
            sv = np.clip(sv, 0.0, 1.0)
            k = min(contraction.shape)
            contraction = (uu[:, :k] * sv[:k]) @ vh[:k, :]
            a_blocks.append((p_half @ contraction).conj().T)
            b_blocks.append(q_half)
        a_out.append(AlgebraElement(x.shape, a_blocks))
        b_out.append(AlgebraElement(x.shape, b_blocks))
    return a_out, b_out


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


def _zero_certificate(xs: list[AlgebraElement], kind: str) -> DecCertificate:
    shape = xs[0].shape
    zeros = [zero(shape) for _ in xs]
    sol = conic.ConicSolution(
        status="optimal", primal_value=0.0, y=np.zeros(0), dual_value=0.0,
        psd_residual=0.0, equality_residual=0.0, gap=0.0, iterations=0,
        res_primal=0.0, res_dual=0.0,
    )
    return DecCertificate(
        value=0.0, kind=kind, P=list(zeros), Q=list(zeros),
        factor_a=list(zeros), factor_b=list(zeros),
        reconstruction_residual=0.0, factor_bound=0.0, flagged=False, solver=sol,
    )


def dec_norm_linf(
    xs,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200_000,
    rcond: float = 1e-9,
) -> DecCertificate:
    """Decomposable norm of the map ``e_j -> x_j`` on an abelian domain.

    The coefficients may be plain square arrays (single matrix block) or
    :class:`AlgebraElement` values in a common algebra.  Inputs are scaled
    to unit size before solving and the results scaled back, using the
    homogeneity of the norm.
    """
    elems = _coerce_elements(xs)
    scale = max(element_norm(x) for x in elems)
    if scale == 0.0:
        return _zero_certificate(elems, "linf")
    scaled = [(1.0 / scale) * x for x in elems]

    program, decode = _linf_program(scaled)
    sol = _solver_or_raise(program, dict(gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter))
    ps, qs = decode(sol.y)
    ps, qs, value = _repair_linf(scaled, ps, qs)
    a, b = extract_factorization(scaled, ps, qs, rcond=rcond)

    # undo the input scaling: value and dressing scale linearly, factors by sqrt
    root = np.sqrt(scale)
    value *= scale
    ps = [scale * p for p in ps]
    qs = [scale * q for q in qs]
    a = [root * ai for ai in a]
    b = [root * bi for bi in b]
    resid = max(element_norm(x - ai.adjoint() * bi) for x, ai, bi in zip(elems, a, b))
    bound = dec_upper_bound_factored(a, b)

    return DecCertificate(
        value=float(value), kind="linf", P=ps, Q=qs, factor_a=a, factor_b=b,
        reconstruction_residual=float(resid), factor_bound=float(bound),
        flagged=bool(resid > FLAG_RESIDUAL * max(1.0, scale)), solver=sol,
    )


# ---------------------------------------------------------------------------
# Matrix domains: Choi-variable formulation
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
    """
    dn = u.domain.block_dims
    cn = u.codomain.block_dims

    m = 1
    offs1, offs2 = {}, {}
    for i, n_i in enumerate(dn):
        for t, c_t in enumerate(cn):
            q = n_i * c_t
            offs1[(i, t)] = m
            m += q * q
            offs2[(i, t)] = m
            m += q * q

    blocks = []
    for i, n_i in enumerate(dn):
        for t, c_t in enumerate(cn):
            q = n_i * c_t
            bb = conic.BlockBuilder(2 * q, m)
            bb.add_hermitian_var(offs1[(i, t)], q, 0, +1.0)
            bb.add_hermitian_var(offs2[(i, t)], q, q, +1.0)
            bb.add_constant_offdiag(x_choi[(i, t)], 0, q)
            blocks.append(bb.build())
    for offs in (offs1, offs2):
        for t, c_t in enumerate(cn):
            bb = conic.BlockBuilder(c_t, m)
            bb.add_scalar_identity(0, c_t, 0, +1.0)
            for i, n_i in enumerate(dn):
                bb.add_partial_trace_var(offs[(i, t)], n_i, c_t, 0, -1.0)
            blocks.append(bb.build())

    cvec = np.zeros(m)
    cvec[0] = 1.0
    program = conic.ConicProgram(objective=cvec, psd_blocks=blocks)

    def decode(y: np.ndarray):
        c1 = {k: conic.unsvec(y[off:off + (dn[k[0]] * cn[k[1]]) ** 2], dn[k[0]] * cn[k[1]])
              for k, off in offs1.items()}
        c2 = {k: conic.unsvec(y[off:off + (dn[k[0]] * cn[k[1]]) ** 2], dn[k[0]] * cn[k[1]])
              for k, off in offs2.items()}
        return c1, c2

    return program, decode


def _ptr_domain(c: np.ndarray, n: int, cdim: int) -> np.ndarray:
    """Partial trace over the domain index of an (n*cdim) Choi block."""
    return c.reshape(n, cdim, n, cdim).trace(axis1=0, axis2=2)


def _repair_choi(u: LinearMapRep, x_choi: dict, c1: dict, c2: dict):
    """Exact-feasibility shift and balancing for the Choi dressing."""
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


def _solve_choi(u: LinearMapRep, scale: float, options: dict):
    """Solve the Choi program for ``u / scale`` and repair its dressing.

    Returns the Choi data of ``u / scale``, the solver's solution, the
    repaired Choi blocks of S1 and S2 and their value, all at that scale.
    """
    su = LinearMapRep(u.domain, u.codomain, [(1.0 / scale) * img for img in u.images])
    x_choi = _choi_data(su)
    program, decode = _choi_program(su, x_choi)
    sol = _solver_or_raise(program, options)
    c1, c2 = decode(sol.y)
    c1, c2, value = _repair_choi(su, x_choi, c1, c2)
    return x_choi, sol, c1, c2, value


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


def _extract_matrix_factors(u: LinearMapRep, x_choi: dict, c1: dict, c2: dict, rcond: float):
    """Row factorizations u(e_ij) = sum_k a_ki* b_kj from the Choi dressing."""
    n = u.domain.block_dims[0]
    cn = u.codomain.block_dims
    a_mats, b_mats = [], []
    for t, c_t in enumerate(cn):
        p_half, p_inv = linalg.psd_roots(c1[(0, t)], rcond=rcond)
        q_half, q_inv = linalg.psd_roots(c2[(0, t)], rcond=rcond)
        contraction = p_inv @ x_choi[(0, t)] @ q_inv
        uu, sv, vh = linalg.svd(contraction)
        sv = np.clip(sv, 0.0, 1.0)
        contraction = (uu * sv) @ vh
        a_mats.append((p_half @ contraction).conj().T)  # A with A* B = X
        b_mats.append(q_half)

    factor_a, factor_b = [], []
    for k in range(n):
        for j in range(n):
            a_blocks = [a_mats[t][k * c_t:(k + 1) * c_t, j * c_t:(j + 1) * c_t].copy()
                        for t, c_t in enumerate(cn)]
            b_blocks = [b_mats[t][k * c_t:(k + 1) * c_t, j * c_t:(j + 1) * c_t].copy()
                        for t, c_t in enumerate(cn)]
            factor_a.append(AlgebraElement(u.codomain, a_blocks))
            factor_b.append(AlgebraElement(u.codomain, b_blocks))
    return factor_a, factor_b


def dec_norm_matrix_domain(
    u: LinearMapRep,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200_000,
    rcond: float = 1e-9,
) -> DecCertificate:
    """Decomposable norm of a map from a single matrix block.

    Formulated over Choi blocks of the dressing, which is a genuinely
    different program from the abelian route even when the map factors
    through the diagonal; the two are compared in the test suite.
    """
    if not u.domain.is_factor():
        raise ValueError("domain must be a single matrix block; see dec_norm_direct_sum")
    n = u.domain.block_dims[0]
    scale = max(element_norm(img) for img in u.images)
    if scale == 0.0:
        cert = _zero_certificate([zero(u.codomain)] * n, "matrix_domain")
        cert.factor_a = [zero(u.codomain) for _ in range(n * n)]
        cert.factor_b = [zero(u.codomain) for _ in range(n * n)]
        return cert

    x_choi, sol, c1, c2, value = _solve_choi(
        u, scale, dict(gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter))
    factor_a, factor_b = _extract_matrix_factors(u, x_choi, c1, c2, rcond)

    root = np.sqrt(scale)
    value *= scale
    c1 = {k: scale * v for k, v in c1.items()}
    c2 = {k: scale * v for k, v in c2.items()}
    factor_a = [root * x for x in factor_a]
    factor_b = [root * x for x in factor_b]

    resid = 0.0
    for i in range(n):
        for j in range(n):
            acc = zero(u.codomain)
            for k in range(n):
                acc = acc + factor_a[k * n + i].adjoint() * factor_b[k * n + j]
            resid = max(resid, element_norm(u.image(0, i, j) - acc))
    bound = dec_upper_bound_factored(factor_a, factor_b)

    return DecCertificate(
        value=float(value), kind="matrix_domain",
        P=_diagonal_images(u, c1), Q=_diagonal_images(u, c2),
        factor_a=factor_a, factor_b=factor_b,
        reconstruction_residual=float(resid), factor_bound=float(bound),
        flagged=bool(resid > FLAG_RESIDUAL * max(1.0, scale)), solver=sol,
        choi_s1=[c1[k] for k in sorted(c1)],
        choi_s2=[c2[k] for k in sorted(c2)],
    )


# ---------------------------------------------------------------------------
# Direct sums and self-adjoint tuples
# ---------------------------------------------------------------------------

@dataclass
class DirectSumDecReport:
    """Joint dec norm of a block-diagonal map next to its per-block norms."""

    joint_value: float
    block_values: list[float]
    max_block_value: float
    certificate: DecCertificate


def dec_norm_direct_sum(
    u: LinearMapRep,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200_000,
) -> DirectSumDecReport:
    """Dec norm of a block-diagonal map, jointly and block by block.

    ``u`` must send the i-th domain block into the i-th codomain block
    (same block count).  The joint value and the max of the per-block
    values agree for decomposable norms; both are returned so the caller
    can check.
    """
    dn = u.domain.block_dims
    cn = u.codomain.block_dims
    if len(dn) != len(cn):
        raise ValueError("block-diagonal maps need matching block counts")
    for k, i, r, s in matrix_units(u.domain):
        img = u.images[k]
        for t in range(len(cn)):
            if t != i and element_norm(AlgebraElement(AlgebraShape((cn[t],)), [img.blocks[t]])) > 1e-12:
                raise ValueError(
                    f"map is not block-diagonal: unit of domain block {i} "
                    f"has support on codomain block {t}"
                )

    block_values = []
    for i, n_i in enumerate(dn):
        sub_dom = AlgebraShape((n_i,))
        sub_cod = AlgebraShape((cn[i],))
        images = []
        for r in range(n_i):
            for s in range(n_i):
                img = u.image(i, r, s)
                images.append(AlgebraElement(sub_cod, [img.blocks[i]]))
        sub = LinearMapRep(sub_dom, sub_cod, images)
        block_values.append(dec_norm_matrix_domain(
            sub, gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter).value)

    scale = max(element_norm(img) for img in u.images)
    if scale == 0.0:
        cert = _zero_certificate([zero(u.codomain)], "direct_sum")
        return DirectSumDecReport(0.0, block_values, max(block_values), cert)
    _, sol, c1, c2, value = _solve_choi(
        u, scale, dict(gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter))
    value *= scale
    c1 = {k: scale * v for k, v in c1.items()}
    c2 = {k: scale * v for k, v in c2.items()}

    cert = DecCertificate(
        value=float(value), kind="direct_sum",
        P=_diagonal_images(u, c1), Q=_diagonal_images(u, c2),
        factor_a=[], factor_b=[], reconstruction_residual=0.0,
        factor_bound=float(value), flagged=False, solver=sol,
    )
    return DirectSumDecReport(
        joint_value=float(value),
        block_values=block_values,
        max_block_value=float(max(block_values)),
        certificate=cert,
    )


@dataclass
class SelfadjointDecResult:
    """Dec norm of a self-adjoint tuple via the two-CP-summands program."""

    value: float
    positive_part: list[AlgebraElement]
    negative_part: list[AlgebraElement]
    solver: conic.ConicSolution = field(repr=False)


def selfadjoint_dec_norm(
    xs,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200_000,
    selfadjoint_tol: float = 1e-10,
) -> SelfadjointDecResult:
    """Dec norm of self-adjoint coefficients as inf ||u1(1) + u2(1)||.

    The tuple is split as ``x_j = R_j - (R_j - x_j)`` with both parts
    positive; minimizing the norm of the sum of the two CP halves over such
    splittings is the decomposable norm for self-adjoint maps from an
    abelian domain.  Raises if some coefficient is not self-adjoint.
    """
    elems = _coerce_elements(xs)
    for j, x in enumerate(elems):
        if not is_selfadjoint(x, tol=selfadjoint_tol * max(1.0, element_norm(x))):
            raise ValueError(f"coefficient {j} is not self-adjoint")
    shape = elems[0].shape
    dims = shape.block_dims
    n = len(elems)
    scale = max(element_norm(x) for x in elems)
    if scale == 0.0:
        zc = [zero(shape) for _ in elems]
        sol = conic.ConicSolution("optimal", 0.0, np.zeros(0), 0.0, 0.0, 0.0, 0.0, 0, 0.0, 0.0)
        return SelfadjointDecResult(0.0, zc, list(zc), sol)
    scaled = [(1.0 / scale) * x for x in elems]

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
            bb.add_constant(-scaled[j].blocks[t])
            blocks.append(bb.build())
    for t, c in enumerate(dims):
        bb = conic.BlockBuilder(c, m)
        bb.add_scalar_identity(0, c, 0, +1.0)
        acc = np.zeros((c, c), dtype=np.complex128)
        for j in range(n):
            bb.add_hermitian_var(offs[(j, t)], c, 0, -2.0)
            acc += scaled[j].blocks[t]
        bb.add_constant((acc + acc.conj().T) / 2.0)
        blocks.append(bb.build())
    cvec = np.zeros(m)
    cvec[0] = 1.0
    program = conic.ConicProgram(objective=cvec, psd_blocks=blocks)
    sol = _solver_or_raise(program, dict(gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter))

    pos, neg = [], []
    eye = AlgebraElement(shape, [np.eye(c, dtype=np.complex128) for c in dims])
    for j in range(n):
        r_blocks = [conic.unsvec(sol.y[offs[(j, t)]:offs[(j, t)] + c * c], c) for t, c in enumerate(dims)]
        r = AlgebraElement(shape, [(b + b.conj().T) / 2.0 for b in r_blocks])
        # one shift restores both R_j >= 0 and R_j - x_j >= 0 exactly
        eps = 0.0
        for t in range(len(dims)):
            eps = max(eps, -float(np.linalg.eigvalsh(r.blocks[t])[0]))
            eps = max(eps, -float(np.linalg.eigvalsh(r.blocks[t] - scaled[j].blocks[t])[0]))
        if eps > 0:
            r = r + eps * eye
        pos.append(r)
        neg.append(r - scaled[j])

    total = pos[0] + neg[0]
    for p, q in zip(pos[1:], neg[1:]):
        total = total + p + q
    value = element_norm(total) * scale
    pos = [scale * p for p in pos]
    neg = [scale * q for q in neg]
    return SelfadjointDecResult(float(value), pos, neg, sol)
