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

Inputs of one structure (kind, domain blocks, codomain blocks and, for
the Choi kinds, the domain blocks where the map is nonzero) form a group.  A group's programs
are built once and differ only in their constant terms, and its
certificates are finished together: the repair, the factor extraction
and the recomputed residuals and bounds run on arrays stacked over the
group's inputs and its pair blocks of one shape, and only the boxing into
elements runs per input.  A lone input is a group of one, and every
certificate has the bits it has alone.

Each Choi program starts from a fixed point over the states of
Watrous's dual (:func:`_state_start`), run on the group's stacked data.
The start changes how many iterations the solver takes, not what it
certifies.  The self-adjoint split starts from zero.
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
from decnorms.maps import LinearMapRep, choi, map_from_linf


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
    and tracers look: the benchmark's tracer test counts one
    ``conic.solve`` call for one ``dec_norm_linf``, so this branch stays
    until that counter moves to one that sees every solve.  When the call
    has ``several`` inputs, a ``SolverError`` names the failing one as
    ``input k``.
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
# Structure groups: one program build and one stacked finish each
# ---------------------------------------------------------------------------

def _h(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(m.conj(), -1, -2)


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


def _pair_shapes(dn: tuple, cn: tuple) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """The (domain block i, codomain block t) pairs by shape ``(n_i, c_t)``, in row-major order."""
    out: dict = {}
    for i, n in enumerate(dn):
        for t, c in enumerate(cn):
            out.setdefault((n, c), []).append((i, t))
    return out


def _by_pair(dn: tuple, cn: tuple, xs: dict) -> dict:
    """The stacks ``(inputs, q, q)`` of each pair, read from the stacks per pair shape."""
    return {p: xs[key][:, j] for key, pairs in _pair_shapes(dn, cn).items()
            for j, p in enumerate(pairs)}


def _per_codomain_block(dn: tuple, cn: tuple, stacks: dict, part) -> list[np.ndarray]:
    """One stack ``(inputs, units, c, c)`` per codomain block, in domain order.

    ``stacks`` holds pair blocks per pair shape; ``part`` takes the blocks
    of one pair as ``(inputs, n, c, n, c)`` and returns its units.
    """
    of = _by_pair(dn, cn, stacks)
    return [np.concatenate([part(of[(i, t)].reshape(-1, n, c, n, c)) for i, n in enumerate(dn)],
                           axis=1)
            for t, c in enumerate(cn)]


def _read(y: np.ndarray, pairs: list, offs: dict, q: int) -> np.ndarray:
    """Stacked unsvec of the variable at ``offs[p]`` of each pair p, zeros for a pair without."""
    out = np.zeros((len(y), len(pairs), q, q), dtype=np.complex128)
    have = [j for j, p in enumerate(pairs) if p in offs]
    if have:
        at = np.array([offs[pairs[j]] for j in have])[:, None] + np.arange(q * q)
        out[:, have] = conic.unsvec(y[:, at], q)
    return out


def _norm_programs(m: int, blocks: list[list[conic.PsdBlockSpec]]) -> list[conic.ConicProgram]:
    """One program per input, minimizing the norm variable y_0 over the family ``blocks``."""
    cvec = np.zeros(m)
    cvec[0] = 1.0
    return [conic.ConicProgram(objective=cvec, psd_blocks=list(specs)) for specs in zip(*blocks)]


# The fixed point over states that starts each Choi program: an input stops once a
# step raises f(rho, sigma) by less than STATE_GAIN relative, or after STATE_STEPS
# steps, and its states are then mixed with STATE_MIX of the maximally mixed state.
STATE_STEPS = 50
STATE_GAIN = 1e-8
STATE_MIX = 1e-7


def _blockwise(a: np.ndarray, mat: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """``(1_n (x) a) mat (1_n (x) b)`` for stacks ``(inputs, pairs, n c, n c)`` and ``(inputs, pairs, c, c)``."""
    if n == 1:
        return a @ mat @ b
    c = a.shape[-1]
    blocks = mat.reshape(mat.shape[:2] + (n, c, n, c)).swapaxes(3, 4)
    out = a[:, :, None, None] @ blocks @ b[:, :, None, None]
    return out.swapaxes(3, 4).reshape(mat.shape)


def _sandwich(shapes: dict, xs: dict, states: list) -> dict:
    """Per pair shape, the state roots and the SVD of M = (1 (x) rho_t^(1/2)) X (1 (x) sigma_t^(1/2)).

    ``shapes`` is :func:`_pair_shapes` of the group, and ``states`` holds
    per codomain block t the stack ``(2, inputs, c_t, c_t)`` of rho_t and
    sigma_t.  The roots come back as ``(2, inputs, pairs, c, c)``.
    """
    roots = []
    for st in states:
        w, v = np.linalg.eigh(st)
        roots.append((v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _h(v))
    out = {}
    for (n, c), pairs in shapes.items():
        half = np.stack([roots[t] for _, t in pairs], axis=2)
        out[(n, c)] = (half, *np.linalg.svd(_blockwise(half[0], xs[(n, c)], half[1], n)))
    return out


def _state_start(dn: tuple, cn: tuple, xs: dict):
    """Watrous's fixed point over states, and the start of the Choi program it gives.

    dec(u) is the largest f(rho, sigma) = sum ||M||_1 over states on the
    codomain, M = (1 (x) rho_t^(1/2)) X (1 (x) sigma_t^(1/2)) for the Choi
    data X of each pair (i, t) (Watrous, Chicago J. Theor. Comput. Sci.
    2013).  From I / m, each step sets rho_t to sum_i ptr |M*| / f and
    sigma_t to sum_i ptr |M| / f.  An input stops, and leaves the stack,
    once a step raises f by less than ``STATE_GAIN`` relative or after
    ``STATE_STEPS`` steps, so its states have the bits they have alone.
    At the states mixed by ``STATE_MIX``, with M = U S V*, the start is
    C1 = (1 (x) rho^(-1/2)) |M*| (1 (x) rho^(-1/2)), C2 likewise from sigma
    and |M|, balanced into the norm s by :func:`_repair`; the pair duals
    (1/2) [[1 (x) rho, -(1 (x) rho^(1/2)) U V* (1 (x) sigma^(1/2))],
    [., 1 (x) sigma]], which pair with the data to -f; and the
    operator-norm duals rho / 2, sigma / 2.  Returns s, C1, C2 and the
    pair duals per pair shape, then the states rho_t and sigma_t.
    """
    shapes = _pair_shapes(dn, cn)
    ts = {key: np.array([t for _, t in pairs]) for key, pairs in shapes.items()}  # codomain blocks
    family, dim = len(next(iter(xs.values()))), sum(cn)
    states = [np.broadcast_to(np.eye(c) / dim, (2, family, c, c)).astype(np.complex128) for c in cn]
    f_old = np.full(family, -np.inf)
    on = np.arange(family)
    for _ in range(STATE_STEPS):
        every = on.size == family
        svds = _sandwich(shapes, xs if every else {key: x[on] for key, x in xs.items()},
                         states if every else [st[:, on] for st in states])
        new, f = [0.0] * len(cn), 0.0
        for (n, c), (_, u, sv, vh) in svds.items():
            w = np.stack((u, _h(vh)))
            ptr = (w * sv[..., None, :]) @ _h(w)
            if n > 1:
                ptr = ptr.reshape(w.shape[:3] + (n, c, n, c)).trace(axis1=3, axis2=5)
            for t in set(ts[(n, c)].tolist()):
                new[t] = new[t] + ptr[:, :, ts[(n, c)] == t].sum(axis=2)
            f = f + sv.sum(axis=(1, 2))
        for st, m in zip(states, new):
            st[:, on] = m / f[:, None, None]
        going = f - f_old[on] > STATE_GAIN * f
        f_old[on] = f
        on = on[going]
        if not on.size:
            break

    states = [(1.0 - STATE_MIX) * st + (STATE_MIX / dim) * np.eye(st.shape[-1]) for st in states]
    dressing, duals = {}, {}
    for (n, c), (half, u, sv, vh) in _sandwich(shapes, xs, states).items():
        inv, v = np.linalg.inv(half), _h(vh)
        dressing[(n, c)] = (_blockwise(inv[0], (u * sv[..., None, :]) @ _h(u), inv[0], n),
                            _blockwise(inv[1], (v * sv[..., None, :]) @ _h(v), inv[1], n))
        off = -0.5 * _blockwise(half[0], u @ vh, half[1], n)
        eye = np.broadcast_to(np.eye(n * c), off.shape)
        duals[(n, c)] = np.block([[0.5 * _blockwise(half[0], eye, half[0], n), off],
                                  [_h(off), 0.5 * _blockwise(half[1], eye, half[1], n)]])
    c1, c2, value = _repair(dn, cn, xs, dressing)
    return value, c1, c2, duals, [st[0] for st in states] + [st[1] for st in states]


def _choi_programs(dn: tuple, cn: tuple, live: tuple, xs: dict):
    """SDPs over Choi blocks of the dressing maps S1, S2, one per input of a group.

    For each pair (domain block i of size n_i, codomain block t of size
    c_t) there are Hermitian variables C1, C2 of size n_i * c_t tied by

        [[C1, X], [X*, C2]] is PSD

    with X the fixed Choi data of the input, plus for each codomain block t
    the operator-norm constraints s - sum_i ptr(C1) >= 0 and likewise for
    C2, the partial trace running over the domain index.  Only the domain
    blocks in ``live``, where the maps do not vanish, get variables:
    elsewhere the optimal dressing is zero, and ``decode`` returns exact
    zeros there.  ``xs`` stacks the Choi data ``(inputs, pairs, q, q)``
    per pair shape ``(n, c)``.  The blocks are built once, and the
    programs differ only in F0 and in their starts, those of
    :func:`_state_start`.  ``decode`` reads the stacked solutions
    ``(inputs, vars)`` into C1 and C2 stacks in the layout of ``xs``.
    """
    family = len(next(iter(xs.values())))
    x_of = _by_pair(dn, cn, xs)
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
            bb = conic.BlockBuilder(2 * q, m, family)
            bb.add_hermitian_var(offs1[(i, t)], q, 0, +1.0)
            bb.add_hermitian_var(offs2[(i, t)], q, q, +1.0)
            bb.add_constant_offdiag(x_of[(i, t)], 0, q)
            blocks.append(bb.build_family())
    for offs in (offs1, offs2):
        for t, c_t in enumerate(cn):
            bb = conic.BlockBuilder(c_t, m, family)
            bb.add_scalar_identity(0, c_t, 0, +1.0)
            for i in live:
                bb.add_partial_trace_var(offs[(i, t)], dn[i], c_t, 0, -1.0)
            blocks.append(bb.build_family())

    programs = _norm_programs(m, blocks)
    value, c1, c2, duals, states = _state_start(dn, cn, xs)
    c1, c2, duals = (_by_pair(dn, cn, d) for d in (c1, c2, duals))
    # the variables are s, then C1 and C2 of each live pair in turn
    y = np.concatenate([value[:, None]] + [conic.svec(c[p]) for p in offs1 for c in (c1, c2)], axis=1)
    z = np.concatenate([conic.svec(duals[p]) for p in offs1]
                       + [conic.svec(st / 2.0) for st in states], axis=1)
    for program, y_k, z_k in zip(programs, y, z):
        program.start = (y_k, z_k)

    def decode(y: np.ndarray) -> dict:
        return {(n, c): (_read(y, pairs, offs1, n * c), _read(y, pairs, offs2, n * c))
                for (n, c), pairs in _pair_shapes(dn, cn).items()}

    return programs, decode


def _repair(dn: tuple, cn: tuple, xs: dict, dressing: dict):
    """Exact-feasibility shift and balancing of stacked Choi dressings.

    Adding eps to both diagonal corners of a pair block shifts the whole
    block by eps, so feasibility is restored exactly; afterwards the two
    sums are rescaled into their geometric mean, which a congruence by
    diag(sqrt(t), 1/sqrt(t)) shows keeps every pair block PSD.  ``xs`` and
    ``dressing`` hold, per pair shape, the stacks ``(inputs, pairs, q, q)``
    of the Choi data and of the dressing halves C1, C2; the repaired
    halves come back in that layout, with the value of each input.
    """
    r1, r2 = {}, {}
    for key, x in xs.items():
        h1, h2 = ((c + _h(c)) / 2.0 for c in dressing[key])
        w = np.linalg.eigvalsh(np.block([[h1, x], [_h(x), h2]]))
        eps = -w[..., 0]
        shift = np.where(eps > 0.0, eps, 0.0)[..., None, None] * np.eye(x.shape[-1])
        r1[key] = h1 + shift
        r2[key] = h2 + shift

    def norm_of_sum(cs: dict) -> np.ndarray:
        of = _by_pair(dn, cn, cs)
        worst = np.zeros(len(of[(0, 0)]))
        for t, c_t in enumerate(cn):
            acc = np.zeros((len(worst), c_t, c_t), dtype=np.complex128)
            for i, n_i in enumerate(dn):
                acc += of[(i, t)].reshape(-1, n_i, c_t, n_i, c_t).trace(axis1=1, axis2=3)
            worst = np.maximum(worst, np.linalg.norm(acc, 2, axis=(-2, -1)))
        return worst

    lam1 = norm_of_sum(r1)
    lam2 = norm_of_sum(r2)
    balance = ~((lam1 <= 0) | (lam2 <= 0))
    t = np.sqrt(lam2[balance] / lam1[balance])[:, None, None, None]
    for key in r1:
        r1[key][balance] = t * r1[key][balance]
        r2[key][balance] = r2[key][balance] / t
    return r1, r2, np.where(balance, np.sqrt(lam1 * lam2), np.maximum(lam1, lam2))


def extract_factorization(x: np.ndarray, c1: np.ndarray, c2: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``A* B = X`` of Choi data from a feasible Choi dressing.

    The Choi data is written as ``X = C1^(1/2) K C2^(1/2)`` with ``K`` the
    pseudo-inverse sandwich clipped to a contraction; ``A = (C1^(1/2) K)*``
    and ``B = C2^(1/2)`` then satisfy ``A* B = X``, and for a pair of a
    domain block of size n and a codomain block of size c their ``(k, r)``
    sub-blocks of size c are ``a_kr`` and ``b_kr``.  Each argument is one
    matrix or a stack ``(..., q, q)``, which is factored matrix by matrix
    in one call.  With a feasible dressing the column norms obey
    ``sum a* a <= sum ptr(C1)`` and ``sum b* b <= sum ptr(C2)``.
    """
    p_half, p_inv = linalg.psd_roots(c1)
    q_half, q_inv = linalg.psd_roots(c2)
    contraction = p_inv @ x @ q_inv
    uu, sv, vh = linalg.svd(contraction)
    contraction = (uu * np.clip(sv, 0.0, 1.0)[..., None, :]) @ vh
    return _h(p_half @ contraction), q_half


def _stacks(elems: list[AlgebraElement]) -> list[np.ndarray]:
    """Elements of one algebra as one stack ``(1, len(elems), d, d)`` per block."""
    shape = elems[0].shape
    if any(x.shape != shape for x in elems):
        raise ValueError("elements must lie in one algebra")
    return [np.stack([x.blocks[t] for x in elems])[None] for t in range(shape.num_blocks)]


def _column_bounds(fa: list[np.ndarray], fb: list[np.ndarray]) -> np.ndarray:
    """``||sum a* a||^(1/2) ||sum b* b||^(1/2)`` of each input.

    ``fa`` and ``fb`` hold one stack ``(inputs, factors, c, c)`` per
    codomain block; the Gram sums add the factors in order.
    """
    def gram_norm(fam: list[np.ndarray]) -> np.ndarray:
        norms = []
        for f in fam:
            terms = _h(f) @ f
            gram = terms[:, 0]
            for j in range(1, terms.shape[1]):
                gram = gram + terms[:, j]
            norms.append(np.linalg.norm(gram, 2, axis=(-2, -1)))
        return np.max(norms, axis=0)

    return np.sqrt(gram_norm(fa) * gram_norm(fb))


def dec_upper_bound_factored(a: list[AlgebraElement], b: list[AlgebraElement]) -> float:
    """Column-norm bound ``||sum a* a||^(1/2) ||sum b* b||^(1/2)``.

    Any factorization ``x_j = a_j* b_j`` makes this an upper bound for the
    decomposable norm of the tuple; the SDP certificates reach it.
    """
    if len(a) != len(b) or not a:
        raise ValueError("factor families must be nonempty and equally long")
    return float(_column_bounds(_stacks(a), _stacks(b))[0])


def _residuals(dn: tuple, images: list[np.ndarray], fa: list[np.ndarray],
               fb: list[np.ndarray]) -> np.ndarray:
    """Largest ``||u(e_rs) - sum_k a_kr* b_ks||`` of each input.

    ``images``, ``fa`` and ``fb`` hold one stack ``(inputs, units, c, c)``
    per codomain block, units in the enumeration of the domain with
    blocks of sizes ``dn``; each sum adds its terms in order of k.
    """
    resid = np.zeros(len(images[0]))
    o = 0
    for n in dn:
        units = slice(o, o + n * n)
        for img, a, b in zip(images, fa, fb, strict=True):
            shape = (len(a), n, n) + a.shape[2:]
            ah = _h(a[:, units].reshape(shape))
            bs = b[:, units].reshape(shape)
            acc = sum(ah[:, k, :, None] @ bs[:, k, None, :] for k in range(n))
            err = np.linalg.norm(img[:, units].reshape(shape) - acc, 2, axis=(-2, -1))
            resid = np.maximum(resid, err.reshape(len(a), -1).max(axis=1))
        o += n * n
    return resid


def reconstruction_residual(u: LinearMapRep, factor_a: list[AlgebraElement],
                            factor_b: list[AlgebraElement]) -> float:
    """Largest ``||u(e_rs) - sum_k a_kr* b_ks||``, factors laid out as in ``DecCertificate``.

    Raises ``ValueError`` unless both families hold one factor per image
    of ``u``, each in the codomain of ``u``.
    """
    if not (len(factor_a) == len(factor_b) == len(u.images)):
        raise ValueError("factor families must hold one factor per image of the map")
    if not (factor_a[0].shape == factor_b[0].shape == u.codomain):
        raise ValueError("factors must lie in the codomain of the map")
    return float(_residuals(u.domain.block_dims, _stacks(u.images),
                            _stacks(factor_a), _stacks(factor_b))[0])


def _certify_all(inputs: list, item, tol: float) -> list[DecCertificate]:
    """Decomposable norms of the maps of ``inputs``, with their certificates.

    ``item`` validates one input and returns its map ``u``, from any
    domain, with its certificate kind; every input is validated before any
    program is solved, and with several inputs a ``ValueError`` names the
    failing one as ``input k``.  Each map is scaled to unit size, and the
    maps are grouped by structure: kind, domain blocks, codomain blocks
    and, except for kind ``selfadjoint``, whose program gives every
    coefficient its variable, the live domain blocks (those where the map
    is nonzero).  Each group
    gets one program build, the split for kind ``selfadjoint``, else the
    Choi program, whose programs differ only in F0 and start from the
    group's fixed point over states.  All programs are
    solved in one :func:`conic.solve_all` call at tolerance ``tol``, so
    programs of one structure run in lockstep and each gets the solution
    it gets alone.  Each group is then finished on stacked arrays: its
    dressings are repaired and factored, and everything is scaled back
    using the homogeneity of the norm (value and dressing linearly,
    factors by the square root).  Every certificate has the bits it gets
    alone.  A program that misses optimality raises ``SolverError``,
    naming its input when there are several.
    """
    several = len(inputs) > 1
    certs: list[DecCertificate | None] = [None] * len(inputs)
    groups: dict[tuple, list] = {}
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
        dn, cn = u.domain.block_dims, u.codomain.block_dims
        # the split program gives every coefficient its variable, so it has no live set
        live = () if kind == "selfadjoint" else tuple(
            i for i in range(len(dn)) if any(np.any(x_choi[(i, t)]) for t in range(len(cn))))
        groups.setdefault((kind, dn, cn, live), []).append((k, u, scale, x_choi))

    programs, finishes = {}, []
    for (kind, dn, cn, live), members in groups.items():
        xs = {key: np.array([[x_choi[p] for p in pairs] for *_, x_choi in members])
              for key, pairs in _pair_shapes(dn, cn).items()}
        if kind == "selfadjoint":
            group_programs, decode = _selfadjoint_programs(dn, cn, xs)
        else:
            group_programs, decode = _choi_programs(dn, cn, live, xs)
        for (k, *_), program in zip(members, group_programs):
            programs[k] = program
        finishes.append((kind, dn, cn, members, xs, decode))
    order = sorted(programs)
    sols = dict(zip(order, _solve_optimal([programs[k] for k in order], order, several, tol)))
    del programs
    for kind, dn, cn, members, xs, decode in finishes:
        group_sols = [sols[k] for k, *_ in members]
        for (k, *_), cert in zip(members, _finish_group(kind, dn, cn, members, xs, decode,
                                                        group_sols)):
            certs[k] = cert
    return certs


def _finish_group(kind: str, dn: tuple, cn: tuple, members: list, xs: dict, decode,
                  sols: list[conic.ConicSolution]) -> list[DecCertificate]:
    """Repair, factor and scale back the solutions of one structure group.

    ``members`` lists ``(k, u, scale, x_choi)`` per input, whose program,
    that of ``u / scale``, was solved as ``sols``; ``xs`` stacks the Choi
    data per pair shape.  Every step runs on stacks over the inputs and
    the pairs of one shape; only the boxing into elements runs per input.
    """
    scales = np.array([scale for _, _, scale, _ in members])[:, None, None, None]
    r1, r2, value = _repair(dn, cn, xs, decode(np.array([sol.y for sol in sols])))
    a_pairs, b_pairs = {}, {}
    for key, x in xs.items():
        a_pairs[key], b_pairs[key] = extract_factorization(x, r1[key], r2[key])

    def units(m: np.ndarray) -> np.ndarray:  # sub-blocks (k, r), row-major
        c = m.shape[-1]
        return m.transpose(0, 1, 3, 2, 4).reshape(len(m), -1, c, c)

    def diagonal(m: np.ndarray) -> np.ndarray:  # sub-blocks (r, r)
        return np.moveaxis(m.diagonal(axis1=1, axis2=3), -1, 1)

    root = np.sqrt(scales).astype(np.complex128)
    fa = [root * f for f in _per_codomain_block(dn, cn, a_pairs, units)]
    fb = [root * f for f in _per_codomain_block(dn, cn, b_pairs, units)]
    p_diag = [scales * d for d in _per_codomain_block(dn, cn, r1, diagonal)]
    q_diag = [scales * d for d in _per_codomain_block(dn, cn, r2, diagonal)]
    images = [np.array([[img.blocks[t] for img in u.images] for _, u, _, _ in members])
              for t in range(len(cn))]
    resid = _residuals(dn, images, fa, fb)
    bound = _column_bounds(fa, fb)

    certs = []
    for row, ((_, u, scale, _), sol) in enumerate(zip(members, sols)):
        def box(fam: list[np.ndarray]) -> list[AlgebraElement]:
            return [AlgebraElement(u.codomain, [f[row, j] for f in fam])
                    for j in range(fam[0].shape[1])]

        certs.append(DecCertificate(
            value=float(value[row] * scale), kind=kind,
            P=box(p_diag), Q=box(q_diag), factor_a=box(fa), factor_b=box(fb),
            reconstruction_residual=float(resid[row]), factor_bound=float(bound[row]),
            flagged=bool(resid[row] > FLAG_RESIDUAL * max(1.0, scale)), solver=sol,
        ))
    return certs


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
    several.  Inputs of one structure (tuples of one length and algebra
    that vanish on the same coefficients, maps of one shape) get one
    program build and one stacked finish, and their programs are solved
    in lockstep in one :func:`conic.solve_all` call with all the others.
    An error, from validation or the solver, names the failing input by
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


def _selfadjoint_programs(dn: tuple, cn: tuple, xs: dict):
    """The two-CP-summands programs of a group of unit-scale self-adjoint tuples.

    One Hermitian variable R_j per coefficient and codomain block, with
    R_j >= 0, R_j - x_j >= 0 and s - sum_j (2 R_j - x_j) >= 0.  As for
    :func:`_choi_programs`, ``xs`` stacks the Choi data per pair shape,
    the blocks are built once and the programs differ only in F0; every
    coefficient gets its variable.  ``decode``
    returns the dressing S1 = S2 with Choi blocks R_j + N_j = 2 R_j - x_j.
    """
    family = len(next(iter(xs.values())))
    x_of = _by_pair(dn, cn, xs)
    m = 1
    offs = {}
    for j in range(len(dn)):
        for t, c in enumerate(cn):
            offs[(j, t)] = m
            m += c * c
    blocks = []
    for j in range(len(dn)):
        for t, c in enumerate(cn):
            bb = conic.BlockBuilder(c, m, family)
            bb.add_hermitian_var(offs[(j, t)], c, 0, +1.0)
            blocks.append(bb.build_family())
            bb = conic.BlockBuilder(c, m, family)
            bb.add_hermitian_var(offs[(j, t)], c, 0, +1.0)
            bb.add_constant(-x_of[(j, t)])
            blocks.append(bb.build_family())
    for t, c in enumerate(cn):
        bb = conic.BlockBuilder(c, m, family)
        bb.add_scalar_identity(0, c, 0, +1.0)
        acc = np.zeros((family, c, c), dtype=np.complex128)
        for j in range(len(dn)):
            bb.add_hermitian_var(offs[(j, t)], c, 0, -2.0)
            acc += x_of[(j, t)]
        bb.add_constant((acc + _h(acc)) / 2.0)
        blocks.append(bb.build_family())
    def decode(y: np.ndarray) -> dict:
        out = {}
        for (n, c), pairs in _pair_shapes(dn, cn).items():
            r = _read(y, pairs, offs, c)
            dressing = (r + _h(r)) - xs[(n, c)]
            out[(n, c)] = (dressing, dressing)
        return out

    return _norm_programs(m, blocks), decode
