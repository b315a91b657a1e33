"""Seeded verification corpus.

Every check draws its instances from a Philox stream keyed by
``(seed, stream)`` with the stream id fixed per check in
``data/corpus.json``, so the corpus is a pure function of the seed and
the manifest.  Checks are listed in a canonical order; each one returns
its worst residual against a stated tolerance, and the suite passes only
if every check does.

``inject`` names deliberate regressions (for exercising the harness
itself): ``"seesaw_frozen"`` cripples the see-saw lower bound inside the
agreement check, which must then fail.
"""

from __future__ import annotations

import importlib.resources
import json
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from decnorms import linalg
from decnorms.algebra import AlgebraShape, element, matrix_algebra
from decnorms.cbnorm import cb_norm_linf, seesaw_min_norm
from decnorms.conic import solve, verify_certificate
from decnorms.decomposable import (
    dec_norm_direct_sum,
    dec_norm_linf,
    dec_norm_matrix_domain,
    dec_upper_bound_factored,
    selfadjoint_dec_norm,
)
from decnorms.freetensor import FreeTensor, check_finite_rank_contraction, nuclearity_gap
from decnorms.maps import (
    LinearMapRep,
    compose,
    identity_map,
    kraus_map,
    map_from_function,
    tensor,
)
from decnorms.multdomain import (
    bimodularity_residual,
    multiplicative_domain,
    subalgebra_closure_report,
    verify_bimodularity,
)
from decnorms.testkit import (
    eigenvalue_program,
    grid_oracle_min_norm,
    make_generator,
    random_ginibre,
    random_haar_unitary,
    random_hermitian,
    random_matrix_tuple,
    random_unital_cp_map,
)

INJECTABLE = ("seesaw_frozen",)


@dataclass
class CheckResult:
    """Outcome of one named check over its instance family."""

    name: str
    passed: bool
    instances: int
    worst: float
    tolerance: float
    detail: str
    seconds: float


@dataclass
class SuiteReport:
    profile: str
    seed: int
    results: list[CheckResult] = field(default_factory=list)
    all_passed: bool = False
    seconds: float = 0.0


def load_manifest() -> dict:
    path = importlib.resources.files("decnorms") / "data" / "corpus.json"
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _cfg(manifest: dict, name: str) -> dict:
    for c in manifest["checks"]:
        if c["name"] == name:
            return c
    raise KeyError(f"check {name} missing from the corpus manifest")


def _count(cfg: dict, profile: str, cap: int | None) -> int:
    n = int(cfg[profile])
    if cap is not None:
        n = min(n, cap)
    return max(n, 1)


def _sub_seed(seed: int, idx: int) -> int:
    return (seed * 1_000_003 + 7_919 * idx + 17) % (2**31)


def _random_map(gen, d: int, scale: float = 1.0) -> LinearMapRep:
    alg = matrix_algebra(d)
    images = [element(alg, [scale * random_ginibre(gen, d, d)]) for _ in range(d * d)]
    return LinearMapRep(domain=alg, codomain=alg, images=images)


# ---------------------------------------------------------------------------
# check runners; each returns a list of CheckResult
# ---------------------------------------------------------------------------

def _run_solver_eigenvalue(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "solver_eigenvalue")
    n = _count(cfg, profile, cap)
    lo, hi = cfg["sizes"]
    tol = float(cfg["tolerance"])
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = 0.0
    clean = True
    for i in range(n):
        size = lo + (i % (hi - lo + 1))
        h = random_hermitian(gen, size)
        prog = eigenvalue_program(h)
        sol = solve(prog, gap_tol=1e-9, feas_tol=1e-9)
        lam = float(np.linalg.eigvalsh(h)[-1])
        worst = max(worst, abs(sol.primal_value - lam), abs(sol.gap))
        if sol.status != "optimal" or not verify_certificate(prog, sol).clean:
            clean = False
    passed = clean and worst <= tol
    return [CheckResult(
        name="solver_eigenvalue", passed=passed, instances=n, worst=worst,
        tolerance=tol,
        detail=f"eigensolver match and duality gap over sizes {lo}..{hi}"
               + ("" if clean else "; certificate verification failed"),
        seconds=time.perf_counter() - t0,
    )]


def _run_dec_cb_agreement(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "dec_cb_agreement")
    cert_cfg = _cfg(manifest, "dec_certificates")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    lower_slack = float(cfg["lower_slack"])
    rec_tol = float(cert_cfg["tolerance"])
    val_tol = float(cert_cfg["value_tolerance"])
    grid = list(product(cfg["grid_n"], cfg["grid_d"]))
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst_gap = -np.inf
    most_negative = np.inf
    worst_rec = 0.0
    worst_val = 0.0
    frozen = "seesaw_frozen" in inject
    for i in range(n):
        nn, dd = grid[i % len(grid)]
        xs = random_matrix_tuple(gen, nn, dd)
        sub = _sub_seed(seed, i)
        if frozen:
            cert = dec_norm_linf(xs)
            saw = seesaw_min_norm(xs, aux_dim=dd, restarts=1, max_sweeps=1, seed=sub)
            upper, lower = cert.value, saw.lower
        else:
            agg = cb_norm_linf(xs, restarts=16, seed=sub, agree_tol=tol)
            upper, lower = agg.upper, agg.lower
            cert = agg.certificate
        rel = (upper - lower) / max(1.0, upper)
        worst_gap = max(worst_gap, rel)
        most_negative = min(most_negative, rel)
        scale = max(1.0, max(linalg.operator_norm(x) for x in xs))
        worst_rec = max(worst_rec, cert.reconstruction_residual / scale)
        worst_val = max(worst_val, abs(cert.factor_bound - cert.value) / max(1.0, cert.value))
    elapsed = time.perf_counter() - t0
    agree_ok = worst_gap <= tol and most_negative >= -lower_slack
    cert_ok = worst_rec <= rec_tol and worst_val <= val_tol
    return [
        CheckResult(
            name="dec_cb_agreement", passed=bool(agree_ok), instances=n,
            worst=float(worst_gap), tolerance=tol,
            detail=f"relative upper-lower gap in [-{lower_slack:g}, {tol:g}]; "
                   f"most negative {most_negative:.2e}",
            seconds=elapsed,
        ),
        CheckResult(
            name="dec_certificates", passed=bool(cert_ok), instances=n,
            worst=float(max(worst_rec, worst_val)), tolerance=max(rec_tol, val_tol),
            detail=f"reconstruction {worst_rec:.2e} (tol {rec_tol:g}), "
                   f"value match {worst_val:.2e} (tol {val_tol:g})",
            seconds=0.0,
        ),
    ]


def _run_closed_form_scalars(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "closed_form_scalars")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    lo, hi = cfg["n_range"]
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(n):
        nn = lo + (i % (hi - lo + 1))
        vals = random_ginibre(gen, nn, 1).reshape(-1)
        xs = [v.reshape(1, 1) for v in vals]
        cert = dec_norm_linf(xs, gap_tol=1e-10, feas_tol=1e-10)
        target = float(np.abs(vals).sum())
        worst = max(worst, abs(cert.value - target) / max(1.0, target))
    return [CheckResult(
        name="closed_form_scalars", passed=worst <= tol, instances=n,
        worst=worst, tolerance=tol,
        detail="dec of scalar coefficients against the absolute-value sum",
        seconds=time.perf_counter() - t0,
    )]


def _run_closed_form_unitary(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "closed_form_unitary")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    nlo, nhi = cfg["n_range"]
    dlo, dhi = cfg["d_range"]
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(n):
        nn = nlo + (i % (nhi - nlo + 1))
        dd = dlo + (i % (dhi - dlo + 1))
        xs = [random_haar_unitary(gen, dd) for _ in range(nn)]
        cert = dec_norm_linf(xs, gap_tol=1e-10, feas_tol=1e-10)
        saw = seesaw_min_norm(xs, restarts=2, seed=_sub_seed(seed, i))
        worst = max(worst, abs(cert.value - nn) / nn, abs(saw.lower - nn) / nn)
    return [CheckResult(
        name="closed_form_unitary", passed=worst <= tol, instances=n,
        worst=worst, tolerance=tol,
        detail="dec and see-saw of a unitary family against the count n",
        seconds=time.perf_counter() - t0,
    )]


def _run_closed_form_trace(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "closed_form_trace")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    lo, hi = cfg["n_range"]
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(n):
        nn = lo + (i % (hi - lo + 1))
        a = random_ginibre(gen, nn, nn)
        dom = matrix_algebra(nn)
        cod = matrix_algebra(1)

        def f(x, a=a, cod=cod):
            return element(cod, [np.array([[np.trace(x.blocks[0] @ a)]])])

        u = map_from_function(dom, cod, f)
        cert = dec_norm_matrix_domain(u, gap_tol=1e-10, feas_tol=1e-10)
        target = float(np.linalg.svd(a, compute_uv=False).sum())
        worst = max(worst, abs(cert.value - target) / max(1.0, target))
    return [CheckResult(
        name="closed_form_trace", passed=worst <= tol, instances=n,
        worst=worst, tolerance=tol,
        detail="dec of x -> tr(xa) against the trace norm of a",
        seconds=time.perf_counter() - t0,
    )]


def _run_selfadjoint_consistency(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "selfadjoint_consistency")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    dd, nn = cfg["d"], cfg["n"]
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        xs = [random_hermitian(gen, dd) for _ in range(nn)]
        v1 = selfadjoint_dec_norm(xs, gap_tol=1e-9, feas_tol=1e-9).value
        v2 = dec_norm_linf(xs, gap_tol=1e-9, feas_tol=1e-9).value
        worst = max(worst, abs(v1 - v2))
    return [CheckResult(
        name="selfadjoint_consistency", passed=worst <= tol, instances=n,
        worst=worst, tolerance=tol,
        detail="self-adjoint two-map program against the general program",
        seconds=time.perf_counter() - t0,
    )]


def _run_ineq_submultiplicative(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "ineq_submultiplicative")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    dd = cfg["d"]
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        u = _random_map(gen, dd, scale=0.7)
        v = _random_map(gen, dd, scale=0.7)
        du = dec_norm_matrix_domain(u).value
        dv = dec_norm_matrix_domain(v).value
        duv = dec_norm_matrix_domain(compose(u, v)).value
        bound = du * dv
        worst = max(worst, (duv - bound) / max(1.0, bound))
    return [CheckResult(
        name="ineq_submultiplicative", passed=worst <= tol, instances=n,
        worst=worst, tolerance=tol,
        detail="dec(u o v) <= dec(u) dec(v), violation relative to the bound",
        seconds=time.perf_counter() - t0,
    )]


def _run_ineq_cb_le_dec(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "ineq_cb_le_dec")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    nlo, nhi = cfg["n_range"]
    dlo, dhi = cfg["d_range"]
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(n):
        nn = nlo + (i % (nhi - nlo + 1))
        dd = dlo + ((i // 2) % (dhi - dlo + 1))
        xs = random_matrix_tuple(gen, nn, dd)
        saw = seesaw_min_norm(xs, restarts=8, seed=_sub_seed(seed, i))
        dec = dec_norm_linf(xs).value
        worst = max(worst, (saw.lower - dec) / max(1.0, dec))
    return [CheckResult(
        name="ineq_cb_le_dec", passed=worst <= tol, instances=n,
        worst=worst, tolerance=tol,
        detail="see-saw lower bound never exceeds the dec value",
        seconds=time.perf_counter() - t0,
    )]


def _run_ineq_factored_bound(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "ineq_factored_bound")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    nlo, nhi = cfg["n_range"]
    dlo, dhi = cfg["d_range"]
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(n):
        nn = nlo + (i % (nhi - nlo + 1))
        dd = dlo + ((i // 2) % (dhi - dlo + 1))
        alg = matrix_algebra(dd)
        a = [element(alg, [random_ginibre(gen, dd, dd)]) for _ in range(nn)]
        b = [element(alg, [random_ginibre(gen, dd, dd)]) for _ in range(nn)]
        xs = [ai.adjoint() * bi for ai, bi in zip(a, b)]
        bound = dec_upper_bound_factored(a, b)
        val = dec_norm_linf(xs).value
        worst = max(worst, (val - bound) / max(1.0, bound))
    return [CheckResult(
        name="ineq_factored_bound", passed=worst <= tol, instances=n,
        worst=worst, tolerance=tol,
        detail="dec value never exceeds the Gram bound of a given factorization",
        seconds=time.perf_counter() - t0,
    )]


def _run_ineq_contraction(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "ineq_contraction")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    dd, nn = cfg["d"], cfg["n"]
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for i in range(n):
        u = _random_map(gen, dd, scale=0.8)
        t = FreeTensor(coeffs=tuple(random_ginibre(gen, dd, dd) for _ in range(nn)))
        rep = check_finite_rank_contraction(u, t, seed=_sub_seed(seed, i), restarts=8, tol=tol)
        ok = ok and rep.ok
        worst = max(worst, (rep.lhs - rep.rhs) / max(1.0, rep.rhs))
    return [CheckResult(
        name="ineq_contraction", passed=ok and worst <= tol, instances=n,
        worst=worst, tolerance=tol,
        detail="pushing a tensor through a map grows the max norm at most by dec times min",
        seconds=time.perf_counter() - t0,
    )]


def _run_ineq_tensor_submult(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "ineq_tensor_submult")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    dd = cfg["d"]
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        u = _random_map(gen, dd, scale=0.6)
        v = _random_map(gen, dd, scale=0.6)
        du = dec_norm_matrix_domain(u).value
        dv = dec_norm_matrix_domain(v).value
        duv = dec_norm_matrix_domain(tensor(u, v)).value
        bound = du * dv
        worst = max(worst, (duv - bound) / max(1.0, bound))
    return [CheckResult(
        name="ineq_tensor_submult", passed=worst <= tol, instances=n,
        worst=worst, tolerance=tol,
        detail="dec(u (x) v) <= dec(u) dec(v) on matrix algebra factors",
        seconds=time.perf_counter() - t0,
    )]


def _run_direct_sum(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "direct_sum")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(n):
        dims = (2, 2) if i % 2 == 0 else (2, 3)
        shape = AlgebraShape(block_dims=dims)
        images = []
        for blk, d in enumerate(dims):
            for _ in range(d * d):
                blocks = [np.zeros((dj, dj), dtype=np.complex128) for dj in dims]
                blocks[blk] = 0.8 * random_ginibre(gen, d, d)
                images.append(element(shape, blocks))
        u = LinearMapRep(domain=shape, codomain=shape, images=images)
        rep = dec_norm_direct_sum(u)
        worst = max(worst, abs(rep.joint_value - rep.max_block_value) / max(1.0, rep.max_block_value))
    return [CheckResult(
        name="direct_sum", passed=worst <= tol, instances=n,
        worst=worst, tolerance=tol,
        detail="joint program equals the max of the per-block programs",
        seconds=time.perf_counter() - t0,
    )]


def _run_nuclearity(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "nuclearity")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    dd, nn = cfg["d"], cfg["n"]
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = -np.inf
    worst_saw = 0.0
    ok = True
    for i in range(n):
        t = FreeTensor(coeffs=tuple(random_ginibre(gen, dd, dd) for _ in range(nn)))
        rep = nuclearity_gap(t, restarts=16, seed=_sub_seed(seed, i), agree_tol=tol)
        worst = max(worst, rep.rel_gap)
        worst_saw = max(worst_saw, rep.seesaw_gap)
        ok = ok and rep.rel_gap >= -1e-6
    passed = ok and worst <= tol and worst_saw <= tol
    return [CheckResult(
        name="nuclearity", passed=bool(passed), instances=n,
        worst=float(max(worst, worst_saw)), tolerance=tol,
        detail=f"max-min relative gap {worst:.2e}, see-saw bracket {worst_saw:.2e}",
        seconds=time.perf_counter() - t0,
    )]


def _run_mult_domain(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "mult_domain")
    tol = float(cfg["tolerance"])
    floor = float(cfg["negative_floor"])
    dims = cfg["dims"]
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    worst = 0.0
    dims_ok = True
    neg_ok = True
    count = 0
    for d in dims:
        alg = matrix_algebra(d)
        ident = multiplicative_domain(identity_map(alg))
        dims_ok = dims_ok and ident.dimension == d * d

        lam = 0.6
        cod = alg

        def dep(x, lam=lam, cod=cod, d=d):
            blk = x.blocks[0]
            return element(cod, [lam * blk + (1 - lam) * np.trace(blk) / d * np.eye(d)])

        depol = map_from_function(alg, alg, dep)
        dims_ok = dims_ok and multiplicative_domain(depol).dimension == 1

        pinch = kraus_map([np.diag([1.0 if i == j else 0.0 for i in range(d)]).astype(complex)
                           for j in range(d)])
        dpinch = multiplicative_domain(pinch)
        dims_ok = dims_ok and dpinch.dimension == d

        for dom_basis, u in ((ident, identity_map(alg)), (dpinch, pinch)):
            rep = subalgebra_closure_report(dom_basis)
            worst = max(worst, rep["unit"], rep["adjoint"], rep["product"])
            bim = verify_bimodularity(u, dom_basis, samples=10, seed=_sub_seed(seed, d))
            worst = max(worst, bim.max_residual)

        off = np.zeros((d, d), dtype=complex)
        off[0, 1] = 1.0
        a_bad = element(alg, [off])
        x = element(alg, [random_ginibre(gen, d, d)])
        neg = bimodularity_residual(pinch, a_bad, x, dpinch.basis[0])
        neg_ok = neg_ok and neg > floor

        rnd = multiplicative_domain(random_unital_cp_map(gen, d, num_kraus=2))
        closure = subalgebra_closure_report(rnd)
        worst = max(worst, closure["unit"], closure["adjoint"], closure["product"])
        count += 4
    passed = dims_ok and neg_ok and worst <= tol
    return [CheckResult(
        name="mult_domain", passed=bool(passed), instances=count,
        worst=worst, tolerance=tol,
        detail="dimensions d^2/1/d, closure and bimodularity residuals, "
               f"negative control {'flagged' if neg_ok else 'MISSED'}",
        seconds=time.perf_counter() - t0,
    )]


def _run_oracle_cross_check(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "oracle_cross_check")
    n = _count(cfg, profile, cap)
    tol = float(cfg["tolerance"])
    upper_slack = float(cfg["upper_slack"])
    gen = make_generator(seed, stream=cfg["stream"])
    t0 = time.perf_counter()
    sizes = [(2, 1), (3, 1), (2, 2), (3, 2)]
    worst = 0.0
    sound = True
    for i in range(n):
        nn, dd = sizes[i % len(sizes)]
        xs = random_matrix_tuple(gen, nn, dd)
        oracle = grid_oracle_min_norm(xs)
        saw = seesaw_min_norm(xs, restarts=8, seed=_sub_seed(seed, i))
        upper = dec_norm_linf(xs).value
        worst = max(worst, abs(oracle - saw.lower))
        sound = sound and oracle <= upper + upper_slack
    passed = sound and worst <= tol
    return [CheckResult(
        name="oracle_cross_check", passed=bool(passed), instances=n,
        worst=worst, tolerance=tol,
        detail="grid oracle against the see-saw; oracle stays below the SDP value"
               + ("" if sound else " (SOUNDNESS VIOLATED)"),
        seconds=time.perf_counter() - t0,
    )]


def _run_determinism(manifest, profile, seed, cap, inject):
    cfg = _cfg(manifest, "determinism")
    gen_seed = cfg["stream"]
    t0 = time.perf_counter()
    worst = 0.0

    def one_pass():
        g = make_generator(seed, stream=gen_seed)
        xs = random_matrix_tuple(g, 3, 2)
        cert = dec_norm_linf(xs)
        saw = seesaw_min_norm(xs, restarts=4, seed=seed)
        return cert.value, saw.lower

    v1 = one_pass()
    v2 = one_pass()
    worst = max(abs(v1[0] - v2[0]), abs(v1[1] - v2[1]))
    return [CheckResult(
        name="determinism", passed=worst == 0.0, instances=2,
        worst=worst, tolerance=0.0,
        detail="repeated runs are bitwise identical",
        seconds=time.perf_counter() - t0,
    )]


_RUNNERS = (
    _run_solver_eigenvalue,
    _run_dec_cb_agreement,
    _run_closed_form_scalars,
    _run_closed_form_unitary,
    _run_closed_form_trace,
    _run_selfadjoint_consistency,
    _run_ineq_submultiplicative,
    _run_ineq_cb_le_dec,
    _run_ineq_factored_bound,
    _run_ineq_contraction,
    _run_ineq_tensor_submult,
    _run_direct_sum,
    _run_nuclearity,
    _run_mult_domain,
    _run_oracle_cross_check,
    _run_determinism,
)


def run_suite(
    *,
    profile: str = "quick",
    seed: int = 42,
    max_instances: int | None = None,
    inject: frozenset = frozenset(),
) -> SuiteReport:
    """Run the whole corpus; canonical check order, one result per check."""
    if profile not in ("quick", "full"):
        raise ValueError("profile must be 'quick' or 'full'")
    for name in inject:
        if name not in INJECTABLE:
            raise ValueError(f"unknown injected regression {name!r}")
    manifest = load_manifest()
    t0 = time.perf_counter()
    results = []
    for runner in _RUNNERS:
        results.extend(runner(manifest, profile, seed, max_instances, inject))
    report = SuiteReport(
        profile=profile, seed=seed, results=results,
        all_passed=all(r.passed for r in results),
        seconds=time.perf_counter() - t0,
    )
    return report


def render_suite_text(report: SuiteReport) -> str:
    name_w = max(len(r.name) for r in report.results) + 2
    lines = [
        f"verification suite  profile={report.profile}  seed={report.seed}",
        f"{'check'.ljust(name_w)}{'n':>5}  {'worst':>10}  {'tol':>8}  status",
    ]
    for r in report.results:
        lines.append(
            f"{r.name.ljust(name_w)}{r.instances:>5}  {r.worst:>10.2e}  "
            f"{r.tolerance:>8.1e}  {'pass' if r.passed else 'FAIL'}"
        )
    lines.append(
        f"overall: {'pass' if report.all_passed else 'FAIL'} "
        f"({sum(r.passed for r in report.results)}/{len(report.results)} checks, "
        f"{report.seconds:.1f}s)"
    )
    return "\n".join(lines) + "\n"


def suite_report_dict(report: SuiteReport) -> dict:
    return {
        "profile": report.profile,
        "seed": report.seed,
        "all_passed": report.all_passed,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "instances": r.instances,
                "worst": r.worst,
                "tolerance": r.tolerance,
                "detail": r.detail,
            }
            for r in report.results
        ],
        "timing": {"seconds": report.seconds},
    }
