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
from typing import NamedTuple

import numpy as np

from decnorms import linalg
from decnorms.algebra import AlgebraShape, element, matrix_algebra
from decnorms.cbnorm import cb_norm_linf, min_norm, seesaw_min_norm
from decnorms.conic import solve_all, verify_certificate
from decnorms.decomposable import (
    dec_norm_linf,
    dec_norms,
    dec_upper_bound_factored,
    selfadjoint_dec_norms,
)
from decnorms.maps import (
    LinearMapRep,
    apply_map,
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


def _sub_seed(seed: int, idx: int) -> int:
    return (seed * 1_000_003 + 7_919 * idx + 17) % (2**31)


def _random_map(gen, d: int, scale: float = 1.0) -> LinearMapRep:
    alg = matrix_algebra(d)
    images = [element(alg, [scale * random_ginibre(gen, d, d)]) for _ in range(d * d)]
    return LinearMapRep(domain=alg, codomain=alg, images=images)


class _Outcome(NamedTuple):
    """What a runner found; ``run_suite`` turns it into a ``CheckResult``.

    The check passes when ``ok`` holds and ``worst`` is within the
    tolerance.  ``instances`` and ``tolerance`` default to the instance
    count and the manifest tolerance.
    """

    worst: float
    detail: str
    ok: bool = True
    instances: int | None = None
    tolerance: float | None = None


_RUNNERS: dict = {}  # manifest names -> (runner, whether it reads the injected regressions)


def _check(*names, reads_inject=False):
    """Register a runner for the manifest checks ``names``, in report order.

    The runner is called with the manifest entry of each name, the instance
    count, a generator fresh from the first entry's stream and the seed,
    then, if it ``reads_inject``, the injected regressions.  It returns one
    ``_Outcome`` per name.
    """
    def register(fn):
        _RUNNERS[names] = (fn, reads_inject)
        return fn
    return register


# ---------------------------------------------------------------------------
# check runners, in the manifest's order
# ---------------------------------------------------------------------------

@_check("solver_eigenvalue")
def _solver_eigenvalue(cfg, n, gen, seed):
    lo, hi = cfg["sizes"]
    worst = 0.0
    clean = True
    hs = [random_hermitian(gen, lo + (i % (hi - lo + 1))) for i in range(n)]
    progs = [eigenvalue_program(h) for h in hs]
    for h, prog, sol in zip(hs, progs, solve_all(progs, tol=1e-9)):
        lam = float(np.linalg.eigvalsh(h)[-1])
        worst = max(worst, abs(sol.primal_value - lam), abs(sol.gap))
        if sol.status != "optimal" or not verify_certificate(prog, sol).clean:
            clean = False
    return _Outcome(worst, f"eigensolver match and duality gap over sizes {lo}..{hi}"
                           + ("" if clean else "; certificate verification failed"), ok=clean)


@_check("dec_cb_agreement", "dec_certificates", reads_inject=True)
def _dec_cb_agreement(cfg, cert_cfg, n, gen, seed, inject):
    tol = float(cfg["tolerance"])
    lower_slack = float(cfg["lower_slack"])
    rec_tol = float(cert_cfg["tolerance"])
    val_tol = float(cert_cfg["value_tolerance"])
    grid = list(product(cfg["grid_n"], cfg["grid_d"]))
    worst_gap = -np.inf
    most_negative = np.inf
    worst_rec = 0.0
    worst_val = 0.0
    frozen = "seesaw_frozen" in inject
    tuples = [random_matrix_tuple(gen, *grid[i % len(grid)]) for i in range(n)]
    for i, (xs, cert) in enumerate(zip(tuples, dec_norms(tuples))):
        sub = _sub_seed(seed, i)
        if frozen:
            saw = seesaw_min_norm(xs, aux_dim=len(xs[0]), restarts=1, max_sweeps=1, seed=sub)
            upper, lower = cert.value, saw.lower
        else:
            agg = cb_norm_linf(xs, restarts=16, seed=sub, agree_tol=tol, certificate=cert)
            upper, lower = agg.upper, agg.lower
        rel = (upper - lower) / max(1.0, upper)
        worst_gap = max(worst_gap, rel)
        most_negative = min(most_negative, rel)
        scale = max(1.0, max(linalg.operator_norm(x) for x in xs))
        worst_rec = max(worst_rec, cert.reconstruction_residual / scale)
        worst_val = max(worst_val, abs(cert.factor_bound - cert.value) / max(1.0, cert.value))
    return (
        _Outcome(worst_gap, f"relative upper-lower gap in [-{lower_slack:g}, {tol:g}]; "
                            f"most negative {most_negative:.2e}",
                 ok=most_negative >= -lower_slack),
        _Outcome(max(worst_rec, worst_val),
                 f"reconstruction {worst_rec:.2e} (tol {rec_tol:g}), "
                 f"value match {worst_val:.2e} (tol {val_tol:g})",
                 ok=worst_rec <= rec_tol and worst_val <= val_tol,
                 tolerance=max(rec_tol, val_tol)),
    )


@_check("closed_form_scalars")
def _closed_form_scalars(cfg, n, gen, seed):
    lo, hi = cfg["n_range"]
    worst = 0.0
    draws = [random_ginibre(gen, lo + (i % (hi - lo + 1)), 1).reshape(-1) for i in range(n)]
    certs = dec_norms([[v.reshape(1, 1) for v in vals] for vals in draws], tol=1e-10)
    for vals, cert in zip(draws, certs):
        target = float(np.abs(vals).sum())
        worst = max(worst, abs(cert.value - target) / max(1.0, target))
    return _Outcome(worst, "dec of scalar coefficients against the absolute-value sum")


@_check("closed_form_unitary")
def _closed_form_unitary(cfg, n, gen, seed):
    nlo, nhi = cfg["n_range"]
    dlo, dhi = cfg["d_range"]
    worst = 0.0
    families = [[random_haar_unitary(gen, dlo + (i % (dhi - dlo + 1)))
                 for _ in range(nlo + (i % (nhi - nlo + 1)))] for i in range(n)]
    certs = dec_norms(families, tol=1e-10)
    for i, (xs, cert) in enumerate(zip(families, certs)):
        nn = len(xs)
        saw = seesaw_min_norm(xs, restarts=2, seed=_sub_seed(seed, i))
        worst = max(worst, abs(cert.value - nn) / nn, abs(saw.lower - nn) / nn)
    return _Outcome(worst, "dec and see-saw of a unitary family against the count n")


@_check("closed_form_trace")
def _closed_form_trace(cfg, n, gen, seed):
    lo, hi = cfg["n_range"]
    worst = 0.0
    cod = matrix_algebra(1)
    mats = [random_ginibre(gen, lo + (i % (hi - lo + 1)), lo + (i % (hi - lo + 1)))
            for i in range(n)]

    def trace_map(a):
        return map_from_function(matrix_algebra(a.shape[0]), cod,
                                 lambda x: element(cod, [np.array([[np.trace(x.blocks[0] @ a)]])]))

    certs = dec_norms([trace_map(a) for a in mats], tol=1e-10)
    for a, cert in zip(mats, certs):
        target = float(np.linalg.svd(a, compute_uv=False).sum())
        worst = max(worst, abs(cert.value - target) / max(1.0, target))
    return _Outcome(worst, "dec of x -> tr(xa) against the trace norm of a")


@_check("selfadjoint_consistency")
def _selfadjoint_consistency(cfg, n, gen, seed):
    dd, nn = cfg["d"], cfg["n"]
    worst = 0.0
    tuples = [[random_hermitian(gen, dd) for _ in range(nn)] for _ in range(n)]
    general = dec_norms(tuples, tol=1e-9)
    for sa, cert in zip(selfadjoint_dec_norms(tuples, tol=1e-9), general):
        worst = max(worst, abs(sa.value - cert.value))
    return _Outcome(worst, "self-adjoint two-map program against the general program")


def _product_excess(triples) -> float:
    """Worst relative excess of dec(t) over dec(a) dec(b) over the ``(a, b, t)`` triples.

    One ``dec_norms`` call solves every norm.  The excess is at least 0, and
    NaN if a norm is, so that the check fails on one.
    """
    vals = np.array([c.value for c in dec_norms([w for triple in triples for w in triple])])
    a, b, t = vals.reshape(-1, 3).T
    bound = a * b
    return float(np.max((t - bound) / np.maximum(1.0, bound), initial=0.0))


@_check("ineq_submultiplicative")
def _ineq_submultiplicative(cfg, n, gen, seed):
    dd = cfg["d"]
    pairs = [(_random_map(gen, dd, scale=0.7), _random_map(gen, dd, scale=0.7)) for _ in range(n)]
    return _Outcome(_product_excess([(u, v, compose(u, v)) for u, v in pairs]),
                    "dec(u o v) <= dec(u) dec(v), violation relative to the bound")


@_check("ineq_cb_le_dec")
def _ineq_cb_le_dec(cfg, n, gen, seed):
    nlo, nhi = cfg["n_range"]
    dlo, dhi = cfg["d_range"]
    worst = 0.0
    tuples = [random_matrix_tuple(gen, nlo + (i % (nhi - nlo + 1)), dlo + ((i // 2) % (dhi - dlo + 1)))
              for i in range(n)]
    for i, (xs, cert) in enumerate(zip(tuples, dec_norms(tuples))):
        saw = seesaw_min_norm(xs, restarts=8, seed=_sub_seed(seed, i))
        worst = max(worst, (saw.lower - cert.value) / max(1.0, cert.value))
    return _Outcome(worst, "see-saw lower bound never exceeds the dec value")


@_check("ineq_factored_bound")
def _ineq_factored_bound(cfg, n, gen, seed):
    nlo, nhi = cfg["n_range"]
    dlo, dhi = cfg["d_range"]
    worst = 0.0
    factors = []
    for i in range(n):
        nn = nlo + (i % (nhi - nlo + 1))
        dd = dlo + ((i // 2) % (dhi - dlo + 1))
        alg = matrix_algebra(dd)
        a = [element(alg, [random_ginibre(gen, dd, dd)]) for _ in range(nn)]
        b = [element(alg, [random_ginibre(gen, dd, dd)]) for _ in range(nn)]
        factors.append((a, b))
    certs = dec_norms([[ai.adjoint() * bi for ai, bi in zip(a, b)] for a, b in factors])
    for (a, b), cert in zip(factors, certs):
        bound = dec_upper_bound_factored(a, b)
        worst = max(worst, (cert.value - bound) / max(1.0, bound))
    return _Outcome(worst, "dec value never exceeds the Gram bound of a given factorization")


@_check("ineq_contraction")
def _ineq_contraction(cfg, n, gen, seed):
    dd, nn = cfg["d"], cfg["n"]
    alg = matrix_algebra(dd)
    triples = []  # (u, xs, u . xs): the max norm of u . xs is at most dec(u) times min(xs)
    for _ in range(n):
        u = _random_map(gen, dd, scale=0.8)
        xs = [element(alg, [x]) for x in random_matrix_tuple(gen, nn, dd)]
        triples.append((u, xs, [apply_map(u, x) for x in xs]))
    return _Outcome(_product_excess(triples),
                    "pushing a tensor through a map grows the max norm at most by dec times min")


@_check("ineq_tensor_submult")
def _ineq_tensor_submult(cfg, n, gen, seed):
    dd = cfg["d"]
    pairs = [(_random_map(gen, dd, scale=0.6), _random_map(gen, dd, scale=0.6)) for _ in range(n)]
    return _Outcome(_product_excess([(u, v, tensor(u, v)) for u, v in pairs]),
                    "dec(u (x) v) <= dec(u) dec(v) on matrix algebra factors")


@_check("direct_sum")
def _direct_sum(cfg, n, gen, seed):
    worst = 0.0
    us = []  # each map's two blocks, then the map on their direct sum
    for i in range(n):
        dims = (2, 2) if i % 2 == 0 else (2, 3)
        shape = AlgebraShape(block_dims=dims)
        images = []
        for blk, d in enumerate(dims):
            block_images = []
            for _ in range(d * d):
                x = 0.8 * random_ginibre(gen, d, d)
                blocks = [np.zeros((dj, dj), dtype=np.complex128) for dj in dims]
                blocks[blk] = x
                images.append(element(shape, blocks))
                block_images.append(element(matrix_algebra(d), [x]))
            us.append(LinearMapRep(matrix_algebra(d), matrix_algebra(d), block_images))
        us.append(LinearMapRep(domain=shape, codomain=shape, images=images))
    vals = [c.value for c in dec_norms(us)]
    for first, second, joint in zip(vals[0::3], vals[1::3], vals[2::3]):
        top = max(first, second)
        worst = max(worst, abs(joint - top) / max(1.0, top))
    return _Outcome(worst, "joint program equals the max of the per-block programs")


@_check("nuclearity")
def _nuclearity(cfg, n, gen, seed):
    tol = float(cfg["tolerance"])
    dd, nn = cfg["d"], cfg["n"]
    worst = -np.inf
    ok = True
    tensors = [random_matrix_tuple(gen, nn, dd) for _ in range(n)]
    certs = dec_norms(tensors)
    for i, (xs, cert) in enumerate(zip(tensors, certs)):
        # the max norm is the bracket's upper value: its gap is the max-min gap
        gap = min_norm(xs, restarts=16, seed=_sub_seed(seed, i), agree_tol=tol, certificate=cert).gap
        worst = max(worst, gap)
        ok = ok and gap >= -1e-6
    bracket = max(0.0, worst)
    return _Outcome(bracket, f"max-min relative gap {worst:.2e}, see-saw bracket {bracket:.2e}",
                    ok=ok)


@_check("mult_domain")
def _mult_domain(cfg, n, gen, seed):
    floor = float(cfg["negative_floor"])
    dims = cfg["dims"]
    worst = 0.0
    dims_ok = True
    neg_ok = True
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
    # four maps per size: the identity, the depolarizer, the pinching and a random one
    return _Outcome(worst, "dimensions d^2/1/d, closure and bimodularity residuals, "
                           f"negative control {'flagged' if neg_ok else 'MISSED'}",
                    ok=dims_ok and neg_ok, instances=4 * len(dims))


@_check("oracle_cross_check")
def _oracle_cross_check(cfg, n, gen, seed):
    upper_slack = float(cfg["upper_slack"])
    sizes = [(2, 1), (3, 1), (2, 2), (3, 2)]
    worst = 0.0
    sound = True
    tuples = [random_matrix_tuple(gen, *sizes[i % len(sizes)]) for i in range(n)]
    for i, (xs, cert) in enumerate(zip(tuples, dec_norms(tuples))):
        oracle = grid_oracle_min_norm(xs)
        saw = seesaw_min_norm(xs, restarts=8, seed=_sub_seed(seed, i))
        worst = max(worst, abs(oracle - saw.lower))
        sound = sound and oracle <= cert.value + upper_slack
    return _Outcome(worst, "grid oracle against the see-saw; oracle stays below the SDP value"
                           + ("" if sound else " (SOUNDNESS VIOLATED)"), ok=sound)


@_check("determinism")
def _determinism(cfg, n, gen, seed):
    def one_pass():
        g = make_generator(seed, stream=cfg["stream"])
        xs = random_matrix_tuple(g, 3, 2)
        cert = dec_norm_linf(xs)
        saw = seesaw_min_norm(xs, restarts=4, seed=seed)
        return cert.value, saw.lower

    v1 = one_pass()
    v2 = one_pass()
    worst = max(abs(v1[0] - v2[0]), abs(v1[1] - v2[1]))
    return _Outcome(worst, "repeated runs are bitwise identical", instances=2)


def run_suite(
    *,
    profile: str = "quick",
    seed: int = 42,
    max_instances: int | None = None,
    inject: frozenset = frozenset(),
) -> SuiteReport:
    """Run the whole corpus; canonical check order, one result per check.

    A runner that raises fails its checks, with the exception as ``detail``.
    """
    if profile not in ("quick", "full"):
        raise ValueError("profile must be 'quick' or 'full'")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if max_instances is not None and max_instances < 1:
        raise ValueError(f"max_instances must be at least 1, got {max_instances}")
    for name in inject:
        if name not in INJECTABLE:
            raise ValueError(f"unknown injected regression {name!r}")
    manifest = load_manifest()
    t0 = time.perf_counter()
    results = []
    for names, (runner, reads_inject) in _RUNNERS.items():
        cfgs = [_cfg(manifest, name) for name in names]
        n = int(cfgs[0][profile])
        if max_instances is not None:
            n = min(n, max_instances)
        gen = make_generator(seed, stream=cfgs[0]["stream"])
        t1 = time.perf_counter()
        try:
            outcomes = runner(*cfgs, n, gen, seed, *([inject] if reads_inject else []))
        except Exception as exc:
            failed = _Outcome(0.0, f"{type(exc).__name__}: {exc}", ok=False, instances=0)
            outcomes = (failed,) * len(names)
        seconds = time.perf_counter() - t1
        if isinstance(outcomes, _Outcome):
            outcomes = (outcomes,)
        for name, cfg, out in zip(names, cfgs, outcomes, strict=True):
            tol = float(cfg["tolerance"]) if out.tolerance is None else out.tolerance
            results.append(CheckResult(
                name=name, passed=bool(out.ok and out.worst <= tol),
                instances=n if out.instances is None else out.instances,
                worst=float(out.worst), tolerance=tol, detail=out.detail, seconds=seconds,
            ))
            seconds = 0.0  # later results of one runner share the first one's time
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
        if not r.passed:
            lines.append(f"    {r.detail}")
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
        "timing": {
            "seconds": report.seconds,
            "checks": {r.name: r.seconds for r in report.results},
        },
    }
