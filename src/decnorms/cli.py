"""Command line: compute norms for instance files, verify, benchmark.

Exit codes: 0 success, 2 validation error (bad file, bad schema, bad
flags, map fails an operation's preconditions), 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from decnorms.cbnorm import cb_norm_linf
from decnorms.conic import SolverError
from decnorms.decomposable import (
    dec_norm_linf,
    dec_norm_matrix_domain,
    selfadjoint_dec_norm,
)
from decnorms.freetensor import FreeTensor, nuclearity_gap
from decnorms.iofmt import (
    InstanceError,
    build_report,
    load_instance,
    render_json,
    render_text,
)
from decnorms.multdomain import (
    multiplicative_domain,
    subalgebra_closure_report,
    verify_bimodularity,
)
from decnorms.suite import (
    render_suite_text,
    run_suite,
    suite_report_dict,
)
from decnorms.testkit import make_generator, random_matrix_tuple

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _solver_summary(cert) -> dict:
    sol = cert.solver
    return {
        "status": sol.status,
        "iterations": sol.iterations,
        "gap": sol.gap,
        "res_primal": sol.res_primal,
        "res_dual": sol.res_dual,
    }


def _merged_options(parsed, args) -> dict:
    opts = dict(parsed.options)
    if getattr(args, "tol", None) is not None:
        opts["tol"] = args.tol
    if getattr(args, "seed", None) is not None:
        opts["seed"] = args.seed
    if getattr(args, "aux_dim", None) is not None:
        opts["aux_dim"] = args.aux_dim
    if getattr(args, "restarts", None) is not None:
        opts["restarts"] = args.restarts
    return opts


def _norm_results(parsed, opts) -> dict:
    tol = float(opts.get("tol", 1e-8))
    seed = int(opts.get("seed", 0))
    restarts = int(opts.get("restarts", 24))
    agree_tol = float(opts.get("agree_tol", 5e-4))

    if parsed.kind == "dec_linf":
        cert = dec_norm_linf(parsed.coefficients, gap_tol=tol, feas_tol=tol)
        return {
            "value": cert.value,
            "flagged": cert.flagged,
            "reconstruction_residual": cert.reconstruction_residual,
            "factor_bound": cert.factor_bound,
            "solver": _solver_summary(cert),
        }
    if parsed.kind == "selfadjoint_dec":
        res = selfadjoint_dec_norm(parsed.coefficients, gap_tol=tol, feas_tol=tol)
        return {
            "value": res.value,
            "solver": {
                "status": res.solver.status,
                "iterations": res.solver.iterations,
                "gap": res.solver.gap,
            },
        }
    aux_dim = opts.get("aux_dim")
    aux_dim = int(aux_dim) if aux_dim is not None else None
    if parsed.kind == "cb_linf":
        mats = [c.blocks[0] for c in parsed.coefficients]
        agg = cb_norm_linf(mats, restarts=restarts, seed=seed, agree_tol=agree_tol,
                           gap_tol=tol, feas_tol=tol, aux_dim=aux_dim)
        return {
            "upper": agg.upper,
            "lower": agg.lower,
            "gap": agg.gap,
            "verdict": agg.verdict,
            "seesaw": {
                "iterations": agg.seesaw.iterations,
                "converged": agg.seesaw.converged,
                "aux_dimension": agg.seesaw.aux_dimension,
            },
            "factorization_residual": agg.certificate.reconstruction_residual,
            "solver": _solver_summary(agg.certificate),
        }
    if parsed.kind == "free_tensor":
        t = FreeTensor(coeffs=tuple(c.blocks[0] for c in parsed.coefficients))
        rep = nuclearity_gap(t, restarts=restarts, seed=seed, agree_tol=agree_tol,
                             gap_tol=tol, feas_tol=tol, aux_dim=aux_dim)
        return {
            "max": rep.max_value,
            "min_upper": rep.min_upper,
            "min_lower": rep.min_lower,
            "rel_gap": rep.rel_gap,
            "seesaw_gap": rep.seesaw_gap,
            "verdict": rep.verdict,
            "solver": _solver_summary(rep.max_certificate),
        }
    if parsed.kind == "dec_matrix":
        cert = dec_norm_matrix_domain(parsed.linear_map, gap_tol=tol, feas_tol=tol)
        return {
            "value": cert.value,
            "flagged": cert.flagged,
            "reconstruction_residual": cert.reconstruction_residual,
            "factor_bound": cert.factor_bound,
            "solver": _solver_summary(cert),
        }
    if parsed.kind == "mult_domain":
        samples = int(opts.get("samples", 25))
        dom = multiplicative_domain(parsed.linear_map)
        closure = subalgebra_closure_report(dom)
        bim = verify_bimodularity(parsed.linear_map, dom, samples=samples, seed=seed)
        return {
            "dimension": dom.dimension,
            "closure": closure,
            "bimodularity_max_residual": bim.max_residual,
            "bimodularity_samples": bim.samples,
        }
    raise InstanceError("kind", f"unhandled kind {parsed.kind}")


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_norm(args) -> int:
    try:
        parsed = load_instance(args.instance)
        opts = _merged_options(parsed, args)
        t0 = time.perf_counter()
        results = _norm_results(parsed, opts)
        seconds = time.perf_counter() - t0
    except InstanceError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    report = build_report(parsed.kind, parsed.digest, results,
                          options=opts, seconds=seconds)
    _emit(render_json(report) if args.json else render_text(report), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        report = run_suite(
            profile=args.profile,
            seed=args.seed,
            max_instances=args.instances,
            inject=frozenset(args.inject),
        )
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if args.json:
        import json as _json

        _emit(_json.dumps(suite_report_dict(report), indent=2, sort_keys=True) + "\n",
              args.out)
    else:
        _emit(render_suite_text(report), args.out)
    return EXIT_OK if report.all_passed else 1


def _parse_sizes(spec: str) -> list[tuple[int, int]]:
    sizes = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            n_str, d_str = part.lower().split("x")
            n, d = int(n_str), int(d_str)
        except ValueError as exc:
            raise InstanceError("--sizes", f"cannot parse {part!r}, expected NxD") from exc
        if n < 1 or d < 1:
            raise InstanceError("--sizes", f"sizes must be positive, got {part!r}")
        sizes.append((n, d))
    if not sizes:
        raise InstanceError("--sizes", "empty size list")
    return sizes


def cmd_bench(args) -> int:
    try:
        sizes = _parse_sizes(args.sizes)
    except InstanceError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    from decnorms.cbnorm import seesaw_min_norm

    lines = [f"{'n':>3} {'d':>3} {'sdp_s':>8} {'seesaw_s':>9} {'value':>12} {'gap':>10}"]
    try:
        for i, (n, d) in enumerate(sizes):
            gen = make_generator(args.seed, stream=900 + i)
            xs = random_matrix_tuple(gen, n, d)
            t0 = time.perf_counter()
            value = dec_norm_linf(xs).value
            sdp_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            saw = seesaw_min_norm(xs, restarts=8, seed=args.seed)
            saw_s = time.perf_counter() - t0
            gap = (value - saw.lower) / max(1.0, value)
            lines.append(
                f"{n:>3} {d:>3} {sdp_s:>8.3f} {saw_s:>9.3f} {value:>12.8f} {gap:>10.2e}"
            )
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decnorms",
        description="Decomposable and completely bounded norms with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="compute norms for a JSON instance file")
    p_norm.add_argument("instance", help="path to the instance file")
    p_norm.add_argument("--tol", type=float, default=None,
                        help="solver gap and feasibility tolerance")
    p_norm.add_argument("--seed", type=int, default=None, help="search seed")
    p_norm.add_argument("--K", dest="aux_dim", type=int, default=None,
                        help="auxiliary unitary dimension for the see-saw")
    p_norm.add_argument("--restarts", type=int, default=None,
                        help="see-saw restart count")
    p_norm.add_argument("--json", action="store_true",
                        help="machine-readable report instead of the line-oriented one")
    p_norm.add_argument("--out", default=None, help="write the report to this file")

    p_verify = sub.add_parser("verify", help="run the seeded verification corpus")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--instances", type=int, default=None,
                          help="cap the instance count of every check")
    p_verify.add_argument("--profile", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--inject", action="append", default=[],
                          help="inject a named regression to exercise the harness")

    p_bench = sub.add_parser("bench", help="time the solver and see-saw on a size grid")
    p_bench.add_argument("--sizes", default="",
                         help="comma-separated NxD pairs, e.g. 3x2,4x3")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"norm": cmd_norm, "verify": cmd_verify, "bench": cmd_bench}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
