"""Command line: compute norms for instance files, verify, benchmark.

Exit codes: 0 success, 2 validation error (bad file, bad schema, bad
flags, map fails an operation's preconditions), 3 solver failure.  ``norm``
passes a kind's routine the options set that its signature reads; the
report's ``options`` are those over the signature's defaults, and options
set but not read are listed under ``ignored_options``, never passed on.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

from decnorms.cbnorm import cb_norm_linf, min_norm, seesaw_min_norm
from decnorms.conic import SolverError
from decnorms.decomposable import dec_norm_linf, dec_norms, selfadjoint_dec_norms
from decnorms.iofmt import (
    OPTIONS,
    InstanceError,
    build_report,
    check_option,
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


def _given(options: dict, *keys: str) -> dict:
    """The entries of ``options`` under ``keys``: the keyword arguments a routine gets."""
    return {key: options[key] for key in keys if key in options}


# The options each kind reads, with their defaults, from the signature of the
# routine it runs; ``min_norm`` passes its keywords on to ``cb_norm_linf``.
# Read once here, so that a routine replaced at run time keeps its entry.
_KIND_OPTIONS = {
    kind: {name: param.default for name, param in inspect.signature(routine).parameters.items()
           if name in OPTIONS}
    for routine, kinds in ((dec_norms, ("dec_linf", "dec_matrix")),
                           (selfadjoint_dec_norms, ("selfadjoint_dec",)),
                           (cb_norm_linf, ("cb_linf", "free_tensor")),
                           (verify_bimodularity, ("mult_domain",)))
    for kind in kinds
}


class _OptionFlag(argparse.Action):
    """Store an ``OPTIONS`` value given by a flag; one out of range raises, naming the flag."""

    def __call__(self, parser, namespace, value, option_string=None):
        check_option(self.dest, value, option_string)
        setattr(namespace, self.dest, value)


def _solver_summary(cert) -> dict:
    sol = cert.solver
    return {
        "status": sol.status,
        "iterations": sol.iterations,
        "gap": sol.gap,
        "res_primal": sol.res_primal,
        "res_dual": sol.res_dual,
    }


def _seesaw_summary(saw) -> dict:
    return {
        "iterations": saw.iterations,
        "converged": saw.converged,
        "aux_dimension": saw.aux_dimension,
        "restarts_used": saw.restarts_used,
    }


def _norm_results(parsed, opts: dict) -> dict:
    """Run the routine of the instance's kind with the keyword arguments ``opts``."""
    if parsed.kind in ("dec_linf", "dec_matrix", "selfadjoint_dec"):
        entry = selfadjoint_dec_norms if parsed.kind == "selfadjoint_dec" else dec_norms
        inputs = [parsed.linear_map if parsed.kind == "dec_matrix" else parsed.coefficients]
        cert = entry(inputs, **opts)[0]
        return {
            "value": cert.value,
            "flagged": cert.flagged,
            "reconstruction_residual": cert.reconstruction_residual,
            "factor_bound": cert.factor_bound,
            "solver": _solver_summary(cert),
        }
    if parsed.kind == "cb_linf":
        agg = cb_norm_linf(parsed.coefficients, **opts)
        return {
            "upper": agg.upper,
            "lower": agg.lower,
            "gap": agg.gap,
            "verdict": agg.verdict,
            "seesaw": _seesaw_summary(agg.seesaw),
            "factorization_residual": agg.certificate.reconstruction_residual,
            "solver": _solver_summary(agg.certificate),
        }
    if parsed.kind == "free_tensor":
        # the max norm is the bracket's upper value, so one gap serves both
        br = min_norm(parsed.coefficients, **opts)
        return {
            "max": br.upper,
            "min_upper": br.upper,
            "min_lower": br.lower,
            "rel_gap": br.gap,
            "seesaw_gap": br.gap,
            "verdict": br.verdict,
            "seesaw": _seesaw_summary(br.seesaw),
            "solver": _solver_summary(br.certificate),
        }
    if parsed.kind == "mult_domain":
        dom = multiplicative_domain(parsed.linear_map)
        closure = subalgebra_closure_report(dom)
        bim = verify_bimodularity(parsed.linear_map, dom, **opts)
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
    parsed = load_instance(args.instance)
    given = {**parsed.options, **_given(vars(args), *OPTIONS)}
    defaults = _KIND_OPTIONS[parsed.kind]
    opts = _given(given, *defaults)
    t0 = time.perf_counter()
    results = _norm_results(parsed, opts)
    report = build_report(parsed.kind, parsed.digest, results,
                          options={**defaults, **opts},
                          ignored_options={k: v for k, v in given.items() if k not in defaults},
                          seconds=time.perf_counter() - t0)
    _emit(render_json(report) if args.json else render_text(report), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(**_given(vars(args), "profile", "seed", "max_instances"),
                       inject=frozenset(args.inject))
    if args.json:
        _emit(json.dumps(suite_report_dict(report), indent=2, sort_keys=True) + "\n", args.out)
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
    sizes = _parse_sizes(args.sizes)
    lines = [f"{'n':>3} {'d':>3} {'sdp_s':>8} {'seesaw_s':>9} {'value':>12} {'gap':>10}"]
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
        lines.append(f"{n:>3} {d:>3} {sdp_s:>8.3f} {saw_s:>9.3f} {value:>12.8f} {gap:>10.2e}")
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
    option = {"action": _OptionFlag, "default": argparse.SUPPRESS}
    p_norm.add_argument("--tol", type=float, **option,
                        help="solver tolerance for residuals and duality gap")
    p_norm.add_argument("--seed", type=int, **option, help="search seed")
    p_norm.add_argument("--K", dest="aux_dim", type=int, **option,
                        help="auxiliary unitary dimension for the see-saw")
    p_norm.add_argument("--restarts", type=int, **option, help="see-saw restart count")
    p_norm.add_argument("--json", action="store_true",
                        help="machine-readable report instead of the line-oriented one")
    p_norm.add_argument("--out", default=None, help="write the report to this file")

    p_verify = sub.add_parser("verify", help="run the seeded verification corpus")
    p_verify.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_verify.add_argument("--instances", dest="max_instances", type=int,
                          default=argparse.SUPPRESS, help="cap the instance count of every check")
    p_verify.add_argument("--profile", choices=("quick", "full"), default=argparse.SUPPRESS)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--inject", action="append", default=[],
                          help="inject a named regression to exercise the harness")

    p_bench = sub.add_parser("bench", help="time the solver and see-saw on a size grid")
    p_bench.add_argument("--sizes", default="",
                         help="comma-separated NxD pairs, e.g. 3x2,4x3")
    p_bench.add_argument("--seed", type=int, action=_OptionFlag, default=0)
    p_bench.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return {"norm": cmd_norm, "verify": cmd_verify, "bench": cmd_bench}[args.command](args)
    except ValueError as exc:  # InstanceError included
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
