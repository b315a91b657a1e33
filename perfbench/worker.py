"""One workload process: import, build inputs, run, gate, report.

Started by ``run.py`` with the BLAS thread count already pinned in its
environment.  The last line of standard output is one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --seconds S

Modes:

* ``setup``: import decnorms and build the inputs, report the time taken,
  raw and scaled to reference speed by calibration chunks timed right after;
* ``run``: run passes over the workload while another one fits into
  ``--seconds`` (at least one), with calibration blocks between the
  operations (``calibration.py``), report the median pass time at reference
  speed;
* ``once``: one untraced pass;
* ``trace``: one pass with the layer tracer installed.
"""

import os
import time

_T0 = time.perf_counter()
# the load runs in this one process, on at most two cores
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = Path(__file__).with_name("reference.json")
# calibration chunks timed right after set-up, to scale it to reference speed
SETUP_CHUNKS = 5


def _encode(v):
    """Exact, JSON-safe form of a value that must repeat bit for bit."""
    return float(v).hex() if isinstance(v, (float, np.floating)) else int(v)


def run_pass(ops, tr=None, calibrate=False, clock=time.perf_counter):
    """Run every operation once.

    Returns (seconds, seconds at reference speed, records, result metrics);
    the time at reference speed is None unless ``calibrate`` is set, which
    brackets every operation by calibration blocks.
    """
    wall = 0.0
    ref = 0.0 if calibrate else None
    chunks = calibration.chunks_per_block(len(ops))
    before = calibration.block(chunks) if calibrate else None
    records = []
    extra = {}
    for op in ops:
        result, error = None, None
        t0 = clock()
        try:
            if tr is None:
                result = op.run()
            else:
                with tr.root():
                    result = op.run()
        except Exception as exc:  # a failed operation is counted, the run goes on
            error = exc
        seconds = clock() - t0
        wall += seconds
        if calibrate:
            after = calibration.block(chunks)
            ref += calibration.scale(seconds, before, after)
            before = after
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            records.append(workloads.Record(op.name, (), [f"raised {type(error).__name__}: {error}"]))
            continue
        records.extend(op.gate(result))
        if op.layers is not None:
            extra.update(op.layers(result))
    return wall, ref, records, extra


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_used": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "once", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _T0
    cal = calibration.block(SETUP_CHUNKS)
    out = {"setup_s": calibration.scale(setup_s, cal, []), "raw_setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tr = None
    if args.mode == "trace":
        tr = tracing.Tracer()
        tr.install()
    passes = []
    ref_passes = []
    values = None
    first = None
    records_all = []
    extra = {}
    start = time.perf_counter()
    try:
        while True:
            wall, ref, records, extra = run_pass(ops, tr, calibrate=args.mode == "run")
            passes.append(wall)
            ref_passes.append(ref)
            got = {r.id: [_encode(v) for v in r.values] for r in records}
            if values is None:
                values, first = got, records
            elif got != values:
                for r in records:
                    r.problems.append("values differ from the first pass")
            records_all.extend(records)
            if args.mode != "run":
                break
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    finally:
        if tr is not None:
            tr.restore()

    reference = json.loads(REFERENCE.read_text()).get(args.workload)
    check = args.seed == workloads.DEFAULT_SEED or args.workload in workloads.SEED_INVARIANT
    if check and reference is not None:
        workloads.check_reference(first, reference)

    failed = [r for r in records_all if r.problems]
    out.update(
        passes=len(passes),
        pass_s=passes,
        raw_wall_s=statistics.median(passes),
        wall_s=statistics.median(ref_passes if args.mode == "run" else passes),
        attempted=len(records_all),
        failed=len(failed),
        problems=[f"{r.id}: {p}" for r in failed for p in r.problems][:20],
        values=values,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(args.seed),
    )
    if tr is not None:
        layers = tracing.layer_metrics(tr)
        for name in workloads.SUITE_CHECKS:
            layers[f"suite.{name}.s"] = (extra.get(f"suite.{name}.s", 0.0), "s")
        out["wall_s"] = tr.root_s
        out["layers"] = {k: list(v) for k, v in layers.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
