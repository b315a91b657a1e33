"""decnorms benchmark: one workload, end-to-end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sdp_large --seed 0 --seconds 25 --trace 0

Every workload runs in fresh worker processes (``worker.py``) with the BLAS
and OpenMP thread counts pinned to 1 before numpy loads.  With ``--trace 0``
the run measures ``setup_s`` (median of several fresh imports plus input
builds), ``wall_s`` (time to all certified results, tracing off) and
``peak_rss_mb`` (peak resident set of the workload process).  Both times
are scaled to the reference machine speed by calibration blocks timed next
to the work (``calibration.py``); the raw times go to the ``info`` line.  With
``--trace 1`` it runs one untraced and one traced pass, checks that both
produce bit-identical values, and reports the per-layer metrics and the
tracing overhead.  Every result is gated; a failed operation makes the run
incorrect.  The last line of standard output is the JSON result.

This process imports neither numpy nor decnorms; it only starts workers
one after another and waits for each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sdp_large", "multdomain", "corpus_quick")
# runnable by hand, not declared in BENCHMARK.json: its cost depends on the seed
EXTRA_WORKLOADS = ("seesaw_large",)
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DECNORMS_THREADS")


class BenchError(Exception):
    pass


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the next worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} exceeded the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: float, env: dict, deadline: float):
    """End-to-end run: setup samples, then the measured workload process."""
    common = ["--workload", workload, "--seed", str(seed)]
    samples = [run_worker(common + ["--mode", "setup"], env, deadline)
               for _ in range(SETUP_SAMPLES)]
    res = run_worker(common + ["--mode", "run", "--seconds", str(seconds)], env, deadline)
    samples.append(res)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in samples), "s"),
        "wall_s": (res["wall_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    info = {"raw_wall_s": res["raw_wall_s"], "raw_pass_s": res["pass_s"],
            "setup_samples": [s["setup_s"] for s in samples],
            "raw_setup_samples": [s["raw_setup_s"] for s in samples], "env": res["env"]}
    return metrics, res["attempted"], res["failed"], res["problems"], info


def trace(workload: str, seed: int, env: dict, deadline: float):
    """Traced run: one untraced pass, one traced pass, per-layer metrics."""
    common = ["--workload", workload, "--seed", str(seed)]
    plain = run_worker(common + ["--mode", "once"], env, deadline)
    traced = run_worker(common + ["--mode", "trace"], env, deadline)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    problems = plain["problems"] + traced["problems"]
    differing = sorted(k for k in plain["values"] if plain["values"][k] != traced["values"].get(k))
    problems += [f"{k}: traced value differs from untraced" for k in differing]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"] + len(differing)
    info = {"env": traced["env"]}
    return metrics, attempted, failed, problems, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="decnorms benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "decnorms" / "__init__.py").is_file():
        print(f"error: no decnorms sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(src)
    try:
        if args.trace:
            result = trace(args.workload, args.seed, env, deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, attempted, failed, problems, info = result
    info["git"] = git_sha(root)
    info["workload"] = args.workload

    for p in problems:
        print(f"FAIL {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>14.6g} {unit}")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
