"""Machine-speed calibration: a fixed kernel timed between operations.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-20 % over tens of seconds to minutes, whatever the program does: a
fixed 300x300 SVD loop, and workloads that do the same work at every seed,
swing that much from one run to the next.  A workload's time alone would
measure the host.

So every operation is bracketed by calibration blocks.  A block times a few
chunks of a fixed kernel that mixes what the workloads spend their time on:
a LAPACK SVD, symmetric eigenvalues and a Cholesky factor of small dense
matrices, dense matrix-vector products streaming 16 MB, and a loop of tiny
numpy calls, where interpreter overhead dominates.  The kernel's inputs come
from a fixed seed, never from the benchmark's ``--seed``, and it calls no
decnorms code, so a change to the program cannot change it.

An operation's time at reference speed is its measured time times
``REF_S`` over the median chunk time of the blocks just before and just
after it.  ``REF_S`` is the median chunk time measured on the reference
machine (a 2-vCPU Intel Xeon VM, one BLAS thread), so on that machine at its
usual speed the calibrated time equals the raw one.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

REF_S = 0.066
CHUNKS_PER_PASS = 24
MIN_CHUNKS_PER_BLOCK = 3


def _kernel(sq, spd, tall, vec, tiny) -> None:
    for _ in range(7):
        np.linalg.svd(sq)
        np.linalg.eigvalsh(spd)
        np.linalg.cholesky(spd)
        for _ in range(6):
            tall @ vec
        acc = tiny
        for _ in range(300):
            acc = np.tanh(acc @ tiny) + tiny


@functools.cache
def _inputs() -> tuple:
    rng = np.random.default_rng(20190716)
    sq = rng.standard_normal((120, 120))
    spd = sq @ sq.T + 120.0 * np.eye(120)
    tall = rng.standard_normal((1000, 2000))
    vec = rng.standard_normal(2000)
    tiny = rng.standard_normal((8, 8))
    inputs = (sq, spd, tall, vec, tiny + tiny.T)
    _kernel(*inputs)  # untimed: page in the inputs and the LAPACK code
    return inputs


def chunk() -> float:
    """Run the fixed kernel once and return its time in seconds."""
    inputs = _inputs()
    t0 = time.perf_counter()
    _kernel(*inputs)
    return time.perf_counter() - t0


def block(chunks: int) -> list[float]:
    """Time ``chunks`` calibration chunks in a row."""
    return [chunk() for _ in range(chunks)]


def chunks_per_block(n_ops: int) -> int:
    """Block size that spreads about ``CHUNKS_PER_PASS`` chunks over a pass."""
    return max(MIN_CHUNKS_PER_BLOCK, -(-CHUNKS_PER_PASS // (n_ops + 1)))


def scale(seconds: float, before: list[float], after: list[float]) -> float:
    """Time at reference speed of work bracketed by two calibration blocks."""
    return seconds * REF_S / statistics.median(before + after)
