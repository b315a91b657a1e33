"""Outside-in layer tracer for decnorms.

The tracer wraps, from outside the package, every public function and
public method of the traced ``decnorms`` modules, plus the three numpy and
scipy kernels the solver spends its time in (``numpy.linalg.eigh``,
``scipy.linalg.cho_factor`` and ``scipy.linalg.cho_solve``).  Each call made
while a root span is open becomes a span on a stack; its self time is its
duration minus the time of the spans it encloses.  Self times are summed
per *bucket*, and the buckets partition the root spans' time, so the
per-layer self times add up to the traced wall time.

Buckets follow the package's modules.  A call into the module that is
already on top of the stack is that module's own work and runs inside the
caller's span (``linalg.top_singular_triple`` calling ``linalg.svd`` is one
top-pair computation), except for the functions in ``ANCHORS``, which always
open a span of their own.  The kernels are attributed to the enclosing
span: under ``conic.solve`` an ``eigh`` is the PSD projection and a Cholesky
call is the linear solve or factorization; anywhere else they count as
``linalg`` (``eigh`` on its own, Cholesky calls with the other ``linalg`` work).

Modules that bind a function with ``from ... import`` hold their own
reference to it, so a function is replaced by object identity in every
``decnorms`` namespace that binds it.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED_MODULES = ("conic", "decomposable", "cbnorm", "freetensor", "multdomain", "linalg", "suite")

# Functions that open their own span even when called from their own module.
ANCHORS = frozenset({
    "conic.solve",
    "conic.verify_certificate",
    "decomposable.extract_factorization",
    "cbnorm.seesaw_min_norm",
})

_NAMED_BUCKETS = {
    "conic.solve": "conic.solve",
    "conic.verify_certificate": "conic.verify",
    "decomposable.extract_factorization": "decomposable.extract",
    "cbnorm.seesaw_min_norm": "cbnorm.seesaw",
    "multdomain.subalgebra_closure_report": "multdomain.closure",
    "multdomain.span_projector": "multdomain.closure",
    "multdomain.verify_bimodularity": "multdomain.bimod",
    "multdomain.bimodularity_residual": "multdomain.bimod",
    "linalg.svd": "linalg.svd",
    "linalg.operator_norm": "linalg.svd",
    "linalg.polar_unitary": "linalg.svd",
    "linalg.top_singular_triple": "linalg.svd",
}

# Bucket of a module's remaining public functions.
_MODULE_BUCKETS = {
    "conic": "conic.other",
    "decomposable": "decomposable",
    "cbnorm": "cbnorm",
    "freetensor": "freetensor",
    "multdomain": "multdomain.domain",
    "linalg": "linalg.other",
    "suite": "suite",
}

ROOT = "bench"


def bucket_of(name: str, in_solve: bool, in_seesaw: bool) -> str:
    """Bucket that receives the self time of a call to ``name``."""
    if name == "numpy.linalg.eigh":
        return "conic.project" if in_solve else "linalg.eigh"
    if name == "scipy.linalg.cho_solve":
        return "conic.linsolve" if in_solve else "linalg.other"
    if name == "scipy.linalg.cho_factor":
        return "conic.factor" if in_solve else "linalg.other"
    if in_seesaw and name == "linalg.top_singular_triple":
        return "cbnorm.top_pair"
    if in_seesaw and name == "linalg.polar_unitary":
        return "cbnorm.polar"
    if name.startswith("conic.BlockBuilder."):
        return "conic.build"
    return _NAMED_BUCKETS.get(name) or _MODULE_BUCKETS[name.split(".")[0]]


class _Frame:
    __slots__ = ("bucket", "module", "child_s", "seesaw_calls")

    def __init__(self, bucket: str, module: str):
        self.bucket = bucket
        self.module = module
        self.child_s = 0.0
        self.seesaw_calls = 0


class Tracer:
    """Span stack, per-bucket totals and result counters for one run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def root(self):
        """Open the root span; only calls made inside it are traced."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        frame = _Frame(ROOT, ROOT)
        self._stack.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            dur = self.clock() - t0
            self._stack.pop()
            self.root_s += dur
            self.calls[ROOT] += 1
            self.self_s[ROOT] += dur - frame.child_s

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` as a span named by its qualified name ``name``."""
        stack = self._stack
        module = name.split(".")[0]
        if not stack or (stack[-1].module == module and name not in ANCHORS):
            return fn(*args, **kwargs)
        in_solve = any(f.bucket == "conic.solve" for f in stack)
        in_seesaw = any(f.bucket == "cbnorm.seesaw" for f in stack)
        frame = _Frame(bucket_of(name, in_solve, in_seesaw), module)
        stack.append(frame)
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = self.clock() - t0
            stack.pop()
            self.calls[frame.bucket] += 1
            self.self_s[frame.bucket] += dur - frame.child_s
            stack[-1].child_s += dur
        observe = _OBSERVERS.get(name)
        if observe is not None:
            observe(self, args, kwargs, result)
        return result

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] += amount

    def peak(self, key: str, value: float):
        self.counters[key] = max(self.counters[key], value)

    # -- patching ------------------------------------------------------------

    def _wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    def install(self):
        """Replace the traced functions in every namespace that binds them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy.linalg
        import scipy.linalg

        # keyed by id(): the modules keep every original alive while installed
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"decnorms.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrapper(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, fn, self._wrapper(f"{short}.{attr}.{meth}", fn))
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "decnorms" or mod_name.startswith("decnorms.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, obj, wrappers[id(obj)])
        for mod, attr, name in ((numpy.linalg, "eigh", "numpy.linalg.eigh"),
                                (scipy.linalg, "cho_factor", "scipy.linalg.cho_factor"),
                                (scipy.linalg, "cho_solve", "scipy.linalg.cho_solve")):
            fn = getattr(mod, attr)
            self._patch(mod, attr, fn, self._wrapper(name, fn))

    def _patch(self, owner, attr: str, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self):
        """Put back every original replaced by ``install``."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Counters read from arguments and results
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _observe_solve(tr: Tracer, args, kwargs, sol):
    program = _arg(args, kwargs, 0, "program")
    tr.count("conic.iterations", sol.iterations)
    tr.count("conic.nonoptimal", sol.status != "optimal")
    m = program.num_vars
    rows = program.num_eq + sum(blk.size ** 2 for blk in program.psd_blocks)
    nnz = sum(blk.lin.nnz for blk in program.psd_blocks)
    tr.peak("conic.vars", m)
    tr.peak("conic.rows", rows)
    tr.peak("conic.lin_nnz", nnz)
    tr.peak("conic.dense_a_mb", rows * m * 8 / 1e6)
    tr.peak("conic.gram_mb", m * m * 8 / 1e6)


def _observe_certificate(tr: Tracer, args, kwargs, cert):
    tr.count("decomposable.flagged", bool(cert.flagged))


def _observe_seesaw(tr: Tracer, args, kwargs, res):
    tr.count("cbnorm.seesaw.calls")
    tr.count("cbnorm.restarts", res.restarts_used)
    tr.count("cbnorm.converged", bool(res.converged))
    parent = tr._stack[-1]
    parent.seesaw_calls += 1
    if parent.bucket in ("cbnorm", "freetensor") and parent.seesaw_calls > 1:
        tr.count("cbnorm.escalations")


def _observe_domain(tr: Tracer, args, kwargs, basis):
    u = _arg(args, kwargs, 0, "u")
    rows = 2 * u.domain.total_dim * u.codomain.embed_dim ** 2
    tr.peak("multdomain.system_rows", rows)
    tr.peak("multdomain.full_u_mb", rows * rows * 16 / 1e6)


_OBSERVERS = {
    "conic.solve": _observe_solve,
    "decomposable.dec_norm_linf": _observe_certificate,
    "decomposable.dec_norm_matrix_domain": _observe_certificate,
    "cbnorm.seesaw_min_norm": _observe_seesaw,
    "multdomain.multiplicative_domain": _observe_domain,
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Self time of each bucket, in seconds.  Together they sum to the traced wall time.
TIME_METRICS = {
    "bench": "bench.self_s",
    "conic.solve": "conic.solve.self_s",
    "conic.linsolve": "conic.linsolve_s",
    "conic.factor": "conic.factor_s",
    "conic.project": "conic.project_s",
    "conic.build": "conic.build_s",
    "conic.verify": "conic.verify_s",
    "conic.other": "conic.other_s",
    "decomposable": "decomposable.self_s",
    "decomposable.extract": "decomposable.extract_s",
    "cbnorm": "cbnorm.self_s",
    "cbnorm.seesaw": "cbnorm.seesaw.self_s",
    "cbnorm.top_pair": "cbnorm.top_pair_s",
    "cbnorm.polar": "cbnorm.polar_s",
    "freetensor": "freetensor.self_s",
    "multdomain.domain": "multdomain.domain_s",
    "multdomain.closure": "multdomain.closure_s",
    "multdomain.bimod": "multdomain.bimod_s",
    "linalg.eigh": "linalg.eigh_s",
    "linalg.svd": "linalg.svd_s",
    "linalg.other": "linalg.other_s",
    "suite": "suite.self_s",
}

# Span counts of a bucket.
CALL_METRICS = {
    "conic.solve": "conic.solve.calls",
    "conic.linsolve": "conic.linsolve.calls",
    "conic.project": "conic.project.calls",
    "decomposable": "decomposable.calls",
    "cbnorm.top_pair": "cbnorm.sweeps",
    "cbnorm.polar": "cbnorm.polar.calls",
    "linalg.eigh": "linalg.eigh.calls",
    "linalg.svd": "linalg.svd.calls",
}

# Counters read from results; sizes are computed from the program data.
COUNTER_METRICS = {
    "conic.iterations": "count",
    "conic.nonoptimal": "count",
    "decomposable.flagged": "count",
    "cbnorm.restarts": "count",
    "cbnorm.escalations": "count",
    "conic.vars": "count",
    "conic.rows": "count",
    "conic.lin_nnz": "count",
    "conic.dense_a_mb": "MB",
    "conic.gram_mb": "MB",
    "multdomain.system_rows": "count",
    "multdomain.full_u_mb": "MB",
}


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the tracer, as name -> (value, unit)."""
    out = {metric: (tr.self_s.get(bucket, 0.0), "s") for bucket, metric in TIME_METRICS.items()}
    out.update({metric: (tr.calls.get(bucket, 0), "count") for bucket, metric in CALL_METRICS.items()})
    out.update({name: (tr.counters.get(name, 0.0), unit) for name, unit in COUNTER_METRICS.items()})
    seesaws = tr.counters.get("cbnorm.seesaw.calls", 0.0)
    out["cbnorm.converged_frac"] = (tr.counters.get("cbnorm.converged", 0.0) / seesaws
                                    if seesaws else 0.0, "ratio")
    return out
