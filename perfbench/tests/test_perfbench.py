"""Self-tests of the benchmark: tracer accounting, patching, inputs, names, gates.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import calibration
import decnorms
import run
import tracer as tracing
import worker
import workloads
from conftest import BENCH, ROOT

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def svd():  # folded into the caller's span: same module
        clock.work(0.5)

    def top_pair():
        clock.work(1.0)
        tr.call("linalg.svd", svd, (), {})
        return None

    def eigh():
        clock.work(0.25)

    def seesaw():
        clock.work(2.0)
        tr.call("linalg.top_singular_triple", top_pair, (), {})
        tr.call("numpy.linalg.eigh", eigh, (), {})
        return SimpleNamespace(restarts_used=3, converged=True)

    tr.call("cbnorm.seesaw_min_norm", seesaw, (), {})  # no root span: not traced
    assert not tr.calls
    with tr.root():
        clock.work(0.125)
        tr.call("cbnorm.seesaw_min_norm", seesaw, (), {})

    assert tr.self_s["cbnorm.seesaw"] == 2.0
    assert tr.self_s["cbnorm.top_pair"] == 1.5
    assert tr.self_s["linalg.eigh"] == 0.25
    assert tr.self_s["bench"] == 0.125
    assert "linalg.svd" not in tr.calls
    assert sum(tr.self_s.values()) == tr.root_s == 3.875
    metrics = tracing.layer_metrics(tr)
    assert metrics["cbnorm.sweeps"] == (1, "count")
    assert metrics["cbnorm.restarts"] == (3.0, "count")
    assert metrics["cbnorm.converged_frac"] == (1.0, "ratio")


def test_kernels_are_attributed_to_the_enclosing_span():
    assert tracing.bucket_of("numpy.linalg.eigh", True, False) == "conic.project"
    assert tracing.bucket_of("numpy.linalg.eigh", False, False) == "linalg.eigh"
    assert tracing.bucket_of("scipy.linalg.cho_solve", True, False) == "conic.linsolve"
    assert tracing.bucket_of("scipy.linalg.cho_factor", True, False) == "conic.factor"
    assert tracing.bucket_of("scipy.linalg.cho_solve", False, False) == "linalg.other"
    assert tracing.bucket_of("linalg.polar_unitary", False, True) == "cbnorm.polar"
    assert tracing.bucket_of("linalg.polar_unitary", False, False) == "linalg.svd"


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "decnorms" or name.startswith("decnorms.")):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == name:
                    for meth, fn in vars(obj).items():
                        out[(name, attr, meth)] = fn
    out["eigh"] = np.linalg.eigh
    out["cho_factor"] = scipy.linalg.cho_factor
    out["cho_solve"] = scipy.linalg.cho_solve
    return out


def test_install_patches_every_namespace_and_restore_undoes_it():
    import decnorms.freetensor
    import decnorms.suite

    before = _bindings()
    original = decnorms.cbnorm.seesaw_min_norm
    tr = tracing.Tracer()
    tr.install()
    try:
        assert decnorms.cbnorm.seesaw_min_norm is not original
        # names bound by ``from ... import`` are patched too, with one wrapper
        assert decnorms.suite.seesaw_min_norm is decnorms.cbnorm.seesaw_min_norm
        assert decnorms.freetensor.seesaw_min_norm is decnorms.cbnorm.seesaw_min_norm
        assert decnorms.seesaw_min_norm is decnorms.cbnorm.seesaw_min_norm
        assert decnorms.conic.BlockBuilder.build is not before[("decnorms.conic", "BlockBuilder", "build")]
        assert np.linalg.eigh is not before["eigh"]
        with tr.root():
            cert = decnorms.dec_norm_linf([np.eye(2), np.diag([1.0, -1.0])])
        assert tr.calls["conic.solve"] == 1
        assert tr.calls["conic.project"] > 0
        assert tr.counters["conic.iterations"] == cert.solver.iterations
        assert abs(sum(tr.self_s.values()) - tr.root_s) < 1e-9
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed


@pytest.mark.parametrize("name", sorted(set(workloads.WORKLOADS) - {"corpus_quick"}))
def test_seed_determines_inputs(name):
    def digest(inputs):
        if isinstance(inputs, list):
            return b"".join(np.ascontiguousarray(x).tobytes() for x in inputs)
        return b"".join(np.ascontiguousarray(img.assemble()).tobytes() for img in inputs.images)

    def inputs(seed):
        return [digest(op.inputs) for op in workloads.WORKLOADS[name](seed)]

    a, b, c = inputs(0), inputs(0), inputs(1)
    assert a == b
    assert a != c


def test_corpus_runs_at_its_canonical_seed():
    assert [op.inputs for op in workloads.corpus_quick(1)] == [workloads.CORPUS_SEED]


def test_metric_names_are_well_formed_and_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = set(tracing.layer_metrics(tracing.Tracer()))
    layer |= {f"suite.{c}.s" for c in workloads.SUITE_CHECKS}
    layer |= set(run.TRACE_METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS + run.EXTRA_WORKLOADS) == set(workloads.WORKLOADS)
    for name in layer | set(run.END_TO_END):
        assert NAME.fullmatch(name), name


def test_crippled_seesaw_fails_the_gate(monkeypatch):
    """Negative control: one restart and one sweep must not pass at the default seed."""
    import decnorms.cbnorm

    full = decnorms.cbnorm.seesaw_min_norm

    def crippled(xs, **kw):
        return full(xs, **{**kw, "restarts": 1, "max_sweeps": 1})

    monkeypatch.setattr(decnorms.cbnorm, "seesaw_min_norm", crippled)
    ops = workloads.seesaw_large(workloads.DEFAULT_SEED)
    _, _, records, _ = worker.run_pass(ops)
    reference = json.loads(worker.REFERENCE.read_text())["seesaw_large"]
    workloads.check_reference(records, reference)
    failed = [r for r in records if r.problems]
    assert len(records) == len(ops)
    assert len(failed) > 0
    assert all("reference" in p for r in failed for p in r.problems)


def test_sdp_gate_rejects_a_wrong_value():
    xs = [np.diag([1.0, 0.5]), np.diag([0.25, 1.0])]
    cert = decnorms.dec_norm_linf(xs)
    gate = workloads._sdp_gate("t", xs)
    assert gate(cert)[0].problems == []
    cert.value *= 0.5
    assert gate(cert)[0].problems


def test_run_refuses_a_tree_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "sdp_large",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_calibration_scales_time_to_reference_speed():
    ref = calibration.REF_S
    assert calibration.scale(3.0, [ref] * 3, [ref] * 3) == 3.0
    # a host running at half speed doubles both the work and the chunks
    assert calibration.scale(6.0, [2 * ref] * 3, [2 * ref, 2 * ref, 9 * ref]) == 3.0
    assert calibration.scale(1.0, [ref], []) == 1.0
    for n_ops in (1, 3, 7, 8, 40):
        per_block = calibration.chunks_per_block(n_ops)
        assert per_block >= calibration.MIN_CHUNKS_PER_BLOCK
        assert per_block * (n_ops + 1) >= calibration.CHUNKS_PER_PASS


def test_calibrated_pass_brackets_every_operation(monkeypatch):
    slow = iter([1.0, 2.0, 3.0])
    blocks = iter([[0.5 * calibration.REF_S] * 3, [calibration.REF_S] * 3,
                   [calibration.REF_S] * 3, [2 * calibration.REF_S] * 3])
    monkeypatch.setattr(calibration, "block", lambda chunks: next(blocks))
    # every operation reads the clock twice: start and end
    clock = iter([0.0, 1.0, 1.0, 3.0, 3.0, 6.0])
    ops = [workloads.Op(f"op{i}", lambda: next(slow), lambda r, i=i: [workloads.Record(f"op{i}", (r,), [])])
           for i in range(3)]
    wall, ref, records, _ = worker.run_pass(ops, calibrate=True, clock=lambda: next(clock))
    assert wall == 6.0
    # op0 ran between blocks at 0.5 and 1.0 x REF_S (median 0.75), op2 between 1.0 and 2.0
    assert ref == pytest.approx(1.0 / 0.75 + 2.0 + 3.0 / 1.5)
    assert [r.values for r in records] == [(1.0,), (2.0,), (3.0,)]
