"""Command line entry points: exit codes, report formats, determinism."""

import contextlib
import inspect
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from decnorms import cli, conic, suite
from decnorms.cli import main
from decnorms.iofmt import OPTIONS

SCALAR = "instances/scalar_dec.json"
PAULI = "instances/pauli_cb.json"


def _value_line(text, key):
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in output:\n{text}")


def test_norm_text_report(capsys):
    assert main(["norm", SCALAR]) == 0
    out = capsys.readouterr().out
    assert _value_line(out, "kind") == "dec_linf"
    assert abs(float(_value_line(out, "results.value")) - 6.0) < 1e-6
    assert _value_line(out, "results.solver.status") == "optimal"
    assert out.strip().splitlines()[-1].startswith("timing.seconds:")


def test_norm_json_report(capsys):
    assert main(["norm", SCALAR, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "dec_linf"
    assert abs(rep["results"]["value"] - 6.0) < 1e-6
    assert rep["results"]["flagged"] is False
    assert len(rep["instance_digest"]) == 64
    assert rep["toolkit"]["name"] == "decnorms"
    assert rep["timing"]["seconds"] >= 0.0


def test_decomposable_kinds_report_one_key_set(capsys):
    keys = set()
    for path in (SCALAR, "instances/matrix_identity.json", "instances/selfadjoint_pair.json"):
        assert main(["norm", path, "--json"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        keys.add((tuple(sorted(res)), tuple(sorted(res["solver"]))))
    assert keys == {(
        ("factor_bound", "flagged", "reconstruction_residual", "solver", "value"),
        ("gap", "iterations", "res_dual", "res_primal", "status"),
    )}


def test_norm_flag_overrides_merge_into_options(capsys):
    code = main(["norm", PAULI, "--json", "--restarts", "2", "--seed", "1", "--K", "4"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    # file options hold restarts=8, seed=0; flags win
    assert rep["options"]["restarts"] == 2
    assert rep["options"]["seed"] == 1
    assert rep["options"]["aux_dim"] == 4
    assert rep["results"]["verdict"] == "agree"
    assert abs(rep["results"]["upper"] - 3.0) < 1e-5
    assert rep["results"]["seesaw"]["aux_dimension"] == 4


SEESAW_KEYS = ("aux_dimension", "converged", "iterations", "restarts_used")


@pytest.mark.parametrize("path,keys", [
    (PAULI, ("factorization_residual", "gap", "lower", "seesaw", "solver", "upper", "verdict")),
    ("instances/free_unit.json",
     ("max", "min_lower", "min_upper", "rel_gap", "seesaw", "seesaw_gap", "solver", "verdict")),
])
def test_bracket_kinds_report_the_seesaw(capsys, path, keys):
    assert main(["norm", path, "--json"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert tuple(sorted(res)) == keys
    assert tuple(sorted(res["seesaw"])) == SEESAW_KEYS
    # both brackets close at the see-saw's deterministic start
    assert res["verdict"] == "agree"
    assert res["seesaw"]["restarts_used"] == 1


# the routine each kind runs, and the routine whose parameters it takes
ROUTINE_OF_KIND = {
    "dec_linf": ("dec_norms", "dec_norms"),
    "dec_matrix": ("dec_norms", "dec_norms"),
    "selfadjoint_dec": ("selfadjoint_dec_norms", "selfadjoint_dec_norms"),
    "cb_linf": ("cb_norm_linf", "cb_norm_linf"),
    "free_tensor": ("min_norm", "cb_norm_linf"),
    "mult_domain": ("verify_bimodularity", "verify_bimodularity"),
}
FLAGS = {"--tol": ("tol", 1e-7), "--seed": ("seed", 1), "--K": ("aux_dim", 3),
         "--restarts": ("restarts", 2)}


@pytest.mark.parametrize("with_flags", [False, True])
@pytest.mark.parametrize("path", sorted(str(p) for p in Path("instances").glob("*.json")))
def test_norm_forwards_exactly_the_options_set(monkeypatch, capsys, path, with_flags):
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    routine, signature_of = ROUTINE_OF_KIND[raw["kind"]]
    takes = inspect.signature(getattr(cli, signature_of)).parameters
    calls = []
    for name in {name for name, _ in ROUTINE_OF_KIND.values()}:
        def record(*args, _name=name, _routine=getattr(cli, name), **kwargs):
            calls.append((_name, kwargs))
            return _routine(*args, **kwargs)
        monkeypatch.setattr(cli, name, record)
    options = dict(raw.get("options", {}))
    argv = ["norm", path]
    if with_flags:
        for flag, (key, value) in FLAGS.items():
            argv += [flag, str(value)]
            options[key] = value
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == [(routine, {key: v for key, v in options.items() if key in takes})]


@pytest.mark.parametrize("path", sorted(
    str(p) for p in Path("instances").glob("*.json")
    if json.loads(p.read_text(encoding="utf-8"))["kind"] != "mult_domain"))
def test_norm_exits_3_when_the_sdp_stops_at_its_iteration_limit(monkeypatch, capsys, path):
    # every kind but mult_domain solves an SDP
    monkeypatch.setattr(conic, "MAX_ITER", 5)
    assert main(["norm", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver failure: ")
    assert "max_iterations" in captured.err


def test_norm_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["norm", SCALAR, "--json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(target.read_text(encoding="utf-8"))
    assert abs(rep["results"]["value"] - 6.0) < 1e-6


def test_norm_missing_file(capsys):
    assert main(["norm", "no_such_instance.json"]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "$file" in err


def test_norm_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": "1", "kind": "mystery"}), encoding="utf-8")
    assert main(["norm", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "kind" in err


def test_norm_zero_aux_dim_is_rejected(capsys):
    assert main(["norm", PAULI, "--K", "0"]) == 2
    assert "auxiliary dimension must be positive" in capsys.readouterr().err


def test_norm_bad_aux_dim_is_rejected_before_the_sdp(monkeypatch, capsys):
    calls = []
    solve = conic.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(conic, "solve", counting_solve)
    for k in ("0", "-1"):
        assert main(["norm", PAULI, "--K", k]) == 2
        assert "auxiliary dimension must be positive" in capsys.readouterr().err
    assert calls == []


def test_norm_bad_tolerance_exits_2_without_iterating(monkeypatch, capsys):
    iterations = []
    solve = conic.solve

    def counting_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(conic, "solve", counting_solve)
    for tol in ("0", "-1", "nan"):
        assert main(["norm", SCALAR, "--tol", tol]) == 2
        assert "--tol: must be positive and finite" in capsys.readouterr().err
    assert iterations == []


def test_negative_seed_exits_2_before_any_solve(monkeypatch, tmp_path, capsys):
    calls = []
    solve = conic.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(conic, "solve", counting_solve)
    raw = json.loads(open(PAULI, encoding="utf-8").read())
    raw["options"]["seed"] = -3
    from_file = tmp_path / "negative_seed.json"
    from_file.write_text(json.dumps(raw), encoding="utf-8")
    for argv, field in ((["norm", PAULI, "--seed", "-1"], "--seed"),
                        (["norm", str(from_file)], "options.seed"),
                        (["bench", "--sizes", "2x2", "--seed", "-1"], "--seed")):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"validation error: {field}: must be a non-negative")
    assert calls == []


@pytest.mark.parametrize("instance, option, value, argv, field", [
    ("pinch_multdomain", "samples", 0, [], "options.samples"),
    ("pinch_multdomain", "samples", -3, [], "options.samples"),
    ("pauli_cb", "agree_tol", 0, [], "options.agree_tol"),
    ("pauli_cb", "agree_tol", -1, [], "options.agree_tol"),
    ("pauli_cb", "restarts", 0, [], "options.restarts"),
    ("pauli_cb", "aux_dim", 0, [], "options.aux_dim"),
    ("scalar_dec", "tol", 0, [], "options.tol"),
    ("scalar_dec", "seed", -1, [], "options.seed"),
    ("pauli_cb", None, None, ["--restarts", "0"], "--restarts"),
    ("pauli_cb", None, None, ["--K", "0"], "--K"),
    ("scalar_dec", None, None, ["--tol", "nan"], "--tol"),
])
def test_out_of_range_option_exits_2_naming_its_field(monkeypatch, tmp_path, capsys,
                                                      instance, option, value, argv, field):
    calls = []
    solve = conic.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(conic, "solve", counting_solve)
    raw = json.loads(open(f"instances/{instance}.json", encoding="utf-8").read())
    if option is not None:
        raw.setdefault("options", {})[option] = value
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["norm", str(path), *argv]) == 2
    assert capsys.readouterr().err.startswith(f"validation error: {field}: ")
    assert calls == []


# small in-range values keep each drawn run short
IN_RANGE = {
    "seed": st.integers(0, 3),
    "restarts": st.integers(1, 4),
    "aux_dim": st.integers(1, 3),
    "samples": st.integers(1, 5),
    "tol": st.sampled_from([1e-8, 1e-6, 1e-4]),
    "agree_tol": st.floats(1e-6, 1e-1),
}
OUT_OF_RANGE = {
    "seed": st.integers(max_value=-1),
    "restarts": st.integers(max_value=0),
    "aux_dim": st.integers(max_value=0),
    "samples": st.integers(max_value=0),
    "tol": st.floats(max_value=0.0),
    "agree_tol": st.floats(max_value=0.0),
}


@st.composite
def option_entries(draw):
    """One ``options`` entry, and whether the instance format accepts it."""
    case = draw(st.sampled_from(["unknown", "type", "range", "valid"]))
    if case == "unknown":
        return draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in OPTIONS)), 1, False
    key = draw(st.sampled_from(sorted(OPTIONS)))
    if case == "type":
        wrong = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                          st.lists(st.integers(), max_size=2))
        if OPTIONS[key][0] is int:
            wrong = wrong | st.floats()
        return key, draw(wrong), False
    if case == "range":
        return key, draw(OUT_OF_RANGE[key]), False
    return key, draw(IN_RANGE[key]), True


@given(path=st.sampled_from(sorted(str(p) for p in Path("instances").glob("*.json"))),
       entry=option_entries())
def test_instance_option_exits_2_exactly_when_invalid(path, entry):
    key, value, valid = entry
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    raw.setdefault("options", {})[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        doc, out = Path(tmp) / "instance.json", Path(tmp) / "report.json"
        doc.write_text(json.dumps(raw), encoding="utf-8")
        with contextlib.redirect_stderr(err):
            code = main(["norm", str(doc), "--json", "--out", str(out)])
        rep = json.loads(out.read_text(encoding="utf-8")) if code == 0 else None
    if not valid:
        assert code == 2
        assert err.getvalue().startswith(f"validation error: options.{key}: ")
        return
    assert code == 0 and err.getvalue() == ""
    takes = inspect.signature(getattr(cli, ROUTINE_OF_KIND[raw["kind"]][1])).parameters
    assert set(rep["options"]) == set(takes) & set(OPTIONS)
    ignored = rep.get("ignored_options", {})
    assert (key in rep["options"]) != (key in ignored)
    assert {**rep["options"], **ignored}[key] == value


def test_verify_quick_capped(capsys):
    assert main(["verify", "--instances", "1", "--profile", "quick", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "solver_eigenvalue" in out
    assert "FAIL" not in out


def test_verify_json_report(capsys):
    assert main(["verify", "--instances", "1", "--json", "--seed", "42"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["all_passed"] is True
    assert rep["seed"] == 42
    names = [c["name"] for c in rep["checks"]]
    for expected in ("dec_cb_agreement", "nuclearity", "mult_domain", "determinism"):
        assert expected in names
    for c in rep["checks"]:
        assert c["passed"] is True
        assert c["instances"] >= 1


def test_verify_json_times_every_check(capsys):
    reports = []
    for _ in range(2):
        assert main(["verify", "--instances", "1", "--json", "--seed", "42"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    for rep in reports:
        checks = rep.pop("timing")["checks"]
        assert sorted(checks) == sorted(c["name"] for c in rep["checks"])
        assert all(s >= 0.0 for s in checks.values())
        # the certificate check shares the agreement check's instances and time
        assert checks["dec_certificates"] == 0.0
    assert reports[0] == reports[1]


def test_verify_reports_every_manifest_check_once_in_order(capsys):
    assert main(["verify", "--instances", "1", "--json"]) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert names == [c["name"] for c in suite.load_manifest()["checks"]]
    assert len(set(names)) == len(names)


def test_verify_bad_cap_or_seed_exits_2_before_any_check(monkeypatch, capsys):
    def no_check(*args, **kwargs):
        raise AssertionError("a check started")

    monkeypatch.setattr(suite, "make_generator", no_check)
    for flags, field in ((["--instances", "0"], "max_instances"),
                         (["--instances", "-3"], "max_instances"),
                         (["--seed", "-1"], "seed")):
        assert main(["verify", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: " + field)


def test_verify_deterministic_modulo_timing(capsys):
    assert main(["verify", "--instances", "1", "--seed", "42"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert main(["verify", "--instances", "1", "--seed", "42"]) == 0
    second = capsys.readouterr().out.splitlines()
    # the closing line carries wall time, everything above is seeded
    assert first[:-1] == second[:-1]
    assert first[-1].startswith("overall: pass")
    assert second[-1].startswith("overall: pass")


def test_verify_runner_that_raises_fails_its_checks(monkeypatch, capsys):
    def raising(exc):
        def routine(*args, **kwargs):
            raise exc
        return routine

    monkeypatch.setattr(suite, "multiplicative_domain", raising(RuntimeError("rank lost")))
    monkeypatch.setattr(suite, "cb_norm_linf", raising(ValueError("factors miss")))
    assert main(["verify", "--instances", "1", "--json", "--seed", "42"]) == 1
    out, err = capsys.readouterr()
    assert err == ""

    def no_constant(name):
        raise AssertionError(f"{name} in the JSON report")

    checks = {c["name"]: c for c in json.loads(out, parse_constant=no_constant)["checks"]}
    failed = {"mult_domain": "RuntimeError: rank lost",
              "dec_cb_agreement": "ValueError: factors miss",
              "dec_certificates": "ValueError: factors miss"}
    for name, check in checks.items():
        assert check["passed"] is (name not in failed)
        if name in failed:
            assert check["detail"] == failed[name]
            assert check["instances"] == 0
    assert len(checks) == len(suite.load_manifest()["checks"])

    # the text report prints a failing check's detail on an indented line under its row
    assert main(["verify", "--instances", "1", "--seed", "42"]) == 1
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: i for i, line in enumerate(lines) if line.split()[0] in checks}
    for name, i in rows.items():
        follows = lines[i + 1]
        if name in failed:
            assert lines[i].endswith("FAIL")
            assert follows == f"    {failed[name]}"
        else:
            assert not follows.startswith(" ")
    assert len(rows) == len(checks)


def test_bench_table(capsys):
    assert main(["bench", "--sizes", "2x2", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split()
    assert header == ["n", "d", "sdp_s", "seesaw_s", "value", "gap"]
    row = lines[1].split()
    assert row[0] == "2" and row[1] == "2"
    assert float(row[4]) > 0.0
    assert abs(float(row[5])) < 1e-4


def test_bench_largest_recorded_size_within_budget(capsys):
    assert main(["bench", "--sizes", "4x3", "--seed", "0"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split()
    assert float(row[2]) < 30.0
    assert float(row[3]) < 30.0


def test_bench_size_errors(capsys):
    assert main(["bench", "--sizes", ""]) == 2
    assert "empty size list" in capsys.readouterr().err
    assert main(["bench", "--sizes", "2xx"]) == 2
    assert "expected NxD" in capsys.readouterr().err
    assert main(["bench", "--sizes", "0x2"]) == 2
    assert "positive" in capsys.readouterr().err
