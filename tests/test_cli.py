"""Command line entry points: exit codes, report formats, determinism."""

import json

from decnorms.cli import main

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


def test_verify_deterministic_modulo_timing(capsys):
    assert main(["verify", "--instances", "1", "--seed", "42"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert main(["verify", "--instances", "1", "--seed", "42"]) == 0
    second = capsys.readouterr().out.splitlines()
    # the closing line carries wall time, everything above is seeded
    assert first[:-1] == second[:-1]
    assert first[-1].startswith("overall: pass")
    assert second[-1].startswith("overall: pass")


def test_verify_injected_regression_caught(capsys):
    code = main(["verify", "--instances", "3", "--seed", "42",
                 "--inject", "seesaw_frozen"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "dec_cb_agreement" in out


def test_verify_unknown_injection(capsys):
    assert main(["verify", "--inject", "bogus_name"]) == 2
    assert "unknown injected regression" in capsys.readouterr().err


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
