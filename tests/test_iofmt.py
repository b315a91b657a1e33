"""Instance parsing, canonical digests, and report rendering."""

import copy
import json

import numpy as np
import pytest

from decnorms import iofmt, testkit

INSTANCE_DIR = "instances"

SHIPPED = {
    "scalar_dec.json": "dec_linf",
    "matrix_identity.json": "dec_matrix",
    "pauli_cb.json": "cb_linf",
    "free_unit.json": "free_tensor",
    "pinch_multdomain.json": "mult_domain",
    "selfadjoint_pair.json": "selfadjoint_dec",
}


def _encode(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=np.complex128)]


def _coeff_doc(mats, **extra):
    doc = {
        "version": "1",
        "kind": "dec_linf",
        "coefficients": [_encode(m) for m in mats],
    }
    doc.update(extra)
    return doc


def test_shipped_instances_parse():
    for name, kind in SHIPPED.items():
        inst = iofmt.load_instance(f"{INSTANCE_DIR}/{name}")
        assert inst.kind == kind
        assert len(inst.digest) == 64
        int(inst.digest, 16)
        if kind in ("dec_matrix", "mult_domain"):
            assert inst.linear_map is not None
            assert inst.coefficients == []
        else:
            assert inst.linear_map is None
            assert len(inst.coefficients) > 0
            for el in inst.coefficients:
                assert el.shape == inst.coefficients[0].shape


def test_parse_round_trips_coefficients():
    rng = testkit.make_generator(404, 0)
    mats = testkit.random_matrix_tuple(rng, 2, 3)
    inst = iofmt.parse_instance(_coeff_doc(mats))
    for m, el in zip(mats, inst.coefficients):
        assert np.allclose(el.assemble(), m, atol=1e-15)
    assert inst.coefficients[0].shape.block_dims == (3,)


def test_codomain_blocks_respected():
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    inst = iofmt.parse_instance(_coeff_doc([m], codomain=[1, 2]))
    assert inst.coefficients[0].shape.block_dims == (1, 2)
    assert inst.coefficients[0].blocks[0].shape == (1, 1)
    assert inst.coefficients[0].blocks[1].shape == (2, 2)


def _err(doc):
    with pytest.raises(iofmt.InstanceError) as ei:
        iofmt.parse_instance(doc)
    return ei.value


def test_version_and_kind_errors():
    doc = _coeff_doc([np.eye(2)])
    bad = dict(doc)
    del bad["version"]
    assert _err(bad).field == "version"
    bad = dict(doc, version="2")
    assert _err(bad).field == "version"
    bad = dict(doc)
    del bad["kind"]
    assert _err(bad).field == "kind"
    bad = dict(doc, kind="operator_norm")
    assert _err(bad).field == "kind"
    bad = dict(doc, comment="hello")
    assert _err(bad).field == "comment"


def test_matrix_entry_errors_name_the_path():
    doc = _coeff_doc([np.eye(2)])
    bad = copy.deepcopy(doc)
    bad["coefficients"][0][1].append([0.0, 0.0])
    assert _err(bad).field == "coefficients[0][1]"
    bad = copy.deepcopy(doc)
    bad["coefficients"][0][0][1] = [1.0]
    assert _err(bad).field == "coefficients[0][0][1]"
    bad = copy.deepcopy(doc)
    bad["coefficients"][0][0][1] = [1.0, True]
    assert _err(bad).field == "coefficients[0][0][1]"
    bad = copy.deepcopy(doc)
    bad["coefficients"][0][0][0] = [float("inf"), 0.0]
    err = _err(bad)
    assert err.field == "coefficients[0][0][0]"
    assert "finite" in str(err)


def test_coefficient_shape_errors():
    assert _err({"version": "1", "kind": "dec_linf", "coefficients": []}).field == "coefficients"
    doc = _coeff_doc([np.eye(2), np.eye(3)])
    assert _err(doc).field == "coefficients[1]"
    doc = _coeff_doc([np.eye(2)], domain=2)
    err = _err(doc)
    assert "coefficients" in str(err) or err.field == "dec_linf"
    doc = _coeff_doc([np.ones((2, 3))])
    assert "square" in str(_err(doc))


def test_codomain_errors():
    doc = _coeff_doc([np.eye(3)], codomain=[2, 2])
    err = _err(doc)
    assert err.field == "codomain"
    assert "sum to 4" in str(err)
    doc = _coeff_doc([np.eye(3)], codomain=[1, 0, 2])
    assert _err(doc).field == "codomain[1]"
    # off-block weight is rejected
    m = np.eye(3, dtype=complex)
    m[0, 2] = 1e-6
    doc = _coeff_doc([m], codomain=[1, 2])
    err = _err(doc)
    assert err.field == "coefficients[0]"
    assert "block" in str(err)
    # single-block kinds reject split codomains
    doc = _coeff_doc([np.eye(2)], codomain=[1, 1])
    doc["kind"] = "cb_linf"
    assert _err(doc).field == "codomain"


def test_selfadjoint_kind_requires_hermitian():
    h = np.array([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, -0.5]])
    doc = _coeff_doc([h, np.eye(2)])
    doc["kind"] = "selfadjoint_dec"
    iofmt.parse_instance(doc)
    doc = _coeff_doc([h, 1.0j * np.eye(2)])
    doc["kind"] = "selfadjoint_dec"
    assert _err(doc).field == "coefficients[1]"
    # entry defect 8e-11 but operator-norm defect 6.4e-10: the solver
    # route refuses this matrix, so the file must fail on its field
    doc = _coeff_doc([0.5 * np.eye(8) + 4e-11j * np.ones((8, 8))])
    doc["kind"] = "selfadjoint_dec"
    assert _err(doc).field == "coefficients[0]"


def test_map_kind_errors():
    imgs = [np.eye(2) * (1 if r == s else 0) for r in range(2) for s in range(2)]
    doc = {
        "version": "1",
        "kind": "dec_matrix",
        "domain": 2,
        "images": [_encode(m) for m in imgs],
    }
    inst = iofmt.parse_instance(doc)
    assert inst.linear_map.domain.block_dims == (2,)
    assert len(inst.linear_map.images) == 4

    bad = dict(doc)
    del bad["domain"]
    assert _err(bad).field == "domain"
    bad = dict(doc, domain=True)
    assert _err(bad).field == "domain"
    bad = dict(doc, domain=3)
    err = _err(bad)
    assert err.field == "images"
    assert "expected 9 images" in str(err)
    bad = dict(doc)
    del bad["images"]
    assert _err(bad).field == "images"
    bad = dict(doc, images=doc["images"][:3] + [_encode(np.eye(3))])
    assert _err(bad).field == "images[3]"


def test_option_errors_and_coercion():
    doc = _coeff_doc([np.eye(2)], options={"seed": 7, "tol": 1})
    inst = iofmt.parse_instance(doc)
    assert inst.options == {"seed": 7, "tol": 1.0}
    assert isinstance(inst.options["tol"], float)
    doc = _coeff_doc([np.eye(2)], options={"verbose": True})
    assert _err(doc).field == "options.verbose"
    doc = _coeff_doc([np.eye(2)], options={"seed": 1.5})
    assert _err(doc).field == "options.seed"
    doc = _coeff_doc([np.eye(2)], options={"restarts": True})
    assert _err(doc).field == "options.restarts"
    doc = _coeff_doc([np.eye(2)], options=[1, 2])
    assert _err(doc).field == "options"


def test_canonical_digest_ignores_key_order():
    doc = _coeff_doc([np.eye(2)], options={"seed": 3})
    reordered = {k: doc[k] for k in reversed(list(doc))}
    assert iofmt.canonical_digest(doc) == iofmt.canonical_digest(reordered)
    other = _coeff_doc([np.eye(2)], options={"seed": 4})
    assert iofmt.canonical_digest(doc) != iofmt.canonical_digest(other)
    # parse_instance stamps the same digest
    assert iofmt.parse_instance(doc).digest == iofmt.canonical_digest(doc)


def test_load_instance_file_errors(tmp_path):
    with pytest.raises(iofmt.InstanceError) as ei:
        iofmt.load_instance(str(tmp_path / "missing.json"))
    assert ei.value.field == "$file"
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(iofmt.InstanceError) as ei:
        iofmt.load_instance(str(bad))
    assert ei.value.field == "$file"
    assert "JSON" in str(ei.value)


def test_build_report_jsonable_and_renderers():
    results = {
        "value": np.float64(6.0),
        "iterations": np.int64(41),
        "converged": np.bool_(True),
        "history": [np.float64(1.0), np.float64(2.0)],
    }
    rep = iofmt.build_report("dec_linf", "ab" * 32, results,
                            options={"seed": np.int64(7)}, seconds=0.125)
    # everything must be plain python types for json
    blob = iofmt.render_json(rep)
    back = json.loads(blob)
    assert back["results"]["value"] == 6.0
    assert back["results"]["converged"] is True
    assert back["options"]["seed"] == 7
    assert back["kind"] == "dec_linf"
    assert back["timing"]["seconds"] == 0.125

    text = iofmt.render_text(rep)
    lines = text.strip().split("\n")
    assert "results.value: 6.0" in lines
    assert "results.converged: True" in lines
    assert "results.history: [1.0, 2.0]" in lines
    assert lines[-1] == "timing.seconds: 0.125"


def test_reports_deterministic_modulo_timing():
    results = {"value": 1.25, "status": "optimal"}
    rep_a = iofmt.build_report("dec_linf", "0" * 64, results, options={}, seconds=0.01)
    rep_b = iofmt.build_report("dec_linf", "0" * 64, results, options={}, seconds=0.02)
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("timing")]
    assert strip(iofmt.render_text(rep_a)) == strip(iofmt.render_text(rep_b))
    drop = lambda r: {k: v for k, v in r.items() if k != "timing"}
    assert drop(json.loads(iofmt.render_json(rep_a))) == drop(json.loads(iofmt.render_json(rep_b)))
