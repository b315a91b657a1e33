"""Instance files and reports for the command line.

Instances are JSON with every complex entry written as an explicit
``[re, im]`` pair, so corpora stay portable and diffable.  Validation
happens before any computation and errors name the offending field by
its JSON path.  Reports carry the instance digest, the computed values
with their certificate residuals, and timing; everything except the
timing block is deterministic for a fixed instance, flags and seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from decnorms import __version__
from decnorms.algebra import AlgebraShape, from_assembled, is_selfadjoint
from decnorms.maps import LinearMapRep

KINDS = (
    "dec_linf",
    "dec_matrix",
    "cb_linf",
    "free_tensor",
    "mult_domain",
    "selfadjoint_dec",
)

# Each option's type, its range, and the message when a value falls outside it.
OPTIONS = {
    "seed": (int, lambda v: v >= 0, "must be a non-negative integer"),
    "restarts": (int, lambda v: v >= 1, "must be at least 1"),
    "aux_dim": (int, lambda v: v >= 1, "auxiliary dimension must be positive"),
    "samples": (int, lambda v: v >= 1, "must be at least 1"),
    "tol": (float, lambda v: math.isfinite(v) and v > 0, "must be positive and finite"),
    "agree_tol": (float, lambda v: math.isfinite(v) and v > 0, "must be positive and finite"),
}

BLOCK_LEAK_TOL = 1e-10


class InstanceError(ValueError):
    """Schema violation; ``field`` names the offending JSON path."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


@dataclass
class ParsedInstance:
    kind: str
    digest: str
    coefficients: list = field(default_factory=list)
    linear_map: LinearMapRep | None = None
    options: dict = field(default_factory=dict)


def canonical_digest(obj) -> str:
    """sha256 over the canonical JSON serialization."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _require(cond: bool, field_path: str, message: str):
    if not cond:
        raise InstanceError(field_path, message)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def parse_complex_matrix(obj, field_path: str) -> np.ndarray:
    """Nested [re, im] arrays to a complex matrix, errors named by path."""
    _require(isinstance(obj, list) and len(obj) > 0, field_path, "expected a nonempty array of rows")
    cols = None
    rows = []
    for r, row in enumerate(obj):
        rp = f"{field_path}[{r}]"
        _require(isinstance(row, list) and len(row) > 0, rp, "expected a nonempty array of entries")
        if cols is None:
            cols = len(row)
        _require(len(row) == cols, rp, "rows have unequal lengths")
        out_row = []
        for c, ent in enumerate(row):
            ep = f"{rp}[{c}]"
            _require(isinstance(ent, list) and len(ent) == 2, ep, "expected a [re, im] pair")
            _require(_is_number(ent[0]) and _is_number(ent[1]), ep, "entries must be finite numbers")
            out_row.append(complex(ent[0], ent[1]))
        rows.append(out_row)
    return np.array(rows, dtype=np.complex128)


def _parse_shape(obj, field_path: str, *, total: int | None = None) -> AlgebraShape:
    _require(isinstance(obj, list) and len(obj) > 0, field_path, "expected a nonempty array of block sizes")
    for i, d in enumerate(obj):
        _require(isinstance(d, int) and not isinstance(d, bool) and d > 0,
                 f"{field_path}[{i}]", "block sizes must be positive integers")
    shape = AlgebraShape(block_dims=tuple(obj))
    if total is not None:
        _require(shape.embed_dim == total, field_path,
                 f"block sizes sum to {shape.embed_dim}, matrices have size {total}")
    return shape


def _split_blocks(m: np.ndarray, shape: AlgebraShape, field_path: str):
    """Slice an embedded matrix into blocks; leakage outside them errors."""
    mask = np.ones(m.shape, dtype=bool)
    pos = 0
    for d in shape.block_dims:
        mask[pos:pos + d, pos:pos + d] = False
        pos += d
    leak = np.abs(m[mask]).max() if mask.any() else 0.0
    scale = max(1.0, float(np.abs(m).max()))
    _require(leak <= BLOCK_LEAK_TOL * scale, field_path,
             "matrix has weight outside the block-diagonal structure")
    return from_assembled(shape, m)


def check_option(key: str, value, field_path: str):
    """Raise :class:`InstanceError` naming ``field_path`` when ``value`` is out of range."""
    _, in_range, message = OPTIONS[key]
    _require(in_range(value), field_path, f"{message}, got {value!r}")


def _parse_options(obj, field_path: str) -> dict:
    if obj is None:
        return {}
    _require(isinstance(obj, dict), field_path, "expected an object")
    out = {}
    for key, val in obj.items():
        kp = f"{field_path}.{key}"
        _require(key in OPTIONS, kp, "unknown option")
        cast = OPTIONS[key][0]
        if cast is int:
            _require(isinstance(val, int) and not isinstance(val, bool), kp, "expected an integer")
        else:
            _require(_is_number(val), kp, "expected a finite number")
        out[key] = cast(val)
        check_option(key, out[key], kp)
    return out


def _parse_matrices(raw: dict, name: str, kind: str):
    """The codomain of the nonempty matrix array ``raw[name]`` and the matrices' blocks.

    The matrices are square and of one size, which the optional
    ``codomain`` splits into blocks; errors name ``name[j]`` or ``codomain``.
    """
    mats = [parse_complex_matrix(m, f"{name}[{j}]") for j, m in enumerate(raw[name])]
    size = mats[0].shape[0]
    for j, m in enumerate(mats):
        _require(m.shape[0] == m.shape[1], f"{name}[{j}]", "matrix must be square")
        _require(m.shape[0] == size, f"{name}[{j}]",
                 f"matrix size {m.shape[0]} differs from {name}[0] size {size}")
    if "codomain" in raw:
        codomain = _parse_shape(raw["codomain"], "codomain", total=size)
    else:
        codomain = AlgebraShape(block_dims=(size,))
    if kind in ("free_tensor", "cb_linf"):
        _require(codomain.num_blocks == 1, "codomain",
                 f"{kind} takes coefficients in a single matrix block")
    return codomain, [_split_blocks(m, codomain, f"{name}[{j}]") for j, m in enumerate(mats)]


def parse_instance(raw: dict) -> ParsedInstance:
    """Validate a decoded instance document and build the domain objects."""
    _require(isinstance(raw, dict), "$", "instance must be a JSON object")
    _require("version" in raw, "version", "missing")
    _require(raw["version"] == "1", "version", "unsupported version, expected \"1\"")
    _require("kind" in raw, "kind", "missing")
    kind = raw["kind"]
    _require(kind in KINDS, "kind", f"unknown kind, expected one of {', '.join(KINDS)}")
    known = {"version", "kind", "coefficients", "codomain", "domain", "images", "options"}
    for key in raw:
        _require(key in known, key, "unknown field")
    options = _parse_options(raw.get("options"), "options")

    if kind in ("dec_linf", "cb_linf", "free_tensor", "selfadjoint_dec"):
        _require("coefficients" in raw, "coefficients", "missing")
        _require("domain" not in raw and "images" not in raw, kind,
                 "coefficient kinds take 'coefficients', not 'domain'/'images'")
        coeffs_raw = raw["coefficients"]
        _require(isinstance(coeffs_raw, list) and len(coeffs_raw) > 0,
                 "coefficients", "expected a nonempty array of matrices")
        _, elements = _parse_matrices(raw, "coefficients", kind)
        if kind == "selfadjoint_dec":
            for j, x in enumerate(elements):
                _require(is_selfadjoint(x), f"coefficients[{j}]", "matrix is not self-adjoint")
        # digest only after validation: allow_nan=False chokes on non-finite
        # leaves, and those must surface as field errors instead
        return ParsedInstance(kind=kind, digest=canonical_digest(raw), coefficients=elements,
                              options=options)

    # map kinds: dec_matrix, mult_domain
    _require("domain" in raw, "domain", "missing")
    dom_raw = raw["domain"]
    _require(isinstance(dom_raw, int) and not isinstance(dom_raw, bool) and dom_raw > 0,
             "domain", "expected a positive integer matrix size")
    n = dom_raw
    _require("images" in raw, "images", "missing")
    imgs_raw = raw["images"]
    _require(isinstance(imgs_raw, list), "images", "expected an array of matrices")
    _require(len(imgs_raw) == n * n, "images",
             f"expected {n * n} images of the matrix units, got {len(imgs_raw)}")
    codomain, images = _parse_matrices(raw, "images", kind)
    domain = AlgebraShape(block_dims=(n,))
    # Image order matches the matrix-unit index: e_rs sits at r*n + s.
    lin = LinearMapRep(domain=domain, codomain=codomain, images=images)
    return ParsedInstance(kind=kind, digest=canonical_digest(raw), linear_map=lin,
                          options=options)


def load_instance(path: str) -> ParsedInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InstanceError("$file", f"cannot read instance file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError("$file", f"not valid JSON: {exc}") from exc
    return parse_instance(raw)


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    return v


def build_report(kind: str, digest: str, results: dict, *, options: dict, seconds: float,
                 ignored_options: dict | None = None) -> dict:
    """The report; ``ignored_options`` appears only when some option set was not read."""
    report = {
        "toolkit": {"name": "decnorms", "version": __version__},
        "kind": kind,
        "instance_digest": digest,
        "options": _jsonable(options),
        "results": _jsonable(results),
        "timing": {"seconds": float(seconds)},
    }
    if ignored_options:
        report["ignored_options"] = _jsonable(ignored_options)
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def render_text(report: dict) -> str:
    """Flat ``key: value`` lines; the timing block always comes last."""
    lines = []

    def walk(prefix: str, v):
        if isinstance(v, dict):
            for k in sorted(v):
                walk(f"{prefix}.{k}" if prefix else k, v[k])
        elif isinstance(v, list):
            lines.append(f"{prefix}: [{', '.join(str(x) for x in v)}]")
        else:
            lines.append(f"{prefix}: {v}")

    for key in ("toolkit", "kind", "instance_digest", "options", "ignored_options", "results"):
        if key in report:
            walk(key, report[key])
    walk("timing", report.get("timing", {}))
    return "\n".join(lines) + "\n"
