"""Tensor norm tests over free unitary generators.

Closed forms used as oracles: the unit tensor has both norms one, scalar
coefficients give sum |x_j| for both norms, unitary coefficients give n,
and pushing a tensor through a contractive CP map cannot increase the max
norm beyond dec times the min norm.
"""

import numpy as np
import pytest

from decnorms import conic, freetensor, maps
from decnorms.algebra import matrix_algebra
from decnorms.testkit import (
    make_generator,
    random_free_tensor,
    random_haar_unitary,
    random_matrix_tuple,
    random_unital_cp_map,
)

TIGHT = dict(gap_tol=1e-10, feas_tol=1e-10)


def test_free_tensor_validation():
    with pytest.raises(ValueError):
        freetensor.free_tensor([])
    with pytest.raises(ValueError):
        freetensor.free_tensor([np.eye(2), np.eye(3)])
    t = freetensor.free_tensor([np.eye(2), np.zeros((2, 2))])
    assert t.n == 2
    assert t.coeff_dim == 2


def test_unit_tensor_has_both_norms_one():
    t = freetensor.free_tensor([np.eye(2)])
    mx, cert = freetensor.max_norm(t, **TIGHT)
    assert mx == pytest.approx(1.0, abs=1e-8)
    br = freetensor.min_norm(t, restarts=2, seed=0, **TIGHT)
    assert br.upper == pytest.approx(1.0, abs=1e-8)
    assert br.lower == pytest.approx(1.0, abs=1e-8)
    assert br.verdict == "agree"


def test_scalar_tensor_closed_form():
    vals = [1.0, -0.5, 0.25j]
    t = freetensor.free_tensor([np.array([[v]]) for v in vals])
    want = float(sum(abs(v) for v in vals))
    mx, _ = freetensor.max_norm(t, **TIGHT)
    br = freetensor.min_norm(t, restarts=4, seed=0, **TIGHT)
    assert mx == pytest.approx(want, abs=1e-8)
    assert br.lower == pytest.approx(want, abs=1e-8)
    assert br.upper == pytest.approx(want, abs=1e-8)


def test_unitary_tensor_norm_is_n():
    gen = make_generator(80)
    us = [np.eye(2)] + [random_haar_unitary(gen, 2) for _ in range(2)]
    t = freetensor.free_tensor(us)
    mx, _ = freetensor.max_norm(t, **TIGHT)
    br = freetensor.min_norm(t, restarts=4, seed=0, **TIGHT)
    assert mx == pytest.approx(3.0, abs=1e-7)
    assert br.lower == pytest.approx(3.0, abs=1e-7)


def test_min_never_exceeds_max():
    gen = make_generator(81)
    for _ in range(4):
        t = random_free_tensor(gen, 3, 2)
        mx, _ = freetensor.max_norm(t)
        br = freetensor.min_norm(t, restarts=12, seed=4)
        assert br.lower <= mx + 1e-8 * max(1.0, mx)
        assert br.lower <= br.upper + 1e-9 * max(1.0, br.upper)


def test_norms_invariant_under_permuting_non_unit_slots():
    gen = make_generator(82)
    t = random_free_tensor(gen, 3, 2)
    swapped = freetensor.free_tensor([t.coeffs[0], t.coeffs[2], t.coeffs[1]])
    mx1, _ = freetensor.max_norm(t)
    mx2, _ = freetensor.max_norm(swapped)
    assert mx1 == pytest.approx(mx2, abs=1e-7)
    br1 = freetensor.min_norm(t, restarts=12, seed=6)
    br2 = freetensor.min_norm(swapped, restarts=12, seed=6)
    assert br1.upper == pytest.approx(br2.upper, abs=1e-6)
    assert br1.lower == pytest.approx(br2.lower, abs=1e-4 * max(1.0, br1.lower))


def test_nuclearity_gap_closes_for_matrix_coefficients():
    gen = make_generator(83)
    for _ in range(3):
        t = random_free_tensor(gen, 3, 2)
        rep = freetensor.nuclearity_gap(t, restarts=16, seed=11)
        assert rep.verdict == "agree"
        assert abs(rep.max_value - rep.min_upper) <= 5e-4 * max(1.0, rep.max_value)
        assert rep.rel_gap <= 5e-4
        assert rep.seesaw_gap <= 5e-4
        assert rep.min_lower <= rep.max_value + 1e-8


def test_nuclearity_gap_solves_one_sdp(monkeypatch):
    # the max norm and the min-norm upper value are the same SDP
    calls = []
    solve = conic.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(conic, "solve", counting_solve)
    t = random_free_tensor(make_generator(84), 3, 2)
    rep = freetensor.nuclearity_gap(t, restarts=2, seed=0)
    assert len(calls) == 1
    assert rep.max_value == rep.min_upper
    assert rep.max_certificate is rep.min_bracket.certificate


def test_contraction_through_unital_cp_map():
    gen = make_generator(84)
    t = random_free_tensor(gen, 3, 2)
    u = random_unital_cp_map(gen, 2)
    rep = freetensor.check_finite_rank_contraction(u, t, restarts=12, seed=12)
    assert rep.ok
    assert rep.lhs <= rep.rhs + 1e-6 * max(1.0, rep.rhs)


def test_contraction_through_compression():
    # x -> a* x a with ||a|| <= 1 has dec norm ||a* a|| <= 1, so the
    # pushed-through tensor shrinks in max norm below the min-norm value.
    gen = make_generator(85)
    a = random_haar_unitary(gen, 2) * 0.8
    u = maps.conjugation_map(a)
    t = random_free_tensor(gen, 2, 2)
    rep = freetensor.check_finite_rank_contraction(u, t, restarts=12, seed=13)
    assert rep.ok
    assert rep.dec_value == pytest.approx(0.64, abs=1e-6)


def test_contraction_domain_mismatch_raises():
    gen = make_generator(86)
    t = random_free_tensor(gen, 2, 2)
    with pytest.raises(ValueError):
        freetensor.check_finite_rank_contraction(random_unital_cp_map(gen, 3), t)


def test_common_unitary_rotation_preserves_norms():
    gen = make_generator(87)
    xs = random_matrix_tuple(gen, 3, 2)
    w = random_haar_unitary(gen, 2)
    v = random_haar_unitary(gen, 2)
    t1 = freetensor.free_tensor(xs)
    t2 = freetensor.free_tensor([w @ x @ v for x in xs])
    mx1, _ = freetensor.max_norm(t1)
    mx2, _ = freetensor.max_norm(t2)
    assert mx1 == pytest.approx(mx2, abs=1e-6 * max(1.0, mx1))
    # min norm: conjugating coefficients is compensated by the tensor side
    br1 = freetensor.min_norm(t1, restarts=12, seed=14)
    br2 = freetensor.min_norm(t2, restarts=12, seed=14)
    assert br1.upper == pytest.approx(br2.upper, abs=1e-6 * max(1.0, br1.upper))
