"""Tensor norm tests over free unitary generators.

Closed forms used as oracles: the unit tensor has both norms one, scalar
coefficients give sum |x_j| for both norms, unitary coefficients give n,
and pushing a tensor through a contractive CP map cannot increase the max
norm beyond dec times the min norm.
"""

import numpy as np
import pytest

from decnorms import conic, freetensor, maps
from decnorms.decomposable import dec_norm_linf
from decnorms.testkit import (
    make_generator,
    random_haar_unitary,
    random_matrix_tuple,
    random_unital_cp_map,
)

TIGHT = dict(tol=1e-10)


def test_free_tensor_validation():
    with pytest.raises(ValueError):
        freetensor.min_norm([])
    with pytest.raises(ValueError):
        freetensor.min_norm([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        freetensor.check_finite_rank_contractions([(maps.kraus_map([np.eye(2)]), [])])


def test_unit_tensor_has_both_norms_one():
    xs = [np.eye(2)]
    mx = dec_norm_linf(xs, **TIGHT).value
    assert mx == pytest.approx(1.0, abs=1e-8)
    br = freetensor.min_norm(xs, restarts=2, seed=0, **TIGHT)
    assert br.upper == pytest.approx(1.0, abs=1e-8)
    assert br.lower == pytest.approx(1.0, abs=1e-8)
    assert br.verdict == "agree"


def test_scalar_tensor_closed_form():
    vals = [1.0, -0.5, 0.25j]
    xs = [np.array([[v]]) for v in vals]
    want = float(sum(abs(v) for v in vals))
    mx = dec_norm_linf(xs, **TIGHT).value
    br = freetensor.min_norm(xs, restarts=4, seed=0, **TIGHT)
    assert mx == pytest.approx(want, abs=1e-8)
    assert br.lower == pytest.approx(want, abs=1e-8)
    assert br.upper == pytest.approx(want, abs=1e-8)


def test_unitary_tensor_norm_is_n():
    gen = make_generator(80)
    us = [np.eye(2)] + [random_haar_unitary(gen, 2) for _ in range(2)]
    mx = dec_norm_linf(us, **TIGHT).value
    br = freetensor.min_norm(us, restarts=4, seed=0, **TIGHT)
    assert mx == pytest.approx(3.0, abs=1e-7)
    assert br.lower == pytest.approx(3.0, abs=1e-7)


def test_min_never_exceeds_max():
    gen = make_generator(81)
    for _ in range(4):
        xs = random_matrix_tuple(gen, 3, 2)
        mx = dec_norm_linf(xs).value
        br = freetensor.min_norm(xs, restarts=12, seed=4)
        assert br.lower <= mx + 1e-8 * max(1.0, mx)
        assert br.lower <= br.upper + 1e-9 * max(1.0, br.upper)


def test_norms_invariant_under_permuting_non_unit_slots():
    gen = make_generator(82)
    xs = random_matrix_tuple(gen, 3, 2)
    swapped = [xs[0], xs[2], xs[1]]
    mx1 = dec_norm_linf(xs).value
    mx2 = dec_norm_linf(swapped).value
    assert mx1 == pytest.approx(mx2, abs=1e-7)
    br1 = freetensor.min_norm(xs, restarts=12, seed=6)
    br2 = freetensor.min_norm(swapped, restarts=12, seed=6)
    assert br1.upper == pytest.approx(br2.upper, abs=1e-6)
    assert br1.lower == pytest.approx(br2.lower, abs=1e-4 * max(1.0, br1.lower))


def test_nuclearity_gap_closes_for_matrix_coefficients():
    gen = make_generator(83)
    for _ in range(3):
        xs = random_matrix_tuple(gen, 3, 2)
        br = freetensor.min_norm(xs, restarts=16, seed=11)
        mx = dec_norm_linf(xs).value
        # the min-norm bracket closes on the max norm, so its gap is the max-min gap
        assert br.upper == mx
        assert br.verdict == "agree"
        assert br.gap <= 5e-4
        assert br.lower <= mx + 1e-8


def test_nuclearity_gap_solves_one_sdp(monkeypatch):
    # the min-norm bracket solves one SDP, the one behind the max norm
    calls = []
    solve = conic.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(conic, "solve", counting_solve)
    xs = random_matrix_tuple(make_generator(84), 3, 2)
    br = freetensor.min_norm(xs, restarts=2, seed=0)
    assert len(calls) == 1
    cert = dec_norm_linf(xs)
    assert len(calls) == 2
    assert cert.value == br.upper
    assert np.array_equal(cert.solver.y, br.certificate.solver.y)


def test_contraction_through_unital_cp_map():
    gen = make_generator(84)
    xs = random_matrix_tuple(gen, 3, 2)
    u = random_unital_cp_map(gen, 2)
    rep, = freetensor.check_finite_rank_contractions([(u, xs)])
    assert rep.ok
    assert rep.lhs <= rep.rhs + 1e-6 * max(1.0, rep.rhs)


def test_contraction_through_compression():
    # x -> a* x a with ||a|| <= 1 has dec norm ||a* a|| <= 1, so the
    # pushed-through tensor shrinks in max norm below the min-norm value.
    gen = make_generator(85)
    a = random_haar_unitary(gen, 2) * 0.8
    u = maps.kraus_map([a])
    xs = random_matrix_tuple(gen, 2, 2)
    rep, = freetensor.check_finite_rank_contractions([(u, xs)])
    assert rep.ok
    assert rep.dec_value == pytest.approx(0.64, abs=1e-6)


def test_contraction_domain_mismatch_raises():
    gen = make_generator(86)
    xs = random_matrix_tuple(gen, 2, 2)
    with pytest.raises(ValueError):
        freetensor.check_finite_rank_contractions([(random_unital_cp_map(gen, 3), xs)])


def test_common_unitary_rotation_preserves_norms():
    gen = make_generator(87)
    xs = random_matrix_tuple(gen, 3, 2)
    w = random_haar_unitary(gen, 2)
    v = random_haar_unitary(gen, 2)
    rotated = [w @ x @ v for x in xs]
    mx1 = dec_norm_linf(xs).value
    mx2 = dec_norm_linf(rotated).value
    assert mx1 == pytest.approx(mx2, abs=1e-6 * max(1.0, mx1))
    # min norm: conjugating coefficients is compensated by the tensor side
    br1 = freetensor.min_norm(xs, restarts=12, seed=14)
    br2 = freetensor.min_norm(rotated, restarts=12, seed=14)
    assert br1.upper == pytest.approx(br2.upper, abs=1e-6 * max(1.0, br1.upper))


def test_contraction_batch_matches_the_single_checks(monkeypatch):
    gen = make_generator(88)
    pairs = [(random_unital_cp_map(gen, 2), random_matrix_tuple(gen, 3, 2)) for _ in range(3)]
    batch = freetensor.check_finite_rank_contractions(pairs)
    assert batch == [freetensor.check_finite_rank_contractions([pair])[0] for pair in pairs]

    def no_solve(*args, **kwargs):
        raise AssertionError("a norm was computed before every pair was validated")

    monkeypatch.setattr(freetensor, "dec_norms", no_solve)
    with pytest.raises(ValueError, match="coefficient matrix algebra"):
        freetensor.check_finite_rank_contractions(
            pairs + [(random_unital_cp_map(gen, 3), pairs[0][1])])
