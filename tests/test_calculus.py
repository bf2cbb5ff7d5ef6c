import random
from math import comb, factorial

import pytest

from logdop import calculus
from logdop.calculus import (
    CHART_X,
    CHART_Y,
    OperatorSection,
    TensorSection,
    coeff_a,
    coeff_a_level,
    coeff_a_recurrence,
    is_global_section,
    operator_to_laurent,
    q_level,
    standard_operator_basis,
    symbol,
    tensor_to_operator,
    transform_term,
)
from logdop.errors import InvariantViolation
from logdop.lifting import lift_by_schedule, lift_by_solve, sample_kernel_section


# ---------------------------------------------------------------------------
# transformation coefficients
# ---------------------------------------------------------------------------

def test_coeff_a_anchors():
    for s in (1, 2, 5, 9):
        assert coeff_a(s, s) == 1
        assert coeff_a(s, 1) == factorial(s)
    assert coeff_a(3, 1) == 6
    assert coeff_a(4, 2) == 36  # a_{4,2} = a_{3,1} + 5*a_{3,2} = 6 + 30


def test_coeff_a_out_of_range():
    with pytest.raises(ValueError):
        coeff_a(3, 0)
    with pytest.raises(ValueError):
        coeff_a(3, 4)


def test_coeff_a_closed_form_equals_recurrence():
    for s in range(1, 61):
        for t in range(1, s + 1):
            assert coeff_a(s, t) == coeff_a_recurrence(s, t)


def test_involution_identity():
    # transforming y -> x -> y is the identity on d_y^s, combinatorially:
    # sum_t (-1)^t a_{s,t} a_{t,u} = (-1)^s if u == s else 0
    for s in range(1, 31):
        for u in range(1, s + 1):
            total = sum((-1) ** t * coeff_a(s, t) * coeff_a(t, u)
                        for t in range(u, s + 1))
            assert total == ((-1) ** s if u == s else 0)


def test_involution_identity_level_m():
    for p in (2, 3, 5):
        for m in (1, 2):
            for s in range(1, 16):
                for u in range(1, s + 1):
                    total = sum((-1) ** t * coeff_a_level(s, t, p, m)
                                * coeff_a_level(t, u, p, m)
                                for t in range(u, s + 1))
                    assert total == ((-1) ** s if u == s else 0)


def test_q_level():
    assert q_level(7, 3, 1) == 2
    assert q_level(8, 2, 3) == 1
    for d in range(10):
        assert q_level(d, 5, 0) == d
    # the early 0 for m >= d.bit_length() agrees with d // p^m everywhere
    for p in (2, 3, 5, 7):
        for m in range(12):
            for d in range(0, 2 ** 11 + 3):
                assert q_level(d, p, m) == d // p ** m, (d, p, m)


def test_coeff_a_level_anchors():
    for p, m in ((2, 1), (3, 2)):
        for s in (1, 3, 7):
            assert coeff_a_level(s, s, p, m) == 1
            assert coeff_a_level(s, 1, p, m) == factorial(q_level(s, p, m))
    assert coeff_a_level(4, 2, 2, 1) == comb(3, 1) * 2  # C(3,1) * 2!/1!


def test_coeff_a_level_matches_level_zero():
    for p in (2, 3, 5, 7):
        for s in range(1, 25):
            for t in range(1, s + 1):
                assert coeff_a_level(s, t, p, 0) == coeff_a(s, t)


def test_coeff_a_level_integrality_sweep():
    # each row is checked against the rational form when built, and read back
    # here against the closed form
    for p in (2, 3, 5, 7):
        for m in (0, 1, 2, 3):
            for s in range(1, 41):
                qs = factorial(q_level(s, p, m))
                for t in range(1, s + 1):
                    closed = comb(s - 1, t - 1) * qs // factorial(q_level(t, p, m))
                    assert coeff_a_level(s, t, p, m) == closed


def test_coeff_a_level_out_of_range():
    for t in (0, 4):
        with pytest.raises(ValueError):
            coeff_a_level(3, t, 2, 1)


def test_level_row_check_still_fails_on_a_forged_formula(monkeypatch):
    calculus._level_row.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(calculus, "comb", lambda n, k: comb(n, k) + 1)
            with pytest.raises(InvariantViolation):
                coeff_a_level(4, 2, 3, 0)
            with pytest.raises(InvariantViolation):
                transform_term(CHART_Y, 0, 4, 3, 0)
    finally:
        # a forged row that happens to pass the check must not outlive the test
        calculus._level_row.cache_clear()
    assert coeff_a_level(4, 2, 3, 0) == coeff_a(4, 2)


def test_a_lift_builds_each_row_once():
    delta = sample_kernel_section(5, 6, seed=2)
    calculus._level_row.cache_clear()
    lift_by_solve(delta)
    lift_by_schedule(delta)
    built = calculus._level_row.cache_info()
    assert built.misses == built.currsize > 0
    lift_by_solve(delta)
    lift_by_schedule(delta)
    again = calculus._level_row.cache_info()
    assert again.misses == built.misses and again.hits > built.hits


# ---------------------------------------------------------------------------
# chart transforms of single terms
# ---------------------------------------------------------------------------

def test_transform_d_y_once():
    out = transform_term(CHART_Y, 0, 1, 5, 0)
    assert out == {(2, 1): -1}  # d_y = -x^2 d_x


def test_transform_order_zero():
    out = transform_term(CHART_Y, 0, 0, 5, 0, coeff=7)
    assert out == {(0, 0): 7}
    out = transform_term(CHART_X, 2, 0, 5, 0, coeff=1)
    assert out == {(-2, 0): 1}


def test_transform_x_del_x():
    out = transform_term(CHART_X, 1, 1, 3, 0)
    assert out == {(1, 1): -1}  # x d_x = -y d_y


def test_transform_involution_on_single_terms():
    for p, m in ((2, 0), (3, 1), (5, 2)):
        for k in range(0, 12):
            for i in range(0, k + 2):
                once = transform_term(CHART_Y, i, k, p, m)
                back = {}
                for (ii, kk), c in once.items():
                    again = transform_term(CHART_X, ii, kk, p, m, c)
                    for key, cc in again.items():
                        back[key] = back.get(key, 0) + cc
                assert {key: c for key, c in back.items() if c} == {(i, k): 1}


def test_transform_term_is_a_dict_with_no_zero_coefficient():
    for chart in (CHART_X, CHART_Y):
        for k in (0, 1, 4):
            assert transform_term(chart, 2, k, 5, 1, coeff=0) == {}
        for i, c in ((0, 3), (2, -5), (7, 1)):
            assert transform_term(chart, i, 0, 5, 1, coeff=c) == {(-i, 0): c}


# ---------------------------------------------------------------------------
# sections and globality
# ---------------------------------------------------------------------------

def test_zero_operator_is_global():
    assert is_global_section(OperatorSection(3, 0, 2))


def test_y_power_operators_globality():
    # y^s d_y^d is global for s <= d-1 (in fact for s <= d+1); y^{d+2} d_y^d is
    # not: the t=1 transform lands on x-power d+1-(d+2) = -1
    d = 4
    for s in range(d):
        op = OperatorSection(3, 0, d, {(CHART_Y, s, d): 1})
        assert is_global_section(op)
    bad = OperatorSection(3, 0, d, {(CHART_Y, d + 2, d): 1})
    assert not is_global_section(bad)


def test_tensor_to_operator_and_symbol_round_trip():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for d in range(1, 5):
            for _ in range(10):
                delta = TensorSection(
                    p, d, 0,
                    tuple(rng.randint(-9, 9) for _ in range(d)),
                    tuple(rng.randint(-9, 9) for _ in range(d + 1)))
                op = tensor_to_operator(delta)
                assert is_global_section(op)
                assert symbol(op, d) == delta


def test_tensor_to_operator_zero_and_single():
    assert not tensor_to_operator(TensorSection(3, 2, 0, (0, 0), (0, 0, 0))).terms
    delta = TensorSection(3, 2, 0, (1, 0), (0, 0, 0))
    op = tensor_to_operator(delta)
    assert op.terms == {(CHART_Y, 0, 2): 1}


def test_symbol_drops_lower_order_and_projects():
    op = OperatorSection(5, 0, 2, {(CHART_X, 2, 2): 5, (CHART_X, 0, 1): 7})
    s = symbol(op, 2)
    assert s.B == (0, 0, 5) and s.A == (0, 0)
    low = OperatorSection(5, 0, 2, {(CHART_X, 0, 1): 7})
    assert symbol(low, 2).is_zero


def test_operator_algebra():
    a = OperatorSection(3, 0, 2, {(CHART_X, 1, 1): 2})
    b = OperatorSection(3, 0, 2, {(CHART_X, 1, 1): -2, (CHART_Y, 0, 2): 1})
    s = a.plus(b)
    assert s.terms == {(CHART_Y, 0, 2): 1}
    assert not a.minus(a).terms


def test_standard_operator_basis_counts_and_globality():
    for p, d in ((2, 1), (3, 3), (5, 4)):
        ops = standard_operator_basis(p, d)
        assert len(ops) == (d + 1) ** 2
        assert all(is_global_section(op) for op in ops)
        low = standard_operator_basis(p, d - 1)
        assert len(low) == d ** 2


def test_standard_operator_basis_symbols_are_the_unit_vectors():
    # each order-k member is one monomial whose degree-k symbol is a unit
    # vector, and the order-k members hit each of the 2k+1 unit vectors once,
    # so the basis of verify_splitting spans every symbol lattice
    for p in (2, 3, 5):
        for d in range(1, 7):
            for m in range(4):
                ops = standard_operator_basis(p, d, m)
                assert ops[0].terms == {(CHART_X, 0, 0): 1}
                for k in range(1, d + 1):
                    symbols = sorted(
                        symbol(OperatorSection(p, m, k, op.terms), k).coordinates()
                        for op in ops if max(kk for _, _, kk in op.terms) == k)
                    units = [[int(i == j) for i in range(2 * k + 1)]
                             for j in range(2 * k + 1)]
                    assert symbols == sorted(units), (p, d, m, k)
                assert len(ops) == (d + 1) ** 2


def test_operator_to_laurent_aggregates_cancellation():
    # x d_x + y d_y = 0 as a global operator identity
    op = OperatorSection(3, 0, 1, {(CHART_X, 1, 1): 1, (CHART_Y, 1, 1): 1})
    agg = operator_to_laurent(op, CHART_Y)
    assert agg == {}
