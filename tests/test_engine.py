from fractions import Fraction
from math import factorial, isqrt

import pytest

from logdop.calculus import q_level
from logdop.engine import (
    cmp_rational_logp,
    degree_solver,
    exponent_lower_bound,
    graded_piece_dim,
    h1_filtered,
    h1_tensor,
    kernel_index_vp,
    lattice_order_check,
    legendre_vp,
    level_descent_diagnostic,
    summand_count_check,
    verify_splitting,
    vp_factorial_quotient,
)
from logdop.linalg import AbelianPGroup


def group(p, pairs):
    exps = []
    for mult, n in pairs:
        exps.extend([n] * mult)
    return AbelianPGroup(p, tuple(exps))


# ---------------------------------------------------------------------------
# per-degree groups against the reference tables
# ---------------------------------------------------------------------------

def test_h1_tensor_reference_anchors():
    assert h1_tensor(2, 1).is_trivial
    assert h1_tensor(2, 2) == group(2, [(1, 1)])
    assert h1_tensor(5, 2) == group(5, [(6, 1), (1, 2)])


def test_h1_filtered_reference_rows():
    assert h1_filtered(3, 2).total == group(3, [(4, 1)])
    assert h1_filtered(7, 3).total == group(7, [(21, 1), (11, 2), (1, 3)])
    assert h1_filtered(11, 5).total == group(
        11, [(57, 1), (43, 2), (29, 3), (15, 4), (1, 5)])


def test_h1_filtered_total_is_degree_union():
    rep = h1_filtered(3, 4)
    merged = []
    for g in rep.per_degree:
        merged.extend(g.exponents)
    assert tuple(sorted(merged)) == rep.total.exponents


def test_h1_level_independence():
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            base = h1_tensor(p, d, 0)
            for m in (1, 2, 3):
                assert h1_tensor(p, d, m) == base


def test_h1_finiteness_witness():
    # every degree summand is a finite p-group: a finite exponent multiset
    for p, d in ((2, 5), (3, 4), (5, 3)):
        g = h1_tensor(p, d)
        assert all(isinstance(n, int) and 1 <= n <= d for n in g.exponents)


def test_h1_rejects_bad_arguments():
    with pytest.raises(ValueError):
        h1_tensor(4, 2)
    with pytest.raises(ValueError):
        h1_tensor(3, 0)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_verify_splitting_trivial_and_small():
    assert verify_splitting(2, 1)
    assert verify_splitting(2, 3)  # both sides (Z/2)^3
    assert verify_splitting(3, 4)  # 12 x 3 + 4 x 3^2


# ---------------------------------------------------------------------------
# exponent bound and graded dimensions
# ---------------------------------------------------------------------------

def test_exponent_lower_bound_values():
    assert exponent_lower_bound(3, 3) == 2
    assert exponent_lower_bound(7, 3) == 3
    assert exponent_lower_bound(2, 1) == 0


def test_graded_piece_dim_values():
    assert graded_piece_dim(3, 2, 1) == 1
    assert graded_piece_dim(3, 2, 2) == 0
    assert graded_piece_dim(2, 3, 1) == 4
    with pytest.raises(ValueError):
        graded_piece_dim(3, 2, 0)


def test_exponent_bound_met_with_equality_on_small_range():
    for p in (2, 3, 5):
        for d in range(1, 5):
            e = exponent_lower_bound(p, d)
            assert h1_tensor(p, d).max_exponent >= e
            assert h1_tensor(p, d).max_exponent == e  # observed on table rows


# ---------------------------------------------------------------------------
# order bookkeeping
# ---------------------------------------------------------------------------

def test_lattice_order_check_anchors():
    # (2,1): index exponent 3, trivial group, 3 = (p+1)d(d+1)/2
    assert kernel_index_vp(2, 1) == 3
    assert lattice_order_check(2, 1)
    # (3,1): index exponent 3 plus one Z/3 factor = 4
    assert kernel_index_vp(3, 1) == 3
    assert lattice_order_check(3, 1)
    # (5,1): index exponent 3, group (Z/5)^3, total 6
    assert kernel_index_vp(5, 1) == 3
    assert h1_tensor(5, 1).order_vp == 3
    assert lattice_order_check(5, 1)


def test_summand_count_anchors():
    assert h1_tensor(3, 1).num_factors == 1
    assert summand_count_check(3, 1)
    assert h1_tensor(2, 1).num_factors == 0
    assert summand_count_check(2, 1)
    # new summands at (5,3): 6 x 5 + 5 x 5^2, eleven in all
    assert h1_tensor(5, 3).num_factors == 11
    assert summand_count_check(5, 3)


def test_order_checks_small_sweep():
    for p in (2, 3, 5):
        for d in range(1, 5):
            assert lattice_order_check(p, d)
            assert summand_count_check(p, d)


def test_order_checks_reuse_the_filtered_groups():
    # one lru entry per (p, d, m): the checks ask for the groups h1_filtered holds
    h1_tensor.cache_clear()
    h1_filtered(3, 4, 0)
    assert lattice_order_check(3, 4)
    assert summand_count_check(3, 4)
    assert h1_tensor.cache_info().currsize == 4


# ---------------------------------------------------------------------------
# valuations and the level diagnostic
# ---------------------------------------------------------------------------

def test_legendre_vp():
    assert legendre_vp(9, 3) == 4
    assert legendre_vp(6, 3) == 2
    assert legendre_vp(2, 3) == 0
    assert legendre_vp(100, 2) == 97


def test_cmp_rational_logp():
    assert cmp_rational_logp(Fraction(0), 3, 1) == 0
    assert cmp_rational_logp(Fraction(-1), 3, 5) == -1
    assert cmp_rational_logp(Fraction(2), 3, 9) == 0   # log_3 9 = 2
    assert cmp_rational_logp(Fraction(3), 3, 9) == 1
    assert cmp_rational_logp(Fraction(3, 2), 2, 3) == -1  # 2^1.5 < 3
    assert cmp_rational_logp(Fraction(8, 5), 2, 3) == 1   # 2^1.6 > 3


def test_vp_factorial_quotient_examples():
    r = vp_factorial_quotient(6, 3, 1)
    assert r.exact == 2  # v_3(6!) - v_3(2!) = 2 - 0
    assert r.within_bound and abs(r.bound_value - 4.6309) < 1e-3
    # d = p^m: the q-part contributes nothing
    r = vp_factorial_quotient(9, 3, 2)
    assert r.exact == legendre_vp(9, 3)
    r = vp_factorial_quotient(8, 2, 3)
    assert r.exact == legendre_vp(8, 2) - 0


def test_diagnostic_zero_schedule_level_zero_identity():
    diag = level_descent_diagnostic(5, 0, 6, "zero")
    for row in diag.rows:
        assert row.scheduled_exponent == row.max_exponent
        assert row.pushed_exponent == row.max_exponent
        assert row.vp_transition == 0


def test_diagnostic_damping_by_group_exponent():
    # n_d >= group exponent kills the scheduled class outright
    diag = level_descent_diagnostic(3, 1, 12, "sqrt")
    for row in diag.rows:
        if row.schedule_n + row.vp_transition >= row.max_exponent:
            assert row.scheduled_exponent == 0


def test_diagnostic_growth_trend_p3_m1():
    diag = level_descent_diagnostic(3, 1, 9, "sqrt")
    exps = diag.pushed_exponents()
    assert exps == [1, 1, 1, 1, 2, 1, 2, 2, 2]
    assert exps[-1] > exps[0]
    assert diag.grew


def test_diagnostic_p2_reported_without_assertion():
    diag = level_descent_diagnostic(2, 1, 6, "sqrt")
    assert "p = 2" in diag.trend_note()
    assert len(diag.rows) == 6


def test_diagnostic_rejects_bad_inputs():
    with pytest.raises(ValueError):
        level_descent_diagnostic(4, 1, 3, "sqrt")
    with pytest.raises(ValueError):
        level_descent_diagnostic(3, 1, 3, "cubic")


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (5, 1), (5, 2), (2, 2)])
def test_diagnostic_orders_against_tracked_solver(p, m):
    # independent oracle: element orders read through the tracked U of the
    # degree-d solver, for the target basis vectors and their scaled images;
    # at p = 2, m = 2 v_p(d!/q_d!) outruns the group exponent, so the pushed
    # clamp at 0 is exercised as well as the scheduled one
    diag = level_descent_diagnostic(p, m, 12, "sqrt")
    for row in diag.rows:
        d = row.d
        solver = degree_solver(p, d, 0)
        size = len(solver.moduli)
        basis = [[int(i == j) for i in range(size)] for j in range(size)]
        orders = [solver.element_order_exponent(e) for e in basis]
        assert max(orders) == row.max_exponent
        e = basis[orders.index(row.max_exponent)]
        lam = factorial(d) // factorial(q_level(d, p, m))
        assert solver.element_order_exponent([lam * x for x in e]) == row.pushed_exponent
        damped = [lam * p ** row.schedule_n * x for x in e]
        assert solver.element_order_exponent(damped) == row.scheduled_exponent


def test_diagnostic_schedule_values():
    diag = level_descent_diagnostic(3, 1, 10, "sqrt")
    assert [r.schedule_n for r in diag.rows] == [isqrt(d) for d in range(1, 11)]
