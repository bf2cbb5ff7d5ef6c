import random
from fractions import Fraction
from math import factorial, isqrt, log

import pytest

from logdop import calculus, engine, linalg, localdata
from logdop.cache import DiskCache
from logdop.calculus import q_level
from logdop.errors import InvariantViolation
from logdop.engine import (
    cmp_rational_logp,
    exponent_lower_bound,
    graded_piece_dim,
    h1_filtered,
    h1_order_vp,
    h1_tensor,
    kernel_index_vp,
    lattice_order_check,
    legendre_vp,
    level_descent_diagnostic,
    summand_count_check,
    verify_splitting,
)
from logdop.linalg import AbelianPGroup, CokernelSolver
from logdop.localdata import q_d_matrix
from logdop.verify import suite_lattice


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


@pytest.mark.parametrize("p, d_max", [(2, 60), (3, 60), (5, 40), (7, 30), (11, 20),
                                      (13, 18), (17, 12), (19, 10), (23, 8)])
def test_h1_tensor_matches_the_graded_profile(p, d_max):
    """An observation, not a theorem: on these 258 cells the degree-d group
    has #{exponents >= k} = h^1(P^1_{F_p}, O(2d - (d+1-k)(p+1)))
    = max(0, (d+1-k)(p+1) - 2d - 1) for k = 1..d+1, and no exponent above
    d+1, so the profile fixes the whole group.  k = 1 is the summand count
    (p-1)d - 1 and the largest k with a nonzero count is the exponent
    floor((p-1)(d+1)/(p+1))."""
    for d in range(1, d_max + 1):
        exps = h1_tensor(p, d).exponents
        assert max(exps, default=0) <= d + 1
        for k in range(1, d + 2):
            want = max(0, (d + 1 - k) * (p + 1) - 2 * d - 1)
            assert sum(e >= k for e in exps) == want, (p, d, k)



@pytest.mark.parametrize("p, d_max", [(2, 60), (3, 60), (5, 40), (7, 30), (11, 20),
                                      (13, 18), (17, 12), (19, 10), (23, 8)])
def test_h1_order_vp_is_the_order_of_the_computed_group(p, d_max):
    # v_p|Q_d| less the graded kernel index, as a DiskCache entry is held to
    for d in range(1, d_max + 1):
        assert h1_order_vp(p, d) == h1_tensor(p, d).order_vp, (p, d)


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


@pytest.mark.parametrize("forged, message", [
    (lambda index: 0, "kernel lattice is not full rank"),
    (lambda index: 2 * index, "kernel lattice index is not a power of p"),
], ids=["singular", "not-a-power"])
def test_kernel_index_refuses_a_forged_determinant(monkeypatch, forged, message):
    genuine = engine.det
    monkeypatch.setattr(engine, "det", lambda m: forged(genuine(m)))
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        kernel_index_vp(3, 2)


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


def test_h1_tensor_groups_are_values():
    # h1_tensor's memo hands out one shared instance per (p, d)
    g = h1_tensor(5, 2)
    assert g.exponents == (1, 1, 1, 1, 1, 1, 2)
    same = AbelianPGroup(5, (2, 1, 1, 1, 1, 1, 1))
    assert same.exponents == g.exponents
    assert same is not g and same == g and hash(same) == hash(g)
    assert g != AbelianPGroup(3, g.exponents) and g != AbelianPGroup(5, (1, 2))
    assert len({g, same, AbelianPGroup(3, g.exponents)}) == 2
    with pytest.raises(AttributeError):
        g.exponents = (1,)
    assert h1_tensor(5, 2).exponents == (1, 1, 1, 1, 1, 1, 2)


def test_group_fields_cannot_be_deleted():
    g = AbelianPGroup(3, (1, 2))
    with pytest.raises(AttributeError, match="cannot delete field 'p'"):
        del g.p
    assert g.p == 3


def test_order_checks_reuse_the_filtered_groups():
    # one lru entry per (p, d): the checks and a second report ask for the
    # groups h1_filtered holds
    h1_tensor.cache_clear()
    first = h1_filtered(3, 4)
    assert lattice_order_check(3, 4)
    assert summand_count_check(3, 4)
    h1_tensor(3, 4)
    assert h1_filtered(3, 4) == first
    assert h1_tensor.cache_info().currsize == 4


def test_the_lattice_suite_builds_each_local_data_matrix_once(monkeypatch):
    built = []

    def counting(p, d, **kw):
        built.append((p, d))
        return q_d_matrix(p, d, **kw)

    monkeypatch.setattr(engine, "q_d_matrix", counting)
    result = suite_lattice()
    assert (result.checks, result.passed) == (120, True)
    assert sorted(built) == [(p, d) for p in (2, 3, 5, 7, 11) for d in range(1, 9)]


def test_a_wrong_mod_p_rank_fails_every_summand_check(monkeypatch):
    genuine = engine.rank_mod_p
    monkeypatch.setattr(engine, "rank_mod_p", lambda m, p: genuine(m, p) + 1)
    result = suite_lattice()
    assert result.checks == 120
    assert result.failures == [f"summand count fails at (p={p}, d={d})"
                               for p in (2, 3, 5, 7, 11) for d in range(1, 9)]


def test_a_wrong_scale_in_the_kernel_lattice_fails_the_lattice_suite(monkeypatch):
    # S off by one at column 2d-1 of the C S map (low = 0 is kernel_lattice's
    # call; tensor_presentation's rows stay genuine): the lattice shrinks, its
    # index exponent grows, and check (a) or (b) must see it
    genuine = localdata._monic_columns

    def forged(p, d, low=0):
        columns = genuine(p, d, low)
        if low == 0:
            scale, e, coefs = columns[2 * d - 1]
            columns[2 * d - 1] = (scale * p, e, coefs)
        return columns

    localdata.kernel_lattice.cache_clear()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(localdata, "_monic_columns", forged)
            result = suite_lattice()
    finally:
        localdata.kernel_lattice.cache_clear()
    assert result.checks == 120 and result.failures
    assert all(f.startswith("lattice order identity fails at ") for f in result.failures)


def test_a_wrong_sign_in_the_kernel_lattice_fails_only_the_section_check(monkeypatch):
    # the A coordinates negated at odd d, as if C lost its (-1)^d: the index
    # is unchanged, so the order identity passes and the kernel section
    # check alone must see it
    genuine = engine.kernel_lattice

    def forged(p, d):
        rows = genuine(p, d)
        if d % 2 == 0:
            return rows
        return tuple(tuple(-x for x in row[:d]) + row[d:] for row in rows)

    monkeypatch.setattr(engine, "kernel_lattice", forged)
    result = suite_lattice()
    assert result.checks == 120 and result.failures
    assert all(f.startswith("kernel lattice has nonzero local data at ")
               for f in result.failures)


def test_a_disk_cache_passed_down_serves_its_groups(tmp_path, monkeypatch):
    cold = h1_filtered(3, 4, cache=DiskCache(tmp_path))
    assert len(list(tmp_path.iterdir())) == 4
    h1_tensor.cache_clear()

    def no_presentation(p, d):
        raise AssertionError(f"group (p={p}, d={d}) recomputed")

    monkeypatch.setattr(engine, "tensor_presentation", no_presentation)
    assert h1_filtered(3, 4, cache=DiskCache(tmp_path)) == cold
    # a group read from disk stays out of the in-process memo
    assert h1_tensor.cache_info().currsize == 0


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


def _cmp_by_powers(r, p, d):
    # the oracle: sign of p^a - d^b for r = a/b > 0
    if d == 1:
        return (r > 0) - (r < 0)
    if r <= 0:
        return -1
    lhs, rhs = p ** r.numerator, d ** r.denominator
    return (lhs > rhs) - (lhs < rhs)


def test_cmp_rational_logp_against_power_comparison():
    rng = random.Random(7)
    for _ in range(3000):
        p, d = rng.choice((2, 3, 4, 5, 7, 9, 11)), rng.randint(1, 300)
        b = rng.randint(1, 40)
        r = Fraction(rng.randint(-3, 9 * b), b)
        assert cmp_rational_logp(r, p, d) == _cmp_by_powers(r, p, d), (r, p, d)
    # exact values: log_p(d) integral, or 3/2 for log_4(8), and the
    # convergents of log_2(3) themselves, which r may equal
    for p in (2, 3, 4):
        for d in range(1, 300):
            for r in (Fraction(k, j) for k in range(12) for j in (1, 2, 3)):
                assert cmp_rational_logp(r, p, d) == _cmp_by_powers(r, p, d), (r, p, d)
    for r in (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(8, 5), Fraction(19, 12),
              Fraction(65, 41), Fraction(84, 53)):
        assert cmp_rational_logp(r, 2, 3) == _cmp_by_powers(r, 2, 3), r


def test_cmp_rational_logp_on_the_level_bounds():
    # the level diagnostic's r = coeff d - n - 2 and r - e, whose denominator
    # (p^2-1)(p-1)p^m makes d^b large; the oracle runs at levels it can afford
    for p in (2, 3, 5, 7):
        for m in range(3):
            coeff = Fraction(p * p - 3 * p, p * p - 1) + Fraction(1, (p - 1) * p ** m)
            for d in range(1, 25):
                for n in range(4):
                    for e in range(3):
                        r = coeff * d - n - 2 - e
                        assert cmp_rational_logp(r, p, d) == _cmp_by_powers(r, p, d)


def test_diagnostic_vp_transition_examples():
    def vp_transition(d, p, m):  # v_p(d!/q_d!) in the row of degree d
        return level_descent_diagnostic(p, m, d).rows[d - 1].vp_transition

    assert vp_transition(6, 3, 1) == 2  # v_3(6!) - v_3(2!) = 2 - 0
    # d = p^m: the q-part contributes nothing
    assert vp_transition(9, 3, 2) == legendre_vp(9, 3) == 4
    assert vp_transition(8, 2, 3) == legendre_vp(8, 2) == 7


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
        solver = CokernelSolver(*q_d_matrix(p, d), p)
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


def _exact_bound_row(p, m, row):
    # (bound, nonnegative, satisfied) from r_m with p^m built, as before the cap
    r = ((Fraction(p * p - 3 * p, p * p - 1) + Fraction(1, (p - 1) * p ** m)) * row.d
         - row.schedule_n - 2)
    nonneg = cmp_rational_logp(r, p, row.d) >= 0
    satisfied = not nonneg or cmp_rational_logp(r - row.scheduled_exponent, p, row.d) <= 0
    return float(r) - log(row.d, p), nonneg, satisfied


def _bound_rows(diag):
    return [(r.bound_value, r.bound_nonnegative, r.bound_satisfied) for r in diag.rows]


@pytest.mark.parametrize("p, d_max", [(2, 30), (3, 30), (5, 20), (7, 12), (11, 8)])
def test_diagnostic_past_the_level_cap_matches_the_exact_bound(p, d_max):
    # the cap k = 1100 + bitlen(d(p^2-1)) lies between 1101 and 1114 here:
    # levels on both sides of it give the float and flags of r_m itself
    for schedule in engine.SCHEDULES:
        for m in [*range(4), *range(1100, 1120, 3), 1150]:
            diag = level_descent_diagnostic(p, m, d_max, schedule)
            assert _bound_rows(diag) == [_exact_bound_row(p, m, r) for r in diag.rows], \
                (p, m, schedule)


def test_bound_sign_read_below_the_level_is_the_sign_at_the_level():
    # every k <= m, with r0 shifted by n so that all three ways out occur:
    # the sign at k, +1 off r0, and the comparison at p^m itself
    exact_needed = 0
    for p in (2, 3, 5, 7):
        slope = Fraction(p * p - 3 * p, p * p - 1)
        for d in range(1, 13):
            for n in range(-6, 4):
                r0 = slope * d - n - 2
                for x in range(3):
                    for m in range(7):
                        want = cmp_rational_logp(r0 - x + Fraction(d, (p - 1) * p ** m), p, d)
                        for k in range(m + 1):
                            assert engine._bound_sign(r0, x, p, d, m, k) == want, (p, d, n, x, m, k)
                            r_k = r0 + Fraction(d, (p - 1) * p ** k)
                            exact_needed += (k < m and cmp_rational_logp(r0 - x, p, d) < 0
                                             <= cmp_rational_logp(r_k - x, p, d))
    assert exact_needed


def test_diagnostic_flags_with_the_level_cap_at_zero(monkeypatch):
    # with no cap bits k = bitlen(d(p^2-1)), below m on most cells, so the
    # flags come from the shortcuts of _bound_sign at levels where the exact
    # reference is cheap
    monkeypatch.setattr(engine, "_LEVEL_CAP_BITS", 0)
    for p in (2, 3, 5, 7):
        for schedule in engine.SCHEDULES:
            for m in range(0, 40, 3):
                diag = level_descent_diagnostic(p, m, 40 if p < 5 else 16, schedule)
                assert ([r[1:] for r in _bound_rows(diag)]
                        == [_exact_bound_row(p, m, r)[1:] for r in diag.rows]), (p, m)


# ---------------------------------------------------------------------------
# argument checks: each refusal of a malformed argument, with its message
# ---------------------------------------------------------------------------

def _section(m=0):
    return calculus.TensorSection(3, 1, m, (0,), (0, 0))


def _unit_matrix():
    return linalg.IntegerMatrix.from_rows([[1]])


ARGUMENT_CHECKS = {
    "coeff-a-recurrence-t": (lambda: calculus.coeff_a_recurrence(1, 2),
                             "need 1 <= t <= s, got t=2, s=1"),
    "q-level-negative": (lambda: calculus.q_level(-1, 3, 0), "need d >= 0 and m >= 0"),
    "section-level": (lambda: _section(m=-1), "level m must be >= 0"),
    "section-degree": (lambda: calculus.TensorSection(3, 0, 0, (), (0,)),
                       "degree d must be >= 1"),
    "section-coordinates": (lambda: calculus.TensorSection.from_coordinates(3, 1, 0, [0, 0]),
                            "need 2d+1 = 3 coordinates"),
    "section-plus": (lambda: _section().plus(_section(m=1)),
                     "sections live in different spaces"),
    "section-float": (lambda: calculus.TensorSection(3, 1, 0, (2.5,), (0.9, True)),
                      "coefficient 2.5 is not an integer"),
    "section-string": (lambda: calculus.TensorSection(3, 1, 0, ("12",), (0, 0)),
                       "coefficient '12' is not an integer"),
    "operator-degree": (lambda: calculus.OperatorSection(3, 0, -1),
                        "degree bound must be >= 0"),
    "operator-chart": (lambda: calculus.OperatorSection(3, 0, 1, {("z", 0, 0): 1}),
                       "unknown chart 'z'"),
    "operator-order": (lambda: calculus.OperatorSection(3, 0, 1, {("x", 0, 3): 1}),
                       "order 3 outside 0..1"),
    "operator-power": (lambda: calculus.OperatorSection(3, 0, 1, {("x", -1, 0): 1}),
                       "power -1 must be >= 0"),
    "operator-float": (lambda: calculus.OperatorSection(3, 0, 1, {("x", 0, 1): 1.7}),
                       "coefficient 1.7 is not an integer"),
    "operator-plus": (lambda: calculus.OperatorSection(3, 0, 1).plus(
                          calculus.OperatorSection(3, 1, 1)),
                      "operators live over different (p, m)"),
    "transform-chart": (lambda: calculus.transform_term("z", 0, 0, 3, 0),
                        "unknown chart 'z'"),
    "symbol-degree": (lambda: calculus.symbol(calculus.OperatorSection(3, 0, 2), 1),
                      "operator has degree bound 2 > 1"),
    "symbol-y-power": (lambda: calculus.symbol(
                           calculus.OperatorSection(3, 0, 1, {("y", 1, 1): 1}), 1),
                       "order-1 term y^1 d_y^1 has no tensor counterpart"),
    "symbol-x-power": (lambda: calculus.symbol(
                           calculus.OperatorSection(3, 0, 1, {("x", 2, 1): 1}), 1),
                       "order-1 term x^2 d_x^1 has no tensor counterpart"),
    "legendre-negative": (lambda: legendre_vp(-1, 3), "need n >= 0"),
    "logp-degree": (lambda: cmp_rational_logp(Fraction(1), 3, 0), "need d >= 1"),
    "bound-degree": (lambda: exponent_lower_bound(3, 0), "need d >= 1"),
    "diagnostic-level": (lambda: level_descent_diagnostic(3, -1, 2),
                         "need m >= 0 and d_max >= 1"),
    "diagnostic-dmax": (lambda: level_descent_diagnostic(3, 1, 0),
                        "need m >= 0 and d_max >= 1"),
    "ragged-rows": (lambda: linalg.IntegerMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
    "group-exponent": (lambda: AbelianPGroup(3, (0, 1)),
                       "invariant exponents must be >= 1"),
    "moduli-exponent": (lambda: linalg.cokernel_invariants(_unit_matrix(), (0,), 3),
                        "moduli exponents must be >= 1"),
    "solve-length": (lambda: linalg.CokernelSolver(_unit_matrix(), (1,), 3).solve([0, 0]),
                     "vector has 2 coordinates, expected 1"),
    "point-lift-count": (lambda: localdata.PointLift(3, (0, 1)), "need 3 lifts, got 2"),
    "point-lift-float": (lambda: localdata.PointLift(3, (0.0, 1.2, 2)),
                         "lift 0.0 is not an integer"),
    "kernel-lattice-prime": (lambda: localdata.kernel_lattice(4, 2), "p = 4 is not prime"),
    "kernel-lattice-degree": (lambda: localdata.kernel_lattice(3, 0), "need d >= 1"),
    "operator-matrix-prime": (lambda: localdata.operator_matrix(4, 2), "p = 4 is not prime"),
    "operator-matrix-level": (lambda: localdata.operator_matrix(3, 2, -1),
                              "level m must be >= 0"),
    "operator-matrix-degree": (lambda: localdata.operator_matrix(3, -1),
                               "degree bound must be >= 0"),
    # a float p equal to a prime: refused at the one primality gate, not
    # carried into a result or stopped by a TypeError further down
    "prime-float": (lambda: linalg.require_prime(3.0), "p = 3.0 is not an integer"),
    "group-float-p": (lambda: AbelianPGroup(3.0, (1,)), "p = 3.0 is not an integer"),
    "section-float-p": (lambda: calculus.TensorSection(3.0, 1, 0, (1,), (1, 2)),
                        "p = 3.0 is not an integer"),
    "q-d-matrix-float-p": (lambda: q_d_matrix(3.0, 2), "p = 3.0 is not an integer"),
    "operator-float-power": (lambda: calculus.OperatorSection(3, 0, 2, {("x", 1.5, 2): 1}),
                             "power 1.5 is not an integer"),
    "operator-bool-power": (lambda: calculus.OperatorSection(3, 0, 2, {("x", True, 2): 1}),
                            "power True is not an integer"),
    "operator-float-order": (lambda: calculus.OperatorSection(3, 0, 1, {("y", 0, 1.0): 1}),
                             "order 1.0 is not an integer"),
}


@pytest.mark.parametrize("call, message", ARGUMENT_CHECKS.values(), ids=ARGUMENT_CHECKS)
def test_argument_checks_refuse_with_their_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
