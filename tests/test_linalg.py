import random
from itertools import product

import pytest

from logdop.linalg import (
    AbelianPGroup,
    CokernelSolver,
    IntegerMatrix,
    cokernel_invariants,
    cyclic_quotient_dominates,
    det,
    dominates,
    is_prime,
    mat_mul,
    quotient_by_cyclic,
    rank_mod_p,
    smith_normal_form,
    vp,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def quotient_invariants_by_counting(p, exponents, a):
    """Invariant exponents of ((+) Z/p^{n_j}) / <a> by torsion counting.

    Counts |{x : p^k x in <a>}| coordinatewise (number of solutions of
    p^k x = s in Z/p^n is p^min(k,n) when p^min(k,n) | s, else 0) and reads
    the invariant multiset off the torsion filtration.  No normal forms.
    """
    r = len(exponents)
    mods = [p ** n for n in exponents]
    a = [ai % m for ai, m in zip(a, mods)]
    ord_exp = 0
    for ai, n in zip(a, exponents):
        if ai:
            ord_exp = max(ord_exp, n - vp(ai, p))
    ord_a = p ** ord_exp
    subgroup = [tuple((lam * ai) % m for ai, m in zip(a, mods)) for lam in range(ord_a)]
    n_max = max(exponents) if exponents else 0
    torsion_vp = []
    for k in range(n_max + 1):
        caps = [p ** min(k, n) for n in exponents]
        total = 0
        for s in subgroup:
            count = 1
            for sj, cap in zip(s, caps):
                if sj % cap:
                    count = 0
                    break
                count *= cap
            total += count
        torsion_vp.append(vp(total, p) - ord_exp if total else 0)
    ge_counts = [torsion_vp[k] - torsion_vp[k - 1] for k in range(1, n_max + 1)]
    out = []
    for k in range(1, n_max + 1):
        mult = ge_counts[k - 1] - (ge_counts[k] if k < n_max else 0)
        out.extend([k] * mult)
    return tuple(sorted(out))


def brute_order_in_cokernel(m_rows, exponents, p, c):
    """Least j with p^j c in im(M) + moduli lattice, by full image enumeration.

    Only usable when p^(max_exp * cols) is small; the image set is built by
    running over all generator combinations modulo the lattice.
    """
    mods = [p ** n for n in exponents]
    cols = len(m_rows[0]) if m_rows and m_rows[0] is not None else 0
    period = p ** max(exponents)
    image = set()
    for combo in product(range(period), repeat=cols):
        vec = tuple(
            sum(row[k] * combo[k] for k in range(cols)) % m
            for row, m in zip(m_rows, mods)
        )
        image.add(vec)
    j = 0
    while True:
        target = tuple((c_i * p ** j) % m for c_i, m in zip(c, mods))
        if target in image:
            return j
        j += 1


def assert_snf_contract(m):
    d, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i, i] for i in range(min(m.rows, m.cols))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


# ---------------------------------------------------------------------------
# smith normal form
# ---------------------------------------------------------------------------

def test_snf_identity():
    m = IntegerMatrix.identity(2)
    d, u, v = smith_normal_form(m)
    assert d == m and u == m and v == m


def test_snf_frozen_example():
    # d_1 = gcd of entries = 2, d_1*d_2 = |det| = 8
    m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    diag = assert_snf_contract(m)
    assert diag == [2, 4]


def test_snf_zero_matrix():
    m = IntegerMatrix.from_rows([[0]])
    d, u, v = smith_normal_form(m)
    assert d.entries == [0]
    assert u.entries == [1] and v.entries == [1]


def test_snf_random_round_trip():
    rng = random.Random(20240)
    for p in (2, 3, 5):
        bound = p ** 6
        for _ in range(60):
            r = rng.randint(1, 6)
            c = rng.randint(1, 6)
            m = IntegerMatrix(r, c, [rng.randint(-bound, bound) for _ in range(r * c)])
            assert_snf_contract(m)


def test_snf_matches_sympy_invariants():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(7)
    for _ in range(25):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        ours = IntegerMatrix(r, c, [rng.randint(-50, 50) for _ in range(r * c)])
        diag = assert_snf_contract(ours)
        ref = sympy_snf(sympy.Matrix(ours.row_lists()), domain=sympy.ZZ)
        ref_diag = sorted(abs(int(ref[i, i])) for i in range(min(r, c)))
        assert sorted(diag) == ref_diag


# ---------------------------------------------------------------------------
# cokernels over mixed moduli
# ---------------------------------------------------------------------------

def test_cokernel_zero_map():
    m = IntegerMatrix.from_rows([[0]])
    g = cokernel_invariants(m, (2,), 3)
    assert g == AbelianPGroup(3, (2,))


def test_cokernel_surjective_map():
    m = IntegerMatrix.from_rows([[1]])
    assert cokernel_invariants(m, (2,), 3).is_trivial


def test_cokernel_dimension_mismatch():
    m = IntegerMatrix.from_rows([[1], [0]])
    with pytest.raises(ValueError):
        cokernel_invariants(m, (1,), 2)


def test_cokernel_order_identity_randoms():
    # |coker| * |Z^cols / kernel lattice| = p^(sum of moduli), for any M
    rng = random.Random(91)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        rows_n = rng.randint(1, 4)
        cols_n = rng.randint(1, 4)
        moduli = tuple(rng.randint(1, 3) for _ in range(rows_n))
        m = IntegerMatrix(rows_n, cols_n,
                          [rng.randint(-p ** 3, p ** 3) for _ in range(rows_n * cols_n)])
        coker = cokernel_invariants(m, moduli, p)
        basis = CokernelSolver(m, moduli, p).kernel_basis()
        assert len(basis) == cols_n
        index = abs(det(IntegerMatrix.from_rows(basis)))
        assert index * 1 == p ** (sum(moduli) - coker.order_vp)


def test_kernel_lattice_zero_map():
    m = IntegerMatrix.zero(1, 3)
    basis = CokernelSolver(m, (2,), 5).kernel_basis()
    assert abs(det(IntegerMatrix.from_rows(basis))) == 1


def test_kernel_lattice_identity():
    m = IntegerMatrix.from_rows([[1]])
    basis = CokernelSolver(m, (1,), 2).kernel_basis()
    assert abs(det(IntegerMatrix.from_rows(basis))) == 2
    v = basis[0]
    assert v[0] % 2 == 0


def test_kernel_vectors_are_in_kernel():
    rng = random.Random(5150)
    for _ in range(20):
        p = rng.choice((2, 3))
        rows_n = rng.randint(1, 3)
        cols_n = rng.randint(1, 4)
        moduli = tuple(rng.randint(1, 3) for _ in range(rows_n))
        rows = [[rng.randint(-20, 20) for _ in range(cols_n)] for _ in range(rows_n)]
        m = IntegerMatrix.from_rows(rows)
        for v in CokernelSolver(m, moduli, p).kernel_basis():
            for row, e in zip(rows, moduli):
                assert sum(a * b for a, b in zip(row, v)) % p ** e == 0


# ---------------------------------------------------------------------------
# element orders
# ---------------------------------------------------------------------------

def test_element_order_trivial_cases():
    m = IntegerMatrix.zero(1, 1)
    solver = CokernelSolver(m, (3,), 5)
    assert solver.element_order_exponent([0]) == 0
    assert solver.element_order_exponent([1]) == 3
    assert solver.element_order_exponent([25]) == 1


def test_element_order_against_brute_force():
    rng = random.Random(77)
    for _ in range(30):
        p = rng.choice((2, 3))
        rows_n = rng.randint(1, 3)
        cols_n = rng.randint(0, 2)
        moduli = tuple(rng.randint(1, 2) for _ in range(rows_n))
        rows = [[rng.randint(-6, 6) for _ in range(cols_n)] for _ in range(rows_n)]
        m = IntegerMatrix(rows_n, cols_n, [x for row in rows for x in row])
        c = [rng.randint(0, p ** e - 1) for e in moduli]
        got = CokernelSolver(m, moduli, p).element_order_exponent(c)
        want = brute_order_in_cokernel(rows, moduli, p, c)
        assert got == want


def test_solver_solve_round_trip():
    rng = random.Random(31)
    for _ in range(25):
        p = rng.choice((2, 3))
        rows_n = rng.randint(1, 4)
        cols_n = rng.randint(1, 4)
        moduli = tuple(rng.randint(1, 3) for _ in range(rows_n))
        rows = [[rng.randint(-9, 9) for _ in range(cols_n)] for _ in range(rows_n)]
        m = IntegerMatrix.from_rows(rows)
        solver = CokernelSolver(m, moduli, p)
        # rhs taken from the image is always solvable
        x = [rng.randint(-4, 4) for _ in range(cols_n)]
        b = [sum(r[k] * x[k] for k in range(cols_n)) for r in rows]
        v = solver.solve(b)
        assert v is not None
        for row, e, bi in zip(rows, moduli, b):
            assert (sum(a * t for a, t in zip(row, v)) - bi) % p ** e == 0


# ---------------------------------------------------------------------------
# cyclic quotients (the A/<a> oracle)
# ---------------------------------------------------------------------------

def test_quotient_by_cyclic_generator_of_cyclic():
    g = AbelianPGroup(5, (1,))
    assert quotient_by_cyclic(g, [1]).is_trivial


def test_quotient_by_cyclic_trivial_element():
    g = AbelianPGroup(3, (1, 1))
    assert quotient_by_cyclic(g, [0, 0]) == g


def test_quotient_by_cyclic_frozen_example():
    # (Z/4 + Z/8)/<(2,4)> has order 16; counting oracle fixes the structure
    g = AbelianPGroup(2, (2, 3))
    q = quotient_by_cyclic(g, [2, 4])
    assert q.exponents == quotient_invariants_by_counting(2, (2, 3), (2, 4))
    assert q.order_vp == 4


def test_quotient_by_cyclic_coordinate_mismatch():
    with pytest.raises(ValueError):
        quotient_by_cyclic(AbelianPGroup(2, (1, 1)), [1])


@pytest.mark.parametrize("p", [2, 3])
def test_cyclic_quotient_exhaustive_small(p):
    # all groups with <= 3 factors, exponents <= 2: full element sweep against
    # the counting oracle plus the one-factor-drop domination postcondition
    shapes = [()]
    for r in range(1, 4):
        shapes.extend(
            tuple(sorted(c)) for c in product((1, 2), repeat=r)
        )
    for shape in sorted(set(shapes)):
        group = AbelianPGroup(p, shape)
        mods = [p ** n for n in shape]
        for a in product(*[range(m) for m in mods]):
            q = quotient_by_cyclic(group, list(a))
            assert q.exponents == quotient_invariants_by_counting(p, shape, a)
            assert cyclic_quotient_dominates(group, list(a))


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def test_dominates():
    assert dominates([3, 1], [2])
    assert not dominates([1, 1], [2])
    assert dominates([], [])
    assert not dominates([], [1])


def test_group_text_and_sums():
    g = AbelianPGroup(3, (1, 1, 2))
    assert g.table_text() == "2 × 3  1 × 3^2"
    assert AbelianPGroup(3, ()).table_text() == "0"
    assert g.direct_sum(AbelianPGroup(3, (2,))).summands() == [(1, 2), (2, 2)]
    assert g.contains_multiset(AbelianPGroup(3, (1, 2)))
    assert not g.contains_multiset(AbelianPGroup(3, (3,)))


def test_is_prime_and_vp():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert vp(24, 2) == 3
    assert vp(24, 3) == 1
    with pytest.raises(ValueError):
        vp(0, 2)


def test_rank_mod_p():
    m = IntegerMatrix.from_rows([[1, 2], [3, 6]])
    assert rank_mod_p(m, 5) == 1  # row 2 = 3 * row 1 mod 5
    assert rank_mod_p(m, 7) == 1
    assert rank_mod_p(IntegerMatrix.from_rows([[1, 2], [3, 5]]), 2) == 2
