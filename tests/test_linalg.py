import hashlib
import random
from itertools import permutations, product

import pytest

from logdop import linalg
from logdop.errors import InvariantViolation
from logdop.linalg import (
    AbelianPGroup,
    CokernelSolver,
    IntegerMatrix,
    cokernel_invariants,
    cyclic_quotient_dominates,
    det,
    dominates,
    is_prime,
    quotient_by_cyclic,
    rank_mod_p,
    vp,
)
from logdop.localdata import operator_matrix, q_d_matrix
from logdop.verify import quotient_invariants_by_enumeration


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

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


def z_smith_diagonal(rows):
    """Nonzero diagonal of the Smith form over Z of ``rows``, without transforms.

    The oracle for both p-local eliminations: it works over Z, with gcd
    rounds and divisibility repairs.  A new pivot is the least entry in
    absolute value; until it divides its row, its column and then the whole
    block, the next one is the least entry of its row and column.
    """
    rows = [list(row) for row in rows]
    diag = []
    pivot = None
    while True:
        if pivot is None:
            pivot = next(((i, row.index(u)) for i, row in enumerate(rows)
                          for u in (1, -1) if u in row), None)
        if pivot is None:
            entries = [(abs(a), i, j) for i, row in enumerate(rows)
                       for j, a in enumerate(row) if a]
        else:
            i, j = pivot
            entries = [(abs(row[j]), r, j) for r, row in enumerate(rows) if row[j]]
            entries += [(abs(a), i, c) for c, a in enumerate(rows[i]) if a]
        if not entries:
            return diag
        _, i, j = min(entries)
        pivot = (i, j)
        piv = rows[i][j]
        for r, row in enumerate(rows):
            if r != i and row[j]:
                f = row[j] // piv
                rows[r] = [a - f * b for a, b in zip(row, rows[i])]
        for c in range(len(rows[i])):
            if c != j and rows[i][c]:
                f = rows[i][c] // piv
                for row in rows:
                    row[c] -= f * row[j]
        if any(row[j] for r, row in enumerate(rows) if r != i) or \
                any(a for c, a in enumerate(rows[i]) if c != j):
            continue
        bad = None if abs(piv) == 1 else next(
            (r for r, row in enumerate(rows) if any(a % piv for a in row)), None)
        if bad is not None:
            rows[i] = [a + b for a, b in zip(rows[i], rows[bad])]
            continue
        diag.append(abs(piv))
        del rows[i]
        for row in rows:
            del row[j]
        pivot = None


def z_invariants(m, moduli, p):
    """Cokernel of m in (+) Z/p^{e_r}, from the Smith form of [M | diag(p^{e_r})]."""
    augmented = [row + [p ** e if k == r else 0 for k in range(m.rows)]
                 for r, (row, e) in enumerate(zip(m.row_lists(), moduli))]
    return AbelianPGroup(p, tuple(vp(x, p) for x in z_smith_diagonal(augmented) if x != 1))


# ---------------------------------------------------------------------------
# the Z oracle
# ---------------------------------------------------------------------------

def test_snf_frozen_example():
    # d_1 = gcd of entries = 2, d_1*d_2 = |det| = 8
    assert z_smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert z_smith_diagonal([[0]]) == []


def test_snf_matches_sympy_invariants():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(7)
    for _ in range(25):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        rows = [[rng.randint(-50, 50) for _ in range(c)] for _ in range(r)]
        diag = z_smith_diagonal(rows)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        ref = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        ref_diag = sorted(abs(int(ref[i, i])) for i in range(min(r, c)))
        assert sorted(diag) == [x for x in ref_diag if x]


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
        m = IntegerMatrix.from_rows([[rng.randint(-p ** 3, p ** 3) for _ in range(cols_n)]
                                     for _ in range(rows_n)])
        coker = cokernel_invariants(m, moduli, p)
        basis = CokernelSolver(m, moduli, p).kernel_basis()
        assert len(basis) == cols_n
        index = abs(det(IntegerMatrix.from_rows(basis)))
        assert index * 1 == p ** (sum(moduli) - coker.order_vp)


def leibniz_det(rows):
    """The determinant as the signed sum over permutations; an oracle for det."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_det_matches_the_leibniz_formula():
    # every kernel-index caller passes a triangular Hermite basis, so the row
    # swap and the early singular exit run only here
    rng = random.Random(2718)
    swaps = zero_columns = singular = 0
    for _ in range(600):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        kind = rng.randrange(4)
        if kind == 1:
            rows[0][0] = 0
        elif kind == 2:
            for row in rows:
                row[0] = 0
        elif kind == 3 and n > 1:
            rows[-1] = [rng.randint(-2, 2) * a for a in rows[0]]
        want = leibniz_det(rows)
        assert det(IntegerMatrix.from_rows(rows)) == want, rows
        column = [row[0] for row in rows]
        swaps += n > 1 and column[0] == 0 and any(column)
        zero_columns += n > 1 and not any(column)
        singular += want == 0
    assert min(swaps, zero_columns, singular) >= 50
    assert det(IntegerMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert det(IntegerMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]])) == 0


def test_det_of_the_empty_and_non_square_matrices():
    assert det(IntegerMatrix.from_rows([])) == 1
    with pytest.raises(ValueError, match="non-square"):
        det(IntegerMatrix.from_rows([[1, 2]]))


def test_kernel_lattice_zero_map():
    m = IntegerMatrix(3, [{}])
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


def random_moduli_system(rng, p, max_rows=7, max_cols=7, max_modulus=5):
    rows_n, cols_n = rng.randint(0, max_rows), rng.randint(0, max_cols)
    moduli = tuple(rng.randint(1, max_modulus) for _ in range(rows_n))
    # high-valuation entries, so that many rows carry no unit at shift 0
    pool = (0, 1, p, p ** 2, p ** 3)

    def entry():
        return (rng.choice(pool) * rng.randint(-p ** 2, p ** 2) if rng.random() < 0.7
                else rng.randint(-p ** 5, p ** 5))

    # rows_n may be 0, so the shape is given, not read off the rows
    row_maps = [{k: a for k in range(cols_n) if (a := entry())} for _ in range(rows_n)]
    return IntegerMatrix(cols_n, row_maps), moduli


def reduce_modulo(basis, v):
    v = list(v)
    for j, h in enumerate(basis):
        f = v[j] // h[j]
        v = [a - f * b for a, b in zip(v, h)]
    return v


def test_kernel_basis_spans_the_whole_kernel():
    # every v in [0, p^N)^C with M v = 0 reduces to zero modulo the basis,
    # and so does p^N e_j; with the basis inside the kernel, it spans it
    rng = random.Random(2718)
    for _ in range(60):
        p = rng.choice((2, 3))
        m, moduli = random_moduli_system(rng, p, max_rows=4, max_cols=3,
                                         max_modulus=5 - p)
        rows = m.row_lists()
        q = p ** max(moduli, default=0)
        basis = CokernelSolver(m, moduli, p).kernel_basis()

        def in_kernel(v):
            return all(sum(a * x for a, x in zip(row, v)) % p ** e == 0
                       for row, e in zip(rows, moduli))

        assert all(in_kernel(h) for h in basis)
        for v in product(range(q), repeat=m.cols):
            if in_kernel(v):
                assert not any(reduce_modulo(basis, v)), (rows, moduli, v)
        for j in range(m.cols):
            assert not any(reduce_modulo(basis, [q * (c == j) for c in range(m.cols)]))


def test_kernel_basis_is_a_hermite_form_and_ignores_row_order():
    rng = random.Random(99)
    systems = [q_d_matrix(p, d) + (p,) for p, d in ((2, 6), (3, 8), (5, 4))]
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        systems.append(random_moduli_system(rng, p) + (p,))
    for m, moduli, p in systems:
        rows = m.row_lists()
        order = list(range(m.rows))
        rng.shuffle(order)
        shuffled = IntegerMatrix(m.cols, [m.row_maps[r] for r in order])
        one = CokernelSolver(m, moduli, p)
        other = CokernelSolver(shuffled, tuple(moduli[r] for r in order), p)
        basis = one.kernel_basis()
        assert len(basis) == m.cols and other.kernel_basis() == basis
        for j, h in enumerate(basis):
            assert h[:j] == [0] * j
            assert 1 <= h[j] <= p ** max(moduli, default=0) and h[j] == p ** vp(h[j], p)
            assert all(0 <= above[j] < h[j] for above in basis[:j])
        x = [rng.randint(-p ** 3, p ** 3) for _ in range(m.cols)]
        b = [sum(a * t for a, t in zip(row, x)) for row in rows]
        assert one.solve(b) == other.solve([b[r] for r in order]) is not None


def test_hermite_basis_reads_and_writes_sparse_rows():
    # random sparse generators, with empty rows, entries that vanish mod p^n,
    # columns that no generator reaches and repeated generators
    rng = random.Random(3141)
    for _ in range(300):
        p, n, cols = rng.choice((2, 3, 5)), rng.randint(1, 4), rng.randint(1, 7)
        q = p ** n
        reached = rng.sample(range(cols), rng.randint(0, cols))
        gens = [{c: rng.choice((rng.randint(-q * q, q * q), q * rng.randint(-3, 3),
                                p ** rng.randint(0, n)))
                 for c in reached if rng.random() < 0.4}
                for _ in range(rng.randint(0, 6))]
        gens += [{}] + [dict(g) for g in rng.choices(gens, k=min(len(gens), 2))]
        given = [dict(g) for g in gens]
        basis = linalg._hermite_basis(gens, cols, p, n)
        assert gens == given and len(basis) == cols
        for j, h in enumerate(basis):
            assert min(h) == j and 0 not in h.values()
            assert h[j] <= q and h[j] == p ** vp(h[j], p)
            assert all(0 <= above.get(j, 0) < h[j] for above in basis[:j])
            if j not in reached:
                assert h == {j: q}
        dense = [[h.get(c, 0) for c in range(cols)] for h in basis]
        for g in gens + [{j: q} for j in range(cols)]:
            assert not any(reduce_modulo(dense, [g.get(c, 0) for c in range(cols)]))
        # the rows span no more than the generators and p^n Z^cols: equal index
        graph = IntegerMatrix(len(gens), [{i: g[c] for i, g in enumerate(gens) if c in g}
                                          for c in range(cols)])
        assert sum(vp(h[j], p) for j, h in enumerate(basis)) == \
            cokernel_invariants(graph, (n,) * cols, p).order_vp
        rng.shuffle(gens)
        assert linalg._hermite_basis(gens, cols, p, n) == basis


def assert_plocal_matches_z_oracle(m, moduli, p):
    """cokernel_invariants, and the diagonal of CokernelSolver's tracked form
    (the shift at which each row pivots, or the modulus of a row that went
    to zero), both against the Smith form over Z."""
    want = z_invariants(m, moduli, p)
    assert cokernel_invariants(m, moduli, p) == want
    diagonal = tuple(k for k in CokernelSolver(m, moduli, p)._row_exponent if k)
    assert AbelianPGroup(p, diagonal) == want


def test_plocal_invariants_match_tracked_form_randoms():
    rng = random.Random(4242)
    for _ in range(1500):
        p = rng.choice((2, 3, 5, 7))
        assert_plocal_matches_z_oracle(*random_moduli_system(rng, p), p)


@pytest.mark.parametrize("p, d_max", [(2, 16), (3, 14), (5, 10), (7, 8), (11, 6)])
def test_plocal_invariants_match_tracked_form_on_q_d_matrices(p, d_max):
    for d in range(1, d_max + 1):
        assert_plocal_matches_z_oracle(*q_d_matrix(p, d), p)


@pytest.mark.parametrize("p, d_max", [(2, 6), (3, 6), (5, 6)])
def test_plocal_invariants_match_tracked_form_on_splitting_cells(p, d_max):
    for m_level in range(3):
        for d in range(1, d_max + 1):
            assert_plocal_matches_z_oracle(*operator_matrix(p, d, m_level), p)


def test_plocal_invariants_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(606)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        m, moduli = random_moduli_system(rng, p, max_rows=4, max_cols=4, max_modulus=4)
        if not m.rows:
            continue
        augmented = [row + [p ** e if j == i else 0 for j in range(m.rows)]
                     for i, (row, e) in enumerate(zip(m.row_lists(), moduli))]
        ref = sympy_snf(sympy.Matrix(augmented), domain=sympy.ZZ)
        diag = [abs(int(ref[i, i])) for i in range(m.rows)]
        want = AbelianPGroup(p, tuple(vp(x, p) for x in diag if x != 1))
        assert cokernel_invariants(m, moduli, p) == want == z_invariants(m, moduli, p)


def test_plocal_invariants_edge_cases():
    # no rows: the target is 0
    assert cokernel_invariants(IntegerMatrix(3, []), (), 5).is_trivial
    # no columns: the cokernel is the target itself
    g = cokernel_invariants(IntegerMatrix(0, [{}, {}, {}]), (3, 1, 2), 3)
    assert g == AbelianPGroup(3, (1, 2, 3))
    # a zero row splits off with its own modulus
    m = IntegerMatrix.from_rows([[1, 2], [0, 0], [2, 9]])
    g = cokernel_invariants(m, (2, 4, 1), 3)
    assert g == z_invariants(m, (2, 4, 1), 3) and 4 in g.exponents
    # a lone entry of valuation 2 pivots at shift 2: Z/3^4 / <9> = Z/3^2
    assert cokernel_invariants(IntegerMatrix.from_rows([[9]]), (4,), 3).exponents == (2,)
    # row 1 is 3 times row 0: once row 0 pivots, the update clears row 1 and
    # its modulus relation -3 * 3^3 vanishes mod 3^2, so row 1 settles whole
    m = IntegerMatrix.from_rows([[1, 2], [3, 6]])
    assert cokernel_invariants(m, (3, 2), 3) == z_invariants(m, (3, 2), 3)
    assert cokernel_invariants(m, (3, 2), 3).exponents == (2,)
    # all moduli 1: an F_p cokernel of dimension R - rank
    rng = random.Random(12)
    for p in (2, 3, 5):
        m = IntegerMatrix.from_rows([[rng.randint(-9, 9) for _ in range(3)] for _ in range(5)])
        g = cokernel_invariants(m, (1,) * 5, p)
        assert g.exponents == (1,) * (5 - rank_mod_p(m, p))


def test_plocal_invariants_appended_modulus_column():
    # pivoting on row 0 (modulus 2) writes its relation -2 * 2 = 4 mod 8 into
    # row 1, in the column the pivot has cleared: the smallest input whose
    # modulus relation is nonzero
    m = IntegerMatrix.from_rows([[1], [2]])
    assert cokernel_invariants(m, (1, 3), 2).exponents == (2,)
    assert z_invariants(m, (1, 3), 2).exponents == (2,)


def shuffled_system(rng, m, moduli):
    """m with its rows (and their moduli) and its columns permuted at random."""
    rows = m.row_lists()
    order, cols = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(order)
    rng.shuffle(cols)
    row_maps = [{k: rows[r][c] for k, c in enumerate(cols) if rows[r][c]} for r in order]
    return IntegerMatrix(m.cols, row_maps), tuple(moduli[r] for r in order)


def test_plocal_invariants_ignore_row_and_column_order():
    # the sweep order depends on the rows' sparsity and moduli and on which
    # unit comes first in a row; none of it may reach the invariants
    rng = random.Random(1957)
    systems = [(q_d_matrix(3, d), 3) for d in range(1, 21)]
    systems += [(q_d_matrix(5, d), 5) for d in range(1, 13)]
    for p in (2, 3, 5):
        for m_level in range(3):
            for d in range(1, 7):
                systems.append((operator_matrix(p, d, m_level), p))
    for (m, moduli), p in systems:
        want = cokernel_invariants(m, moduli, p)
        for _ in range(2):
            assert cokernel_invariants(*shuffled_system(rng, m, moduli), p) == want


def test_plocal_invariants_with_planted_unit_rows():
    # unit-vector rows of mixed moduli pivot first; each relation scales a
    # column of the denser rows by p^{e_i}, below, at or above their own moduli
    rng = random.Random(1998)
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        m, moduli = random_moduli_system(rng, p, max_rows=5, max_cols=6)
        rows = m.row_lists()
        for _ in range(rng.randint(1, 3) if m.cols else 0):
            j, unit = rng.randrange(m.cols), rng.choice((1, -1, p + 1))
            rows.append([unit * (c == j) for c in range(m.cols)])
            moduli += (rng.randint(1, 5),)
        planted = IntegerMatrix.from_rows(rows)
        planted, moduli = shuffled_system(rng, planted, moduli)
        assert cokernel_invariants(planted, moduli, p) == z_invariants(planted, moduli, p)


def planted_sparse_system(rng, p):
    """A seeded sparse mixed-moduli system, shuffled, with the p-local core's
    edge cases planted: a zero row; a lone entry p^s*u, s > 0, below its
    modulus; a unit row i and p^t times it at a modulus E_r <= E_i.  Once
    row i pivots, that multiple is cleared and its modulus relation
    -(f/p^s)*p^{E_i} vanishes mod p^{E_r}, so it becomes zero.  The other
    rows hold an entry in about one column of four, of valuation 0 to 3."""
    units = [u for u in range(-3 * p, 3 * p) if u % p]
    cols = rng.randint(1, 8)

    def sparse_row():
        return [p ** rng.randint(0, 3) * rng.choice(units) if rng.random() < 0.25 else 0
                for _ in range(cols)]

    rows = [sparse_row() for _ in range(rng.randint(0, 6))]
    moduli = [rng.randint(1, 6) for _ in rows]
    rows.append([0] * cols)
    moduli.append(rng.randint(1, 6))
    s, lone = rng.randint(1, 4), rng.randrange(cols)
    rows.append([p ** s * rng.choice(units) if c == lone else 0 for c in range(cols)])
    moduli.append(rng.randint(s + 1, 6))
    unit_row, e_i = sparse_row(), rng.randint(1, 6)
    unit_row[rng.randrange(cols)] = rng.choice(units)
    rows += [unit_row, [p ** rng.randint(1, 3) * a for a in unit_row]]
    moduli += [e_i, rng.randint(1, e_i)]
    return shuffled_system(rng, IntegerMatrix.from_rows(rows), tuple(moduli))


def test_plocal_invariants_on_planted_sparse_systems():
    rng = random.Random(8086)
    for _ in range(1500):
        p = rng.choice((2, 3, 5, 7))
        m, moduli = planted_sparse_system(rng, p)
        assert cokernel_invariants(m, moduli, p) == z_invariants(m, moduli, p)


def test_plocal_postcondition_fires_on_a_row_left_unreduced():
    # the core assumes row r arrives reduced mod p^{E_r}; 9 mod 3^1 is not,
    # so the row's valuation 2 never meets a shift below 1, the row is
    # never settled and the postcondition reports it
    with pytest.raises(InvariantViolation, match="settled 0 of 1 rows"):
        linalg._plocal_exponents([{0: 9}], (1,), 3)
    assert linalg._plocal_exponents([{}], (1,), 3) == [1]


# ---------------------------------------------------------------------------
# element orders
# ---------------------------------------------------------------------------

def test_element_order_trivial_cases():
    solver = CokernelSolver(IntegerMatrix(1, [{}]), (3,), 5)
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
        m = IntegerMatrix.from_rows(rows)
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


def test_solve_is_canonical():
    rng = random.Random(515)
    # the lift path's correction systems, then random ones
    systems = [operator_matrix(p, d, max_order=d - 1) + (p,)
               for p, d in ((2, 4), (3, 4), (5, 3))]
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        systems.append(random_moduli_system(rng, p, max_rows=6, max_cols=6) + (p,))
    unsolvable = 0
    for m, moduli, p in systems:
        rows = m.row_lists()
        solver = CokernelSolver(m, moduli, p)
        basis = solver.kernel_basis()
        order_vp = cokernel_invariants(m, moduli, p).order_vp
        x = [rng.randint(-p ** 3, p ** 3) for _ in range(m.cols)]
        rhs = [[sum(a * t for a, t in zip(row, x)) for row in rows]]
        for density in (0.05, 0.3, 1.0):
            rhs += [[rng.randint(-p ** 6, p ** 6) if rng.random() < density else 0
                     for _ in moduli] for _ in range(5)]
        for b in rhs:
            got = solver.solve(b)
            # b is in the image iff adjoining it as a column keeps the order
            with_b = IntegerMatrix.from_rows([row + [bi] for row, bi in zip(rows, b)])
            assert (got is None) == (cokernel_invariants(with_b, moduli, p).order_vp
                                     < order_vp)
            if got is None:
                unsolvable += 1
                continue
            assert all((sum(a * t for a, t in zip(row, got)) - bi) % p ** e == 0
                       for row, bi, e in zip(rows, b, moduli))
            assert all(0 <= got[j] < h[j] for j, h in enumerate(basis))
            # b matters modulo the moduli, and b + M y has the solutions got + y
            assert solver.solve([bi + rng.randint(-2, 2) * p ** e
                                 for bi, e in zip(b, moduli)]) == got
            y = [rng.randint(-p ** 3, p ** 3) for _ in range(m.cols)]
            moved = [bi + sum(a * t for a, t in zip(row, y)) for row, bi in zip(rows, b)]
            assert solver.solve(moved) == reduce_modulo(basis, [g + t for g, t in zip(got, y)])
    assert unsolvable > 0
    # Z/9 with the zero map: 1 is not in the image, 9 is
    solver = CokernelSolver(IntegerMatrix(1, [{}]), (2,), 3)
    assert solver.solve([1]) is None and solver.solve([9]) == [0]


def pinned_solver_systems():
    """Degree-d local-data matrices, correction-solver operator matrices at
    levels 0..2 and seeded mixed-moduli systems."""
    rng = random.Random(1616)
    systems = [q_d_matrix(p, d) + (p,) for p, d_max in ((2, 12), (3, 10), (5, 6), (7, 4), (11, 3))
               for d in range(1, d_max + 1)]
    systems += [operator_matrix(p, d, m, max_order=d - 1) + (p,)
                for p, d in ((2, 5), (3, 5), (5, 3)) for m in range(3)]
    for _ in range(2000):
        p = rng.choice((2, 3, 5, 7))
        systems.append(random_moduli_system(rng, p) + (p,))
    return systems


def test_solver_outputs_are_pinned():
    # kernel bases, solves of image and random vectors, and element orders,
    # hashed; the digest comes from an independent implementation, a dense
    # elimination of the rows scaled to (Z/p^N)^R, and all three answers
    # are canonical (reduced modulo a Hermite form, or an invariant)
    rng = random.Random(61)
    digest = hashlib.sha256()
    solved = unsolvable = 0
    for m, moduli, p in pinned_solver_systems():
        solver = CokernelSolver(m, moduli, p)
        out = [solver.kernel_basis()]
        for _ in range(3):
            x = [rng.randint(-p ** 3, p ** 3) for _ in range(m.cols)]
            b = [sum(a * t for a, t in zip(row, x)) for row in m.row_lists()]
            c = [rng.randint(-p ** 6, p ** 6) for _ in moduli]
            out += [solver.solve(b), solver.solve(c), solver.element_order_exponent(c)]
            solved += out[-2] is not None
            unsolvable += out[-2] is None
        digest.update(repr(out).encode())
    assert solved > 100 and unsolvable > 1000
    assert digest.hexdigest() == (
        "6b95ecb91b263637ceddab1d0ba816b01fae22da0e2407415db8526417eed41a")


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
    assert q.exponents == quotient_invariants_by_enumeration(2, (2, 3), (2, 4))
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
            assert q.exponents == quotient_invariants_by_enumeration(p, shape, a)
            assert cyclic_quotient_dominates(group, q)


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
    assert g.contains_multiset(AbelianPGroup(3, (1, 2)))
    assert not g.contains_multiset(AbelianPGroup(3, (3,)))


def trial_division_is_prime(n):
    return n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_is_prime_and_vp():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    # both sides of 50^2, where trial division gives way to Miller-Rabin
    assert all(is_prime(n) == trial_division_is_prime(n) for n in range(-3, 12000))
    # the least strong pseudoprimes to the first k prime bases, k = 4..12:
    # each is caught by a later base among 2..41
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321,
              3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert not is_prime((2 ** 31 - 1) ** 2)
    # at and above the bound 3.317e24 there is no exact fast test: it
    # raises at once, even on a composite with a small factor or with only
    # large ones
    for n in (3317044064679887385961981, 53 * 100000000000000000000117,
              (2 ** 61 - 1) * (2 ** 31 - 1)):
        with pytest.raises(ValueError, match="too large"):
            is_prime(n)
    assert vp(24, 2) == 3
    assert vp(24, 3) == 1
    with pytest.raises(ValueError):
        vp(0, 2)


def test_rank_mod_p():
    m = IntegerMatrix.from_rows([[1, 2], [3, 6]])
    assert rank_mod_p(m, 5) == 1  # row 2 = 3 * row 1 mod 5
    assert rank_mod_p(m, 7) == 1
    assert rank_mod_p(IntegerMatrix.from_rows([[1, 2], [3, 5]]), 2) == 2
    # entries >= p and negative ones are reduced first
    assert rank_mod_p(IntegerMatrix.from_rows([[3, 6], [9, -12]]), 3) == 0
    assert rank_mod_p(IntegerMatrix.from_rows([[5, 1], [-1, 3]]), 2) == 1
    assert rank_mod_p(IntegerMatrix.from_rows([[0, 0], [0, 0]]), 5) == 0
    assert rank_mod_p(IntegerMatrix(4, []), 5) == 0


def dense_rank_mod_p(rows, p):
    """Reference F_p rank: dense row echelon form on lists, column by column."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for j in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][j], -1, p)
        for i in range(rank + 1, len(a)):
            f = a[i][j] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def random_rank_cases(rng, p):
    """Tall, wide, zero-row and repeated-row matrices, entries spread over
    [-3p, 3p] so that negatives and entries >= p both occur, half of them 0."""
    for rows, cols in ((9, 3), (3, 9), (6, 6), (1, 5), (5, 1)):
        for _ in range(12):
            m = [[rng.choice((0, rng.randint(-3 * p, 3 * p))) for _ in range(cols)]
                 for _ in range(rows)]
            yield m
            yield m + [[0] * cols] + m[:2]
            # a row that is a combination of two others, scaled by p + 1
            yield m + [[(p + 1) * (x - 2 * y) for x, y in zip(m[0], m[-1])]]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_rank_mod_p_matches_a_dense_elimination(p):
    rng = random.Random(2400 + p)
    seen = set()
    for rows in random_rank_cases(rng, p):
        m = IntegerMatrix.from_rows(rows)
        mt = IntegerMatrix.from_rows([list(col) for col in zip(*rows)])
        r = rank_mod_p(m, p)
        assert r == dense_rank_mod_p(rows, p) == rank_mod_p(mt, p), (p, rows)
        seen.add(r < min(m.rows, m.cols))
    assert seen == {True, False}               # deficient and full ranks both met


@pytest.mark.parametrize("p", [4, 0, 1, -3, 9])
def test_rank_mod_p_refuses_a_p_that_is_not_prime(p):
    with pytest.raises(ValueError, match=f"^p = {p} is not prime$"):
        rank_mod_p(IntegerMatrix.from_rows([[3, 1], [1, 3]]), p)


def test_rank_mod_p_of_the_lattice_cells_is_pinned():
    # the F_p ranks of q_d_matrix(p, d) over verify --suite lattice's 40 cells
    pinned = {
        2: (3, 5, 7, 9, 11, 13, 15, 17),
        3: (3, 5, 7, 9, 11, 13, 15, 17),
        5: (3, 5, 7, 9, 11, 13, 15, 17),
        7: (3, 5, 7, 9, 11, 13, 15, 17),
        11: (3, 5, 7, 9, 11, 13, 15, 17),
    }
    got = {p: tuple(rank_mod_p(q_d_matrix(p, d)[0], p) for d in range(1, 9))
           for p in pinned}
    assert got == pinned
