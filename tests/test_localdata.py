import hashlib
import random
from math import comb

import pytest

from logdop import localdata, verify
from logdop.calculus import (
    CHART_X,
    CHART_Y,
    OperatorSection,
    TensorSection,
    is_global_section,
    operator_to_laurent,
    standard_basis_keys,
    standard_operator_basis,
    tensor_to_operator,
    transform_term,
)
from logdop.linalg import CokernelSolver, IntegerMatrix, cokernel_invariants
from logdop.localdata import (
    INF,
    PointLift,
    coords_degree,
    coords_le,
    kernel_lattice,
    local_data_operator,
    local_data_tensor,
    moduli_exponents,
    operator_matrix,
    q_d_matrix,
    tensor_presentation,
)
from logdop.verify import operator_matrix_by_columns, q_d_matrix_by_columns, suite_localdata


def random_section(rng, p, d, m=0, bound=None):
    bound = bound if bound is not None else p ** d
    return TensorSection(p, d, m,
                         tuple(rng.randint(-bound, bound) for _ in range(d)),
                         tuple(rng.randint(-bound, bound) for _ in range(d + 1)))


# ---------------------------------------------------------------------------
# coordinate bookkeeping
# ---------------------------------------------------------------------------

def test_coordinate_counts():
    for p in (2, 3, 5):
        for d in (1, 2, 4):
            assert len(coords_le(p, d)) == (p + 1) * d * (d + 1) // 2
            assert len(coords_degree(p, d)) == (p + 1) * d


def test_coordinate_order_is_point_major_then_k_then_i():
    assert coords_le(2, 2) == [
        (0, 1, 0), (0, 2, 0), (0, 2, 1),
        (1, 1, 0), (1, 2, 0), (1, 2, 1),
        (INF, 1, 0), (INF, 2, 0), (INF, 2, 1),
    ]
    assert moduli_exponents(coords_le(2, 2)) == (1, 2, 1, 1, 2, 1, 1, 2, 1)


def test_point_lift_validation():
    assert PointLift(3, range(3)).lifts == (0, 1, 2)
    PointLift(3, (3, 4, 5))
    with pytest.raises(ValueError):
        PointLift(3, (0, 2, 1))


# ---------------------------------------------------------------------------
# tensor local data
# ---------------------------------------------------------------------------

def test_tensor_zero_section():
    assert local_data_tensor(TensorSection(3, 2, 0, (0, 0), (0, 0, 0))).is_zero


def test_tensor_hand_expansion_p2_d1():
    # B_1 * x d_x: zero at 0 and infinity, B_1 mod 2 at the point 1
    for b1 in (1, 2, 3):
        delta = TensorSection(2, 1, 0, (0,), (0, b1))
        ld = local_data_tensor(delta)
        assert ld.residue(0, 1, 0) == 0
        assert ld.residue(INF, 1, 0) == 0
        assert ld.residue(1, 1, 0) == b1 % 2


def test_tensor_divisibility_kills_zero_and_infinity():
    # p^{d-s} | A_s and p^{d-s'} | B_{s'} force zero data at 0 and infinity
    rng = random.Random(3)
    for p, d in ((2, 3), (3, 2), (5, 4)):
        for _ in range(10):
            delta = TensorSection(
                p, d, 0,
                tuple(p ** (d - s) * rng.randint(-4, 4) for s in range(d)),
                tuple(p ** (d - sp) * rng.randint(-4, 4) for sp in range(d + 1)))
            ld = local_data_tensor(delta)
            for i in range(d):
                assert ld.residue(0, d, i) == 0
                assert ld.residue(INF, d, i) == 0


def test_tensor_infinity_reads_a_coefficients():
    delta = TensorSection(3, 2, 0, (5, 7), (0, 0, 0))
    ld = local_data_tensor(delta)
    assert ld.residue(INF, 2, 0) == 5 % 9
    assert ld.residue(INF, 2, 1) == 7 % 3


def test_tensor_linearity_and_p_power_kill():
    rng = random.Random(17)
    for p, d in ((2, 2), (3, 3), (5, 2)):
        mods = [p ** (k - i) for (_a, k, i) in coords_degree(p, d)]
        for _ in range(10):
            u = random_section(rng, p, d)
            v = random_section(rng, p, d)
            lu, lv, ls = (local_data_tensor(w).vector() for w in (u, v, u.plus(v)))
            assert all((a + b - s) % m == 0 for a, b, s, m in zip(lu, lv, ls, mods))
            assert local_data_tensor(u.scaled(p ** d)).is_zero


# ---------------------------------------------------------------------------
# operator local data
# ---------------------------------------------------------------------------

def test_operator_constant_has_no_local_data():
    op = OperatorSection(3, 0, 2, {(CHART_X, 0, 0): 1})
    assert local_data_operator(op).is_zero


def test_operator_requires_global_section():
    op = OperatorSection(3, 0, 2, {(CHART_Y, 3, 1): 1})
    with pytest.raises(ValueError):
        local_data_operator(op)


def test_operator_hand_expansion_p3_d2():
    # 9 d_x^2: at finite points residues 9 mod 9 = 0; at infinity the
    # transform gives y-powers >= 3 above every (k, i) slot
    op = OperatorSection(3, 0, 2, {(CHART_X, 0, 2): 9})
    assert local_data_operator(op).is_zero


def test_operator_shift_expansion_example():
    # 2 x d_x at p=2, d=1: at the point 1, x = x_1 + 1 so the constant
    # coefficient is 2 = 0 mod 2; no data anywhere else
    op = OperatorSection(2, 0, 1, {(CHART_X, 1, 1): 2})
    assert local_data_operator(op).is_zero
    op1 = OperatorSection(2, 0, 1, {(CHART_X, 1, 1): 1})
    ld = local_data_operator(op1)
    assert ld.residue(1, 1, 0) == 1
    assert ld.residue(0, 1, 0) == 0
    assert ld.residue(INF, 1, 0) == 0


def test_operator_degree_slice_matches_tensor():
    rng = random.Random(23)
    for p in (2, 3, 5):
        for d in range(1, 5):
            for _ in range(8):
                delta = random_section(rng, p, d)
                full = local_data_operator(tensor_to_operator(delta))
                top = full.degree_slice(d)
                assert top.entries == local_data_tensor(delta).entries


def test_operator_level_m_uses_level_coefficients_but_same_lattice():
    # order-1 terms transform identically at every level (q_1 = 1 or 0 with
    # a^{(m)}_{1,1} = 1), so this operator has the same data at m = 0 and m = 2
    for m in (0, 1, 2):
        op = OperatorSection(3, m, 1, {(CHART_Y, 0, 1): 3})
        ld = local_data_operator(op)
        assert ld.residue(INF, 1, 0) == 0
        assert ld.residue(1, 1, 0) == (-3 * 1 ** 2) % 3  # -x^2 d_x at xi = 1


# ---------------------------------------------------------------------------
# the degree-d matrix
# ---------------------------------------------------------------------------

def test_q_d_matrix_shape():
    for p, d in ((2, 1), (3, 2), (5, 3), (7, 2)):
        mat, moduli = q_d_matrix(p, d)
        assert (mat.rows, mat.cols) == ((p + 1) * d, 2 * d + 1)
        assert len(moduli) == mat.rows
        assert set(moduli) <= set(range(1, d + 1))


def test_q_d_matrix_cokernels_match_reference_rows():
    mat, moduli = q_d_matrix(2, 1)
    assert cokernel_invariants(mat, moduli, 2).is_trivial
    mat, moduli = q_d_matrix(3, 1)
    assert cokernel_invariants(mat, moduli, 3).exponents == (1,)


def test_q_d_matrix_lift_independence():
    for p, d in ((2, 2), (3, 2), (5, 2)):
        shifted = PointLift(p, tuple(a + p for a in range(p)))
        m0, mod0 = q_d_matrix(p, d)
        m1, mod1 = q_d_matrix(p, d, lifts=shifted)
        assert mod0 == mod1
        assert m0 != m1 or p == 2  # vectors differ in general
        g0 = cokernel_invariants(m0, mod0, p)
        g1 = cokernel_invariants(m1, mod1, p)
        assert g0 == g1


# ---------------------------------------------------------------------------
# the kernel against the binomial-sum formula
# ---------------------------------------------------------------------------

def binomial_residues(terms, xi, k, p):
    """Residues i < k of sum_n c_n x^n at x = x_a + xi, one binomial sum each.

    The formula the Taylor shift replaces: sum_n c_n C(n, i) xi^{n-i}
    mod p^{k-i}, with nothing reduced beforehand.
    """
    return [sum(c * comb(n, i) * xi ** (n - i) for n, c in terms if n >= i) % p ** (k - i)
            for i in range(k)]


def nonzero_entries(pairs):
    return {key: r for key, r in pairs if r}


def tensor_oracle(delta, lifts):
    p, d = delta.p, delta.d
    sgn = -1 if d % 2 else 1
    terms = list(enumerate(delta.B)) + [(2 * d - s, sgn * a) for s, a in enumerate(delta.A)]
    pairs = [((INF, d, i), delta.A[i] % p ** (d - i)) for i in range(d)]
    for a in range(p):
        pairs += [((a, d, i), r)
                  for i, r in enumerate(binomial_residues(terms, lifts.lifts[a], d, p))]
    return nonzero_entries(pairs)


def operator_oracle(op):
    """The residues at xi_a = a, the one lift operator local data takes."""
    p, d = op.p, op.d
    ly = operator_to_laurent(op, CHART_Y)
    pairs = [((INF, k, i), c % p ** (k - i))
             for (i, k), c in ly.items() if 1 <= k <= d and i < k]
    lx = operator_to_laurent(op, CHART_X)
    for k in range(1, d + 1):
        terms = [(n, c) for (n, kk), c in lx.items() if kk == k]
        for a in range(p):
            pairs += [((a, k, i), r)
                      for i, r in enumerate(binomial_residues(terms, a, k, p))]
    return nonzero_entries(pairs)


def random_lifts(rng, p):
    return PointLift(p, tuple(a + p * rng.randint(-2 ** 64, 2 ** 64) for a in range(p)))


BIG = 2 ** 200


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_tensor_local_data_matches_binomial_sums(p):
    rng = random.Random(1000 + p)
    for d in range(1, 8):
        for lifts in (PointLift(p, tuple(range(p))), random_lifts(rng, p)):
            for _ in range(4):
                delta = random_section(rng, p, d, bound=BIG)
                assert local_data_tensor(delta, lifts).entries == tensor_oracle(delta, lifts)


def mixed_global_terms(rng, p, d, m):
    """Terms of a random global operator at level m, 200-bit coefficients.

    Each monomial of the standard basis is kept, or written out in the other
    chart by transform_term.  Written out, y^s d^<k> is a sum of x-monomials
    x^{k+t-s} d^<t>, which for s < k-1 are not global one by one: their
    negative y powers cancel.  y^0 d^<d> reaches the x power 2d.
    """
    terms = {}
    for op in standard_operator_basis(p, d, m):
        ((chart, s, k), _), = op.terms.items()
        c = rng.randint(-BIG, BIG)
        if k and rng.random() < 0.5:
            other = CHART_Y if chart == CHART_X else CHART_X
            moved = {(other, i, t): v
                     for (i, t), v in transform_term(chart, s, k, p, m, c).items()}
        else:
            moved = {(chart, s, k): c}
        for key, v in moved.items():
            terms[key] = terms.get(key, 0) + v
    return terms


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_operator_local_data_matches_binomial_sums(p):
    rng = random.Random(2000 + p)
    for m in range(3):
        for d in range(1, 6):
            for _ in range(3):
                op = OperatorSection(p, m, d, mixed_global_terms(rng, p, d, m))
                assert local_data_operator(op).entries == operator_oracle(op)


def test_a_global_operators_x_chart_stays_within_the_pascal_rows():
    # local_data_operator reads Pascal rows 0..2d only: each order of a
    # global operator's x-chart aggregate has degree <= 2d, and 2d occurs
    rng = random.Random(4000)
    for p in (2, 3, 5, 7, 11):
        for m in range(3):
            for d in range(1, 7):
                tops = []
                for _ in range(3):
                    op = OperatorSection(p, m, d, mixed_global_terms(rng, p, d, m))
                    assert is_global_section(op)
                    tops.append(max(n for n, _k in operator_to_laurent(op, CHART_X)))
                assert max(tops) == 2 * d, (p, m, d)


def test_cancelling_monomials_are_global_at_one_level_only():
    # y^0 d^<2> written in the x chart at p = 3: 2 x^3 d^<1> + x^4 d^<2> at
    # level 0, where a_{2,1} = 2.  At level 1, a^(1)_{2,1} = 1, so the same
    # terms leave -y^{-1} d^<1> in the y chart
    terms = {(CHART_X, 4, 2): 1, (CHART_X, 3, 1): 2}
    op = OperatorSection(3, 0, 2, terms)
    assert is_global_section(op)
    assert local_data_operator(op).entries == operator_oracle(op)
    assert local_data_operator(op).residue(INF, 2, 0) == 1  # y^0 d^<2>
    at_level_one = OperatorSection(3, 1, 2, terms)
    assert not is_global_section(at_level_one)
    with pytest.raises(ValueError):
        local_data_operator(at_level_one)


def test_operator_local_data_raises_exactly_off_global_sections():
    rng = random.Random(2100)
    raised = 0
    for _ in range(400):
        p, d, m = rng.choice((2, 3, 5)), rng.randint(1, 4), rng.randint(0, 2)
        # the terms are global at level m' and read at level m
        terms = mixed_global_terms(rng, p, d, rng.randint(0, 2))
        if rng.random() < 0.3:
            key = (rng.choice((CHART_X, CHART_Y)), rng.randint(0, 2 * d + 2), rng.randint(0, d))
            terms[key] = terms.get(key, 0) + rng.choice((-1, 1))
        op = OperatorSection(p, m, d, terms)
        if is_global_section(op):
            assert local_data_operator(op).entries == operator_oracle(op)
        else:
            raised += 1
            with pytest.raises(ValueError):
                local_data_operator(op)
    assert 100 < raised < 300, raised


@pytest.mark.parametrize("p, d_max", [(2, 16), (3, 14), (5, 10), (7, 8), (11, 6)])
def test_q_d_matrix_matches_column_wise_build(p, d_max):
    rng = random.Random(3000 + p)
    for d in range(1, d_max + 1):
        for lifts in (None, PointLift(p, tuple(a + p * rng.randint(1, 3) for a in range(p)))):
            mat, moduli = q_d_matrix(p, d, lifts=lifts)
            assert mat == q_d_matrix_by_columns(p, d, lifts), (d, lifts)
            assert moduli == moduli_exponents(coords_degree(p, d))


# the lattice suite's 40 cells and more, and (3, 40), which no suite reaches
KERNEL_CELLS = [(p, d) for p, d_max in ((2, 16), (3, 14), (5, 10), (7, 8), (11, 8), (13, 5))
                for d in range(1, d_max + 1)] + [(3, 40)]


def test_kernel_lattice_is_the_kernel_of_q_d_matrix():
    # the Hermite form of the monic graph against the Hermite basis of a
    # solver on the full local-data matrix; the form is unique, so the two
    # must agree entry for entry
    for p, d in KERNEL_CELLS:
        want = CokernelSolver(*q_d_matrix(p, d), p).kernel_basis()
        assert [list(row) for row in kernel_lattice(p, d)] == want, (p, d)


def test_kernel_lattice_hands_out_immutable_rows():
    basis = kernel_lattice(3, 4)
    assert isinstance(basis, tuple) and all(isinstance(row, tuple) for row in basis)
    assert kernel_lattice(3, 4) is basis


def producer_matrices():
    """q_d_matrix with canonical and shifted lifts and tensor_presentation
    for p in {2, 3, 5, 7}, d <= 20, and operator_matrix on the standard
    operator basis at levels 0..2."""
    rng = random.Random(1717)
    out = []
    for p in (2, 3, 5, 7):
        for d in range(1, 21):
            shifted = PointLift(p, tuple(a + p * rng.randint(-9, 9) for a in range(p)))
            out += [q_d_matrix(p, d), q_d_matrix(p, d, shifted), tensor_presentation(p, d)]
    for p, d_max in ((2, 5), (3, 5), (5, 3)):
        for m in range(3):
            for d in range(1, d_max + 1):
                out.append(operator_matrix(p, d, m))
    return out


def test_producer_matrices_are_pinned():
    # the dense rows and moduli, hashed; the digest comes from a dense build
    # of the same matrices.  Each sparse row holds nonzero
    # entries only, in ascending column order, which the elimination's
    # pivot choice (the first qualifying column) reads
    digest = hashlib.sha256()
    for mat, moduli in producer_matrices():
        for row in mat.row_maps:
            assert 0 not in row.values() and list(row) == sorted(row)
        assert IntegerMatrix.from_rows(mat.row_lists()) == mat
        digest.update(repr((mat.rows, mat.cols, mat.row_lists(), moduli)).encode())
    assert digest.hexdigest() == (
        "2fe4b3c6635358cb203bb213155b4f8d69a658d25e9676bc8e67dbb21d067e9d")


def test_q_d_matrix_rejects_what_the_basis_rejects():
    for build in (q_d_matrix, tensor_presentation):
        with pytest.raises(ValueError, match="not prime"):
            build(4, 2)
        with pytest.raises(ValueError):
            build(3, 0)


@pytest.mark.parametrize("lifts", [PointLift(5, (5, 6, 7, 8, 9)), PointLift(2, (0, 1))],
                         ids=["larger-prime", "smaller-prime"])
def test_a_point_lift_is_bound_to_its_prime(lifts):
    # neither read as if it were for p = 3: the larger one would give wrong
    # residues, the smaller one too few points
    delta = TensorSection(3, 2, 0, (0, 0), (0, 1, 0))
    message = f"lifts are for p = {lifts.p}, not p = 3"
    with pytest.raises(ValueError, match=message):
        local_data_tensor(delta, lifts)
    with pytest.raises(ValueError, match=message):
        q_d_matrix(3, 2, lifts)


# ---------------------------------------------------------------------------
# the presentation h1_tensor eliminates, against the local-data matrix
# ---------------------------------------------------------------------------

PRESENTATION_RANGE = [(2, 20), (3, 20), (5, 12), (7, 10), (11, 6), (13, 6)]


def local_data_group(p, d, lifts=None):
    return cokernel_invariants(*q_d_matrix(p, d, lifts=lifts), p)


@pytest.mark.parametrize("p, d_max", PRESENTATION_RANGE)
def test_tensor_presentation_has_the_local_data_cokernel(p, d_max):
    rng = random.Random(4000 + p)
    for d in range(1, d_max + 1):
        group = cokernel_invariants(*tensor_presentation(p, d), p)
        shifted = PointLift(p, tuple(a + p * rng.randint(-9, 9) for a in range(p)))
        assert group == local_data_group(p, d), d
        assert group == local_data_group(p, d, shifted), (d, shifted)


@pytest.mark.parametrize("p, d_max", PRESENTATION_RANGE)
def test_tensor_presentation_shape(p, d_max):
    for d in range(1, d_max + 1):
        mat, moduli = tensor_presentation(p, d)
        reached = sum(1 for r in range(p) for k in range(d) if p * k + r <= 2 * d)
        assert (mat.rows, mat.cols) == (p * d - reached + d, 2 * d + 1)
        free = mat.rows - d
        # the unreached (r, k) are zero rows with modulus d - k; then infinity
        assert all(not any(row) for row in mat.row_lists()[:free])
        assert sorted(moduli[:free]) == sorted(d - k for r in range(p) for k in range(d)
                                               if p * k + r > 2 * d)
        assert moduli[free:] == tuple(range(d, 0, -1))


def without_scale(p, d):
    """The presentation with the factor p^{max(d-k, 0)} divided out."""
    mat, moduli = tensor_presentation(p, d)
    rows = mat.row_lists()
    for row in rows[mat.rows - d:]:
        for n in range(mat.cols):
            row[n] //= p ** max(d - n // p, 0)
    return IntegerMatrix.from_rows(rows), moduli


def one_entry_knocked_out(p, d):
    """The presentation with its first live T entry (nonzero modulo its
    row's modulus), if it has one, set to zero."""
    mat, moduli = tensor_presentation(p, d)
    rows = mat.row_lists()
    for row, e in zip(rows, moduli):
        n = next((n for n, a in enumerate(row) if a % p ** e), None)
        if n is not None:
            row[n] = 0
            break
    return IntegerMatrix.from_rows(rows), moduli


@pytest.mark.parametrize("mutant", [without_scale, one_entry_knocked_out])
def test_the_presentation_oracle_can_fail(mutant):
    differ = [(p, d) for p in (2, 3, 5, 7) for d in range(1, 7)
              if cokernel_invariants(*mutant(p, d), p) != local_data_group(p, d)]
    assert differ


def test_the_localdata_suite_passes_in_full():
    # the same sweep as `logdop verify --suite localdata`: lift independence,
    # the column-wise q_d_matrix oracle, degree slices and linearity
    result = suite_localdata()
    assert (result.checks, result.failures) == (4332, [])


def test_a_forged_pascal_entry_fails_the_localdata_suite(monkeypatch):
    # _taylor_shift, which local_data_tensor runs, is the reference the suite
    # holds the Pascal-column readers against: one wrong C(1, 0) xi entry at
    # xi = 1 must show in q_d_matrix and in local_data_operator alike; the
    # forgery runs the memo's body, so no genuine memo entry is served
    genuine = localdata._pascal_columns

    def forged(xi, width, mod):
        columns = genuine.__wrapped__(xi, width, mod)
        if xi != 1:
            return columns
        first = list(columns[0])
        first[1] = (first[1] + 1) % mod
        return (tuple(first),) + columns[1:]

    monkeypatch.setattr(localdata, "_pascal_columns", forged)
    result = suite_localdata()
    assert result.checks == 4332 and not result.passed
    assert any(f.startswith("q_d_matrix differs") for f in result.failures)
    assert any(f.startswith("degree-slice mismatch") for f in result.failures)


def test_operator_matrix_is_the_column_wise_build():
    # the closed-form columns against local_data_operator on each basis
    # operator, at levels where a^(m) differs from a; an order-k column has
    # no local data above degree k, so the order <= d-1 columns on the rows
    # of degree <= d-1 are the correction solver's operator_matrix(p, d-1, m)
    for p in (2, 3, 5, 7, 11):
        for d in range(7):
            for m in range(3):
                mat, moduli = operator_matrix(p, d, m)
                assert (mat, moduli) == operator_matrix_by_columns(p, d, m)
                orders = [k for _, _, k in standard_basis_keys(d)]
                for (_a, k, _i), row in zip(coords_le(p, d), mat.row_maps):
                    assert 0 not in row.values() and list(row) == sorted(row)
                    assert all(orders[col] >= k for col in row)
                if d:
                    low = [(row, e) for (_a, k, _i), row, e
                           in zip(coords_le(p, d), mat.row_maps, moduli) if k < d]
                    assert operator_matrix(p, d - 1, m) == (
                        IntegerMatrix(d * d, [{c: x for c, x in row.items() if c < d * d}
                                              for row, _ in low]),
                        tuple(e for _, e in low))


def test_a_wrong_operator_matrix_entry_fails_the_localdata_suite(monkeypatch):
    genuine = verify.operator_matrix

    def forged(p, d, m=0):
        mat, moduli = genuine(p, d, m)
        if (p, d, m) == (3, 2, 1):
            row = next(row for row in mat.row_maps if row)
            col = next(iter(row))
            row[col] += 1
        return mat, moduli

    monkeypatch.setattr(verify, "operator_matrix", forged)
    result = suite_localdata()
    assert result.checks == 4332
    assert result.failures == ["operator_matrix differs from the column-wise build at (p=3, d=2)"]
