"""Runnable property suites behind the CLI ``verify`` command.

Each suite sweeps one module's invariants at the documented bounds and
reports (checks run, failures); everything is deterministic given the seed.
The acceptance tests reuse the same functions at their own ranges, with the
heavyweight exhaustive sweeps reserved for the CLI.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product

from .calculus import (
    CHART_X,
    CHART_Y,
    TensorSection,
    coeff_a,
    coeff_a_level,
    coeff_a_recurrence,
    standard_operator_basis,
    symbol,
    tensor_to_operator,
    transform_term,
)
from .engine import (h1_tensor, kernel_section_check, lattice_order_check,
                     summand_count_check, verify_splitting)
from .errors import InvariantViolation
from .lifting import lift_by_schedule, lift_by_solve, sample_kernel_section
from .linalg import (
    AbelianPGroup,
    CokernelSolver,
    IntegerMatrix,
    cokernel_invariants,
    cyclic_quotient_dominates,
    det,
    quotient_by_cyclic,
    vp,
)
from .localdata import (
    PointLift,
    coords_degree,
    coords_le,
    local_data_operator,
    local_data_tensor,
    moduli_exponents,
    operator_matrix,
    q_d_matrix,
)

# the enumeration oracle runs where p^ord(a) * (max exponent + 1) is at most this
ENUMERATION_BUDGET = 2000
LIFT_SAMPLES = 100  # sampled sections per (p, d) in the lift suite


class SuiteResult:
    """One suite's tally: checks run and the messages of those that failed."""

    __slots__ = ("name", "checks", "failures")

    def __init__(self, name: str, checks: int = 0, failures: list = None):
        self.name = name
        self.checks = checks
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def summary(self) -> str:
        verdict = "pass" if self.passed else f"FAIL ({len(self.failures)})"
        return f"suite {self.name}: {self.checks} checks, {verdict}"


# ---------------------------------------------------------------------------
# pieces reused by the acceptance tests
# ---------------------------------------------------------------------------

def _torsion_profile_to_invariants(torsion_vp, n_max):
    ge_counts = [torsion_vp[k] - torsion_vp[k - 1] for k in range(1, n_max + 1)]
    out = []
    for k in range(1, n_max + 1):
        mult = ge_counts[k - 1] - (ge_counts[k] if k < n_max else 0)
        out.extend([k] * mult)
    return tuple(out)


def quotient_invariants_by_counting(p, exponents, a):
    """Torsion-counting oracle for ((+) Z/p^{n_j})/<a>; no normal forms.

    |(A/<a>)[p^k]| is the number of x with p^k x in <a>, divided by ord(a);
    per coordinate, p^k x_j = lam a_j (mod p^{n_j}) constrains lam modulo
    cap_j / gcd(a_j, cap_j) with cap_j = p^min(k, n_j) and contributes cap_j
    solutions, so the count is prod_j cap_j / max_j (cap_j/gcd(a_j, cap_j)).
    Pure gcd arithmetic; usable at any group order.
    """
    from math import gcd

    mods = [p ** n for n in exponents]
    a = [ai % m for ai, m in zip(a, mods)]
    n_max = max(exponents) if exponents else 0
    torsion_vp = [0]
    for k in range(1, n_max + 1):
        cap_sum = 0
        lam_constraint = 1
        for ai, n in zip(a, exponents):
            cap = p ** min(k, n)
            cap_sum += min(k, n)
            lam_constraint = max(lam_constraint, cap // gcd(ai, cap))
        torsion_vp.append(cap_sum - vp(lam_constraint, p) if lam_constraint > 1
                          else cap_sum)
    return _torsion_profile_to_invariants(torsion_vp, n_max)


def quotient_invariants_by_enumeration(p, exponents, a):
    """Same multiset by literally enumerating <a> and the solution counts.

    p^k x = s has prod_j p^min(k, n_j) solutions x when p^k divides every
    coordinate of s, and none otherwise.  So one walk over <a> fills a
    histogram of g(s) = gcd(p^n_max, s_1, ..., s_r), and the count for each
    k is read off the histogram: the elements with p^k | g(s).  Only
    sensible for small ord(a); the counting oracle above is checked against
    this one where feasible and used alone beyond that.
    """
    from collections import Counter
    from itertools import repeat
    from math import gcd

    mods = [p ** n for n in exponents]
    a = [ai % m for ai, m in zip(a, mods)]
    ord_exp = 0
    for ai, n in zip(a, exponents):
        if ai:
            ord_exp = max(ord_exp, n - vp(ai, p))
    n_max = max(exponents) if exponents else 0
    order = p ** ord_exp
    columns = [[(lam * ai) % m for lam in range(order)] for ai, m in zip(a, mods)]
    hist = Counter(map(gcd, repeat(p ** n_max, order), *columns))
    torsion_vp = []
    for k in range(n_max + 1):
        total = sum(c for g, c in hist.items() if g % p ** k == 0)
        total *= p ** sum(min(k, n) for n in exponents)
        torsion_vp.append(vp(total, p) - ord_exp)
    return _torsion_profile_to_invariants(torsion_vp, n_max)


def group_shapes(max_factors: int, max_exponent: int, max_vp=None):
    """All invariant-exponent multisets within the bounds, ascending; with
    max_vp, only those of a group whose order is at most p^max_vp."""
    shapes = [()]
    for r in range(1, max_factors + 1):
        shapes.extend(tuple(c) for c in
                      combinations_with_replacement(range(1, max_exponent + 1), r))
    if max_vp is not None:
        shapes = [s for s in shapes if sum(s) <= max_vp]
    return shapes


def sweep_cyclic_quotients(p, shapes, result: SuiteResult, cross_validate: bool):
    for shape in shapes:
        group = AbelianPGroup(p, shape)
        mods = [p ** n for n in shape]
        for a in product(*[range(m) for m in mods]):
            q = quotient_by_cyclic(group, a)
            result.record(cyclic_quotient_dominates(group, q),
                          f"domination fails: p={p}, A={shape}, a={a}")
            if cross_validate:
                want = quotient_invariants_by_counting(p, shape, a)
                result.record(q.exponents == want,
                              f"quotient mismatch: p={p}, A={shape}, a={a}: "
                              f"p-local {q.exponents} vs counting {want}")
                ord_exp = max((n - vp(ai, p) for ai, n in zip(a, shape) if ai),
                              default=0)
                if p ** ord_exp * (max(shape, default=0) + 1) <= ENUMERATION_BUDGET:
                    slow = quotient_invariants_by_enumeration(p, shape, a)
                    result.record(want == slow,
                                  f"oracle disagreement: p={p}, A={shape}, a={a}: "
                                  f"counting {want} vs enumeration {slow}")


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------

def suite_linalg(seed: int = 0) -> SuiteResult:
    result = SuiteResult("linalg")
    rng = random.Random(seed)

    for k in range(50):
        p = rng.choice((2, 3, 5))
        rows_n, cols_n = rng.randint(1, 4), rng.randint(1, 4)
        moduli = tuple(rng.randint(1, 3) for _ in range(rows_n))
        m = IntegerMatrix.from_rows([[rng.randint(-p ** 3, p ** 3) for _ in range(cols_n)]
                                     for _ in range(rows_n)])
        coker = cokernel_invariants(m, moduli, p)
        basis = CokernelSolver(m, moduli, p).kernel_basis()
        index = abs(det(IntegerMatrix.from_rows(basis)))
        result.record(index == p ** (sum(moduli) - coker.order_vp),
                      f"order identity fails on random cokernel #{k}")

    # quotient oracle: every group of order <= p^8 with <= 4 factors gets the
    # domination postcondition plus counting/enumeration cross-validation; the
    # domination check then extends to all shapes with exponents <= 3
    for p in (2, 3):
        sweep_cyclic_quotients(p, group_shapes(4, 8, max_vp=8), result,
                               cross_validate=True)
        rest = [s for s in group_shapes(4, 3) if sum(s) > 8]
        sweep_cyclic_quotients(p, rest, result, cross_validate=False)
    return result


def suite_coeffs(seed: int = 0) -> SuiteResult:
    result = SuiteResult("coeffs")
    for s in range(1, 61):
        for t in range(1, s + 1):
            result.record(coeff_a(s, t) == coeff_a_recurrence(s, t),
                          f"closed form != recurrence at (s,t)=({s},{t})")

    def involution(coeff, tag):
        for s in range(1, 31):
            for u in range(1, s + 1):
                total = sum((-1) ** t * coeff(s, t) * coeff(t, u)
                            for t in range(u, s + 1))
                want = (-1) ** s if u == s else 0
                result.record(total == want, f"{tag} involution fails at ({s},{u})")

    involution(coeff_a, "level-0")
    for p in (2, 3, 5):
        for m in (1, 2):
            involution(lambda s, t: coeff_a_level(s, t, p, m), f"(p={p}, m={m})")

    for p in (2, 3, 5, 7):
        for m in range(4):
            for s in range(1, 61):
                for t in range(1, s + 1):
                    try:
                        coeff_a_level(s, t, p, m)
                        result.record(True, "")
                    except Exception as exc:  # InvariantViolation is the failure mode
                        result.record(False, f"integrality: ({s},{t},{p},{m}): {exc}")

    for p, m in ((2, 0), (3, 1), (5, 2)):
        for k in range(13):
            for i in range(min(k + 2, 13)):
                once = transform_term(CHART_Y, i, k, p, m)
                back = {}
                for (ii, kk), c in once.items():
                    for key, cc in transform_term(CHART_X, ii, kk, p, m, c).items():
                        back[key] = back.get(key, 0) + cc
                result.record({key: c for key, c in back.items() if c} == {(i, k): 1},
                              f"transform involution fails at (i={i}, k={k}, p={p}, m={m})")
    return result


def q_d_matrix_by_columns(p: int, d: int, lifts: PointLift = None) -> IntegerMatrix:
    """The degree-d local-data matrix built one basis section at a time.

    An oracle for q_d_matrix, which reads Pascal rows instead: each column
    is the local_data_tensor vector of one standard basis section.
    """
    units = [TensorSection.from_coordinates(p, d, 0, [int(c == n) for c in range(2 * d + 1)])
             for n in range(2 * d + 1)]
    columns = [local_data_tensor(delta, lifts).vector() for delta in units]
    return IntegerMatrix.from_rows([list(row) for row in zip(*columns)])


def operator_matrix_by_columns(p: int, d: int, m: int = 0):
    """The full local-data matrix built one basis operator at a time.

    An oracle for operator_matrix, which writes its columns in closed form
    instead: column n is the local_data_operator vector of the n-th operator
    of standard_operator_basis(p, d, m).  Returns (matrix, moduli exponents)
    as operator_matrix does.
    """
    ops = standard_operator_basis(p, d, m)
    coords = coords_le(p, d)
    index = {c: r for r, c in enumerate(coords)}
    rows = [{} for _ in coords]
    for n, op in enumerate(ops):
        for c, x in local_data_operator(op).entries.items():
            rows[index[c]][n] = x
    return IntegerMatrix(len(ops), rows), moduli_exponents(coords)


def suite_localdata(seed: int = 0) -> SuiteResult:
    result = SuiteResult("localdata")
    rng = random.Random(seed)

    for p in (2, 3, 5):
        shifted = PointLift(p, tuple(a + p * rng.randint(1, 3) for a in range(p)))
        for d in range(1, 5):
            m0, mod0 = q_d_matrix(p, d)
            m1, mod1 = q_d_matrix(p, d, lifts=shifted)
            # folded into the (p, d) check, so the suite's check count is unchanged
            if (m0, m1) != (q_d_matrix_by_columns(p, d),
                            q_d_matrix_by_columns(p, d, shifted)):
                result.record(False, f"q_d_matrix differs from the column-wise "
                                     f"build at (p={p}, d={d})")
                continue
            if any(operator_matrix(p, d, m) != operator_matrix_by_columns(p, d, m)
                   for m in (0, 1)):
                result.record(False, f"operator_matrix differs from the column-wise "
                                     f"build at (p={p}, d={d})")
                continue
            # h1_tensor reads tensor_presentation, so both local-data
            # matrices are its oracle here
            same = (cokernel_invariants(m0, mod0, p) == cokernel_invariants(m1, mod1, p)
                    == h1_tensor(p, d))
            result.record(same, f"lift dependence or h1_tensor mismatch at (p={p}, d={d})")

    for p in (2, 3, 5):
        for d in range(1, 7):
            mods = [p ** e for e in moduli_exponents(coords_degree(p, d))]
            for k in range(200):
                delta = TensorSection(
                    p, d, 0,
                    tuple(rng.randint(-p ** d, p ** d) for _ in range(d)),
                    tuple(rng.randint(-p ** d, p ** d) for _ in range(d + 1)))
                top = local_data_operator(tensor_to_operator(delta)).degree_slice(d)
                result.record(top.entries == local_data_tensor(delta).entries,
                              f"degree-slice mismatch (p={p}, d={d}, #{k})")
                if k < 20:
                    other = TensorSection(
                        p, d, 0,
                        tuple(rng.randint(-p ** d, p ** d) for _ in range(d)),
                        tuple(rng.randint(-p ** d, p ** d) for _ in range(d + 1)))
                    lu = local_data_tensor(delta).vector()
                    lv = local_data_tensor(other).vector()
                    ls = local_data_tensor(delta.plus(other)).vector()
                    linear = all((a + b - s) % mm == 0
                                 for a, b, s, mm in zip(lu, lv, ls, mods))
                    result.record(linear, f"linearity fails (p={p}, d={d}, #{k})")
                    result.record(local_data_tensor(delta.scaled(p ** d)).is_zero,
                                  f"p^d multiple persists (p={p}, d={d}, #{k})")
    return result


def suite_splitting(seed: int = 0) -> SuiteResult:
    result = SuiteResult("splitting")
    for p in (2, 3, 5):
        for d in range(1, 7):
            result.record(verify_splitting(p, d),
                          f"splitting mismatch at (p={p}, d={d})")
    return result


def suite_lattice(seed: int = 0) -> SuiteResult:
    """The three engine lattice checks on the 40 cells p <= 11, d <= 8.

    The order identity holds the kernel lattice's index to the presentation's
    group and the graded sheaf's count; the section check holds one sum of its
    rows to zero local data.  Every cell has full F_p rank 2d+1, so the summand
    count reduces to num_factors == (p-1)d - 1 here; rank_mod_p itself is
    checked on rank-deficient input by the random-matrix tests.
    """
    result = SuiteResult("lattice")
    for p in (2, 3, 5, 7, 11):
        for d in range(1, 9):
            cell = f"(p={p}, d={d})"
            result.record(lattice_order_check(p, d), f"lattice order identity fails at {cell}")
            result.record(kernel_section_check(p, d),
                          f"kernel lattice has nonzero local data at {cell}")
            result.record(summand_count_check(p, d), f"summand count fails at {cell}")
    return result


def suite_lift(seed: int = 0) -> SuiteResult:
    result = SuiteResult("lift")
    for p in (2, 3, 5):
        for d in range(1, 7):
            for k in range(LIFT_SAMPLES):
                delta = sample_kernel_section(p, d, seed=seed + 1009 * k + 13 * p + d)
                label = f"(p={p}, d={d}, #{k})"
                try:
                    solved, _ = lift_by_solve(delta)
                    result.record(True, "")
                except (InvariantViolation, ValueError) as exc:
                    result.record(False, f"solve path {label}: {exc}")
                    continue
                sound = (symbol(solved, d).coordinates() == delta.coordinates()
                         and local_data_operator(solved).is_zero)
                result.record(sound, f"solve output unsound {label}")
                try:
                    scheduled, _ = lift_by_schedule(delta)
                    result.record(True, "")
                except InvariantViolation as exc:
                    result.record(False, f"schedule path {label}: {exc}")
                    continue
                diff = solved.minus(scheduled)
                result.record(
                    symbol(diff, d).is_zero and local_data_operator(diff).is_zero,
                    f"paths differ by a non-lift-of-zero {label}")
    return result


SUITES = {
    "linalg": suite_linalg,
    "coeffs": suite_coeffs,
    "localdata": suite_localdata,
    "splitting": suite_splitting,
    "lattice": suite_lattice,
    "lift": suite_lift,
}
