"""Runnable property suites behind the CLI ``verify`` command.

Each suite sweeps one module's invariants at the documented bounds and
reports (checks run, failures); everything is deterministic given the seed.
The acceptance tests reuse the same functions at their own ranges, with the
heavyweight exhaustive sweeps reserved for the CLI.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product

from .calculus import (
    CHART_X,
    CHART_Y,
    LaurentOperator,
    TensorSection,
    coeff_a,
    coeff_a_level,
    coeff_a_recurrence,
    symbol,
    tensor_to_operator,
    transform_term,
)
from .engine import lattice_order_check, summand_count_check, verify_splitting
from .errors import ScheduleFailure, TheoremViolation
from .lifting import lift_by_schedule, lift_by_solve, sample_kernel_section
from .linalg import (
    AbelianPGroup,
    CokernelSolver,
    IntegerMatrix,
    cokernel_invariants,
    cyclic_quotient_dominates,
    det,
    mat_mul,
    quotient_by_cyclic,
    smith_normal_form,
    vp,
)
from .localdata import (
    PointLift,
    local_data_operator,
    local_data_tensor,
    moduli_exponents,
    coords_degree,
    q_d_matrix,
)


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def summary(self) -> str:
        verdict = "pass" if self.passed else f"FAIL ({len(self.failures)})"
        return f"suite {self.name}: {self.checks} checks, {verdict}, {self.seconds:.2f}s"


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        result.seconds = time.perf_counter() - t0
        return result
    return wrapper


# ---------------------------------------------------------------------------
# pieces reused by the acceptance tests
# ---------------------------------------------------------------------------

def _torsion_profile_to_invariants(torsion_vp, n_max):
    ge_counts = [torsion_vp[k] - torsion_vp[k - 1] for k in range(1, n_max + 1)]
    out = []
    for k in range(1, n_max + 1):
        mult = ge_counts[k - 1] - (ge_counts[k] if k < n_max else 0)
        out.extend([k] * mult)
    return tuple(sorted(out))


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

    Only sensible for small ord(a); the counting oracle above is checked
    against this one where feasible and used alone beyond that.
    """
    mods = [p ** n for n in exponents]
    a = [ai % m for ai, m in zip(a, mods)]
    ord_exp = 0
    for ai, n in zip(a, exponents):
        if ai:
            ord_exp = max(ord_exp, n - vp(ai, p))
    subgroup = [tuple((lam * ai) % m for ai, m in zip(a, mods))
                for lam in range(p ** ord_exp)]
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
        torsion_vp.append(vp(total, p) - ord_exp)
    return _torsion_profile_to_invariants(torsion_vp, n_max)


def group_shapes(max_factors: int, max_exponent: int, max_order_vp=None):
    """All invariant-exponent multisets within the bounds, ascending."""
    shapes = [()]
    for r in range(1, max_factors + 1):
        shapes.extend(tuple(c) for c in
                      combinations_with_replacement(range(1, max_exponent + 1), r))
    if max_order_vp is not None:
        shapes = [s for s in shapes if sum(s) <= max_order_vp]
    return shapes


def sweep_cyclic_quotients(p, shapes, result: SuiteResult, cross_validate: bool,
                           enumeration_budget: int = 2000):
    for shape in shapes:
        group = AbelianPGroup(p, shape)
        mods = [p ** n for n in shape]
        for a in product(*[range(m) for m in mods]):
            q = quotient_by_cyclic(group, list(a))
            ok = cyclic_quotient_dominates(group, list(a))
            result.record(ok, f"domination fails: p={p}, A={shape}, a={a}")
            if cross_validate:
                want = quotient_invariants_by_counting(p, shape, a)
                result.record(q.exponents == want,
                              f"quotient mismatch: p={p}, A={shape}, a={a}: "
                              f"snf {q.exponents} vs counting {want}")
                ord_exp = max((n - vp(ai, p) for ai, n in zip(a, shape) if ai),
                              default=0)
                if p ** ord_exp * (max(shape, default=0) + 1) <= enumeration_budget:
                    slow = quotient_invariants_by_enumeration(p, shape, a)
                    result.record(want == slow,
                                  f"oracle disagreement: p={p}, A={shape}, a={a}: "
                                  f"counting {want} vs enumeration {slow}")


def check_snf_round_trip(m: IntegerMatrix, result: SuiteResult, label: str):
    d, u, v = smith_normal_form(m)
    result.record(mat_mul(mat_mul(u, m), v) == d, f"{label}: U M V != D")
    result.record(abs(det(u)) == 1 and abs(det(v)) == 1,
                  f"{label}: transforms not unimodular")
    diag = [d[i, i] for i in range(min(m.rows, m.cols))]
    chain = all(b % a == 0 for a, b in zip(diag, diag[1:]) if a) and \
        all(b == 0 for a, b in zip(diag, diag[1:]) if a == 0)
    result.record(chain and all(x >= 0 for x in diag), f"{label}: bad divisor chain")


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------

@_timed
def suite_linalg(seed: int = 0, full_sweep: bool = True) -> SuiteResult:
    result = SuiteResult("linalg")
    rng = random.Random(seed)

    for p in (2, 3, 5):
        bound = p ** 6
        for k in range(60):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            m = IntegerMatrix(r, c, [rng.randint(-bound, bound) for _ in range(r * c)])
            check_snf_round_trip(m, result, f"random #{k} (p={p})")

    for k in range(50):
        p = rng.choice((2, 3, 5))
        rows_n, cols_n = rng.randint(1, 4), rng.randint(1, 4)
        moduli = tuple(rng.randint(1, 3) for _ in range(rows_n))
        m = IntegerMatrix(rows_n, cols_n,
                          [rng.randint(-p ** 3, p ** 3) for _ in range(rows_n * cols_n)])
        coker = cokernel_invariants(m, moduli, p)
        basis = CokernelSolver(m, moduli, p).kernel_basis()
        index = abs(det(IntegerMatrix.from_rows(basis)))
        result.record(index == p ** (sum(moduli) - coker.order_vp),
                      f"order identity fails on random cokernel #{k}")

    # quotient oracle: every group of order <= p^8 with <= 4 factors gets the
    # domination postcondition plus counting/enumeration cross-validation; the
    # full sweep extends the domination check to all shapes with exponents <= 3
    for p in (2, 3):
        sweep_cyclic_quotients(p, group_shapes(4, 8, max_order_vp=8), result,
                               cross_validate=True)
        if full_sweep:
            rest = [s for s in group_shapes(4, 3) if sum(s) > 8]
            sweep_cyclic_quotients(p, rest, result, cross_validate=False)
    return result


@_timed
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
                back = LaurentOperator(CHART_Y)
                for (ii, kk), c in once.coeffs.items():
                    for key, cc in transform_term(CHART_X, ii, kk, p, m, c).coeffs.items():
                        back.add(*key, cc)
                result.record(back.coeffs == {(i, k): 1},
                              f"transform involution fails at (i={i}, k={k}, p={p}, m={m})")
    return result


@_timed
def suite_localdata(seed: int = 0) -> SuiteResult:
    result = SuiteResult("localdata")
    rng = random.Random(seed)

    for p in (2, 3, 5):
        shifted = PointLift(p, tuple(a + p * rng.randint(1, 3) for a in range(p)))
        for d in range(1, 5):
            m0, mod0 = q_d_matrix(p, d)
            m1, mod1 = q_d_matrix(p, d, lifts=shifted)
            same = cokernel_invariants(m0, mod0, p) == cokernel_invariants(m1, mod1, p)
            result.record(same, f"lift dependence at (p={p}, d={d})")

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


@_timed
def suite_splitting(seed: int = 0) -> SuiteResult:
    result = SuiteResult("splitting")
    for p in (2, 3, 5):
        for d in range(1, 7):
            result.record(verify_splitting(p, d),
                          f"splitting mismatch at (p={p}, d={d})")
    return result


@_timed
def suite_lattice(seed: int = 0) -> SuiteResult:
    result = SuiteResult("lattice")
    for p in (2, 3, 5, 7, 11):
        for d in range(1, 9):
            result.record(lattice_order_check(p, d),
                          f"lattice order identity fails at (p={p}, d={d})")
            result.record(summand_count_check(p, d),
                          f"summand count fails at (p={p}, d={d})")
    return result


@_timed
def suite_lift(seed: int = 0, samples: int = 100) -> SuiteResult:
    result = SuiteResult("lift")
    for p in (2, 3, 5):
        for d in range(1, 7):
            for k in range(samples):
                delta = sample_kernel_section(p, d, seed=seed + 1009 * k + 13 * p + d)
                label = f"(p={p}, d={d}, #{k})"
                try:
                    solved = lift_by_solve(delta)
                    result.record(True, "")
                except (TheoremViolation, ValueError) as exc:
                    result.record(False, f"solve path {label}: {exc}")
                    continue
                sound = (symbol(solved, d).coordinates() == delta.coordinates()
                         and local_data_operator(solved).is_zero)
                result.record(sound, f"solve output unsound {label}")
                try:
                    scheduled = lift_by_schedule(delta)
                    result.record(True, "")
                except ScheduleFailure as exc:
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


def run_suites(names, seed: int = 0) -> list:
    """Run the named suites in the requested order."""
    return [SUITES[name](seed) for name in names]
