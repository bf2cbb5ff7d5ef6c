"""H^1 groups of the pushforward sheaves and the identities that check them.

The degree-d group is the cokernel of the degree-d local-data map on the
rank-(2d+1) tensor space; the degree <= d group is the direct sum over
degrees (the splitting), which verify_splitting recomputes independently as
one big cokernel on an explicit operator basis.  Side identities: the
guaranteed-torsion exponent floor((p-1)(d+1)/(p+1)), the graded line-bundle
dimensions max(0, 2d-i(p+1)+1) that account for the kernel-lattice index, the
summand count against the mod-p rank, and the level-lowering valuation
diagnostics built on v_p(d!/q_d!).

Invariant factors always come from the untracked Smith form
(cokernel_invariants); a tracked CokernelSolver is built only where its
transforms are read (the kernel lattice here, sections and corrections in
lifting).  The level diagnostic needs no transform either: a class c of
order p^e has ord(lam c) = p^max(0, e - v_p(lam)), so the pushed and
scheduled orders of a maximal-order class follow from the group exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, log

from .calculus import q_level, standard_operator_basis, symbol
from .errors import InvariantViolation
from .linalg import (
    AbelianPGroup,
    CokernelSolver,
    IntegerMatrix,
    cokernel_invariants,
    det,
    is_prime,
    rank_mod_p,
)
from .localdata import operator_matrix, q_d_matrix


def legendre_vp(n: int, p: int) -> int:
    """v_p(n!) by the Legendre sum of floor(n/p^i)."""
    if n < 0:
        raise ValueError("need n >= 0")
    total = 0
    q = n // p
    while q:
        total += q
        q //= p
    return total


def cmp_rational_logp(r: Fraction, p: int, d: int) -> int:
    """Exact sign of r - log_p(d) for d >= 1, via integer power comparison."""
    if d < 1:
        raise ValueError("need d >= 1")
    if d == 1:
        return (r > 0) - (r < 0)
    if r <= 0:
        return -1
    a, b = r.numerator, r.denominator
    lhs = p ** a
    rhs = d ** b
    return (lhs > rhs) - (lhs < rhs)


def exponent_lower_bound(p: int, d: int) -> int:
    """Guaranteed torsion exponent floor((p-1)(d+1)/(p+1)) in degree d."""
    if d < 1:
        raise ValueError("need d >= 1")
    return (p - 1) * (d + 1) // (p + 1)


def graded_piece_dim(p: int, d: int, i: int) -> int:
    """F_p-dimension of global sections of O(2d - i(p+1)) on the special fiber."""
    if not 1 <= i <= d:
        raise ValueError("need 1 <= i <= d")
    return max(0, 2 * d - i * (p + 1) + 1)


@lru_cache(maxsize=None)
def degree_solver(p: int, d: int, m: int = 0) -> CokernelSolver:
    """Cached tracked solver for the degree-d tensor local-data map.

    Only for callers that read its transforms (kernel bases); the group
    itself is h1_tensor's.
    """
    mat, moduli = q_d_matrix(p, d, m)
    return CokernelSolver(mat, moduli, p)


_disk_cache = None


def use_disk_cache(cache) -> None:
    """Install (or clear, with None) an on-disk (p, d, m) result cache."""
    global _disk_cache
    _disk_cache = cache
    h1_tensor.cache_clear()


@lru_cache(maxsize=None)
def h1_tensor(p: int, d: int, m: int = 0) -> AbelianPGroup:
    """Degree-d summand: cokernel of the 2d+1 tensor sections inside Q_d."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if d < 1:
        raise ValueError("need d >= 1")
    if m < 0:
        raise ValueError("need m >= 0")
    if _disk_cache is not None:
        stored = _disk_cache.get(p, d, m)
        if stored is not None:
            return AbelianPGroup(p, stored)
    group = cokernel_invariants(*q_d_matrix(p, d, m), p)
    if _disk_cache is not None:
        _disk_cache.put(p, d, m, group.exponents)
    return group


@dataclass(frozen=True)
class H1Report:
    """Per-degree groups up to d, their direct sum, and the exponent bounds."""

    p: int
    d: int
    m: int
    per_degree: tuple  # AbelianPGroup for d' = 1..d
    total: AbelianPGroup
    bounds: tuple      # exponent_lower_bound(p, d') per degree
    bound_met: tuple   # max exponent >= bound
    bound_equal: tuple  # max exponent == bound (observed, reported not asserted)

    def __post_init__(self):
        merged = []
        for g in self.per_degree:
            merged.extend(g.exponents)
        if tuple(sorted(merged)) != self.total.exponents:
            raise InvariantViolation("total group is not the union of the degree summands")


def h1_filtered(p: int, d: int, m: int = 0) -> H1Report:
    """Groups for all degrees d' <= d plus their direct sum (one table row)."""
    per_degree = tuple(h1_tensor(p, dd, m) for dd in range(1, d + 1))
    total = AbelianPGroup(p, tuple(n for g in per_degree for n in g.exponents))
    bounds = tuple(exponent_lower_bound(p, dd) for dd in range(1, d + 1))
    met = tuple(g.max_exponent >= b for g, b in zip(per_degree, bounds))
    equal = tuple(g.max_exponent == b for g, b in zip(per_degree, bounds))
    return H1Report(p, d, m, per_degree, total, bounds, met, equal)


def _assert_symbol_basis(ops, p: int, d: int, m: int) -> None:
    # order-k symbols must form a basis of the rank-(2k+1) tensor space
    from .calculus import OperatorSection

    by_order = {}
    for op in ops:
        for (chart, i, k), coeff in op.terms.items():
            if k >= 1:
                by_order.setdefault(k, []).append((chart, i, k, coeff))
    for k, terms in sorted(by_order.items()):
        cols = []
        for chart, i, kk, coeff in terms:
            single = OperatorSection(p, m, kk, {(chart, i, kk): coeff})
            cols.append(symbol(single, kk).coordinates())
        if len(cols) != 2 * k + 1:
            raise InvariantViolation(
                f"order-{k} spanning set has {len(cols)} members, need {2 * k + 1}")
        mat = IntegerMatrix.from_rows([[col[r] for col in cols]
                                       for r in range(2 * k + 1)])
        if abs(det(mat)) != 1:
            raise InvariantViolation(f"order-{k} symbols do not form a lattice basis")


def verify_splitting(p: int, d: int, m: int = 0) -> bool:
    """Direct degree <= d cokernel == direct sum of the degree summands.

    Builds the full local-data map on the explicit operator basis of the
    order <= d global sections and compares its cokernel, computed in one
    shot, with the degree-by-degree answer assembled from h1_tensor.
    """
    ops = standard_operator_basis(p, d, m)
    _assert_symbol_basis(ops, p, d, m)
    direct = cokernel_invariants(*operator_matrix(ops, p, d), p)
    return direct == h1_filtered(p, d, m).total


@lru_cache(maxsize=None)
def kernel_index_vp(p: int, d: int, m: int = 0) -> int:
    """v_p of the index of the vanishing-local-data lattice in Z^{2d+1}."""
    basis = degree_solver(p, d, m).kernel_basis()
    index = det(IntegerMatrix.from_rows(basis))
    if index == 0:
        raise InvariantViolation("kernel lattice is not full rank")
    index = abs(index)
    v = 0
    while index % p == 0:
        index //= p
        v += 1
    if index != 1:
        raise InvariantViolation("kernel lattice index is not a power of p")
    return v


def lattice_order_check(p: int, d: int) -> bool:
    """Order bookkeeping for the degree-d slice.

    (a) index exponent + sum of group exponents = v_p|Q_d| = (p+1)d(d+1)/2;
    (b) index exponent = d(2d+1) - sum_i dim H^0(O(2d - i(p+1))), the graded
        account of the vanishing-conditions lattice.
    """
    idx = kernel_index_vp(p, d)
    group = h1_tensor(p, d, 0)
    total_vp = (p + 1) * d * (d + 1) // 2
    graded = sum(graded_piece_dim(p, d, i) for i in range(1, d + 1))
    return idx + group.order_vp == total_vp and idx == d * (2 * d + 1) - graded


def summand_count_check(p: int, d: int) -> bool:
    """Number of invariant factors vs the mod-p rank of the degree-d matrix.

    The count must be (p+1)d - rank_{F_p}(M mod p); with a full-rank image
    (rank 2d+1) that is (p-1)d - 1.  The rank comes from an independent
    mod-p Gaussian elimination, not from the Smith form.
    """
    mat, _ = q_d_matrix(p, d)
    expected = (p + 1) * d - rank_mod_p(mat, p)
    return h1_tensor(p, d, 0).num_factors == expected


@dataclass(frozen=True)
class VpFactorialQuotient:
    """Exact v_p(d!/q_d!) against the closed upper bound."""

    d: int
    p: int
    m: int
    exact: int
    bound_value: float  # d/(p-1) - d/((p-1)p^m) + log_p(d) + 1
    within_bound: bool


def vp_factorial_quotient(d: int, p: int, m: int) -> VpFactorialQuotient:
    """Exact Legendre valuation of d!/q_d! and the analytic upper bound.

    The comparison 'exact <= rational + log_p(d)' is decided exactly by an
    integer power comparison; the float field is for display only.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    q = q_level(d, p, m)
    exact = legendre_vp(d, p) - legendre_vp(q, p)
    rational = Fraction(d, p - 1) - Fraction(d, (p - 1) * p ** m) + 1
    within = cmp_rational_logp(Fraction(exact) - rational, p, d) <= 0
    if not within:
        raise InvariantViolation(
            f"v_{p}({d}!/{q}!) = {exact} exceeds its analytic bound")
    return VpFactorialQuotient(d, p, m, exact,
                               float(rational) + log(d, p), within)


SCHEDULES = {
    "sqrt": isqrt,
    "zero": lambda d: 0,
}


@dataclass(frozen=True)
class LevelRow:
    """One degree of the level-lowering diagnostic.

    c_d is a class of maximal order p^{max_exponent} in the degree-d group.
    ``scheduled_exponent`` is the order exponent of (d!/q_d!) p^{n_d} c_d,
    the scheduled class pushed to level m; ``pushed_exponent`` drops the
    p^{n_d} damping and tracks the bare transition image (d!/q_d!) c_d.
    Since ord(lam c) = p^max(0, e - v_p(lam)) for c of order p^e, they are
    max(0, max_exponent - vp_transition) and max(0, pushed - schedule_n).
    The analytic lower bound applies to the scheduled quantity and carries a
    log_p(d) term, so bound_satisfied is decided by exact power comparison.
    """

    d: int
    max_exponent: int       # group exponent of the degree-d summand
    schedule_n: int         # n_d
    vp_transition: int      # v_p(d!/q_d!)
    scheduled_exponent: int
    pushed_exponent: int
    bound_value: float
    bound_nonnegative: bool
    bound_satisfied: bool


@dataclass(frozen=True)
class LevelDiagnostic:
    p: int
    m: int
    schedule: str
    rows: tuple

    def pushed_exponents(self) -> list:
        return [r.pushed_exponent for r in self.rows]

    def scheduled_exponents(self) -> list:
        return [r.scheduled_exponent for r in self.rows]

    @property
    def grew(self) -> bool:
        """Whether the pushed-class exponent exceeded its d = 1 value in range."""
        exps = self.pushed_exponents()
        return bool(exps) and max(exps) > exps[0]

    @property
    def all_bounds_satisfied(self) -> bool:
        return all(r.bound_satisfied for r in self.rows)

    def trend_note(self) -> str:
        exps = self.pushed_exponents()
        if self.p == 2:
            return ("p = 2: the growth coefficient (p^2-3p)/(p^2-1) is negative; "
                    "table reported without any divergence claim")
        if not exps:
            return "empty range"
        drops = sum(1 for a, b in zip(exps, exps[1:]) if b < a)
        verdict = "exceeds" if self.grew else "does not exceed"
        return (f"pushed-class order exponent starts at {exps[0]}, peaks at "
                f"{max(exps)}, ends at {exps[-1]} ({drops} local drops); "
                f"peak {verdict} the d=1 value")


def level_descent_diagnostic(p: int, m: int, d_max: int,
                             schedule: str = "sqrt") -> LevelDiagnostic:
    """Track orders of maximal-torsion classes pushed from level 0 to level m.

    For each d a class c_d of maximal order p^e in the degree-d group (e its
    group exponent) is scaled by the transition factor lam = d!/q_d! and by
    the schedule damping p^{n_d}.  Scaling by lam lowers an order exponent by
    v_p(lam) and stops at 0, so the exact order exponents are
    max(0, e - v_p(lam)) and max(0, e - v_p(lam) - n_d); no class or
    transform is materialized.  The bound column is the analytic expression
    ((p^2-3p)/(p^2-1) + 1/((p-1)p^m)) d - n_d - log_p(d) - 2.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if m < 0 or d_max < 1:
        raise ValueError("need m >= 0 and d_max >= 1")
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    n_of = SCHEDULES[schedule]
    coeff = Fraction(p * p - 3 * p, p * p - 1) + Fraction(1, (p - 1) * p ** m)
    rows = []
    for d in range(1, d_max + 1):
        max_exp = h1_tensor(p, d, 0).max_exponent
        n_d = n_of(d)
        vp_lam = legendre_vp(d, p) - legendre_vp(q_level(d, p, m), p)
        pushed = max(0, max_exp - vp_lam)
        scheduled = max(0, pushed - n_d)
        r = coeff * d - n_d - 2
        nonneg = cmp_rational_logp(r, p, d) >= 0
        satisfied = (not nonneg) or cmp_rational_logp(
            r - scheduled, p, d) <= 0
        rows.append(LevelRow(
            d=d, max_exponent=max_exp, schedule_n=n_d, vp_transition=vp_lam,
            scheduled_exponent=scheduled, pushed_exponent=pushed,
            bound_value=float(r) - log(d, p), bound_nonnegative=nonneg,
            bound_satisfied=satisfied))
    return LevelDiagnostic(p, m, schedule, tuple(rows))
