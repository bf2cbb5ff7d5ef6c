"""H^1 groups of the pushforward sheaves and the identities that check them.

The degree-d group is the cokernel of the degree-d local-data map on the
rank-(2d+1) tensor space.  That map does not depend on the level m, so each
degree-d group, its kernel lattice and its disk-cache entry are keyed by
(p, d) alone; m enters only verify_splitting, through the a^(m)
coefficients, and the level diagnostic.  h1_filtered alone reads or fills a
caller's disk cache (cache=), once per group and command; h1_tensor, a pure
memo, eliminates tensor_presentation, where the p finite points have
collapsed to Z[x]/(p, x^p - x)^d and only the d rows at infinity are left;
the local-data matrix q_d_matrix serves the oracles that check the
presentation.  Three lattice checks hold one (p, d) together: the kernel
index (kernel_index_vp: det on localdata.kernel_lattice), the local data of
one sum of that lattice's rows, and the summand count on the mod-p rank of
q_d_matrix, which only that count builds.  The degree <= d group is the
direct sum over degrees (the splitting), which verify_splitting recomputes
independently as one big cokernel on an explicit operator basis.  Side
identities: the guaranteed-torsion exponent floor((p-1)(d+1)/(p+1)), the
graded line-bundle dimensions max(0, 2d-i(p+1)+1) that account for the
kernel-lattice index, the summand count against the mod-p rank (a sparse
F_p elimination), and the level-lowering valuation
diagnostics built on v_p(d!/q_d!).

Invariant factors always come from the p-local elimination of
cokernel_invariants; a CokernelSolver, which replays the same elimination's
pivot log for its transforms, is built only for lifting's correction
solves.  The level diagnostic needs no
transform either: a class c of order p^e has ord(lam c) =
p^max(0, e - v_p(lam)), so the pushed and scheduled orders of a
maximal-order class follow from the group exponent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, log

from .calculus import TensorSection, q_level
from .errors import InvariantViolation
from .linalg import (
    AbelianPGroup,
    IntegerMatrix,
    cokernel_invariants,
    det,
    rank_mod_p,
    require_prime,
    vp,
)
from .localdata import (kernel_lattice, local_data_tensor, operator_matrix, q_d_matrix,
                        tensor_presentation)


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
    """Exact sign of r - log_p(d) for d >= 1, in integers only.

    Walks the continued fraction of log_p(d) = log_y(x), y = p and x = d:
    each term t is the largest with y^t <= x, and the rest is
    log_{x/y^t}(y).  log_p(d) lies between any two consecutive convergents,
    so the walk stops once r lies strictly outside them, or at the exact
    value when y^t = x.  It never builds p^a or d^b for r = a/b, whose b
    grows like p^m in the level diagnostic.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if d == 1:
        return (r > 0) - (r < 0)
    if r <= 0:
        return -1
    a, b = r.numerator, r.denominator

    def side(h, c):                    # sign of r - h/c, c >= 0
        return (a * c > h * b) - (a * c < h * b)

    xn, xd, yn, yd = d, 1, p, 1        # x = xn/xd and y = yn/yd, both > 1
    h0, c0, h1, c1 = 0, 1, 1, 0        # the two latest convergents h/c
    while True:
        t, tn, td = 0, 1, 1            # y^t = tn/td
        while tn * yn * xd <= xn * td * yd:
            t, tn, td = t + 1, tn * yn, td * yd
        h0, c0, h1, c1 = h1, c1, t * h1 + h0, t * c1 + c0
        # log_p(d) = h1/c1 exactly, or r on one side of both convergents
        # (consecutive convergents differ, so the sides are not both 0)
        if tn * xd == xn * td or side(h0, c0) == side(h1, c1):
            return side(h1, c1)
        xn, xd, yn, yd = yn, yd, xn * td, xd * tn


def exponent_lower_bound(p: int, d: int) -> int:
    """Guaranteed torsion exponent floor((p-1)(d+1)/(p+1)) in degree d."""
    if d < 1:
        raise ValueError("need d >= 1")
    return (p - 1) * (d + 1) // (p + 1)


def summand_count(p: int, d: int) -> int:
    """(p-1)d - 1 invariant factors in degree d: (p+1)d rows less the full F_p
    rank 2d+1 (a kernel vector mod p would be divisible by f^d)."""
    return (p - 1) * d - 1


def graded_piece_dim(p: int, d: int, i: int) -> int:
    """F_p-dimension of global sections of O(2d - i(p+1)) on the special fiber."""
    if not 1 <= i <= d:
        raise ValueError("need 1 <= i <= d")
    return max(0, 2 * d - i * (p + 1) + 1)


def h1_order_vp(p: int, d: int) -> int:
    """v_p of the order of the degree-d group: v_p|Q_d| = (p+1)d(d+1)/2 less
    the graded kernel index d(2d+1) - sum_i graded_piece_dim(p, d, i), as
    lattice_order_check holds each computed group and the disk cache each
    entry to."""
    graded = sum(graded_piece_dim(p, d, i) for i in range(1, d + 1))
    return (p + 1) * d * (d + 1) // 2 - d * (2 * d + 1) + graded


@lru_cache(maxsize=None)
def h1_tensor(p: int, d: int) -> AbelianPGroup:
    """Degree-d summand: cokernel of the 2d+1 tensor sections inside Q_d, read
    off its presentation with d nonzero rows (tensor_presentation checks p, d)."""
    return cokernel_invariants(*tensor_presentation(p, d), p)


class H1Report:
    """Per-degree groups up to d, their direct sum, and the exponent bounds.
    Immutable after construction."""

    __slots__ = ("p", "d", "per_degree", "bounds", "bound_met", "bound_equal")

    def __init__(self, p: int, d: int, per_degree: tuple, bounds: tuple,
                 bound_met: tuple, bound_equal: tuple):
        self.p = p
        self.d = d
        self.per_degree = per_degree    # AbelianPGroup for d' = 1..d
        self.bounds = bounds            # exponent_lower_bound(p, d') per degree
        self.bound_met = bound_met      # max exponent >= bound
        self.bound_equal = bound_equal  # max exponent == bound (observed, reported not asserted)

    def __eq__(self, other) -> bool:
        return isinstance(other, H1Report) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @property
    def total(self) -> AbelianPGroup:
        """The direct sum of per_degree, built when read: level_descent_diagnostic
        reads only the degrees."""
        return AbelianPGroup(self.p, tuple(n for g in self.per_degree for n in g.exponents))


def h1_filtered(p: int, d: int, *, cache=None) -> H1Report:
    """Groups for all degrees d' <= d plus their direct sum (one table row).

    The one reader and writer of a DiskCache: each group is read from
    ``cache``, or computed by h1_tensor and written there.  The groups do
    not depend on the level, so neither does the report.
    """
    per_degree = []
    for dd in range(1, d + 1):
        stored = None if cache is None else cache.get(p, dd)
        group = h1_tensor(p, dd) if stored is None else AbelianPGroup(p, stored)
        if cache is not None and stored is None:
            cache.put(p, dd, group.exponents)
        per_degree.append(group)
    bounds = tuple(exponent_lower_bound(p, dd) for dd in range(1, d + 1))
    met = tuple(g.max_exponent >= b for g, b in zip(per_degree, bounds))
    equal = tuple(g.max_exponent == b for g, b in zip(per_degree, bounds))
    return H1Report(p, d, tuple(per_degree), bounds, met, equal)


def verify_splitting(p: int, d: int, m: int = 0) -> bool:
    """Direct degree <= d cokernel == direct sum of the degree summands.

    Takes the full local-data map on the (d+1)^2 standard basis operators of
    the order <= d global sections, written in closed form by
    operator_matrix off the Pascal columns and level rows, and compares its
    cokernel, computed in one shot, with the degree-by-degree answer
    assembled from h1_tensor.
    """
    direct = cokernel_invariants(*operator_matrix(p, d, m), p)
    return direct == h1_filtered(p, d).total


def kernel_index_vp(p: int, d: int) -> int:
    """v_p of the index of the vanishing-local-data lattice in Z^{2d+1}.

    The lattice is localdata.kernel_lattice(p, d), in Hermite form; det
    gives its index.
    """
    index = det(IntegerMatrix.from_rows(kernel_lattice(p, d)))
    if index == 0:
        raise InvariantViolation("kernel lattice is not full rank")
    v = vp(index, p)
    if abs(index) != p ** v:
        raise InvariantViolation("kernel lattice index is not a power of p")
    return v


def lattice_order_check(p: int, d: int) -> bool:
    """Order bookkeeping for the degree-d slice.

    (a) index exponent + sum of group exponents = v_p|Q_d| = (p+1)d(d+1)/2;
    (b) index exponent = d(2d+1) - sum_i dim H^0(O(2d - i(p+1))), the graded
        account of the vanishing-conditions lattice.
    (a) compares two independent routes, the p-local elimination of
    tensor_presentation (h1_tensor) and det of the monic graph's Hermite
    form (kernel_lattice); neither reads q_d_matrix, which the localdata
    suite and the tests check the presentation against.  (b) holds the
    index to the paper's associated graded sheaf.  Both read the index
    only, which a wrong sign in C keeps: kernel_section_check sees that.
    """
    idx = kernel_index_vp(p, d)
    order_vp = h1_order_vp(p, d)  # v_p|Q_d| less the graded index of (b)
    return (idx == (p + 1) * d * (d + 1) // 2 - order_vp  # (b)
            and h1_tensor(p, d).order_vp == order_vp)     # (a), given (b)


def kernel_section_check(p: int, d: int) -> bool:
    """sum_j (j+1) row_j of kernel_lattice(p, d) has zero local data, read
    point by point by local_data_tensor, not through the monic basis."""
    rows = kernel_lattice(p, d)
    coords = [sum((j + 1) * row[c] for j, row in enumerate(rows)) for c in range(2 * d + 1)]
    return local_data_tensor(TensorSection.from_coordinates(p, d, 0, coords)).is_zero


def summand_count_check(p: int, d: int) -> bool:
    """Number of invariant factors vs the mod-p rank of the degree-d matrix.

    The count must be (p+1)d - rank_{F_p}(M mod p); with a full-rank image
    (rank 2d+1) that is (p-1)d - 1.  The rank comes from an independent
    mod-p Gaussian elimination on sparse rows, not from the p-local one, run
    on the matrix of q_d_matrix(p, d), built here.  Every cell of the lattice
    suite (p <= 11, d <= 8) has the full rank 2d+1, so there the check reduces
    to num_factors == summand_count(p, d); the random-matrix tests of
    rank_mod_p are what check the elimination on rank-deficient input.
    """
    expected = (p + 1) * d - rank_mod_p(q_d_matrix(p, d)[0], p)
    return h1_tensor(p, d).num_factors == expected


SCHEDULES = {
    "sqrt": isqrt,
    "zero": lambda d: 0,
}


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
    Immutable after construction.
    """

    __slots__ = ("d", "max_exponent", "schedule_n", "vp_transition",
                 "scheduled_exponent", "pushed_exponent", "bound_value",
                 "bound_nonnegative", "bound_satisfied")

    def __init__(self, d: int, max_exponent: int, schedule_n: int,
                 vp_transition: int, scheduled_exponent: int, pushed_exponent: int,
                 bound_value: float, bound_nonnegative: bool, bound_satisfied: bool):
        self.d = d
        self.max_exponent = max_exponent    # group exponent of the degree-d summand
        self.schedule_n = schedule_n        # n_d
        self.vp_transition = vp_transition  # v_p(d!/q_d!)
        self.scheduled_exponent = scheduled_exponent
        self.pushed_exponent = pushed_exponent
        self.bound_value = bound_value
        self.bound_nonnegative = bound_nonnegative
        self.bound_satisfied = bound_satisfied


class LevelDiagnostic:
    """Rows for d = 1..d_max; level_descent_diagnostic refuses d_max < 1.
    Immutable after construction."""

    __slots__ = ("p", "m", "schedule", "rows")

    def __init__(self, p: int, m: int, schedule: str, rows: tuple):
        self.p = p
        self.m = m
        self.schedule = schedule
        self.rows = rows

    def pushed_exponents(self) -> list:
        return [r.pushed_exponent for r in self.rows]

    @property
    def grew(self) -> bool:
        """Whether the pushed-class exponent exceeded its d = 1 value in range."""
        exps = self.pushed_exponents()
        return max(exps) > exps[0]

    def trend_note(self) -> str:
        exps = self.pushed_exponents()
        if self.p == 2:
            return ("p = 2: the growth coefficient (p^2-3p)/(p^2-1) is negative; "
                    "table reported without any divergence claim")
        drops = sum(1 for a, b in zip(exps, exps[1:]) if b < a)
        verdict = "exceeds" if self.grew else "does not exceed"
        return (f"pushed-class order exponent starts at {exps[0]}, peaks at "
                f"{max(exps)}, ends at {exps[-1]} ({drops} local drops); "
                f"peak {verdict} the d=1 value")


# the level diagnostic builds p^k for k <= this + bitlen(d(p^2-1)) only
_LEVEL_CAP_BITS = 1100


def _bound_sign(r0: Fraction, x: int, p: int, d: int, m: int, k: int) -> int:
    """Sign of r_m - x - log_p(d), r_m = r0 + d/((p-1)p^m), read at a level
    k <= m: it is the sign at k when k = m or when that is -1 (r_m < r_k),
    +1 when r0 - x >= log_p(d) (r_m > r0), and only otherwise compared at
    p^m itself."""
    s = cmp_rational_logp(r0 - x + Fraction(d, (p - 1) * p ** k), p, d)
    if k == m or s < 0:
        return s
    if cmp_rational_logp(r0 - x, p, d) >= 0:
        return 1
    return cmp_rational_logp(r0 - x + Fraction(d, (p - 1) * p ** m), p, d)


def level_descent_diagnostic(p: int, m: int, d_max: int,
                             schedule: str = "sqrt", cache=None) -> LevelDiagnostic:
    """Track orders of maximal-torsion classes pushed from level 0 to level m.

    For each d a class c_d of maximal order p^e in the degree-d group (e its
    group exponent) is scaled by the transition factor lam = d!/q_d! and by
    the schedule damping p^{n_d}.  Scaling by lam lowers an order exponent by
    v_p(lam) and stops at 0, so the exact order exponents are
    max(0, e - v_p(lam)) and max(0, e - v_p(lam) - n_d); no class or
    transform is materialized.  The bound column is the analytic expression
    r_m - log_p(d), r_m = ((p^2-3p)/(p^2-1) + 1/((p-1)p^m)) d - n_d - 2.

    Write r_m = r0 + d/((p-1)p^m).  p^k is built only up to the level
    k = min(m, _LEVEL_CAP_BITS + bitlen(d(p^2-1))); for m <= k that is r_m
    itself.  Past it, d/((p-1)p^k) < 2^-1075/(p^2-1), while r0's denominator
    divides p^2-1 and every double and rounding midpoint is a multiple of
    2^-1075, so no rounding boundary lies in (r0, r_k] and float(r_m) =
    float(r_k).  The two signs come from _bound_sign, which compares at p^m
    only when log_p(d) lies within 2^-1075 above r0 - x.
    """
    require_prime(p)
    if m < 0 or d_max < 1:
        raise ValueError("need m >= 0 and d_max >= 1")
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    n_of = SCHEDULES[schedule]
    slope = Fraction(p * p - 3 * p, p * p - 1)
    groups = h1_filtered(p, d_max, cache=cache).per_degree
    rows = []
    for d, group in enumerate(groups, start=1):
        max_exp = group.max_exponent
        n_d = n_of(d)
        vp_lam = legendre_vp(d, p) - legendre_vp(q_level(d, p, m), p)
        pushed = max(0, max_exp - vp_lam)
        scheduled = max(0, pushed - n_d)
        r0 = slope * d - n_d - 2
        k = min(m, _LEVEL_CAP_BITS + (d * (p * p - 1)).bit_length())
        nonneg = _bound_sign(r0, 0, p, d, m, k) >= 0
        satisfied = (not nonneg) or _bound_sign(r0, scheduled, p, d, m, k) <= 0
        r = r0 + Fraction(d, (p - 1) * p ** k)
        rows.append(LevelRow(
            d=d, max_exponent=max_exp, schedule_n=n_d, vp_transition=vp_lam,
            scheduled_exponent=scheduled, pushed_exponent=pushed,
            bound_value=float(r) - log(d, p), bound_nonnegative=nonneg,
            bound_satisfied=satisfied))
    return LevelDiagnostic(p, m, schedule, tuple(rows))
