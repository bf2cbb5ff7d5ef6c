"""Two-chart calculus for tensor fields and differential operators on P^1.

Coordinates x, y with xy = 1 and the overlap identifications

    dx/dy:   d_y = -x^2 d_x,      d_y^s = (-1)^s sum_t a_{s,t} x^{s+t} d_x^t
    tensors: x^{s'} d_x^{(x)d} = (-1)^d y^{2d-s'} d_y^{(x)d}

where a_{s,t} = C(s,t)(s-1)!/(t-1)!.  At level m the order-k generator is the
divided power d^<k> = (q_k!/k!) d^k with q_k = floor(k/p^m); the transformation
coefficients become a_{s,t}^(m) = C(s-1,t-1) q_s!/q_t!, still integers, and all
stored coefficients stay integral because sections are kept in the scaled
basis throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .errors import InvariantViolation
from .linalg import is_prime

CHART_X = "x"
CHART_Y = "y"
CHARTS = (CHART_X, CHART_Y)


def coeff_a(s: int, t: int) -> int:
    """Chart-transformation coefficient a_{s,t} = C(s,t)(s-1)!/(t-1)!."""
    if not 1 <= t <= s:
        raise ValueError(f"need 1 <= t <= s, got t={t}, s={s}")
    return comb(s, t) * factorial(s - 1) // factorial(t - 1)


def coeff_a_recurrence(s: int, t: int) -> int:
    """Same numbers via a_{s+1,t} = a_{s,t-1} + (s+t) a_{s,t}; test oracle."""
    if not 1 <= t <= s:
        raise ValueError(f"need 1 <= t <= s, got t={t}, s={s}")
    row = [0, 1]  # a_{1,t} for t = 0, 1
    for cur in range(1, s):
        nxt = [0] * (cur + 2)
        for tt in range(1, cur + 2):
            prev_t = row[tt - 1] if tt - 1 <= cur else 0
            prev = row[tt] if tt <= cur else 0
            nxt[tt] = prev_t + (cur + tt) * prev
        row = nxt
    return row[t]


def q_level(d: int, p: int, m: int) -> int:
    """q with d = q p^m + r, 0 <= r < p^m."""
    if d < 0 or m < 0:
        raise ValueError("need d >= 0 and m >= 0")
    return d // p ** m


def coeff_a_level(s: int, t: int, p: int, m: int) -> int:
    """Level-m coefficient a^(m)_{s,t} = C(s-1,t-1) q_s!/q_t!.

    The equivalent rational form C(s,t)(s-1)!/(t-1)! * (q_s!/s!)/(q_t!/t!) is
    evaluated exactly alongside; a mismatch or residual denominator signals an
    implementation bug, never a data error.
    """
    if not 1 <= t <= s:
        raise ValueError(f"need 1 <= t <= s, got t={t}, s={s}")
    qs = q_level(s, p, m)
    qt = q_level(t, p, m)
    value = comb(s - 1, t - 1) * factorial(qs) // factorial(qt)
    rational = (Fraction(comb(s, t)) * factorial(s - 1) / factorial(t - 1)
                * Fraction(factorial(qs), factorial(s))
                / Fraction(factorial(qt), factorial(t)))
    if rational.denominator != 1 or rational.numerator != value:
        raise InvariantViolation(
            f"a^({m})_{{{s},{t}}} at p={p} is not the integer {value}: {rational}")
    return value


def _check_pm(p, m):
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if m < 0:
        raise ValueError("level m must be >= 0")


@dataclass(frozen=True)
class TensorSection:
    """Global section of the d-th tensor power of the tangent sheaf.

    A[s] multiplies y^s d_y^(x)d (0 <= s < d) and B[s'] multiplies
    x^{s'} d_x^(x)d (0 <= s' <= d); at level m the coefficients refer to the
    scaled basis (q_d!/d!) * monomial, so they are plain integers at every
    level and the level only tags the section.
    """

    p: int
    d: int
    m: int
    A: tuple
    B: tuple

    def __post_init__(self):
        _check_pm(self.p, self.m)
        if self.d < 1:
            raise ValueError("degree d must be >= 1")
        object.__setattr__(self, "A", tuple(int(a) for a in self.A))
        object.__setattr__(self, "B", tuple(int(b) for b in self.B))
        if len(self.A) != self.d or len(self.B) != self.d + 1:
            raise ValueError(
                f"need {self.d} A-coefficients and {self.d + 1} B-coefficients, "
                f"got {len(self.A)} and {len(self.B)}")

    @classmethod
    def zero(cls, p: int, d: int, m: int = 0) -> "TensorSection":
        return cls(p, d, m, (0,) * d, (0,) * (d + 1))

    @classmethod
    def from_coordinates(cls, p: int, d: int, m: int, coords) -> "TensorSection":
        coords = list(coords)
        if len(coords) != 2 * d + 1:
            raise ValueError(f"need 2d+1 = {2 * d + 1} coordinates")
        return cls(p, d, m, tuple(coords[:d]), tuple(coords[d:]))

    def coordinates(self) -> list:
        """(A_0..A_{d-1}, B_0..B_d), the standard rank-(2d+1) coordinates."""
        return list(self.A) + list(self.B)

    @property
    def is_zero(self) -> bool:
        return not any(self.A) and not any(self.B)

    def scaled(self, c: int) -> "TensorSection":
        return TensorSection(self.p, self.d, self.m,
                             tuple(c * a for a in self.A),
                             tuple(c * b for b in self.B))

    def plus(self, other: "TensorSection") -> "TensorSection":
        if (self.p, self.d, self.m) != (other.p, other.d, other.m):
            raise ValueError("sections live in different spaces")
        return TensorSection(self.p, self.d, self.m,
                             tuple(a + b for a, b in zip(self.A, other.A)),
                             tuple(a + b for a, b in zip(self.B, other.B)))


class OperatorSection:
    """Chart-tagged integer combination of monomials power^i * d^<k>, k <= d.

    Terms map (chart, power i, order k) -> coefficient with zero coefficients
    never stored.  A single monomial extends to all of P^1 exactly when
    i <= k+1, but the container admits any i >= 0: globality of the aggregate
    is a separate check (is_global_section) since cross-chart cancellation is
    allowed.
    """

    __slots__ = ("p", "m", "d", "terms")

    def __init__(self, p: int, m: int, d: int, terms=None):
        _check_pm(p, m)
        if d < 0:
            raise ValueError("degree bound must be >= 0")
        self.p = p
        self.m = m
        self.d = d
        clean = {}
        for (chart, i, k), coeff in (terms or {}).items():
            coeff = int(coeff)
            if coeff == 0:
                continue
            if chart not in CHARTS:
                raise ValueError(f"unknown chart {chart!r}")
            if not 0 <= k <= d:
                raise ValueError(f"order {k} outside 0..{d}")
            if i < 0:
                raise ValueError(f"power {i} must be >= 0")
            clean[(chart, i, k)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, p: int, m: int, d: int) -> "OperatorSection":
        return cls(p, m, d)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def plus(self, other: "OperatorSection") -> "OperatorSection":
        if (self.p, self.m) != (other.p, other.m):
            raise ValueError("operators live over different (p, m)")
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, 0) + c
        return OperatorSection(self.p, self.m, max(self.d, other.d), merged)

    def scaled(self, c: int) -> "OperatorSection":
        return OperatorSection(self.p, self.m, self.d,
                               {k: c * v for k, v in self.terms.items()})

    def minus(self, other: "OperatorSection") -> "OperatorSection":
        return self.plus(other.scaled(-1))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperatorSection)
                and (self.p, self.m, self.terms) == (other.p, other.m, other.terms))

    def __repr__(self) -> str:
        return f"OperatorSection(p={self.p}, m={self.m}, d={self.d}, {len(self.terms)} terms)"


@dataclass
class LaurentOperator:
    """One-chart operator with integer Laurent powers and integer
    coefficients; intermediate only."""

    chart: str
    coeffs: dict = field(default_factory=dict)  # (power i, order k) -> coeff

    def add(self, i: int, k: int, c) -> None:
        if not c:
            return
        key = (i, k)
        new = self.coeffs.get(key, 0) + c
        if new:
            self.coeffs[key] = new
        else:
            self.coeffs.pop(key, None)

    def min_power(self):
        return min((i for (i, _k) in self.coeffs), default=0)

    @property
    def is_regular(self) -> bool:
        return self.min_power() >= 0


def transform_term(chart: str, i: int, k: int, p: int, m: int,
                   coeff: int = 1) -> LaurentOperator:
    """Rewrite coeff * power^i * d^<k> of one chart in the opposite chart.

    Order 0 maps by power negation; order k >= 1 picks up the a^(m)
    coefficients and the sign (-1)^k.  Laurent powers may come out negative.
    """
    if chart not in CHARTS:
        raise ValueError(f"unknown chart {chart!r}")
    out = LaurentOperator(CHART_Y if chart == CHART_X else CHART_X)
    if k == 0:
        out.add(-i, 0, coeff)
        return out
    sign = -1 if k % 2 else 1
    for t in range(1, k + 1):
        out.add(k + t - i, t, sign * coeff_a_level(k, t, p, m) * coeff)
    return out


def operator_to_laurent(op: OperatorSection, chart: str) -> LaurentOperator:
    """Aggregate all terms of op into a single-chart Laurent operator."""
    out = LaurentOperator(chart)
    for (ch, i, k), coeff in op.terms.items():
        if ch == chart:
            out.add(i, k, coeff)
        else:
            moved = transform_term(ch, i, k, op.p, op.m, coeff)
            for (ii, kk), c in moved.coeffs.items():
                out.add(ii, kk, c)
    return out


def is_global_section(op: OperatorSection) -> bool:
    """Whether op extends to all of P^1: both chart aggregates are regular."""
    return (operator_to_laurent(op, CHART_X).is_regular
            and operator_to_laurent(op, CHART_Y).is_regular)


def tensor_to_operator(delta: TensorSection) -> OperatorSection:
    """Reinterpret the tensor section term-by-term as an order-d operator."""
    terms = {}
    for s, a in enumerate(delta.A):
        if a:
            terms[(CHART_Y, s, delta.d)] = a
    for sp, b in enumerate(delta.B):
        if b:
            terms[(CHART_X, sp, delta.d)] = b
    return OperatorSection(delta.p, delta.m, delta.d, terms)


def symbol(op: OperatorSection, d: int) -> TensorSection:
    """Top part: the order-d terms of op as a tensor section of degree d."""
    if op.d > d:
        raise ValueError(f"operator has degree bound {op.d} > {d}")
    a = [0] * d
    b = [0] * (d + 1)
    for (chart, i, k), coeff in op.terms.items():
        if k != d:
            continue
        if chart == CHART_Y:
            if i > d - 1:
                raise ValueError(f"order-{d} term y^{i} d_y^{d} has no tensor counterpart")
            a[i] += coeff
        else:
            if i > d:
                raise ValueError(f"order-{d} term x^{i} d_x^{d} has no tensor counterpart")
            b[i] += coeff
    return TensorSection(op.p, d, op.m, tuple(a), tuple(b))


def standard_operator_basis(p: int, d: int, m: int = 0, max_order=None) -> list:
    """The (k+1)+k monomials per order k: 1, x^{s'} d^<k> (s'<=k), y^s d^<k> (s<=k-1).

    Orders 0..max_order (default d); (d+1)^2 operators at full range, with
    order-k symbols running through the standard basis of the rank-(2k+1)
    degree-k tensor space.  Ordering is canonical for reproducible matrices.
    """
    if max_order is None:
        max_order = d
    ops = [OperatorSection(p, m, d, {(CHART_X, 0, 0): 1})]
    for k in range(1, max_order + 1):
        for sp in range(k + 1):
            ops.append(OperatorSection(p, m, d, {(CHART_X, sp, k): 1}))
        for s in range(k):
            ops.append(OperatorSection(p, m, d, {(CHART_Y, s, k): 1}))
    return ops
