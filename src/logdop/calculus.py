"""Two-chart calculus for tensor fields and differential operators on P^1.

Coordinates x, y with xy = 1 and the overlap identifications

    dx/dy:   d_y = -x^2 d_x,      d_y^s = (-1)^s sum_t a_{s,t} x^{s+t} d_x^t
    tensors: x^{s'} d_x^{(x)d} = (-1)^d y^{2d-s'} d_y^{(x)d}

where a_{s,t} = C(s,t)(s-1)!/(t-1)!.  At level m the order-k generator is the
divided power d^<k> = (q_k!/k!) d^k with q_k = floor(k/p^m); the transformation
coefficients become a_{s,t}^(m) = C(s-1,t-1) q_s!/q_t!, still integers, and all
stored coefficients stay integral because sections are kept in the scaled
basis throughout.

A one-chart aggregate is a plain {(power, order): coefficient} dict with no
zero coefficient stored: transform_term moves one term to the other chart,
operator_to_laurent sums an operator in one chart, and is_global_section
asks that no power be negative in either.  They are the independent oracles
of localdata.local_data_operator, which reads both charts in one pass, and
of the coeffs suite's involution check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import InvariantViolation
from .linalg import require_prime

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
    """q with d = q p^m + r, 0 <= r < p^m.

    q is 0 once p^m > d, which holds for m >= d.bit_length() since p >= 2;
    that test comes first, so a huge level never builds p^m.
    """
    if d < 0 or m < 0:
        raise ValueError("need d >= 0 and m >= 0")
    if m >= d.bit_length():
        return 0
    return d // p ** m


@lru_cache(maxsize=256)
def _level_row(s: int, p: int, m: int) -> tuple:
    """Row (a^(m)_{s,1}, ..., a^(m)_{s,s}), each entry checked once, here.

    Each integer C(s-1,t-1) q_s!/q_t! is compared with the equivalent rational
    form C(s,t)(s-1)!/(t-1)! * (q_s!/s!)/(q_t!/t!); a mismatch or residual
    denominator signals an implementation bug, never a data error.
    """
    qs = q_level(s, p, m)
    row = []
    for t in range(1, s + 1):
        qt = q_level(t, p, m)
        value = comb(s - 1, t - 1) * factorial(qs) // factorial(qt)
        rational = (Fraction(comb(s, t)) * factorial(s - 1) / factorial(t - 1)
                    * Fraction(factorial(qs), factorial(s))
                    / Fraction(factorial(qt), factorial(t)))
        if rational.denominator != 1 or rational.numerator != value:
            raise InvariantViolation(
                f"a^({m})_{{{s},{t}}} at p={p} is not the integer {value}: {rational}")
        row.append(value)
    return tuple(row)


def coeff_a_level(s: int, t: int, p: int, m: int) -> int:
    """Level-m coefficient a^(m)_{s,t} = C(s-1,t-1) q_s!/q_t!, read from its
    checked row."""
    if not 1 <= t <= s:
        raise ValueError(f"need 1 <= t <= s, got t={t}, s={s}")
    return _level_row(s, p, m)[t - 1]


def _check_pm(p, m):
    require_prime(p)
    if m < 0:
        raise ValueError("level m must be >= 0")


def check_operator_space(p: int, m: int, d: int) -> None:
    """The refusals of OperatorSection(p, m, d) before it reads a term: a p
    that is not prime, then m < 0, then d < 0."""
    _check_pm(p, m)
    if d < 0:
        raise ValueError("degree bound must be >= 0")


def _int_tuple(values, what: str) -> tuple:
    """``values`` as a tuple of ints: a float, bool or string entry is
    refused, not truncated or read as a number."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} {x!r} is not an integer")
    return values


class TensorSection:
    """Global section of the d-th tensor power of the tangent sheaf.

    A[s] multiplies y^s d_y^(x)d (0 <= s < d) and B[s'] multiplies
    x^{s'} d_x^(x)d (0 <= s' <= d); at level m the coefficients refer to the
    scaled basis (q_d!/d!) * monomial, so they are plain integers at every
    level and the level only tags the section.  Immutable after construction.
    """

    __slots__ = ("p", "d", "m", "A", "B")

    def __init__(self, p: int, d: int, m: int, A: tuple, B: tuple):
        _check_pm(p, m)
        if d < 1:
            raise ValueError("degree d must be >= 1")
        A = _int_tuple(A, "coefficient")
        B = _int_tuple(B, "coefficient")
        if len(A) != d or len(B) != d + 1:
            raise ValueError(
                f"need {d} A-coefficients and {d + 1} B-coefficients, "
                f"got {len(A)} and {len(B)}")
        self.p = p
        self.d = d
        self.m = m
        self.A = A
        self.B = B

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorSection) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)

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
        check_operator_space(p, m, d)
        self.p = p
        self.m = m
        self.d = d
        clean = {}
        for (chart, i, k), coeff in (terms or {}).items():
            if type(coeff) is not int:
                raise ValueError(f"coefficient {coeff!r} is not an integer")
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


def transform_term(chart: str, i: int, k: int, p: int, m: int,
                   coeff: int = 1) -> dict:
    """Rewrite coeff * power^i * d^<k> of one chart in the opposite chart, as
    {(power, order): coefficient} with no zero coefficient stored.

    Order 0 maps by power negation; order k >= 1 picks up the a^(m)
    coefficients and the sign (-1)^k.  Laurent powers may come out negative.
    """
    if chart not in CHARTS:
        raise ValueError(f"unknown chart {chart!r}")
    if not coeff:
        return {}
    if k == 0:
        return {(-i, 0): coeff}
    c = -coeff if k % 2 else coeff
    return {(k + t - i, t): c * a
            for t, a in enumerate(_level_row(k, p, m), start=1)}


def operator_to_laurent(op: OperatorSection, chart: str) -> dict:
    """Aggregate all terms of op in one chart, as {(power, order): coefficient}
    with integer Laurent powers and no zero coefficient stored."""
    out = {}
    for (ch, i, k), coeff in op.terms.items():
        moved = ({(i, k): coeff} if ch == chart
                 else transform_term(ch, i, k, op.p, op.m, coeff))
        for key, c in moved.items():
            c += out.get(key, 0)
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def is_global_section(op: OperatorSection) -> bool:
    """Whether op extends to all of P^1: no power is negative in either
    chart's aggregate."""
    return all(i >= 0 for chart in CHARTS for i, _k in operator_to_laurent(op, chart))


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


def standard_basis_keys(d: int) -> list:
    """The (chart, power, order) keys of standard_operator_basis(p, d, m), in
    its order: (x, 0, 0), then per order k = 1..d the keys (x, s', k),
    s' <= k, and (y, s, k), s < k.  The one definition of that order, which
    localdata.operator_matrix's columns and lifting's corrections follow
    too; the first k^2 keys are standard_basis_keys(k - 1)."""
    keys = [(CHART_X, 0, 0)]
    for k in range(1, d + 1):
        keys += [(CHART_X, sp, k) for sp in range(k + 1)]
        keys += [(CHART_Y, s, k) for s in range(k)]
    return keys


def standard_operator_basis(p: int, d: int, m: int = 0) -> list:
    """The (k+1)+k monomials per order k: 1, x^{s'} d^<k> (s'<=k), y^s d^<k> (s<=k-1).

    Orders 0..d, the whole degree <= d operator space: (d+1)^2 operators,
    with order-k symbols running through the standard basis of the
    rank-(2k+1) degree-k tensor space.  Ordering is canonical
    (standard_basis_keys) for reproducible matrices.
    """
    return [OperatorSection(p, m, d, {key: 1}) for key in standard_basis_keys(d)]
