"""Local data: images of sections and operators in the skyscraper quotients.

The degree <= d quotient splits over the p+1 rational points of the special
fiber; at a point a the (order k, power i) coordinate with i < k is a residue
modulo p^{k-i}.  Finite points use the shifted coordinate x_a = x - xi_a for a
chosen lift xi_a of a (canonically xi_a = a); infinity uses y directly.

Coordinate ordering is fixed everywhere: points 0, 1, ..., p-1, infinity, and
within a point (k, i) lexicographic with k ascending, then i ascending.  All
matrices, vectors and serialized documents follow this order bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .calculus import (
    CHART_X,
    CHART_Y,
    OperatorSection,
    TensorSection,
    operator_to_laurent,
)
from .linalg import IntegerMatrix, is_prime

INF = "inf"  # the point at infinity in coordinate keys


def points(p: int) -> list:
    return list(range(p)) + [INF]


def coords_degree(p: int, d: int) -> list:
    """(point, d, i) coordinates of the degree-d slice, canonical order."""
    return [(a, d, i) for a in points(p) for i in range(d)]


def coords_le(p: int, d: int) -> list:
    """(point, k, i) coordinates of the full degree <= d quotient."""
    return [(a, k, i) for a in points(p) for k in range(1, d + 1) for i in range(k)]


def moduli_exponents(coords) -> tuple:
    return tuple(k - i for (_a, k, i) in coords)


@dataclass(frozen=True)
class PointLift:
    """Integer lifts xi_a = lift of a, one per finite point; xi_a = a (mod p)."""

    p: int
    lifts: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        lifts = tuple(int(x) for x in self.lifts)
        if len(lifts) != self.p:
            raise ValueError(f"need {self.p} lifts, got {len(lifts)}")
        for a, xi in enumerate(lifts):
            if (xi - a) % self.p:
                raise ValueError(f"lift {xi} of {a} is not congruent mod {self.p}")
        object.__setattr__(self, "lifts", lifts)

    @classmethod
    def canonical(cls, p: int) -> "PointLift":
        return cls(p, tuple(range(p)))

    def __getitem__(self, a: int) -> int:
        return self.lifts[a]


@dataclass
class LocalDataVector:
    """Residues of one section/operator in the degree <= d quotient.

    ``entries`` maps (point, k, i) to the residue reduced into [0, p^{k-i});
    missing keys are zero.  ``degree_only`` marks vectors that carry just the
    k = d slice (the tensor case).
    """

    p: int
    d: int
    m: int
    entries: dict = field(default_factory=dict)
    degree_only: bool = False

    def coords(self) -> list:
        return coords_degree(self.p, self.d) if self.degree_only else coords_le(self.p, self.d)

    def residue(self, a, k: int, i: int) -> int:
        return self.entries.get((a, k, i), 0)

    def vector(self) -> list:
        return [self.entries.get(c, 0) for c in self.coords()]

    @property
    def is_zero(self) -> bool:
        return not any(self.entries.values())

    def nonzero_coordinates(self) -> list:
        return sorted(
            ((a, k, i) for (a, k, i), r in self.entries.items() if r),
            key=lambda c: (self.p if c[0] == INF else c[0], c[1], c[2]))

    def degree_slice(self, k: int) -> "LocalDataVector":
        sub = {key: r for key, r in self.entries.items() if key[1] == k}
        return LocalDataVector(self.p, k, self.m, sub, degree_only=True)


def _set_residue(entries, a, k, i, value, p):
    mod = p ** (k - i)
    r = value % mod
    if r:
        entries[(a, k, i)] = r
    else:
        entries.pop((a, k, i), None)


def local_data_tensor(delta: TensorSection, lifts: PointLift = None) -> LocalDataVector:
    """Degree-d slice of the local data of a tensor section.

    At infinity the coordinate (inf, d, i) is A_i mod p^{d-i}: the B-part
    contributes y-powers 2d-s' >= d only.  At a finite point the section is
    one polynomial P(x) = sum B_{s'} x^{s'} + (-1)^d sum A_s x^{2d-s} times
    d_x^(x)d; shifting x = x_a + xi_a and reading coefficients of x_a^i for
    i < d gives the residues.
    """
    p, d = delta.p, delta.d
    if lifts is None:
        lifts = PointLift.canonical(p)
    entries = {}
    for i in range(d):
        _set_residue(entries, INF, d, i, delta.A[i], p)
    poly = [0] * (2 * d + 1)
    for sp, b in enumerate(delta.B):
        poly[sp] += b
    sgn = -1 if d % 2 else 1
    for s, a_c in enumerate(delta.A):
        poly[2 * d - s] += sgn * a_c
    terms = [(n, c) for n, c in enumerate(poly) if c]
    for a in range(p):
        xi = lifts[a]
        for i in range(d):
            value = sum(c * comb(n, i) * xi ** (n - i) for n, c in terms if n >= i)
            _set_residue(entries, a, d, i, value, p)
    return LocalDataVector(p, d, delta.m, entries, degree_only=True)


def local_data_operator(op: OperatorSection, lifts: PointLift = None) -> LocalDataVector:
    """Full degree <= d local data of a global operator.

    Requires a global operator (is_global_section).  The operator is
    aggregated once per chart, and the regularity check reads the same two
    aggregates; at infinity the (inf, k, i) entry is the y-chart coefficient of
    y^i d_y^<k>, at a finite point the x-chart polynomial of each order is
    shifted by the lift and read off coefficientwise.  Divided-power bases at
    level m are identified with the level-0 coordinates, so residues land in
    the same Z/p^{k-i} lattice at every level.
    """
    p, d = op.p, op.d
    if lifts is None:
        lifts = PointLift.canonical(p)
    lx = operator_to_laurent(op, CHART_X)
    ly = operator_to_laurent(op, CHART_Y)
    if not (lx.is_regular and ly.is_regular):
        raise ValueError("operator is not a global section; local data undefined")
    entries = {}
    # aggregation already merged duplicate (i, k) keys, so plain set is safe
    for (i, k), c in ly.coeffs.items():
        if 1 <= k <= d and i < k:
            _set_residue(entries, INF, k, i, c, p)
    by_order = {}
    for (n, k), c in lx.coeffs.items():
        if 1 <= k <= d:
            by_order.setdefault(k, []).append((n, c))
    for a in range(p):
        xi = lifts[a]
        for k, terms in by_order.items():
            for i in range(k):
                value = sum(c * comb(n, i) * xi ** (n - i)
                            for n, c in terms if n >= i)
                _set_residue(entries, a, k, i, value, p)
    return LocalDataVector(p, d, op.m, entries, degree_only=False)


def tensor_basis(p: int, d: int, m: int = 0) -> list:
    """Standard basis of the rank-(2d+1) space: A_0..A_{d-1}, B_0..B_d."""
    out = []
    for s in range(d):
        a = [0] * d
        a[s] = 1
        out.append(TensorSection(p, d, m, tuple(a), (0,) * (d + 1)))
    for sp in range(d + 1):
        b = [0] * (d + 1)
        b[sp] = 1
        out.append(TensorSection(p, d, m, (0,) * d, tuple(b)))
    return out


def q_d_matrix(p: int, d: int, m: int = 0, lifts: PointLift = None):
    """Matrix of the degree-d local-data map on the standard tensor basis.

    Rows run over the (p+1)*d canonical degree-d coordinates, columns over
    A_0..A_{d-1}, B_0..B_d; returns (matrix, moduli exponents).  The divided
    power identification makes the matrix independent of the level m.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    coords = coords_degree(p, d)
    columns = [local_data_tensor(delta, lifts).vector()
               for delta in tensor_basis(p, d, m)]
    rows = [[col[r] for col in columns] for r in range(len(coords))]
    return IntegerMatrix.from_rows(rows), moduli_exponents(coords)


def operator_matrix(ops, p: int, d: int, lifts: PointLift = None):
    """Matrix of the full degree <= d local-data map on the given operators."""
    coords = coords_le(p, d)
    columns = [local_data_operator(op, lifts).vector() for op in ops]
    rows = [[col[r] for col in columns] for r in range(len(coords))]
    return IntegerMatrix.from_rows(rows), moduli_exponents(coords)
