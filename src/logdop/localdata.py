"""Local data: images of sections and operators in the skyscraper quotients.

The degree <= d quotient splits over the p+1 rational points of the special
fiber; at a point a the (order k, power i) coordinate with i < k is a residue
modulo p^{k-i}.  Finite points use the shifted coordinate x_a = x - xi_a for a
chosen lift xi_a of a (canonically xi_a = a); infinity uses y directly.
The residues at a finite point are the coefficients of the Taylor shift of
the x-chart polynomial to x_a, by repeated synthetic division; the degree-d
matrix q_d_matrix is assembled from the Pascal rows C(n, i) xi_a^{n-i}
directly, one row per coordinate, without evaluating basis sections.
q_d_matrix is the map itself, read where its rows or its kernel lattice are
needed; the degree-d group is computed from tensor_presentation, where the
p finite points have collapsed to Z[x]/(p, x^p - x)^d and only the d rows
at infinity are left.  Each matrix is written as sparse rows, columns
ascending, the one form of linalg.IntegerMatrix.

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


def _taylor_shift(coefs, xi: int, upto: int) -> list:
    """b_0..b_{upto-1} with sum_n coefs[n] x^n = sum_i b_i (x - xi)^i.

    Repeated synthetic division by x - xi: pass i runs Horner's rule over the
    quotient the previous pass left and ends with b_i = sum_n c_n C(n, i)
    xi^{n-i} in slot i; only acc*xi + c steps, no binomials or powers.
    """
    c = list(coefs)
    while c and not c[-1]:
        c.pop()
    top = len(c) - 1
    if xi:
        for i in range(min(upto, top)):
            acc = c[top]
            for n in range(top - 1, i - 1, -1):
                acc = acc * xi + c[n]
                c[n] = acc
    return c[:upto] + [0] * (upto - len(c))


def _store(entries, a, k: int, values, p: int) -> None:
    """Record values[i] mod p^{k-i} at (a, k, i) for each i < k, skipping zeros."""
    mod = p ** k
    for i in range(k):
        r = values[i] % mod
        if r:
            entries[(a, k, i)] = r
        mod //= p


def _shifted_residues(entries, lifts: PointLift, k: int, poly, p: int) -> None:
    """Order-k residues at every finite point of the x-chart polynomial ``poly``.

    Coefficients and lifts are reduced mod p^k first: each residue is read
    mod p^{k-i}, which divides p^k, so the reduction is exact.
    """
    pk = p ** k
    poly = [c % pk for c in poly]
    for a in range(p):
        _store(entries, a, k, _taylor_shift(poly, lifts[a] % pk, k), p)


def local_data_tensor(delta: TensorSection, lifts: PointLift = None) -> LocalDataVector:
    """Degree-d slice of the local data of a tensor section.

    At infinity the coordinate (inf, d, i) is A_i mod p^{d-i}: the B-part
    contributes y-powers 2d-s' >= d only.  At a finite point the section is
    one polynomial P(x) = sum B_{s'} x^{s'} + (-1)^d sum A_s x^{2d-s} times
    d_x^(x)d; its Taylor shift to x = x_a + xi_a gives the coefficients of
    x_a^i, i < d, as the residues.
    """
    p, d = delta.p, delta.d
    if lifts is None:
        lifts = PointLift.canonical(p)
    entries = {}
    _store(entries, INF, d, delta.A, p)
    sgn = -1 if d % 2 else 1
    # B_{s'} sits at x^{s'} (s' <= d), A_s at x^{2d-s} (2d-s > d)
    poly = list(delta.B) + [sgn * a_c for a_c in reversed(delta.A)]
    _shifted_residues(entries, lifts, d, poly, p)
    return LocalDataVector(p, d, delta.m, entries, degree_only=True)


def local_data_operator(op: OperatorSection, lifts: PointLift = None) -> LocalDataVector:
    """Full degree <= d local data of a global operator.

    Requires a global operator (is_global_section).  The operator is
    aggregated once per chart, and the regularity check reads the same two
    aggregates; at infinity the (inf, k, i) entry is the y-chart coefficient of
    y^i d_y^<k>, at a finite point the x-chart polynomial of each order is
    Taylor-shifted by the lift and read off coefficientwise.  Divided-power
    bases at level m are identified with the level-0 coordinates, so residues
    land in the same Z/p^{k-i} lattice at every level.
    """
    p, d = op.p, op.d
    if lifts is None:
        lifts = PointLift.canonical(p)
    lx = operator_to_laurent(op, CHART_X)
    ly = operator_to_laurent(op, CHART_Y)
    if not (lx.is_regular and ly.is_regular):
        raise ValueError("operator is not a global section; local data undefined")
    entries = {}
    at_inf = {}
    for (i, k), c in ly.coeffs.items():
        if 1 <= k <= d and i < k:
            at_inf.setdefault(k, [0] * k)[i] = c
    for k, values in at_inf.items():
        _store(entries, INF, k, values, p)
    by_order = {}
    for (n, k), c in lx.coeffs.items():
        if 1 <= k <= d:
            poly = by_order.setdefault(k, [])
            if n >= len(poly):
                poly.extend([0] * (n + 1 - len(poly)))
            poly[n] = c  # aggregation already merged duplicate (n, k) keys
    for k, poly in by_order.items():
        _shifted_residues(entries, lifts, k, poly, p)
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


def _pascal_rows(xi: int, top: int, width: int) -> list:
    """Rows n = 0..top of C(n, i) xi^{n-i}, each cut to i < width (0 for i > n).

    Row n comes from row n-1 by Pascal's rule: its first entry is xi times
    the previous first entry, the middle ones xi*prev[i] + prev[i-1], and
    while i = n is inside the width the last entry is C(n, n) = 1.
    """
    row = [1]
    rows = [row]
    for _n in range(top):
        nxt = [xi * row[0]] + [xi * row[i] + row[i - 1] for i in range(1, len(row))]
        if len(nxt) < width:
            nxt.append(1)
        rows.append(nxt)
        row = nxt
    return rows


def q_d_matrix(p: int, d: int, lifts: PointLift = None):
    """Matrix of the degree-d local-data map on the standard tensor basis.

    Rows run over the (p+1)*d canonical degree-d coordinates, columns over
    A_0..A_{d-1}, B_0..B_d; returns (matrix, moduli exponents).  The basis
    section B_{s'} is the monomial x^{s'} and A_s is (-1)^d x^{2d-s} at the
    finite points, so the row (a, d, i) reads C(n, i) xi_a^{n-i} mod p^{d-i}
    off the Pascal rows of xi_a (reduced mod p^d, which is exact); the row
    (inf, d, i) is the unit vector at A_i.  The divided power identification
    makes the matrix independent of the level m, so it takes none.  Its
    cokernel is the degree-d group, which h1_tensor reads off the smaller
    tensor_presentation instead.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if lifts is None:
        lifts = PointLift.canonical(p)
    mods = [p ** (d - i) for i in range(d)]
    sgn = -1 if d % 2 else 1
    rows = []
    for a in range(p):
        pascal = _pascal_rows(lifts[a] % p ** d, 2 * d, d)
        for i, mod in enumerate(mods):
            values = ([sgn * pascal[2 * d - s][i] for s in range(d)]
                      + [pascal[sp][i] if i <= sp else 0 for sp in range(d + 1)])
            rows.append({k: x for k, v in enumerate(values) if (x := v % mod)})
    rows += [{i: 1} for i in range(d)]
    return IntegerMatrix(2 * d + 1, rows), moduli_exponents(coords_degree(p, d))


def tensor_presentation(p: int, d: int):
    """A presentation of the degree-d group with d rows that are not zero.

    Returns (matrix, moduli exponents) whose cokernel is isomorphic to that
    of q_d_matrix(p, d).  The tensor space is Z[x]_{<=2d}: B_{s'} is x^{s'}
    and A_s is (-1)^d x^{2d-s}.  At a finite point a the row (a, d, i) reads
    the i-th Taylor coefficient at xi_a mod p^{d-i}, so those rows together
    are the map to Z[x]/(p, x - xi_a)^d.  The p ideals (p, x - xi_a) are
    pairwise comaximal and prod_a (x - xi_a) = f = x^p - x mod p, so the p
    finite points together are Z[x]/(p, f)^d, whatever the lifts.

    Columns: the monic basis x^r f^k (0 <= r < p, pk + r <= 2d) of degree
    n = pk + r, n = 0..2d, a unimodular triangular change of the monomial
    columns.  Z[x] is free over Z[f] on x^0..x^{p-1}, and (p, f)^d is
    spanned by p^{d-k} x^r f^k for k < d and x^r f^k for k >= d, so the
    finite target is (+)_{r<p, k<d} Z/p^{d-k} and column (r, k) maps to the
    unit vector e_(r,k) there.  Eliminating those unit columns leaves:

    * a free summand Z/p^{d-k} for each (r, k) with k < d that no column
      reaches, i.e. each degree 2d < pk + r < pd; each is a zero row with
      modulus d - k, so that cokernel_invariants alone turns it into an
      invariant;
    * the d rows at infinity: row i < d, modulus p^{d-i}, reads the
      coefficient of x^{2d-i} (up to the unit (-1)^d), and column (r, k)
      carries p^{max(d-k, 0)} T_{i,(r,k)}, the relation p^{d-k} e_(r,k) = 0
      moved to infinity.  T_{i,(r,k)}, the coefficient of x^{2d-i} in
      x^r f^k, is (-1)^{k-j} C(k, j) when j = (2d-i-r-k)/(p-1) is an
      integer in [0, k], and 0 otherwise.

    The rows are the free summands by degree, then infinity by i; the 2d+1
    columns are by degree.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    width = 2 * d + 1
    free = tuple(d - n // p for n in range(width, p * d))
    at_inf = [{} for _ in range(d)]
    for n in range(width):
        k, r = divmod(n, p)
        scale = p ** max(d - k, 0)
        top = 2 * d - r - k  # x^r f^k reaches x^{2d-i} at i = top - j(p-1)
        for j in range(max(0, (top - d) // (p - 1) + 1), min(k, top // (p - 1)) + 1):
            i = top - j * (p - 1)
            at_inf[i][n] = (-1) ** (k - j) * comb(k, j) * scale
    return IntegerMatrix(width, [{} for _ in free] + at_inf), free + tuple(range(d, 0, -1))


def operator_matrix(ops, p: int, d: int, lifts: PointLift = None):
    """Matrix of the full degree <= d local-data map; column n is ops[n]."""
    coords = coords_le(p, d)
    index = {c: r for r, c in enumerate(coords)}
    rows = [{} for _ in coords]
    for n, op in enumerate(ops):
        for c, x in local_data_operator(op, lifts).entries.items():
            rows[index[c]][n] = x
    return IntegerMatrix(len(ops), rows), moduli_exponents(coords)
