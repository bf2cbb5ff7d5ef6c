"""Local data: images of sections and operators in the skyscraper quotients.

The degree <= d quotient splits over the p+1 rational points of the special
fiber; at a point a the (order k, power i) coordinate with i < k is a residue
modulo p^{k-i}.  Finite points use the shifted coordinate x_a = x - xi_a for a
lift xi_a of a; infinity uses y directly.  Operator local data is always
taken at xi_a = a.  A PointLift serves only local_data_tensor and q_d_matrix
(xi_a = a without one); it is bound to its p, and one for another prime is
refused.  The residues at a finite point are the coefficients of the Taylor
shift of the x-chart polynomial to x_a.  For a tensor section that shift
runs by repeated synthetic division; for an operator each residue is a dot
product of one order's coefficients with a Pascal column C(n, i) xi_a^{n-i},
and the y chart is read only where its entries can be nonzero at infinity
or negative (local_data_operator), the one general path and the only
place that takes such dot products.  Both standard-basis matrices read the
same memoized Pascal columns instead, without evaluating a basis element:
q_d_matrix its rows, one per degree-d coordinate, and operator_matrix its
columns, one per basis monomial of the whole degree <= d operator space,
with the level rows a^(m) for the y-chart monomials.
q_d_matrix is the map itself, read where its rows are needed (the mod-p
rank) and as the oracle the presentation is checked against; the degree-d
group is computed from tensor_presentation, where the p finite points have
collapsed to Z[x]/(p, x^p - x)^d and only the d rows at infinity are left;
kernel_lattice is one Hermite reduction of the graph of those d rows'
conditions on the columns x^r f^k, the finite rows being unit vectors.  The
expansion of x^r f^k in monomials lives in _monic_columns alone.  Each
matrix is written as sparse rows, columns ascending, the one form of
linalg.IntegerMatrix.

Coordinate ordering is fixed everywhere: points 0, 1, ..., p-1, infinity, and
within a point (k, i) lexicographic with k ascending, then i ascending.  All
matrices, vectors and serialized documents follow this order bit-exactly.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul

from .calculus import (
    CHART_X,
    OperatorSection,
    TensorSection,
    _int_tuple,
    _level_row,
    check_operator_space,
    standard_basis_keys,
)
from .linalg import IntegerMatrix, _hermite_basis, require_prime

INF = "inf"  # the point at infinity in coordinate keys
_NOT_GLOBAL = "operator is not a global section; local data undefined"


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


class PointLift:
    """Integer lifts xi_a = lift of a, one per finite point; xi_a = a (mod p).
    Immutable after construction."""

    __slots__ = ("p", "lifts")

    def __init__(self, p: int, lifts: tuple):
        require_prime(p)
        lifts = _int_tuple(lifts, "lift")
        if len(lifts) != p:
            raise ValueError(f"need {p} lifts, got {len(lifts)}")
        for a, xi in enumerate(lifts):
            if (xi - a) % p:
                raise ValueError(f"lift {xi} of {a} is not congruent mod {p}")
        self.p = p
        self.lifts = lifts


def _lift_values(p: int, lifts: PointLift = None):
    """xi_0..xi_{p-1} for local_data_tensor and q_d_matrix: range(p), the
    lifts xi_a = a that operator local data always takes, when ``lifts`` is
    None, else the values of ``lifts``, which must be for p."""
    if lifts is None:
        return range(p)
    if lifts.p != p:
        raise ValueError(f"lifts are for p = {lifts.p}, not p = {p}")
    return lifts.lifts


class LocalDataVector:
    """Residues of one section/operator in the degree <= d quotient.

    ``entries`` maps (point, k, i) to the residue reduced into [0, p^{k-i});
    missing keys are zero.  ``degree_only`` marks vectors that carry just the
    k = d slice (the tensor case).
    """

    __slots__ = ("p", "d", "m", "entries", "degree_only")

    def __init__(self, p: int, d: int, m: int, entries: dict = None,
                 degree_only: bool = False):
        self.p = p
        self.d = d
        self.m = m
        self.entries = {} if entries is None else entries
        self.degree_only = degree_only

    def __eq__(self, other) -> bool:
        return isinstance(other, LocalDataVector) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)

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
        return [c for c in self.coords() if self.entries.get(c)]

    def degree_slice(self, k: int) -> "LocalDataVector":
        sub = {key: r for key, r in self.entries.items() if key[1] == k}
        return LocalDataVector(self.p, k, self.m, sub, degree_only=True)


def _taylor_shift(coefs, xi: int, upto: int) -> list:
    """b_0..b_{upto-1} with sum_n coefs[n] x^n = sum_i b_i (x - xi)^i.

    Repeated synthetic division by x - xi: pass i runs Horner's rule over the
    quotient the previous pass left and ends with b_i = sum_n c_n C(n, i)
    xi^{n-i} in slot i; only acc*xi + c steps, no binomials or powers.  It is
    the independent reference verify --suite localdata holds the readers of
    _pascal_columns (local_data_operator, q_d_matrix) against.
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


def local_data_tensor(delta: TensorSection, lifts: PointLift = None) -> LocalDataVector:
    """Degree-d slice of the local data of a tensor section.

    At infinity the coordinate (inf, d, i) is A_i mod p^{d-i}: the B-part
    contributes y-powers 2d-s' >= d only.  At a finite point the section is
    one polynomial P(x) = sum B_{s'} x^{s'} + (-1)^d sum A_s x^{2d-s} times
    d_x^(x)d; its Taylor shift to x = x_a + xi_a gives the coefficients of
    x_a^i, i < d, as the residues.  Coefficients and lifts are reduced mod
    p^d first: each residue is read mod p^{d-i}, which divides p^d, so the
    reduction is exact.
    """
    p, d = delta.p, delta.d
    entries = {}
    _store(entries, INF, d, delta.A, p)
    sgn = -1 if d % 2 else 1
    # B_{s'} sits at x^{s'} (s' <= d), A_s at x^{2d-s} (2d-s > d)
    pd = p ** d
    poly = [c % pd for c in delta.B] + [sgn * a_c % pd for a_c in reversed(delta.A)]
    for a, xi in enumerate(_lift_values(p, lifts)):
        _store(entries, a, d, _taylor_shift(poly, xi % pd, d), p)
    return LocalDataVector(p, d, delta.m, entries, degree_only=True)


def local_data_operator(op: OperatorSection) -> LocalDataVector:
    """Full degree <= d local data of a global operator, at xi_a = a.

    Requires a global operator (is_global_section), and checks it in the
    same one pass over ``op.terms`` that gathers the data, without building
    either chart's full Laurent aggregate.  The pass keeps:

    * in the x chart, every coefficient of every order 1..d: each y-term
      y^i d^<k> moves there at powers k+t-i for each order t <= k;
    * in the y chart, only the entries whose power is below their order,
      the only ones read: the (inf, k, i) entries, i < k, and the negative
      powers of the globality test.  An x-term x^i d^<k> moves to powers
      k+t-i >= t when i <= k, so it is moved only when i > k (for a global
      monomial, i = k+1).  An order-0 term x^i or y^i with i > 0 moves to
      the power -i, which no other term reaches.

    At a finite point the (a, k, i) residue is sum_n c_n C(n, i) xi_a^{n-i}
    mod p^{k-i} for the order-k polynomial sum_n c_n x^n, a dot product of
    its coefficients (reduced mod p^k) with the Pascal column i of xi_a
    (reduced mod p^d), both exact reductions.  Divided-power bases at level
    m are identified with the level-0 coordinates, so residues land in the
    same Z/p^{k-i} lattice at every level.
    """
    p, d, m = op.p, op.d, op.m
    at_x = [{} for _ in range(d + 1)]   # order k: x power -> coefficient
    below = [{} for _ in range(d + 1)]  # order k: y power < k -> coefficient
    negative = False  # whether a moved term reaches a negative power k+1-i
    for (chart, i, k), c in op.terms.items():
        if not k:
            if i:
                raise ValueError(_NOT_GLOBAL)
            continue
        if chart == CHART_X:
            row = at_x[k]
            row[i] = row.get(i, 0) + c
            if i <= k:
                continue
            target = below
        else:
            if i < k:
                row = below[k]
                row[i] = row.get(i, 0) + c
            target = at_x
        negative = negative or i > k + 1
        if k % 2:
            c = -c
        for t, a in enumerate(_level_row(k, p, m), start=1):
            row = target[t]
            n = k + t - i
            row[n] = row.get(n, 0) + c * a
    if negative and any(c for rows in (at_x, below) for row in rows
                        for n, c in row.items() if n < 0):
        raise ValueError(_NOT_GLOBAL)
    entries = {}
    for k in range(1, d + 1):
        if below[k]:
            _store(entries, INF, k, [below[k].get(i, 0) for i in range(k)], p)
    polys = []
    # a global operator's x powers stay <= 2d, but the columns follow the real degree
    top = 2 * d
    for k in range(1, d + 1):
        pk = p ** k
        poly = [0] * (max(at_x[k], default=-1) + 1)
        for n, c in at_x[k].items():
            if n >= 0:
                poly[n] = c % pk
        if any(poly):
            polys.append((k, poly))
            top = max(top, len(poly) - 1)
    if polys:
        pd = p ** d
        for a in range(p):
            columns = _pascal_columns(a, top, d, pd)
            for k, poly in polys:
                mod = p ** k
                for i in range(min(k, len(poly))):
                    r = sum(map(mul, poly[i:], columns[i])) % mod
                    if r:
                        entries[(a, k, i)] = r
                    mod //= p
    return LocalDataVector(p, d, m, entries, degree_only=False)


@lru_cache(maxsize=256)
def _pascal_columns(xi: int, top: int, width: int, mod: int) -> tuple:
    """Columns i < width of the Pascal rows of xi, reduced mod ``mod``.

    Column i lists C(n, i) xi^{n-i} for n = i..top, so its dot product with
    the coefficients c_i, c_{i+1}, ... of a polynomial of degree <= top is
    that polynomial's i-th Taylor coefficient at xi.  Row n comes from row
    n-1 by Pascal's rule: its first entry is xi times the previous first
    entry, the middle ones xi*prev[i] + prev[i-1], and while i = n is inside
    the width the last entry is C(n, n) = 1.  Trailing zeros are cut (for
    xi = 0 each column is the single entry 1): a product with them is zero,
    so a dot product may stop where the column does.  local_data_operator,
    q_d_matrix and operator_matrix read each point's columns once for all
    orders, rows and columns;
    the memo is bounded like calculus._level_row's, and keyed by the reduced
    xi, since every residue it serves is read modulo a divisor of ``mod``.
    """
    row = [1]
    rows = [row]
    for _n in range(top):
        nxt = [xi * row[0]] + [xi * row[i] + row[i - 1] for i in range(1, len(row))]
        if len(nxt) < width:
            nxt.append(1)
        rows.append(nxt)
        row = nxt
    columns = []
    for i in range(min(width, top + 1)):
        column = [row[i] % mod for row in rows[i:]]
        while column[-1] == 0:
            column.pop()
        columns.append(tuple(column))
    return tuple(columns)


def _require_degree(p: int, d: int) -> None:
    """The (p, d) refusal of the degree-d builders: d >= 1 first, then p prime."""
    if d < 1:
        raise ValueError("need d >= 1")
    require_prime(p)


def q_d_matrix(p: int, d: int, lifts: PointLift = None):
    """Matrix of the degree-d local-data map on the standard tensor basis.

    Rows run over the (p+1)*d canonical degree-d coordinates, columns over
    A_0..A_{d-1}, B_0..B_d; returns (matrix, moduli exponents).  The basis
    section B_{s'} is the monomial x^{s'} and A_s is (-1)^d x^{2d-s} at the
    finite points, so the row (a, d, i) reads C(n, i) xi_a^{n-i} mod p^{d-i}
    off the memoized Pascal column i of xi_a (reduced mod p^d, exact); the row
    (inf, d, i) is the unit vector at A_i.  The divided power identification
    makes the matrix independent of the level m, so it takes none.  Its
    cokernel is the degree-d group, which h1_tensor reads off the smaller
    tensor_presentation instead.
    """
    _require_degree(p, d)
    pd = p ** d
    mods = [p ** (d - i) for i in range(d)]
    sgn = -1 if d % 2 else 1
    rows = []
    for xi in _lift_values(p, lifts):
        columns = _pascal_columns(xi % pd, 2 * d, d, pd)
        for i, (column, mod) in enumerate(zip(columns, mods)):
            cut = i + len(column)  # column[n - i] is C(n, i) xi^{n-i} for i <= n < cut
            row = {}
            # A_k at x^{2d-k}, k < d: inside the cut once k > 2d - cut
            for k in range(max(0, 2 * d + 1 - cut), d):
                if x := sgn * column[2 * d - k - i] % mod:
                    row[k] = x
            # B_n at x^n, i <= n <= d
            for n in range(i, min(cut, d + 1)):
                if x := column[n - i] % mod:
                    row[d + n] = x
            rows.append(row)
    rows += [{i: 1} for i in range(d)]
    return IntegerMatrix(2 * d + 1, rows), moduli_exponents(coords_degree(p, d))


def _monic_columns(p: int, d: int, low: int = 0) -> list:
    """The monic basis x^r f^k, f = x^p - x, of Z[x]_{<=2d}, one entry per
    column n = pk + r = 0..2d: (scale, e, coefs).

    scale = p^{max(d-k, 0)} is the least power of p that takes x^r f^k into
    (p, f)^d.  By the binomial expansion
    x^r f^k = sum_{j<=k} (-1)^{k-j} C(k, j) x^{r+k+j(p-1)},
    coefs[t] is the coefficient of x^{e+t(p-1)}, from the least exponent
    e >= low up to the degree n.  tensor_presentation reads the terms above
    x^d, kernel_lattice all of them.
    """
    out = []
    step = p - 1
    for n in range(2 * d + 1):
        k, r = divmod(n, p)
        j = max(0, -((r + k - low) // step))  # the least j with exponent >= low
        e = r + k + j * step
        c = -comb(k, j) if (k - j) % 2 else comb(k, j)
        coefs = []
        while j <= k:
            coefs.append(c)
            c = -c * (k - j) // (j + 1)  # (-1)^{k-j-1} C(k, j+1), exactly
            j += 1
        out.append((p ** max(d - k, 0), e, coefs))
    return out


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
    _require_degree(p, d)
    width = 2 * d + 1
    free = tuple(d - n // p for n in range(width, p * d))
    at_inf = [{} for _ in range(d)]
    for n, (scale, e, coefs) in enumerate(_monic_columns(p, d, d + 1)):
        i = 2 * d - e  # x^r f^k reaches x^{2d-i}, each term p-1 rows up
        for c in coefs:
            at_inf[i][n] = c * scale
            i -= p - 1
    return IntegerMatrix(width, [{} for _ in free] + at_inf), free + tuple(range(d, 0, -1))


@lru_cache(maxsize=None)
def kernel_lattice(p: int, d: int) -> tuple:
    """Hermite basis of ker q_d_matrix(p, d), {v : v has zero degree-d local
    data}, as a tuple of row tuples in the A_0..A_{d-1}, B_0..B_d coordinates.

    Read off the definition, not off q_d_matrix.  In the basis x^r f^k a
    column with k < d hits the unit vector e_(r,k) of the finite target
    (+) Z/p^{d-k}, so zero finite local data is C S Z^{2d+1}: S scales
    column n = pk + r by p^{max(d-k, 0)}, and C (_monic_columns) takes
    x^r f^k to the monomials, x^e being B_e for e <= d and (-1)^d A_{2d-e}
    above.  Row i < d at infinity reads A_i mod p^{d-i}, so ker q_d is the
    part with zero graph coordinates of the lattice spanned by (A(w) | w),
    w a column of C S, and (p^{d-i} e_i | 0), as {column: entry} rows.  That
    lattice holds p^d Z^{3d+1}, so one Hermite reduction mod p^d is exact,
    and its rows from d on are the kernel's own Hermite basis, which is
    unique.  Only the memo's tuples, which no caller can change, are dense.
    """
    _require_degree(p, d)
    sgn = -1 if d % 2 else 1
    gens = [{i: p ** (d - i)} for i in range(d)]
    for scale, e, coefs in _monic_columns(p, d):
        g = {}  # (A(w) | w): A_s at s and d + s, B_e at 2d + e
        for c in coefs:
            if e <= d:
                g[2 * d + e] = c * scale
            else:
                g[2 * d - e] = g[3 * d - e] = sgn * c * scale
            e += p - 1
        gens.append(g)
    return tuple(tuple(h.get(c, 0) for c in range(d, 3 * d + 1))
                 for h in _hermite_basis(gens, 3 * d + 1, p, d)[d:])


def operator_matrix(p: int, d: int, m: int = 0):
    """Matrix of the full degree <= d local-data map at xi_a = a on
    standard_operator_basis(p, d, m), the whole degree <= d operator space;
    column n is the operator of key standard_basis_keys(d)[n].  Returns
    (matrix, moduli exponents).

    Each column is written in closed form off the memoized Pascal columns
    C(n, i) a^{n-i} of each finite point (_pascal_columns(a, 2d, d, p^d)) and
    the level rows a^(m)_{k,t} (_level_row), as q_d_matrix writes its rows,
    without building or evaluating an operator:

    * column 0 is the order-0 operator 1, with zero local data;
    * x^{s'} d^<k> (s' <= k) is a single term of the x chart, so it writes
      C(s', i) a^{s'-i} mod p^{k-i} at (a, k, i) for each finite a and each
      i <= min(s', k-1): Pascal column i at index s'-i, 0 past its cut;
    * y^s d^<k> (s < k) writes 1 at (inf, k, s), and in the x chart it is
      sum_{t<=k} c_t x^n d^<t> with c_t = (-1)^k a^(m)_{k,t} and n = k+t-s,
      so it writes c_t C(n, i) a^{n-i} mod p^{t-i} at (a, t, i) for each
      finite a and each i < t.

    So an order-k column is zero on every row of degree > k, and the order
    <= d-1 columns on the degree <= d-1 rows are operator_matrix(p, d-1, m):
    lifting.correction_solver reads that smaller matrix.  Every power n is
    at most 2d.  The arguments are refused as building
    standard_operator_basis(p, d, m) refuses them, with the same messages.
    verify.operator_matrix_by_columns is that build, one local_data_operator
    call per column, and this matrix's oracle.
    """
    check_operator_space(p, m, d)
    coords = coords_le(p, d)
    rows = [{} for _ in coords]
    per_point = d * (d + 1) // 2  # (a, k, i) is row a * per_point + k(k-1)/2 + i
    pascal = [_pascal_columns(a, 2 * d, d, p ** d) for a in range(p)]
    mods = [p ** e for e in range(d + 1)]

    def finite(col, t, n, c):
        """Column col's entries of c x^n d^<t>: c C(n, i) a^{n-i} mod p^{t-i}
        at (a, t, i), i < t."""
        first = t * (t - 1) // 2
        for a, columns in enumerate(pascal):
            r = a * per_point + first
            for i in range(min(t, n + 1)):
                column = columns[i]
                if n - i < len(column) and (x := c * column[n - i] % mods[t - i]):
                    rows[r + i][col] = x

    keys = standard_basis_keys(d)
    for col, (chart, s, k) in enumerate(keys):
        if not k:
            continue
        if chart == CHART_X:
            finite(col, k, s, 1)
            continue
        rows[p * per_point + k * (k - 1) // 2 + s][col] = 1
        for t, a_kt in enumerate(_level_row(k, p, m), start=1):
            finite(col, t, k + t - s, -a_kt if k % 2 else a_kt)
    return IntegerMatrix(len(keys), rows), moduli_exponents(coords)
