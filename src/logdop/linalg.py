"""Exact integer linear algebra over Z and over mixed prime-power moduli.

Everything here is exact: matrices hold arbitrary-precision Python ints and no
operation reduces modulo anything unless its contract says so.  Maps

    Z^cols  -->  Z/p^{m_1} (+) ... (+) Z/p^{m_R}

are given by an integer matrix together with a vector of prime-power moduli
exponents, always powers of a single prime p passed alongside the exponent
tuple, so mixed-prime targets are unrepresentable by construction.  A matrix
is only ever sparse {column: entry} rows; the det oracle reads them densely,
and the rank_mod_p oracle eliminates them sparse over F_p.  Apart from those
two oracles, one elimination serves every answer.  It works over Z_(p),
where a pivot of least valuation is final in one pass, on rows that stay at
p^shift times the live block, so nothing is divided by p: each row's
valuation is stored and read again only after a pivot has updated the row,
and the rows pivot in Markowitz order, fewest nonzero entries first.
cokernel_invariants reads the invariant factors off it; CokernelSolver has
it log its pivots and replays the log for element orders, congruence solves
and the kernel lattice in Hermite normal form (_hermite_basis, which
localdata.kernel_lattice calls alone).  Every row built on the way is
sparse too; only kernel_basis and solve hand out dense lists.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import InvariantViolation

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_MR_BOUND = 3317044064679887385961981  # the 13 prime bases 2..41 decide every n below it


def is_prime(n: int) -> bool:
    """Exact primality.  Below 50^2, trial division by the primes under 50;
    below 3.317 * 10^24, Miller-Rabin with the 13 prime bases 2..41, which
    decide every n there (Sorenson-Webster, Math. Comp. 2017).  At or above
    that bound there is no exact fast test, so it raises ValueError."""
    if n < 2500:
        return n > 1 and all(n % f for f in _SMALL_PRIMES if f * f <= n)
    if n >= _MR_BOUND:
        raise ValueError(f"p = {n} is too large to test for primality "
                         f"(need p < {_MR_BOUND})")
    if any(n % f == 0 for f in _SMALL_PRIMES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES[:13]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """The package's one refusal of a p that is not prime: raises
    ValueError("p = N is not prime"), or "p = N is not an integer" for a p
    whose type is not int.  is_prime's own ValueError for a p too large to
    test passes through unchanged."""
    if type(p) is not int:
        raise ValueError(f"p = {p} is not an integer")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer; raises on n == 0."""
    if n == 0:
        raise ValueError("vp(0) is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class IntegerMatrix:
    """Integer matrix, arbitrary precision, as ``row_maps``: one dict per row
    of its nonzero entries, {column: entry} with the columns ascending."""

    __slots__ = ("rows", "cols", "row_maps")

    def __init__(self, cols: int, row_maps: Sequence[dict]):
        self.rows = len(row_maps)
        self.cols = cols
        self.row_maps = row_maps

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(c, [{k: a for k, a in enumerate(row) if a} for row in rows])

    def row_lists(self) -> list:
        return [[row.get(k, 0) for k in range(self.cols)] for row in self.row_maps]

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerMatrix) and self.cols == other.cols
                and self.row_maps == other.row_maps)

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.rows}x{self.cols})"


def det(m: IntegerMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.row_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row = a[i]
            rk = a[k]
            for j in range(k + 1, n):
                row[j] = (pk * row[j] - aik * rk[j]) // prev
            row[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


class AbelianPGroup:
    """Finite abelian p-group as its multiset of invariant-factor exponents.

    ``exponents`` is sorted ascending and contains no zeros; the trivial group
    is the empty tuple.  Group = (+)_j Z/p^{n_j}.  A value: equal and hashed
    by (p, exponents), and attribute assignment is refused, since
    engine.h1_tensor's memo hands out shared instances.
    """

    __slots__ = ("p", "exponents")

    def __init__(self, p: int, exponents: tuple):
        require_prime(p)
        exps = tuple(sorted(exponents))
        if any(n < 1 for n in exps):
            raise ValueError("invariant exponents must be >= 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "exponents", exps)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an AbelianPGroup")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an AbelianPGroup")

    def __eq__(self, other) -> bool:
        return (isinstance(other, AbelianPGroup)
                and (self.p, self.exponents) == (other.p, other.exponents))

    def __hash__(self) -> int:
        return hash((self.p, self.exponents))

    def __repr__(self) -> str:
        return f"AbelianPGroup(p={self.p}, exponents={self.exponents})"

    @property
    def is_trivial(self) -> bool:
        return not self.exponents

    @property
    def order_vp(self) -> int:
        """v_p of the group order (= sum of exponents)."""
        return sum(self.exponents)

    @property
    def max_exponent(self) -> int:
        """n with group exponent p^n; 0 for the trivial group."""
        return self.exponents[-1] if self.exponents else 0

    @property
    def num_factors(self) -> int:
        return len(self.exponents)

    def summands(self) -> list:
        """(exponent, multiplicity) pairs, exponent ascending."""
        out = []
        for n in self.exponents:
            if out and out[-1][0] == n:
                out[-1][1] += 1
            else:
                out.append([n, 1])
        return [(n, m) for n, m in out]

    def contains_multiset(self, other: "AbelianPGroup") -> bool:
        """Whether other's exponent multiset is contained in this one's."""
        mine = list(self.exponents)
        for n in other.exponents:
            if n in mine:
                mine.remove(n)
            else:
                return False
        return True

    def table_text(self) -> str:
        """Direct-sum notation 'm × p^n  ...' used by the reference tables."""
        if self.is_trivial:
            return "0"
        parts = []
        for n, mult in self.summands():
            power = str(self.p) if n == 1 else f"{self.p}^{n}"
            parts.append(f"{mult} × {power}")
        return "  ".join(parts)


def dominates(a_desc: Sequence[int], b_desc: Sequence[int]) -> bool:
    """Componentwise >= of descending exponent lists, b padded with zeros.

    Equivalent to: a surjection (+) Z/p^{a_i} ->> (+) Z/p^{b_i} exists.
    """
    if any(b_desc[len(a_desc):]):
        return False
    return all(a >= b for a, b in zip(a_desc, b_desc))


def _check_moduli(m: IntegerMatrix, moduli, p):
    if m.rows != len(moduli):
        raise ValueError(f"matrix has {m.rows} rows but {len(moduli)} moduli")
    require_prime(p)
    if any(e < 1 for e in moduli):
        raise ValueError("moduli exponents must be >= 1")


def _plocal_exponents(rows, moduli, p: int, log=None) -> list:
    """Nonzero invariant exponents of the cokernel of ``rows`` in (+)_r Z/p^{moduli[r]}.

    The cokernel is a finite p-group, so it is computed over Z_(p), where
    every entry prime to p is a unit.  ``rows[r]`` is a {column: entry}
    dict of the nonzero entries of row r, reduced modulo p^{E_r}, E_r =
    moduli[r]; the rows are consumed.  The moduli columns stay implicit:
    row r is kept reduced modulo its own p^{E_r}, which is sound because
    that column touches row r alone until row r is a pivot.

    Nothing is divided by p.  At shift s every live row is p^s times its
    row of the live block, whose modulus is p^{E_r - s}, so its entries are
    divisible by p^s and it holds a unit of the live block exactly when its
    valuation (the least over its entries) is s.  Each row's valuation is
    stored, and refreshed, from one gcd of its entries, only when the row
    is next visited after a pivot has updated it; a row that no pivot has
    updated is skipped without reading its entries.  The rows are sorted
    once, by fewest nonzero entries and then by descending E_r (Markowitz's
    pivot order: in the full local-data matrix of verify_splitting the rows
    at infinity and at the point 0 are unit vectors, so they pivot first at
    the cost of one entry; the zero rows of tensor_presentation settle at
    once).

    At each shift s the live rows are swept in that order.  A row i of
    valuation s becomes the pivot at a column j where its entry is p^s
    times a unit u, and splits off as Z/p^s.  Every live row r with an
    entry f in column j (one dict lookup per row) loses f/p^s times the
    pivot row scaled by u^{-1} mod p^{E_i}, at the pivot's nonzero
    positions only, and column j, which that has cleared, takes the
    modulus relation -(f/p^s)*p^{E_i} mod p^{E_r}: the same matrix as
    spending column j and appending that relation, up to a column
    permutation.  The relation scales column j by p^{E_i}, so a unit row
    makes the dense rows sparse.  None of this lowers a row's valuation
    (f/p^s is divisible by p^{v_r - s}), so a row kept at shift s is not a
    pivot before shift s + 1.  A row that is or becomes zero splits off as
    Z/p^{E_r}.  A nonzero row has valuation below E_r, so every row is
    settled after max(moduli) shifts.

    Given a list ``log``, each pivot appends (i, j, s, inv, support,
    [(r, f), ...]): its row, column, shift, u^{-1} mod p^{E_i}, the scaled
    pivot row off column j, the {column: entry} row that _subtract takes
    from each updated row, and the rows it updated with their multipliers
    f, from which CokernelSolver replays the transforms.
    """
    q = [p ** e for e in moduli]
    val = [None] * len(rows)  # None: not read since the last update
    live = sorted(range(len(rows)), key=lambda r: (len(rows[r]), -moduli[r]))
    exps = []
    settled = 0
    for shift in range(max(moduli, default=0)):
        ps = p ** shift
        kept = []
        for n, i in enumerate(live):
            row = rows[i]
            if val[i] is None:
                if not row:
                    exps.append(moduli[i])
                    settled += 1
                    continue
                val[i] = shift + vp(gcd(*row.values()) // ps, p)
            if val[i] != shift:
                kept.append(i)
                continue
            j = next(k for k, a in row.items() if a // ps % p)
            qi = q[i]
            inv = pow(row.pop(j) // ps, -1, qi)
            support = {k: a * inv % qi for k, a in row.items()}
            settled += 1
            if shift:
                exps.append(shift)
            ops = None
            if log is not None:
                ops = []
                log.append((i, j, shift, inv, support, ops))
            for r in kept + live[n + 1:]:
                other = rows[r]
                f = other.pop(j, 0) // ps
                if f:
                    if ops is not None:
                        ops.append((r, f))
                    qr = q[r]
                    if support:  # most pivot rows are unit vectors: skip the call
                        _subtract(other, f, support, qr)
                    x = -f * qi % qr
                    if x:
                        other[j] = x
                    val[r] = None
        live = kept
    if settled != len(rows):
        raise InvariantViolation(
            f"p-local elimination settled {settled} of {len(rows)} rows")
    return exps


def _sparse_rows(m: IntegerMatrix, moduli, p: int) -> list:
    """A fresh copy of each row of m for the elimination to consume, row r
    reduced mod p^{moduli[r]}, with the entries that vanish there dropped."""
    _check_moduli(m, moduli, p)
    return [{k: b for k, a in row.items() if (b := a % q)}
            for row, q in zip(m.row_maps, [p ** e for e in moduli])]


def cokernel_invariants(m: IntegerMatrix, moduli, p: int) -> AbelianPGroup:
    """Invariant factors of ((+)_j Z/p^{m_j}) / im(M), by p-local elimination."""
    moduli = tuple(moduli)
    rows = _sparse_rows(m, moduli, p)
    return AbelianPGroup(p, tuple(_plocal_exponents(rows, moduli, p)))


def _subtract(row: dict, f: int, h: dict, q: int) -> None:
    """row -= f h in place on {column: entry} rows, mod q, storing no zero."""
    for c, y in h.items():
        if x := (row.get(c, 0) - f * y) % q:
            row[c] = x
        else:
            row.pop(c, None)


def _reduce(row: dict, basis, q: int, start: int = 0) -> None:
    """Reduce the row in place modulo the Hermite rows ``basis`` of a lattice
    holding q Z^cols, at each column j >= start in turn, into [0, basis[j][j])."""
    for j in range(start, len(basis)):
        if f := row.get(j, 0) // basis[j][j]:
            _subtract(row, f, basis[j], q)


def _hermite_basis(gens, cols: int, p: int, n: int) -> list:
    """Hermite normal form of the lattice spanned by ``gens`` and p^n Z^cols,
    on {column: entry} rows in and out (``gens`` stays unchanged).

    Row j starts at column j with a power p^{a_j} <= p^n, and every entry
    above it lies in [0, p^{a_j}).  The lattice holds p^n Z^cols, so the
    elimination runs mod p^n, on each pivot's support: column j's pivot is
    the generator of least valuation there, and p^{n-a_j} times it, zero in
    column j mod p^n, joins the generators so the rows span p^n Z^cols
    (Howell's completion).  _reduce then clears the rows from the bottom up.
    The Hermite form is unique, so it does not depend on the generators.
    """
    q = p ** n
    gens = [{c: y for c, x in g.items() if (y := x % q)} for g in gens]
    basis = []
    for j in range(cols):
        low = min(((vp(g[j], p), i) for i, g in enumerate(gens) if j in g), default=None)
        if low is None:
            basis.append({j: q})
            continue
        a, i = low
        piv = gens.pop(i)
        pa = p ** a
        inv = pow(piv[j] // pa, -1, q)
        piv = {c: x * inv % q for c, x in piv.items()}  # piv[j] == p^a
        for g in gens:
            if f := g.get(j, 0) // pa:
                _subtract(g, f, piv, q)
        gens = [g for g in gens if g]
        if a:  # the completion
            gens.append({c: y for c, x in piv.items() if (y := x * (q // pa) % q)})
        basis.append(piv)
    for j in range(cols - 1, -1, -1):
        _reduce(basis[j], basis, q, j + 1)
    return basis


class CokernelSolver:
    """Element orders, congruence solves and the kernel lattice of one map
    M: Z^cols -> (+)_r Z/p^{e_r}, from the p-local elimination of
    cokernel_invariants.

    _plocal_exponents logs its pivots, and the transforms are replays of
    that log.  Its row operations give U: y = U b is kept with y_r mod
    p^{e_r}, and the cokernel is (+)_r Z/p^{k_r}, k_r the shift at which
    row r pivots or e_r for a row that went to zero.  Its column
    operations give V, kept mod p^N, N = max e_r: a pivot (row i, column
    j, shift s) takes b/p^s times column j from every column k of its
    scaled row's support, and column j, which then holds row i's modulus
    relation, becomes -p^{e_i - s} times it.  With the modulus columns
    appended, U M V is zero but for p^s at each pivot and p^{e_r} at each
    row that went to zero, so the kernel lattice is spanned by the final
    columns of V and p^N Z^cols.  V, from {c: 1}, and the lattice's Hermite
    rows are {column: entry} rows; each solve is reduced modulo those rows.
    Both are unique, so neither depends on the pivot order.  It keeps M's
    width, not M.  Immutable after construction.
    """

    def __init__(self, m: IntegerMatrix, moduli, p: int):
        self.cols = m.cols
        self.moduli = tuple(moduli)
        self.p = p
        log = []
        _plocal_exponents(_sparse_rows(m, self.moduli, p), self.moduli, p, log)
        n = max(self.moduli, default=0)
        q = self._q = p ** n
        v = [{c: 1} for c in range(m.cols)]  # v[c] = V e_c
        self._pivots = []  # (row i, shift s, unit inverse, V e_j, [(row r, multiplier)])
        self._row_exponent = list(self.moduli)
        for i, j, s, inv, support, ops in log:
            vj = v[j]
            for k, b in support.items():
                _subtract(v[k], b // p ** s, vj, q)
            v[j] = {t: y for t, x in vj.items() if (y := -x * p ** (self.moduli[i] - s) % q)}
            self._pivots.append((i, s, inv, vj, ops))
            self._row_exponent[i] = s
        self._basis = _hermite_basis(v, m.cols, p, n)

    def _replay(self, b) -> list:
        """U b, coordinate r mod p^{e_r}."""
        if len(b) != len(self.moduli):
            raise ValueError(f"vector has {len(b)} coordinates, expected {len(self.moduli)}")
        q = [self.p ** e for e in self.moduli]
        y = [x % qr for x, qr in zip(b, q)]
        for i, _, inv, _, ops in self._pivots:
            yi = y[i] = y[i] * inv % q[i]
            if yi:
                for r, f in ops:
                    y[r] = (y[r] - f * yi) % q[r]
        return y

    def element_order_exponent(self, c) -> int:
        """Least j >= 0 with p^j * c in im(M) + moduli lattice."""
        y = self._replay(c)
        return max((k - min(vp(yr, self.p), k)
                    for yr, k in zip(y, self._row_exponent) if yr), default=0)

    def solve(self, b):
        """The v with M v = b modulo the moduli that is reduced modulo
        kernel_basis(), or None if unsolvable."""
        y = self._replay(b)
        p = self.p
        if any(yr % p ** k for yr, k in zip(y, self._row_exponent)):
            return None
        sol = {}
        for i, k, _, vj, _ in self._pivots:
            if w := y[i] // p ** k:
                _subtract(sol, -w, vj, self._q)
        _reduce(sol, self._basis, self._q)
        return [sol.get(c, 0) for c in range(self.cols)]

    def kernel_basis(self):
        """Hermite basis of {v : M v = 0 mod moduli}: row j starts at column j
        with a power of p, and each entry above it is reduced modulo it."""
        return [[h.get(c, 0) for c in range(self.cols)] for h in self._basis]


def quotient_by_cyclic(group: AbelianPGroup, a) -> AbelianPGroup:
    """Invariant factors of group/<a>, a given as one coordinate per factor."""
    a = list(a)
    if len(a) != group.num_factors:
        raise ValueError(f"element has {len(a)} coordinates, group has {group.num_factors} factors")
    return cokernel_invariants(IntegerMatrix.from_rows([[x] for x in a]),
                               group.exponents, group.p)


def cyclic_quotient_dominates(group: AbelianPGroup, quotient: AbelianPGroup) -> bool:
    """Postcondition of quotient_by_cyclic: ``quotient``, some group/<a>,
    surjects onto the direct sum of all invariant factors of the group
    except one largest."""
    return dominates(quotient.exponents[::-1], group.exponents[-2::-1])


def rank_mod_p(m: IntegerMatrix, p: int) -> int:
    """Rank of M over F_p, for a prime p, by Gaussian elimination on sparse
    rows (independent of the p-local eliminations).  Each row, reduced mod p,
    is cleared against the pivot rows met so far, lowest column first; what
    is left starts a new pivot row, scaled to lead with 1."""
    require_prime(p)
    pivots = {}                        # leading column -> {column: entry}
    for row in m.row_maps:
        r = {k: a % p for k, a in row.items() if a % p}
        while r:
            j = min(r)
            piv = pivots.get(j)
            if piv is None:
                inv = pow(r[j], -1, p)
                pivots[j] = {k: a * inv % p for k, a in r.items()}
                break
            f = r[j]
            for k, a in piv.items():
                v = (r.get(k, 0) - f * a) % p
                if v:
                    r[k] = v
                else:
                    r.pop(k, None)
        if len(pivots) == m.cols:
            break
    return len(pivots)
