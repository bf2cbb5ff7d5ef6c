"""Exact integer linear algebra over Z and over mixed prime-power moduli.

Everything here is exact: matrices hold arbitrary-precision Python ints and no
operation reduces modulo anything unless its contract says so.  Maps

    Z^cols  -->  Z/p^{m_1} (+) ... (+) Z/p^{m_R}

are given by an integer matrix together with a vector of prime-power moduli
exponents, always powers of a single prime p passed alongside the exponent
tuple, so mixed-prime targets are unrepresentable by construction.  Both of
their eliminations work over Z_(p), where a pivot of least valuation is final
in one pass: cokernel_invariants reads the invariant factors alone, and
CokernelSolver records its transforms mod p^N, N the largest modulus, for
element orders, congruence solves and the kernel lattice in Hermite normal
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import InvariantViolation

Moduli = tuple  # tuple of positive ints: exponents m_j of the target sum of Z/p^{m_j}


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
    """Dense integer matrix, row-major, arbitrary precision."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def row_lists(self) -> list:
        c = self.cols
        return [self.entries[i * c:(i + 1) * c] for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

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


@dataclass(frozen=True)
class AbelianPGroup:
    """Finite abelian p-group as its multiset of invariant-factor exponents.

    ``exponents`` is sorted ascending and contains no zeros; the trivial group
    is the empty tuple.  Group = (+)_j Z/p^{n_j}.
    """

    p: int
    exponents: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        exps = tuple(sorted(self.exponents))
        if any(n < 1 for n in exps):
            raise ValueError("invariant exponents must be >= 1")
        object.__setattr__(self, "exponents", exps)

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

    def __str__(self) -> str:
        return self.table_text()


def dominates(a_desc: Sequence[int], b_desc: Sequence[int]) -> bool:
    """Componentwise >= of descending exponent lists, b padded with zeros.

    Equivalent to: a surjection (+) Z/p^{a_i} ->> (+) Z/p^{b_i} exists.
    """
    if len(b_desc) > len(a_desc):
        b_extra = b_desc[len(a_desc):]
        if any(b_extra):
            return False
        b_desc = b_desc[:len(a_desc)]
    return all(a >= b for a, b in zip(a_desc, b_desc))


def _check_moduli(m: IntegerMatrix, moduli, p):
    if m.rows != len(moduli):
        raise ValueError(f"matrix has {m.rows} rows but {len(moduli)} moduli")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if any(e < 1 for e in moduli):
        raise ValueError("moduli exponents must be >= 1")


def _plocal_exponents(rows, moduli, p: int) -> list:
    """Nonzero invariant exponents of the cokernel of ``rows`` in (+)_r Z/p^{moduli[r]}.

    The cokernel is a finite p-group, so it is computed over Z_(p), where
    every entry prime to p is a unit.  ``rows[r]`` must come reduced modulo
    p^{moduli[r]} and is consumed.  The moduli columns stay implicit: row r
    is kept reduced modulo its own p^{e_r}, which is sound because that
    column touches row r alone until row r is a pivot.  The live block is
    p^shift times the stored one.  The rows are sorted once, by fewest
    nonzero entries and then by descending e_r (Markowitz's pivot order:
    in the full local-data matrix of verify_splitting the rows at infinity
    and at the point 0 are unit vectors, so they pivot first, at the cost of
    one entry; the zero rows of tensor_presentation settle at shift 0 at the
    cost of none).  At each shift the rows are swept in that order; a row i
    with a unit (gcd of its row prime to p) in column j becomes the pivot:
    it is scaled to a 1 there and f times it is subtracted in place from
    every other row, at the pivot's nonzero positions only.  Row i then
    splits off as Z/p^shift, and column j, which it has just cleared, takes
    its modulus relation -f*p^{e_i} mod p^{e_r} in row r: the same matrix
    as spending column j and appending that relation, up to a column
    permutation.  The relation scales column j by p^{e_i}, so a unit row
    makes the dense rows sparse.  A row without a unit stays without one
    under these updates (f is divisible by p, and so is p^{e_i}).  After the
    sweep an all-zero row splits off as Z/p^{shift + e_r}; the rest is
    divided by p.  A row at e_r = 1 with no unit is zero, so every row is
    settled after max(moduli) shifts.
    """
    e = list(moduli)
    q = [p ** x for x in e]
    active = sorted(range(len(rows)), key=lambda r: (len(rows[r]) - rows[r].count(0), -e[r]))
    exps = []
    settled = 0
    for shift in range(max(e, default=0)):
        kept = []
        for n, i in enumerate(active):
            row = rows[i]
            if not gcd(*row) % p:
                kept.append(i)
                continue
            j = next(k for k, a in enumerate(row) if a % p)
            qi = q[i]
            inv = pow(row[j], -1, qi)
            support = [(k, a * inv % qi) for k, a in enumerate(row) if a and k != j]
            settled += 1
            if shift:
                exps.append(shift)
            for r in kept + active[n + 1:]:
                other = rows[r]
                f = other[j]
                if f:
                    qr = q[r]
                    for k, b in support:
                        other[k] = (other[k] - f * b) % qr
                    other[j] = -f * qi % qr
        active = []
        for r in kept:
            if any(rows[r]):
                rows[r] = [a // p for a in rows[r]]
                e[r] -= 1
                q[r] //= p
                active.append(r)
            else:
                exps.append(shift + e[r])
                settled += 1
    if settled != len(rows):
        raise InvariantViolation(
            f"p-local elimination settled {settled} of {len(rows)} rows")
    return exps


def cokernel_invariants(m: IntegerMatrix, moduli, p: int) -> AbelianPGroup:
    """Invariant factors of ((+)_j Z/p^{m_j}) / im(M), by p-local elimination."""
    moduli = tuple(moduli)
    _check_moduli(m, moduli, p)
    rows = [[a % q for a in row] for row, q in zip(m.row_lists(), (p ** e for e in moduli))]
    return AbelianPGroup(p, tuple(_plocal_exponents(rows, moduli, p)))


def _hermite_basis(gens, cols: int, p: int, n: int) -> list:
    """Hermite normal form of the lattice spanned by ``gens`` and p^n Z^cols.

    Row j starts at column j with a power p^{a_j} <= p^n, and every entry
    above it lies in [0, p^{a_j}).  The lattice contains p^n Z^cols, so the
    elimination runs mod p^n: column j's pivot is the generator of least
    valuation there, and p^{n-a_j} times it, whose column j then vanishes
    mod p^n, joins the generators (Howell's completion), so that the
    triangular rows span p^n Z^cols by themselves.  The Hermite form of a
    lattice is unique, so it does not depend on the generators given.
    """
    q = p ** n
    gens = [g for g in ([x % q for x in g] for g in gens) if any(g)]
    basis = []
    for j in range(cols):
        low = min(((vp(g[j], p), i) for i, g in enumerate(gens) if g[j]), default=None)
        if low is None:
            basis.append([q if c == j else 0 for c in range(cols)])
            continue
        a, i = low
        piv = gens.pop(i)
        pa = p ** a
        inv = pow(piv[j] // pa, -1, q)
        piv = [x * inv % q for x in piv]  # piv[j] == p^a
        rest = []
        for g in gens:
            f = g[j] // pa
            if f:
                g = [(x - f * y) % q for x, y in zip(g, piv)]
            if any(g):
                rest.append(g)
        if a:
            completion = [x * (q // pa) % q for x in piv]
            if any(completion):
                rest.append(completion)
        gens = rest
        basis.append(piv)
    for j, h in enumerate(basis):
        support = [(c, y) for c, y in enumerate(h) if y]
        for row in basis[:j]:
            f = row[j] // h[j]
            if f:
                for c, y in support:
                    row[c] -= f * y
    return basis


class CokernelSolver:
    """Element orders, congruence solves and the kernel lattice of one map
    M: Z^cols -> (+)_r Z/p^{e_r}, from one p-local elimination mod p^N.

    Every answer is fixed mod p^N, N = max e_r.  Scaling row r by p^{N-e_r}
    embeds Z/p^{e_r} in Z/p^N, so M v = b modulo the moduli becomes
    M'v = b' mod p^N with b'_r = p^{N-e_r} b_r.  M' is eliminated by the
    pivot step of _plocal_exponents, without its modulus columns: row r is
    stored modulo p^{e[r]} as p^{-(N-e[r])} times its row of M', and joins
    the sweep at shift N - e_r, when it can first hold a unit.  A pivot of
    least valuation is final at once (no gcd rounds, no divisibility
    repair).  Its row operations are recorded, so U b' is a replay; its
    column operations change only the spent pivot row, so they are applied
    to V alone, kept reduced mod p^N.  U M' V is then zero but for p^k times
    a unit at each pivot (row i, column j, shift k).  The kernel lattice,
    spanned by p^{N-k} V e_j over the pivots, V e_j over the other columns
    and p^N Z^cols, is kept in Hermite normal form, and each solve is
    reduced modulo it.  Both are unique, so neither depends on the pivot
    order.  Immutable after construction.
    """

    def __init__(self, m: IntegerMatrix, moduli, p: int):
        self.matrix = m
        self.moduli = tuple(moduli)
        self.p = p
        _check_moduli(m, self.moduli, p)
        self._n = n = max(self.moduli, default=0)
        q = p ** n
        e = list(self.moduli)
        rows = [[a % p ** x for a in row] for row, x in zip(m.row_lists(), e)]
        columns = list(range(m.cols))
        v = [[int(s == c) for s in range(m.cols)] for c in range(m.cols)]  # v[c] = V e_c
        self._pivots = []  # (row i, shift k, unit inverse, V e_j, [(row r, multiplier)])
        self._row_exponent = [n] * m.rows  # coker(M') = (+)_r Z/p^{k_r}
        active = sorted(range(m.rows), key=lambda r: -e[r])
        for shift in range(n):
            ready = [r for r in active if e[r] == n - shift]  # a prefix of active
            waiting = active[len(ready):]
            kept = []
            for t, i in enumerate(ready):
                row = rows[i]
                j = next((c for c, a in enumerate(row) if a % p), None)
                if j is None:
                    kept.append(i)
                    continue
                qi = p ** e[i]
                inv = pow(row[j], -1, qi)
                piv = [a * inv % qi for a in row]
                del piv[j]
                vj = v[columns.pop(j)]
                v_support = [(s, x) for s, x in enumerate(vj) if x]
                support = [(c, b) for c, b in enumerate(piv) if b]
                for c, b in support:
                    vc = v[columns[c]]
                    for s, x in v_support:
                        vc[s] = (vc[s] - b * x) % q
                ops = []
                for r in kept + ready[t + 1:] + waiting:
                    other = rows[r]
                    f = other.pop(j)
                    if f:
                        qr = p ** e[r]
                        for c, b in support:
                            other[c] = (other[c] - f * b) % qr
                        ops.append((r, f * inv * p ** (n - e[r] - shift) % q))
                self._pivots.append((i, shift, inv, vj, ops))
                self._row_exponent[i] = shift
            active = []
            for r in kept:
                if any(rows[r]):
                    rows[r] = [a // p for a in rows[r]]
                    e[r] -= 1
                    active.append(r)
            active += waiting
        gens = [[x * p ** (n - k) for x in vj] for _, k, _, vj, _ in self._pivots]
        self._basis = _hermite_basis(gens + [v[c] for c in columns], m.cols, p, n)

    def _replay(self, b) -> list:
        """U b' mod p^N."""
        if len(b) != len(self.moduli):
            raise ValueError(f"vector has {len(b)} coordinates, expected {len(self.moduli)}")
        p, n = self.p, self._n
        q = p ** n
        y = [x * p ** (n - e) % q for x, e in zip(b, self.moduli)]
        for i, _, _, _, ops in self._pivots:
            yi = y[i]
            if yi:
                for r, f in ops:
                    y[r] = (y[r] - f * yi) % q
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
        sol = [0] * self.matrix.cols
        for i, k, inv, vj, _ in self._pivots:
            w = y[i] // p ** k * inv
            if w:
                for s, x in enumerate(vj):
                    if x:
                        sol[s] += w * x
        for j, h in enumerate(self._basis):
            f = sol[j] // h[j]
            if f:
                for c in range(j, len(sol)):
                    sol[c] -= f * h[c]
        return sol

    def kernel_basis(self):
        """Hermite basis of {v : M v = 0 mod moduli}: row j starts at column j
        with a power of p, and each entry above it is reduced modulo it."""
        return [list(h) for h in self._basis]


def quotient_by_cyclic(group: AbelianPGroup, a) -> AbelianPGroup:
    """Invariant factors of group/<a>, a given as one coordinate per factor."""
    a = list(a)
    if len(a) != group.num_factors:
        raise ValueError(f"element has {len(a)} coordinates, group has {group.num_factors} factors")
    col = IntegerMatrix(group.num_factors, 1, a)
    return cokernel_invariants(col, group.exponents, group.p)


def cyclic_quotient_dominates(group: AbelianPGroup, quotient: AbelianPGroup) -> bool:
    """Postcondition of quotient_by_cyclic: ``quotient``, some group/<a>,
    surjects onto the direct sum of all invariant factors of the group
    except one largest."""
    target = sorted(group.exponents[:-1], reverse=True)
    return dominates(sorted(quotient.exponents, reverse=True), target)


def rank_mod_p(m: IntegerMatrix, p: int) -> int:
    """Rank of M over F_p, by in-place Gaussian elimination (independent of
    the p-local eliminations)."""
    rows = [[x % p for x in row] for row in m.row_lists()]
    R, C = m.rows, m.cols
    rank = 0
    for j in range(C):
        piv = None
        for i in range(rank, R):
            if rows[i][j]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(R):
            if i != rank and rows[i][j]:
                f = rows[i][j]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == R:
            break
    return rank
