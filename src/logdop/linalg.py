"""Exact integer linear algebra over Z and over mixed prime-power moduli.

Everything here is exact: matrices hold arbitrary-precision Python ints and no
operation reduces modulo anything unless its contract says so.  Maps

    Z^cols  -->  Z/p^{m_1} (+) ... (+) Z/p^{m_R}

are given by an integer matrix together with a vector of prime-power moduli
exponents, always powers of a single prime p passed alongside the exponent
tuple, so mixed-prime targets are unrepresentable by construction.  Their
cokernel invariants come from a p-local elimination (cokernel_invariants);
the Smith normal form over Z with transforms U, V serves where a transform is
read: element orders, congruence solves and kernel bases (CokernelSolver).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvariantViolation

Moduli = tuple  # tuple of positive ints: exponents m_j of the target sum of Z/p^{m_j}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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
    def identity(cls, n: int) -> "IntegerMatrix":
        m = cls(n, n, [0] * (n * n))
        for i in range(n):
            m.entries[i * n + i] = 1
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list:
        c = self.cols
        return [self.entries[i * c:(i + 1) * c] for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.rows}x{self.cols})"


def mat_mul(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    ar, ac, bc = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    out = [0] * (ar * bc)
    for i in range(ar):
        arow = ae[i * ac:(i + 1) * ac]
        orow = i * bc
        for k, av in enumerate(arow):
            if av:
                brow = k * bc
                for j in range(bc):
                    out[orow + j] += av * be[brow + j]
    return IntegerMatrix(ar, bc, out)


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

    def direct_sum(self, other: "AbelianPGroup") -> "AbelianPGroup":
        if other.p != self.p:
            raise ValueError("direct sum across different primes")
        return AbelianPGroup(self.p, self.exponents + other.exponents)

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


def _symmetric_quotient(a: int, piv: int) -> int:
    # piv > 0; quotient with remainder in (-piv/2, piv/2]
    q, r = divmod(a, piv)
    if 2 * r > piv:
        q += 1
    return q


def _snf_core(rows):
    """Diagonalize ``rows`` in place to Smith form, tracking the transforms.

    Pivoting picks the minimal-absolute-value nonzero entry of the remaining
    block to keep coefficient growth down (entries start around p^d and the
    matrices are small but dense).  Returns (diag, U, V, rank) with U and V
    row-major list-of-lists and U*input*V equal to the diagonalized matrix.
    """
    R = len(rows)
    C = len(rows[0]) if R else 0
    U = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    V = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    def row_swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        U[i], U[j] = U[j], U[i]

    def row_add(i, j, lam):
        # row_i += lam * row_j
        ri, rj = rows[i], rows[j]
        for k in range(C):
            if rj[k]:
                ri[k] += lam * rj[k]
        ui, uj = U[i], U[j]
        for k in range(R):
            if uj[k]:
                ui[k] += lam * uj[k]

    def row_negate(i):
        rows[i] = [-x for x in rows[i]]
        U[i] = [-x for x in U[i]]

    def col_swap(i, j):
        for r in rows:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def col_add(i, j, lam):
        # col_i += lam * col_j
        for r in rows:
            if r[j]:
                r[i] += lam * r[j]
        for r in V:
            if r[j]:
                r[i] += lam * r[j]

    def _find_min_pivot(t):
        best = 0
        pi = pj = -1
        for i in range(t, R):
            ri = rows[i]
            for j in range(t, C):
                v = ri[j]
                if v:
                    av = -v if v < 0 else v
                    if best == 0 or av < best:
                        best, pi, pj = av, i, j
                        if best == 1:
                            return pi, pj
        return (pi, pj) if best else None

    t = 0
    limit = min(R, C)
    while t < limit:
        done = False
        while True:
            # re-pick the global minimal |entry| each round: remainders from
            # the symmetric reductions below at least halve it, so the pivot
            # converges gcd-fast and coefficient growth stays additive
            loc = _find_min_pivot(t)
            if loc is None:
                done = True  # block is zero; trailing diagonal stays 0
                break
            pi, pj = loc
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if rows[t][t] < 0:
                row_negate(t)
            piv = rows[t][t]
            clean = True
            for i in range(t + 1, R):
                a = rows[i][t]
                if a:
                    row_add(i, t, -_symmetric_quotient(a, piv))
                    if rows[i][t]:
                        clean = False
            for j in range(t + 1, C):
                a = rows[t][j]
                if a:
                    col_add(j, t, -_symmetric_quotient(a, piv))
                    if rows[t][j]:
                        clean = False
            if not clean:
                continue
            # divisibility: pivot must divide the remaining block for the chain
            offending = None
            if piv != 1:
                for i in range(t + 1, R):
                    ri = rows[i]
                    for j in range(t + 1, C):
                        if ri[j] % piv:
                            offending = i
                            break
                    if offending is not None:
                        break
            if offending is None:
                break
            row_add(t, offending, 1)
        if done:
            break
        t += 1

    diag = [rows[i][i] for i in range(limit)]
    rank = sum(1 for d in diag if d)
    return diag, U, V, rank


def smith_normal_form(m: IntegerMatrix):
    """Smith normal form with transforms: returns (D, U, V), U*m*V = D.

    U and V are unimodular; the diagonal of D is nonnegative and each entry
    divides the next.  Total on all integer matrices.
    """
    rows = m.row_lists()
    diag, U, V, _ = _snf_core(rows)
    d = IntegerMatrix.zero(m.rows, m.cols)
    for i, v in enumerate(diag):
        d.entries[i * m.cols + i] = v
    return d, IntegerMatrix.from_rows(U) if m.rows else IntegerMatrix(0, 0, []), \
        IntegerMatrix.from_rows(V) if m.cols else IntegerMatrix(0, 0, [])


def _check_moduli(m: IntegerMatrix, moduli, p):
    if m.rows != len(moduli):
        raise ValueError(f"matrix has {m.rows} rows but {len(moduli)} moduli")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if any(e < 1 for e in moduli):
        raise ValueError("moduli exponents must be >= 1")


def _augmented(m: IntegerMatrix, moduli, p):
    _check_moduli(m, moduli, p)
    rows = []
    c = m.cols
    for i, e in enumerate(moduli):
        row = m.entries[i * c:(i + 1) * c] + [0] * len(moduli)
        row[c + i] = p ** e
        rows.append(row)
    return rows


def _moduli_smith_form(m: IntegerMatrix, moduli, p: int):
    """Smith form of [M | diag(p^{m_j})] with transforms: (diag, exponents, U, V).

    ``exponents[i]`` is v_p of the i-th invariant factor (0 for a unit); every
    factor must be a power of p, since the moduli block keeps full row rank.
    """
    diag, U, V, rank = _snf_core(_augmented(m, moduli, p))
    if rank != m.rows:
        raise InvariantViolation("augmented moduli matrix lost full row rank")
    exps = []
    for dval in diag:
        e = vp(dval, p) if dval != 1 else 0
        if p ** e != dval:
            raise InvariantViolation(f"invariant factor {dval} is not a power of {p}")
        exps.append(e)
    return diag, exps, U, V


class CokernelSolver:
    """Smith form with transforms U and V for one map Z^cols -> (+)_j Z/p^{m_j}.

    Diagonalizes the augmented matrix [M | diag(p^{m_j})] once and answers
    element orders and congruence solves from U, kernel bases from V.  Build
    one only where a transform is read; invariant factors alone come from
    the p-local cokernel_invariants.  Immutable after construction.
    """

    def __init__(self, m: IntegerMatrix, moduli, p: int):
        self.matrix = m
        self.moduli = tuple(moduli)
        self.p = p
        self._diag, self._factor_exponents, self._u, self._v = \
            _moduli_smith_form(m, self.moduli, p)

    def _u_times(self, c):
        nonzero = [(k, ck) for k, ck in enumerate(c) if ck]
        return [sum(ur[k] * ck for k, ck in nonzero) for ur in self._u]

    def element_order_exponent(self, c) -> int:
        """Least j >= 0 with p^j * c in im(M) + moduli lattice."""
        if len(c) != len(self.moduli):
            raise ValueError(f"vector has {len(c)} coordinates, expected {len(self.moduli)}")
        y = self._u_times(c)
        j = 0
        for e, yi in zip(self._factor_exponents, y):
            if yi == 0 or e == 0:
                continue
            need = e - min(vp(yi, self.p), e)
            if need > j:
                j = need
        return j

    def solve(self, b):
        """One v with M v = b modulo the moduli, or None if unsolvable."""
        if len(b) != len(self.moduli):
            raise ValueError(f"vector has {len(b)} coordinates, expected {len(self.moduli)}")
        y = self._u_times(b)
        w = []
        for k, (dval, yk) in enumerate(zip(self._diag, y)):
            if yk % dval:
                return None
            if yk:
                w.append((k, yk // dval))
        return [sum(vr[k] * wk for k, wk in w) for vr in self._v[:self.matrix.cols]]

    def kernel_basis(self):
        """Basis of {v : M v = 0 mod moduli}; exactly cols vectors."""
        cols = self.matrix.cols
        r = len(self._diag)
        n = len(self._v)
        return [[self._v[i][j] for i in range(cols)] for j in range(r, n)]


def _plocal_exponents(rows, moduli, p: int) -> list:
    """Nonzero invariant exponents of the cokernel of ``rows`` in (+)_r Z/p^{moduli[r]}.

    The cokernel is a finite p-group, so it is computed over Z_(p), where
    every entry prime to p is a unit.  ``rows[r]`` must come reduced modulo
    p^{moduli[r]} and is consumed.  The moduli columns stay implicit: row r
    is kept reduced modulo its own p^{e_r}, which is sound because that
    column touches row r alone until row r is a pivot.  The live block is
    p^shift times the stored one.  At each shift the rows are swept by
    descending e_r; a row i holding a unit in column j becomes the pivot: it
    is scaled to a 1 there and f times it is subtracted in place from every
    other row, at the pivot's nonzero positions only (in a local-data matrix
    the rows at infinity and at the point 0 are unit vectors, so most pivots
    touch one entry); then column j is spent and dropped and row i splits
    off as Z/p^shift.  Its modulus column, now -f*p^{e_i} mod p^{e_r} in
    row r, is appended as an explicit column when nonzero; largest modulus
    first keeps that rare, since it vanishes in every row not yet swept.  A
    row without a unit stays without one under these subtractions (f is
    divisible by p).  After the sweep an all-zero row splits off as
    Z/p^{shift + e_r}; the rest is divided by p.  A row at e_r = 1 with no
    unit is zero, so every row is settled after max(moduli) shifts.
    """
    e = list(moduli)
    q = [p ** x for x in e]
    active = sorted(range(len(rows)), key=lambda r: -e[r])
    exps = []
    settled = 0
    for shift in range(max(e, default=0)):
        kept = []
        for n, i in enumerate(active):
            row = rows[i]
            j = next((k for k, a in enumerate(row) if a % p), None)
            if j is None:
                kept.append(i)
                continue
            qi = q[i]
            inv = pow(row[j], -1, qi)
            piv = [a * inv % qi for a in row]
            del piv[j]
            settled += 1
            if shift:
                exps.append(shift)
            support = [(k, b) for k, b in enumerate(piv) if b]
            others = kept + active[n + 1:]
            spill = []
            for r in others:
                other = rows[r]
                f = other.pop(j)  # column j is spent once row i is gone
                if f:
                    qr = q[r]
                    for k, b in support:
                        other[k] = (other[k] - f * b) % qr
                    spill.append(-f * qi % qr)
                else:
                    spill.append(0)
            if any(spill):
                for r, s in zip(others, spill):
                    rows[r].append(s)
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
    rows = [[a % p ** e for a in row] for row, e in zip(m.row_lists(), moduli)]
    return AbelianPGroup(p, tuple(_plocal_exponents(rows, moduli, p)))


def quotient_by_cyclic(group: AbelianPGroup, a) -> AbelianPGroup:
    """Invariant factors of group/<a>, a given as one coordinate per factor."""
    a = list(a)
    if len(a) != group.num_factors:
        raise ValueError(f"element has {len(a)} coordinates, group has {group.num_factors} factors")
    col = IntegerMatrix(group.num_factors, 1, a)
    return cokernel_invariants(col, group.exponents, group.p)


def cyclic_quotient_dominates(group: AbelianPGroup, a) -> bool:
    """Postcondition of quotient_by_cyclic: the quotient surjects onto the
    direct sum of all invariant factors of the group except one largest."""
    q = quotient_by_cyclic(group, a)
    target = sorted(group.exponents[:-1], reverse=True) if group.exponents else []
    return dominates(sorted(q.exponents, reverse=True), target)


def rank_mod_p(m: IntegerMatrix, p: int) -> int:
    """Rank of M over F_p, by in-place Gaussian elimination (independent of SNF)."""
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
