"""Constructive lifts: vanishing-data tensor sections to vanishing-data operators.

Given a degree-d section with zero degree-d local data, both paths produce an
order <= d operator with that symbol and zero local data in all degrees:

* lift_by_solve: authoritative.  Writes the candidate tensor-as-operator plus
  an unknown combination of the order <= d-1 spanning monomials and solves the
  resulting congruence system over the mixed moduli.  Guaranteed solvable;
  a failed solve is a bug witness, not a runtime condition.
* lift_by_schedule: the degree-descending correction schedule (level 0 only).
  Each step j adds c_j * (sum_{j<s<d} A_s y^{s-j}) d_y^{d-j}, where the c_j
  come from a residual multiplier array: mu_e starts at (-1)^d a_{d,e}, step j
  takes gamma_j = mu_{d-j}, c_j = (-1)^{d-j+1} gamma_j and updates
  mu_e -= gamma_j a_{d-j,e}.  The sign bookkeeping is validated against the
  local-data checker, never trusted blind.

The sections to lift are sampled from localdata.kernel_lattice, the memoized
Hermite basis of the vanishing-data lattice (no solver); the one memo and
the one CokernelSolver here are correction_solver's.  It solves on
localdata.operator_matrix, written in closed form without building an
operator, and keeps the key of each order <= d-1 basis monomial from
calculus.standard_basis_keys, the order of that matrix's columns.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .calculus import (
    CHART_Y,
    OperatorSection,
    TensorSection,
    coeff_a,
    standard_basis_keys,
    symbol,
    tensor_to_operator,
)
from .errors import InvariantViolation, NonvanishingLocalData
from .linalg import CokernelSolver
from .localdata import (
    LocalDataVector,
    kernel_lattice,
    local_data_operator,
    local_data_tensor,
    operator_matrix,
)


@lru_cache(maxsize=None)
def correction_solver(p: int, d: int, m: int = 0):
    """Cached congruence solver over the order <= d-1 spanning monomials, as
    (keys, solver): column n of operator_matrix(p, d, m, d - 1) is the
    monomial of key standard_basis_keys(d - 1)[n], and no operator is built."""
    mat, moduli = operator_matrix(p, d, m, max_order=d - 1)
    return tuple(standard_basis_keys(d - 1)), CokernelSolver(mat, moduli, p)


def sample_kernel_section(p: int, d: int, seed: int, m: int = 0) -> TensorSection:
    """Seeded random section with vanishing degree-d local data.

    Integer combination of the vanishing-data lattice basis (the memoized
    localdata.kernel_lattice) with coefficients in [-p^2, p^2]; same seed,
    same section.
    """
    basis = kernel_lattice(p, d)
    rng = random.Random(seed)
    coords = [0] * (2 * d + 1)
    for vec in basis:
        c = rng.randint(-p * p, p * p)
        if c:
            for idx, x in enumerate(vec):
                coords[idx] += c * x
    return TensorSection.from_coordinates(p, d, m, coords)


def _require_kernel_section(delta: TensorSection):
    data = local_data_tensor(delta)
    if not data.is_zero:
        raise NonvanishingLocalData(
            "section has nonvanishing degree-d local data at "
            + ", ".join(f"(a={a}, k={k}, i={i})" for a, k, i in data.nonzero_coordinates()),
            data)


def lift_by_solve(delta: TensorSection):
    """Solve for an order <= d-1 correction killing all residual local data.

    Each solved coefficient is added at its monomial's key in one term dict,
    and the lift is built from it as a single OperatorSection.  Returns the
    pair (lift, its local data as checked zero), so a caller needing that
    data does not compute it again.
    """
    _require_kernel_section(delta)
    p, d, m = delta.p, delta.d, delta.m
    base = tensor_to_operator(delta)
    residual = local_data_operator(base).vector()
    keys, solver = correction_solver(p, d, m)
    coeffs = solver.solve([-r for r in residual])
    if coeffs is None:
        raise InvariantViolation(
            f"no order <= {d - 1} correction exists for a vanishing-data section "
            f"(p={p}, d={d}, m={m}); the splitting guarantees one")
    terms = dict(base.terms)
    for c, key in zip(coeffs, keys):
        if c:
            terms[key] = terms.get(key, 0) + c
    lift = OperatorSection(p, m, d, terms)
    return lift, _assert_lift(lift, delta, "solve")


def schedule_multipliers(d: int) -> list:
    """Correction coefficients c_1..c_{d-1} of the descending schedule."""
    sign_d = -1 if d % 2 else 1
    mu = {e: sign_d * coeff_a(d, e) for e in range(1, d)}
    out = []
    for j in range(1, d):
        target = d - j
        gamma = mu.pop(target)
        c_j = gamma if (d - j + 1) % 2 == 0 else -gamma
        out.append(c_j)
        for e in range(1, target):
            mu[e] -= gamma * coeff_a(target, e)
    return out


def lift_by_schedule(delta: TensorSection):
    """Apply the degree-descending corrections; level 0 only.

    Step j adds c_j * A_s y^{s-j} d_y^{d-j} for j < s < d, all at order
    k = d-j, and no step needs a check of its own.  At infinity the (i, k)
    entry of the result, i < k, is written only by step j = d-k: every other
    step writes order d-j' != k, the bare section's y-chart terms have order
    d, and its x-chart terms x^{s'} d_x^<d> (s' <= d) move to the y chart at
    powers d - s' + t >= t for each order t.  That entry is c_j * A_{i+j}
    (0 for i = 0), and _require_kernel_section has already enforced
    A_s = 0 mod p^{d-s}, which for s = i+j is p^{k-i}: the residue vanishes
    whatever c_j is.  So a wrong multiplier can only show at the finite
    points, where the final _assert_lift looks; that check is the
    schedule's own.  The section is checked before the level,
    so a nonvanishing input is reported as such at every level.
    lift_by_solve stays the authoritative path; the result is the pair
    (lift, checked local data) as there.
    """
    _require_kernel_section(delta)
    if delta.m != 0:
        raise ValueError("the correction schedule is a level-0 construction")
    d = delta.d
    op = tensor_to_operator(delta)
    terms = dict(op.terms)
    for j, c_j in enumerate(schedule_multipliers(d), start=1):
        for s in range(j + 1, d):
            if delta.A[s]:
                terms[(CHART_Y, s - j, d - j)] = c_j * delta.A[s]
    op = OperatorSection(delta.p, 0, d, terms)
    return op, _assert_lift(op, delta, "schedule")


def _assert_lift(lift: OperatorSection, delta: TensorSection, path: str) -> LocalDataVector:
    """Check the lift's symbol and local data; return that (zero) local data."""
    if symbol(lift, delta.d).coordinates() != delta.coordinates():
        raise InvariantViolation(f"{path} lift changed the top-order symbol")
    data = local_data_operator(lift)
    if not data.is_zero:
        raise InvariantViolation(f"{path} lift has residual local data")
    return data
