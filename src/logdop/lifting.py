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
"""

from __future__ import annotations

import random
from functools import lru_cache

from .calculus import (
    CHART_Y,
    OperatorSection,
    TensorSection,
    coeff_a,
    operator_to_laurent,
    standard_operator_basis,
    symbol,
    tensor_to_operator,
)
from .errors import ScheduleFailure, TheoremViolation
from .engine import degree_solver
from .linalg import CokernelSolver
from .localdata import local_data_operator, local_data_tensor, operator_matrix


@lru_cache(maxsize=None)
def correction_solver(p: int, d: int, m: int = 0):
    """Cached congruence solver over the order <= d-1 spanning monomials."""
    ops = tuple(standard_operator_basis(p, d, m, max_order=d - 1))
    mat, moduli = operator_matrix(list(ops), p, d)
    return ops, CokernelSolver(mat, moduli, p)


def sample_kernel_section(p: int, d: int, seed: int, m: int = 0) -> TensorSection:
    """Seeded random section with vanishing degree-d local data.

    Integer combination of the vanishing-data lattice basis with coefficients
    in [-p^2, p^2]; same seed, same section.
    """
    basis = degree_solver(p, d, m).kernel_basis()
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
        raise ValueError(
            "section has nonvanishing degree-d local data at "
            + ", ".join(f"(a={a}, k={k}, i={i})" for a, k, i in data.nonzero_coordinates()))


def lift_by_solve(delta: TensorSection) -> OperatorSection:
    """Solve for an order <= d-1 correction killing all residual local data."""
    _require_kernel_section(delta)
    p, d, m = delta.p, delta.d, delta.m
    base = tensor_to_operator(delta)
    residual = local_data_operator(base).vector()
    ops, solver = correction_solver(p, d, m)
    coeffs = solver.solve([-r for r in residual])
    if coeffs is None:
        raise TheoremViolation(
            f"no order <= {d - 1} correction exists for a vanishing-data section "
            f"(p={p}, d={d}, m={m}); the splitting guarantees one")
    lift = base
    for c, op in zip(coeffs, ops):
        if c:
            lift = lift.plus(op.scaled(c))
    _assert_lift(lift, delta, TheoremViolation)
    return lift


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


def _infinity_degree_clear(op: OperatorSection, k: int) -> bool:
    coeffs = operator_to_laurent(op, CHART_Y).coeffs
    p = op.p
    for i in range(k):
        if coeffs.get((i, k), 0) % p ** (k - i):
            return False
    return True


def lift_by_schedule(delta: TensorSection) -> OperatorSection:
    """Apply the degree-descending corrections; level 0 only.

    Each step must leave the targeted degree clear at infinity (the
    corrections carry the same p-divisibility as the A-coefficients they are
    built from); a residual there aborts with ScheduleFailure.  lift_by_solve
    stays the authoritative path.
    """
    if delta.m != 0:
        raise ValueError("the correction schedule is a level-0 construction")
    _require_kernel_section(delta)
    d = delta.d
    op = tensor_to_operator(delta)
    for j, c_j in enumerate(schedule_multipliers(d), start=1):
        target = d - j
        terms = {}
        for s in range(j + 1, d):
            if delta.A[s]:
                terms[(CHART_Y, s - j, target)] = c_j * delta.A[s]
        if terms:
            op = op.plus(OperatorSection(delta.p, 0, d, terms))
        if not _infinity_degree_clear(op, target):
            raise ScheduleFailure(
                f"schedule step {j} left degree-{target} data at infinity "
                f"(p={delta.p}, d={d})")
    _assert_lift(op, delta, ScheduleFailure)
    return op


def _assert_lift(lift: OperatorSection, delta: TensorSection, exc) -> None:
    if symbol(lift, delta.d).coordinates() != delta.coordinates():
        raise exc("lift changed the top-order symbol")
    if not local_data_operator(lift).is_zero:
        raise exc("lift has residual local data")
