"""Acceptance gate: one test per criterion, exact tolerances, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines; every comparison below is exact integer/multiset equality
(the two wall-clock budgets have two orders of magnitude of headroom).
"""

import time

from logdop.cli import main
from logdop.engine import (
    exponent_lower_bound,
    h1_tensor,
    level_descent_diagnostic,
    verify_splitting,
)
from logdop.tables import TABLE_RANGES, verify_appendix
from logdop.verify import (
    SuiteResult,
    group_shapes,
    suite_coeffs,
    suite_lattice,
    suite_lift,
    sweep_cyclic_quotients,
)


def verdict(num, name, ok, detail=""):
    line = f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    return ok


def test_criterion_1_appendix_reproduction(capsys):
    t0 = time.perf_counter()
    report = verify_appendix()
    elapsed = time.perf_counter() - t0
    ok = len(report.comparisons) == 39
    flagged = []
    for c in report.comparisons:
        if c.known_discrepancy:
            flagged.append((c.p, c.d))
            # the one inconsistent printed row: splitting containment of the
            # previous row plus new-summand count 2d-1 = 15 replace equality
            ok &= c.splitting_ok and c.summand_count_ok
            ok &= c.computed.num_factors - 49 == 15  # row d=7 has 49 summands
        else:
            ok &= c.matches_printed
    ok &= flagged == [(3, 8)]
    ok &= elapsed < 60.0
    with capsys.disabled():
        assert verdict(1, "appendix reproduction", ok,
                       f"39/39 rows, exception only at (3,8), {elapsed:.2f}s")
    assert main(["appendix", "--out", "/dev/null"]) == 0


def test_criterion_2_exponent_bound(capsys):
    checked = equal = 0
    ok = True
    for p, dmax in TABLE_RANGES:
        for d in range(1, dmax + 1):
            bound = exponent_lower_bound(p, d)
            top = h1_tensor(p, d).max_exponent
            ok &= top >= bound
            checked += 1
            equal += top == bound
    with capsys.disabled():
        assert verdict(2, "exponent bound", ok,
                       f"{checked} cells, equality observed on {equal}/{checked}")


def test_criterion_3_splitting_verification(capsys):
    t0 = time.perf_counter()
    ok = all(verify_splitting(p, d) for p in (2, 3, 5) for d in range(1, 7))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    with capsys.disabled():
        assert verdict(3, "independent splitting verification", ok,
                       f"p in {{2,3,5}}, d <= 6, {elapsed:.2f}s")


def test_criterion_4_lifting_soundness(capsys):
    result = suite_lift(seed=0)
    ok = result.passed
    with capsys.disabled():
        assert verdict(4, "lifting soundness", ok,
                       f"{result.checks} checks over 1800 sections, "
                       f"{len(result.failures)} failures")


def test_criterion_5_coefficient_identities(capsys):
    result = suite_coeffs()
    ok = result.passed
    with capsys.disabled():
        assert verdict(5, "coefficient identities", ok,
                       f"{result.checks} checks, {len(result.failures)} failures")


def test_criterion_6_order_bookkeeping(capsys):
    result = suite_lattice()
    ok = result.passed
    with capsys.disabled():
        assert verdict(6, "order bookkeeping", ok,
                       f"{result.checks} checks, {len(result.failures)} failures")


def test_criterion_7_level_independence(capsys):
    # the degree groups take no level; verify_splitting builds the degree
    # <= d cokernel from the level-m operator basis, whose a^(m) coefficients
    # do depend on m, and compares it with those groups
    ok = True
    cells = 0
    for p in (2, 3, 5):
        for d in range(1, 7):
            for m in (1, 2, 3):
                ok &= verify_splitting(p, d, m)
                cells += 1
    with capsys.disabled():
        assert verdict(7, "level independence", ok, f"{cells} (p,d,m) cells")


def test_criterion_8_cyclic_quotient_oracle(capsys):
    result = SuiteResult("criterion-8")
    for p in (2, 3):
        shapes = group_shapes(4, 8, max_order_vp=8)
        sweep_cyclic_quotients(p, shapes, result, cross_validate=True)
    ok = result.passed
    with capsys.disabled():
        assert verdict(8, "cyclic quotient oracle", ok,
                       f"exhaustive to order p^8, {result.checks} checks, "
                       f"{len(result.failures)} failures")


def test_criterion_9_level_descent_diagnostics(capsys):
    ok = True
    details = []
    for p in (3, 5):
        for m in (1, 2):
            diag = level_descent_diagnostic(p, m, 12, "sqrt")
            grew = diag.grew
            bounds = diag.all_bounds_satisfied
            ok &= grew and bounds
            exps = diag.pushed_exponents()
            details.append(f"(p={p},m={m}): {exps[0]}->{max(exps)}")
    with capsys.disabled():
        assert verdict(9, "level-descent divergence diagnostics", ok,
                       "; ".join(details))
