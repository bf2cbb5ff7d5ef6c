import hashlib

import pytest

from logdop import lifting
from logdop.calculus import (
    TensorSection,
    coeff_a,
    symbol,
    tensor_to_operator,
)
from logdop.lifting import (
    lift_by_schedule,
    lift_by_solve,
    sample_kernel_section,
    schedule_multipliers,
)
from logdop.errors import InvariantViolation, NonvanishingLocalData
from logdop.localdata import local_data_operator, local_data_tensor
from logdop.serialize import operator_text


def assert_sound_lift(lift, delta):
    assert symbol(lift, delta.d).coordinates() == delta.coordinates()
    assert local_data_operator(lift).is_zero


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_determinism():
    assert sample_kernel_section(3, 3, seed=42) == sample_kernel_section(3, 3, seed=42)
    assert sample_kernel_section(3, 3, seed=42) != sample_kernel_section(3, 3, seed=43)


def test_sample_has_vanishing_data_and_divisibility():
    for p in (2, 3, 5):
        for d in (1, 2, 4):
            for seed in range(5):
                delta = sample_kernel_section(p, d, seed=seed)
                assert local_data_tensor(delta).is_zero
                # vanishing at 0 and infinity forces the divisibility pattern
                assert all(a % p ** (d - s) == 0 for s, a in enumerate(delta.A))
                assert all(b % p ** (d - sp) == 0 for sp, b in enumerate(delta.B))


def test_p_power_multiple_is_always_a_kernel_section():
    delta = TensorSection(3, 2, 0, (9, 9), (9, 9, 9))
    assert local_data_tensor(delta).is_zero


# ---------------------------------------------------------------------------
# the solve path
# ---------------------------------------------------------------------------

def test_lift_zero_section():
    delta = TensorSection(3, 2, 0, (0, 0), (0, 0, 0))
    assert_sound_lift(lift_by_solve(delta)[0], delta)


def test_lift_rejects_nonkernel_input():
    delta = TensorSection(3, 2, 0, (1, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="nonvanishing"):
        lift_by_solve(delta)
    with pytest.raises(ValueError, match="nonvanishing"):
        lift_by_schedule(delta)


def test_nonkernel_input_error_carries_its_local_data():
    # the schedule checks the section before the level, so a nonvanishing
    # level-1 input is reported as nonvanishing, not as the wrong level
    for m in (0, 1):
        delta = TensorSection(3, 2, m, (1, 0), (0, 0, 0))
        for lift_fn in (lift_by_solve, lift_by_schedule):
            with pytest.raises(NonvanishingLocalData) as info:
                lift_fn(delta)
            assert info.value.data == local_data_tensor(delta)
            assert not info.value.data.is_zero


def test_lift_hand_example_p2_d1():
    # 2 x d_x lifts 2 x d_x^(x)1 with nothing to correct
    delta = TensorSection(2, 1, 0, (0,), (0, 2))
    lift, _ = lift_by_solve(delta)
    assert_sound_lift(lift, delta)
    base = tensor_to_operator(delta)
    diff = lift.minus(base)
    assert local_data_operator(base).is_zero  # already clean for d = 1
    assert symbol(diff, 1).is_zero


def test_lift_by_solve_corpus_level0_and_levels():
    for p in (2, 3):
        for d in (2, 3, 4):
            for m in (0, 1):
                for seed in range(4):
                    delta = sample_kernel_section(p, d, seed=seed, m=m)
                    assert_sound_lift(lift_by_solve(delta)[0], delta)


def test_solve_lifts_at_levels_0_to_2_are_pinned():
    # the operator/1 text of solve lifts at m = 0, 1, 2, hashed: the level
    # reaches the correction system through the a^(m) rows, and the lift
    # suite samples level 0 only.  The last cells are d = 1, whose
    # correction system has no rows and the one column of the operator 1.
    digest = hashlib.sha256()
    cells = [(p, d, m, seed) for p, d in ((2, 5), (3, 6), (5, 4))
             for m in range(3) for seed in range(3)]
    for p, d, m, seed in cells + [(5, 1, m, 7) for m in range(3)]:
        lift, _ = lift_by_solve(sample_kernel_section(p, d, seed=seed, m=m))
        digest.update(operator_text(lift).encode())
    assert digest.hexdigest() == (
        "41b4fdcef91c4db047df53c35289e010bffe44c7bf6872d5f66ce96541178bf2")


# ---------------------------------------------------------------------------
# the schedule path
# ---------------------------------------------------------------------------

def test_schedule_multipliers_anchors():
    assert schedule_multipliers(1) == []
    assert schedule_multipliers(2) == [coeff_a(2, 1)]  # first step adds a_{d,d-1}
    assert schedule_multipliers(3)[0] == coeff_a(3, 2)
    assert schedule_multipliers(4)[0] == coeff_a(4, 3)
    # second step carries a_{d,d-2} - a_{d,d-1} a_{d-1,d-2} up to the step sign
    d = 4
    expected = coeff_a(d, d - 2) - coeff_a(d, d - 1) * coeff_a(d - 1, d - 2)
    assert abs(schedule_multipliers(d)[1]) == abs(expected)


def test_schedule_d1_is_bare_reinterpretation():
    delta = sample_kernel_section(5, 1, seed=3)
    assert lift_by_schedule(delta)[0] == tensor_to_operator(delta)


def test_schedule_rejects_positive_level():
    delta = sample_kernel_section(3, 2, seed=0, m=1)
    with pytest.raises(ValueError, match="level-0"):
        lift_by_schedule(delta)


def test_schedule_corpus_sound():
    for p in (2, 3, 5):
        for d in range(1, 6):
            for seed in range(4):
                delta = sample_kernel_section(p, d, seed=100 + seed)
                assert_sound_lift(lift_by_schedule(delta)[0], delta)


def test_two_paths_differ_by_a_lift_of_zero():
    for p in (2, 3):
        for d in (3, 4, 5):
            delta = sample_kernel_section(p, d, seed=9)
            ls, _ = lift_by_solve(delta)
            lc, _ = lift_by_schedule(delta)
            diff = ls.minus(lc)
            assert symbol(diff, d).is_zero
            assert all(k <= d - 1 for (_c, _i, k) in diff.terms)
            assert local_data_operator(diff).is_zero


def test_schedule_rejects_a_multiplier_off_by_one(monkeypatch):
    # A_1..A_7 are nonzero here, so the forged first step adds terms; the
    # result keeps its symbol but not vanishing local data
    delta = sample_kernel_section(3, 8, seed=1)
    assert all(delta.A[1:])
    assert_sound_lift(lift_by_schedule(delta)[0], delta)
    genuine = schedule_multipliers

    def forged(d):
        c = genuine(d)
        c[0] += 1
        return c

    monkeypatch.setattr(lifting, "schedule_multipliers", forged)
    with pytest.raises(InvariantViolation, match="schedule lift has residual local data"):
        lift_by_schedule(delta)


@pytest.mark.parametrize("lift_fn, path", [(lift_by_solve, "solve"),
                                           (lift_by_schedule, "schedule")],
                         ids=["solve", "schedule"])
def test_a_lift_whose_symbol_moved_is_refused(monkeypatch, lift_fn, path):
    def shifted(op, d):
        coords = symbol(op, d).coordinates()
        coords[0] += 1
        return TensorSection.from_coordinates(op.p, d, op.m, coords)

    monkeypatch.setattr(lifting, "symbol", shifted)
    with pytest.raises(InvariantViolation,
                       match=f"^{path} lift changed the top-order symbol$"):
        lift_fn(sample_kernel_section(3, 4, seed=2))


def test_lifts_return_the_local_data_they_checked():
    delta = sample_kernel_section(5, 6, seed=4)
    for lift_fn in (lift_by_solve, lift_by_schedule):
        lift, data = lift_fn(delta)
        assert lift_fn(delta) == (lift, data)
        assert data == local_data_operator(lift) and data.is_zero
