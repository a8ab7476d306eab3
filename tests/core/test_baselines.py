"""Tests for the serial, lockstep and factoring baselines."""

import dataclasses

import pytest

from repro.core.costmodel import merge_key_sort_key, uniform_cost_model
from repro.core.factor import factor_schedule
from repro.core.ops import Region, parse_region
from repro.core.pipeline import baselines
from repro.core.prepared import PreparedRegion
from repro.core.schedule import Schedule, Slot
from repro.core.serial import lockstep_schedule, serial_schedule
from repro.core.verify import verify_schedule

UNIT = uniform_cost_model(cost=1.0, mask_overhead=0.0)


class TestSerial:
    def test_cost_is_sum_of_all_ops(self):
        region = parse_region("""
        thread 0:
            a = ld x
            b = add a a
        thread 1:
            c = ld x
        """)
        s = serial_schedule(region, UNIT)
        assert len(s) == 3
        assert s.cost(UNIT) == 3.0
        verify_schedule(s, region, UNIT)

    def test_every_slot_width_one(self):
        region = parse_region("thread 0:\n  a = ld x\nthread 1:\n  b = ld x")
        assert all(slot.width == 1 for slot in serial_schedule(region, UNIT))

    def test_empty_region(self):
        region = Region.from_sequences([[], []])
        assert len(serial_schedule(region, UNIT)) == 0


class TestLockstep:
    def test_aligned_threads_share_slots(self):
        region = parse_region("""
        thread 0:
            a = ld x
            b = add a a
        thread 1:
            c = ld x
            d = add c c
        """)
        s = lockstep_schedule(region, UNIT)
        assert len(s) == 2
        assert all(slot.width == 2 for slot in s)
        verify_schedule(s, region, UNIT)

    def test_misaligned_threads_do_not_share(self):
        # Same multiset of opcodes, shifted by one: lockstep finds nothing.
        region = parse_region("""
        thread 0:
            a = ld x
            b = add a a
        thread 1:
            c = add x x
            d = ld c
        """)
        s = lockstep_schedule(region, UNIT)
        assert len(s) == 4
        verify_schedule(s, region, UNIT)

    def test_threads_of_different_length(self):
        region = parse_region("""
        thread 0:
            a = ld x
        thread 1:
            b = ld x
            c = add b b
        """)
        s = lockstep_schedule(region, UNIT)
        assert len(s) == 2
        verify_schedule(s, region, UNIT)

    def test_deterministic_group_order(self):
        region = parse_region("""
        thread 0:
            a = zop x
        thread 1:
            b = aop x
        """)
        s1 = lockstep_schedule(region, UNIT)
        s2 = lockstep_schedule(region, UNIT)
        assert [slot.opclass for slot in s1] == [slot.opclass for slot in s2]


def _reference_serial(region, model):
    """The serial baseline built from the model, op by op."""
    return Schedule(tuple(
        Slot(model.opcode_class(op.opcode), {tc.thread: op.index})
        for tc in region.threads for op in tc.ops))


def _reference_lockstep(region, model):
    """The lockstep baseline grouped by ``model.merge_key`` tuples."""
    slots = []
    for k in range(max((len(tc) for tc in region.threads), default=0)):
        groups: dict[tuple, dict[int, int]] = {}
        for tc in region.threads:
            if k < len(tc):
                groups.setdefault(model.merge_key(tc.ops[k]),
                                  {})[tc.thread] = k
        for key in sorted(groups, key=merge_key_sort_key):
            picks = groups[key]
            t = next(iter(picks))
            slots.append(Slot(model.opcode_class(region[t].ops[k].opcode),
                              picks))
    return Schedule(tuple(slots))


class TestPreparedBaselines:
    """Serial and lockstep read classes and key ids from the prepared
    region's merge-key table; their schedules and costs equal the ones
    built from the model, and ``baselines`` sums them bit for bit."""

    @pytest.mark.parametrize("equal_imm", [False, True],
                             ids=["any-imm", "require-equal-imm"])
    def test_equal_to_model_built_baselines(self, equal_imm):
        pytest.importorskip("numpy")
        from repro.fuzz import GeneratorSpec, generate_case

        spec = GeneratorSpec(program_fraction=0.0, imm_probability=0.6)
        for index in range(80):
            case = generate_case(5, index, spec)
            region = case.region
            model = dataclasses.replace(case.model,
                                        require_equal_imm=equal_imm)
            prepared = PreparedRegion.build(region, model)
            serial = _reference_serial(region, model)
            lockstep = _reference_lockstep(region, model)
            assert serial_schedule(region, model, prepared) == serial
            assert lockstep_schedule(region, model, prepared) == lockstep
            assert serial_schedule(region, model) == serial
            assert lockstep_schedule(region, model) == lockstep
            assert baselines(prepared) == (serial.cost(model),
                                           lockstep.cost(model))
            assert baselines(prepared, "lockstep", 1.5) == \
                (serial.cost(model), 1.5)


class TestFactor:
    def test_factors_common_prologue_and_epilogue(self):
        region = parse_region("""
        thread 0:
            i = fetch pc
            a = mul i i
            p = incpc pc
        thread 1:
            j = fetch pc
            b = add j j
            q = incpc pc
        """)
        s = factor_schedule(region, UNIT)
        verify_schedule(s, region, UNIT)
        assert s.cost(UNIT) == 4.0  # fetch + mul + add + incpc
        assert s[0].width == 2 and s[-1].width == 2

    def test_no_commonality_degenerates_to_serial(self):
        region = parse_region("""
        thread 0:
            a = ld x
        thread 1:
            b = mul x x
        """)
        s = factor_schedule(region, UNIT)
        assert s.cost(UNIT) == 2.0

    def test_identical_threads_fully_merge(self):
        region = parse_region("""
        thread 0:
            a = ld x
            b = add a a
        thread 1:
            c = ld x
            d = add c c
        """)
        s = factor_schedule(region, UNIT)
        assert s.cost(UNIT) == 2.0

    def test_prefix_suffix_do_not_overlap(self):
        # One-op threads sharing the single op: prefix takes it, suffix must
        # not consume it again.
        region = parse_region("""
        thread 0:
            a = ld x
        thread 1:
            b = ld x
        """)
        s = factor_schedule(region, UNIT)
        verify_schedule(s, region, UNIT)
        assert len(s) == 1

    def test_unequal_lengths(self):
        region = parse_region("""
        thread 0:
            i = fetch pc
            p = incpc pc
        thread 1:
            j = fetch pc
            b = add j j
            q = incpc pc
        """)
        s = factor_schedule(region, UNIT)
        verify_schedule(s, region, UNIT)
        assert s.cost(UNIT) == 3.0
