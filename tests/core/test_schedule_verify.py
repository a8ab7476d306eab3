"""Tests for Schedule/Slot and the independent verifier."""

import pytest

from repro.core.costmodel import uniform_cost_model
from repro.core.ops import parse_region
from repro.core.schedule import (
    Schedule, Slot, schedule_from_payload, schedule_to_payload,
)
from repro.core.verify import ScheduleError, verify_schedule

REGION = parse_region("""
thread 0:
    a = ld x
    b = add a a
thread 1:
    c = ld x
    d = add c c
""")
MODEL = uniform_cost_model(cost=2.0, mask_overhead=1.0)


def merged_schedule():
    return Schedule((
        Slot("ld", {0: 0, 1: 0}),
        Slot("add", {0: 1, 1: 1}),
    ))


class TestSlot:
    def test_width_and_threads(self):
        slot = Slot("ld", {0: 0, 1: 0})
        assert slot.width == 2
        assert slot.threads == frozenset({0, 1})

    def test_empty_slot_rejected(self):
        with pytest.raises(ValueError):
            Slot("ld", {})

    def test_picks_immutable(self):
        slot = Slot("ld", {0: 0})
        with pytest.raises(TypeError):
            slot.picks[1] = 0

    def test_iteration_sorted_by_thread(self):
        slot = Slot("ld", {2: 5, 0: 1})
        assert list(slot) == [(0, 1), (2, 5)]


class TestDecodedSlots:
    """Wire slots are built once, without the constructor's copy."""

    def test_decoded_schedule_equals_the_original(self):
        schedule = merged_schedule()
        assert schedule_from_payload(schedule_to_payload(schedule)) == \
            schedule

    def test_decoded_picks_reject_assignment(self):
        slot = schedule_from_payload([["ld", [[0, 0], [1, 0]]]])[0]
        with pytest.raises(TypeError):
            slot.picks[2] = 0
        with pytest.raises(AttributeError):
            slot.opclass = "add"

    def test_wire_values_are_checked(self):
        assert schedule_from_payload([["ld", [["1", 2.0]]]])[0].picks == \
            {1: 2}
        with pytest.raises(ValueError):
            schedule_from_payload([["ld", [["one", 0]]]])
        with pytest.raises(ValueError, match="no participating"):
            schedule_from_payload([["ld", []]])


class TestSchedule:
    def test_cost(self):
        assert merged_schedule().cost(MODEL) == 6.0

    def test_num_ops_and_sharing(self):
        s = merged_schedule()
        assert s.num_ops() == 4
        assert s.sharing_factor() == 2.0
        assert s.utilization(2) == 1.0

    def test_ops_of_thread(self):
        assert merged_schedule().ops_of_thread(1) == [0, 1]

    def test_empty_schedule(self):
        s = Schedule(())
        assert s.cost(MODEL) == 0.0
        assert s.sharing_factor() == 0.0
        assert s.utilization(4) == 0.0

    def test_render_mentions_threads(self):
        assert "T0" in merged_schedule().render()
        assert "ld" in merged_schedule().render(REGION)


class TestVerifier:
    def test_valid_schedule_passes(self):
        verify_schedule(merged_schedule(), REGION, MODEL)

    def test_missing_op_detected(self):
        s = Schedule((Slot("ld", {0: 0, 1: 0}), Slot("add", {0: 1})))
        with pytest.raises(ScheduleError, match="covers 3/4"):
            verify_schedule(s, REGION, MODEL)

    def test_duplicate_op_detected(self):
        s = Schedule((
            Slot("ld", {0: 0, 1: 0}),
            Slot("add", {0: 1, 1: 1}),
            Slot("add", {0: 1}),
        ))
        with pytest.raises(ScheduleError, match="twice"):
            verify_schedule(s, REGION, MODEL)

    def test_wrong_class_detected(self):
        s = Schedule((
            Slot("mul", {0: 0, 1: 0}),
            Slot("add", {0: 1, 1: 1}),
        ))
        with pytest.raises(ScheduleError, match="class"):
            verify_schedule(s, REGION, MODEL)

    def test_non_mergeable_ops_detected(self):
        region = parse_region("""
        thread 0:
            a = push #1
        thread 1:
            b = push #2
        """)
        model = uniform_cost_model()
        strict = type(model)(class_of={}, class_cost={}, mask_overhead=0.0,
                             default_cost=1.0, require_equal_imm=True)
        s = Schedule((Slot("push", {0: 0, 1: 0}),))
        verify_schedule(s, region, model)  # fine when imms may differ
        with pytest.raises(ScheduleError, match="non-mergeable"):
            verify_schedule(s, region, strict)

    def test_dependence_violation_detected(self):
        s = Schedule((
            Slot("add", {0: 1, 1: 1}),
            Slot("ld", {0: 0, 1: 0}),
        ))
        with pytest.raises(ScheduleError, match="violates dependences"):
            verify_schedule(s, REGION, MODEL)

    def test_unknown_thread_detected(self):
        s = Schedule((Slot("ld", {7: 0}),))
        with pytest.raises(ScheduleError, match="unknown thread"):
            verify_schedule(s, REGION, MODEL)

    def test_unknown_op_index_detected(self):
        s = Schedule((Slot("ld", {0: 9}),))
        with pytest.raises(ScheduleError, match="has no op"):
            verify_schedule(s, REGION, MODEL)

    def test_respect_order_flag_enforced(self):
        # Two independent loads may swap under DAG mode but not in
        # program-order mode.
        region = parse_region("thread 0:\n  a = ld x\n  b = ld y")
        s = Schedule((Slot("ld", {0: 1}), Slot("ld", {0: 0})))
        verify_schedule(s, region, MODEL)
        with pytest.raises(ScheduleError):
            verify_schedule(s, region, MODEL, respect_order=True)
