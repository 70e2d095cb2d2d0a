"""Statistics containers: breakdown arithmetic, instruction mix, invariants."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import (
    Bucket,
    InstructionMix,
    MachineStats,
    SpuStats,
    TimeBreakdown,
)


class TestTimeBreakdown:
    def test_total_sums_buckets(self):
        bd = TimeBreakdown(working=10, idle=5, mem_stall=85)
        assert bd.total == 100

    def test_fraction(self):
        bd = TimeBreakdown(working=25, mem_stall=75)
        assert bd.fraction(Bucket.WORKING) == 0.25
        assert bd.fraction(Bucket.MEM_STALL) == 0.75

    def test_fraction_of_empty_breakdown_is_zero(self):
        assert TimeBreakdown().fraction(Bucket.IDLE) == 0.0

    def test_fraction_rejects_unknown_bucket(self):
        with pytest.raises(KeyError):
            TimeBreakdown().fraction("nap")

    def test_addition_is_elementwise(self):
        a = TimeBreakdown(working=1, idle=2)
        b = TimeBreakdown(working=10, prefetch=3)
        c = a + b
        assert c.working == 11 and c.idle == 2 and c.prefetch == 3

    def test_average(self):
        parts = [TimeBreakdown(working=10), TimeBreakdown(idle=10)]
        avg = TimeBreakdown.average(parts)
        assert avg.working == 5 and avg.idle == 5

    def test_average_of_nothing(self):
        assert TimeBreakdown.average([]).total == 0

    @given(
        st.lists(
            st.builds(
                TimeBreakdown,
                working=st.integers(0, 1000),
                idle=st.integers(0, 1000),
                mem_stall=st.integers(0, 1000),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_fractions_always_sum_to_one_or_zero(self, parts):
        avg = TimeBreakdown.average(parts)
        total = sum(avg.fractions().values())
        assert total == pytest.approx(1.0) or avg.total == 0


class TestInstructionMix:
    def test_table5_categories(self):
        mix = InstructionMix()
        mix.by_opcode.update(
            LOAD=3, LLOAD=2, STORE=4, READ=5, WRITE=6, ADD=100
        )
        row = mix.table5_row()
        assert row == {
            "total": 120, "LOAD": 5, "STORE": 4, "READ": 5, "WRITE": 6
        }

    def test_lload_counts_as_load(self):
        # "READ instructions ... are replaced by the compiler with LOAD
        # instructions": the rewritten accesses must land in Table 5's
        # LOAD column.
        mix = InstructionMix()
        mix.by_opcode["LLOAD"] += 1
        assert mix.loads == 1 and mix.reads == 0

    def test_merge(self):
        a, b = InstructionMix(), InstructionMix()
        a.by_opcode["ADD"] += 2
        b.by_opcode["ADD"] += 3
        b.by_opcode["READ"] += 1
        a.merge(b)
        assert a.by_opcode["ADD"] == 5 and a.reads == 1

    @given(st.lists(st.sampled_from(
        ["ADD", "LOAD", "LLOAD", "STORE", "READ", "WRITE", "MUL"]
    ), max_size=100))
    def test_total_equals_sum_of_records(self, ops):
        mix = InstructionMix()
        for op in ops:
            mix.by_opcode[op] += 1
        assert mix.total == len(ops)


class TestSpuStats:
    def test_pipeline_usage(self):
        s = SpuStats()
        s.breakdown.working = 30
        s.breakdown.mem_stall = 70
        s.issue_cycles = 25
        assert s.pipeline_usage == 0.25

    def test_pipeline_usage_empty(self):
        assert SpuStats().pipeline_usage == 0.0

    def test_slot_utilization_counts_dual_issue(self):
        s = SpuStats()
        s.breakdown.working = 10
        s.issue_cycles = 10
        s.dual_issue_cycles = 10
        assert s.slot_utilization == 1.0


class TestMachineStats:
    def test_mix_aggregates_spus(self):
        m = MachineStats()
        for _ in range(2):
            s = SpuStats()
            s.mix.by_opcode["READ"] += 5
            m.spus.append(s)
        assert m.mix.reads == 10

    def test_average_breakdown(self):
        m = MachineStats()
        a = SpuStats()
        a.breakdown.working = 10
        b = SpuStats()
        b.breakdown.idle = 10
        m.spus = [a, b]
        avg = m.average_breakdown
        assert avg.working == 5 and avg.idle == 5

    def test_average_pipeline_usage_empty(self):
        assert MachineStats().average_pipeline_usage == 0.0
