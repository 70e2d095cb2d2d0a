"""Report rendering: table formatting and figure-specific views."""

from __future__ import annotations

from repro.bench.report import format_table, table5
from repro.cell.machine import RunResult
from repro.sim.config import paper_config
from repro.sim.stats import MachineStats, SpuStats


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["name", "value"], [["a", 1], ["bbb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4
        # Column widths consistent.
        widths = {len(line) for line in lines}
        assert len(widths) == 1

    def test_numbers_right_aligned(self):
        text = format_table(["x"], [[1], [100]])
        lines = text.splitlines()
        assert lines[2] == "  1"
        assert lines[3] == "100"


def fake_run(**opcounts) -> RunResult:
    stats = MachineStats()
    spu = SpuStats()
    spu.mix.by_opcode.update(opcounts)
    stats.spus.append(spu)
    return RunResult(
        activity="fake",
        config=paper_config(1),
        cycles=100,
        stats=stats,
        prefetch=False,
    )


class TestTable5:
    def test_columns_match_paper(self):
        text = table5({"fake": fake_run(LOAD=3, STORE=2, READ=5, WRITE=1,
                                        ADD=9)})
        assert "Total" in text and "LOAD" in text and "WRITE" in text
        row = text.splitlines()[-1].split()
        assert row == ["fake", "20", "3", "2", "5", "1"]

    def test_lload_reported_in_load_column(self):
        text = table5({"fake": fake_run(LLOAD=7)})
        row = text.splitlines()[-1].split()
        assert row[2] == "7"  # LOAD column
        assert row[4] == "0"  # READ column
