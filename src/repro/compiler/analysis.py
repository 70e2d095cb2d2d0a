"""Global-access analysis for the prefetch pass.

The paper requires the compiler to "recognize when a thread uses
different types of global data" and to decide what to prefetch.  In this
reproduction the front-end's knowledge arrives as
:class:`~repro.isa.instructions.GlobalAccess` annotations on READ/WRITE
instructions (object name, pointer parameter slot, the region the thread
may touch, whether the index is statically known, and the estimated use
count).  This module groups annotated READs into prefetch *regions* and
applies the paper's worthwhileness rule:

    "In certain threads of bitcnt, a thread is reading one element of the
    256-element array, and the element to be read is not known before the
    execution starts, so the entire array needs to be prefetched.  In this
    case, it is faster to leave one memory access inside the thread rather
    than prefetch all elements of the array when only one will be used."

i.e. a region is prefetched only when the expected bytes actually used
amortize the bytes transferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import GlobalAccess, LinExpr
from repro.isa.opcodes import Op
from repro.isa.program import BlockKind, ThreadProgram

__all__ = ["Region", "AccessAnalysis", "analyze_program", "AnalysisError"]


class AnalysisError(ValueError):
    """The access annotations are inconsistent with the program."""


@dataclass
class Region:
    """One candidate prefetch region inside a thread template."""

    obj: str
    base_slot: int
    start: LinExpr
    size_bytes: int
    #: Flat instruction indices of the READs hitting this region.
    read_indices: list[int] = field(default_factory=list)
    #: Flat instruction indices of annotated WRITEs hitting this region
    #: (write-back prefetching rewrites them to LSTOREs and emits a
    #: DMAPUT in PS).
    write_indices: list[int] = field(default_factory=list)
    #: Estimated dynamic executions of those accesses per thread run.
    expected_uses: int = 0
    #: True when any access has a statically-unknown index.
    dynamic: bool = False
    #: Byte distance between consecutive elements (4 = contiguous; larger
    #: values are gathered with a strided DMA command).
    stride_bytes: int = 4
    #: Frame slot holding the program's stride parameter (strided only).
    stride_param_slot: "int | None" = None

    @property
    def utilization(self) -> float:
        """Expected bytes touched per byte transferred."""
        return (4 * self.expected_uses) / self.size_bytes

    @property
    def first_use(self) -> int:
        """Flat index of the earliest access (CDFG scheduling priority)."""
        return min(self.read_indices + self.write_indices)

    @property
    def written(self) -> bool:
        """True when the thread also writes into this region."""
        return bool(self.write_indices)

    @property
    def is_strided(self) -> bool:
        return self.stride_bytes > 4


@dataclass
class AccessAnalysis:
    """Everything the prefetch pass needs to know about one template."""

    program: ThreadProgram
    regions: list[Region]
    #: Objects the template WRITEs (annotated), by name.
    written_objects: set[str]
    #: Flat indices of READs with no annotation (never transformed).
    unannotated_reads: list[int]


def analyze_program(program: ThreadProgram) -> AccessAnalysis:
    """Group the template's annotated global READs into regions."""
    pointer_objs = {p.slot: p.obj for p in program.pointer_params}
    regions: dict[tuple, Region] = {}
    written: set[str] = set()
    unannotated: list[int] = []
    ex_range = program.block_ranges.get(BlockKind.EX)
    for index, instr in enumerate(program.flat):
        is_read = instr.op is Op.READ
        is_write = instr.op is Op.WRITE
        if not (is_read or is_write):
            continue
        access: GlobalAccess | None = instr.access
        if access is None:
            if is_read:
                unannotated.append(index)
            continue
        if is_write:
            written.add(access.obj)
            # A WRITE joins a region only when its pointer parameter is
            # declared (the write-back case); otherwise the annotation
            # just names the output object.
            if pointer_objs.get(access.base_slot) != access.obj:
                continue
        if ex_range is None or not ex_range[0] <= index < ex_range[1]:
            raise AnalysisError(
                f"{program.name}: annotated access outside the EX block"
            )
        declared = pointer_objs.get(access.base_slot)
        if declared is None:
            raise AnalysisError(
                f"{program.name}: READ of {access.obj!r} uses frame slot "
                f"{access.base_slot}, which is not a declared pointer param"
            )
        if declared != access.obj:
            raise AnalysisError(
                f"{program.name}: slot {access.base_slot} points into "
                f"{declared!r} but the access claims {access.obj!r}"
            )
        key = access.region_key
        region = regions.get(key)
        if region is None:
            region = Region(
                obj=access.obj,
                base_slot=access.base_slot,
                start=access.region_start,
                size_bytes=access.region_bytes,
                stride_bytes=access.stride_bytes,
                stride_param_slot=access.stride_param_slot,
            )
            regions[key] = region
        elif region.stride_param_slot != access.stride_param_slot:
            raise AnalysisError(
                f"{program.name}: accesses to one region disagree on the "
                f"stride parameter slot"
            )
        if is_read:
            region.read_indices.append(index)
        else:
            region.write_indices.append(index)
        region.expected_uses += access.expected_uses
        region.dynamic = region.dynamic or access.dynamic_index
    ordered = sorted(regions.values(), key=lambda r: r.first_use)
    return AccessAnalysis(
        program=program,
        regions=ordered,
        written_objects=written,
        unannotated_reads=unannotated,
    )


def select_regions(
    analysis: AccessAnalysis,
    worthwhile_threshold: float,
    allow_writeback: bool = False,
) -> list[Region]:
    """Apply the worthwhileness rule and structural constraints.

    A region is selected when

    * its expected utilization reaches ``worthwhile_threshold`` (the
      bitcnt rule), and
    * its object is not also written by the same template — unless
      ``allow_writeback`` is set *and* the writes are annotated into the
      same region, in which case the pass keeps the LS copy coherent
      with a DMAPUT write-back in PS, and
    * no other *selected* region shares its base pointer slot (the
      pointer-translation rewrite redirects the slot once).
    """
    selected: list[Region] = []
    used_slots: set[int] = set()
    for region in analysis.regions:
        if region.utilization < worthwhile_threshold:
            continue
        if region.obj in analysis.written_objects:
            if not allow_writeback:
                continue
            if not region.written:
                # Written through some other, un-annotated path: the LS
                # copy could go stale; skip.
                continue
            if region.is_strided:
                # Strided scatter-back is not implemented; leave it alone.
                continue
        if region.base_slot in used_slots:
            continue
        used_slots.add(region.base_slot)
        selected.append(region)
    return selected
