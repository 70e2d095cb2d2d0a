"""Thread programs: code blocks, label resolution, block discipline.

A DTA thread consists of code blocks executed in a fixed order
(paper Figs. 3/4):

* **PF** (PreFetch) — added by the prefetch compiler pass; programs the
  DMA unit and stashes translated pointers into the thread's own frame.
* **PL** (Pre-Load) — reads input data from the frame into registers.
* **EX** (EXecute) — computes on registers (plus, in the original DTA,
  possibly-blocking main-memory READ/WRITEs — the problem this paper
  removes).
* **PS** (Post-Store) — sends results to the frames of other threads.

:class:`ThreadProgram` stores each block, resolves branch labels to flat
instruction indices, and enforces the paper's block discipline (e.g.
frame LOADs may not appear in EX, STOREs only in PS, exactly one STOP at
the very end).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.instructions import Instruction, PointerParam
from repro.isa.opcodes import Op

__all__ = ["BlockKind", "ThreadProgram", "ProgramError"]


class ProgramError(ValueError):
    """A thread program violates the DTA block discipline."""


class BlockKind(enum.Enum):
    """Code-block kinds, in execution order."""

    PF = "PF"
    PL = "PL"
    EX = "EX"
    PS = "PS"

    @property
    def order(self) -> int:
        return _BLOCK_ORDER[self]


_BLOCK_ORDER = {BlockKind.PF: 0, BlockKind.PL: 1, BlockKind.EX: 2, BlockKind.PS: 3}

#: Which blocks each restricted opcode may appear in.
_ALLOWED_BLOCKS: dict[Op, frozenset[BlockKind]] = {
    Op.LOAD: frozenset({BlockKind.PF, BlockKind.PL}),
    Op.STOREF: frozenset({BlockKind.PF}),
    Op.STORE: frozenset({BlockKind.PS}),
    Op.READ: frozenset({BlockKind.EX}),
    Op.WRITE: frozenset({BlockKind.EX}),
    Op.LLOAD: frozenset({BlockKind.PL, BlockKind.EX}),
    Op.LSTORE: frozenset({BlockKind.PL, BlockKind.EX}),
    Op.DMAGET: frozenset({BlockKind.PF}),
    Op.DMAGETS: frozenset({BlockKind.PF}),
    Op.DMAPUT: frozenset({BlockKind.PS}),
    Op.DMAWAIT: frozenset({BlockKind.PF, BlockKind.EX, BlockKind.PS}),
    Op.LSALLOC: frozenset({BlockKind.PF}),
    Op.FALLOC: frozenset({BlockKind.EX, BlockKind.PS}),
    Op.FFREE: frozenset({BlockKind.EX, BlockKind.PS}),
    Op.STOP: frozenset({BlockKind.EX, BlockKind.PS}),
}


@dataclass(frozen=True)
class ThreadProgram:
    """An immutable, label-resolved DTA thread template.

    Parameters
    ----------
    name:
        Human-readable template name (unique within an activity).
    blocks:
        Mapping from :class:`BlockKind` to instruction tuples; labels must
        already be resolved to flat indices (use
        :class:`~repro.isa.builder.ThreadBuilder` to get this right).
    pointer_params:
        Frame slots that hold pointers into named global objects (consumed
        by the prefetch pass).
    frame_words:
        Frame slots this template uses (inputs + compiler scratch).
    """

    name: str
    blocks: dict[BlockKind, tuple[Instruction, ...]] = field(default_factory=dict)
    pointer_params: tuple[PointerParam, ...] = ()
    frame_words: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "blocks",
            {k: tuple(v) for k, v in self.blocks.items() if v},
        )
        self._validate()
        flat: list[Instruction] = []
        ranges: dict[BlockKind, tuple[int, int]] = {}
        for kind in (BlockKind.PF, BlockKind.PL, BlockKind.EX, BlockKind.PS):
            instrs = self.blocks.get(kind, ())
            start = len(flat)
            flat.extend(instrs)
            if instrs:
                ranges[kind] = (start, len(flat))
        object.__setattr__(self, "_flat", tuple(flat))
        object.__setattr__(self, "_ranges", ranges)
        #: Where the PF block (which comes first) ends; 0 without one.
        object.__setattr__(self, "pf_end", len(self.blocks.get(BlockKind.PF, ())))

    # -- views ---------------------------------------------------------------

    @property
    def flat(self) -> tuple[Instruction, ...]:
        """All instructions in execution order."""
        return self._flat  # type: ignore[attr-defined]

    @property
    def block_ranges(self) -> dict[BlockKind, tuple[int, int]]:
        """``{kind: (start, end)}`` half-open flat index ranges."""
        return dict(self._ranges)  # type: ignore[attr-defined]

    @property
    def decoded(self):
        """The :class:`~repro.isa.decoded.DecodedProgram` for this program.

        Built lazily on first use and cached for the program's lifetime
        (programs are immutable).  The SPU issue loop reads it.
        """
        cached = getattr(self, "_decoded", None)
        if cached is None:
            from repro.isa.decoded import decode_program

            cached = decode_program(self)
            object.__setattr__(self, "_decoded", cached)
        return cached

    def __getstate__(self) -> dict:
        # The decoded cache is derived: it pickles as this very program,
        # and must not change workload-cache keys.  Drop it; it rebuilds
        # lazily after unpickling.
        state = dict(self.__dict__)
        state.pop("_decoded", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def block_of(self, index: int) -> BlockKind:
        """The block containing flat instruction ``index``."""
        for kind, (start, end) in self._ranges.items():  # type: ignore[attr-defined]
            if start <= index < end:
                return kind
        raise IndexError(f"instruction index {index} out of range")

    def block(self, kind: BlockKind) -> tuple[Instruction, ...]:
        return self.blocks.get(kind, ())

    @property
    def has_prefetch(self) -> bool:
        return self.pf_end > 0  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.flat)

    # -- validation ------------------------------------------------------------

    def _validate(self) -> None:
        if not self.blocks:
            raise ProgramError(f"{self.name}: empty thread program")
        if self.frame_words < 0:
            raise ProgramError(f"{self.name}: negative frame_words")
        seen_ptr_slots = set()
        for p in self.pointer_params:
            if p.slot in seen_ptr_slots:
                raise ProgramError(
                    f"{self.name}: duplicate pointer param slot {p.slot}"
                )
            seen_ptr_slots.add(p.slot)
            if p.slot >= self.frame_words:
                raise ProgramError(
                    f"{self.name}: pointer param slot {p.slot} beyond "
                    f"frame_words={self.frame_words}"
                )

        flat_len = sum(len(v) for v in self.blocks.values())
        stops: list[tuple[BlockKind, int]] = []
        offset = 0
        for kind in (BlockKind.PF, BlockKind.PL, BlockKind.EX, BlockKind.PS):
            instrs = self.blocks.get(kind, ())
            for i, instr in enumerate(instrs):
                allowed = _ALLOWED_BLOCKS.get(instr.op)
                if allowed is not None and kind not in allowed:
                    raise ProgramError(
                        f"{self.name}: {instr.op.value} not allowed in "
                        f"{kind.value} block (allowed: "
                        f"{sorted(k.value for k in allowed)})"
                    )
                if instr.op is Op.STOP:
                    stops.append((kind, offset + i))
                if instr.spec.is_branch:
                    if not isinstance(instr.target, int):
                        raise ProgramError(
                            f"{self.name}: unresolved branch target "
                            f"{instr.target!r} in {kind.value}"
                        )
                    # A branch may target any instruction of its own block,
                    # or the block's end (fall-through into the next block;
                    # illegal in the final block, which must end via STOP).
                    end = offset + len(instrs)
                    last_kind = max(self.blocks, key=lambda k: k.order)
                    limit = end if kind is not last_kind else end - 1
                    if not offset <= instr.target <= limit:
                        raise ProgramError(
                            f"{self.name}: branch in {kind.value} targets flat "
                            f"index {instr.target}, outside the block "
                            f"[{offset}, {end})"
                        )
                for operand_slot in (instr.rd,):
                    if operand_slot is not None and instr.op in (
                        Op.LOAD,
                    ) and instr.imm is not None and instr.imm >= self.frame_words:
                        raise ProgramError(
                            f"{self.name}: LOAD from frame slot {instr.imm} "
                            f"beyond frame_words={self.frame_words}"
                        )
                if instr.op is Op.STOREF and instr.imm is not None \
                        and instr.imm >= self.frame_words:
                    raise ProgramError(
                        f"{self.name}: STOREF to frame slot {instr.imm} "
                        f"beyond frame_words={self.frame_words}"
                    )
            offset += len(instrs)

        if len(stops) != 1:
            raise ProgramError(
                f"{self.name}: expected exactly one STOP, found {len(stops)}"
            )
        stop_kind, stop_index = stops[0]
        if stop_index != flat_len - 1:
            raise ProgramError(f"{self.name}: STOP must be the final instruction")
        last_kind = max(self.blocks, key=lambda k: k.order)
        if stop_kind is not last_kind:
            raise ProgramError(
                f"{self.name}: STOP must sit in the last block ({last_kind.value})"
            )

    # -- pretty printing ---------------------------------------------------------

    def disassemble(self) -> str:
        """Human-readable listing, one block per section."""
        lines = [f"; thread template {self.name!r} ({len(self.flat)} instructions)"]
        for kind in (BlockKind.PF, BlockKind.PL, BlockKind.EX, BlockKind.PS):
            instrs = self.blocks.get(kind)
            if not instrs:
                continue
            start, _ = self.block_ranges[kind]
            lines.append(f".{kind.value}:")
            for i, instr in enumerate(instrs):
                lines.append(f"  {start + i:4d}  {instr}")
        return "\n".join(lines)
