"""The prefetch transformation (the paper's Section 3 mechanism).

Given a thread template whose EX block READs global data, the pass

1. groups the annotated READs into regions and applies the
   worthwhileness rule (:mod:`repro.compiler.analysis`);
2. synthesizes a **PF code block** that, per selected region and in CDFG
   priority order (:mod:`repro.compiler.cdfg`), allocates an LS buffer
   (LSALLOC), computes the region's main-memory address from the thread's
   pointer parameter, programs the MFC (DMAGET, the Table 3 command), and
   stashes the *translated* pointer — ``buffer - region_start`` — into a
   reserved frame slot (STOREF);
3. redirects the PL load of the pointer parameter to the translated slot,
   so all address arithmetic downstream lands in the Local Store; and
4. rewrites every READ of a selected region into an **LLOAD** ("all READ
   instructions ... are replaced by the compiler with LOAD instructions
   that now access the prefetched data in the local memory").

Registers used by the generated PF code are taken from the top of the
register file; they are dead after the Wait-for-DMA yield (the register
file does not survive a context switch), which is why translated pointers
travel through the frame rather than registers.

Two extensions beyond the paper's initial implementation:

* ``allow_writeback=True`` — regions the thread also *writes* (with
  matching annotations) are prefetched too: their WRITEs become LSTOREs
  and the PS block gains a **DMAPUT** (+ DMAWAIT) that writes the buffer
  back before any post-stores signal consumers.  This is the "more
  advanced mechanism" direction of the paper's future work.
* ``split_transactions=True`` — ablation A1: one word-sized transfer per
  element instead of a block DMA command per region, modeling the
  split-transaction alternative the paper dismisses because a strided
  access "could generate too many transactions (and DMA performs it in
  one transaction)".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.analysis import (
    Region,
    analyze_program,
    select_regions,
)
from repro.compiler.cdfg import prefetch_order
from repro.core.activity import TLPActivity
from repro.isa.instructions import Instruction, LinExpr, Reg
from repro.isa.opcodes import Op
from repro.isa.program import BlockKind, ThreadProgram

__all__ = ["PrefetchOptions", "prefetch_transform", "transform_program", "PassError"]


#: First register index the generated code may clobber.  PF scratch uses
#: the first six; write-back regions take three persistent registers each
#: above those.
COMPILER_REG_BASE = 112
#: First DMA tag id assigned to generated commands.
TAG_BASE = 0


class PassError(ValueError):
    """The prefetch pass cannot be applied to this program."""


@dataclass(frozen=True)
class PrefetchOptions:
    """Tuning knobs of the prefetch pass."""

    #: Minimum expected bytes-used / bytes-transferred for a region to be
    #: worth prefetching (the bitcnt rule).
    worthwhile_threshold: float = 0.5
    #: Frame capacity the transformed template must still fit in.
    max_frame_words: int = 32
    #: Prefetch regions the thread also writes: rewrite WRITEs into
    #: LSTOREs and DMAPUT the buffer back in PS.
    allow_writeback: bool = False
    #: Ablation A1: emit one word-sized transfer per element instead of a
    #: single block DMA command per region.
    split_transactions: bool = False


def prefetch_transform(
    activity: TLPActivity, options: PrefetchOptions | None = None
) -> TLPActivity:
    """Transform every template of ``activity``; structure is preserved.

    Templates without global READs "remain unchanged as in the original
    DTA" (Sec. 3).
    """
    opts = options or PrefetchOptions()
    new_templates = [transform_program(t, opts) for t in activity.templates]
    return activity.with_templates(new_templates)


def transform_program(
    program: ThreadProgram, options: PrefetchOptions | None = None
) -> ThreadProgram:
    """Transform one template (returns it unchanged if nothing to do)."""
    opts = options or PrefetchOptions()
    if program.has_prefetch:
        raise PassError(f"{program.name}: already has a PF block")
    analysis = analyze_program(program)
    regions = select_regions(
        analysis, opts.worthwhile_threshold, opts.allow_writeback
    )
    if not regions:
        return program
    regions = prefetch_order(regions)
    writeback = [r for r in regions if r.written]

    # Reserve one frame slot per region for the translated pointer, plus
    # one per strided region for the redirected (unit) stride value.
    next_slot = program.frame_words
    trans_slot: dict[int, int] = {}
    stride_slot: dict[int, int] = {}
    for r in regions:
        trans_slot[id(r)] = next_slot
        next_slot += 1
        if r.is_strided:
            stride_slot[id(r)] = next_slot
            next_slot += 1
    new_frame_words = next_slot
    if new_frame_words > opts.max_frame_words:
        raise PassError(
            f"{program.name}: transformed template needs {new_frame_words} "
            f"frame words > max {opts.max_frame_words}"
        )
    _check_register_budget(program, regions, writeback)

    pf = _build_pf_block(regions, trans_slot, stride_slot, opts)
    pl_appendix, ps_prefix = _build_writeback(
        writeback, regions, trans_slot
    )

    # Per-block flat-index shifts caused by the inserted code.
    shift_of = {
        BlockKind.PL: len(pf),
        BlockKind.EX: len(pf) + len(pl_appendix),
        BlockKind.PS: len(pf) + len(pl_appendix) + len(ps_prefix),
    }

    slot_redirect = {r.base_slot: trans_slot[id(r)] for r in regions}
    # Strided regions also redirect the program's stride parameter: the
    # gathered copy is contiguous, so the walk stride becomes one word.
    for r in regions:
        if r.is_strided:
            assert r.stride_param_slot is not None
            slot_redirect[r.stride_param_slot] = stride_slot[id(r)]
    selected_reads = {i for r in regions for i in r.read_indices}
    selected_writes = {i for r in regions for i in r.write_indices}

    new_blocks: dict[BlockKind, list[Instruction]] = {BlockKind.PF: pf}
    for kind in (BlockKind.PL, BlockKind.EX, BlockKind.PS):
        rng = program.block_ranges.get(kind)
        if rng is None:
            if kind is BlockKind.PL and pl_appendix:
                new_blocks[BlockKind.PL] = list(pl_appendix)
            if kind is BlockKind.PS and ps_prefix:
                raise PassError(
                    f"{program.name}: write-back needs a PS block to host "
                    f"the DMAPUT (STOP currently ends the EX block)"
                )
            continue
        out: list[Instruction] = []
        for index in range(*rng):
            instr = program.flat[index]
            if (
                kind is BlockKind.PL
                and instr.op is Op.LOAD
                and instr.imm in slot_redirect
            ):
                instr = Instruction(
                    op=Op.LOAD,
                    rd=instr.rd,
                    imm=slot_redirect[instr.imm],
                    comment=(instr.comment + " [translated ptr]").strip(),
                )
            elif index in selected_reads:
                assert instr.op is Op.READ
                instr = instr.replace_op(Op.LLOAD, drop_access=True)
            elif index in selected_writes:
                assert instr.op is Op.WRITE
                instr = instr.replace_op(Op.LSTORE, drop_access=True)
            if instr.spec.is_branch:
                assert isinstance(instr.target, int)
                instr = instr.with_target(instr.target + shift_of[kind])
            out.append(instr)
        if kind is BlockKind.PL:
            out.extend(pl_appendix)
        if kind is BlockKind.PS:
            out = list(ps_prefix) + out
        new_blocks[kind] = out

    _check_redirected(new_blocks, slot_redirect, program)

    return ThreadProgram(
        name=program.name,
        blocks={k: tuple(v) for k, v in new_blocks.items()},
        pointer_params=program.pointer_params,
        frame_words=new_frame_words,
    )


def _check_redirected(
    new_blocks: dict[BlockKind, list[Instruction]],
    slot_redirect: dict[int, int],
    program: ThreadProgram,
) -> None:
    """Every selected base pointer must have been loaded in PL.

    If the PL block never loads the pointer parameter the rewritten EX
    would dereference an untranslated register and read garbage from the
    LS — fail at compile time instead.
    """
    loaded = {
        i.imm for i in new_blocks.get(BlockKind.PL, []) if i.op is Op.LOAD
    }
    for base_slot, trans in slot_redirect.items():
        if trans not in loaded:
            raise PassError(
                f"{program.name}: pointer param in slot {base_slot} is never "
                f"loaded in PL; cannot redirect it to the prefetch buffer"
            )


def _region_offset(
    emit, region: Region, ROFF: int, RP: int, load_param,
) -> bool:
    """Emit code leaving the region's byte offset in ROFF.

    Returns False when the offset is statically zero (nothing emitted).
    ``load_param(dst_reg, slot)`` emits the parameter fetch (a frame LOAD
    in PF, or a register move in PS where the value was preloaded).
    """
    start = region.start
    if start.is_constant:
        if start.offset == 0:
            return False
        emit(Op.LI, rd=ROFF, imm=start.offset, comment="region start offset")
        return True
    load_param(RP, start.param_slot)
    emit(Op.MULI, rd=ROFF, ra=Reg(RP), imm=start.scale)
    if start.offset:
        emit(Op.ADDI, rd=ROFF, ra=Reg(ROFF), imm=start.offset)
    return True


def _build_pf_block(
    regions: list[Region],
    trans_slot: dict[int, int],
    stride_slot: dict[int, int],
    opts: PrefetchOptions,
) -> list[Instruction]:
    base = COMPILER_REG_BASE
    RB, RP, ROFF, RMEM, RBUF, RTRANS = range(base, base + 6)
    pf: list[Instruction] = []

    def emit(op: Op, **kw) -> None:
        pf.append(Instruction(op=op, **kw))

    for i, region in enumerate(regions):
        tag = TAG_BASE + i
        emit(Op.LOAD, rd=RB, imm=region.base_slot,
             comment=f"base ptr of {region.obj}")
        have_off = _region_offset(
            emit, region, ROFF, RP,
            load_param=lambda rd, slot: emit(
                Op.LOAD, rd=rd, imm=slot, comment="region start parameter"
            ),
        )
        if have_off:
            emit(Op.ADD, rd=RMEM, ra=Reg(RB), rb=Reg(ROFF),
                 comment=f"mem addr of {region.obj} region")
        else:
            emit(Op.MOV, rd=RMEM, ra=Reg(RB))
        emit(Op.LSALLOC, rd=RBUF, imm=region.size_bytes,
             comment=f"LS buffer for {region.obj}")
        if opts.split_transactions:
            # Ablation A1: one transfer per word ("too many transactions").
            for w in range(region.size_bytes // 4):
                if w:
                    emit(Op.ADDI, rd=RMEM, ra=Reg(RMEM),
                         imm=region.stride_bytes)
                    emit(Op.ADDI, rd=RBUF, ra=Reg(RBUF), imm=4)
                emit(Op.DMAGET, ra=Reg(RBUF), rb=Reg(RMEM), imm=4, tag=tag)
            # Restore RBUF to the buffer base for the translation below.
            emit(Op.SUBI, rd=RBUF, ra=Reg(RBUF), imm=region.size_bytes - 4)
        elif region.is_strided:
            emit(Op.DMAGETS, ra=Reg(RBUF), rb=Reg(RMEM),
                 imm=region.size_bytes // 4, tag=tag,
                 stride=region.stride_bytes,
                 comment=f"gather {region.size_bytes // 4} words of "
                         f"{region.obj} (stride {region.stride_bytes})")
        else:
            emit(Op.DMAGET, ra=Reg(RBUF), rb=Reg(RMEM), imm=region.size_bytes,
                 tag=tag, comment=f"prefetch {region.size_bytes}B of {region.obj}")
        if have_off:
            emit(Op.SUB, rd=RTRANS, ra=Reg(RBUF), rb=Reg(ROFF),
                 comment="translated base = buf - start")
        else:
            emit(Op.MOV, rd=RTRANS, ra=Reg(RBUF))
        emit(Op.STOREF, ra=Reg(RTRANS), imm=trans_slot[id(region)],
             comment=f"stash translated {region.obj} ptr")
        if region.is_strided:
            # The gathered copy is contiguous: walk it one word at a time.
            emit(Op.LI, rd=RP, imm=4, comment="unit stride for the LS copy")
            emit(Op.STOREF, ra=Reg(RP), imm=stride_slot[id(region)],
                 comment=f"redirected {region.obj} stride")
    return pf


def _writeback_regs(index: int) -> tuple[int, int, int]:
    """The three persistent registers of write-back region ``index``.

    They are loaded at the end of PL and consumed at the start of PS —
    legal because the only register-clearing yield sits at the PF
    boundary, before PL.
    """
    first = COMPILER_REG_BASE + 6 + 3 * index
    return first, first + 1, first + 2  # base ptr, translated ptr, param


def _build_writeback(
    writeback: list[Region],
    regions: list[Region],
    trans_slot: dict[int, int],
) -> tuple[list[Instruction], list[Instruction]]:
    """PL appendix (persistent loads) and PS prefix (DMAPUT + DMAWAIT)."""
    if not writeback:
        return [], []
    base = COMPILER_REG_BASE
    _RB, _RP, ROFF, RMEM, RBUF, _RT = range(base, base + 6)
    pl: list[Instruction] = []
    ps: list[Instruction] = []

    for j, region in enumerate(writeback):
        W_RB, W_RT, W_RP = _writeback_regs(j)
        pl.append(Instruction(op=Op.LOAD, rd=W_RB, imm=region.base_slot,
                              comment=f"[wb] real {region.obj} ptr"))
        pl.append(Instruction(op=Op.LOAD, rd=W_RT, imm=trans_slot[id(region)],
                              comment=f"[wb] translated {region.obj} ptr"))
        if not region.start.is_constant:
            pl.append(Instruction(op=Op.LOAD, rd=W_RP,
                                  imm=region.start.param_slot,
                                  comment="[wb] region start parameter"))

    for j, region in enumerate(writeback):
        W_RB, W_RT, W_RP = _writeback_regs(j)
        tag = TAG_BASE + len(regions) + j

        def emit(op: Op, **kw) -> None:
            ps.append(Instruction(op=op, **kw))

        have_off = _region_offset(
            emit, region, ROFF, W_RP,
            load_param=lambda rd, slot: None,  # already in W_RP from PL
        )
        if have_off:
            emit(Op.ADD, rd=RMEM, ra=Reg(W_RB), rb=Reg(ROFF))
            emit(Op.ADD, rd=RBUF, ra=Reg(W_RT), rb=Reg(ROFF))
        else:
            emit(Op.MOV, rd=RMEM, ra=Reg(W_RB))
            emit(Op.MOV, rd=RBUF, ra=Reg(W_RT))
        emit(Op.DMAPUT, ra=Reg(RBUF), rb=Reg(RMEM), imm=region.size_bytes,
             tag=tag, comment=f"write back {region.size_bytes}B of {region.obj}")
        # Wait before any post-store signals a consumer that data is
        # ready (and before STOP frees the LS buffer under the MFC).
        emit(Op.DMAWAIT, tag=tag)
    return pl, ps


def _check_register_budget(
    program: ThreadProgram,
    regions: list[Region],
    writeback: list[Region],
) -> None:
    """Generated code must not clobber program registers (or overflow).

    PF scratch registers die at the yield, but if the MFC finishes
    *before* the PF block ends the thread falls straight through into PL
    without a register reset — so a clash with registers the program
    expects to survive would be a silent corruption.
    """
    base = COMPILER_REG_BASE
    top = base + 6 + 3 * len(writeback)
    if top > 128:
        raise PassError(
            f"{program.name}: {len(writeback)} write-back regions need "
            f"registers r{base}..r{top - 1}, beyond the register file"
        )
    for instr in program.flat:
        used = [instr.rd] if instr.rd is not None else []
        for operand in (instr.ra, instr.rb):
            if isinstance(operand, Reg):
                used.append(operand.index)
        for r in used:
            if r is not None and r >= base:
                raise PassError(
                    f"{program.name}: register r{r} collides with the "
                    f"compiler-reserved range (>= r{base})"
                )
