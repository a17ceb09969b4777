"""Binary updating: making the executing application use the new hardware.

The last step of the dynamic partitioning flow "updates the executing
application's binary code to utilize the hardware within the configurable
logic fabric" (Section 3).  We reproduce that as the real tools did:

* an *invocation stub* is appended to the program's instruction image; it
  copies the kernel's live-in registers to the WCLA's register file over
  the on-chip peripheral bus, starts the hardware, copies the live-out
  registers back, and branches to the loop's exit;
* the first instruction of the loop (the backward branch's target) is
  overwritten with an absolute branch to the stub.

Everything else in the binary is untouched, so code that reaches the loop
header keeps working and code that never did is unaffected.  The patching
is reversible (the original words are recorded) which the tests use to
verify that un-patching restores a bit-identical binary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..decompile.kernel import HardwareKernel
from ..isa.encoding import encode
from ..isa.instructions import Instruction
from ..isa.program import Program
from ..microblaze.opb import OPB_BASE_ADDRESS
from ..fabric.hw_exec import WclaPeripheral

#: Registers the code generator uses as intra-statement scratch; they are
#: never live across the loop boundary so the stub may clobber them and does
#: not need to restore them.
SCRATCH_REGISTERS = (17, 18)

#: Encoded canonical NOP (``or r0, r0, r0``), used to blank undone stubs.
_NOP_WORD = encode(Instruction("or", rd=0, ra=0, rb=0))


class PatchError(Exception):
    """Raised when a kernel cannot be safely patched into the binary."""


@dataclass
class BinaryPatch:
    """Record of one applied patch (enough to undo it)."""

    header_address: int
    original_word: int
    stub_address: int
    stub_words: List[int] = field(default_factory=list)
    exit_address: int = 0
    live_in_registers: Tuple[int, ...] = ()
    live_out_registers: Tuple[int, ...] = ()

    @property
    def stub_instructions(self) -> int:
        return len(self.stub_words)

    @property
    def invocation_opb_accesses(self) -> int:
        """OPB transactions per invocation (live-in writes + start + live-out reads)."""
        return len(self.live_in_registers) + 1 + len(self.live_out_registers)


def _stub_instructions(kernel: HardwareKernel, wcla_base: int,
                       exit_address: int) -> List[Instruction]:
    """Build the invocation stub for ``kernel``."""
    live_in = [r for r in kernel.live_in_registers if r != 0]
    live_out = [r for r in kernel.live_out_registers
                if r != 0 and r not in SCRATCH_REGISTERS]
    for register in live_in:
        if register in SCRATCH_REGISTERS:
            raise PatchError(
                f"live-in register r{register} collides with the stub's scratch registers"
            )

    instructions: List[Instruction] = []
    high = (wcla_base >> 16) & 0xFFFF
    low = wcla_base & 0xFFFF
    if low >= 0x8000:
        low -= 0x10000
    instructions.append(Instruction("imm", imm=high))
    instructions.append(Instruction("addi", rd=18, ra=0, imm=low,
                                    comment="r18 = WCLA base"))
    for register in live_in:
        instructions.append(Instruction("swi", rd=register, ra=18, imm=4 * register,
                                        comment=f"live-in r{register}"))
    instructions.append(Instruction("addi", rd=17, ra=0, imm=1))
    instructions.append(Instruction("swi", rd=17, ra=18,
                                    imm=WclaPeripheral.CONTROL_OFFSET,
                                    comment="start hardware"))
    for register in live_out:
        instructions.append(Instruction("lwi", rd=register, ra=18, imm=4 * register,
                                        comment=f"live-out r{register}"))
    instructions.append(Instruction("brai", imm=exit_address,
                                    comment="resume after the loop"))
    return instructions


def apply_patch(program: Program, kernel: HardwareKernel,
                wcla_base: int = OPB_BASE_ADDRESS,
                system=None) -> BinaryPatch:
    """Patch ``program`` in place so the kernel's loop runs on the WCLA.

    Returns the :class:`BinaryPatch` record needed to undo the change and to
    account for the per-invocation communication overhead.

    When ``system`` (a running
    :class:`~repro.microblaze.system.MicroBlazeSystem`) is given, the patch
    is additionally applied to the *live* instruction BRAM through the
    DPM's second port and the CPU's decode cache and superblock
    translations covering the touched addresses are invalidated — the
    mid-execution binary update of Section 3.  Without invalidation the
    block engines (and the decode cache before them) would keep
    executing the stale translation of the loop header.
    """
    region = kernel.region
    header_address = region.start_address
    exit_address = region.end_address + 4
    if header_address % 4 or header_address >= 4 * len(program.text):
        raise PatchError(f"loop header {header_address:#x} outside the program text")
    if exit_address >= 4 * len(program.text):
        raise PatchError("loop exit falls outside the program text")

    stub_address = 4 * len(program.text)
    stub = _stub_instructions(kernel, wcla_base, exit_address)
    stub_words = [encode(instr) for instr in stub]
    program.text.extend(stub_words)

    original_word = program.word_at(header_address)
    branch_to_stub = Instruction("brai", imm=stub_address)
    program.patch_word(header_address, encode(branch_to_stub))

    if system is not None:
        patch_live_words(system, stub_address, stub_words)
        patch_live_words(system, header_address,
                         [program.word_at(header_address)])

    return BinaryPatch(
        header_address=header_address,
        original_word=original_word,
        stub_address=stub_address,
        stub_words=stub_words,
        exit_address=exit_address,
        live_in_registers=tuple(r for r in kernel.live_in_registers if r != 0),
        live_out_registers=tuple(r for r in kernel.live_out_registers
                                 if r != 0 and r not in SCRATCH_REGISTERS),
    )


def undo_patch(program: Program, patch: BinaryPatch, system=None) -> None:
    """Restore the program to its pre-patch state (bit exact).

    As with :func:`apply_patch`, passing ``system`` also reverts the live
    instruction BRAM and invalidates the stale translations.
    """
    program.patch_word(patch.header_address, patch.original_word)
    expected_length = patch.stub_address // 4 + len(patch.stub_words)
    if len(program.text) < expected_length:
        raise PatchError("program text shorter than expected while undoing patch")
    if 4 * len(program.text) == patch.stub_address + 4 * len(patch.stub_words):
        del program.text[patch.stub_address // 4:]
        stub_restore = [_NOP_WORD] * len(patch.stub_words)
    else:
        # Another patch was applied after this one; blank the stub instead.
        stub_restore = [_NOP_WORD] * len(patch.stub_words)
        for index in range(len(patch.stub_words)):
            program.text[patch.stub_address // 4 + index] = _NOP_WORD
    if system is not None:
        patch_live_words(system, patch.header_address, [patch.original_word])
        patch_live_words(system, patch.stub_address, stub_restore)


def patch_live_words(system, address: int, words: Sequence[int]) -> None:
    """Write ``words`` into a running system's instruction BRAM at ``address``.

    This is the primitive behind mid-execution binary updates: the words go
    in through the BRAM's second port (the port the dynamic partitioning
    module owns in Figure 2), one bulk pass, and the CPU's decode cache and
    superblock cache are invalidated for exactly the touched addresses so
    the next fetch re-translates the patched code.
    """
    bram = system.instr_bram
    bram.store_words(address, list(words))
    bram.port_b_accesses += len(words)
    for offset in range(0, 4 * len(words), 4):
        system.cpu.invalidate_decode_cache(address + offset)
