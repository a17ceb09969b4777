"""Two-pass assembler for the MicroBlaze-like instruction set.

The assembler turns human-readable (or compiler-generated) assembly text
into a :class:`repro.isa.program.Program`, i.e. the instruction and data
BRAM images that a MicroBlaze system loads at configuration time.

Supported syntax
----------------

* one instruction or directive per line, ``#`` and ``;`` start comments,
* labels end with ``:`` and may share a line with an instruction,
* directives: ``.text``, ``.data``, ``.word``, ``.half``, ``.byte``,
  ``.space N``, ``.align N``, ``.entry LABEL``,
* pseudo-instructions:

  - ``nop`` → ``or r0, r0, r0``
  - ``li rd, imm32`` → ``addi rd, r0, imm`` or ``imm``-prefixed pair
  - ``la rd, label`` → ``addi rd, r0, <address of label>``
  - ``mv rd, ra`` → ``add rd, ra, r0``

* branch targets may be labels; PC-relative offsets are computed in the
  second pass (absolute for ``brai``/``bralid``).

The assembler is deliberately strict: immediates that do not fit their
field, unknown mnemonics, instructions that require an absent operand and
duplicate labels all raise :class:`AssemblyError` with the source line
number, because silent mis-assembly would corrupt every experiment built on
top of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .encoding import encode
from .instructions import OPCODES, Instruction
from .program import Program, Symbol
from .registers import register_index


#: A label definition at the start of a line, and the rest of the line.
_LABEL_RE = re.compile(r"([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$")


class AssemblyError(ValueError):
    """Raised for any syntactic or semantic assembly problem."""

    def __init__(self, message: str, line_number: Optional[int] = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass
class _PendingInstruction:
    """An instruction recorded during pass one, awaiting label resolution."""

    instr: Instruction
    address: int
    line_number: int
    label_is_absolute: bool = False
    label_is_data: bool = False


@dataclass
class Assembler:
    """Two-pass assembler producing :class:`Program` images.

    Parameters
    ----------
    data_base:
        Byte address at which the ``.data`` section starts inside the data
        block RAM.  The default of zero matches the Harvard organisation of
        the MicroBlaze local memory busses (instruction and data BRAMs are
        separate address spaces).
    """

    data_base: int = 0

    def assemble(self, source: str, name: str = "program") -> Program:
        """Assemble ``source`` and return the resulting program image."""
        pending: List[_PendingInstruction] = []
        data_image = bytearray()
        symbols: Dict[str, Symbol] = {}
        entry_label: Optional[str] = None

        section = "text"
        text_address = 0
        data_address = self.data_base

        for line_number, raw_line in enumerate(source.splitlines(), start=1):
            line = self._strip_comment(raw_line).strip()
            if not line:
                continue
            # Labels (possibly several) at the start of the line.
            while ":" in line:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                label, line = match.group(1), match.group(2).strip()
                if label in symbols:
                    raise AssemblyError(f"duplicate label {label!r}", line_number)
                address = text_address if section == "text" else data_address
                symbols[label] = Symbol(label, address, section)
            if not line:
                continue

            if line.startswith("."):
                section, text_address, data_address, entry_label = self._directive(
                    line, line_number, section, text_address, data_address,
                    data_image, entry_label,
                )
                continue

            if section != "text":
                raise AssemblyError("instructions are only allowed in .text", line_number)

            expanded = self._expand(line, line_number)
            for instr, absolute, is_data_ref in expanded:
                instr.address = text_address
                pending.append(_PendingInstruction(instr, text_address, line_number,
                                                   absolute, is_data_ref))
                text_address += 4

        text_words = self._resolve_and_encode(pending, symbols)
        entry_point = 0
        if entry_label is not None:
            if entry_label not in symbols:
                raise AssemblyError(f".entry refers to unknown label {entry_label!r}")
            entry_point = symbols[entry_label].address

        program = Program(
            name=name,
            text=text_words,
            data=data_image,
            symbols=symbols,
            entry_point=entry_point,
            data_size=len(data_image),
            source=source,
        )
        return program

    # ------------------------------------------------------------------ pass 1
    @staticmethod
    def _strip_comment(line: str) -> str:
        for marker in ("#", ";"):
            index = line.find(marker)
            if index >= 0:
                line = line[:index]
        return line

    def _directive(
        self,
        line: str,
        line_number: int,
        section: str,
        text_address: int,
        data_address: int,
        data_image: bytearray,
        entry_label: Optional[str],
    ) -> Tuple[str, int, int, Optional[str]]:
        parts = line.split(None, 1)
        directive = parts[0].lower()
        argument = parts[1].strip() if len(parts) > 1 else ""

        if directive == ".text":
            return "text", text_address, data_address, entry_label
        if directive == ".data":
            return "data", text_address, data_address, entry_label
        if directive == ".entry":
            if not argument:
                raise AssemblyError(".entry requires a label", line_number)
            return section, text_address, data_address, argument
        if directive in (".word", ".half", ".byte"):
            if section != "data":
                raise AssemblyError(f"{directive} only allowed in .data", line_number)
            width = {".word": 4, ".half": 2, ".byte": 1}[directive]
            for token in self._split_operands(argument):
                value = self._parse_integer(token, line_number)
                data_image.extend(self._to_bytes(value, width, line_number))
                data_address += width
            return section, text_address, data_address, entry_label
        if directive == ".space":
            if section != "data":
                raise AssemblyError(".space only allowed in .data", line_number)
            count = self._parse_integer(argument, line_number)
            if count < 0:
                raise AssemblyError(".space size must be non-negative", line_number)
            data_image.extend(b"\x00" * count)
            return section, text_address, data_address + count, entry_label
        if directive == ".align":
            boundary = self._parse_integer(argument, line_number) if argument else 4
            if boundary <= 0 or boundary & (boundary - 1):
                raise AssemblyError(".align requires a power of two", line_number)
            if section == "data":
                while data_address % boundary:
                    data_image.append(0)
                    data_address += 1
            else:
                raise AssemblyError(".align in .text is not supported", line_number)
            return section, text_address, data_address, entry_label
        raise AssemblyError(f"unknown directive {directive!r}", line_number)

    @staticmethod
    def _to_bytes(value: int, width: int, line_number: int) -> bytes:
        limit = 1 << (8 * width)
        if not -(limit // 2) <= value < limit:
            raise AssemblyError(f"value {value} does not fit in {width} bytes", line_number)
        return (value & (limit - 1)).to_bytes(width, "little")

    @staticmethod
    def _split_operands(text: str) -> List[str]:
        return [token for token in map(str.strip, text.split(",")) if token]

    @staticmethod
    def _parse_integer(token: str, line_number: int) -> int:
        try:
            return int(token, 0)
        except ValueError as exc:
            raise AssemblyError(f"invalid integer {token!r}", line_number) from exc

    # ---------------------------------------------------------------- expansion
    def _expand(self, line: str, line_number: int) -> List[Tuple[Instruction, bool, bool]]:
        """Expand one source line into concrete instructions.

        Returns a list of ``(instruction, target_is_absolute, target_is_data)``
        tuples; most lines expand to exactly one instruction, pseudo
        instructions may expand to two.
        """
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = self._split_operands(operand_text)

        if mnemonic == "nop":
            if operands:
                raise AssemblyError("nop takes no operands", line_number)
            return [(Instruction("or", rd=0, ra=0, rb=0), False, False)]

        if mnemonic == "mv":
            if len(operands) != 2:
                raise AssemblyError("mv requires two operands", line_number)
            rd = self._reg(operands[0], line_number)
            ra = self._reg(operands[1], line_number)
            return [(Instruction("add", rd=rd, ra=ra, rb=0), False, False)]

        if mnemonic == "li":
            if len(operands) != 2:
                raise AssemblyError("li requires two operands", line_number)
            rd = self._reg(operands[0], line_number)
            value = self._parse_integer(operands[1], line_number)
            return self._load_immediate(rd, value)

        if mnemonic == "la":
            if len(operands) != 2:
                raise AssemblyError("la requires two operands", line_number)
            rd = self._reg(operands[0], line_number)
            instr = Instruction("addi", rd=rd, ra=0, target=operands[1])
            return [(instr, True, True)]

        if mnemonic not in OPCODES:
            raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line_number)

        spec = OPCODES[mnemonic]
        if len(operands) != len(spec.operands):
            raise AssemblyError(
                f"{mnemonic} expects {len(spec.operands)} operands "
                f"({', '.join(spec.operands)}), got {len(operands)}",
                line_number,
            )
        instr = Instruction(mnemonic)
        absolute = spec.func & 0x08 != 0 and spec.opcode in (0x26, 0x2E)
        is_data_ref = False
        for field_name, token in zip(spec.operands, operands):
            if field_name == "imm":
                if self._looks_like_register(token):
                    raise AssemblyError(
                        f"{mnemonic} expects an immediate, got register {token!r}",
                        line_number,
                    )
                try:
                    instr.imm = int(token, 0)
                except ValueError:
                    instr.target = token
                    # Non-branch uses of labels refer to data/text addresses.
                    if not spec.is_branch:
                        absolute = True
                        is_data_ref = True
            else:
                setattr(instr, field_name, self._reg(token, line_number))
        return [(instr, absolute, is_data_ref)]

    @staticmethod
    def _looks_like_register(token: str) -> bool:
        return register_index(token) is not None

    @staticmethod
    def _reg(token: str, line_number: int) -> int:
        index = register_index(token)
        if index is None:
            raise AssemblyError(f"invalid register operand: {token!r}",
                                line_number)
        return index

    @staticmethod
    def _load_immediate(rd: int, value: int) -> List[Tuple[Instruction, bool, bool]]:
        """Expand ``li`` into one or two instructions depending on the value."""
        if -0x8000 <= value <= 0x7FFF:
            return [(Instruction("addi", rd=rd, ra=0, imm=value), False, False)]
        value &= 0xFFFFFFFF
        high = (value >> 16) & 0xFFFF
        low = value & 0xFFFF
        if low >= 0x8000:
            # The processor concatenates the IMM prefix with the raw low 16
            # bits (no sign extension), so encode the low half as the signed
            # bit pattern that reproduces those 16 bits.
            low -= 0x10000
        return [
            (Instruction("imm", imm=high), False, False),
            (Instruction("addi", rd=rd, ra=0, imm=low), False, False),
        ]

    # ------------------------------------------------------------------ pass 2
    def _resolve_and_encode(
        self,
        pending: Sequence[_PendingInstruction],
        symbols: Dict[str, Symbol],
    ) -> List[int]:
        words: List[int] = []
        for item in pending:
            instr = item.instr
            if instr.target is not None:
                if instr.target not in symbols:
                    raise AssemblyError(
                        f"undefined label {instr.target!r}", item.line_number
                    )
                symbol = symbols[instr.target]
                if item.label_is_absolute:
                    instr.imm = symbol.address
                else:
                    instr.imm = symbol.address - item.address
                if not -0x8000 <= instr.imm <= 0x7FFF:
                    raise AssemblyError(
                        f"resolved offset {instr.imm} for label {instr.target!r} "
                        "does not fit in 16 bits",
                        item.line_number,
                    )
            try:
                words.append(encode(instr))
            except Exception as exc:
                raise AssemblyError(f"cannot encode {instr}: {exc}", item.line_number) from exc
        return words


def assemble(source: str, name: str = "program") -> Program:
    """Convenience wrapper: assemble ``source`` with default settings."""
    return Assembler().assemble(source, name=name)
