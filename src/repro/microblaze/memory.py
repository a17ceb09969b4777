"""Block RAM and local-memory-bus models for the MicroBlaze system.

Figure 1 of the paper shows the simple MicroBlaze system this package
reproduces: the processor talks to an instruction block RAM over the
instruction local memory bus (``i_lmb``) and to a data block RAM over the
data local memory bus (``d_lmb``).  Both BRAMs are dual ported — the second
ports are what the warp processor's dynamic partitioning module and the
WCLA's data address generator use to read the binary and to access the
application's data (Figures 2 and 3).

The models here are functional (byte-addressable storage with word, half
word, and byte access) plus simple occupancy accounting on the second port
so that contention between the processor and the WCLA can be studied.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional


class MemoryError_(Exception):
    """Raised on out-of-range or misaligned memory accesses."""


class BlockRAM:
    """A dual-ported block RAM with byte-addressable little-endian storage."""

    def __init__(self, size_bytes: int, name: str = "bram"):
        if size_bytes <= 0:
            raise ValueError("BRAM size must be positive")
        self.name = name
        self.size = size_bytes
        self.storage = bytearray(size_bytes)
        #: Number of accesses performed through port A (processor side).
        self.port_a_accesses = 0
        #: Number of accesses performed through port B (DPM / WCLA side).
        self.port_b_accesses = 0

    # -------------------------------------------------------------- bounds
    def _check(self, address: int, width: int) -> None:
        if address < 0 or address + width > self.size:
            raise MemoryError_(
                f"{self.name}: access of {width} bytes at {address:#x} outside "
                f"0..{self.size:#x}"
            )
        if width > 1 and address % width:
            raise MemoryError_(
                f"{self.name}: misaligned {width}-byte access at {address:#x}"
            )

    # -------------------------------------------------------------- port A
    def load(self, address: int, width: int, signed: bool = False) -> int:
        """Read ``width`` bytes at ``address`` through port A."""
        self._check(address, width)
        self.port_a_accesses += 1
        value = int.from_bytes(self.storage[address:address + width], "little")
        if signed and value >= 1 << (8 * width - 1):
            value -= 1 << (8 * width)
        return value

    def store(self, address: int, value: int, width: int) -> None:
        """Write ``width`` bytes at ``address`` through port A."""
        self._check(address, width)
        self.port_a_accesses += 1
        self.storage[address:address + width] = (value & ((1 << (8 * width)) - 1)).to_bytes(
            width, "little"
        )

    # -------------------------------------------------------------- port B
    def load_port_b(self, address: int, width: int = 4, signed: bool = False) -> int:
        """Read through the second port (DPM / WCLA side)."""
        self._check(address, width)
        self.port_b_accesses += 1
        value = int.from_bytes(self.storage[address:address + width], "little")
        if signed and value >= 1 << (8 * width - 1):
            value -= 1 << (8 * width)
        return value

    def store_port_b(self, address: int, value: int, width: int = 4) -> None:
        """Write through the second port (DPM / WCLA side)."""
        self._check(address, width)
        self.port_b_accesses += 1
        self.storage[address:address + width] = (value & ((1 << (8 * width)) - 1)).to_bytes(
            width, "little"
        )

    # ------------------------------------------------------------ bulk load
    def load_image(self, image: bytes, base: int = 0) -> None:
        """Initialise the BRAM contents from ``image`` starting at ``base``."""
        if base + len(image) > self.size:
            raise MemoryError_(
                f"{self.name}: image of {len(image)} bytes at base {base:#x} "
                f"does not fit in {self.size} bytes"
            )
        self.storage[base:base + len(image)] = image

    def words(self, start: int = 0, count: Optional[int] = None) -> List[int]:
        """Return BRAM contents as little-endian 32-bit words, one pass.

        ``start`` is a word-aligned byte offset and ``count`` the number of
        words (default: everything from ``start`` to the end).  The whole
        range is unpacked in a single ``struct`` call instead of slicing
        byte quadruples one by one; the disassembler and the dynamic
        partitioning module's binary reads share this path.
        """
        if start % 4:
            raise MemoryError_(f"{self.name}: misaligned word read at {start:#x}")
        if count is None:
            count = (self.size - start) // 4
        if start < 0 or start + 4 * count > self.size:
            raise MemoryError_(
                f"{self.name}: word range {count}@{start:#x} outside 0..{self.size:#x}"
            )
        return list(struct.unpack_from(f"<{count}I", self.storage, start))

    def store_words(self, address: int, words: List[int]) -> None:
        """Write little-endian 32-bit ``words`` at byte ``address`` in one pass."""
        if address % 4:
            raise MemoryError_(f"{self.name}: misaligned word write at {address:#x}")
        if address < 0 or address + 4 * len(words) > self.size:
            raise MemoryError_(
                f"{self.name}: word range {len(words)}@{address:#x} outside "
                f"0..{self.size:#x}"
            )
        struct.pack_into(f"<{len(words)}I", self.storage, address, *words)


def inline_access_source(load: bool, width: int, address: str, value: str,
                         memory: str, checked: str, top: str,
                         count: str) -> List[str]:
    """Source lines of one BRAM access that generated code runs inline.

    The jit and region engines (port A) and the generated WCLA kernels
    (port B) all emit their data-BRAM accesses through this helper.  An
    address that :meth:`BlockRAM._check` accepts indexes ``memory`` (the
    BRAM's ``storage``) directly and runs the ``count`` statement, which
    keeps the port counter exact.  Every address ``_check`` rejects
    (negative, past the end, misaligned) calls ``checked`` instead, the
    BRAM's own method for that port, so the same :class:`MemoryError_`
    fires at the same point.

    ``address`` is a local name or a literal (it is read more than once)
    and ``top`` the source of the highest valid address for ``width``
    bytes (``size - width``).  For a load ``value`` is the assignment
    target; for a store it is the source of a 32-bit word, of which the
    low ``width`` bytes are written.
    """
    guard = f"not 0 <= {address} <= {top}"
    if width > 1:
        guard = f"{address} & {width - 1} or {guard}"
    span = f"{memory}[{address}:{address} + {width}]"
    if load:
        slow = f"{value} = {checked}({address}, {width})"
        fast = f"{value} = {memory}[{address}]" if width == 1 else \
            f'{value} = int.from_bytes({span}, "little")'
    else:
        slow = f"{checked}({address}, {value}, {width})"
        if width == 1:
            fast = f"{memory}[{address}] = ({value}) & 255"
        elif width == 2:
            fast = f'{span} = (({value}) & 65535).to_bytes(2, "little")'
        else:
            fast = f'{span} = ({value}).to_bytes(4, "little")'
    return [f"if {guard}:", f"    {slow}", "else:", f"    {fast}",
            f"    {count}"]


@dataclass
class LocalMemoryBus:
    """A local memory bus (LMB) connecting the core to one BRAM.

    The LMB is a synchronous single-master bus; BRAM reads complete in two
    clock cycles and writes in two (the second cycle is the BRAM's
    registered output / write strobe).  The bus keeps simple traffic
    statistics that feed the power model (bus toggling contributes to the
    dynamic power of the Spartan3 implementation).
    """

    bram: BlockRAM
    name: str = "lmb"
    read_latency: int = 2
    write_latency: int = 2
    reads: int = 0
    writes: int = 0

    def read(self, address: int, width: int = 4, signed: bool = False) -> int:
        self.reads += 1
        return self.bram.load(address, width, signed=signed)

    def write(self, address: int, value: int, width: int = 4) -> None:
        self.writes += 1
        self.bram.store(address, value, width)

    @property
    def transactions(self) -> int:
        return self.reads + self.writes
