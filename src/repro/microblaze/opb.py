"""On-chip peripheral bus (OPB) and peripheral plumbing.

The MicroBlaze system of Figure 1 hangs its peripherals off the on-chip
peripheral bus, and Figure 2 shows that the warp configurable logic
architecture communicates with the MicroBlaze over the same bus.  The model
here is a simple address-decoded single-master bus: peripherals register an
address window; reads and writes that fall outside the data BRAM are routed
to the owning peripheral.  OPB transactions are slower than local-memory
accesses, which the processor timing model charges through the
``opb_access_extra`` latency of :class:`~repro.microblaze.config.PipelineTimings`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Tuple

#: Base of the OPB address window in the data address space.  Everything the
#: processor loads or stores at or above this address is an OPB transaction.
OPB_BASE_ADDRESS = 0x8000_0000


class Peripheral(Protocol):
    """Interface every OPB peripheral implements.

    Two *optional* attributes extend the protocol for timed device models:

    ``wants_ticks`` (bool, default absent/False)
        Set truthy **before attaching** to receive engine-driven time:
        the execution engines then advance the peripheral with
        :meth:`tick` as simulated cycles elapse — per instruction on the
        interpreter, batched to one ``tick(n)`` per superblock on the
        block engines.  Peripherals without it cost the simulator nothing
        (the engines skip the bus entirely).

    ``tick_deadline()`` (``() -> Optional[int]``, optional method)
        Cycles until the peripheral next needs to observe a tick
        boundary (a timer expiry, a DMA completion).  The block engines
        honour it two ways: a deadline falling inside the upcoming
        superblock drops dispatch to interpreter granularity until the
        boundary has passed, and batched ticks are delivered in chunks
        that never cross the current deadline
        (:meth:`OnChipPeripheralBus.tick_bounded`).  Return ``None`` (or
        omit the method) to allow unbounded batching.
    """

    #: Byte address of the peripheral's first register (absolute).
    base_address: int
    #: Size of the peripheral's register window in bytes.
    window_size: int
    name: str

    def read(self, offset: int) -> int:
        """Read the 32-bit register at byte ``offset`` within the window."""
        ...

    def write(self, offset: int, value: int) -> None:
        """Write the 32-bit register at byte ``offset`` within the window."""
        ...

    def tick(self, cycles: int) -> None:
        """Advance the peripheral's notion of time by ``cycles`` core cycles."""
        ...


@dataclass
class SimplePeripheral:
    """A trivial memory-mapped register file, useful for tests and examples.

    It stands in for the generic ``Periph 1`` / ``Periph 2`` blocks of
    Figure 1 (UART-style status/data registers) without modelling any
    particular device.
    """

    base_address: int
    num_registers: int = 4
    name: str = "periph"
    window_size: int = 0
    registers: List[int] = field(default_factory=list)
    reads: int = 0
    writes: int = 0

    def __post_init__(self) -> None:
        self.window_size = 4 * self.num_registers
        if not self.registers:
            self.registers = [0] * self.num_registers

    def read(self, offset: int) -> int:
        self.reads += 1
        return self.registers[(offset // 4) % self.num_registers]

    def write(self, offset: int, value: int) -> None:
        self.writes += 1
        self.registers[(offset // 4) % self.num_registers] = value & 0xFFFFFFFF

    def tick(self, cycles: int) -> None:  # pragma: no cover - nothing to do
        return None

    # ------------------------------------------------------------ inspection
    def snapshot_state(self) -> Dict:
        return {"registers": list(self.registers),
                "reads": self.reads, "writes": self.writes}


class BusError(Exception):
    """Raised when an OPB access does not decode to any peripheral."""


class OnChipPeripheralBus:
    """Address-decoded on-chip peripheral bus with attached peripherals."""

    def __init__(self, name: str = "opb"):
        self.name = name
        self.peripherals: List[Peripheral] = []
        #: Subset of peripherals that opted into engine-driven time
        #: (``wants_ticks``); empty on the hot path for ordinary systems,
        #: which is what lets the engines skip ticking entirely.
        self.ticking: List[Peripheral] = []
        self.reads = 0
        self.writes = 0

    def attach(self, peripheral: Peripheral) -> None:
        """Attach ``peripheral``; its window must not overlap existing ones."""
        new_lo = peripheral.base_address
        new_hi = new_lo + peripheral.window_size
        for existing in self.peripherals:
            lo = existing.base_address
            hi = lo + existing.window_size
            if new_lo < hi and lo < new_hi:
                raise BusError(
                    f"peripheral {peripheral.name!r} window "
                    f"[{new_lo:#010x}, {new_hi:#010x}) overlaps "
                    f"{existing.name!r} window [{lo:#010x}, {hi:#010x})"
                )
        self.peripherals.append(peripheral)
        if getattr(peripheral, "wants_ticks", False):
            self.ticking.append(peripheral)

    def _find(self, address: int) -> Optional[Peripheral]:
        for peripheral in self.peripherals:
            if peripheral.base_address <= address < peripheral.base_address + peripheral.window_size:
                return peripheral
        return None

    def resolve(self, address: int,
                write: bool) -> Tuple[Optional[Callable], int]:
        """The bound ``write`` (or ``read``) of the peripheral owning
        ``address`` and the offset within its window, or ``(None, 0)``
        when no peripheral owns it.

        An owned address keeps its owner: windows never overlap and a
        peripheral is never detached.  So the jit resolves a block's
        static addresses once, when it binds the block, and calls the
        owner directly with :meth:`try_read` / :meth:`try_write`'s
        counter update and mask; an unowned address keeps the
        per-access decode.
        """
        peripheral = self._find(address)
        if peripheral is None:
            return None, 0
        access = peripheral.write if write else peripheral.read
        return access, address - peripheral.base_address

    def try_read(self, address: int) -> Optional[int]:
        """The word at ``address``, or ``None`` when no peripheral owns
        it: one address decode per access (the engines' OPB loads)."""
        peripheral = self._find(address)
        if peripheral is None:
            return None
        self.reads += 1
        return peripheral.read(address - peripheral.base_address) & 0xFFFFFFFF

    def try_write(self, address: int, value: int) -> bool:
        """Write ``value`` at ``address``; ``False`` when no peripheral
        owns it (the engines' OPB stores)."""
        peripheral = self._find(address)
        if peripheral is None:
            return False
        self.writes += 1
        peripheral.write(address - peripheral.base_address, value & 0xFFFFFFFF)
        return True

    def read(self, address: int) -> int:
        value = self.try_read(address)
        if value is None:
            raise BusError(f"OPB read from unmapped address {address:#010x}")
        return value

    def write(self, address: int, value: int) -> None:
        if not self.try_write(address, value):
            raise BusError(f"OPB write to unmapped address {address:#010x}")

    def tick(self, cycles: int) -> None:
        """Manually advance *every* attached peripheral (public API)."""
        for peripheral in self.peripherals:
            peripheral.tick(cycles)

    def deliver_ticks(self, cycles: int) -> None:
        """Engine-driven time: advance only the opted-in peripherals.

        The execution engines come through here (and through
        :meth:`tick_bounded`), so peripherals that never asked for ticks
        receive none and cost nothing.
        """
        for peripheral in self.ticking:
            peripheral.tick(cycles)

    def next_deadline(self) -> Optional[int]:
        """Cycles until the nearest tick deadline of any ticking peripheral.

        ``None`` means no ticking peripheral constrains batching.  The
        block engines query this once per superblock; a deadline inside
        the upcoming block drops them to per-instruction dispatch.
        """
        nearest: Optional[int] = None
        for peripheral in self.ticking:
            deadline_fn = getattr(peripheral, "tick_deadline", None)
            if deadline_fn is None:
                continue
            deadline = deadline_fn()
            if deadline is not None and (nearest is None
                                         or deadline < nearest):
                nearest = deadline
        return nearest

    def tick_bounded(self, cycles: int) -> None:
        """Deliver ``cycles`` of time without crossing any tick deadline.

        The batched superblock ticks go through here: when a block's
        dynamic cycle contributions (OPB penalties, branch costs) push it
        past a declared deadline, the batch is split into chunks of at
        most the then-current deadline, so timed peripherals observe
        every boundary in order.  With no deadlines this is one plain
        :meth:`deliver_ticks`.
        """
        remaining = cycles
        while remaining > 0:
            deadline = self.next_deadline()
            if deadline is None or deadline >= remaining:
                self.deliver_ticks(remaining)
                return
            self.deliver_ticks(max(1, deadline))
            remaining -= max(1, deadline)

    @property
    def transactions(self) -> int:
        return self.reads + self.writes
