"""The reference interpreter as a registered execution engine.

The interpreter loop itself lives on the CPU
(:meth:`~repro.microblaze.cpu.MicroBlazeCPU._run_interpreted`): it is the
semantic reference every other engine must reproduce bit-exactly, the
budget-edge finisher of the block engines, and the fallback path of the
driver — so it stays on the CPU rather than moving behind the registry.
This class is the thin registry adapter that declares its capabilities:
the interpreter is the only engine honouring cycle budgets and halt
addresses at instruction granularity.
"""

from __future__ import annotations

from typing import Optional

from . import ExecutionEngine, register_engine


class InterpreterEngine(ExecutionEngine):
    """Fetch/dispatch/execute reference loop (the seed engine)."""

    supports_max_cycles = True
    supports_halt_address = True

    def run(self, max_instructions: int,
            max_cycles: Optional[int] = None) -> None:
        self.cpu._run_interpreted(max_instructions, max_cycles)

    def invalidate(self, address: Optional[int] = None) -> None:
        """The interpreter derives nothing from the BRAM beyond the CPU's
        own word-level decode cache, which the driver invalidates."""
        return None


register_engine("interp", InterpreterEngine)
