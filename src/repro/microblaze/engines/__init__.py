"""Pluggable execution-engine registry for the MicroBlaze simulator.

The seed simulator hardcoded its engine choice as a string whitelist in
``cpu.py`` (the old ``_VALID_ENGINES`` tuple) and every layer above it —
the system wrapper, the warp service, the CLI, the wire protocol — carried
the same two literal names.  This package replaces the whitelist with a
first-class registry, exactly as :mod:`repro.cad` replaced the hardcoded
partitioning flow with registered stages: an engine is a named factory
producing an :class:`ExecutionEngine` bound to one
:class:`~repro.microblaze.cpu.MicroBlazeCPU`, and everything above the CPU
resolves engine names through :func:`validate_engine_name` /
:func:`engine_names` instead of a copy of the list.

Two engines register themselves on import:

* ``interp`` — the reference interpreter (defines the semantics);
* ``jit`` (the default) — the source-generating engine: per superblock it
  emits specialized Python source (handler bodies inlined, statistics
  folded into constants, the terminating branch at the end), ``exec``\\ s
  it once into a cached closure, and dispatches block-at-a-time
  (:mod:`repro.microblaze.engine` holds the counter layout it shares
  with the interpreter; both read what each instruction does from the
  opcode table and :mod:`repro.isa.semantics`).

**The engine contract** covers two responsibilities:

1. *Dispatch loop* — :meth:`ExecutionEngine.run` executes until halt or
   budget and calls ``on_backward_branch(pc, target)`` on the CPU's
   observers for every taken branch with ``target < pc``; the CPU
   driver only calls it when the engine's capability flags fit the run
   (otherwise it falls back to the interpreter, e.g. for cycle
   budgets).
2. *Decode-cache invalidation* — :meth:`ExecutionEngine.invalidate` drops
   derived translations covering a patched byte address (or everything)
   and forgets the instruction-image digest (:meth:`~ExecutionEngine.
   image_digest`) that keys the process-wide translation table.  Every
   write to the instruction BRAM (``MicroBlazeSystem.load`` and live
   patching) goes through it.  The CPU's word-level decode cache is
   invalidated by the driver; the engine only manages its own
   translations.

**Registering an engine**::

    from repro.microblaze.engines import ExecutionEngine, register_engine

    class TracingJit(JitEngine):
        ...

    register_engine("jit-tracing", TracingJit)

and ``engine="jit-tracing"`` becomes valid everywhere an engine name
travels: ``MicroBlazeSystem(engine=...)``, ``WarpJob(engine=...)``,
``repro-warp suite --engines``, the WARPNET job codec and
``run_evaluation(engine=...)``.  Unknown names fail up front with
:class:`UnknownEngineError` naming the registered engines.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ...digest import bytes_digest

#: Engine used when a CPU (or system, job, sweep) is built without an
#: explicit choice.
DEFAULT_ENGINE = "jit"


class UnknownEngineError(ValueError):
    """Raised when an engine name does not resolve against the registry."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(engine_names())}"
        )

    def __reduce__(self):
        # The one-arg constructor takes the engine *name*, so the default
        # Exception reduction (which re-passes the formatted message)
        # would double-wrap it when a pool worker pickles the error back
        # to its caller.
        return (UnknownEngineError, (self.name,))


class ExecutionEngine:
    """Base class / contract for one CPU's execution engine.

    Subclasses implement the dispatch loop and own whatever translation
    caches they derive from the instruction BRAM.  One instance is bound
    to one CPU for the CPU's whole lifetime (engines may bind the CPU's
    register file, counter array and peripheral bus once — all three have
    stable identities across :meth:`~repro.microblaze.cpu.MicroBlazeCPU.reset`).
    """

    #: Registry name (set on registration; informational).
    name: str = "?"
    #: Whether :meth:`run` honours a cycle budget / a halt address.  The
    #: driver falls back to the interpreter otherwise.
    supports_max_cycles: bool = False
    supports_halt_address: bool = False

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        #: Derived translations keyed by entry address (block engines).
        #: The interpreter keeps it empty.
        self.blocks: Dict[int, tuple] = {}
        self._image_digest: Optional[str] = None

    def image_digest(self) -> str:
        """SHA-256 of the instruction BRAM image, computed on first use
        after each :meth:`invalidate` (block engines key shared
        translations by it)."""
        digest = self._image_digest
        if digest is None:
            digest = self._image_digest = bytes_digest(
                self.cpu.instr_bram.storage)
        return digest

    # ------------------------------------------------------------- dispatch
    def run(self, max_instructions: int,
            max_cycles: Optional[int] = None) -> None:
        """Execute until the program halts or the budget is exceeded."""
        raise NotImplementedError

    # ---------------------------------------------------------- invalidation
    def invalidate(self, address: Optional[int] = None) -> None:
        """Drop derived translations.

        ``address=None`` drops everything; a byte address drops only the
        translations whose compiled range covers it (the granularity at
        which the dynamic partitioning module patches single words).
        Either way the image digest is recomputed on next use.  Engines
        that cache nothing inherit this no-op-on-empty default.
        """
        self._image_digest = None
        if address is None:
            self.blocks.clear()
            return
        blocks = self.blocks
        stale = []
        for entry, block in blocks.items():
            low, high = self._block_range(block)
            if low <= address <= high:
                stale.append(entry)
        for entry in stale:
            del blocks[entry]

    @staticmethod
    def _block_range(block: tuple) -> Tuple[int, int]:
        """(entry, end) byte range of one cached translation (inclusive)."""
        raise NotImplementedError


# --------------------------------------------------------------------------- registry
EngineFactory = Callable[[object], ExecutionEngine]

_REGISTRY: Dict[str, EngineFactory] = {}


def register_engine(name: str, factory: EngineFactory) -> None:
    """Register ``factory`` (``cpu -> ExecutionEngine``) under ``name``.

    Re-registering a name replaces the factory (so tests and downstream
    code can swap variants).
    """
    if not name or not isinstance(name, str):
        raise ValueError("engine name must be a non-empty string")
    _REGISTRY[name] = factory


def engine_names() -> Tuple[str, ...]:
    """Registered engine names, sorted (the single source of truth — the
    seed's hardcoded ``_VALID_ENGINES`` whitelist lives on only here)."""
    return tuple(sorted(_REGISTRY))


def validate_engine_name(name: Optional[str]) -> str:
    """Resolve ``name`` against the registry.

    ``None`` resolves to :data:`DEFAULT_ENGINE`; unknown names raise
    :class:`UnknownEngineError` listing every registered engine.  Layers
    that carry engine names (jobs, CLI, wire codec) call this up front so
    a typo fails at submission, not deep inside a worker.
    """
    if name is None:
        return DEFAULT_ENGINE
    # The isinstance guard keeps non-string junk (e.g. a list from a JSON
    # job file) on the clean-error path instead of raising TypeError from
    # the dict membership test.
    if not isinstance(name, str) or name not in _REGISTRY:
        raise UnknownEngineError(name)
    return name


def create_engine(name: Optional[str], cpu) -> ExecutionEngine:
    """Build the engine ``name`` bound to ``cpu`` (registry lookup)."""
    resolved = validate_engine_name(name)
    engine = _REGISTRY[resolved](cpu)
    engine.name = resolved
    return engine


# Self-registration of the built-in engines (import order matters only in
# that the registry functions above must exist first).
from . import interp as _interp  # noqa: E402  (registration side effect)
from . import jit as _jit  # noqa: E402

__all__ = [
    "DEFAULT_ENGINE",
    "ExecutionEngine",
    "UnknownEngineError",
    "create_engine",
    "engine_names",
    "register_engine",
    "validate_engine_name",
]
