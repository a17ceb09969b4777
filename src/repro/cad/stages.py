"""The six passes of the on-chip CAD flow and :data:`PAPER_FLOW`, the one
flow that runs them in the paper's order.

Each stage declares exactly what it consumes in its content key:

* ``synthesis`` — the kernel's canonical DADG form plus the two parameters
  :func:`~repro.synthesis.datapath.synthesize_kernel` reads (LUT input
  count, memory ports);
* ``place`` — the synthesis digest plus the fabric geometry the placer
  reads (rows, columns, LUTs per CLB);
* ``route`` — the placement digest plus the channel capacity and the
  router's iteration bound;
* ``implement`` — the routing digest plus the full WCLA (every timing
  constant shapes the clock estimate).

* ``decompile`` — the region's two concrete byte addresses plus the
  program text words between them: everything
  :class:`~repro.decompile.symexec.SymbolicExecutor` reads.  Rejections
  (:class:`~repro.decompile.symexec.DecompilationError`) are memoized as
  negatives.

``binary-update`` is uncacheable: it patches the program in place, at the
region's concrete addresses.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..decompile.kernel import extract_kernel
from ..decompile.symexec import DecompilationError, decompile_region
from ..fabric.place import FabricCapacityError, place_kernel
from ..fabric.route import route_kernel
from ..fabric.implementation import implement_kernel
from ..synthesis.datapath import synthesize_kernel
from .artifacts import CapacityRejection
from .flow import (
    CadFlow,
    FlowContext,
    FlowStage,
    KernelDoesNotFitError,
    KernelRejectedError,
)
from .keys import body_form, canonical_wcla_form, content_digest


# --------------------------------------------------------------------------- decompile
class DecompileStage(FlowStage):
    """Symbolic execution of the critical region into a kernel descriptor.

    Keyed on the region's concrete addresses and the program text words
    in ``[start_address, end_address]``, the only input symbolic
    execution reads, so two programs sharing a loop's text at the same
    addresses share its decompilation.  A region that cannot be
    decompiled is memoized as a negative.  The stage is also the gate —
    a kernel the WCLA cannot host (no induction variable, irregular
    accesses) stops the flow here.
    """

    name = "decompile"
    # v2: a load after a store of the same iteration is rejected.
    # v3: the stage is keyed on the region's text.
    # v4: a register written on one arm of a branch is a live-in.
    key_version = 4
    negative_exceptions = (DecompilationError,)

    def content_key(self, context: FlowContext) -> Optional[str]:
        region = context.region
        text = context.program.text
        # A word outside the text is where decompilation fails; it is
        # keyed as such.
        words = ",".join(
            f"{text[address // 4]:x}" if 0 <= address // 4 < len(text)
            else "-"
            for address in range(region.start_address,
                                 region.end_address + 4, 4))
        return content_digest(self.cache_token(),
                              f"start={region.start_address}",
                              f"end={region.end_address}",
                              f"text={words}")

    def compute(self, context: FlowContext):
        body = decompile_region(context.program.text, context.region)
        return body, extract_kernel(body)

    def install(self, context: FlowContext, value) -> None:
        body, kernel = value
        region = context.region
        if body.region is not region:
            # A cached decompilation carries the region, profile counts
            # included, of the job that computed it: rebind this job's.
            # The cached body serializes its synthesis-key form first, so
            # every rebound copy carries it.
            body_form(body)
            body = dataclasses.replace(body, region=region)
            kernel = dataclasses.replace(kernel, region=region, body=body)
        context.body, context.kernel = body, kernel

    def revive_negative(self, marker: CapacityRejection) -> BaseException:
        return DecompilationError(marker.message)

    def validate(self, context: FlowContext) -> None:
        if not context.kernel.partitionable:
            raise KernelRejectedError(context.kernel.rejection_reason)

    def modelled_cycles(self, context: FlowContext) -> int:
        if context.kernel is None:
            return 0
        return context.kernel.region.num_instructions \
            * context.cost_model.cycles_per_decompiled_instruction


# --------------------------------------------------------------------------- synthesis
class SynthesisStage(FlowStage):
    """Datapath synthesis and technology mapping onto the WCLA."""

    name = "synthesis"

    def content_key(self, context: FlowContext) -> Optional[str]:
        fabric = context.wcla.fabric
        return content_digest(self.cache_token(),
                              body_form(context.kernel.body),
                              f"lut_inputs={fabric.lut_inputs}",
                              f"memory_ports={context.wcla.memory_ports}")

    def compute(self, context: FlowContext):
        return synthesize_kernel(context.kernel,
                                 lut_inputs=context.wcla.fabric.lut_inputs,
                                 memory_ports=context.wcla.memory_ports)

    def install(self, context: FlowContext, value) -> None:
        context.synthesis = value

    def modelled_cycles(self, context: FlowContext) -> int:
        if context.synthesis is None:
            return 0
        return context.synthesis.total_luts \
            * context.cost_model.cycles_per_synthesized_lut


# --------------------------------------------------------------------------- placement
class PlacementStage(FlowStage):
    """Greedy constructive placement on the fabric's CLB grid.

    Capacity rejections are memoized: both a
    :class:`~repro.fabric.place.FabricCapacityError` (no free sites) and a
    completed-but-oversubscribed placement are negatives served from the
    cache on repeats.
    """

    name = "place"
    negative_exceptions = (FabricCapacityError,)

    def content_key(self, context: FlowContext) -> Optional[str]:
        fabric = context.wcla.fabric
        return content_digest(self.cache_token(),
                              context.digests["synthesis"],
                              f"rows={fabric.rows}",
                              f"columns={fabric.columns}",
                              f"luts_per_clb={fabric.luts_per_clb}")

    def compute(self, context: FlowContext):
        return place_kernel(context.synthesis, context.wcla)

    def install(self, context: FlowContext, value) -> None:
        context.placement = value

    def revive_negative(self, marker: CapacityRejection) -> BaseException:
        return FabricCapacityError(marker.message)

    def modelled_cycles(self, context: FlowContext) -> int:
        if context.placement is None:
            return 0
        return len(context.placement.components) \
            * context.cost_model.cycles_per_placed_component


# --------------------------------------------------------------------------- routing
class RouteStage(FlowStage):
    """Negotiated-congestion routing ("Pathfinder-lite") of the placed nets,
    with the router's default bound of four rip-up-and-reroute iterations.
    """

    name = "route"

    def content_key(self, context: FlowContext) -> Optional[str]:
        return content_digest(self.cache_token(),
                              context.digests["place"],
                              f"channel_width={context.wcla.fabric.channel_width}",
                              "max_iterations=4")

    def compute(self, context: FlowContext):
        return route_kernel(context.placement, context.wcla)

    def install(self, context: FlowContext, value) -> None:
        context.routing = value

    def modelled_cycles(self, context: FlowContext) -> int:
        if context.routing is None:
            return 0
        return context.routing.total_segments_used \
            * context.cost_model.cycles_per_routed_segment


# --------------------------------------------------------------------------- implementation
class ImplementationStage(FlowStage):
    """Clock estimation and the symbolic configuration bitstream."""

    name = "implement"

    def content_key(self, context: FlowContext) -> Optional[str]:
        return content_digest(self.cache_token(),
                              context.digests["route"],
                              canonical_wcla_form(context.wcla))

    def compute(self, context: FlowContext):
        return implement_kernel(context.kernel, context.synthesis,
                                context.placement, context.routing,
                                context.wcla)

    def install(self, context: FlowContext, value) -> None:
        context.implementation = value


# --------------------------------------------------------------------------- binary update
class BinaryUpdateStage(FlowStage):
    """Patch the running binary to invoke the new hardware.

    Uncacheable (the stub is linked at the region's concrete addresses),
    and gated on the area check: a kernel that does not fit the fabric is
    never patched in.
    """

    name = "binary-update"

    def compute(self, context: FlowContext):
        if not context.placement.area.fits:
            raise KernelDoesNotFitError("kernel does not fit the fabric")
        # Imported lazily: repro.partition drives this flow, so a module
        # level import here would be circular.
        from ..partition.binary_patch import apply_patch
        return apply_patch(context.program, context.kernel,
                           wcla_base=context.wcla_base_address)

    def install(self, context: FlowContext, value) -> None:
        context.patch = value


# --------------------------------------------------------------------------- the flow
#: The paper's lean on-chip flow: its six stages, in order.  Every DPM
#: runs it; the stages hold no state, so one instance serves them all.
PAPER_FLOW = CadFlow((
    DecompileStage(),
    SynthesisStage(),
    PlacementStage(),
    RouteStage(),
    ImplementationStage(),
    BinaryUpdateStage(),
))

DEFAULT_STAGE_NAMES = tuple(stage.name for stage in PAPER_FLOW.stages)
