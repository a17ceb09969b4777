#!/usr/bin/env python3
"""Look inside the on-chip CAD flow for one benchmark kernel.

Shows each stage the dynamic partitioning module runs for ``matmul``'s
inner-product loop: the profiler's critical-region choice, the disassembled
loop, the decompiled dataflow view (induction variable, affine memory
accesses, operation counts), the synthesis binding (MAC, LUTs, wires,
control FSM after logic minimisation), placement/routing statistics, the
achievable WCLA clock, the form of the kernel model that executes it (a
counted loop over affine address streams, like the WCLA's loop counter
and data address generator, or the generic per-iteration loop), and the
binary patch that redirects the loop to the hardware.

Run with:  python examples/inspect_kernel_hardware.py [benchmark]
"""

import sys

from repro.apps import benchmark_names, build_benchmark
from repro.compiler import compile_source
from repro.decompile import decompile_and_extract
from repro.fabric import DEFAULT_WCLA, implement_kernel, place_kernel, route_kernel
from repro.fabric.hw_exec import WclaExecutionEngine
from repro.isa import decode, format_instruction
from repro.microblaze import PAPER_CONFIG, run_program
from repro.partition import DynamicPartitioningModule
from repro.profiler import OnChipProfiler
from repro.synthesis import synthesize_kernel


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "matmul"
    if name not in benchmark_names():
        raise SystemExit(f"unknown benchmark {name!r}; choose from {benchmark_names()}")

    bench = build_benchmark(name, small=True)
    program = compile_source(bench.source, name=name, config=PAPER_CONFIG).program

    print(f"=== {name}: {bench.description} ===")
    print(f"critical kernel: {bench.kernel_description}\n")

    # Phase 1: profile.
    profiler = OnChipProfiler()
    run_program(program, PAPER_CONFIG, listeners=[profiler])
    region = profiler.most_critical_region()
    print("--- profiler ---")
    print(profiler.summary())
    print()

    # The loop as the DPM sees it: raw machine words in the instruction BRAM.
    print("--- disassembled critical region ---")
    for address in range(region.start_address, region.end_address + 4, 4):
        instr = decode(program.word_at(address), address=address)
        print("   " + format_instruction(instr))
    print()

    # Phase 2: decompile and synthesise.
    kernel = decompile_and_extract(program.text, region)
    print("--- decompiled kernel ---")
    print(kernel.summary())
    print()
    for register, expr in sorted(kernel.body.register_updates.items()):
        print(f"   r{register}' = {expr}")
    for store in kernel.body.stores:
        print(f"   {store}")
    print(f"   continue while {kernel.body.continue_condition}")
    print()

    synthesis = synthesize_kernel(kernel)
    print("--- synthesis / technology mapping ---")
    print(synthesis.summary())
    control = synthesis.control
    print(f"control FSM: {control.num_states} states, {control.luts} LUTs after "
          f"logic minimisation ({control.original_literals} -> "
          f"{control.minimized_literals} literals)")
    print()

    # Phase 3: place, route, estimate the clock.
    placement = place_kernel(synthesis, DEFAULT_WCLA)
    routing = route_kernel(placement, DEFAULT_WCLA)
    implementation = implement_kernel(kernel, synthesis, placement, routing, DEFAULT_WCLA)
    print("--- placement / routing / timing ---")
    print(f"placed {len(placement.components)} components, total wirelength "
          f"{placement.total_wirelength}, {placement.area.clbs_used} CLBs "
          f"({100 * placement.area.utilization:.1f}% of the fabric)")
    print(f"routing: {routing.iterations} iteration(s), max channel occupancy "
          f"{routing.max_channel_occupancy}/{routing.channel_capacity}")
    print(f"clock: {implementation.clock_mhz:.0f} MHz "
          f"(limited by {implementation.timing.limiting_factor()}), "
          f"II = {implementation.initiation_interval}, configuration bitstream "
          f"{implementation.bitstream.total_bits} bits")
    print(f"WCLA kernel model: {WclaExecutionEngine(implementation).form}")
    print()

    # Phase 4: patch the binary and show the invocation stub.
    patched = program.copy()
    outcome = DynamicPartitioningModule().partition(patched, region)
    print("--- binary update ---")
    print(f"loop header {outcome.patch.header_address:#06x} now branches to the "
          f"invocation stub at {outcome.patch.stub_address:#06x}:")
    for index, word in enumerate(outcome.patch.stub_words):
        instr = decode(word, address=outcome.patch.stub_address + 4 * index)
        print("   " + format_instruction(instr))
    print()
    print(f"modelled on-chip tool time: {outcome.dpm_seconds * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
