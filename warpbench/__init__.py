"""End-to-end warp-job benchmark with an outside-in per-layer trace.

``python3 warpbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (see :mod:`warpbench.workloads`) and
prints its metrics; the last line of standard output is one JSON object.
The layers of ``src/repro`` are timed from here, by wrapping their public
entry points (:mod:`warpbench.tracing`); nothing under ``src/`` knows
about the benchmark.
"""
