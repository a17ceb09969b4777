"""Gateway subprocess for ``gateway-small``.

``python3 warpbench/serve.py [--trace-dir DIR] <repro-warp serve args>``
runs ``repro-warp serve`` from the checkout's ``src``.  With
``--trace-dir`` the layer wrappers are installed before the gateway builds
its service, so the pool worker it forks inherits them; both processes
append their spans to ``DIR/spans-<pid>.jsonl``.  After the gateway stops,
the last line of standard output is the peak resident set of the gateway
and of its (waited-for) pool worker, in KiB.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args, serve_args = parser.parse_known_args(argv)
    if args.trace_dir is not None:
        from warpbench.tracing import Tracer
        Tracer(flush_dir=args.trace_dir).install()
    from repro.service.cli import main as cli_main
    code = cli_main(["serve", *serve_args])
    print(json.dumps({
        "maxrss_self_kb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
