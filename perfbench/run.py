"""packrun benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload pingpong-mesh --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the traced run, which reports the per-layer metrics, their counts and
self times, and the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The benchmark builds nothing: it
runs packrun from ``src/`` of the same tree, and exits with status 2 when
that is missing. Workloads and metrics are described in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "packrun" / "__init__.py").is_file():
        print(f"perfbench: no packrun sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import driver

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(driver.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = driver.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in driver.report(args.workload, args.seed, args.seconds, bool(args.trace), result):
        print(line)
    if not result.metrics:
        print("perfbench: no session of the run completed", file=sys.stderr)
        return 1
    print(result.line(driver.PER_LAYER if args.trace else driver.END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
