"""Console entry points: mprun, idlc, bench, demo.

mprun is the rank launcher (the stand-in for mpirun): everything after
`--` is the program and its arguments, everything before it configures
the run. idlc compiles a type definition file to its descriptor listing.
bench and demo expose the measurement tools as subcommands.
"""

import argparse
import sys
from typing import List, Optional

from .idl import IdlError, TypeRegistry, format_descriptors


def _exit_status(codes: List[int]) -> int:
    """Overall status: 0 if every rank exited 0, else the first failure.

    Ranks killed by a signal report negative codes; map them to the
    shell convention 128 + signal number.
    """
    for code in codes:
        if code != 0:
            return code if code > 0 else 128 + abs(code)
    return 0


def mprun_main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" in argv:
        split = argv.index("--")
        head, tail = argv[:split], argv[split + 1:]
    else:
        head, tail = argv, []

    parser = argparse.ArgumentParser(
        prog="mprun",
        description="Run PROG on N communicating ranks.",
        usage="mprun -n N [--backend thread|process] [--timeout SECS] "
              "[--hetero] -- PROG [ARGS...]")
    parser.add_argument("-n", "--nprocs", type=int, required=True, metavar="N",
                        help="number of ranks to start")
    parser.add_argument("--backend", choices=["thread", "process"],
                        default="process",
                        help="rank container (default: process)")
    parser.add_argument("--timeout", type=float, default=10.0, metavar="SECS",
                        help="rendezvous window (default: 10)")
    parser.add_argument("--hetero", action="store_true",
                        help="force the portable wire encoding everywhere")
    ns = parser.parse_args(head)

    if ns.nprocs < 1:
        parser.error("-n must be at least 1")
    if not tail:
        parser.error("expected -- PROG [ARGS...] after the options")

    from .launcher import LaunchError, LaunchPlan, launch
    from .transport import BackendKind, TransportError

    plan = LaunchPlan(nprocs=ns.nprocs, program=tail[0], args=tuple(tail[1:]),
                      backend=BackendKind(ns.backend), timeout=ns.timeout,
                      hetero=ns.hetero)
    try:
        codes = launch(plan)
    except (LaunchError, TransportError) as exc:
        print(f"mprun: {exc}", file=sys.stderr)
        return 1

    for rank, code in enumerate(codes):
        if code != 0:
            print(f"mprun: rank {rank} exited with status {code}", file=sys.stderr)
    return _exit_status(codes)


def idlc_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="idlc",
        description="Compile a type definition file to descriptor listings.")
    parser.add_argument("file", metavar="FILE")
    ns = parser.parse_args(sys.argv[1:] if argv is None else argv)

    try:
        with open(ns.file, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"idlc: {exc}", file=sys.stderr)
        return 1

    try:
        registry = TypeRegistry.from_idl(source).check()
    except IdlError as exc:
        print(f"idlc: {exc}", file=sys.stderr)
        return 1

    listing = format_descriptors(registry)
    if listing:
        print(listing)
    return 0


def bench_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench",
                                     description="Measurement tools.")
    sub = parser.add_subparsers(dest="command", required=True)
    pack_parser = sub.add_parser("pack",
                                 help="time Native pack against a raw copy")
    pack_parser.add_argument("--size", type=int, default=1 << 20, metavar="BYTES",
                             help="payload size (default: 1 MiB)")
    pack_parser.add_argument("--reps", type=int, default=100, metavar="N",
                             help="repetitions per measurement (default: 100)")
    pack_parser.add_argument("--portable", action="store_true",
                             help="also time Portable pack of seq<f64>")
    ns = parser.parse_args(sys.argv[1:] if argv is None else argv)

    from .bench import bench_pack
    try:
        bench_pack(ns.size, ns.reps, portable=ns.portable)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


def demo_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="demo",
                                     description="Runnable demonstrations.")
    sub = parser.add_subparsers(dest="command", required=True)
    farm_parser = sub.add_parser("taskfarm",
                                 help="master-slave speedup measurement")
    farm_parser.add_argument("--jobs", type=int, default=20, metavar="J",
                             help="number of synthetic jobs (default: 20)")
    farm_parser.add_argument("--workers", type=int, default=4, metavar="W",
                             help="worker count for the parallel run (default: 4)")
    farm_parser.add_argument("--job-ms", type=float, default=100.0, metavar="MS",
                             help="duration of each job (default: 100)")
    ns = parser.parse_args(sys.argv[1:] if argv is None else argv)

    from .bench import demo_taskfarm
    from .slave import SlaveError
    from .transport import TransportError
    try:
        demo_taskfarm(ns.jobs, ns.workers, job_ms=ns.job_ms)
    except ValueError as exc:
        print(f"demo: {exc}", file=sys.stderr)
        return 2
    except (SlaveError, TransportError) as exc:
        print(f"demo: {exc}", file=sys.stderr)
        return 1
    return 0
