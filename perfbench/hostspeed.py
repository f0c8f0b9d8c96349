"""How fast the host runs Python right now, to normalise session figures.

On a shared machine the speed of a CPU drifts by a quarter or more over
minutes, as neighbours come and go, and every figure the benchmark measures
drifts with it: wall-clock times, rates, and CPU time per message alike.
No choice of sessions inside one run removes a drift that lasts longer than
the run. So the driver times a fixed reference kernel, independent of
packrun, on the CPUs a session uses, just before and just after the
session, and reports each session's figures at the reference speed:

    time at reference speed = measured time / slowdown
    rate at reference speed = measured rate * slowdown
    slowdown = kernel time around the session / REFERENCE_NS

A change to packrun cannot move the kernel, so it moves the normalised
figures exactly as it moves the measured ones; the host's drift moves the
kernel and the session together and cancels out. The measured figures are
printed next to the normalised ones. Teardown is left as measured: it is
spent mostly waiting on threads and processes to end, which does not
scale with the interpreter's speed.

The kernel is the kind of work packrun does in its own code: small struct
packs, bytearray appends and trims, dict stores and lookups, in a Python
loop.
"""

from __future__ import annotations

import os
import struct
from time import perf_counter_ns

# Kernel time on an unloaded 2-vCPU x86-64 virtual machine, Python 3.11;
# only the ratio to it matters, so it is fixed once and never re-measured.
REFERENCE_NS = 1_050_000
SAMPLES = 7
_PACK = struct.Struct("<Iq").pack


def kernel() -> int:
    table: dict = {}
    buf = bytearray()
    acc = 0
    for i in range(3000):
        item = _PACK(i, i * 3)
        table[i & 63] = item
        buf += item
        acc += len(buf) + table.get((i * 7) & 63, b"\0")[0]
        if len(buf) > 4096:
            del buf[:2048]
    return acc


def kernel_times(cpus) -> dict:
    """cpu -> the kernel's best time on it, in ns, for each of ``cpus``.

    The caller's CPU affinity is restored before returning.
    """
    allowed = os.sched_getaffinity(0)
    times = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            best = None
            for _ in range(SAMPLES):
                t0 = perf_counter_ns()
                kernel()
                t = perf_counter_ns() - t0
                best = t if best is None or t < best else best
            times[cpu] = best
    finally:
        os.sched_setaffinity(0, allowed)
    return times
