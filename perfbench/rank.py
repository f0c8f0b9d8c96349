"""Rank-side harness shared by the four workload programs.

packrun's launcher starts a workload program once per rank with one
argument, the session file the driver wrote. The program goes through the
phases below; the stamps between them give the driver its set-up,
timed-phase and teardown figures, all on ``perf_counter_ns``:

    first line of the program   launcher.spawn ends          stamp "first"
    enter()                     spmd_enter (spmd.enter)      stamp "entered"
    ready()                     start barrier: set-up ends   stamp "ready"
    go()                        inputs loaded, second
                                barrier: timed phase starts  stamp "go"
    stop()                      timed phase ends             stamp "stop"
    end of enter()'s block      spmd_exit (spmd.exit)        stamp "exited"
    finish()                    results written, launcher.reap starts

Every check of an output goes through :meth:`Rank.check`, and an exception
inside the rank's scope is recorded by :meth:`Rank.fail`: failures are
counted and reported, never raised, so one bad reply cannot hang or crash
the run. Every receive the workloads make is bounded by ``timeout_s``.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import time
from array import array
from time import perf_counter_ns

from packrun import MsgBuf, TypeRegistry, spmd_enter, spmd_exit

from perfbench.tracing import Off, Tracer

# Inputs prepared for a rank, kept until the driver forgets its work directory.
# Ranks that are threads of the driver then neither build them in later
# sessions nor free them inside a measured teardown.
_PREPARED: dict = {}
# Results of thread ranks, by output path: (result, latencies, spans or None).
RESULTS: dict = {}


class Rank:
    def __init__(self, first_ns: int, argv: list[str]):
        with open(argv[1]) as fh:
            self.spec = json.load(fh)
        if self.spec["backend"] == "process":
            # the driver's watchdog kills rank processes by these pids
            with open(f"{self.spec['out']}-r{os.environ['PACKRUN_RANK']}.pid", "w") as fh:
                fh.write(str(os.getpid()))
        self.timeout = self.spec["timeout_s"]
        self.trace = Tracer() if self.spec["trace"] else Off()
        self.stamps = {"first": first_ns}
        self.rank = -1
        self.ctx = None
        self.ops = 0        # outputs checked
        self.failed = 0     # checks that failed, plus errors raised in the scope
        self.msgs = 0       # checked messages received
        self.bytes = 0      # encoded payload bytes of those messages
        self.latencies = array("q")  # ns; written raw, so teardown pays no encoding
        self.errors: list[str] = []
        self.extra: dict = {}
        self._cpu_clock = (time.thread_time if self.spec["backend"] == "thread"
                           else time.process_time)
        self._cpu = 0.0

    # -- inputs

    def inputs(self) -> dict:
        with open(self.spec["inputs"]) as fh:
            return json.load(fh)

    def pool(self) -> bytes:
        with open(self.spec["pool"], "rb") as fh:
            return fh.read()

    def prepared(self, build):
        """``build(self)`` once per rank and work directory, then kept."""
        key = (self.spec["inputs"], build.__name__, self.rank)
        if key not in _PREPARED:
            _PREPARED[key] = build(self)
        return _PREPARED[key]

    # -- phases

    @contextlib.contextmanager
    def enter(self):
        with self.trace.span("spmd.enter"):
            sctx = spmd_enter()
        self.stamps["entered"] = perf_counter_ns()
        self.rank = sctx.myid
        self.ctx = sctx.transport
        self._instrument(self.ctx)
        try:
            yield sctx
        except Exception as exc:
            self.fail(exc)
        finally:
            with self.trace.span("spmd.exit"):
                spmd_exit(sctx)
            self.stamps["exited"] = perf_counter_ns()

    def _instrument(self, ctx) -> None:
        wrap = self.trace.wrap
        wrap(ctx, "send", "transport.send", attr=lambda args: len(args[3]))
        wrap(ctx, "recv", "transport.recv")
        wrap(ctx, "barrier", "transport.barrier")
        wrap(ctx, "broadcast", "transport.bcast")
        wrap(ctx, "gather", "transport.gather")

    def registry(self, idl: str) -> TypeRegistry:
        with self.trace.span("idl.registry"):
            return TypeRegistry.from_idl(idl).check()

    def msgbuf(self, registry=None, buf=None) -> MsgBuf:
        """A message buffer whose put/take/send/get calls are traced."""
        if buf is None:
            buf = MsgBuf(self.ctx, registry)
        for method in ("put", "take", "send", "get"):
            self.trace.wrap(buf, method, "msgbuf." + method)
        return buf

    def ready(self) -> None:
        self.ctx.barrier(self.ctx.world)
        self.stamps["ready"] = perf_counter_ns()

    def go(self, sync: bool = True) -> None:
        """Start the timed phase, after a barrier unless ``sync`` is false."""
        if sync:
            self.ctx.barrier(self.ctx.world)
        self._cpu = self._cpu_clock()
        self.stamps["go"] = perf_counter_ns()
        if self.spec["budget_s"] is not None:
            self._deadline = self.stamps["go"] + int(self.spec["budget_s"] * 1e9)

    def more(self, blocks_done: int) -> bool:
        """Whether rank 0 starts another block: a time budget or a block quota."""
        if self.spec["quota"] is not None:
            return blocks_done < self.spec["quota"]
        return perf_counter_ns() < self._deadline

    def stop(self) -> None:
        self.stamps["stop"] = perf_counter_ns()
        self._cpu = self._cpu_clock() - self._cpu

    # -- outcomes

    def check(self, ok: bool, what: str) -> bool:
        self.ops += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")

    def corrupt(self, index: int) -> bool:
        """Whether the driver asked this rank to corrupt reply ``index``."""
        return index in self.spec["corrupt"]

    def finish(self) -> None:
        out = f"{self.spec['out']}-r{self.rank}"
        result = {
            "rank": self.rank, "stamps": self.stamps,
            "cpu_s": self._cpu, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "ops": self.ops, "failed": self.failed, "msgs": self.msgs, "bytes": self.bytes,
            "errors": self.errors, "extra": self.extra, "coord": os.environ.get("PACKRUN_COORD"),
        }
        if self.spec["backend"] == "thread":
            # handed over in memory, so the teardown the driver measures holds
            # no writes of the benchmark's own files
            RESULTS[out] = (result, self.latencies, self.trace.spans if self.trace.enabled else None)
            return
        if self.trace.enabled:
            self.trace.dump(out + ".spans.json")
        with open(out + ".lat", "wb") as fh:
            self.latencies.tofile(fh)
        with open(out + ".json", "w") as fh:
            json.dump(result, fh)


def forget(inputs_path: str) -> None:
    """Drop what ranks prepared from one work directory's inputs."""
    for key in [k for k in _PREPARED if k[0] == inputs_path]:
        del _PREPARED[key]
