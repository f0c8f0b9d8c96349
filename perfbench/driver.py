"""Benchmark driver: inputs, sessions, metrics and the report.

One run measures one workload. It writes the seeded inputs to a work
directory inside the checkout, then launches the workload program through
``packrun.launch`` several times; each launch is a *session* with its own
set-up, timed phase and teardown. Untraced runs (``trace=False``) split the
requested seconds over the sessions and report the end-to-end metrics. The
traced run alternates untraced and traced sessions of a fixed number of
blocks, so its counts repeat exactly for one seed, runs the inner-layer
probes, and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import tempfile
import threading
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from packrun import BackendKind, Encoding, LaunchError, LaunchPlan, TransportError, launch

from perfbench import hostspeed, inputs, probes
from perfbench.rank import RESULTS, forget
from perfbench.tracing import ATTR, END, FAILED, NAME, REQ, START, self_times

ROOT = Path(__file__).resolve().parent.parent
TRACED_PAIRS_PER_10S = 2
RECV_TIMEOUT_S = 20.0
LAUNCH_SLACK_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    program: str
    backend: BackendKind
    nprocs: int
    hetero: bool
    idl: str
    quota: int            # blocks per session of the traced run
    session_s: float      # timed phase of each session of an untraced run
    per_job: bool = False  # cpu_us_per_msg counts jobs, not messages

    @property
    def encoding(self) -> Encoding:
        return Encoding.PORTABLE if self.hetero else Encoding.NATIVE


WORKLOADS = {w.name: w for w in (
    Workload("pingpong-mesh", "pingpong_mesh.py", BackendKind.SOCKET_MESH, 2, False,
             inputs.PINGPONG_IDL, quota=10, session_s=1.6),
    Workload("records-portable", "records_portable.py", BackendKind.IN_PROCESS, 2, True,
             inputs.RECORDS_IDL, quota=1, session_s=1.0),
    Workload("farm-short", "farm_short.py", BackendKind.IN_PROCESS, 3, False,
             inputs.FARM_IDL, quota=8, session_s=1.0, per_job=True),
    Workload("superstep-tagged", "superstep_tagged.py", BackendKind.IN_PROCESS, 2, False,
             inputs.SUPERSTEP_IDL, quota=1, session_s=0.5),
)}

END_TO_END = {  # name -> unit; the metrics of an untraced run's result line
    "setup_s": "s", "teardown_s": "s", "rtt_p50_us": "us", "rtt_p99_us": "us",
    "msg_per_s": "1/s", "mb_per_s": "MB/s", "cpu_us_per_msg": "us", "peak_rss_mb": "MB",
}
# the metrics of a traced run's result line: the per-layer metrics every
# workload produces (the report also prints the workload-specific ones)
PER_LAYER = (
    "idl.registry_ms", "idl.parse_kind_us", "msgbuf.put_us", "msgbuf.take_us",
    "pack.encode_us", "pack.decode_us", "pack.encoded_bytes",
    *(f"wire.{op}_us.{cls}" for op in ("encode_frame", "read_frame")
      for cls, _size, _share in inputs.SIZE_CLASSES),
    "transport.send_us", "transport.recv_us.shallow", "transport.barrier_us",
    "transport.msgs", "transport.bytes", "transport.backlog_max", "transport.failed",
    "spmd.enter_ms", "spmd.exit_ms", "launcher.spawn_ms", "launcher.reap_ms", "trace.overhead_pct",
)


@dataclass
class Session:
    t_launch: int = 0
    t_return: int = 0
    ranks: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)   # rank -> span list (traced sessions)
    slowdown: float = 1.0   # host's kernel time around the session / hostspeed.REFERENCE_NS
    failures: list = field(default_factory=list)

    @property
    def rank0(self) -> dict:
        return self.ranks[0]

    @property
    def timed_ns(self) -> int:
        return self.rank0["stamps"]["stop"] - self.rank0["stamps"]["go"]

    def total(self, key: str):
        return sum(r[key] for r in self.ranks)

    def complete(self, nprocs: int) -> bool:
        """Every rank reported and went through its timed phase."""
        return len(self.ranks) == nprocs and all("stop" in r["stamps"] for r in self.ranks)

    def ok(self) -> bool:
        return not self.failures and not self.total("failed")


class Run:
    """The work directory and the sessions of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, corrupt=()):
        self.w = workload
        self.corrupt = sorted(corrupt)
        self.dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        self.data, self.pool = inputs.generate(workload.name, seed)
        if self.pool is not None:
            (self.dir / "pool.bin").write_bytes(self.pool)
        with open(self.dir / "inputs.json", "w") as fh:
            json.dump(self.data, fh)
        self.sessions: list[Session] = []
        self.next = 0   # first block of the next session continues where the last stopped

    def close(self) -> None:
        forget(str(self.dir / "inputs.json"))
        for key in [k for k in RESULTS if k.startswith(str(self.dir))]:
            del RESULTS[key]  # of sessions that failed before the driver took them
        shutil.rmtree(self.dir, ignore_errors=True)

    def session(self, trace: bool, budget_s: float | None = None, quota: int | None = None) -> Session:
        index = len(self.sessions)
        spec = {
            "backend": self.w.backend.value, "trace": trace,
            "inputs": str(self.dir / "inputs.json"), "pool": str(self.dir / "pool.bin"),
            "budget_s": budget_s, "quota": quota, "start": self.next, "corrupt": self.corrupt,
            "timeout_s": RECV_TIMEOUT_S, "out": str(self.dir / f"s{index}"),
        }
        spec_path = self.dir / f"s{index}.spec.json"
        spec_path.write_text(json.dumps(spec))
        limit = (budget_s or 30.0) + LAUNCH_SLACK_S
        threads = self.w.backend is BackendKind.IN_PROCESS
        # Process ranks are bounded by a watchdog rather than run_timeout, which
        # would make launch poll for exits (up to 50 ms late) instead of
        # blocking in waitpid as mprun does. Thread ranks are joined one after
        # another, each for up to run_timeout, so each gets a share of the limit.
        plan = LaunchPlan(
            nprocs=self.w.nprocs, program=str(ROOT / "perfbench" / "workloads" / self.w.program),
            args=(str(spec_path),), backend=self.w.backend, hetero=self.w.hetero,
            run_timeout=limit / self.w.nprocs if threads else None,
            per_rank_env={"PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(ROOT)))})
        s = Session()
        self.sessions.append(s)
        watchdog = threading.Timer(limit, self._kill_ranks, args=(index, s))
        allowed = os.sched_getaffinity(0)
        # Thread ranks share one interpreter lock, so only one runs at a time;
        # bound to one CPU, a rank that blocks hands the lock to the next
        # without waking a thread on another CPU, a wake-up that on a shared
        # machine can wait for that CPU to be scheduled at all. A neighbour can
        # also halve one CPU's speed, so each session takes the quicker CPU.
        before = hostspeed.kernel_times(allowed)
        cpus = {min(before, key=before.get)} if threads else allowed
        try:
            if threads:
                os.sched_setaffinity(0, cpus)  # rank threads inherit it
            else:
                watchdog.start()
            s.t_launch = perf_counter_ns()
            codes = launch(plan)
        except (LaunchError, TransportError) as exc:
            codes = []
            s.failures.append(f"launch: {type(exc).__name__}: {exc}")
        finally:
            s.t_return = perf_counter_ns()
            watchdog.cancel()
            os.sched_setaffinity(0, allowed)
        after = hostspeed.kernel_times(cpus)
        s.slowdown = statistics.mean([before[c] for c in cpus] + list(after.values())) / hostspeed.REFERENCE_NS
        s.failures += [f"rank {r} exited with {c}" for r, c in enumerate(codes) if c != 0]
        for rank in range(self.w.nprocs):
            out = self.dir / f"s{index}-r{rank}"
            if str(out) in RESULTS:  # a thread rank's
                result, latencies, spans = RESULTS.pop(str(out))
            elif out.with_suffix(".json").exists():
                result, latencies = json.loads(out.with_suffix(".json").read_text()), array("q")
                latencies.frombytes(out.with_suffix(".lat").read_bytes())
                spans = json.loads(out.with_suffix(".spans.json").read_text()) if trace else None
            else:
                s.failures.append(f"rank {rank} wrote no result")
                continue
            s.ranks.append(result)
            result["latencies_ns"] = latencies
            if trace:
                s.spans[rank] = spans
        s.failures += self._leftovers(index)
        if s.complete(self.w.nprocs):
            self.next = s.rank0["extra"]["next"]
        return s

    def _pids(self, index: int) -> list[int]:
        """Process ranks of session ``index``, from the pid files they wrote."""
        return [int(path.read_text()) for path in self.dir.glob(f"s{index}-r*.pid")]

    def _kill_ranks(self, index: int, s: Session) -> None:
        s.failures.append("watchdog: ranks still running, killed")
        for pid in self._pids(index):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def _leftovers(self, index: int) -> list[str]:
        """Rank processes or threads still alive after launch returned."""
        if self.w.backend is BackendKind.IN_PROCESS:
            return [f"thread {t.name} outlived launch" for t in threading.enumerate()
                    if t.name.startswith("packrun-rank") and t.is_alive()]
        found = []
        for pid in self._pids(index):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            found.append(f"rank process {pid} outlived launch")
        return found

    @property
    def attempted(self) -> int:
        return sum(s.total("ops") for s in self.sessions) + len(self.sessions)

    @property
    def failed(self) -> int:
        """Failed checks, plus one for each session whose launch failed."""
        return sum(s.total("failed") + bool(s.failures) for s in self.sessions)

    def errors(self) -> list[str]:
        return [e for s in self.sessions for e in s.failures + [e for r in s.ranks for e in r["errors"]]]


# ---------------------------------------------------------------------------
# metrics


def _p99(values: list) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def end_to_end(run: Run, sessions: list[Session], raw: bool = False) -> dict:
    """name -> (value, unit, samples) over the given complete sessions.

    Each figure but teardown_s and peak_rss_mb is first put at the
    reference speed of ``hostspeed`` with the session's own slowdown (times
    divided by it, rates multiplied), then the median of the sessions'
    figures is taken, so neither the host's drift nor one session slowed by
    a neighbour moves it. Teardown is spent mostly waiting (thread wake-ups
    and joins, process exits), which does not scale with the interpreter's
    speed, so it is the median as measured. ``raw`` adds the measured
    figures as ``raw.<name>``, for the report.
    """
    def seconds(s: Session) -> float:
        return s.timed_ns / 1e9

    def per(s: Session) -> int:
        return s.rank0["msgs"] if run.w.per_job else s.total("msgs")

    def latencies(s: Session) -> list:
        return [v for r in s.ranks for v in r["latencies_ns"]]

    samples = sum(len(latencies(s)) for s in sessions)
    msgs = sum(s.total("msgs") for s in sessions)
    jobs = sum(s.rank0["msgs"] for s in sessions)
    n = len(sessions)
    # name -> (figure of one session, power of the slowdown it is multiplied by, samples)
    figures = {
        "setup_s": (lambda s: (max(r["stamps"]["ready"] for r in s.ranks) - s.t_launch) / 1e9, -1, n),
        "teardown_s": (lambda s: (s.t_return - s.rank0["stamps"]["stop"]) / 1e9, 0, n),
        "rtt_p50_us": (lambda s: statistics.median(latencies(s)) / 1e3, -1, samples),
        "rtt_p99_us": (lambda s: _p99(latencies(s)) / 1e3, -1, samples),
        "msg_per_s": (lambda s: s.total("msgs") / seconds(s), 1, msgs),
        "mb_per_s": (lambda s: s.total("bytes") / seconds(s) / 1e6, 1, msgs),
        "cpu_us_per_msg": (lambda s: s.total("cpu_s") / per(s) * 1e6, -1, sum(map(per, sessions))),
    }
    units = dict(END_TO_END)
    if run.w.per_job:
        figures["jobs_per_s"] = (lambda s: s.rank0["msgs"] / seconds(s), 1, jobs)
        units["jobs_per_s"] = "1/s"
    out = {}
    for name, (figure, power, count) in figures.items():
        out[name] = (statistics.median(figure(s) * s.slowdown ** power for s in sessions),
                     units[name], count)
    out["peak_rss_mb"] = (max(r["maxrss_kb"] for s in sessions for r in s.ranks) / 1024, "MB", n)
    out = {name: out[name] for name in units}  # in the order of END_TO_END
    if raw:
        out["host.slowdown"] = (statistics.median(s.slowdown for s in sessions), "ratio", n)
        for name, (figure, _power, count) in figures.items():
            out["raw." + name] = (statistics.median(figure(s) for s in sessions), units[name], count)
    return out


def _bucket(depth: int) -> str:
    return "shallow" if depth < 16 else "mid" if depth < 256 else "deep"


UNIT_SCALE = {"us": 1e3, "ms": 1e6}
# span name -> (metric name, unit); msgbuf put/take are summed per message
SPAN_METRICS = {
    "idl.registry": ("idl.registry_ms", "ms"),
    "idl.parse_kind": ("idl.parse_kind_us", "us"),
    "msgbuf.put": ("msgbuf.put_us", "us"), "msgbuf.take": ("msgbuf.take_us", "us"),
    "msgbuf.send": ("msgbuf.send_us", "us"), "msgbuf.get": ("msgbuf.get_us", "us"),
    "pack.encode": ("pack.encode_us", "us"), "pack.decode": ("pack.decode_us", "us"),
    "transport.send": ("transport.send_us", "us"),
    "transport.barrier": ("transport.barrier_us", "us"),
    "transport.gather": ("transport.gather_us", "us"), "transport.bcast": ("transport.bcast_us", "us"),
    "spmd.enter": ("spmd.enter_ms", "ms"), "spmd.exit": ("spmd.exit_ms", "ms"),
    "slave.pool_setup": ("slave.pool_setup_ms", "ms"), "slave.dispatch": ("slave.dispatch_us", "us"),
    "slave.reply_wait": ("slave.reply_wait_us", "us"), "slave.handler": ("slave.handler_us", "us"),
}
PER_MESSAGE = ("msgbuf.put", "msgbuf.take", "pack.encode", "pack.decode")


def _metric_of(span: list) -> tuple[str, str] | None:
    name = span[NAME]
    if name == "transport.recv":
        return f"transport.recv_us.{_bucket(span[ATTR])}", "us"
    if name.startswith("wire."):
        layer, op, cls = name.split(".")
        return f"{layer}.{op}_us.{cls}", "us"
    return SPAN_METRICS.get(name)


def per_layer(run: Run, traced: list[Session], untraced: list[Session],
              probe_spans: list, encoded_bytes: int) -> dict:
    """name -> (value, unit, count, self time or None) from spans and stamps."""
    totals: dict[tuple, list] = {}     # metric -> durations (ns)
    selfs: dict[tuple, list] = {}
    grouped: dict[tuple, list] = {}    # (metric, session, rank, req) -> [total, self]
    msgs = nbytes = failed = 0
    handler_ns: dict[tuple, list] = {}  # (session, slave) -> handler durations in order

    def add(spans: list, where: tuple) -> None:
        nonlocal msgs, nbytes, failed
        own = self_times(spans)
        for span, self_ns in zip(spans, own):
            metric = _metric_of(span)
            if metric is None:
                continue
            total = span[END] - span[START]
            if span[NAME].startswith("transport."):
                failed += span[FAILED]
            if span[NAME] == "transport.send":
                msgs += 1
                nbytes += span[ATTR]
            if span[NAME] == "slave.handler":
                handler_ns.setdefault(where, []).append(total)
            if span[NAME] in PER_MESSAGE:
                if span[REQ] >= 0:
                    acc = grouped.setdefault((metric, where, span[REQ]), [0, 0])
                    acc[0] += total
                    acc[1] += self_ns
                continue
            totals.setdefault(metric, []).append(total)
            selfs.setdefault(metric, []).append(self_ns)

    for i, s in enumerate(traced):
        for rank, spans in s.spans.items():
            add(spans, (i, rank))
    add(probe_spans, ("probe",))
    for (metric, _where, _req), (total, self_ns) in grouped.items():
        totals.setdefault(metric, []).append(total)
        selfs.setdefault(metric, []).append(self_ns)

    out = {}
    for (name, unit), values in totals.items():
        scale = UNIT_SCALE[unit]
        out[name] = (statistics.median(values) / scale, unit, len(values),
                     statistics.median(selfs[(name, unit)]) / scale)

    def stamped(name: str, values: list) -> None:
        out[name] = (statistics.median(values) / 1e6, "ms", len(values), None)

    stamped("launcher.spawn_ms", [r["stamps"]["first"] - s.t_launch for s in untraced for r in s.ranks])
    stamped("launcher.reap_ms", [s.t_return - max(r["stamps"]["exited"] for r in s.ranks)
                                 for s in untraced])
    if run.w.per_job:
        overhead = []
        for i, s in enumerate(traced):
            by_slave: dict[int, list] = {}
            for rank, lat in zip(s.rank0["extra"]["reply_ranks"], s.rank0["latencies_ns"]):
                by_slave.setdefault(rank, []).append(lat)
            for rank, lats in by_slave.items():
                overhead += [lat - h for lat, h in zip(lats, handler_ns.get((i, rank), []))]
        out["slave.overhead_us"] = (statistics.median(overhead) / 1e3, "us", len(overhead), None)
        out["slave.receipts"] = (sum(s.rank0["extra"]["receipts"] for s in traced), "count", len(traced), None)

    out["transport.msgs"] = (msgs, "count", msgs, None)
    out["transport.bytes"] = (nbytes, "count", msgs, None)
    out["transport.failed"] = (failed, "count", msgs, None)
    out["transport.backlog_max"] = (_backlog_max(run), "count", 1, None)
    out["pack.encoded_bytes"] = (encoded_bytes, "count", 1, None)
    t_traced = sum(s.timed_ns for s in traced)
    t_plain = sum(s.timed_ns for s in untraced)
    out["trace.overhead_pct"] = ((t_traced - t_plain) / t_plain * 100, "%", len(traced), None)
    return out


def _backlog_max(run: Run) -> int:
    """Most messages queued at one receive, from the known schedule.

    One message is in flight in the closed loops, one reply per slave in the
    farm, and a whole round (every message sent before the first receive)
    in the superstep rounds.
    """
    if run.w.name == "superstep-tagged":
        return max(r["k"] for r in run.data["rounds"])
    return run.w.nprocs - 1


# ---------------------------------------------------------------------------
# provenance


def provenance(w: Workload, ranks: list) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "packrun").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"  # the benchmark may run from a plain copy of the tree
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    coords = {r.get("coord") for r in ranks}
    return {
        "commit": commit, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "backend": w.backend.value,
        "traffic": ("tcp loopback via " + ", ".join(sorted(c for c in coords if c))
                    if w.backend is BackendKind.SOCKET_MESH else "in-process mailboxes"),
    }


# ---------------------------------------------------------------------------
# a whole run


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict           # name -> (value, unit, count, self or None)
    provenance: dict
    errors: list

    def line(self, names) -> str:
        return json.dumps({"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                           "metrics": {n: {"value": self.metrics[n][0], "unit": self.metrics[n][1]}
                                       for n in names}})


def run(name: str, seed: int, seconds: float, trace: bool, sessions: int | None = None,
        corrupt=(), quota: int | None = None) -> Result:
    """Run one workload. The metrics are empty when no session completed."""
    w = WORKLOADS[name]
    r = Run(w, seed, corrupt)
    metrics, errors = {}, []
    try:
        if trace:
            plain, traced = [], []
            for i in range(2 * max(1, round(seconds / 10 * TRACED_PAIRS_PER_10S))):
                s = r.session(i % 2 == 1, quota=w.quota if quota is None else quota)
                if s.complete(w.nprocs):
                    (traced if i % 2 else plain).append(s)
                if not s.ok():
                    break  # a failed session ends the run, so it stays bounded
            if traced and plain:
                tr, encoded, errors = probes.run(name, r.data, r.pool, w.idl, w.encoding, seed)
                metrics = per_layer(r, traced, plain, tr.spans, encoded)
                untraced_e2e, traced_e2e = end_to_end(r, plain), end_to_end(r, traced)
                for metric, (value, unit, _n) in untraced_e2e.items():
                    metrics[f"trace.delta.{metric}"] = (traced_e2e[metric][0] - value, unit,
                                                        len(traced), None)
        else:
            # sessions follow one another until the run's seconds are spent
            done = []
            budget = seconds / sessions if sessions else min(w.session_s, seconds / 3)
            deadline = perf_counter_ns() + int(seconds * 1e9)
            while len(r.sessions) < (sessions or 3) or (not sessions and perf_counter_ns() < deadline):
                s = r.session(False, budget_s=budget)
                if s.complete(w.nprocs):
                    done.append(s)
                if not s.ok():
                    break  # a failed session ends the run, so it stays bounded
            if done:
                metrics = {k: v + (None,) for k, v in end_to_end(r, done, raw=True).items()}
        attempted, failed = r.attempted, r.failed + len(errors)
        ranks = [x for s in r.sessions for x in s.ranks]
        return Result(failed == 0, attempted, failed, metrics, provenance(w, ranks),
                      r.errors() + errors)
    finally:
        r.close()


def report(name: str, seed: int, seconds: float, trace: bool, result: Result) -> list[str]:
    """Human-readable lines printed before the result line."""
    lines = [f"# perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}",
             f"# provenance {json.dumps(result.provenance, sort_keys=True)}"]
    rate = result.failed / result.attempted
    lines.append(f"{'error_rate':28s} {rate:14.6g} {'ratio':6s} "
                 f"({result.failed} failed of {result.attempted} attempted)")
    for metric, (value, unit, count, own) in result.metrics.items():
        extra = f"  self={own:.6g}" if own is not None else ""
        lines.append(f"{metric:28s} {value:14.6g} {unit:6s} (n={count}){extra}")
    lines += [f"# error: {e}" for e in result.errors[:20]]
    return lines
