"""farm-short: MasterPool.run_joblist over short jobs, master + 2 slaves.

Each job's arguments are an i64 and a seq<f64> of 0-16 values; the handler
does trivial arithmetic and repacks, so the master's dispatch, the small
MsgBuf puts and takes and the ANY-source receive make up the cost. Replies
are checked against a serial oracle, and the slaves' receipts must name
every dispatched request exactly once.

The pool's exec and get_returnv are timed on every run (two clock reads per
call) to give each job's round trip; with tracing on they become spans.
"""

from time import perf_counter_ns

T_FIRST = perf_counter_ns()

import hashlib  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

from packrun import HandlerTable, MasterPool, MsgBuf, slave_loop  # noqa: E402
from packrun.slave import request_frame  # noqa: E402

from perfbench.inputs import FARM_IDL, f64_seq, farm_oracle  # noqa: E402
from perfbench.rank import Rank  # noqa: E402

SELECTOR = 0


def build_table(h: Rank) -> HandlerTable:
    table = HandlerTable()
    tr = h.trace

    def work(buf) -> None:
        tr.req += 1  # the k-th job this slave handles
        with tr.span("slave.handler"):
            if tr.enabled:
                h.msgbuf(buf=buf)
            size = buf.size
            x = buf.take_i64()
            values = [p.value for p in buf.take("seq<f64>").elements()]
            reply, total = farm_oracle(x, values)
            buf.reset()
            buf.put_i64(reply).put_f64(total)
        h.msgs += 1
        h.bytes += size

    if table.register("work", work) != SELECTOR:
        raise ValueError("the work handler must be the first selector")
    return table


def timed_pool(h: Rank, pool: MasterPool) -> None:
    """Record each job's dispatch-to-reply time around the pool's own calls.

    A slave has one job outstanding at a time, so the k-th reply from a
    slave answers the k-th job dispatched to it; with tracing on,
    ``reply_ranks`` keeps the slave of each latency so the driver can pair
    it with that slave's k-th handler span.
    """
    exec_, get_returnv = pool.exec, pool.get_returnv
    sent: dict[int, int] = {}
    reply_ranks = h.extra["reply_ranks"] = []
    tr = h.trace

    def exec_timed(request):
        t0 = perf_counter_ns()
        with tr.span("slave.dispatch"):
            rank = exec_(request)
        sent[rank] = t0
        return rank

    def get_returnv_timed():
        with tr.span("slave.reply_wait"):
            rank, buf = get_returnv()
        h.latencies.append(perf_counter_ns() - sent.pop(rank))
        if tr.enabled:
            reply_ranks.append(rank)
            h.msgbuf(buf=buf)
        return rank, buf

    pool.exec, pool.get_returnv = exec_timed, get_returnv_timed


def prepare_master(h: Rank):
    """Job arguments, the serial oracle's replies, and each request's receipt."""
    data = h.inputs()
    jobs = data["jobs"]
    args = [f64_seq(values) for _x, values in jobs]
    oracle = [farm_oracle(x, values) for x, values in jobs]
    receipt = [hashlib.sha256(request_frame(
        SELECTOR, MsgBuf(h.ctx).put_i64(x).put(a, "seq<f64>").data)).digest()
        for (x, _values), a in zip(jobs, args)]
    return data["block"], jobs, args, oracle, receipt


def main() -> None:
    h = Rank(T_FIRST, sys.argv)
    with h.enter() as sctx:
        registry = h.registry(FARM_IDL)
        table = build_table(h)
        h.ready()
        if h.rank != 0:
            h.go(sync=False)  # the pool's digest handshake is the farm's barrier
            slave_loop(sctx, table)
            h.stop()
        else:
            with h.trace.span("slave.pool_setup"):
                pool = MasterPool(sctx, table)
            h.stamps["ready"] = perf_counter_ns()
            with pool:
                block, jobs, args, oracle, receipt = h.prepared(prepare_master)
                n = len(jobs)
                dispatched = Counter()
                timed_pool(h, pool)
                h.go(sync=False)
                index = h.spec["start"]
                blocks = 0
                while h.more(blocks):
                    chunk = range(index, index + block)
                    requests = []
                    for job in chunk:
                        i = job % n
                        buf = h.msgbuf(registry)
                        h.trace.req = job
                        buf.put_i64(jobs[i][0]).put(args[i], "seq<f64>")
                        requests.append(buf)
                        dispatched[receipt[i]] += 1
                    replies = pool.run_joblist("work", requests)
                    for job, reply in zip(chunk, replies):
                        h.trace.req = job
                        size = reply.size
                        got = (reply.take_i64(), reply.take_f64())
                        if h.check(got == oracle[job % n], f"job {job}"):
                            h.msgs += 1
                            h.bytes += size
                    index += block
                    blocks += 1
                h.stop()
                h.trace.req = -1
                h.extra["next"] = index
            receipts = Counter(r for per_slave in pool.receipts.values() for r in per_slave)
            h.check(receipts == dispatched, "receipts differ from the dispatched jobs")
            h.extra["receipts"] = sum(receipts.values())
    h.finish()


if __name__ == "__main__":
    main()
