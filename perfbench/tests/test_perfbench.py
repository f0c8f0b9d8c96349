"""Tests of the benchmark itself.

Run from the root of the tree with ``python3 -m pytest perfbench/tests``.
They run every workload briefly, so they take about a minute.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import driver, hostspeed, inputs  # noqa: E402

WORKLOADS = list(driver.WORKLOADS)
COUNTS = ("transport.msgs", "transport.bytes", "transport.backlog_max", "transport.failed",
          "pack.encoded_bytes")


def _json_dumps(data) -> str:
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_depend_only_on_the_seed(name):
    first, first_pool = inputs.generate(name, 7)
    again, again_pool = inputs.generate(name, 7)
    other, _ = inputs.generate(name, 8)
    assert _json_dumps(first) == _json_dumps(again) and first_pool == again_pool
    assert _json_dumps(first) != _json_dumps(other)


def test_every_block_holds_the_same_mix():
    data, pool = inputs.pingpong(3)
    block = data["block"]
    want = Counter({size: share for _name, size, share in inputs.SIZE_CLASSES})
    for start in range(0, len(data["sizes"]), block):
        assert Counter(data["sizes"][start:start + block]) == want
    assert all(off + size <= len(pool) for off, size in zip(data["offsets"], data["sizes"]))

    data = inputs.records(3)
    first = data["batches"][:data["block"]]
    assert Counter(len(b[1]) for b in first) == Counter(
        {n: inputs.RECORD_COPIES for n in range(1, inputs.RECORD_MAX_SAMPLES + 1)})
    assert Counter(len(b[1]) for b in first if b[2]) == Counter(range(1, inputs.RECORD_MAX_SAMPLES + 1))

    data = inputs.farm(3)
    assert Counter(len(v) for _x, v in data["jobs"][:data["block"]]) == Counter(
        {n: inputs.FARM_COPIES for n in range(inputs.FARM_MAX_VALUES + 1)})

    data = inputs.superstep(3)
    for start in range(0, len(data["rounds"]), data["block"]):
        cycle = data["rounds"][start:start + data["block"]]
        assert sorted(r["k"] for r in cycle) == sorted(inputs.SUPERSTEP_K)
        assert all(sorted(order) == list(range(1, r["k"] + 1)) for r in cycle for order in r["order"])


def test_depth_ahead_matches_a_direct_count():
    rng = random.Random(5)
    for k in (1, 2, 17, 300):
        order = rng.sample(range(1, k + 1), k)
        queue, want = list(order), []
        for tag in range(1, k + 1):
            want.append(queue.index(tag))
            queue.remove(tag)
        assert inputs.depth_ahead(order) == want


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_checks_outputs_and_reports_every_metric(name):
    result = driver.run(name, seed=11, seconds=0.5, trace=False, sessions=1)
    assert result.correct and result.failed == 0, result.errors
    assert result.attempted > 1
    for metric, unit in driver.END_TO_END.items():
        value, got_unit, count, _self = result.metrics[metric]
        assert got_unit == unit and value > 0 and count > 0, metric


def _fake_session(slowdown: float) -> driver.Session:
    s = driver.Session(t_launch=0, t_return=5_000_000, slowdown=slowdown)
    s.ranks = [{"stamps": {"ready": 1_000_000, "go": 1_000_000, "stop": 3_000_000},
                "latencies_ns": array("q", [1000, 2000, 3000]), "msgs": 10, "bytes": 4000,
                "cpu_s": 0.001, "maxrss_kb": 2048}]
    return s


def test_figures_are_put_at_the_reference_speed():
    run = SimpleNamespace(w=driver.WORKLOADS["records-portable"])
    got = driver.end_to_end(run, [_fake_session(2.0)], raw=True)
    assert list(got)[:len(driver.END_TO_END)] == list(driver.END_TO_END)
    assert got["host.slowdown"][0] == 2.0
    for name in ("setup_s", "rtt_p50_us", "rtt_p99_us", "cpu_us_per_msg"):
        assert got[name][0] == pytest.approx(got["raw." + name][0] / 2), name
    assert got["teardown_s"][0] == got["raw.teardown_s"][0] == pytest.approx(0.002)
    for name in ("msg_per_s", "mb_per_s"):
        assert got[name][0] == pytest.approx(got["raw." + name][0] * 2), name
    assert got["setup_s"][0] == pytest.approx(0.0005)
    assert got["peak_rss_mb"][0] == 2.0


def test_kernel_times_cover_the_cpus_and_restore_the_affinity():
    allowed = os.sched_getaffinity(0)
    times = hostspeed.kernel_times(allowed)
    assert set(times) == allowed and all(t > 0 for t in times.values())
    assert os.sched_getaffinity(0) == allowed


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_counts_repeat_exactly(name):
    first = driver.run(name, seed=4, seconds=1, trace=True, quota=1)
    second = driver.run(name, seed=4, seconds=1, trace=True, quota=1)
    for result in (first, second):
        assert result.correct, result.errors
        assert set(driver.PER_LAYER) <= set(result.metrics)
    counts = [m for m in COUNTS + ("slave.receipts",) if m in first.metrics]
    assert [first.metrics[m][0] for m in counts] == [second.metrics[m][0] for m in counts]
    assert first.metrics["transport.msgs"][0] > 0
    assert first.metrics["transport.failed"][0] == 0


@pytest.mark.parametrize("name", ["pingpong-mesh", "records-portable"])
def test_a_corrupted_reply_is_counted_not_raised(name):
    result = driver.run(name, seed=2, seconds=0.5, trace=False, sessions=1, corrupt=[3])
    assert not result.correct
    assert result.failed >= 1
    assert result.failed / result.attempted > 0
    assert any(" 3" in e for e in result.errors)


def test_benchmark_json_matches_the_driver():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == driver.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(driver.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_command_prints_the_result_line_last():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "records-portable",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(result["metrics"]) == sorted(driver.END_TO_END)
    assert "error_rate" in out.stdout


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "farm-short",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
