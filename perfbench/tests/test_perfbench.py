"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The smoke runs use ``--size tiny``, a seconds-long version of each
workload that goes through every code path the full one does.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args: str, cwd: Path = ROOT, env: dict | None = None):
    env = dict(os.environ if env is None else env)
    for name in [n for n in env if n.startswith("JMMW_")]:
        env.pop(name)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _clock(*readings: float):
    values = iter(readings)
    return lambda: next(values)


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6].
    t = tracer.Tracer(clock=_clock(0, 1, 2, 3, 4, 5, 6, 10))
    root = t.open("root")
    a = t.open("a")
    b = t.open("b")
    t.close(b)
    t.close(a)
    c = t.open("c")
    t.close(c)
    t.close(root)
    assert [s.parent for s in t.spans] == [None, root, a, root]
    assert tracer.self_times(t.spans) == {"root": 6.0, "a": 2.0, "b": 1.0, "c": 1.0}


def test_self_time_merges_overlapping_children_and_sums_by_name():
    spans = [tracer.Span("p", 0.0, None), tracer.Span("k", 1.0, 0),
             tracer.Span("k", 2.0, 0), tracer.Span("p", 20.0, None)]
    spans[0].end, spans[1].end, spans[2].end, spans[3].end = 10.0, 4.0, 12.0, 21.0
    # The children cover [1, 10] of p once clipped and merged.
    assert tracer.self_times(spans) == {"p": 1.0 + 1.0, "k": 3.0 + 10.0}


def test_lazy_iteration_is_spanned_per_item():
    t = tracer.Tracer(clock=_clock(0, 1, 2, 3, 4, 5))
    assert list(t.timed_iter("gen", iter([7, 8]))) == [7, 8]
    assert [(s.start, s.end) for s in t.spans] == [(0, 1), (2, 3), (4, 5)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end_metrics(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--size", "tiny"))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer_metrics(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--size", "tiny"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == tracer.LAYER_METRICS
    calls, keys = metrics["workloads.generate.calls"], metrics["workloads.generate.keys"]
    if workload == "figures":
        assert calls > keys > 0
        assert all(metrics[f"figures.{i}.s"] > 0 for i in tracer.FIGURE_IDS)
    elif workload == "replay":
        assert calls == keys > 0
        assert metrics["memsys.kernel.declined"] > 0
    else:
        assert calls == 0 and metrics["memsys.run_trace.calls"] == 0
        assert metrics["campaign.cells"] > 0 and metrics["loadplane.events"] > 0


def test_refuses_a_stray_toggle():
    env = dict(os.environ, JMMW_FASTPATH="0")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "JMMW_FASTPATH" in done.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "figures", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
