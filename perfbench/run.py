"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 60 --trace 0

Workloads are ``figures``, ``replay`` and ``saturation`` (see
``workloads.py`` and ``NOTES.md``).  Every repetition runs in a fresh
process (``rep.py``) with a private cache directory, so no in-process
memo or on-disk result cache turns a repeat into a hit.  The compiled
coherence kernel is built once, untimed, into a cache shared by all
repetitions.  Repetitions are run until ``--seconds`` would be
exceeded (at least one); more processes then only set up, so that
``setup_s`` is a median over several start-ups.

``--trace 0`` reports the end-to-end metrics, medians over the
repetitions.  ``--trace 1`` runs one untraced and one traced
repetition and reports the per-layer metrics of the traced one; the
two must agree on their results.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; lines before it give the environment and a digest of
every simulated statistic.  All files go under ``.perfbench_work`` in
the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

#: End-to-end metrics and their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_work_per_s": "1/s",
    "checks_ok": "count",
}

#: Start-ups measured per run for ``setup_s`` (repetitions count too).
SETUP_SAMPLES = 5

#: A run must end within 180 s; no child may outlive this budget.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def fingerprint() -> dict:
    """Python, numpy, C compiler, CPU model, nproc and git sha."""
    from importlib import metadata

    def first_line(cmd: list[str]) -> str | None:
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        lines = done.stdout.splitlines()
        return lines[0].strip() if done.returncode == 0 and lines else None

    def cpu_model() -> str | None:
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
                for line in cpuinfo:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    def git_sha() -> str | None:
        git = ROOT / ".git"
        try:
            head = (git / "HEAD").read_text(encoding="utf-8").strip()
            if head.startswith("ref: "):
                return (git / head[5:]).read_text(encoding="utf-8").strip()
            return head
        except OSError:
            return None

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy,
        "cc": first_line(["cc", "--version"]),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git": git_sha(),
    }


class Runner:
    """Starts repetitions of one workload in fresh processes."""

    def __init__(self, workload: str, seed: int, size: str, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.deadline = deadline

    def _env(self, private: str) -> dict:
        env = dict(os.environ)
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
        env["JMMW_CACHE_DIR"] = private
        env["TMPDIR"] = private
        env["XDG_CACHE_HOME"] = str(WORK / "xdg")  # compiled kernel, shared
        env["PYTHONHASHSEED"] = "0"
        return env

    def spawn(self, *, trace: int = 0, probe: bool = False) -> dict:
        """One child process; returns its JSON record."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before a repetition could start")
        private = tempfile.mkdtemp(prefix="rep-", dir=WORK)
        try:
            cmd = [
                sys.executable, str(HERE / "rep.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--size", self.size, "--trace", str(trace),
            ] + (["--probe"] if probe else [])
            env = self._env(private)
            spawned = time.monotonic()
            try:
                done = subprocess.run(
                    cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                    stdout=subprocess.PIPE, text=True, timeout=remaining,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"a repetition outlived the {RUN_BUDGET_S:.0f} s budget")
            record = {"elapsed_s": time.monotonic() - spawned}
        finally:
            shutil.rmtree(private, ignore_errors=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"repetition exited with code {done.returncode}")
        record.update(json.loads(lines[-1]))
        return record


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    started = time.monotonic()
    reps = [runner.spawn()]
    while True:
        per_rep = _median([r["elapsed_s"] for r in reps])
        if time.monotonic() - started + per_rep > seconds:
            break
        reps.append(runner.spawn())
    setups = [r["setup_s"] for r in reps]
    for _ in range(SETUP_SAMPLES - len(setups)):
        setups.append(runner.spawn(probe=True)["setup_s"])
    metrics = {
        "wall_s": _median(r["wall_s"] for r in reps),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in reps),
        "sim_work_per_s": _median(
            r["outcome"]["sim_count"] / r["wall_s"] for r in reps
        ),
        "checks_ok": _median(r["outcome"]["checks_ok"] for r in reps),
    }
    return reps, {name: (metrics[name], unit) for name, unit in END_TO_END.items()}


def per_layer(runner: Runner) -> tuple[list[dict], dict]:
    plain = runner.spawn(trace=0)
    traced = runner.spawn(trace=1)
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return [plain, traced], {
        name: (layers[name], unit) for name, unit in LAYER_METRICS.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(SIZES), default="full",
        help="work per repetition; 'tiny' is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    toggles = sorted(
        name for name in os.environ
        if name.startswith("JMMW_") and name != "JMMW_CACHE_DIR"
    )
    if toggles:
        print(
            f"refusing to run with {', '.join(toggles)} set: the benchmark "
            f"times the default production path",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the running repetition before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, args.size, deadline)
    try:
        runner.spawn(probe=True)  # untimed: builds or loads the kernel
        if args.trace:
            reps, metrics = per_layer(runner)
        else:
            reps, metrics = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    outcomes = [r["outcome"] for r in reps]
    digests = {(o["digest"], o["checks_ok"]) for o in outcomes}
    failed = sum(o["failed"] for o in outcomes)
    print("env: " + json.dumps(fingerprint(), sort_keys=True))
    for o in outcomes:
        print(
            f"digest: workload={args.workload} seed={args.seed} "
            f"stats={o['digest']} checks_ok={o['checks_ok']}"
        )
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
