"""The benchmark's three workloads, their correctness checks and digests.

Each workload is one serial job run to completion in one process: one
client, closed loop, no worker pools.  ``prepare(name, seed, size)``
does the imports and configuration (the set-up the benchmark times as
``setup_s``) and returns a ``work()`` callable, the timed part.  Every
input is made from the seed.

- ``figures``: all 14 figure drivers through the path ``jmmw figures``
  uses (``build_figure_tasks`` + ``run_tasks(jobs=1)`` with a trace
  plane, then ``figure_checks`` and ``render``) at a reduced
  ``refs_per_proc``.  Trace generation does nearly all of its work,
  and the same trace keys are generated many times.
- ``replay``: each trace key is generated exactly once, then replayed
  over a grid of coherence protocols, L2-sharing levels and L2 sizes
  (compiled kernel), through warm phased replays (scalar loop) and
  through miss-curve and stack-distance sweeps.  The memory system
  does most of the work.
- ``saturation``: a load-plane campaign through ``run_campaign`` with
  a serial executor and an fsynced journal; populations span the
  knee, plus one very large population.  Only this workload runs the
  campaign scheduler and the load-plane engine.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import tempfile
from dataclasses import astuple, dataclass, replace
from pathlib import Path

from tracer import rebind_everywhere, refs_of


@dataclass(frozen=True)
class Size:
    """How much work one repetition does."""

    figure_refs: int
    replay_refs: int
    replay_protocols: tuple
    replay_sharing: tuple
    replay_l2_kb: tuple
    replay_bins: int
    curve_kb: tuple
    curve_assoc: tuple
    populations: tuple
    large_population: int
    campaign_reps: int
    windows: int
    window_s: float


SIZES = {
    "full": Size(
        figure_refs=8_000,
        replay_refs=150_000,
        replay_protocols=("mosi", "mesi", "msi"),
        replay_sharing=(1, 2, 4, 8),
        replay_l2_kb=(256, 1024, 4096),
        replay_bins=24,
        curve_kb=(8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
        curve_assoc=(1, 2, 4, 8),
        populations=(100, 250, 400, 500, 600, 800, 1_500),
        large_population=1_000_000,
        campaign_reps=1,
        windows=8,
        window_s=16.0,
    ),
    # A seconds-long run of every code path, for the benchmark's tests.
    "tiny": Size(
        figure_refs=2_000,
        replay_refs=4_000,
        replay_protocols=("mosi", "msi"),
        replay_sharing=(1, 8),
        replay_l2_kb=(1024,),
        replay_bins=4,
        curve_kb=(16, 64, 256),
        curve_assoc=(4,),
        populations=(50, 500),
        large_population=1_000_000,
        campaign_reps=1,
        windows=4,
        window_s=0.5,
    ),
}


@dataclass
class Outcome:
    """What one repetition's timed work did."""

    attempted: int = 0
    failed: int = 0
    checks_ok: int = 0
    sim_count: int = 0  # simulated references, or load-plane events
    digest: str = ""


class _Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        self._h.update(repr(parts).encode())

    def hex(self) -> str:
        return self._h.hexdigest()[:16]


def _count_replayed_refs() -> dict:
    """Count references handed to ``MemoryHierarchy.run_trace``.

    Only outermost calls count: a declined kernel replay recurses into
    the scalar loop with the same references.
    """
    from repro.memsys.hierarchy import MemoryHierarchy

    state = {"refs": 0, "depth": 0}
    run_trace = MemoryHierarchy.run_trace

    @functools.wraps(run_trace)
    def counted(self, per_cpu_traces, *args, **kwargs):
        if state["depth"] == 0:
            state["refs"] += refs_of(per_cpu_traces)
        state["depth"] += 1
        try:
            return run_trace(self, per_cpu_traces, *args, **kwargs)
        finally:
            state["depth"] -= 1

    MemoryHierarchy.run_trace = counted
    return state


# -- checks -----------------------------------------------------------------


def conservation_identities(hierarchy) -> list[bool]:
    """Bus <-> cache conservation identities of one replayed hierarchy."""
    bus = hierarchy.bus.stats
    sides = hierarchy.bus.cache_stats
    procs = hierarchy.proc_stats
    return [
        bus.total_misses == sum(p.l2_misses for p in procs),
        bus.c2c_transfers == sum(p.c2c_fills for p in procs),
        bus.writebacks == sum(s.writebacks for s in sides),
        bus.upgrades == sum(s.upgrades for s in sides),
        bus.invalidations == sum(s.invalidations_received for s in sides),
        bus.total_misses == sum(s.misses for s in sides),
        all(s.c2c_fills + s.mem_fills == s.misses for s in sides),
        all(p.c2c_fills + p.mem_fills == p.l2_misses for p in procs),
    ]


def hierarchy_stats(hierarchy) -> tuple:
    """Every simulated counter of a hierarchy, for the digest."""
    return (
        [astuple(p) for p in hierarchy.proc_stats],
        astuple(hierarchy.bus.stats),
        [astuple(s) for s in hierarchy.bus.cache_stats],
    )


def figure_well_formed(result, fig_id: str, text: str) -> bool:
    """Rows match the columns, numbers are finite, the render ``text``
    names the figure."""
    if not result.rows or f"=== {fig_id}:" not in text:
        return False
    for row in result.rows:
        if len(row) != len(result.columns):
            return False
        for cell in row:
            if isinstance(cell, float) and not math.isfinite(cell):
                return False
    return True


def miss_curve_holds(points) -> bool:
    """One access count per curve, misses within it and non-increasing
    with size (LRU inclusion at fixed associativity)."""
    accesses = {p.accesses for p in points}
    misses = [p.misses for p in points]
    return (
        len(accesses) == 1
        and all(0 <= m <= p.accesses for m, p in zip(misses, points))
        and all(a >= b for a, b in zip(misses, misses[1:]))
    )


def window_laws(result) -> list[bool]:
    """Little's law and the utilization law in every window of a run."""
    from repro.loadplane.windows import IDENTITY_ATOL, IDENTITY_RTOL

    def same(a: float, b: float) -> bool:
        return abs(a - b) <= IDENTITY_RTOL * max(abs(a), abs(b)) + IDENTITY_ATOL

    config = result.config
    held = []
    for w in result.windows:
        held.append(same(w.area_n, w.residence_n))
        held.append(
            w.completions == 0
            or same(w.mean_in_system, w.throughput * w.response_time_s)
        )
        held.append(same(w.area_busy_threads, w.residence_busy_threads))
        held.append(same(w.area_busy_conns, w.residence_busy_conns))
        held.append(0.0 <= w.thread_utilization(config.threads) <= 1.0 + 1e-9)
    return held


# -- workloads --------------------------------------------------------------


def _figures(seed: int, size: Size):
    import repro.figures.common as common
    import repro.harness as harness
    from repro.cli import FIGURE_MODULES
    from repro.harness.tasks import build_figure_tasks
    from repro.harness.traceplane import TracePlane

    sim = replace(common.QUICK_SIM, seed=seed, refs_per_proc=size.figure_refs)
    replayed = _count_replayed_refs()

    def work() -> Outcome:
        out = Outcome(attempted=len(FIGURE_MODULES))
        digest = _Digest()
        plane = TracePlane()
        try:
            tasks = build_figure_tasks(FIGURE_MODULES, sim, plane=plane)
            outcomes = harness.run_tasks(tasks, jobs=1, plane=plane)
        finally:
            plane.close()
        for module_name, outcome in zip(FIGURE_MODULES, outcomes):
            fig_id = module_name.split("_", 1)[0]
            if not outcome.ok:
                out.failed += 1
                digest.add(fig_id, "failed")
                continue
            checks = common.figure_checks(module_name, outcome.value)
            out.checks_ok += sum(ok for _, ok in checks)
            text = outcome.value.render()
            if not figure_well_formed(outcome.value, fig_id, text):
                out.failed += 1
            digest.add(fig_id, text, checks)
        out.sim_count = replayed["refs"]
        out.digest = digest.hex()
        return out

    return work


def _replay(seed: int, size: Size):
    import repro.memsys.fastpath as fastpath
    import repro.memsys.multisim as multisim
    from repro.core.config import SimConfig
    from repro.figures.common import workload_for_procs
    from repro.memsys.config import e6000_machine
    from repro.memsys.hierarchy import MemoryHierarchy
    from repro.rng import RngFactory

    sim = SimConfig(seed=seed, refs_per_proc=size.replay_refs, warmup_fraction=0.5)
    names = ("specjbb", "ecperf")

    def machine(sharing: int, l2_kb: int):
        base = e6000_machine(8).with_shared_l2(sharing)
        return replace(base, l2=replace(base.l2, size=l2_kb * 1024))

    def work() -> Outcome:
        out = Outcome()
        digest = _Digest()
        traces = {
            (name, procs): workload_for_procs(name, procs).generate(
                procs, sim, RngFactory(seed=sim.seed)
            )
            for name in names
            for procs in (8, 1)
        }

        def replayed(hierarchy, label) -> None:
            held = conservation_identities(hierarchy)
            out.checks_ok += sum(held)
            out.failed += not all(held)
            digest.add(label, hierarchy_stats(hierarchy))

        # Cold replays: the compiled kernel's territory.
        for name in names:
            bundle = traces[(name, 8)]
            for protocol in size.replay_protocols:
                for sharing in size.replay_sharing:
                    for l2_kb in size.replay_l2_kb:
                        out.attempted += 1
                        hierarchy = MemoryHierarchy(
                            machine(sharing, l2_kb), protocol=protocol
                        )
                        hierarchy.run_trace(
                            list(bundle.per_cpu),
                            quantum=sim.interleave_quantum,
                            warmup_fraction=sim.warmup_fraction,
                        )
                        out.sim_count += bundle.total_refs
                        replayed(hierarchy, (name, protocol, sharing, l2_kb))

        # Warm, phased replays in the style of Figure 10: after a cold
        # warmup the kernel declines and the scalar loop runs.
        for name in names:
            bundle = traces[(name, 8)]
            warm = [t[: len(t) // 2] for t in bundle.per_cpu]
            rest = [t[len(t) // 2 :] for t in bundle.per_cpu]
            bin_len = min(len(t) for t in rest) // size.replay_bins
            for protocol in size.replay_protocols:
                out.attempted += 1
                hierarchy = MemoryHierarchy(e6000_machine(8), protocol=protocol)
                hierarchy.run_trace(warm, quantum=sim.interleave_quantum)
                hierarchy.reset_stats()
                out.sim_count += sum(len(t) for t in warm)
                timeline = []
                for index in range(size.replay_bins):
                    phase = [t[index * bin_len : (index + 1) * bin_len] for t in rest]
                    before = hierarchy.bus.stats.c2c_transfers
                    hierarchy.run_trace(phase, quantum=sim.interleave_quantum)
                    out.sim_count += sum(len(t) for t in phase)
                    timeline.append(hierarchy.bus.stats.c2c_transfers - before)
                digest.add(name, protocol, timeline)
                replayed(hierarchy, (name, protocol, "phased"))

        # Miss-curve and stack-distance sweeps on the 1p traces.
        sizes = [kb * 1024 for kb in size.curve_kb]
        for name in names:
            trace = traces[(name, 1)].per_cpu[0]
            for kind in ("instr", "data"):
                for assoc in size.curve_assoc:
                    out.attempted += 1
                    points = multisim.simulate_miss_curve(
                        trace, sizes, kind, assoc=assoc,
                        warmup_fraction=sim.warmup_fraction,
                    )
                    held = miss_curve_holds(points)
                    out.checks_ok += held
                    out.failed += not held
                    digest.add(name, kind, assoc, [astuple(p) for p in points])
                out.attempted += 1
                blocks = fastpath.block_stream(trace, kind)
                histogram = fastpath.stack_distance_histogram(blocks)
                held = sum(histogram.values()) == len(blocks)
                out.checks_ok += held
                out.failed += not held
                digest.add(name, kind, sorted(histogram.items()))
        out.digest = digest.hex()
        return out

    return work


def _saturation(seed: int, size: Size):
    import repro.campaign.scheduler as scheduler
    import repro.campaign.studies as studies
    import repro.loadplane as loadplane
    from repro.campaign.executor import SerialExecutor
    from repro.campaign.table import Axis, CampaignSpec, RunTable
    from repro.harness.checkpoint import CampaignManifest

    rng = random.Random(seed)
    users = tuple(
        sorted({round(n * rng.uniform(0.95, 1.05)) for n in size.populations})
    ) + (size.large_population,)
    spec = CampaignSpec(
        name="perfbench-saturation",
        table=RunTable(
            name="perfbench-saturation",
            axes=(Axis("workload", ("uniform", "ecperf")), Axis("users", users)),
            reps=size.campaign_reps,
        ),
        fn=studies.loadplane_cell,
        kwargs={"windows": size.windows, "window_s": size.window_s},
    )
    signature = spec.signature()
    results = []
    simulate = loadplane.simulate_loadplane

    @functools.wraps(simulate)
    def captured(*args, **kwargs):
        result = simulate(*args, **kwargs)
        results.append(result)
        return result

    rebind_everywhere(simulate, captured)

    def work() -> Outcome:
        out = Outcome()
        digest = _Digest()
        with tempfile.TemporaryDirectory(prefix="campaign-") as tmp:
            manifest = CampaignManifest.open_fresh(Path(tmp) / "journal.jsonl", signature)
            try:
                result = scheduler.run_campaign(spec, SerialExecutor(), manifest=manifest)
            finally:
                manifest.close()
        out.attempted = len(result.outcomes)
        out.failed += abs(len(results) - len(result.outcomes))
        for outcome, run in zip(result.outcomes, results):
            held = window_laws(run)
            out.checks_ok += sum(held)
            agrees = outcome.ok and outcome.value["events"] == float(run.events)
            out.failed += not (agrees and all(held))
            out.sim_count += run.events
            digest.add(outcome.cell.key, outcome.status, sorted((outcome.value or {}).items()))
        out.digest = digest.hex()
        return out

    return work


_BUILDERS = {"figures": _figures, "replay": _replay, "saturation": _saturation}

WORKLOADS = tuple(_BUILDERS)


def prepare(name: str, seed: int, size: Size):
    """Set up workload ``name``; returns its timed ``work()``."""
    return _BUILDERS[name](seed, size)
