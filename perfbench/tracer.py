"""In-memory spans around the public entry points of each layer.

The benchmark's traced run calls :func:`install`, which replaces the
entry points of ``repro.workloads``, ``repro.harness``,
``repro.memsys``, ``repro.cpu``, ``repro.perfmodel``,
``repro.figures``, ``repro.campaign`` and ``repro.loadplane`` with
wrappers that open a span, call the original and close the span.
Nothing inside the program changes: the wrappers live here, and the
untraced run never installs them.

A span records its name, start, end and the span that was open when it
started (its parent).  A layer's self time is its spans' durations
minus the part of each interval covered by child spans, so the self
times of all spans add up to the time covered by the outermost ones.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Populations at or above this size are reported as the load plane's
#: large-population cells (``loadplane.large_pop.self_s``).
LARGE_POPULATION = 1_000_000

#: Figure ids, in the order the per-figure metrics are listed.
FIGURE_IDS = (
    "claims", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
)

#: Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = {
    "workloads.generate.calls": "count",
    "workloads.generate.keys": "count",
    "workloads.generate.refs": "count",
    "workloads.generate.self_s": "s",
    "harness.run_tasks.self_s": "s",
    "harness.plane.publish.self_s": "s",
    "harness.plane.publish.bytes": "bytes",
    "memsys.run_trace.calls": "count",
    "memsys.run_trace.refs": "count",
    "memsys.kernel.self_s": "s",
    "memsys.kernel.declined": "count",
    "memsys.scalar.self_s": "s",
    "memsys.miss_curve.self_s": "s",
    "memsys.stackdist.self_s": "s",
    "cpu.cpi.self_s": "s",
    "perfmodel.throughput.self_s": "s",
    **{f"figures.{fig_id}.s": "s" for fig_id in FIGURE_IDS},
    "figures.checks.self_s": "s",
    "figures.render.self_s": "s",
    "campaign.cells": "count",
    "campaign.cells_failed": "count",
    "campaign.journal.self_s": "s",
    "campaign.overhead_s": "s",
    "loadplane.simulate.self_s": "s",
    "loadplane.events": "count",
    "loadplane.large_pop.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "kernel")

    def __init__(self, name: str, start: float, parent: int | None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.kernel = False  # a run_trace span whose replay used the kernel


class Tracer:
    """Spans kept in memory with their parent, plus boundary counts."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.trace_keys: set = set()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} open")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def timed_iter(self, name: str, iterable):
        """Yield from ``iterable`` with a span around each ``next``."""
        iterator = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self seconds per span name: duration minus child coverage."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        covered = _covered(children.get(index, []), span.start, span.end)
        out[span.name] += max(0.0, span.end - span.start - covered)
    return dict(out)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced repetition that took
    ``wall_s``; ``trace.overhead_frac`` needs an untraced twin, so the
    caller fills it in."""
    selfs = self_times(tracer.spans)
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name.endswith(".self_s"):
            metrics[name] = selfs.get(name.removesuffix(".self_s"), 0.0)
        else:
            metrics[name] = float(tracer.counts[name]) if unit != "s" else 0.0
    metrics["workloads.generate.keys"] = float(len(tracer.trace_keys))
    # A run_trace span keeps only the glue around its kernel calls as
    # self time; that glue belongs to the memory system too.
    metrics["memsys.kernel.self_s"] += selfs.get("memsys.run_trace", 0.0)
    for fig_id in FIGURE_IDS:
        metrics[f"figures.{fig_id}.s"] = sum(
            span.end - span.start for span in tracer.spans
            if span.name == f"figures.{fig_id}"
        )
    metrics["campaign.overhead_s"] = selfs.get("campaign.run", 0.0)
    metrics["loadplane.simulate.self_s"] += metrics["loadplane.large_pop.self_s"]
    metrics["trace.unattributed_s"] = wall_s - sum(selfs.values())
    return metrics


# -- installing the wrappers ------------------------------------------------


def rebind_everywhere(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``, so ``from x import f`` call sites see it too."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _wrap_method(tracer: Tracer, cls, attr: str, name: str) -> None:
    setattr(cls, attr, _spanned(tracer, name, getattr(cls, attr)))


def _wrap_function(tracer: Tracer, module, attr: str, name: str) -> None:
    original = getattr(module, attr)
    rebind_everywhere(original, _spanned(tracer, name, original))


def _trace_key(workload, n_procs: int, sim, rng_factory) -> tuple:
    return (
        type(workload).__name__,
        getattr(workload, "warehouses", None),
        getattr(workload, "injection_rate", None),
        n_procs,
        repr(sim),
        getattr(rng_factory, "seed", None),
    )


def _install_workloads(tracer: Tracer) -> None:
    from repro.workloads.ecperf import EcperfWorkload
    from repro.workloads.specjbb import SpecJbbWorkload

    for cls in (SpecJbbWorkload, EcperfWorkload):
        generate = cls.generate
        generate_chunks = cls.generate_chunks

        @functools.wraps(generate)
        def traced_generate(self, n_procs, sim, rng_factory, _orig=generate):
            tracer.counts["workloads.generate.calls"] += 1
            tracer.trace_keys.add(_trace_key(self, n_procs, sim, rng_factory))
            with tracer.span("workloads.generate"):
                bundle = _orig(self, n_procs, sim, rng_factory)
            tracer.counts["workloads.generate.refs"] += bundle.total_refs
            return bundle

        @functools.wraps(generate_chunks)
        def traced_chunks(
            self, n_procs, sim, rng_factory, chunk_refs, _orig=generate_chunks
        ):
            tracer.counts["workloads.generate.calls"] += 1
            tracer.trace_keys.add(_trace_key(self, n_procs, sim, rng_factory))
            with tracer.span("workloads.generate"):
                chunked = _orig(self, n_procs, sim, rng_factory, chunk_refs)
            tracer.counts["workloads.generate.refs"] += sum(chunked.lengths)
            # Chunks are generated lazily, while the consumer pulls them.
            return dataclasses.replace(
                chunked,
                per_cpu=[
                    tracer.timed_iter("workloads.generate", it)
                    for it in chunked.per_cpu
                ],
            )

        cls.generate = traced_generate
        cls.generate_chunks = traced_chunks


def _install_harness(tracer: Tracer) -> None:
    import repro.harness.runner as runner
    from repro.harness.traceplane import TracePlane

    _wrap_function(tracer, runner, "run_tasks", "harness.run_tasks")
    publish = TracePlane.publish

    @functools.wraps(publish)
    def traced_publish(self, spec, bundle=None):
        with tracer.span("harness.plane.publish"):
            ref = publish(self, spec, bundle)
        tracer.counts["harness.plane.publish.bytes"] += ref.nbytes
        return ref

    TracePlane.publish = traced_publish


def refs_of(per_cpu_traces) -> int:
    total = getattr(per_cpu_traces, "total_refs", None)
    if total is not None:
        return int(total)
    return sum(len(trace) for trace in per_cpu_traces)


def _install_memsys(tracer: Tracer) -> None:
    import repro.memsys.fastpath as fastpath
    import repro.memsys.fastpath_coherence as fc
    import repro.memsys.multisim as multisim
    import repro.memsys.stream as stream
    from repro.memsys.hierarchy import MemoryHierarchy

    run_trace = MemoryHierarchy.run_trace

    @functools.wraps(run_trace)
    def traced_run_trace(self, per_cpu_traces, *args, **kwargs):
        current = tracer.current()
        if current is not None and current.name in ("memsys.run_trace", "memsys.scalar"):
            # The warmup split of a declined replay recurses with the
            # scalar loop forced on.
            with tracer.span("memsys.scalar"):
                return run_trace(self, per_cpu_traces, *args, **kwargs)
        tracer.counts["memsys.run_trace.calls"] += 1
        tracer.counts["memsys.run_trace.refs"] += refs_of(per_cpu_traces)
        with tracer.span("memsys.run_trace") as span:
            try:
                return run_trace(self, per_cpu_traces, *args, **kwargs)
            finally:
                if not span.kernel:
                    span.name = "memsys.scalar"

    MemoryHierarchy.run_trace = traced_run_trace

    run_trace_kernel = fc.run_trace_kernel

    @functools.wraps(run_trace_kernel)
    def traced_kernel(hierarchy, *args, **kwargs):
        parent = tracer.current()
        with tracer.span("memsys.kernel") as span:
            accepted = run_trace_kernel(hierarchy, *args, **kwargs)
            if not accepted:
                span.name = "memsys.scalar"
        if accepted and parent is not None:
            parent.kernel = True
        elif not accepted:
            tracer.counts["memsys.kernel.declined"] += 1
        return accepted

    rebind_everywhere(run_trace_kernel, traced_kernel)

    begin = fc.KernelSession.__dict__["begin"].__func__

    @functools.wraps(begin)
    def traced_begin(cls, hierarchy):
        parent = tracer.current()
        with tracer.span("memsys.kernel"):
            session = begin(cls, hierarchy)
        if session is None:
            tracer.counts["memsys.kernel.declined"] += 1
        elif parent is not None:
            parent.kernel = True
        return session

    fc.KernelSession.begin = classmethod(traced_begin)
    for attr in ("run", "finish"):
        _wrap_method(tracer, fc.KernelSession, attr, "memsys.kernel")
    _wrap_function(tracer, stream, "_scalar_phase", "memsys.scalar")
    _wrap_function(tracer, multisim, "simulate_miss_curve", "memsys.miss_curve")
    _wrap_function(tracer, stream, "simulate_miss_curve_stream", "memsys.miss_curve")
    _wrap_function(tracer, fastpath, "stack_distance_histogram", "memsys.stackdist")
    for attr in ("feed", "histogram"):
        _wrap_method(tracer, stream.StackAccumulator, attr, "memsys.stackdist")


def _install_models(tracer: Tracer) -> None:
    from repro.cpu.inorder import InOrderCpuModel
    from repro.perfmodel.throughput import ThroughputModel

    for attr in ("cpi_for_stats", "cpi_for_machine"):
        _wrap_method(tracer, InOrderCpuModel, attr, "cpu.cpi")
    for attr in ("point", "curve", "peak"):
        _wrap_method(tracer, ThroughputModel, attr, "perfmodel.throughput")


def _install_figures(tracer: Tracer) -> None:
    import repro.figures.common as common

    run_figure = common.run_figure

    @functools.wraps(run_figure)
    def traced_run_figure(module_name, *args, **kwargs):
        with tracer.span(f"figures.{module_name.split('_', 1)[0]}"):
            return run_figure(module_name, *args, **kwargs)

    rebind_everywhere(run_figure, traced_run_figure)
    _wrap_function(tracer, common, "figure_checks", "figures.checks")
    _wrap_method(tracer, common.FigureResult, "render", "figures.render")


def _install_campaign(tracer: Tracer) -> None:
    import repro.campaign.scheduler as scheduler
    import repro.campaign.studies as studies
    from repro.harness.checkpoint import CampaignManifest

    run_campaign = scheduler.run_campaign

    @functools.wraps(run_campaign)
    def traced_run_campaign(*args, **kwargs):
        with tracer.span("campaign.run"):
            result = run_campaign(*args, **kwargs)
        tracer.counts["campaign.cells_failed"] += sum(
            not outcome.ok for outcome in result.outcomes
        )
        return result

    rebind_everywhere(run_campaign, traced_run_campaign)
    cell = studies.loadplane_cell

    @functools.wraps(cell)
    def traced_cell(*args, **kwargs):
        tracer.counts["campaign.cells"] += 1
        with tracer.span("campaign.cell"):
            return cell(*args, **kwargs)

    rebind_everywhere(cell, traced_cell)
    for attr in ("record", "close"):
        _wrap_method(tracer, CampaignManifest, attr, "campaign.journal")


def _install_loadplane(tracer: Tracer) -> None:
    import repro.loadplane as loadplane

    simulate = loadplane.simulate_loadplane

    @functools.wraps(simulate)
    def traced_simulate(config, *args, **kwargs):
        large = config.n_users >= LARGE_POPULATION
        with tracer.span("loadplane.large_pop" if large else "loadplane.simulate"):
            result = simulate(config, *args, **kwargs)
        tracer.counts["loadplane.events"] += result.events
        return result

    rebind_everywhere(simulate, traced_simulate)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; import the figure drivers first
    so that names they imported from a layer are rebound too."""
    import importlib

    from repro.cli import FIGURE_MODULES

    for module_name in FIGURE_MODULES:
        importlib.import_module(f"repro.figures.{module_name}")
    importlib.import_module("repro.harness.tasks")
    _install_workloads(tracer)
    _install_harness(tracer)
    _install_memsys(tracer)
    _install_models(tracer)
    _install_figures(tracer)
    _install_campaign(tracer)
    _install_loadplane(tracer)
