"""Kernel-replayed state is kept as arrays and built on first read.

After a compiled-kernel replay the caches, the bus's holders mirror
and the miss classifiers hold the kernel's exported arrays; each
Python container is built only when something reads it.  These tests
pin both halves of that contract:

- reading what the figures read (counters, ratios, the per-line C2C
  footprint) and the kernel's own cold check builds nothing;
- every container, once built, equals the scalar replay's exactly —
  LRU order, line states, holders and classifier sets — and a scalar
  continuation on a kernel-replayed hierarchy matches a scalar-only
  run;
- a cache nothing has touched answers every query as an empty cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memsys import fastpath_coherence
from repro.memsys.block import IFETCH, LOAD, STORE, encode_ref
from repro.memsys.cache import CLEAN, DIRTY, SetAssociativeCache
from repro.memsys.config import CacheConfig, MachineConfig
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.stream import TraceStream

needs_kernel = pytest.mark.skipif(
    not fastpath_coherence.kernel_available(),
    reason="no C compiler available to build the coherence kernel",
)


def small_machine(n_procs: int = 4, procs_per_l2: int = 1) -> MachineConfig:
    """Tiny caches so short traces evict, share and write back."""
    return MachineConfig(
        n_procs=n_procs,
        l1i=CacheConfig(size=1024, assoc=2, block=32, name="L1I"),
        l1d=CacheConfig(size=1024, assoc=2, block=32, name="L1D"),
        l2=CacheConfig(size=4096, assoc=4, block=64, name="L2"),
        procs_per_l2=procs_per_l2,
    )


def random_traces(seed: int, n_procs: int, length: int = 1200, blocks: int = 160):
    """Mixed fetch/load/store traffic over a small shared footprint."""
    rng = np.random.default_rng(seed)
    kinds = np.array([IFETCH, LOAD, STORE])
    return [
        [
            encode_ref(int(b) * 64 + int(w) * 8, int(k))
            for b, w, k in zip(
                rng.integers(0, blocks, length),
                rng.integers(0, 8, length),
                kinds[rng.integers(0, 3, length)],
            )
        ]
        for _ in range(n_procs)
    ]


def _caches(h: MemoryHierarchy) -> list[SetAssociativeCache]:
    return list(h.bus.caches) + h._l1i + h._l1d


def built_containers(h: MemoryHierarchy) -> list[str]:
    """Names of the deferred containers that have been built so far."""
    out = [f"cache {i}" for i, c in enumerate(_caches(h)) if "_sets" in vars(c)]
    if "_holders" in vars(h.bus):
        out.append("holders")
    for cid, classifier in enumerate(h.bus.classifiers):
        out += [
            f"classifier {cid} {name}"
            for name in ("_ever_held", "_invalidated")
            if name in vars(classifier)
        ]
    return out


def lines(cache: SetAssociativeCache) -> list[list[tuple]]:
    """Per-set (block, state) pairs in LRU order, state types included."""
    return [
        [(block, type(state), state) for block, state in line_set.items()]
        for line_set in cache._sets
    ]


def container_state(h: MemoryHierarchy):
    return (
        h.bus._holders,
        [(c._ever_held, c._invalidated) for c in h.bus.classifiers],
        [lines(cache) for cache in _caches(h)],
    )


def counter_state(h: MemoryHierarchy):
    return (
        [vars(s) for s in h.proc_stats],
        vars(h.bus.stats),
        [vars(s) for s in h.bus.cache_stats],
        [(vars(i.stats), vars(d.stats)) for i, d in zip(h._l1i, h._l1d)],
    )


def kernel_replay(machine, traces, warmup_fraction=0.0, **kwargs):
    h = MemoryHierarchy(machine, check_invariants=False, **kwargs)
    assert fastpath_coherence.run_trace_kernel(h, traces, 64, warmup_fraction)
    return h


def scalar_replay(machine, traces, warmup_fraction=0.0, **kwargs):
    h = MemoryHierarchy(machine, **kwargs)
    h.run_trace(traces, quantum=64, warmup_fraction=warmup_fraction, fastpath=False)
    return h


# -- reading what the figures read builds nothing ---------------------------


def test_new_hierarchy_builds_no_sets():
    h = MemoryHierarchy(small_machine(4))
    assert fastpath_coherence._is_cold(h)
    assert not any("_sets" in vars(cache) for cache in _caches(h))


@needs_kernel
@pytest.mark.parametrize("warmup", [0.0, 0.5])
def test_counters_and_cold_check_build_nothing(warmup):
    h = kernel_replay(small_machine(4), random_traces(1, 4), warmup)
    assert h.c2c_ratio() > 0.0
    assert h.data_mpki() > 0.0
    assert h.bus.stats.c2c_by_line
    assert h.bus.stats.touched_lines
    assert sum(s.misses for s in h.bus.cache_stats) > 0
    assert not fastpath_coherence._is_cold(h)
    assert sum(c.occupancy() for c in _caches(h)) > 0
    assert built_containers(h) == []


@needs_kernel
def test_streamed_session_builds_nothing():
    traces = random_traces(2, 4)
    h = MemoryHierarchy(small_machine(4), check_invariants=False)
    stream = TraceStream.from_arrays(
        [np.asarray(t, dtype=np.uint64) for t in traces], chunk_refs=100
    )
    h.run_trace(stream, quantum=64, warmup_fraction=0.25, fastpath=True)
    assert h.c2c_ratio() > 0.0
    assert not fastpath_coherence._is_cold(h)
    assert built_containers(h) == []
    ref = scalar_replay(small_machine(4), traces, 0.25)
    assert counter_state(h) == counter_state(ref)
    assert container_state(h) == container_state(ref)


# -- built containers equal the scalar replay's ------------------------------


@needs_kernel
@pytest.mark.parametrize("protocol", ["mosi", "mesi", "msi"])
@pytest.mark.parametrize(
    "procs_per_l2,include_l1",
    [(1, True), (2, True), (4, True), (1, False)],
    ids=["private", "pairs", "shared-l2", "no-l1"],
)
def test_built_containers_match_scalar(protocol, procs_per_l2, include_l1):
    machine = small_machine(4, procs_per_l2)
    traces = random_traces(3, 4)
    kwargs = dict(protocol=protocol, include_l1=include_l1)
    fast = kernel_replay(machine, traces, 0.3, **kwargs)
    ref = scalar_replay(machine, traces, 0.3, **kwargs)
    assert counter_state(fast) == counter_state(ref)
    # Each container on its own, before the others are built.
    assert fast.bus._holders == ref.bus._holders
    for cid, (got, want) in enumerate(zip(fast.bus.classifiers, ref.bus.classifiers)):
        assert got._invalidated == want._invalidated, cid
        assert got._ever_held == want._ever_held, cid
    for got, want in zip(_caches(fast), _caches(ref)):
        assert got.occupancy() == want.occupancy()
        assert lines(got) == lines(want)
    assert built_containers(fast) == built_containers(ref)
    fast.check_invariants()


@needs_kernel
def test_built_l2_lines_carry_coherence_states():
    fast = kernel_replay(small_machine(4), random_traces(4, 4), protocol="mesi")
    states = {
        type(state).__name__
        for cache in fast.bus.caches
        for line_set in cache._sets
        for state in line_set.values()
    }
    assert states == {"State"}
    l1_states = {
        state for cache in fast._l1d for line_set in cache._sets
        for state in line_set.values()
    }
    assert l1_states == {CLEAN}


# -- scalar continuation on a kernel-replayed hierarchy ----------------------


@needs_kernel
@pytest.mark.parametrize("protocol", ["mosi", "mesi", "msi"])
def test_warm_scalar_continuation_matches_scalar_only(protocol):
    """The fig10 pattern: kernel warmup, reset, then scalar bins."""
    machine = small_machine(4)
    traces = random_traces(5, 4, length=2400)
    warm = [t[:1200] for t in traces]
    bins = [[t[lo : lo + 300] for t in traces] for lo in range(1200, 2400, 300)]

    def run(fastpath):
        h = MemoryHierarchy(machine, protocol=protocol)
        h.run_trace(warm, quantum=64, fastpath=fastpath)
        h.reset_stats()
        rates = []
        for part in bins:
            before = h.bus.stats.c2c_transfers
            h.run_trace(part, quantum=64, fastpath=fastpath)
            rates.append(h.bus.stats.c2c_transfers - before)
        return h, rates

    mixed, mixed_rates = run(True)
    scalar, scalar_rates = run(False)
    assert mixed_rates == scalar_rates
    assert counter_state(mixed) == counter_state(scalar)
    assert container_state(mixed) == container_state(scalar)


@needs_kernel
def test_warm_continuation_counts_warm_fallback(obs_enabled):
    traces = random_traces(6, 2, length=400)
    h = MemoryHierarchy(small_machine(2), check_invariants=False)
    h.run_trace(traces, quantum=64, fastpath=True)
    h.run_trace(traces, quantum=64, fastpath=True)
    counters = obs_enabled.COUNTERS.snapshot()
    assert counters["memsys/fastpath/coherent_replay"] == 1
    assert counters["memsys/fastpath/coherent_fallback"] == 1
    assert counters["memsys/fastpath/coherent_fallback/warm"] == 1


def test_checker_fallback_is_counted_with_its_reason(obs_enabled):
    h = MemoryHierarchy(small_machine(2), check_invariants=True, check_sample=64)
    h.run_trace(random_traces(7, 2, length=200), quantum=64, fastpath=True)
    counters = obs_enabled.COUNTERS.snapshot()
    assert counters["memsys/fastpath/coherent_fallback"] == 1
    assert counters["memsys/fastpath/coherent_fallback/checker"] == 1


def test_missing_compiler_counts_no_compiler(obs_enabled, monkeypatch):
    monkeypatch.setattr(fastpath_coherence, "_load_library", lambda: None)
    h = MemoryHierarchy(small_machine(2), check_invariants=False)
    h.run_trace(random_traces(8, 2, length=200), quantum=64, fastpath=True)
    counters = obs_enabled.COUNTERS.snapshot()
    assert counters["memsys/fastpath/coherent_fallback/no_compiler"] == 1


# -- a never-touched cache ---------------------------------------------------


def test_untouched_cache_answers_as_empty():
    config = CacheConfig(size=4096, assoc=2, block=64)
    cache = SetAssociativeCache(config)
    assert cache.occupancy() == 0
    assert "_sets" not in vars(cache)
    assert not cache.contains(5)
    assert list(cache.resident_blocks()) == []
    cache.flush()
    assert cache.occupancy() == 0

    fresh = SetAssociativeCache(config)
    assert fresh.access(5, write=True) is False
    assert fresh.access(5, write=False) is True
    assert fresh.contains(5) and fresh.probe(5) == DIRTY
    assert fresh.occupancy() == 1
    assert list(fresh.resident_blocks()) == [5]
    fresh.flush()
    assert fresh.occupancy() == 0 and not fresh.contains(5)
    assert fresh.stats.accesses == 2 and fresh.stats.misses == 1


def test_loaded_lines_answer_before_and_after_build():
    config = CacheConfig(size=512, assoc=2, block=64)  # 4 sets
    set_counts = np.array([2, 0, 1, 0], dtype=np.int32)
    blocks = np.array([8, 4, 6], dtype=np.uint64)  # set 0: 8 (LRU), 4
    cache = SetAssociativeCache(config)
    cache.load_lines(set_counts, blocks)
    assert cache.occupancy() == 3 and "_sets" not in vars(cache)
    assert list(cache.resident_blocks()) == [8, 4, 6]
    assert cache.insert(12, DIRTY) == (8, CLEAN)  # the LRU way goes
    assert cache.occupancy() == 3

    flushed = SetAssociativeCache(config)
    flushed.load_lines(set_counts, blocks)
    flushed.flush()
    assert flushed.occupancy() == 0
    assert list(flushed.resident_blocks()) == []
