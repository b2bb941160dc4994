"""Multiprocessor memory-system simulator.

This subpackage is the reproduction's stand-in for the paper's
measurement substrate (Sun E6000 hardware counters + Simics with the
Sumo cache simulator).  It provides:

- :mod:`repro.memsys.block` — reference encoding shared by workloads
  and simulators;
- :mod:`repro.memsys.cache` — set-associative LRU caches;
- :mod:`repro.memsys.coherence` — a MOSI snooping bus with
  cache-to-cache ("snoop copyback") accounting;
- :mod:`repro.memsys.hierarchy` — multi-processor hierarchies with
  private or shared L2 caches (the chip-multiprocessor study);
- :mod:`repro.memsys.multisim` — replay one trace through many cache
  geometries (miss-rate-vs-size curves);
- :mod:`repro.memsys.invariants` — opt-in sampled runtime checking of
  MOSI legality, L1/L2 inclusion, and stats conservation
  (``JMMW_CHECK=1`` or ``--check-invariants``);
- :mod:`repro.memsys.stackdist` — LRU stack-distance profiling;
- :mod:`repro.memsys.storebuffer`, :mod:`repro.memsys.tlb` — the store
  buffer and TLB models behind the stall decomposition and the ISM
  large-page result.
"""

from repro.memsys.block import (
    IFETCH,
    LOAD,
    STORE,
    Ref,
    decode_ref,
    encode_ref,
    encode_refs,
    is_data_kind,
    is_write_kind,
)
from repro.memsys.cache import CacheStats, SetAssociativeCache
from repro.memsys.coherence import CoherenceStats, MOSIBus, State
from repro.memsys.hierarchy import MemoryHierarchy, ProcessorStats
from repro.memsys.invariants import InvariantChecker, checking_enabled, sample_period
from repro.memsys.latency import E6000_LATENCIES, LatencyBook
from repro.memsys.misses import MissKind
from repro.memsys.multisim import MultiConfigSimulator, simulate_miss_curve
from repro.memsys.stackdist import StackDistanceProfiler
from repro.memsys.bandwidth import BusModel
from repro.memsys.prefetch import NextLinePrefetcher, PrefetchStats
from repro.memsys.storebuffer import StoreBuffer
from repro.memsys.tracefile import load_trace, save_trace
from repro.memsys.tlb import Tlb

__all__ = [
    "IFETCH",
    "LOAD",
    "STORE",
    "Ref",
    "decode_ref",
    "encode_ref",
    "encode_refs",
    "is_data_kind",
    "is_write_kind",
    "CacheStats",
    "SetAssociativeCache",
    "CoherenceStats",
    "MOSIBus",
    "State",
    "MemoryHierarchy",
    "ProcessorStats",
    "InvariantChecker",
    "checking_enabled",
    "sample_period",
    "E6000_LATENCIES",
    "LatencyBook",
    "MissKind",
    "MultiConfigSimulator",
    "simulate_miss_curve",
    "StackDistanceProfiler",
    "StoreBuffer",
    "Tlb",
    "BusModel",
    "NextLinePrefetcher",
    "PrefetchStats",
    "load_trace",
    "save_trace",
]
