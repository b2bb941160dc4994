"""Array-built generator paths against per-reference scalar oracles.

The generator builds fetch bursts, stack locals and pre-warm sweeps as
numpy arrays.  The oracles below are the per-reference loops those
paths replaced, kept here as the reference: one ``encode_ref`` per
fetch line, one ``rng.integers(0, 64)`` per stack-local load or store.
Hypothesis drives both over the awkward corners — segments whose size
is not a whole number of fetch lines with runs starting near their
end (the wrap to offset 0), bursts shorter than, equal to and longer
than their loop window, and bursts with no locals at all — and the
references, instruction counts, continuations and RNG positions must
all agree.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appserver.container import CodeRegionSpec
from repro.core.config import SimConfig
from repro.memsys.block import (
    IFETCH,
    IFETCH_BYTES,
    LOAD,
    STORE,
    encode_ref,
    encode_refs,
)
from repro.workloads.base import (
    StreamBuilder,
    Sweep,
    code_sweep_refs,
    code_sweeps,
    region_sweep_refs,
    seed_preamble,
)
from repro.workloads.codepath import (
    CODE_REGION_BASE,
    CodeLayout,
    CodeSegment,
    jvm_runtime_regions,
)

# -- scalar oracles -----------------------------------------------------------


def oracle_fetch_refs(
    segment: CodeSegment, start_instr: int, n_instr: int
) -> list[int]:
    """Sequential fetches, one ``encode_ref`` per 32-byte line."""
    if n_instr <= 0:
        return []
    start_byte = (start_instr * 4) % segment.code_bytes
    start_byte -= start_byte % IFETCH_BYTES
    refs = []
    offset = start_byte
    remaining_bytes = n_instr * 4
    while remaining_bytes > 0:
        refs.append(encode_ref(segment.base + offset, IFETCH))
        offset += IFETCH_BYTES
        if offset >= segment.code_bytes:
            offset = 0
        remaining_bytes -= IFETCH_BYTES
    return refs


def oracle_window_fetches(
    segment: CodeSegment, start: int, n_instr: int, window_lines: int
) -> list[int]:
    """A burst's loop-window fetch loop, one reference at a time."""
    window_instr = window_lines * (IFETCH_BYTES // 4)
    refs: list[int] = []
    start_byte = (start * 4) % segment.code_bytes
    start_byte -= start_byte % IFETCH_BYTES
    remaining = n_instr
    while remaining > 0:
        span = min(remaining, window_instr)
        offset = start_byte
        for _ in range((span + IFETCH_BYTES // 4 - 1) // (IFETCH_BYTES // 4)):
            refs.append(encode_ref(segment.base + offset, IFETCH))
            offset += IFETCH_BYTES
            if offset >= segment.code_bytes:
                offset = 0
        remaining -= span
    return refs


def oracle_burst(layout: CodeLayout, rng, mean_burst_instr: int = 100, prev=None):
    """``CodeLayout.burst`` with the scalar fetch loop."""
    if prev is not None and float(rng.random()) < layout.locality:
        segment, last_pos = prev
        if float(rng.random()) < 0.45:
            start = last_pos
        else:
            start = (last_pos + int(rng.integers(0, 64))) % segment.instructions
    else:
        segment = layout.pick_segment(rng)
        u = float(rng.random()) ** layout.offset_skew
        start = int(u * segment.instructions)
    n_instr = max(16, int(rng.exponential(mean_burst_instr)))
    window_lines = int(rng.integers(2, 9))
    refs = oracle_window_fetches(segment, start, n_instr, window_lines)
    end_pos = (start + n_instr) % segment.instructions
    return refs, n_instr, (segment, end_pos)


def oracle_code_burst(
    b: StreamBuilder, layout: CodeLayout, mean_burst_instr: int = 100
) -> None:
    """``StreamBuilder.code_burst`` with one scalar draw per local."""
    refs, n_instr, b._code_prev = oracle_burst(
        layout, b.rng, mean_burst_instr, prev=b._code_prev
    )
    b.refs.extend(refs)
    b.instructions += n_instr
    n_loads = int(n_instr * b.LOADS_PER_INSTR)
    n_stores = int(n_instr * b.STORES_PER_INSTR)
    window = b.stack_base + (b._frame_cursor % 4) * 512
    b._frame_cursor += 1
    for _ in range(n_loads):
        offset = int(b.rng.integers(0, 64)) * 8
        b.refs.append(encode_ref(window + offset, LOAD))
    for _ in range(n_stores):
        offset = int(b.rng.integers(0, 64)) * 8
        b.refs.append(encode_ref(window + offset, STORE))


def oracle_code_sweep(layout: CodeLayout) -> list[int]:
    refs = []
    for segment in layout.segments:
        for offset in range(0, segment.code_bytes, 32):
            refs.append(encode_ref(segment.base + offset, IFETCH))
    return refs


def oracle_region_sweep(base: int, nbytes: int, stride: int = 64) -> list[int]:
    return [encode_ref(base + off, LOAD) for off in range(0, nbytes, stride)]


# -- strategies ---------------------------------------------------------------

#: Segment sizes in instructions; most are not a whole number of fetch
#: lines (instructions % 8 != 0), like ``jvm.write_barrier``'s 6000 B.
segment_instructions = st.one_of(
    st.integers(1, 40), st.integers(41, 3000), st.sampled_from([1500, 1501, 1503])
)


@st.composite
def segment_runs(draw):
    instructions = draw(segment_instructions)
    base = CODE_REGION_BASE + 256 * draw(st.integers(0, 64))
    segment = CodeSegment("s", base, instructions)
    # Half the starts sit within the last few fetch lines.
    near_end = instructions - draw(st.integers(1, min(instructions, 24)))
    start = draw(st.one_of(st.just(near_end), st.integers(0, 3 * instructions)))
    window_lines = draw(st.integers(2, 8))
    window_instr = window_lines * 8
    n_instr = draw(
        st.one_of(
            st.integers(1, window_instr - 1),
            st.just(window_instr),
            st.integers(window_instr + 1, 40 * window_instr),
            st.integers(-4, 0),
        )
    )
    return segment, start, n_instr, window_lines


def small_layout(sizes: list[int], locality: float) -> CodeLayout:
    specs = [
        CodeRegionSpec(f"r{i}", instructions=n, hotness=1.0 + i)
        for i, n in enumerate(sizes)
    ]
    return CodeLayout(specs, locality=locality)


layouts = st.one_of(
    st.just(CodeLayout(jvm_runtime_regions())),
    st.builds(
        small_layout,
        st.lists(segment_instructions, min_size=1, max_size=5),
        st.floats(0.0, 0.95),
    ),
)


def rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


# -- fetch paths --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(segment_runs())
def test_window_fetches_match_scalar_loop(run):
    segment, start, n_instr, window_lines = run
    refs = segment.fetch_refs(start, n_instr, window_lines)
    assert refs.dtype == np.uint64
    assert refs.tolist() == oracle_window_fetches(segment, start, n_instr, window_lines)


@settings(max_examples=200, deadline=None)
@given(segment_runs())
def test_sequential_fetches_match_scalar_loop(run):
    segment, start, n_instr, _ = run
    refs = segment.fetch_refs(start, n_instr)
    assert refs.tolist() == oracle_fetch_refs(segment, start, n_instr)


def test_window_wraps_to_offset_zero_not_modulo():
    """A 6000 B segment: the line after 5984 is 0, not 5984 + 32 - 6000."""
    segment = CodeSegment("jvm.write_barrier", CODE_REGION_BASE, 1500)
    assert segment.code_bytes % IFETCH_BYTES == 16
    refs = segment.fetch_refs(1496, 4 * 8, window_lines=4)
    addrs = [(r >> 2) - CODE_REGION_BASE for r in refs.tolist()]
    assert addrs == [5984, 0, 32, 64]
    assert refs.tolist() == oracle_window_fetches(segment, 1496, 32, 4)


@settings(max_examples=100, deadline=None)
@given(layouts, st.integers(0, 2**32), st.integers(1, 400), st.integers(1, 12))
def test_layout_burst_matches_scalar(layout, seed, mean, n_bursts):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    prev = ref_prev = None
    for _ in range(n_bursts):
        refs, n_instr, prev = layout.burst(rng, mean, prev=prev)
        ref_refs, ref_n, ref_prev = oracle_burst(layout, ref_rng, mean, prev=ref_prev)
        assert refs.tolist() == ref_refs
        assert n_instr == ref_n
        assert prev[0] is ref_prev[0] and prev[1] == ref_prev[1]
    assert rng_state(rng) == rng_state(ref_rng)


# -- stack-local traffic ------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    layouts,
    st.integers(0, 2**32),
    st.integers(1, 400),
    st.integers(1, 10),
    st.sampled_from([(0.25, 0.10), (0.0, 0.0), (0.0, 0.3), (0.6, 0.0)]),
)
def test_code_burst_matches_scalar(layout, seed, mean, n_bursts, per_instr):
    stack = 0xF000_0000
    b = StreamBuilder(np.random.default_rng(seed), stack_base=stack)
    ref = StreamBuilder(np.random.default_rng(seed), stack_base=stack)
    for builder in (b, ref):
        builder.LOADS_PER_INSTR, builder.STORES_PER_INSTR = per_instr
    for i in range(n_bursts):
        if i == n_bursts // 2:
            b.set_stack(stack + 0x10_0000)
            ref.set_stack(stack + 0x10_0000)
        b.code_burst(layout, mean)
        oracle_code_burst(ref, layout, mean)
        assert b.refs == ref.refs
        assert all(type(r) is int for r in b.refs)
    assert b.instructions == ref.instructions
    assert b._frame_cursor == ref._frame_cursor
    assert b._code_prev[0] is ref._code_prev[0]
    assert b._code_prev[1] == ref._code_prev[1]
    assert rng_state(b.rng) == rng_state(ref.rng)


def test_code_burst_without_locals_draws_nothing_extra():
    layout = CodeLayout(jvm_runtime_regions())
    b = StreamBuilder(np.random.default_rng(5))
    ref = StreamBuilder(np.random.default_rng(5))
    for builder in (b, ref):
        builder.LOADS_PER_INSTR = builder.STORES_PER_INSTR = 0.0
    b.code_burst(layout)
    oracle_code_burst(ref, layout)
    assert b.refs == ref.refs
    assert {r & 3 for r in b.refs} == {IFETCH}
    assert rng_state(b.rng) == rng_state(ref.rng)


# -- pre-warm sweeps ----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(layouts)
def test_code_sweep_matches_scalar(layout):
    refs = code_sweep_refs(layout)
    assert refs.dtype == np.uint64
    assert refs.tolist() == oracle_code_sweep(layout)
    assert sum(len(s) for s in code_sweeps(layout)) == refs.size


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**40), st.integers(-64, 20_000), st.integers(1, 512))
def test_region_sweep_matches_scalar(base, nbytes, stride):
    refs = region_sweep_refs(base, nbytes, stride)
    assert refs.tolist() == oracle_region_sweep(base, nbytes, stride)
    assert len(Sweep(base, nbytes, stride)) == refs.size


#: The sweeps below are 3127 refs; the limit is 0.8 * 0.5 * refs_per_proc.
@pytest.mark.parametrize(
    "refs_per_proc, kept",
    [(1000, False), (7817, False), (7818, True), (100_000, True)],
)
def test_seed_preamble_keeps_only_what_fits(obs_enabled, refs_per_proc, kept):
    layout = CodeLayout(jvm_runtime_regions())
    sweeps = code_sweeps(layout) + [Sweep(0x9000, 4096)]
    sim = SimConfig(refs_per_proc=refs_per_proc, warmup_fraction=0.5)
    b = StreamBuilder(np.random.default_rng(0))
    seed_preamble(b, sweeps, sim)
    expected = oracle_code_sweep(layout) + oracle_region_sweep(0x9000, 4096)
    assert len(expected) == 3127
    assert b.refs == (expected if kept else [])
    counters = obs_enabled.COUNTERS
    assert counters.get("workloads/prewarm/kept") == int(kept)
    assert counters.get("workloads/prewarm/dropped") == int(not kept)


# -- validation ---------------------------------------------------------------


def test_negative_stack_base_raises():
    b = StreamBuilder(np.random.default_rng(1), stack_base=-4096)
    with pytest.raises(ValueError, match="negative address"):
        b.code_burst(CodeLayout(jvm_runtime_regions()))


def test_negative_region_base_raises():
    with pytest.raises(ValueError, match="negative address"):
        region_sweep_refs(-64, 4096)
    with pytest.raises(ValueError, match="negative address"):
        Sweep(-64, 4096).refs()


def test_encode_refs_matches_scalar_encode_and_checks_kind():
    offsets = np.array([0, 8, 64, 4096])
    for kind in (IFETCH, LOAD, STORE):
        assert encode_refs(0x1234_5000, offsets, kind).tolist() == [
            encode_ref(0x1234_5000 + int(o), kind) for o in offsets
        ]
    with pytest.raises(ValueError, match="invalid reference kind"):
        encode_refs(0x1000, offsets, 3)
