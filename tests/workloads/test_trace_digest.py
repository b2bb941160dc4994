"""Golden digests of the multiprocessor traces the figures replay.

Pins ``generate()`` for SPECjbb, ECperf and VolanoMark bit for bit:
every per-processor ``uint64`` stream plus the instruction counts, at
1, 2 and 8 processors and two seeds.  The figure goldens only see
these traces through a few ``--quick`` reports, so a generator change
that moves a reference or an RNG position without moving a rounded
figure value would otherwise pass.  The digests were captured from the
per-reference scalar generator that predates the array-built one;
``generate_chunks`` must concatenate to the same streams at any chunk
size.

The first twelve cases run at the figure benchmark's 8k refs/proc,
where every pre-warm preamble is too long for the warmup window and is
dropped; the ``0.9`` warmup cases keep it, so both preamble branches
are pinned.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import SimConfig
from repro.figures.common import workload_for_procs
from repro.rng import RngFactory
from repro.workloads.volanomark import VolanoMarkWorkload

#: (workload, procs, refs_per_proc, warmup_fraction, seed) -> sha256.
GOLDEN = {
    ("specjbb", 1, 8000, 0.5, 1): "f63b0fe6ef0d6f17a05d6edbce205866d946e0450b4446e82f9bb255a8a243b7",
    ("specjbb", 1, 8000, 0.5, 1234): "9ed88dd0e15614b2e4aba07f4d3d6fdf19059032e16755073ef019ba135413de",
    ("specjbb", 2, 8000, 0.5, 1): "ec3d86aecfcf018972d4df04c2b0f61c4f4d4c41fd8602ed336033c3b7175f5a",
    ("specjbb", 2, 8000, 0.5, 1234): "40009e17414767453160de9b8844638a8fea618073614dd9b21b3ac8397b97ed",
    ("specjbb", 8, 8000, 0.5, 1): "7fbd71dad5acb9e9439a0a737910296ebe24998e0bdfbe3aad7258b48e9b00a3",
    ("specjbb", 8, 8000, 0.5, 1234): "1b9b5755c5fdcd5b293c723240fb579495caa836dac77715874123e739a0dd56",
    ("ecperf", 1, 8000, 0.5, 1): "aee27ea2c33a58675b261a300939bb13af2b86c719e5e8b6001ff28dab2a450d",
    ("ecperf", 1, 8000, 0.5, 1234): "602cdf0f03fcff91080c151a3e117bd7c0c7fb7b35a2db59aa8e383178f3ddf1",
    ("ecperf", 2, 8000, 0.5, 1): "698df813a537daec7634447911c7a301978d9cb8156d7f471ae6570bc8402374",
    ("ecperf", 2, 8000, 0.5, 1234): "c97fcbdc4336af684d35adf272f058a6cba077c5572e165d06eeb9f10f2c6f01",
    ("ecperf", 8, 8000, 0.5, 1): "fad9b16394dbc835e74b6f87e9bd069bfe9e2d4adb94b0f320b1a94fed310979",
    ("ecperf", 8, 8000, 0.5, 1234): "5608f2c936e0f37324048d75ee065ab8b0b14fed6a11abf1a79e889e54c3ee91",
    ("specjbb", 2, 16000, 0.9, 7): "bc753b3ded1a221705049cc8b45a9786d64ddfe355cb4e85bb21a535fcf15adc",
    ("ecperf", 1, 45000, 0.9, 7): "43129063a8de5958dd590e692e3dbd23090fabcf9f9c2944f94b399e9ee8cd74",
    ("volanomark", 1, 8000, 0.5, 1): "985856d1a4d98560ac0ded17220cc142bfaabdb4f2e5ab0d09244f96b1e7a8dd",
    ("volanomark", 2, 16000, 0.9, 7): "fe74939df6d08bb959bfd1e92dc3664870a57f054c9d768d395d5f617b2a1155",
}

#: The cases with a ``generate_chunks`` (VolanoMark has none).
CHUNKED = [key for key in GOLDEN if key[0] != "volanomark"]


def _workload(name: str, procs: int):
    if name == "volanomark":
        return VolanoMarkWorkload()
    return workload_for_procs(name, procs)


def _sim(refs: int, warmup: float, seed: int) -> SimConfig:
    return SimConfig(seed=seed, refs_per_proc=refs, warmup_fraction=warmup)


def trace_digest(per_cpu: list[np.ndarray], instructions: list[int]) -> str:
    """sha256 over each stream's length and bytes, then the counts."""
    h = hashlib.sha256()
    for stream in per_cpu:
        h.update(np.int64(stream.size).tobytes())
        h.update(np.ascontiguousarray(stream, dtype="<u8").tobytes())
    h.update(np.asarray(instructions, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_generate_matches_golden_digest(key):
    name, procs, refs, warmup, seed = key
    bundle = _workload(name, procs).generate(
        procs, _sim(refs, warmup, seed), RngFactory(seed=seed)
    )
    assert [t.size for t in bundle.per_cpu] == [refs] * procs
    assert trace_digest(bundle.per_cpu, bundle.instructions) == GOLDEN[key]


@pytest.mark.parametrize("chunk_refs", [1, 7, 4096])
@pytest.mark.parametrize(
    "key",
    [key for key in CHUNKED if key[4] == 1 or key[3] == 0.9],
    ids=lambda k: "-".join(map(str, k)),
)
def test_chunks_concatenate_to_generate(key, chunk_refs):
    name, procs, refs, warmup, seed = key
    sim = _sim(refs, warmup, seed)
    expected = _workload(name, procs).generate(procs, sim, RngFactory(seed=seed))
    chunked = _workload(name, procs).generate_chunks(
        procs, sim, RngFactory(seed=seed), chunk_refs
    )
    assert chunked.lengths == [refs] * procs
    for cpu, chunks in enumerate(chunked.per_cpu):
        chunks = list(chunks)
        assert all(c.dtype == np.uint64 for c in chunks)
        assert all(c.size == chunk_refs for c in chunks[:-1])
        assert np.array_equal(np.concatenate(chunks), expected.per_cpu[cpu])
