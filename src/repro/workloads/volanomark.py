"""VolanoMark-style chat-server workload (related-work comparison).

Section 6 contrasts the middleware benchmarks with VolanoMark (Luo &
John): "VolanoMark behaves quite differently than ECperf or SPECjbb
because of the high number of threads it creates.  In VolanoMark, the
server creates a new thread for each client connection ... As a
result, the middle tier of the ECperf benchmark spends much less time
in the kernel than VolanoMark."

The model makes that contrast measurable: a chat server with one
thread *per connection* (hundreds of threads on a few processors),
tiny per-message business logic, and kernel network work on every
message — so its reference streams are dominated by thread-switch
and kernel activity rather than business logic, and its kernel-time
model is far above ECperf's.  Used by the related-work comparison
bench, not by the paper's figures.
"""

from __future__ import annotations

import numpy as np

from repro.appserver.container import CodeRegionSpec
from repro.core.config import SimConfig
from repro.errors import WorkloadError
from repro.jvm.heap import GenerationalHeap, HeapLayout
from repro.jvm.threads import ThreadRegistry
from repro.osmodel.netstack import KernelNetworkModel
from repro.rng import RngFactory
from repro.workloads import layout
from repro.workloads.base import (
    StreamBuilder,
    TraceBundle,
    code_sweeps,
    seed_preamble,
)
from repro.workloads.codepath import CodeLayout, jvm_runtime_regions

#: Chat rooms' message boards live with the other shared structures.
ROOM_BASE = layout.SHARED_BASE + 0xA000


def volano_code_regions() -> list[CodeRegionSpec]:
    """A chat server's hot code: tiny application, hot kernel paths."""
    return [
        CodeRegionSpec("volano.message_dispatch", instructions=4_000, hotness=10.0),
        CodeRegionSpec("volano.room_broadcast", instructions=3_000, hotness=8.0),
        CodeRegionSpec("volano.presence", instructions=2_000, hotness=3.0),
        CodeRegionSpec("kernel.tcp", instructions=10_000, hotness=14.0),
        CodeRegionSpec("kernel.socket", instructions=6_000, hotness=12.0),
        CodeRegionSpec("kernel.scheduler", instructions=5_000, hotness=10.0),
    ]


class VolanoMarkWorkload:
    """Generator of VolanoMark-shaped reference streams.

    Args:
        connections: client connections == server threads (the
            benchmark's defining excess; default 20 rooms x 20 users).
        rooms: chat rooms; a message fans out to one room's members.
    """

    name = "volanomark"

    def __init__(
        self,
        connections: int = 400,
        rooms: int = 20,
        heap_layout: HeapLayout | None = None,
    ) -> None:
        if connections < 1:
            raise WorkloadError("connections must be >= 1")
        if not 1 <= rooms <= connections:
            raise WorkloadError("rooms must be in [1, connections]")
        self.connections = connections
        self.rooms = rooms
        self.code = CodeLayout(
            jvm_runtime_regions() + volano_code_regions(),
            locality=0.7,
            offset_skew=3.0,
        )
        self._heap_layout = heap_layout or HeapLayout()

    def generate(
        self, n_procs: int, sim: SimConfig, rng_factory: RngFactory
    ) -> TraceBundle:
        """One stream per processor, time-sliced over many threads.

        Unlike the pooled middleware servers, hundreds of threads share
        each processor; every message handled runs under a different
        thread context, so fetch locality and stack reuse are
        constantly broken — the kernel-heavy, switch-heavy profile the
        related work reports.
        """
        if n_procs < 1:
            raise WorkloadError("n_procs must be >= 1")
        heap = GenerationalHeap(self._heap_layout)
        registry = ThreadRegistry(n_procs)
        # One cursor per processor (per-thread cursors would exhaust
        # the share budget at hundreds of threads).
        cursors = [heap.cursor(1.0 / n_procs) for _ in range(n_procs)]
        threads = [registry.spawn() for _ in range(self.connections)]
        per_cpu: list[list[int]] = []
        instructions: list[int] = []
        for cpu in range(n_procs):
            rng = rng_factory.stream(f"volano.cpu{cpu}")
            builder = StreamBuilder(rng)
            seed_preamble(builder, code_sweeps(self.code), sim)
            cpu_threads = [t for t in threads if t.cpu == cpu]
            turn = 0
            while len(builder.refs) < sim.refs_per_proc:
                thread = cpu_threads[turn % len(cpu_threads)]
                turn += 1
                self._message(builder, thread, cursors[cpu])
            per_cpu.append(builder.refs[: sim.refs_per_proc])
            instructions.append(builder.instructions)
        return TraceBundle(
            workload=self.name,
            per_cpu=per_cpu,
            instructions=instructions,
            meta={
                "connections": self.connections,
                "rooms": self.rooms,
                "code_bytes": self.code.total_code_bytes,
                "threads_per_proc": self.connections / n_procs,
            },
        )

    def _message(self, b: StreamBuilder, thread, cursor) -> None:
        """Handle one chat message on ``thread``."""
        rng = b.rng
        # A fresh thread context for nearly every message.
        b.set_stack(thread.stack_base)
        # Kernel receive + scheduler work dominate the path.
        b.code_burst(self.code, mean_burst_instr=90)
        b.rmw(layout.RUNQUEUE_BASE + thread.cpu * 64)  # context switch
        b.code_burst(self.code, mean_burst_instr=90)
        # Read the message from a shared network buffer.
        nbuf = layout.NET_BUFFER_POOL + int(rng.integers(0, 64)) * 256
        b.rmw(nbuf)
        b.scan(nbuf, 256, write=False)
        # Tiny business logic: append to the room's board.
        room = int(rng.integers(0, self.rooms))
        board = ROOM_BASE + room * 512
        b.rmw(board)
        b.object_access(board + 64, n_fields=2, write_fields=1)
        b.code_burst(self.code, mean_burst_instr=90)
        # Fan the message out: one kernel send per room member sample.
        for _ in range(3):
            out = layout.NET_BUFFER_POOL + int(rng.integers(0, 64)) * 256
            b.rmw(out)
            b.scan(out, 256, write=True)
            b.code_burst(self.code, mean_burst_instr=90)
        # Small allocation for the message object.
        b.allocate(cursor, 128)

    def live_memory_mb(self, scale: int) -> float:
        """Live heap vs connection count: per-connection buffers only."""
        if scale < 1:
            raise WorkloadError("scale must be >= 1")
        return 30.0 + 0.05 * scale

    @property
    def kernel_time_model(self) -> KernelNetworkModel:
        """Far above ECperf: the server lives in the network stack."""
        return KernelNetworkModel(
            base_fraction=0.28, contention_coeff=0.025, exponent=1.3, cap=0.75
        )
