"""Set-associative cache with true-LRU replacement.

The cache operates on *block addresses* (byte address >> block_bits);
callers do the shifting so one cache object never needs to know about
reference encoding.  Each set is a dict from tag to a caller-defined
state value: Python dicts preserve insertion order, so LRU is a delete
+ reinsert, which profiles faster than any list-based scheme at the
trace volumes we replay.

The set dicts are built on first read, not in ``__init__``: a machine
of many large caches costs nothing until a scalar access reaches one.
After a compiled-kernel replay (:mod:`repro.memsys.fastpath_coherence`)
a cache holds its lines as the kernel exported them — per-set counts
plus LRU-ordered block and state arrays, given to :meth:`load_lines`
— and builds the dicts from those arrays only if something reads
them.  The figures read counters only, so most replayed caches are
never built.

Two interfaces are exposed:

- ``access(block, write)`` — self-contained hit/miss accounting for
  uniprocessor simulations (miss-rate curves, L1 filtering);
- ``probe / touch / set_state / insert / remove`` — the primitive
  operations the MOSI snooping bus composes, where the per-line state
  is a coherence state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import Hashable, Iterator, Sequence

import numpy as np

from repro.memsys.config import CacheConfig
from repro.memsys.lazy import built_on_first_read


@dataclass
class CacheStats:
    """Counters kept by ``access``-mode simulations."""

    accesses: int = 0
    misses: int = 0
    writebacks: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.misses += other.misses
        self.writebacks += other.writebacks
        self.evictions += other.evictions


#: State value used by ``access``-mode (non-coherent) simulations.
CLEAN = 0
DIRTY = 1

#: ``SetAssociativeCache._lines`` of a cache that holds nothing.
_NO_LINES = (None, np.empty(0, dtype=np.uint64), None, (CLEAN,))


class SetAssociativeCache:
    """One physical cache array.

    >>> from repro.memsys.config import CacheConfig
    >>> c = SetAssociativeCache(CacheConfig(size=4096, assoc=2, block=64))
    >>> c.access(0, write=False)   # cold miss
    False
    >>> c.access(0, write=False)   # now a hit
    True
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._set_mask = config.set_mask
        self._n_sets = config.n_sets
        self._assoc = config.assoc
        # The lines ``_sets`` will be built from; None once it is built.
        self._lines: tuple | None = _NO_LINES

    @built_on_first_read
    def _sets(self) -> list[dict[int, Hashable]]:
        """One dict per set, block -> state in LRU order (LRU first)."""
        set_counts, blocks, codes, state_of = self._lines
        self._lines = None
        sets: list[dict[int, Hashable]] = [{} for _ in range(self._n_sets)]
        if blocks.size:
            states = (
                repeat(state_of[0]) if codes is None
                else map(state_of.__getitem__, codes.tolist())
            )
            pairs = zip(blocks.tolist(), states)
            for si, count in enumerate(set_counts.tolist()):
                if count:
                    sets[si] = dict(islice(pairs, count))
        return sets

    def load_lines(
        self,
        set_counts: np.ndarray,
        blocks: np.ndarray,
        codes: np.ndarray | None = None,
        state_of: Sequence[Hashable] = (CLEAN,),
    ) -> None:
        """Replace the contents with exported lines, built on first read.

        Set ``s`` holds the next ``set_counts[s]`` entries of
        ``blocks``, LRU first; line ``i``'s state is
        ``state_of[codes[i]]`` (``state_of[0]`` for every line when
        ``codes`` is None).
        """
        if self._lines is None:
            del self._sets
        self._lines = (set_counts, blocks, codes, state_of)

    # -- access-mode interface (uniprocessor / L1 filtering) ------------

    def access(self, block: int, write: bool) -> bool:
        """Simulate one access; returns True on hit.

        Misses insert the block (allocate-on-miss for both reads and
        writes, matching the UltraSPARC II's write-allocate caches) and
        evict the LRU way when the set is full, counting a writeback if
        the victim was dirty.
        """
        line_set = self._sets[block & self._set_mask]
        self.stats.accesses += 1
        state = line_set.get(block)
        if state is not None:
            # Hit: refresh LRU position; a write dirties the line.
            del line_set[block]
            line_set[block] = DIRTY if write else state
            return True
        self.stats.misses += 1
        if len(line_set) >= self._assoc:
            victim, vstate = next(iter(line_set.items()))
            del line_set[victim]
            self.stats.evictions += 1
            if vstate == DIRTY:
                self.stats.writebacks += 1
        line_set[block] = DIRTY if write else CLEAN
        return False

    # -- primitive interface (composed by the coherence bus) ------------

    def probe(self, block: int) -> Hashable | None:
        """Return the line's state without touching LRU, or None."""
        return self._sets[block & self._set_mask].get(block)

    def touch(self, block: int) -> None:
        """Refresh the LRU position of a resident line."""
        line_set = self._sets[block & self._set_mask]
        state = line_set.pop(block)
        line_set[block] = state

    def set_state(self, block: int, state: Hashable) -> None:
        """Change a resident line's state and refresh its LRU position."""
        line_set = self._sets[block & self._set_mask]
        if block not in line_set:
            raise KeyError(f"block {block:#x} not resident")
        del line_set[block]
        line_set[block] = state

    def insert(self, block: int, state: Hashable) -> tuple[int, Hashable] | None:
        """Insert a line, returning the evicted ``(block, state)`` if any."""
        line_set = self._sets[block & self._set_mask]
        victim = None
        if block in line_set:
            del line_set[block]
        elif len(line_set) >= self._assoc:
            vblock, vstate = next(iter(line_set.items()))
            del line_set[vblock]
            victim = (vblock, vstate)
        line_set[block] = state
        return victim

    def remove(self, block: int) -> Hashable | None:
        """Remove a line (invalidation); returns its state or None."""
        return self._sets[block & self._set_mask].pop(block, None)

    # -- introspection ---------------------------------------------------

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over all resident block addresses (test helper)."""
        for line_set in self._sets:
            yield from line_set

    def occupancy(self) -> int:
        """Number of resident lines (builds no sets)."""
        if self._lines is not None:
            return int(self._lines[1].size)
        return sum(map(len, self._sets))

    def contains(self, block: int) -> bool:
        return block in self._sets[block & self._set_mask]

    def set_of(self, block: int) -> int:
        """Index of the set this block maps to (test helper)."""
        return block & self._set_mask

    def flush(self) -> None:
        """Drop all contents (stats are retained)."""
        if self._lines is not None:
            self._lines = _NO_LINES
            return
        for line_set in self._sets:
            line_set.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()
