"""Miss classification.

The paper distinguishes misses satisfied from memory from misses
satisfied by another processor's cache (sharing/coherence misses), and
discusses cold vs. capacity effects when comparing shared and private
L2 caches (Section 5.3).  We classify every L2 miss into the classic
three-way taxonomy:

- ``COLD`` — the block was never resident in this cache before;
- ``COHERENCE`` — the block was resident but was invalidated by
  another processor's write (the miss would not have occurred on a
  uniprocessor);
- ``REPLACEMENT`` — capacity/conflict: the block was evicted by this
  cache's own replacement decisions.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.memsys.lazy import built_on_first_read


class MissKind(Enum):
    """Why an access missed."""

    COLD = "cold"
    COHERENCE = "coherence"
    REPLACEMENT = "replacement"


class MissClassifier:
    """Tracks per-cache history needed to classify misses.

    One classifier serves one cache.  ``ever_held`` grows with the
    footprint of the measurement interval (bounded by the number of
    distinct blocks referenced, not by the simulated machine's RAM).
    """

    def __init__(self) -> None:
        self._ever_held: set[int] = set()
        self._invalidated: set[int] = set()
        self._history: tuple | None = None  # set while unbuilt

    def load_history(
        self, blocks: np.ndarray, ever: np.ndarray, invalidated: np.ndarray,
        bit: int,
    ) -> None:
        """Replace the history, built on first read: ``blocks[i]`` was
        ever held (was invalidated) iff bit ``bit`` of ``ever[i]``
        (``invalidated[i]``) is set."""
        if self._history is None:
            del self._ever_held, self._invalidated
        self._history = (blocks, ever, invalidated, bit)

    def _build_history(self) -> None:
        blocks, ever, invalidated, bit = self._history
        self._history = None
        shift, one = np.uint64(bit), np.uint64(1)
        self._ever_held = set(blocks[(ever >> shift) & one != 0].tolist())
        self._invalidated = set(blocks[(invalidated >> shift) & one != 0].tolist())

    @built_on_first_read
    def _ever_held(self) -> set[int]:
        """Blocks this cache ever held (both sets build together)."""
        self._build_history()
        return self._ever_held

    @built_on_first_read
    def _invalidated(self) -> set[int]:
        """Blocks a remote write invalidated here since last held."""
        self._build_history()
        return self._invalidated

    def note_insert(self, block: int) -> None:
        """Record that the cache now holds ``block``."""
        self._ever_held.add(block)
        self._invalidated.discard(block)

    def note_coherence_invalidation(self, block: int) -> None:
        """Record that a remote write invalidated ``block`` here."""
        self._invalidated.add(block)

    def note_eviction(self, block: int) -> None:
        """Record a local replacement decision for ``block``."""
        self._invalidated.discard(block)

    def classify(self, block: int) -> MissKind:
        """Classify a miss on ``block`` (call before note_insert)."""
        if block not in self._ever_held:
            return MissKind.COLD
        if block in self._invalidated:
            return MissKind.COHERENCE
        return MissKind.REPLACEMENT
