"""Centralized seeding: one `SeedSequence`-based tree for every analysis.

A spec's ``seed_offset`` names stream ``root + offset`` of the
:class:`SeedTree`; statistical runs draw shard *i* of that stream from
``SeedSequence(root + offset, spawn_key=(i,))`` (the runtime's
shard/seed contract), and sweep point *j* nests one level deeper
(:class:`SeedScope`).  :meth:`SeedTree.rng` hands out the plain
``default_rng(root + offset)`` generator for ad-hoc draws, and
:meth:`SeedTree.spawn` statistically independent child sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["EXPERIMENT_SEED", "SeedScope", "SeedTree", "derived_rng"]

#: Seed base for experiment Monte-Carlo runs (distinct from the
#: characterization seed so "measurement" and "validation" draws differ).
EXPERIMENT_SEED = 424242


def derived_rng(root: int, offset: int = 0) -> np.random.Generator:
    """Fresh generator for stream *offset* of the tree rooted at *root*.

    Equal to the ``np.random.default_rng(root + offset)`` stream.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(root + offset)))


@dataclass(frozen=True)
class SeedScope:
    """One sweep point's stream scope under the nested sweep/seed contract.

    A :class:`~repro.api.specs.Sweep` runs point *j* of a spec whose
    base seed is *base_seed* (session root + spec ``seed_offset``) on
    the streams::

        single stream SeedSequence(base_seed, spawn_key=(j,))
        shard i       SeedSequence(base_seed, spawn_key=(j, i))

    The scope replaces the spec's own integer ``seed_offset`` resolution
    entirely — the offset is already folded into ``base_seed`` — so the
    stream is a pure function of ``(base_seed, spawn_key)`` and never of
    worker count, shard completion order, or sweep scheduling.
    """

    base_seed: int
    spawn_key: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "base_seed", int(self.base_seed))
        object.__setattr__(
            self, "spawn_key", tuple(int(k) for k in self.spawn_key)
        )

    def sequence(self) -> np.random.SeedSequence:
        """The scope's `SeedSequence` (for single-stream side draws)."""
        return np.random.SeedSequence(self.base_seed, spawn_key=self.spawn_key)

    def rng(self) -> np.random.Generator:
        """Fresh generator for the scope's single-stream draw."""
        return np.random.Generator(np.random.PCG64(self.sequence()))


class SeedTree:
    """Deterministic family of random streams derived from one root seed.

    Every call returns a *fresh* generator, so two calls with the same
    offset replay the same stream — the property the experiments rely on
    when they rebuild a factory to re-draw identical devices (e.g. the
    Fig. 6 delay-then-leakage measurement).
    """

    def __init__(self, root: int = EXPERIMENT_SEED):
        self.root = int(root)
        self._root_seq: Optional[np.random.SeedSequence] = None

    def seed(self, offset: int = 0) -> int:
        """The integer seed of stream *offset* (``root + offset``)."""
        return self.root + int(offset)

    def sequence(self, offset: int = 0) -> np.random.SeedSequence:
        """The `SeedSequence` of stream *offset*."""
        return np.random.SeedSequence(self.seed(offset))

    def rng(self, offset: int = 0) -> np.random.Generator:
        """Fresh generator for stream *offset* (``default_rng(root + offset)``)."""
        return derived_rng(self.root, offset)

    def spawn(self, n: int = 1) -> List[np.random.SeedSequence]:
        """*n* independent child sequences (for offset-free new code).

        Delegates to one tracked root `SeedSequence`'s own spawn
        protocol, so numpy's ``n_children_spawned`` bookkeeping
        guarantees repeated calls never hand out the same child twice.
        """
        if self._root_seq is None:
            self._root_seq = np.random.SeedSequence(self.root)
        return self._root_seq.spawn(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"SeedTree(root={self.root})"
