"""Partition of chunk indices into autoregressive blocks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

FIRST_BLOCK = 6  # chunks in a default plan's first block
NEXT_BLOCK = 8  # chunks in each later block


@dataclass(frozen=True)
class BlockPlan:
    """Block sizes along the chunk axis (default: FIRST_BLOCK, then NEXT_BLOCKs)."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) == 0:
            raise ValueError("block plan must contain at least one block")
        if any(s < 1 for s in self.sizes):
            raise ValueError(f"all blocks must be non-empty, got {self.sizes}")

    @classmethod
    def default(cls, n_blocks: int) -> "BlockPlan":
        if n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        return cls((FIRST_BLOCK,) + (NEXT_BLOCK,) * (n_blocks - 1))

    @classmethod
    def uniform(cls, n_blocks: int, block_size: int) -> "BlockPlan":
        return cls((block_size,) * n_blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.sizes)

    @property
    def total_chunks(self) -> int:
        return sum(self.sizes)

    @cached_property
    def starts(self) -> tuple[int, ...]:
        """First chunk of every block; computed once, since chunk_range reads it per block."""
        out, acc = [], 0
        for s in self.sizes:
            out.append(acc)
            acc += s
        return tuple(out)

    def block_of(self) -> np.ndarray:
        """Block index of every chunk, shape (total_chunks,)."""
        return np.repeat(np.arange(self.n_blocks), self.sizes)

    def chunk_range(self, block: int) -> tuple[int, int]:
        start = self.starts[block]
        return start, start + self.sizes[block]
