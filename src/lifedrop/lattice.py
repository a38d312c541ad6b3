"""Game-of-Life grid used as an evolving dropout mask.

The grid has one row per hidden layer and one column per unit.
A cell value of 1 means alive, and an alive cell drops the matching
neuron. Cells outside the grid count as dead (no wrap-around), and all
public operations return new lattices, so values can be shared freely
across threads and kept around as per-epoch snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Lattice:
    """Immutable binary grid plus a generation counter."""

    cells: np.ndarray
    epoch: int = 0

    def __post_init__(self):
        raw = np.asarray(self.cells)
        if raw.ndim != 2 or raw.shape[0] < 1 or raw.shape[1] < 1:
            raise ValueError(f"lattice must be a non-empty 2-D grid, got shape {raw.shape}")
        if not np.isin(raw, (0, 1)).all():
            raise ValueError("lattice cells must be exactly 0 or 1")
        if self.epoch < 0:
            raise ValueError("epoch must be non-negative")
        cells = raw.astype(np.uint8)  # astype copies, so the caller's array stays writable
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def rows(self) -> int:
        return self.cells.shape[0]

    @property
    def cols(self) -> int:
        return self.cells.shape[1]

    @property
    def size(self) -> int:
        return self.rows * self.cols

    @property
    def live_count(self) -> int:
        return int(self.cells.sum())

    def __eq__(self, other):
        # The generation counter is bookkeeping; equality means same configuration.
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.cells.shape == other.cells.shape and np.array_equal(self.cells, other.cells)

    __hash__ = None


def step(lattice: Lattice) -> Lattice:
    """Advance one generation.

    Live cells with two or three live neighbors survive, dead cells with
    exactly three are born, every other cell is dead. All cells update
    simultaneously from the current state; the input is not mutated.
    """
    cells = lattice.cells
    padded = np.pad(cells, 1).astype(np.int_)
    neighbors = (
        padded[:-2, :-2] + padded[:-2, 1:-1] + padded[:-2, 2:]
        + padded[1:-1, :-2] + padded[1:-1, 2:]
        + padded[2:, :-2] + padded[2:, 1:-1] + padded[2:, 2:]
    )
    alive = cells == 1
    survives = alive & ((neighbors == 2) | (neighbors == 3))
    born = ~alive & (neighbors == 3)
    return Lattice((survives | born).astype(np.uint8), epoch=lattice.epoch + 1)


def init_random(rows: int, cols: int, live_density: float, seed: int) -> Lattice:
    """Fresh lattice with each cell alive independently at `live_density`."""
    if rows < 1 or cols < 1:
        raise ValueError(f"lattice dimensions must be positive, got {rows}x{cols}")
    if not 0.0 <= live_density <= 1.0:
        raise ValueError(f"live_density must lie in [0, 1], got {live_density}")
    rng = np.random.default_rng(seed)
    cells = (rng.random((rows, cols)) < live_density).astype(np.uint8)
    return Lattice(cells, epoch=0)


def reactivate(lattice: Lattice, count: int, seed: int) -> Lattice:
    """Set `count` uniformly chosen dead cells alive.

    If fewer than `count` dead cells exist, all of them are revived. This
    is not a generation: the epoch counter is unchanged. Selection is a
    seeded shuffle of the dead-cell indices, so it is deterministic.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return lattice
    dead = np.flatnonzero(lattice.cells == 0)
    if dead.size == 0:
        return lattice
    rng = np.random.default_rng(seed)
    chosen = dead[rng.permutation(dead.size)[: min(count, dead.size)]]
    cells = lattice.cells.copy()
    cells.flat[chosen] = 1
    return Lattice(cells, epoch=lattice.epoch)


def live_fraction(lattice: Lattice) -> float:
    """Live cells divided by total cells."""
    return lattice.live_count / lattice.size


def write_pbm(lattice: Lattice, path) -> None:
    """Plain-text bitmap snapshot: `P1`, `<cols> <rows>`, then 0/1 rows (1 = live)."""
    lines = ["P1", f"{lattice.cols} {lattice.rows}"]
    lines.extend(" ".join(str(int(v)) for v in row) for row in lattice.cells)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
