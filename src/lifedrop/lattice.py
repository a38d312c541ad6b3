"""Game-of-Life grid used as an evolving dropout mask.

A board is a 2-D uint8 array of 0s and 1s with one row per hidden layer
and one column per unit. A cell value of 1 means alive, and an alive
cell drops the matching neuron. Cells outside the grid count as dead
(no wrap-around). Every function returns a new array and leaves its
input unchanged, so a board can be kept around as a per-epoch snapshot.
Arguments are trusted: RunConfig checks the board's shape,
RegularizerConfig its density, and on_epoch_end_dynamic never asks for
a negative revival count.
"""

from __future__ import annotations

import numpy as np


def step(cells: np.ndarray) -> np.ndarray:
    """Advance one generation.

    Live cells with two or three live neighbors survive, dead cells with
    exactly three are born, every other cell is dead. All cells update
    simultaneously from the current state; the input is not mutated.
    """
    padded = np.pad(cells, 1).astype(np.int_)
    neighbors = (
        padded[:-2, :-2] + padded[:-2, 1:-1] + padded[:-2, 2:]
        + padded[1:-1, :-2] + padded[1:-1, 2:]
        + padded[2:, :-2] + padded[2:, 1:-1] + padded[2:, 2:]
    )
    alive = cells == 1
    survives = alive & ((neighbors == 2) | (neighbors == 3))
    born = ~alive & (neighbors == 3)
    return (survives | born).astype(np.uint8)


def init_random(rows: int, cols: int, live_density: float, seed: int) -> np.ndarray:
    """Fresh board with each cell alive independently at `live_density`."""
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < live_density).astype(np.uint8)


def reactivate(cells: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Set `count` uniformly chosen dead cells alive.

    If fewer than `count` dead cells exist, all of them are revived. This
    is not a generation. Selection is a seeded shuffle of the dead-cell
    indices, so it is deterministic.
    """
    out = cells.copy()
    dead = np.flatnonzero(cells == 0)
    if count and dead.size:
        rng = np.random.default_rng(seed)
        out.flat[dead[rng.permutation(dead.size)[:count]]] = 1
    return out


def write_pbm(cells: np.ndarray, path) -> None:
    """Plain-text bitmap snapshot: `P1`, `<cols> <rows>`, then 0/1 rows (1 = live)."""
    lines = ["P1", f"{cells.shape[1]} {cells.shape[0]}"]
    lines.extend(" ".join(str(int(v)) for v in row) for row in cells)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
