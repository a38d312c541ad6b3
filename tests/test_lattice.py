"""Grid-evolution tests, checked against a brute-force per-cell oracle."""

import numpy as np
import pytest

from lifedrop.lattice import init_random, reactivate, step, write_pbm


def grid(rows, cols, live=()):
    cells = np.zeros((rows, cols), dtype=np.uint8)
    for i, j in live:
        cells[i, j] = 1
    return cells


def brute_force_step(cells):
    """Independent per-cell rule application: survive on 2 or 3, born on 3."""
    rows, cols = cells.shape
    out = np.zeros_like(cells)
    for i in range(rows):
        for j in range(cols):
            n = 0
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    ni, nj = i + di, j + dj
                    if 0 <= ni < rows and 0 <= nj < cols:
                        n += int(cells[ni, nj])
            if cells[i, j] == 1:
                out[i, j] = 1 if n in (2, 3) else 0
            else:
                out[i, j] = 1 if n == 3 else 0
    return out


BLOCK = ((1, 1), (1, 2), (2, 1), (2, 2))


class TestStep:
    def test_empty_stays_empty(self):
        out = step(grid(4, 6))
        assert out.dtype == np.uint8 and out.shape == (4, 6)
        assert out.sum() == 0

    def test_block_is_a_still_life(self):
        lat = grid(4, 4, BLOCK)
        assert np.array_equal(step(lat), lat)

    def test_blinker_oscillates(self):
        horizontal = grid(5, 5, [(2, 1), (2, 2), (2, 3)])
        vertical = grid(5, 5, [(1, 2), (2, 2), (3, 2)])
        assert np.array_equal(step(horizontal), vertical)
        assert np.array_equal(step(step(horizontal)), horizontal)

    def test_glider_translates_diagonally(self):
        glider = [(0, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
        start = grid(16, 16, [(4 + i, 4 + j) for i, j in glider])
        lat = start
        for _ in range(4):
            lat = step(lat)
        assert np.array_equal(lat, grid(16, 16, [(5 + i, 5 + j) for i, j in glider]))

    def test_input_not_mutated(self):
        lat = grid(5, 5, [(2, 1), (2, 2), (2, 3)])
        before = lat.copy()
        step(lat)
        assert np.array_equal(lat, before)

    def test_is_deterministic(self):
        lat = init_random(8, 8, 0.4, seed=11)
        assert np.array_equal(step(lat), step(lat.copy()))

    def test_matches_brute_force_on_random_lattices(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            rows = int(rng.integers(1, 17))
            cols = int(rng.integers(1, 17))
            cells = (rng.random((rows, cols)) < rng.random()).astype(np.uint8)
            assert np.array_equal(step(cells), brute_force_step(cells))

    def test_dead_boundary_matches_larger_embedding(self):
        # A pattern away from every edge cannot tell how big the grid is
        # until its light cone reaches a boundary.
        rng = np.random.default_rng(5)
        for _ in range(20):
            soup = (rng.random((3, 3)) < 0.6).astype(np.uint8)
            small = np.zeros((9, 9), dtype=np.uint8)
            small[3:6, 3:6] = soup
            big = np.zeros((15, 15), dtype=np.uint8)
            big[6:9, 6:9] = soup
            a, b = small, big
            for _ in range(2):
                a, b = step(a), step(b)
            assert np.array_equal(a, b[3:12, 3:12])


class TestInitRandom:
    def test_zero_density_is_all_dead(self):
        board = init_random(3, 4, 0.0, seed=1)
        assert board.dtype == np.uint8 and board.shape == (3, 4)
        assert board.sum() == 0

    def test_unit_density_is_all_alive(self):
        assert init_random(3, 4, 1.0, seed=1).sum() == 12

    def test_half_density_live_fraction_is_plausible(self):
        lat = init_random(10, 128, 0.5, seed=7)
        assert 0.35 <= lat.mean() <= 0.65

    def test_same_seed_same_lattice(self):
        assert np.array_equal(init_random(6, 9, 0.3, seed=42), init_random(6, 9, 0.3, seed=42))


class TestReactivate:
    def test_zero_count_is_identity(self):
        lat = init_random(5, 5, 0.4, seed=3)
        assert np.array_equal(reactivate(lat, 0, seed=9), lat)

    def test_revives_exact_count_on_dead_grid(self):
        assert reactivate(grid(4, 4), 5, seed=1).sum() == 5

    def test_saturated_grid_unchanged(self):
        lat = np.ones((3, 3), dtype=np.uint8)
        assert np.array_equal(reactivate(lat, 3, seed=1), lat)

    def test_count_capped_at_dead_cells(self):
        lat = grid(2, 2, [(0, 0)])  # 3 dead cells
        assert reactivate(lat, 100, seed=1).sum() == 4

    def test_never_kills_existing_live_cells(self):
        lat = init_random(6, 6, 0.5, seed=8)
        out = reactivate(lat, 4, seed=2)
        assert np.all(out >= lat)
        assert out.sum() == lat.sum() + min(4, lat.size - lat.sum())

    @pytest.mark.parametrize("count", [0, 3, 100])
    def test_input_not_mutated(self, count):
        lat = init_random(6, 6, 0.5, seed=8)
        before = lat.copy()
        out = reactivate(lat, count, seed=2)
        assert np.array_equal(lat, before)
        assert out is not lat

    def test_seeded_selection_is_deterministic(self):
        lat = init_random(8, 8, 0.3, seed=5)
        assert np.array_equal(reactivate(lat, 6, seed=77), reactivate(lat, 6, seed=77))


def test_live_fraction_values():
    # run records float(board.mean()); it must equal live cells / total cells bitwise
    assert float(grid(4, 4).mean()) == 0.0
    assert float(np.ones((4, 4), dtype=np.uint8).mean()) == 1.0
    assert float(grid(4, 4, BLOCK).mean()) == 0.25
    rng = np.random.default_rng(31)
    for _ in range(500):
        rows, cols, seed = int(rng.integers(1, 12)), int(rng.integers(1, 600)), int(rng.integers(1 << 30))
        board = init_random(rows, cols, rng.random(), seed=seed)
        assert float(board.mean()) == int(board.sum()) / board.size


def test_write_pbm_format(tmp_path):
    path = tmp_path / "snap.pbm"
    write_pbm(grid(2, 3, [(0, 1), (1, 2)]), path)
    assert path.read_bytes() == b"P1\n3 2\n0 1 0\n0 0 1\n"
