"""Grid-evolution tests, checked against a brute-force per-cell oracle."""

import numpy as np
import pytest

from lifedrop.lattice import Lattice, init_random, live_fraction, reactivate, step, write_pbm


def grid(rows, cols, live=()):
    cells = np.zeros((rows, cols), dtype=np.uint8)
    for i, j in live:
        cells[i, j] = 1
    return Lattice(cells)


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


class TestLatticeValue:
    def test_rejects_non_binary_cells(self):
        with pytest.raises(ValueError):
            Lattice(np.array([[0, 2], [1, 0]]))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Lattice(np.zeros(4, dtype=np.uint8))

    def test_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            Lattice(np.zeros((2, 2), dtype=np.uint8), epoch=-1)

    def test_cells_are_read_only(self):
        lat = grid(2, 2, [(0, 0)])
        with pytest.raises(ValueError):
            lat.cells[0, 0] = 0

    def test_caller_array_stays_writable(self):
        cells = np.zeros((2, 2), dtype=np.uint8)
        Lattice(cells)
        cells[0, 0] = 1  # must not raise

    def test_equality_ignores_epoch(self):
        a = grid(2, 3, [(0, 1)])
        b = Lattice(a.cells, epoch=9)
        assert a == b
        assert a != grid(2, 3, [(1, 1)])
        assert a != grid(3, 2, [(0, 1)])


class TestStep:
    def test_empty_stays_empty(self):
        lat = grid(4, 6)
        out = step(lat)
        assert out.live_count == 0
        assert out.epoch == 1

    def test_block_is_a_still_life(self):
        lat = grid(4, 4, BLOCK)
        out = step(lat)
        assert out == lat
        assert out.epoch == lat.epoch + 1

    def test_blinker_oscillates(self):
        horizontal = grid(5, 5, [(2, 1), (2, 2), (2, 3)])
        vertical = grid(5, 5, [(1, 2), (2, 2), (3, 2)])
        assert step(horizontal) == vertical
        assert step(step(horizontal)) == horizontal

    def test_glider_translates_diagonally(self):
        glider = [(0, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
        start = grid(16, 16, [(4 + i, 4 + j) for i, j in glider])
        lat = start
        for _ in range(4):
            lat = step(lat)
        assert lat == grid(16, 16, [(5 + i, 5 + j) for i, j in glider])

    def test_input_not_mutated(self):
        lat = grid(5, 5, [(2, 1), (2, 2), (2, 3)])
        before = lat.cells.copy()
        step(lat)
        assert np.array_equal(lat.cells, before)
        assert lat.epoch == 0

    def test_is_deterministic(self):
        lat = init_random(8, 8, 0.4, seed=11)
        assert step(lat) == step(Lattice(lat.cells))

    def test_matches_brute_force_on_random_lattices(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            rows = int(rng.integers(1, 17))
            cols = int(rng.integers(1, 17))
            cells = (rng.random((rows, cols)) < rng.random()).astype(np.uint8)
            got = step(Lattice(cells))
            assert np.array_equal(got.cells, brute_force_step(cells))

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
            a, b = Lattice(small), Lattice(big)
            for _ in range(2):
                a, b = step(a), step(b)
            assert np.array_equal(a.cells, b.cells[3:12, 3:12])


class TestInitRandom:
    def test_zero_density_is_all_dead(self):
        assert init_random(3, 4, 0.0, seed=1).live_count == 0

    def test_unit_density_is_all_alive(self):
        lat = init_random(3, 4, 1.0, seed=1)
        assert lat.live_count == 12

    def test_half_density_live_fraction_is_plausible(self):
        lat = init_random(10, 128, 0.5, seed=7)
        assert 0.35 <= live_fraction(lat) <= 0.65

    def test_same_seed_same_lattice(self):
        assert init_random(6, 9, 0.3, seed=42) == init_random(6, 9, 0.3, seed=42)

    def test_starts_at_epoch_zero(self):
        assert init_random(2, 2, 0.5, seed=0).epoch == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            init_random(0, 4, 0.5, seed=1)
        with pytest.raises(ValueError):
            init_random(3, 4, 1.5, seed=1)


class TestReactivate:
    def test_zero_count_is_identity(self):
        lat = init_random(5, 5, 0.4, seed=3)
        out = reactivate(lat, 0, seed=9)
        assert out == lat
        assert out.epoch == lat.epoch

    def test_revives_exact_count_on_dead_grid(self):
        out = reactivate(grid(4, 4), 5, seed=1)
        assert out.live_count == 5

    def test_saturated_grid_unchanged(self):
        lat = Lattice(np.ones((3, 3), dtype=np.uint8))
        assert reactivate(lat, 3, seed=1) == lat

    def test_count_capped_at_dead_cells(self):
        lat = grid(2, 2, [(0, 0)])  # 3 dead cells
        assert reactivate(lat, 100, seed=1).live_count == 4

    def test_never_kills_existing_live_cells(self):
        lat = init_random(6, 6, 0.5, seed=8)
        out = reactivate(lat, 4, seed=2)
        assert np.all(out.cells >= lat.cells)
        assert out.live_count == lat.live_count + min(4, lat.size - lat.live_count)

    def test_epoch_unchanged(self):
        lat = Lattice(np.zeros((3, 3), dtype=np.uint8), epoch=7)
        assert reactivate(lat, 2, seed=0).epoch == 7

    def test_seeded_selection_is_deterministic(self):
        lat = init_random(8, 8, 0.3, seed=5)
        assert reactivate(lat, 6, seed=77) == reactivate(lat, 6, seed=77)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            reactivate(grid(2, 2), -1, seed=0)


def test_live_fraction_values():
    assert live_fraction(grid(4, 4)) == 0.0
    assert live_fraction(Lattice(np.ones((4, 4), dtype=np.uint8))) == 1.0
    assert live_fraction(grid(4, 4, BLOCK)) == 0.25


def test_write_pbm_format(tmp_path):
    path = tmp_path / "snap.pbm"
    write_pbm(grid(2, 3, [(0, 1), (1, 2)]), path)
    assert path.read_bytes() == b"P1\n3 2\n0 1 0\n0 0 1\n"
