"""Unit tests for the 2D mesh interconnect model."""

import pytest

from repro.errors import ConfigError
from repro.interconnect.mesh import Mesh2D


class TestGeometry:
    def test_square_mesh(self):
        mesh = Mesh2D(64)
        assert (mesh.width, mesh.height) == (8, 8)

    def test_rectangular_mesh(self):
        mesh = Mesh2D(128)
        assert (mesh.width, mesh.height) == (16, 8)

    def test_small_meshes(self):
        assert (Mesh2D(2).width, Mesh2D(2).height) == (2, 1)
        assert (Mesh2D(4).width, Mesh2D(4).height) == (2, 2)

    def test_coordinates_cover_all_tiles(self):
        mesh = Mesh2D(32)
        coords = {mesh.coordinates(tile) for tile in range(32)}
        assert len(coords) == 32

    def test_invalid_tiles_rejected(self):
        with pytest.raises(ConfigError):
            Mesh2D(0)

    def test_invalid_hop_cycles_rejected(self):
        with pytest.raises(ConfigError):
            Mesh2D(16, hop_cycles=0)

    def test_meshes_beyond_the_table_limit_rejected(self):
        with pytest.raises(ConfigError):
            Mesh2D(4096)


class TestTables:
    def test_tables_hold_the_xy_routing_distances(self):
        # The home controllers index these tables directly, so every
        # entry must be the Manhattan distance of the two tiles.
        for num_tiles in range(2, 129):
            mesh = Mesh2D(num_tiles, hop_cycles=3)
            assert len(mesh.distance_table) == num_tiles * num_tiles
            for src in range(num_tiles):
                sx, sy = mesh.coordinates(src)
                row = src * num_tiles
                for dst in range(num_tiles):
                    dx, dy = mesh.coordinates(dst)
                    hops = abs(sx - dx) + abs(sy - dy)
                    assert mesh.distance_table[row + dst] == hops
                    assert mesh.distance(src, dst) == hops
                    assert mesh.latency_table[row + dst] == 3 * hops
                    assert mesh.latency(src, dst) == 3 * hops
                nearest = min(mesh.latency(src, mc) for mc in mesh._mc_tiles)
                assert mesh.memory_latency_table[src] == nearest
                assert mesh.memory_latency(src) == nearest


class TestDistance:
    def test_self_distance_zero(self):
        mesh = Mesh2D(16)
        for tile in range(16):
            assert mesh.distance(tile, tile) == 0

    def test_symmetry(self):
        mesh = Mesh2D(32)
        for src in range(0, 32, 5):
            for dst in range(0, 32, 7):
                assert mesh.distance(src, dst) == mesh.distance(dst, src)

    def test_triangle_inequality(self):
        mesh = Mesh2D(16)
        for a in range(16):
            for b in range(16):
                for c in range(0, 16, 3):
                    assert mesh.distance(a, c) <= mesh.distance(a, b) + mesh.distance(b, c)

    def test_adjacent_tiles(self):
        mesh = Mesh2D(16)  # 4x4
        assert mesh.distance(0, 1) == 1
        assert mesh.distance(0, 4) == 1
        assert mesh.distance(0, 15) == 6  # corner to corner: 3 + 3

    def test_latency_scales_with_hop_cycles(self):
        fast = Mesh2D(16, hop_cycles=1)
        slow = Mesh2D(16, hop_cycles=6)
        assert slow.latency(0, 15) == 6 * fast.latency(0, 15)


class TestMemoryControllers:
    def test_memory_latency_nonnegative(self):
        mesh = Mesh2D(64, num_memory_controllers=8)
        for tile in range(64):
            assert mesh.memory_latency(tile) >= 0

    def test_more_controllers_never_hurt(self):
        few = Mesh2D(64, num_memory_controllers=2)
        many = Mesh2D(64, num_memory_controllers=8)
        total_few = sum(few.memory_latency(t) for t in range(64))
        total_many = sum(many.memory_latency(t) for t in range(64))
        assert total_many <= total_few

    def test_average_distance_positive(self):
        assert Mesh2D(16).average_distance > 0
