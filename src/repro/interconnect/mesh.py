"""2D mesh topology and latency model.

The paper's system (Table I) places one core, its private caches, one LLC
bank, and one sparse-directory slice at each mesh tile. The routing
pipeline is four stages at 2 GHz plus one 1 ns link traversal, for an
overall hop latency of 3 ns (6 core cycles at 2 GHz). We model XY routing,
so the latency between two tiles is ``manhattan_distance * hop_cycles``.

Memory controllers are distributed evenly over the mesh edge; an LLC miss
pays the additional tile-to-controller distance.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError


#: Largest mesh this model builds (its two pairwise tables hold
#: ``num_tiles**2`` entries each; 2048 tiles -> 4M-entry tables). The
#: paper's largest machine is 128 tiles.
_TABLE_TILE_LIMIT = 2048


class Mesh2D:
    """A ``width x height`` mesh of tiles with XY-routing distances.

    Distances and latencies between all tile pairs are precomputed into
    flat tables at construction: the home controllers index them on the
    critical path of every LLC transaction. The tables are public and
    read-only; entry ``src * num_tiles + dst`` of :attr:`latency_table`
    is ``latency(src, dst)``.

    Args:
        num_tiles: total number of tiles; must form a rectangle no more
            than twice as wide as tall (a square when ``num_tiles`` is a
            perfect square), and at most 2048 tiles.
        hop_cycles: core cycles per hop (router pipeline + link).
        num_memory_controllers: controllers placed round-robin along the
            top and bottom rows, matching the paper's "evenly distributed
            over the mesh" arrangement.
    """

    __slots__ = (
        "num_tiles",
        "width",
        "height",
        "hop_cycles",
        "num_memory_controllers",
        "_mc_tiles",
        "distance_table",
        "latency_table",
        "memory_latency_table",
    )

    def __init__(
        self,
        num_tiles: int,
        hop_cycles: int = 6,
        num_memory_controllers: int = 8,
    ) -> None:
        if num_tiles <= 0:
            raise ConfigError(f"num_tiles must be positive, got {num_tiles}")
        if num_tiles > _TABLE_TILE_LIMIT:
            raise ConfigError(
                f"num_tiles must be at most {_TABLE_TILE_LIMIT}, got {num_tiles}"
            )
        if hop_cycles <= 0:
            raise ConfigError(f"hop_cycles must be positive, got {hop_cycles}")
        # Choose the most square factorization (width >= height), e.g.
        # 128 tiles -> 16x8, 64 -> 8x8, 32 -> 8x4.
        height = max(
            h for h in range(1, int(math.isqrt(num_tiles)) + 1)
            if num_tiles % h == 0
        )
        self.num_tiles = num_tiles
        self.width = num_tiles // height
        self.height = height
        self.hop_cycles = hop_cycles
        controllers = max(1, min(num_memory_controllers, num_tiles))
        self.num_memory_controllers = controllers
        self._mc_tiles = self._place_controllers(controllers)
        #: Read-only: one-way latency from each tile to its nearest
        #: memory controller, indexed by tile.
        self.memory_latency_table = [
            min(self._computed_distance(tile, mc) for mc in self._mc_tiles)
            * hop_cycles
            for tile in range(num_tiles)
        ]
        #: Read-only: hop count of every tile pair, indexed
        #: ``[src * num_tiles + dst]``.
        self.distance_table = [
            self._computed_distance(src, dst)
            for src in range(num_tiles)
            for dst in range(num_tiles)
        ]
        #: Read-only: one-way latency of every tile pair in core cycles,
        #: indexed like :attr:`distance_table`.
        self.latency_table = [d * hop_cycles for d in self.distance_table]

    def _place_controllers(self, count: int) -> list:
        """Spread controllers across the top and bottom mesh rows."""
        tiles = []
        for index in range(count):
            row = 0 if index % 2 == 0 else self.height - 1
            col = (index // 2 * max(1, self.width // max(1, (count + 1) // 2))) % self.width
            tiles.append(row * self.width + col)
        return tiles

    def coordinates(self, tile: int) -> "tuple[int, int]":
        """Return the (x, y) coordinates of ``tile``."""
        return tile % self.width, tile // self.width

    def _computed_distance(self, src: int, dst: int) -> int:
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        return abs(sx - dx) + abs(sy - dy)

    def distance(self, src: int, dst: int) -> int:
        """Manhattan (XY-routing) hop count between two tiles."""
        return self.distance_table[src * self.num_tiles + dst]

    def latency(self, src: int, dst: int) -> int:
        """One-way message latency in core cycles between two tiles."""
        return self.latency_table[src * self.num_tiles + dst]

    def memory_latency(self, tile: int) -> int:
        """One-way latency from ``tile`` to its nearest memory controller."""
        return self.memory_latency_table[tile]

    @property
    def average_distance(self) -> float:
        """Mean hop count over all ordered tile pairs (used by tests)."""
        total = 0
        for src in range(self.num_tiles):
            for dst in range(self.num_tiles):
                total += self.distance(src, dst)
        return total / (self.num_tiles * self.num_tiles)
