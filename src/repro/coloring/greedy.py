"""Speculative parallel greedy distance-1 coloring (Deveci et al. style).

Every round, each still-uncolored vertex picks the smallest color not used by any of
its already-colored neighbours (the speculation happens in parallel, so two adjacent
uncolored vertices can pick the same color); a conflict-resolution pass then uncolors
the higher-id endpoint of every conflicting edge. The rounds repeat until no vertex is
uncolored. Because ties are always broken by vertex id the result is deterministic and
identical across execution backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..parallel.backends import ExecutionBackend, resolve_backend
from ..parallel.costmodel import TrafficCounter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (partitioned imports us)
    from ..parallel.partitioned import PartitionStats

__all__ = ["greedy_color", "ColoringResult"]


@dataclass
class ColoringResult:
    """Output of a coloring algorithm."""

    #: Per-vertex color ids, 0-based, dense in ``[0, num_colors)``.
    colors: np.ndarray
    #: Number of distinct colors used.
    num_colors: int
    #: Number of speculative rounds executed.
    rounds: int
    #: Memory-traffic counter (for the cost model).
    traffic: TrafficCounter = field(default_factory=TrafficCounter)
    #: Distance of the coloring (1 or 2).
    distance: int = 1
    #: Name of the execution backend that ran the kernels.
    backend: str = "numpy"
    #: Number of intra-graph partitions the run was sharded into (1 = unpartitioned).
    partitions: int = 1
    #: Partitioning measurables when the partition-parallel driver ran.
    partition_stats: "Optional[PartitionStats]" = None

    def color_classes(self) -> List[np.ndarray]:
        """Vertices grouped by color, ordered by color id."""
        return [np.nonzero(self.colors == c)[0].astype(np.int64) for c in range(self.num_colors)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColoringResult(num_colors={self.num_colors}, rounds={self.rounds}, "
            f"distance={self.distance}, vertices={self.colors.size})"
        )


def _speculative_assign(
    graph: CSRGraph,
    colors: np.ndarray,
    worklist: np.ndarray,
    max_colors: int,
    B: ExecutionBackend,
) -> np.ndarray:
    """Smallest color not used by any colored neighbour, for each worklist vertex."""
    slots, seg = B.expand_rows(graph.rowmap, worklist)
    nbr_colors = colors[graph.entries[slots].astype(np.int64)]
    lens = np.diff(seg)
    owner = np.repeat(np.arange(worklist.size, dtype=np.int64), lens)
    forbidden = np.zeros((worklist.size, max_colors + 1), dtype=bool)
    valid = nbr_colors >= 0
    clipped = np.minimum(nbr_colors[valid], max_colors)
    forbidden[owner[valid], clipped] = True
    # First available color per row (there is always one because a vertex has at most
    # max_colors-1 <= degree neighbours).
    return np.argmin(forbidden, axis=1).astype(np.int64)


def greedy_color(
    graph: CSRGraph,
    max_rounds: Optional[int] = None,
    backend: "Optional[str | ExecutionBackend]" = None,
    partitions=None,
) -> ColoringResult:
    """Distance-1 greedy coloring of ``graph``.

    Parameters
    ----------
    graph:
        Undirected input graph.
    max_rounds:
        Safety cap on speculative rounds (defaults to ``num_vertices + 2``; the
        algorithm terminates far sooner in practice).
    backend:
        Execution backend (name or instance); ``None`` uses the default. All
        backends produce bit-identical colorings.
    partitions:
        When not ``None``, shard the run within the graph (part count, label
        array or layout); the partition-parallel driver is bit-identical to
        the unpartitioned kernel.

    Returns
    -------
    :class:`ColoringResult` with a proper distance-1 coloring: adjacent vertices never
    share a color.
    """
    if partitions is not None:
        from ..parallel.partitioned import partitioned_greedy_color

        return partitioned_greedy_color(
            graph,
            partitions,
            max_rounds=max_rounds,
            backend=backend,
        )
    B = resolve_backend(backend)
    n = graph.num_vertices
    traffic = TrafficCounter(backend=B.name)
    if n == 0:
        return ColoringResult(np.zeros(0, dtype=np.int64), 0, 0, traffic, backend=B.name)
    colors = -np.ones(n, dtype=np.int64)
    worklist = np.arange(n, dtype=np.int64)
    max_colors = graph.max_degree() + 1
    rounds = 0
    cap = max_rounds if max_rounds is not None else n + 2

    while worklist.size > 0:
        if rounds >= cap:
            raise RuntimeError("greedy coloring did not converge (conflict loop)")
        # Speculative assignment.
        proposal = _speculative_assign(graph, colors, worklist, max_colors, B)
        colors[worklist] = proposal
        slots, seg = B.expand_rows(graph.rowmap, worklist)
        nbrs = graph.entries[slots].astype(np.int64)
        lens = np.diff(seg)
        owners = np.repeat(worklist, lens)
        traffic.add(
            "color_assign",
            bytes_read=4 * worklist.size + 8 * worklist.size + 4 * slots.size + 8 * slots.size,
            bytes_written=8 * worklist.size,
        )
        # Conflict detection: an edge whose endpoints share a color uncolors the
        # higher-id endpoint (deterministic tie-break).
        conflict_mask = (colors[owners] == colors[nbrs]) & (owners > nbrs)
        losers = np.unique(owners[conflict_mask])
        colors[losers] = -1
        traffic.add(
            "color_conflicts",
            bytes_read=8 * 2 * slots.size,
            bytes_written=8 * losers.size,
        )
        worklist = losers
        rounds += 1

    used = np.unique(colors)
    # Compact color ids to a dense range (greedy first-fit already yields dense ids,
    # but renumber defensively so downstream color-class loops are simple).
    remap = -np.ones(int(used.max()) + 1, dtype=np.int64)
    remap[used] = np.arange(used.size, dtype=np.int64)
    colors = remap[colors]
    return ColoringResult(colors, int(used.size), rounds, traffic, distance=1, backend=B.name)
