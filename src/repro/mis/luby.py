"""Luby's Monte Carlo Algorithm A for distance-1 maximal independent sets.

Luby's algorithm is the distance-1 analogue of the paper's Algorithm 1 (Section IV
uses this relationship to bound the expected iteration count): in every round each
undecided vertex draws a fresh random priority, a vertex whose priority is the unique
minimum of its closed undecided neighbourhood joins the set, and neighbours of newly
selected vertices are removed. With the deterministic xorshift* hash as the priority
source the algorithm is deterministic, and running it on the boolean square ``G^2``
yields an MIS-2 of ``G`` (Lemma IV.2), which the test-suite uses as an independent
cross-check of Algorithm 1.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..hashing.priorities import PriorityScheme, fixed_priorities
from ..hashing.xorshift import hash_iter_vertex
from ..parallel.backends import ExecutionBackend, resolve_backend
from ..parallel.costmodel import TrafficCounter
from .result import MISConfig, MISResult

__all__ = ["luby_mis1"]

_UNDECIDED = np.uint8(1)
_IN = np.uint8(0)
_OUT = np.uint8(2)


def luby_mis1(
    graph: CSRGraph,
    priority_scheme: Union[str, PriorityScheme] = PriorityScheme.XORSTAR,
    seed: int = 0,
    backend: "Optional[str | ExecutionBackend]" = None,
    partitions=None,
) -> MISResult:
    """Compute a distance-1 maximal independent set with Luby's Algorithm A.

    Parameters
    ----------
    graph:
        Undirected input graph.
    priority_scheme:
        ``"xorstar"`` (default) or ``"xor"`` draw fresh priorities each round (Luby's
        scheme); ``"fixed"`` keeps one random permutation, which turns the method into
        the greedy ECL-MIS-style algorithm.
    seed:
        Seed for the fixed-priority scheme.
    backend:
        Execution backend (name or instance); ``None`` uses the default.
    partitions:
        When not ``None``, shard the run within the graph (part count, label
        array or layout); the partition-parallel driver is bit-identical to
        the unpartitioned kernel.
    """
    if partitions is not None:
        from ..parallel.partitioned import partitioned_luby_mis1

        return partitioned_luby_mis1(
            graph,
            partitions,
            priority_scheme=priority_scheme,
            seed=seed,
            backend=backend,
        )
    scheme = PriorityScheme.coerce(priority_scheme)
    B = resolve_backend(backend)
    n = graph.num_vertices
    config = MISConfig(
        algorithm="luby",
        k=1,
        priority_scheme=scheme.value,
        use_worklists=True,
        packed_tuples=False,
        simd=False,
        seed=seed,
        backend=B.name,
    )
    traffic = TrafficCounter(backend=B.name)
    if n == 0:
        return MISResult(
            in_set=np.zeros(0, dtype=np.int64),
            in_mask=np.zeros(0, dtype=bool),
            iterations=0,
            traffic=traffic,
            config=config,
        )

    rowmap, entries = graph.rowmap, graph.entries
    all_vertices = np.arange(n, dtype=np.int64)
    status = np.full(n, _UNDECIDED, dtype=np.uint8)
    priority = np.zeros(n, dtype=np.uint64)
    rounds = 0
    max_rounds = 20 * max(4, int(math.log2(n + 2))) + 64
    prio_max = np.uint64(np.iinfo(np.uint64).max)
    id_max = np.int64(np.iinfo(np.int64).max)

    while np.any(status == _UNDECIDED):
        if rounds >= max_rounds:
            raise RuntimeError(f"Luby MIS-1 did not converge within {max_rounds} rounds")
        undecided = status == _UNDECIDED
        cand = B.stream_compact(all_vertices, undecided)
        if scheme is PriorityScheme.FIXED:
            priority[cand] = fixed_priorities(n, seed=seed)[cand]
        else:
            priority[cand] = hash_iter_vertex(
                rounds, cand, star=(scheme is PriorityScheme.XORSTAR)
            )

        # A candidate joins the set when its (priority, id) is the unique minimum of
        # the undecided part of its closed neighbourhood.
        slots, seg = B.expand_rows(rowmap, cand)
        nbr = entries[slots].astype(np.int64)
        nbr_undecided = status[nbr] == _UNDECIDED
        nbr_prio = np.where(nbr_undecided, priority[nbr], prio_max)
        nbr_id = np.where(nbr_undecided, nbr, id_max)
        min_p, min_i = B.segmented_lexmin([nbr_prio, nbr_id], seg, [prio_max, id_max])
        own_better = (priority[cand] < min_p) | (
            (priority[cand] == min_p) & (cand < min_i)
        )
        winners = cand[own_better]
        status[winners] = _IN
        traffic.add(
            "luby_select",
            bytes_read=8 * cand.size + 4 * slots.size + 8 * slots.size,
            bytes_written=cand.size,
        )

        # Remove the neighbours of the new IN vertices.
        if winners.size:
            wslots, wseg = B.expand_rows(rowmap, winners)
            losers = entries[wslots].astype(np.int64)
            still_undecided = status[losers] == _UNDECIDED
            status[losers[still_undecided]] = _OUT
            traffic.add(
                "luby_remove",
                bytes_read=4 * wslots.size + winners.size,
                bytes_written=int(np.count_nonzero(still_undecided)),
            )
        rounds += 1

    in_mask = status == _IN
    return MISResult(
        in_set=np.nonzero(in_mask)[0].astype(np.int64),
        in_mask=in_mask,
        iterations=rounds,
        traffic=traffic,
        config=config,
    )
