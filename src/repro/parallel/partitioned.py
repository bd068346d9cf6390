"""Partition-parallel execution: shard the graph kernels *within* one graph.

The vertex set is split into ``k`` parts (with
:func:`repro.partition.multilevel_kway` by default); each part owns its
vertices plus read-only *ghost* copies of the neighbours it can see in other
parts, and every iteration of the randomized MIS / coloring kernels runs as
bulk-synchronous supersteps:

1. every part computes the phase for the vertices it owns — an **interior**
   vertex (all neighbours owned) needs purely local data, a **boundary**
   vertex additionally reads the ghost values refreshed by the previous
   exchange;
2. a deterministic **ghost exchange** scatters the owned results back into the
   shared state and re-gathers each part's halo before the next phase.

The determinism rule that makes this work: each phase is a *pure function of
the pre-superstep snapshot* and writes only part-owned vertices, and the
per-vertex update applied is exactly the unpartitioned kernel's update.
Boundary vertices are therefore resolved by the same fixup recurrence the
serial kernel applies, just evaluated shard-wise — so the final MIS / coloring
is **bit-identical to the unpartitioned NumPy reference for any part count,
any part labelling and any execution backend** (the partition-equivalence test
matrix enforces exactly this). Part quality (edge cut, boundary size) affects
only the exchange volume, never the result.

The superstep engine
--------------------
Algorithm 1 is one fixed sequence of data-parallel phases over worklists, and
so are Luby's Algorithm A and speculative greedy coloring. Each kernel is
therefore a *phase table* — one :class:`_Phase` row per phase — run by one
driver, :func:`_run_supersteps`, through one worker task,
:func:`_phase_task`. A row gives the phase's worker-side compute, the ghost
arrays it reads, its worklist and whether the indices ship or come from the
worker stash, what it writes and when the write commits, how the
coordinator scatters its reply, the ghost exchange charged after it, and the
worklists compacted (owner-locally, coordinator-side) once it has landed.

``partitioned_kk_mis2``, mapped to Algorithm 1::

    phase           Algorithm 1     ghost reads  worklist          writes  commit
    refresh_row     Refresh Row     -            w1: ship, stash   T       at once
    refresh_column  Refresh Column  T            w2: ship          M       at once
    decide          Decide          M            w1: from stash    T       at once
    (decide)        compaction      w1 keeps undecided T, w2 keeps M != OUT

``partitioned_luby_mis1`` (select and remove then compact ``cand`` to its
undecided vertices; remove narrows its stash the same way, worker-side)::

    phase       ghost reads       worklist            writes         commit
    priorities  -                 cand: ship, stash   priority       at once
    select      status, priority  cand: from stash    status := IN   in the interior half
    remove      status            cand: from stash    status := OUT  at once

``partitioned_greedy_color`` (conflict then compacts ``wl`` to the vertices
it uncolored)::

    phase     ghost reads  worklist          writes        commit
    assign    colors       wl: ship, stash   colors        in the interior half
    conflict  colors       wl: from stash    colors := -1  in the interior half

Only the driver handles the live-part filter (a part whose worklist is empty
skips the phase), the boundary/interior split, barrier vs overlapped
submission, the halo delta format, scatter/mark, superstep counting and
:class:`PartitionStats`.

``ExecutionBackend.map_partitions_resident`` is the seam the supersteps run
through: each kernel run opens a rank-resident session that ships every
part's loop-invariant payload (local CSR, index maps, static parameters) and
initial state exactly once, then runs each phase as ``fn(payload, state,
delta)`` where only the *delta* crosses the boundary — the task keeps its
owned state current itself. Deltas are **O(changed halo)**, not O(halo): a
coordinator-side :class:`HaloDeltaTracker` records which owned values each
phase actually modified (the phase results are exactly the touched entries)
and ships each part only the halo positions changed since its last refresh,
as ``(positions, values)`` pairs with a dense fallback; each iteration's
worklist indices ship once, with the phase that stashes them in worker-side
``state`` for the later phases that re-read them. Every backend implements
the same session — in-process, pinned slot workers, or rank processes over
sockets (:mod:`repro.parallel.distributed`) — and the engine does not
change, which is exactly what this seam is for. Shipped bytes are accounted
logically (array ``nbytes``, identical on every backend), in **both
directions** — deltas out, result arrays back — and recorded on
``PartitionStats``.

The default schedule is **overlapped**: each phase splits into a *boundary*
half (the owned vertices with foreign neighbours, carrying all halo updates
and scalars) and an *interior* half (a bare sub-worklist), submitted
back-to-back through :meth:`ResidentSession.run_async` so the next phase's
deltas ship while workers still chew interior worklists. Determinism
survives because an interior vertex appears in **no other part's halo** —
marking only boundary changes before a ``take`` dirties exactly the same
positions as the barrier schedule — and because sessions execute each part's
tasks FIFO, so a phase that reads owned values written by the previous
phase's interior half always runs after it. Phases whose writes could feed a
sibling half's reads defer their boundary commits to the interior half,
keeping both halves pure functions of the pre-superstep snapshot. The halves
share one accounting group, so supersteps, shipped bytes and the
per-superstep maximum are identical to the barrier schedule — only
wall-clock differs.

The three ``partitioned_*`` drivers keep the older modes runnable as CI
baselines: ``resident=False`` re-ships payload+state every superstep through
plain ``map_partitions``, ``changed_deltas=False`` selects the full-halo wire
format (whole halos, worklists re-sent per phase) and ``overlap=False`` the
barrier schedule. The public kernels (``kk_mis2(partitions=...)`` and
friends) always run the default mode.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..hashing.packing import TuplePacking
from ..hashing.priorities import PriorityScheme
from . import primitives as _ref
from .backends import ExecutionBackend, PhaseFuture, ResidentSession, resolve_backend
from .costmodel import TrafficCounter

__all__ = [
    "GraphPart",
    "HaloDeltaTracker",
    "PartitionLayout",
    "PartitionStats",
    "build_partition_layout",
    "carry_partition_labels",
    "partition_vertices",
    "partitioned_greedy_color",
    "partitioned_kk_mis2",
    "partitioned_luby_mis1",
]

#: Accepted ``partitions=`` specifications: a part count, an explicit per-vertex
#: label array, or a prebuilt layout.
PartitionSpec = Union[int, np.integer, np.ndarray, Sequence[int], "PartitionLayout"]

#: How far a layout's part count may exceed its vertex count before it is
#: rejected as a sparse (non-part-id) labelling.
_MAX_EMPTY_PART_SLACK = 1024


# --------------------------------------------------------------------- layout
@dataclass(frozen=True)
class GraphPart:
    """One shard of a partitioned graph: owned vertices, ghosts, local CSR.

    The local vertex space is ``ids`` (sorted global ids of owned + halo
    vertices); ``rowmap``/``entries`` store the adjacency of the *owned* rows
    in that local space (halo rows are empty — ghosts are read, never
    expanded). ``owned_local[i]`` is the local index of ``owned[i]``.
    """

    part_id: int
    #: Sorted global ids owned by this part.
    owned: np.ndarray
    #: Sorted global ids of ghost vertices (neighbours owned by other parts).
    halo: np.ndarray
    #: Sorted global ids of the local vertex space (owned ∪ halo).
    ids: np.ndarray
    #: Local indices of the owned vertices within ``ids``.
    owned_local: np.ndarray
    #: Per-owned-vertex mask: True when every neighbour is owned by this part.
    interior_mask: np.ndarray
    #: Local CSR rowmap over ``ids`` (halo rows empty).
    rowmap: np.ndarray
    #: Local CSR entries (indices into ``ids``).
    entries: np.ndarray

    @property
    def num_owned(self) -> int:
        return int(self.owned.size)

    @property
    def num_halo(self) -> int:
        return int(self.halo.size)

    @property
    def num_interior(self) -> int:
        return int(np.count_nonzero(self.interior_mask))

    @property
    def num_boundary(self) -> int:
        return self.num_owned - self.num_interior

    def interior(self) -> np.ndarray:
        """Global ids of the owned vertices with no foreign neighbour."""
        return self.owned[self.interior_mask]

    def boundary(self) -> np.ndarray:
        """Global ids of the owned vertices adjacent to another part."""
        return self.owned[~self.interior_mask]

    @cached_property
    def interior_local(self) -> np.ndarray:
        """Boolean mask over the local vertex space: True on interior rows.

        Lets the overlapped drivers split a worklist with one O(w) gather
        from already-computed local indices instead of re-searching the
        owned array every phase. Coordinator-side only — never shipped.
        """
        mask = np.zeros(self.ids.size, dtype=bool)
        mask[self.owned_local[self.interior_mask]] = True
        return mask

    def local(self, vertices: np.ndarray) -> np.ndarray:
        """Local indices of ``vertices`` (global ids that must lie in ``ids``).

        A global id outside the part's local vertex space is a caller bug that
        a bare ``searchsorted`` would silently map onto an arbitrary local
        vertex (corrupting results without a trace), so membership is checked
        and violations raise.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        idx = np.searchsorted(self.ids, vertices)
        in_range = idx < self.ids.size
        member = np.zeros(vertices.shape, dtype=bool)
        member[in_range] = self.ids[idx[in_range]] == vertices[in_range]
        if not member.all():
            bad = np.unique(vertices[~member])
            shown = ", ".join(str(v) for v in bad[:5].tolist())
            suffix = ", ..." if bad.size > 5 else ""
            raise ValueError(
                f"global vertex id(s) [{shown}{suffix}] are not local to part "
                f"{self.part_id} (not owned and not in its halo)"
            )
        return idx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphPart(part_id={self.part_id}, owned={self.num_owned}, "
            f"halo={self.num_halo}, boundary={self.num_boundary})"
        )


@dataclass(frozen=True)
class PartitionStats:
    """Deterministic partitioning measurables recorded on partitioned results."""

    #: Number of parts in the layout (including empty ones).
    num_parts: int
    #: Vertices whose whole neighbourhood is part-local.
    interior_vertices: int
    #: Vertices with at least one neighbour in another part.
    boundary_vertices: int
    #: Total ghost copies held across parts (communication footprint).
    halo_vertices: int
    #: Undirected edges crossing parts.
    cut_edges: int
    #: Ghost-exchange rounds (superstep phases) the driver executed.
    supersteps: int
    #: Logical bytes shipped once at session open (per-part CSR + index maps +
    #: initial state). 0 on non-resident runs, where everything re-ships.
    resident_bytes: int = 0
    #: Logical bytes shipped across all supersteps, both directions: changed
    #: halo values, once-per-iteration worklist indices and phase scalars out
    #: plus the touched-entry result arrays back on the resident path;
    #: payload + state + delta out and state + result back per phase on the
    #: non-resident baseline.
    superstep_bytes: int = 0
    #: Largest single-superstep shipment — O(changed halo + worklist) on the
    #: resident path once the CSR has shipped, O(CSR) on the non-resident
    #: baseline.
    max_superstep_bytes: int = 0
    #: Coordinator wall-clock spent computing between session calls (elapsed
    #: minus exchange minus idle). ``perf_counter``-based and machine-varying —
    #: unlike every field above, the ``*_seconds`` triple is NOT deterministic
    #: and must never join the gated counts.
    compute_seconds: float = 0.0
    #: Wall-clock spent preparing and shipping phase deltas (the
    #: ``run_async`` submit path: byte accounting + serialisation + send).
    exchange_seconds: float = 0.0
    #: Wall-clock the coordinator spent blocked waiting for phase results —
    #: the time the overlap schedule exists to shrink.
    idle_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "num_parts": self.num_parts,
            "interior_vertices": self.interior_vertices,
            "boundary_vertices": self.boundary_vertices,
            "halo_vertices": self.halo_vertices,
            "cut_edges": self.cut_edges,
            "supersteps": self.supersteps,
            "resident_bytes": self.resident_bytes,
            "superstep_bytes": self.superstep_bytes,
            "max_superstep_bytes": self.max_superstep_bytes,
            "compute_seconds": self.compute_seconds,
            "exchange_seconds": self.exchange_seconds,
            "idle_seconds": self.idle_seconds,
        }


#: Monotonic source of per-layout tokens (see :attr:`PartitionLayout.token`).
_LAYOUT_TOKENS = itertools.count(1)


def _next_layout_token() -> str:
    """A process-unique token naming one :class:`PartitionLayout` instance.

    The token keys the rank-resident payload caches: a worker that has part
    ``i`` of token ``t`` resident never receives that part's CSR again. A new
    layout object — even over the same graph and labels — gets a fresh token,
    which is the invalidation rule: resident state is valid exactly as long as
    the layout object that produced it is alive and reused.
    """
    return f"layout-{os.getpid()}-{next(_LAYOUT_TOKENS)}"


@dataclass(frozen=True)
class PartitionLayout:
    """A k-way split of one graph into :class:`GraphPart` shards."""

    #: Per-vertex part labels on the original graph.
    labels: np.ndarray
    #: Number of parts (some may be empty).
    num_parts: int
    #: The shards, indexed by part id.
    parts: Tuple[GraphPart, ...]
    #: Undirected edges whose endpoints lie in different parts.
    cut_edges: int
    #: Process-unique identity keying the rank-resident payload caches.
    token: str = field(default_factory=_next_layout_token)

    @property
    def num_vertices(self) -> int:
        return int(self.labels.size)

    @property
    def interior_vertices(self) -> int:
        return sum(p.num_interior for p in self.parts)

    @property
    def boundary_vertices(self) -> int:
        return sum(p.num_boundary for p in self.parts)

    @property
    def halo_vertices(self) -> int:
        return sum(p.num_halo for p in self.parts)

    def stats(
        self,
        supersteps: int,
        session: "Optional[ResidentSession]" = None,
        elapsed_seconds: Optional[float] = None,
    ) -> PartitionStats:
        """Snapshot of the layout's measurables after a ``supersteps``-long run.

        ``session`` (when the run went through the resident seam) contributes
        the shipped-bytes accounting and the exchange/idle wall-clock meters;
        without one the byte and timing fields are zero. ``elapsed_seconds``
        (the driver's total kernel-loop wall-clock) additionally yields
        ``compute_seconds`` as the remainder not spent shipping or waiting.
        """
        exchange = 0.0 if session is None else float(session.ship_seconds)
        idle = 0.0 if session is None else float(session.idle_seconds)
        compute = 0.0
        if elapsed_seconds is not None:
            compute = max(0.0, float(elapsed_seconds) - exchange - idle)
        return PartitionStats(
            num_parts=self.num_parts,
            interior_vertices=self.interior_vertices,
            boundary_vertices=self.boundary_vertices,
            halo_vertices=self.halo_vertices,
            cut_edges=self.cut_edges,
            supersteps=int(supersteps),
            resident_bytes=0 if session is None else int(session.resident_bytes),
            superstep_bytes=0 if session is None else int(session.superstep_bytes),
            max_superstep_bytes=0 if session is None else int(session.max_superstep_bytes),
            compute_seconds=compute,
            exchange_seconds=exchange,
            idle_seconds=idle,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionLayout(num_parts={self.num_parts}, "
            f"vertices={self.num_vertices}, boundary={self.boundary_vertices}, "
            f"cut={self.cut_edges})"
        )


def partition_vertices(graph: CSRGraph, num_parts: int) -> np.ndarray:
    """Deterministic per-vertex part labels splitting ``graph`` into ``num_parts``.

    Power-of-two counts use the multilevel recursive-bisection partitioner
    (:func:`repro.partition.multilevel_kway`, MIS-2 coarsening inside); other
    counts fall back to balanced contiguous vertex blocks. The choice affects
    only boundary sizes — partitioned kernel results are label-independent.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    n = graph.num_vertices
    if num_parts == 1 or n == 0:
        return np.zeros(n, dtype=np.int64)
    if num_parts & (num_parts - 1) == 0:
        from ..partition.multilevel import multilevel_kway

        return np.asarray(multilevel_kway(graph, num_parts).parts, dtype=np.int64)
    return (np.arange(n, dtype=np.int64) * num_parts) // n


def _build_part(graph: CSRGraph, labels: np.ndarray, part_id: int) -> GraphPart:
    owned = np.nonzero(labels == part_id)[0].astype(np.int64)
    slots, seg = _ref.expand_rows(graph.rowmap, owned)
    nbrs = graph.entries[slots].astype(np.int64)
    foreign = labels[nbrs] != part_id if nbrs.size else np.zeros(0, dtype=bool)
    halo = np.unique(nbrs[foreign])
    ids = np.union1d(owned, halo)
    owned_local = np.searchsorted(ids, owned)
    lens = np.diff(seg)
    has_foreign = np.zeros(owned.size, dtype=bool)
    has_foreign[np.repeat(np.arange(owned.size, dtype=np.int64), lens)[foreign]] = True
    # Owned rows keep their adjacency (remapped into the local space); halo
    # rows stay empty — ghosts are only ever read.
    rowmap = np.zeros(ids.size + 1, dtype=np.int64)
    rowmap[owned_local + 1] = lens
    np.cumsum(rowmap, out=rowmap)
    entries = np.searchsorted(ids, nbrs)
    return GraphPart(
        part_id=int(part_id),
        owned=owned,
        halo=halo,
        ids=ids,
        owned_local=owned_local,
        interior_mask=~has_foreign,
        rowmap=rowmap,
        entries=entries,
    )


def build_partition_layout(graph: CSRGraph, partitions: PartitionSpec) -> PartitionLayout:
    """Resolve a ``partitions=`` specification into a :class:`PartitionLayout`.

    ``partitions`` may be a part count (labels come from
    :func:`partition_vertices`), an explicit per-vertex label array (labels in
    ``[0, max+1)``; empty parts are allowed), or an existing layout (returned
    unchanged).
    """
    if isinstance(partitions, PartitionLayout):
        return partitions
    n = graph.num_vertices
    if isinstance(partitions, (int, np.integer)):
        num_parts = int(partitions)
        labels = partition_vertices(graph, num_parts)
    else:
        labels = np.asarray(partitions, dtype=np.int64)
        if labels.shape != (n,):
            raise ValueError(
                f"partition labels must have one entry per vertex "
                f"(got shape {labels.shape} for {n} vertices)"
            )
        if n and labels.min() < 0:
            raise ValueError("partition labels must be non-negative")
        num_parts = int(labels.max()) + 1 if n else 1
    # One shard is materialised per part id, so a sparse labelling (hashes,
    # component ids) would silently allocate max(label)+1 mostly-empty shards.
    # Parts may legitimately exceed |V| slightly (restricted labels on a small
    # subgraph keep the original part ids), hence the generous slack.
    if num_parts > n + _MAX_EMPTY_PART_SLACK:
        raise ValueError(
            f"{num_parts} parts for a {n}-vertex graph — partition labels must "
            f"be (near-)dense part ids, not arbitrary keys"
        )
    parts = tuple(_build_part(graph, labels, p) for p in range(num_parts))
    from ..partition.metrics import edge_cut

    return PartitionLayout(
        labels=labels,
        num_parts=num_parts,
        parts=parts,
        cut_edges=edge_cut(graph, labels),
    )


def carry_partition_labels(
    old_labels: np.ndarray,
    num_parts: int,
    keep: "Optional[np.ndarray]" = None,
    new_vertices: int = 0,
) -> np.ndarray:
    """Part labels for a mutated graph, carried over from the previous layout.

    The GraphService rebuilds its (immutable) CSR graph on every mutation and
    must mint a *fresh* :class:`PartitionLayout` — a new token, which is
    exactly what invalidates the worker-resident payload caches keyed on it.
    But repartitioning from scratch would move surviving vertices between
    parts on every mutation, churning the whole resident store for a local
    edit. This helper keeps the assignment stable instead: surviving vertices
    keep their old part (``keep`` selects them, in new-id order, when
    vertices were removed) and ``new_vertices`` appended vertices go to the
    currently lightest parts. Empty parts remain legal layout inputs, so a
    part that loses all its vertices keeps its slot.
    """
    old_labels = np.asarray(old_labels, dtype=np.int64)
    labels = old_labels if keep is None else old_labels[np.asarray(keep, dtype=np.int64)]
    if new_vertices:
        sizes = np.bincount(labels, minlength=max(1, int(num_parts))).astype(np.int64)
        extra = np.empty(int(new_vertices), dtype=np.int64)
        for i in range(int(new_vertices)):
            part = int(np.argmin(sizes))
            extra[i] = part
            sizes[part] += 1
        labels = np.concatenate([labels, extra]) if labels.size else extra
    return labels


# ------------------------------------------------------- changed-halo tracking
#
# The original resident protocol shipped every part's *entire* halo on every
# ghost-reading phase — O(halo) per superstep even when the worklist (and hence
# the set of values that could possibly have changed) had shrunk to a handful
# of vertices. The coordinator already learns exactly which owned values each
# phase modified (the phase results are the touched entries), so it can track,
# per (array, part), which halo positions changed since that part's last
# refresh and ship only those. The delta unit is a **halo update**: a
# ``(positions, values)`` pair where ``positions`` indexes the part's halo in
# halo order (``None`` marks a dense update carrying the full halo values —
# the crossover fallback when the changed set plus its index overhead would
# outweigh a dense shipment). Cumulatively applying a part's updates to its
# session-open halo snapshot reconstructs the full-halo exchange exactly —
# the invariant the Hypothesis suite checks.


def _apply_halo_update(arr: np.ndarray, halo_local: np.ndarray, update) -> None:
    """Worker-side: refresh ``arr``'s halo entries from one halo update."""
    positions, values = update
    if positions is None:
        arr[halo_local] = values
    elif positions.size:
        arr[halo_local[positions]] = values


def _scatter_changed(arr: np.ndarray, idx: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Coordinator-side: scatter ``new`` into ``arr`` at ``idx`` and return the
    ids whose value actually changed (what the halo tracker needs to mark)."""
    changed = idx[arr[idx] != new]
    arr[idx] = new
    return changed


class HaloDeltaTracker:
    """Coordinator-side bookkeeping: which halo values must each part re-read?

    One tracker serves one partitioned kernel run. ``names`` are the shared
    per-vertex arrays the kernel ghosts (e.g. ``("T", "M")`` for MIS-2). After
    every phase the driver calls :meth:`mark` with the ids whose value that
    phase actually changed; before a ghost-reading phase it calls :meth:`take`
    per live part, which returns the minimal halo update — the positions
    dirtied since that part's last take, or a dense fallback when the sparse
    encoding would cost more — and resets the part's dirty set.

    At session open each part's state ships with its halo entries current, so
    every dirty set starts empty. ``changed_only=False`` selects the
    full-halo protocol (every take is dense, marking is a no-op) — the PR 4
    wire format, kept runnable so ``bench compare`` can gate the changed-delta
    win against it.
    """

    def __init__(
        self,
        layout: PartitionLayout,
        names: Sequence[str],
        changed_only: bool = True,
    ) -> None:
        self._halos = [p.halo for p in layout.parts]
        self.changed_only = bool(changed_only)
        if self.changed_only:
            self._dirty: Dict[str, List[np.ndarray]] = {
                name: [np.zeros(h.size, dtype=bool) for h in self._halos]
                for name in names
            }

    def mark(self, name: str, changed) -> None:
        """Record that the values of ``changed`` global ids were modified.

        ``changed`` may be one id array or a list of them (one per live part —
        ownership makes them disjoint); order is irrelevant.
        """
        if not self.changed_only:
            return
        if isinstance(changed, (list, tuple)):
            changed = [c for c in changed if c.size]
            if not changed:
                return
            changed = changed[0] if len(changed) == 1 else np.concatenate(changed)
        if changed.size == 0:
            return
        for dirty, halo in zip(self._dirty[name], self._halos):
            if halo.size == 0:
                continue
            idx = np.searchsorted(halo, changed)
            in_range = idx < halo.size
            sub = idx[in_range]
            hits = sub[halo[sub] == changed[in_range]]
            if hits.size:
                dirty[hits] = True

    def take(self, name: str, part: int, values: np.ndarray):
        """The halo update part ``part`` needs for array ``name``.

        ``values`` is the shared *global* array being ghosted; only the
        entries that actually ship are gathered from it — the sparse path
        still scans the part's halo-sized dirty mask (one bool per ghost),
        but never materialises a halo-sized value slice. The returned
        update is ``(positions, changed_values)`` over the dirty positions,
        or ``(None, full_halo_values)`` when dense ships fewer logical bytes
        (positions are int64 words, so the crossover sits at
        ``|changed| * (8 + itemsize) >= |halo| * itemsize``). Clears the
        part's dirty set — the worker's halo copy is current once applied.
        """
        halo = self._halos[part]
        if not self.changed_only:
            return (None, values[halo])
        dirty = self._dirty[name][part]
        positions = np.nonzero(dirty)[0].astype(np.int64)
        dirty[positions] = False
        item = int(values.dtype.itemsize)
        if halo.size and positions.size * (positions.dtype.itemsize + item) >= halo.size * item:
            return (None, values[halo])
        return (positions, values[halo[positions]])


# ------------------------------------------------------------ phase computes
#
# The per-vertex arithmetic of each phase, copied verbatim from the
# unpartitioned kernels (which is what makes the engine bit-identical to
# them). Every compute has the signature ``compute(payload, state, local,
# scalar) -> out`` and is a *pure read* of the part's snapshot: the worker
# task (:func:`_phase_task`) decides when its writes land, so a phase whose
# writes could leak into a sibling half's reads can defer them. ``payload``
# is the part's loop-invariant shipment (local CSR, index maps, static kernel
# parameters; shipped once per run, cached across runs under the layout
# token), ``state`` its retained per-vertex arrays over the local space,
# ``local`` the phase's local worklist and ``scalar`` the iteration counter
# (for the phases that ship one).


def _resident_payload(part: GraphPart, **extra) -> Dict:
    """The loop-invariant per-part shipment shared by all resident kernels."""
    payload = {
        "rowmap": part.rowmap,
        "entries": part.entries,
        "ids": part.ids,
        "halo_local": part.local(part.halo),
    }
    payload.update(extra)
    return payload


def _kk_refresh_row(payload, state, local, iteration):
    from ..mis.kk import _priorities_for

    scheme = PriorityScheme.coerce(payload["scheme"])
    packer = TuplePacking(payload["n"], word_bits=payload["word_bits"])
    vertices = payload["ids"][local]
    prios = _priorities_for(scheme, iteration, vertices, payload["n"], payload["seed"])
    return packer.pack(prios.astype(packer.dtype), vertices)


def _kk_refresh_column(payload, state, local, _scalar):
    T = state["T"]
    packer = TuplePacking(payload["n"], word_bits=payload["word_bits"])
    IN, OUT = packer.in_value, packer.out_value
    slots, seg = _ref.expand_rows(payload["rowmap"], local)
    min_nbr = _ref.segmented_min(T[payload["entries"][slots]], seg, identity=OUT)
    Mv = np.minimum(min_nbr, T[local])
    return np.where(Mv == IN, OUT, Mv)


def _kk_decide(payload, state, local, _scalar):
    T, M = state["T"], state["M"]
    packer = TuplePacking(payload["n"], word_bits=payload["word_bits"])
    IN, OUT = packer.in_value, packer.out_value
    slots, seg = _ref.expand_rows(payload["rowmap"], local)
    nbr_M = M[payload["entries"][slots]]
    Tw = T[local]
    Mw = M[local]
    any_out = _ref.segmented_any_equal(nbr_M, OUT, seg) | (Mw == OUT)
    all_match = _ref.segmented_all_equal(nbr_M, Tw, seg) & (Mw == Tw)
    undecided = packer.is_undecided(Tw)
    to_out = any_out & undecided
    to_in = all_match & undecided & ~to_out
    newT = Tw.copy()
    newT[to_out] = OUT
    newT[to_in] = IN
    return newT


#: The partitioned Luby driver's status codes (the flat kernel's encoding;
#: they also ship in every part's payload).
_LUBY_IN, _LUBY_UNDECIDED, _LUBY_OUT = np.uint8(0), np.uint8(1), np.uint8(2)


def _luby_priorities(payload, state, local, rounds):
    from ..hashing.priorities import fixed_priorities
    from ..hashing.xorshift import hash_iter_vertex

    scheme = PriorityScheme.coerce(payload["scheme"])
    vertices = payload["ids"][local]
    if scheme is PriorityScheme.FIXED:
        return fixed_priorities(payload["n"], seed=payload["seed"])[vertices]
    return hash_iter_vertex(rounds, vertices, star=(scheme is PriorityScheme.XORSTAR))


def _luby_select(payload, state, local, _scalar):
    """The winning *local* indices among the candidates ``local``."""
    status, prio = state["status"], state["priority"]
    ids = payload["ids"]
    prio_max = np.uint64(np.iinfo(np.uint64).max)
    id_max = np.int64(np.iinfo(np.int64).max)
    slots, seg = _ref.expand_rows(payload["rowmap"], local)
    nbr = payload["entries"][slots]
    nbr_undecided = status[nbr] == payload["undecided"]
    nbr_prio = np.where(nbr_undecided, prio[nbr], prio_max)
    nbr_id = np.where(nbr_undecided, ids[nbr], id_max)
    min_p, min_i = _ref.segmented_lexmin([nbr_prio, nbr_id], seg, [prio_max, id_max])
    own = prio[local]
    own_better = (own < min_p) | ((own == min_p) & (ids[local] < min_i))
    return local[own_better]


def _luby_remove(payload, state, local, _scalar):
    """Mask over ``local``: the undecided vertices with a neighbour just IN."""
    status = state["status"]
    slots, seg = _ref.expand_rows(payload["rowmap"], local)
    return np.asarray(
        _ref.segmented_any_equal(status[payload["entries"][slots]], payload["in_value"], seg),
        dtype=bool,
    )


def _luby_still_undecided(payload, state, local):
    # The select phase set this part's winners IN worker-side, so the stashed
    # candidates filter to the coordinator's compacted worklist without any
    # indices crossing the boundary.
    return state["status"][local] == payload["undecided"]


def _color_assign(payload, state, local, _scalar):
    """Speculative colors for ``local``: the smallest color no neighbour has."""
    colors = state["colors"]
    slots, seg = _ref.expand_rows(payload["rowmap"], local)
    nbr_colors = colors[payload["entries"][slots]]
    owner = np.repeat(np.arange(local.size, dtype=np.int64), np.diff(seg))
    max_colors = payload["max_colors"]
    forbidden = np.zeros((local.size, max_colors + 1), dtype=bool)
    valid = nbr_colors >= 0
    forbidden[owner[valid], np.minimum(nbr_colors[valid], max_colors)] = True
    return np.argmin(forbidden, axis=1).astype(np.int64)


def _color_conflict(payload, state, local, _scalar):
    """Local indices of the conflict losers (higher global id of a
    same-color edge) among ``local``."""
    colors = state["colors"]
    ids = payload["ids"]
    slots, seg = _ref.expand_rows(payload["rowmap"], local)
    nbr = payload["entries"][slots]
    lens = np.diff(seg)
    owners_local = np.repeat(local, lens)
    owners_global = np.repeat(ids[local], lens)
    conflict = (colors[owners_local] == colors[nbr]) & (owners_global > ids[nbr])
    return np.unique(owners_local[conflict])


# ---------------------------------------------------------------- phase tables
@dataclass(frozen=True)
class _Phase:
    """One row of a kernel's phase table: a data-parallel step over a worklist.

    A phase pickles as a reference to its ``name`` (see :meth:`__reduce__`),
    so the one worker task crosses a process or socket boundary as a
    ``partial(_phase_task, phase, half)`` of a few dozen bytes.
    """

    #: Unique ``"<kernel>.<phase>"`` name.
    name: str
    #: Worker-side ``compute(payload, state, local, scalar) -> out`` (pure read).
    compute: Callable
    #: The per-vertex array the phase writes, worker state and coordinator alike.
    writes: str
    #: The coordinator worklist the phase runs over (also its stash key).
    worklist: str
    #: Ghost arrays whose halo updates ship with the phase, in delta order.
    reads: Tuple[str, ...] = ()
    #: ``"ship"``: the local indices ship every time; ``"ship+stash"``: they
    #: ship once per iteration and the worker stashes them; ``"stashed"``: the
    #: worker reads the stash (they ship only in the full-halo format).
    indices: str = "ship"
    #: Worker-side filter for a stash the coordinator has compacted since it
    #: shipped; returns a mask over the stashed indices.
    narrow: Optional[Callable] = None
    #: Whether the iteration counter ships as the phase's scalar.
    scalar: bool = False
    #: What the worker returns and the coordinator scatters: ``"values"``
    #: aligned with the worklist, ``"ids"`` (global ids set to ``fill``) or
    #: ``"mask"`` (over the worklist, selected entries set to ``fill``).
    reply: str = "values"
    fill: Any = None
    #: Whether the boundary half's writes wait for the interior half — set
    #: where they would otherwise leak into the sibling half's reads.
    defer: bool = False
    #: Whether the written array is re-ghosted after the phase; the exchange
    #: is charged to the traffic model over the next phase's live parts.
    exchange: bool = False
    #: Worklists re-filtered, owner-locally, once the phase has fully landed.
    compacts: Tuple[str, ...] = ()

    def __reduce__(self):
        return (_phase_named, (self.name,))


#: Algorithm 1: Refresh Row, Refresh Column, Decide, then compaction. No
#: phase defers: a half reads only owned rows its sibling does not write
#: (Decide writes its own T rows) and rows written by earlier phases, which
#: per-part FIFO has already run.
_KK_PHASES = (
    _Phase("kk.refresh_row", _kk_refresh_row, "T", "w1",
           indices="ship+stash", scalar=True, exchange=True),
    _Phase("kk.refresh_column", _kk_refresh_column, "M", "w2",
           reads=("T",), exchange=True),
    _Phase("kk.decide", _kk_decide, "T", "w1",
           reads=("M",), indices="stashed", compacts=("w1", "w2")),
)

#: Luby's Algorithm A: fresh priorities, winner selection, neighbour removal.
_LUBY_PHASES = (
    _Phase("luby.priorities", _luby_priorities, "priority", "cand",
           indices="ship+stash", scalar=True, exchange=True),
    # Selection reads neighbour statuses, so committing IN in the boundary
    # half would leak into the interior half's snapshot.
    _Phase("luby.select", _luby_select, "status", "cand",
           reads=("status", "priority"), indices="stashed", reply="ids",
           fill=_LUBY_IN, defer=True, exchange=True, compacts=("cand",)),
    # Removal reads ``== IN`` and writes OUT to undecided vertices, so its
    # writes cannot alter the sibling half's reads: no deferral.
    _Phase("luby.remove", _luby_remove, "status", "cand",
           reads=("status",), indices="stashed", narrow=_luby_still_undecided,
           reply="mask", fill=_LUBY_OUT, exchange=True, compacts=("cand",)),
)

#: Speculative greedy coloring: assignment, then conflict resolution. Both
#: read neighbour colors, owned ones included, so both defer their writes —
#: a boundary loser reset to -1 early would erase a conflict the interior
#: half must still see.
_COLOR_PHASES = (
    _Phase("color.assign", _color_assign, "colors", "wl",
           reads=("colors",), indices="ship+stash", defer=True, exchange=True),
    _Phase("color.conflict", _color_conflict, "colors", "wl",
           reads=("colors",), indices="stashed", reply="ids", fill=-1,
           defer=True, exchange=True, compacts=("wl",)),
)

_PHASES = {p.name: p for table in (_KK_PHASES, _LUBY_PHASES, _COLOR_PHASES) for p in table}


def _phase_named(name: str) -> _Phase:
    return _PHASES[name]


# ------------------------------------------------------------ the worker task
#
# The schedule runs each phase either whole (the barrier schedule) or as a
# boundary half followed by an interior half (the overlapped schedule). The
# half travels in the partial, never in the delta: ``shipped_nbytes`` charges
# every delta member. Conventions, relied on by the driver:
#
# - a whole or boundary delta is ``(indices, [scalar,] *halo_updates)``, and
#   the boundary half always ships, even with an empty sub-worklist, because
#   its halo updates must land to keep the tracker's "worker halo is current
#   after take" invariant;
# - an interior delta is the bare sub-worklist (or ``None`` for a stashed
#   one); the scalar rode with the boundary half and is stashed worker-side,
#   because shipping it twice would break the overlap-vs-barrier byte
#   equality;
# - sessions run each part's tasks FIFO, so the interior half may read the
#   boundary half's stashes, and a deferring phase's boundary writes are
#   stashed and committed by the interior half after both have computed.

_WHOLE, _BOUNDARY, _INTERIOR = "", "b", "i"


def _targets(phase: _Phase, vertices: np.ndarray, out):
    """Where ``phase`` writes and what, given its worklist and its output."""
    if phase.reply == "values":
        return vertices, out
    if phase.reply == "mask":
        return vertices[out], phase.fill
    return out, phase.fill


def _phase_task(phase: _Phase, half: str, payload, state, delta):
    """The one worker-side task: run ``phase`` on one part's ``half``."""
    if half == _INTERIOR:
        local, scalar = delta, state["_scalar"] if phase.scalar else None
    else:
        local, *rest = delta
        scalar = rest.pop(0) if phase.scalar else None
        if half == _BOUNDARY and phase.scalar:
            state["_scalar"] = scalar
        for name, update in zip(phase.reads, rest):
            _apply_halo_update(state[name], payload["halo_local"], update)
    stash = phase.worklist + half
    if local is None:
        local = state[stash]
        if phase.narrow is not None:
            local = local[phase.narrow(payload, state, local)]
    elif phase.indices == "ship+stash":
        state[stash] = local
    out = phase.compute(payload, state, local, scalar)
    idx, values = _targets(phase, local, out)
    target = state[phase.writes]
    if phase.defer and half == _BOUNDARY:
        state["_pending"] = (idx, values)
    else:
        if phase.defer and half == _INTERIOR:
            pending_idx, pending_values = state.pop("_pending")
            target[pending_idx] = pending_values
        target[idx] = values
    return payload["ids"][out] if phase.reply == "ids" else out


# ------------------------------------------------------------------- the driver
def _exchange_traffic(
    traffic: TrafficCounter,
    layout: PartitionLayout,
    value_bytes: int,
    parts: Sequence[int],
) -> None:
    """Account one ghost exchange: the *live* parts re-read their halo values.

    A part whose worklist has emptied runs no further phases and re-reads
    nothing, so charging the full ``layout.halo_vertices`` every exchange (as
    this used to) overstates the modelled ghost traffic more and more as
    parts converge. ``parts`` are the indices of the parts participating in
    the exchange — deterministic driver state, so the modelled counts stay
    identical on every backend.
    """
    nbytes = value_bytes * sum(layout.parts[i].num_halo for i in parts)
    traffic.add("ghost_exchange", bytes_read=nbytes, bytes_written=nbytes)


def _prepare(layout: PartitionLayout, worklist: List[np.ndarray], split: bool):
    """The live parts of one worklist and, per live part and half, its
    ``(vertices, local indices)``.

    The boundary/interior split preserves worklist order, so barrier and
    overlapped schedules enumerate the same vertices in the same order.
    """
    live = [i for i, w in enumerate(worklist) if w.size]
    halves: Dict[int, Tuple] = {}
    for i in live:
        part, vertices = layout.parts[i], worklist[i]
        local = part.local(vertices)
        if split:
            inner = part.interior_local[local]
            outer = ~inner
            halves[i] = ((vertices[outer], local[outer]), (vertices[inner], local[inner]))
        else:
            halves[i] = ((vertices, local),)
    return live, halves


def _run_supersteps(
    B: ExecutionBackend,
    layout: PartitionLayout,
    token: str,
    payloads: List[Dict],
    phases: Tuple[_Phase, ...],
    arrays: Dict[str, np.ndarray],
    worklists: Dict[str, List[np.ndarray]],
    keep: Dict[str, Callable[[np.ndarray], np.ndarray]],
    traffic: TrafficCounter,
    limit: int,
    what: str,
    resident: bool,
    changed_deltas: bool,
    overlap: bool,
) -> Tuple[int, List, PartitionStats]:
    """Run a kernel's phase table to convergence over a resident session.

    Each iteration runs every phase of ``phases`` once, over its worklist's
    live parts; ``arrays`` (the shared per-vertex arrays, updated in place)
    and ``worklists`` (per-part owned ids) are the coordinator's state, and
    ``keep[name]`` is the coordinator-side compaction predicate of worklist
    ``name``. The loop ends when the first phase's worklist is empty on every
    part. Returns ``(iterations, per-iteration worklist sizes, stats)``; an
    empty graph opens no session.
    """
    if layout.num_vertices == 0:
        return 0, [], layout.stats(0)
    states = [{name: arr[p.ids] for name, arr in arrays.items()} for p in layout.parts]
    tracker = HaloDeltaTracker(layout, tuple(arrays), changed_only=changed_deltas)
    session = B.map_partitions_resident(token, payloads, states, resident=resident)
    # Overlap needs the resident seam: non-resident accounting re-ships
    # payload+state per call, so a split phase would double-charge it.
    split = bool(overlap) and resident
    schedule = (_BOUNDARY, _INTERIOR) if split else (_WHOLE,)
    first = phases[0].worklist
    iteration = supersteps = 0
    sizes: List = []
    charge: Optional[int] = None  # itemsize of the array the last phase re-ghosts
    # The last phase's interior half, landed after the next phase is submitted.
    late: Optional[Tuple[_Phase, PhaseFuture, List[np.ndarray]]] = None

    def delta(phase: _Phase, half: str, part: int, local: np.ndarray):
        indices = None if phase.indices == "stashed" and changed_deltas else local
        if half == _INTERIOR:
            return indices
        head: Tuple[Any, ...] = (indices, iteration) if phase.scalar else (indices,)
        return head + tuple(tracker.take(name, part, arrays[name]) for name in phase.reads)

    def land(phase: _Phase, future, vertices: List[np.ndarray], mark: bool) -> None:
        # Interior results scatter with no change tracking: an interior vertex
        # is in no part's halo, so marking it is provably a no-op on every
        # dirty mask — the skip is what makes the split cheaper, not just
        # equivalent.
        arr = arrays[phase.writes]
        touched = []
        for wl, out in zip(vertices, future.result()):
            idx, values = _targets(phase, wl, out)
            if mark:
                touched.append(_scatter_changed(arr, idx, values))
            else:
                arr[idx] = values
        if mark:
            tracker.mark(phase.writes, touched)

    t0 = time.perf_counter()
    try:
        prepared: Dict[str, Tuple[List[int], Dict]] = {}
        while any(w.size for w in worklists[first]):
            if iteration >= limit:
                raise RuntimeError(
                    f"partitioned {what} did not converge within {limit} iterations"
                )
            sizes.append(tuple(int(sum(w.size for w in wls)) for wls in worklists.values()))
            for phase in phases:
                name = phase.worklist
                if name not in prepared:
                    prepared[name] = _prepare(layout, worklists[name], split)
                live, subs = prepared[name]
                if charge is not None:
                    _exchange_traffic(traffic, layout, charge, live)
                futures = [
                    session.run_async(
                        functools.partial(_phase_task, phase, half),
                        [(i, delta(phase, half, i, subs[i][h][1])) for i in live],
                        commit=half != _BOUNDARY,
                    )
                    for h, half in enumerate(schedule)
                ]
                if late is not None:
                    land(*late, mark=False)
                land(phase, futures[0], [subs[i][0][0] for i in live], mark=True)
                late = (phase, futures[1], [subs[i][1][0] for i in live]) if split else None
                supersteps += 1
                if phase.compacts:
                    if late is not None:
                        land(*late, mark=False)
                        late = None
                    for c in phase.compacts:
                        worklists[c] = [w[keep[c](w)] for w in worklists[c]]
                        prepared.pop(c, None)
                charge = int(arrays[phase.writes].itemsize) if phase.exchange else None
            iteration += 1
        if charge is not None:
            # The last phase's exchange is read by the parts live in the next
            # iteration — none, now that the loop has ended, but the traffic
            # model still records the (empty) exchange.
            _exchange_traffic(traffic, layout, charge, [])
    finally:
        session.close()
    elapsed = time.perf_counter() - t0
    return iteration, sizes, layout.stats(supersteps, session=session, elapsed_seconds=elapsed)


# ------------------------------------------------------------------- kernels
def partitioned_kk_mis2(
    graph: CSRGraph,
    partitions: PartitionSpec,
    priority_scheme: Union[str, PriorityScheme] = PriorityScheme.XORSTAR,
    simd: Optional[bool] = None,
    word_bits: int = 64,
    seed: int = 0,
    backend: "Optional[str | ExecutionBackend]" = None,
    resident: bool = True,
    changed_deltas: bool = True,
    overlap: bool = True,
):
    """Algorithm 1 executed partition-parallel; bit-identical to :func:`kk_mis2`.

    Each main-loop iteration runs :data:`_KK_PHASES` — Refresh Row, Refresh
    Column, Decide, then owner-local worklist compaction — fanned over the
    parts through a rank-resident
    :class:`~repro.parallel.backends.ResidentSession`: each part's local CSR
    ships to its pinned worker once; every subsequent phase ships only the
    halo values *changed since the part's last refresh* (dense fallback when
    sparse would cost more) plus the iteration's worklist indices, sent once
    by Refresh Row and stashed worker-side for Decide.

    ``resident=False``, ``changed_deltas=False`` and ``overlap=False`` select
    the CI baseline modes described in the module docstring (overlap requires
    the resident seam and is ignored on non-resident runs). All combinations
    produce bit-identical results and identical shipped-byte/superstep counts
    per wire format — only wall-clock differs.
    """
    from ..mis.kk import SIMD_DEGREE_THRESHOLD, _max_iterations
    from ..mis.result import MISConfig, MISResult

    scheme = PriorityScheme.coerce(priority_scheme)
    B = resolve_backend(backend)
    layout = build_partition_layout(graph, partitions)
    n = graph.num_vertices
    if simd is None:
        simd = graph.average_degree() >= SIMD_DEGREE_THRESHOLD
    config = MISConfig(
        algorithm="kk",
        k=2,
        priority_scheme=scheme.value,
        use_worklists=True,
        packed_tuples=True,
        simd=bool(simd),
        word_bits=word_bits,
        seed=seed,
        backend=B.name,
        partitions=layout.num_parts,
    )
    traffic = TrafficCounter(backend=B.name)
    packer = TuplePacking(n, word_bits=word_bits)
    OUT = packer.out_value
    T = packer.pack(np.zeros(n, dtype=packer.dtype), np.arange(n, dtype=np.int64))
    M = np.full(n, OUT, dtype=packer.dtype)
    owned = [p.owned for p in layout.parts]
    iterations, worklist_sizes, stats = _run_supersteps(
        B,
        layout,
        f"{layout.token}/kk2/{scheme.value}/s{seed}/w{word_bits}",
        [
            _resident_payload(p, n=n, word_bits=word_bits, scheme=scheme.value, seed=seed)
            for p in layout.parts
        ],
        _KK_PHASES,
        arrays={"T": T, "M": M},
        worklists={"w1": owned, "w2": list(owned)},
        keep={"w1": lambda w: packer.is_undecided(T[w]), "w2": lambda w: M[w] != OUT},
        traffic=traffic,
        limit=_max_iterations(n),
        what="MIS-2",
        resident=resident,
        changed_deltas=changed_deltas,
        overlap=overlap,
    )
    in_mask = packer.is_in(T)
    return MISResult(
        in_set=np.nonzero(in_mask)[0].astype(np.int64),
        in_mask=in_mask,
        iterations=iterations,
        worklist_sizes=worklist_sizes,
        traffic=traffic,
        config=config,
        partition_stats=stats,
    )


def partitioned_luby_mis1(
    graph: CSRGraph,
    partitions: PartitionSpec,
    priority_scheme: Union[str, PriorityScheme] = PriorityScheme.XORSTAR,
    seed: int = 0,
    backend: "Optional[str | ExecutionBackend]" = None,
    resident: bool = True,
    changed_deltas: bool = True,
    overlap: bool = True,
):
    """Luby's Algorithm A executed partition-parallel; bit-identical to
    :func:`luby_mis1`.

    Each round runs :data:`_LUBY_PHASES`: priority refresh (owner-local),
    winner selection (reads ghost priorities/statuses) and neighbour removal
    (owner-computes: an undecided owned vertex goes OUT when any neighbour —
    local or ghost — just joined the set). Runs through a rank-resident
    session: the per-part CSR ships once, supersteps ship *changed* halo
    status/priority values, and the candidate indices ship once per round
    (the priority phase stashes them; selection reads the stash and removal
    filters it against the part's own post-selection statuses, so neither
    later phase receives index arrays). ``resident=False`` restores the
    ship-everything baseline, ``changed_deltas=False`` the full-halo wire
    format, ``overlap=False`` the barrier schedule — results are
    bit-identical in every combination.
    """
    from ..mis.kk import _max_iterations
    from ..mis.result import MISConfig, MISResult

    scheme = PriorityScheme.coerce(priority_scheme)
    B = resolve_backend(backend)
    layout = build_partition_layout(graph, partitions)
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
        partitions=layout.num_parts,
    )
    traffic = TrafficCounter(backend=B.name)
    status = np.full(n, _LUBY_UNDECIDED, dtype=np.uint8)
    rounds, _, stats = _run_supersteps(
        B,
        layout,
        f"{layout.token}/luby1/{scheme.value}/s{seed}",
        [
            _resident_payload(
                p,
                n=n,
                scheme=scheme.value,
                seed=seed,
                undecided=_LUBY_UNDECIDED,
                in_value=_LUBY_IN,
                out_value=_LUBY_OUT,
            )
            for p in layout.parts
        ],
        _LUBY_PHASES,
        arrays={"status": status, "priority": np.zeros(n, dtype=np.uint64)},
        worklists={"cand": [p.owned for p in layout.parts]},
        keep={"cand": lambda w: status[w] == _LUBY_UNDECIDED},
        traffic=traffic,
        limit=_max_iterations(n),
        what="Luby MIS-1",
        resident=resident,
        changed_deltas=changed_deltas,
        overlap=overlap,
    )
    in_mask = status == _LUBY_IN
    return MISResult(
        in_set=np.nonzero(in_mask)[0].astype(np.int64),
        in_mask=in_mask,
        iterations=rounds,
        traffic=traffic,
        config=config,
        partition_stats=stats,
    )


def partitioned_greedy_color(
    graph: CSRGraph,
    partitions: PartitionSpec,
    max_rounds: Optional[int] = None,
    backend: "Optional[str | ExecutionBackend]" = None,
    resident: bool = True,
    changed_deltas: bool = True,
    overlap: bool = True,
):
    """Speculative greedy coloring executed partition-parallel; bit-identical to
    :func:`greedy_color`.

    Each round runs :data:`_COLOR_PHASES`: speculative assignment (reads
    ghost colors) and conflict resolution (the higher-global-id endpoint of a
    same-color edge is uncolored by its owning part — the same deterministic
    tie-break as the unpartitioned kernel); the uncolored vertices form the
    next round's worklist. Runs through a rank-resident session: the
    per-part CSR ships once, supersteps ship *changed* halo colors, and the
    round's worklist indices ship once with the assignment phase (the
    conflict phase reads the worker-side stash). ``resident=False``
    restores the ship-everything baseline, ``changed_deltas=False`` the
    full-halo wire format, ``overlap=False`` the barrier schedule — results
    are bit-identical in every combination.
    """
    from ..coloring.greedy import ColoringResult

    B = resolve_backend(backend)
    layout = build_partition_layout(graph, partitions)
    n = graph.num_vertices
    traffic = TrafficCounter(backend=B.name)
    colors = -np.ones(n, dtype=np.int64)
    max_colors = graph.max_degree() + 1
    rounds, _, stats = _run_supersteps(
        B,
        layout,
        f"{layout.token}/greedy/m{max_colors}",
        [_resident_payload(p, max_colors=max_colors) for p in layout.parts],
        _COLOR_PHASES,
        arrays={"colors": colors},
        worklists={"wl": [p.owned for p in layout.parts]},
        keep={"wl": lambda w: colors[w] == -1},
        traffic=traffic,
        limit=max_rounds if max_rounds is not None else n + 2,
        what="greedy coloring",
        resident=resident,
        changed_deltas=changed_deltas,
        overlap=overlap,
    )
    used = np.unique(colors)
    remap = -np.ones(int(used.max(initial=-1)) + 1, dtype=np.int64)
    remap[used] = np.arange(used.size, dtype=np.int64)
    return ColoringResult(
        remap[colors],
        int(used.size),
        rounds,
        traffic,
        distance=1,
        backend=B.name,
        partitions=layout.num_parts,
        partition_stats=stats,
    )
