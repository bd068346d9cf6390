"""Pluggable execution backends for the segmented-reduction core.

The paper's central claim is *performance portability*: one algorithm expressed
against a small set of data-parallel primitives (segmented reductions, scans,
stream compaction, row expansion) and mapped onto many devices by swapping the
execution backend underneath. This module is the Python analogue of that seam:
every graph kernel in the package (MIS-2, coloring, aggregation, cluster
Gauss-Seidel) calls the primitives through an :class:`ExecutionBackend` instead
of importing the NumPy implementations directly, so a backend can be swapped
per-call (``backend="chunked"``) or process-wide
(:class:`set_default_backend`).

Four backends ship with the package:

``numpy`` (:class:`NumpyBackend`)
    The reference: whole-worklist vectorised NumPy, delegating to
    :mod:`repro.parallel.primitives`. Every other backend must match it
    bit-for-bit — the determinism tests enforce this.

``chunked`` (:class:`ChunkedBackend`)
    Processes worklists in cache-sized blocks, splitting segmented operations
    only at segment boundaries so per-segment results are identical to the
    reference. Also fans batches of independent graphs out over a process pool
    (:meth:`ExecutionBackend.map_graphs`), the sharding hook for multi-graph
    benchmark sweeps; its resident partitioned sessions run on the rank
    processes of :mod:`repro.parallel.distributed`.

``threaded`` (:class:`ThreadedBackend`)
    Shared-memory parallelism: the per-graph primitives are the NumPy
    reference, but :meth:`ExecutionBackend.map_graphs` fans the batch out over
    a :class:`~concurrent.futures.ThreadPoolExecutor`. No pickling of tasks or
    graphs is needed, so it shards the benchmark sweeps with zero start-up
    cost (NumPy releases the GIL inside the large array kernels).

``numba`` (:class:`NumbaBackend`)
    JIT-compiled per-segment loops when :mod:`numba` is importable; degrades
    gracefully to the NumPy reference when it is not (``available`` is False
    then), so code can request it unconditionally.

All backends implement the same deterministic contract: primitives are pure
functions of their inputs and reductions evaluate associative operators per
segment, so results are bit-identical across backends for the integer dtypes
the kernels use. (Floating-point scans are delegated to the reference by the
chunked backend precisely to preserve this guarantee.)
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import primitives as _ref

__all__ = [
    "ExecutionBackend",
    "NumpyBackend",
    "ChunkedBackend",
    "ThreadedBackend",
    "NumbaBackend",
    "PhaseFuture",
    "StepGroupError",
    "ResidentSession",
    "register_backend",
    "get_backend",
    "available_backends",
    "default_backend",
    "resolve_backend",
    "set_default_backend",
    "numba_available",
    "shipped_nbytes",
    "shutdown_partition_pools",
]


def _pool_map(executor_cls, width: Optional[int], fn: Callable, items: Sequence) -> List:
    """Order-preserving pooled map shared by the chunked/threaded backends.

    ``width`` of ``None`` means the CPU count; a one-worker pool or a
    single-item batch executes inline.
    """
    workers = width if width is not None else max(1, os.cpu_count() or 1)
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with executor_cls(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def _in_worker_process() -> bool:
    """True when this process is itself a multiprocessing pool worker.

    A partitioned kernel running inside a ``map_graphs`` process-pool worker
    must not open rank processes of its own (cpu² oversubscription, and
    re-pickling every payload); its parts execute in process instead — the
    outer pool already provides the parallelism.
    """
    import multiprocessing

    return multiprocessing.parent_process() is not None


# Persistent thread pools for threaded resident sessions: a partitioned kernel
# runs several superstep phases per iteration, so paying pool spin-up on every
# phase is pointless. Pools are keyed by width, created lazily, shared by every
# ThreadedBackend instance in the process and torn down at interpreter exit.
_PARTITION_THREAD_POOLS: "Dict[int, ThreadPoolExecutor]" = {}  # guarded-by: _PARTITION_POOL_LOCK
_PARTITION_POOL_LOCK = threading.Lock()


def _partition_thread_pool(workers: int) -> ThreadPoolExecutor:
    with _PARTITION_POOL_LOCK:
        pool = _PARTITION_THREAD_POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(max_workers=workers)
            _PARTITION_THREAD_POOLS[workers] = pool
        return pool


def _drop_inherited_partition_pools() -> None:
    # Fork-started children inherit the parent's executor objects, whose worker
    # threads and queues belong to the parent (threads don't survive a fork at
    # all); drop the references so a child that does reach the pool path
    # builds its own.
    _PARTITION_THREAD_POOLS.clear()  # analysis-ok: lock-guard -- at-fork child is single-threaded; the inherited lock may be held by a parent thread that did not survive the fork, so taking it here could deadlock


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_drop_inherited_partition_pools)


def shutdown_partition_pools() -> None:
    """Shut down every persistent threaded-session pool (idempotent).

    The ranks behind chunked and distributed resident sessions stop with
    ``shutdown_rank_clusters``.
    """
    with _PARTITION_POOL_LOCK:
        pools = list(_PARTITION_THREAD_POOLS.values())
        _PARTITION_THREAD_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_partition_pools)


# ------------------------------------------------------------ resident sessions
#
# Every partitioned kernel run opens a *session* that ships each part's
# immutable payload (local CSR, index maps, static parameters) and its initial
# mutable state exactly once, pins part ``i`` to worker ``i % width`` for the
# life of the run, and afterwards ships only the per-superstep deltas
# (changed-only halo updates, once-per-iteration worklist indices, phase
# scalars) out and the touched-entry results back. Out of process the session
# is the rank protocol of :mod:`repro.parallel.distributed` — parts resident on
# rank processes, supersteps exchanging halo messages — and the chunked
# backend opens its resident sessions there too. This module holds the shared
# accounting base and the in-process session, which also runs the
# non-resident baseline (``resident=False``) on every backend: the base class
# charges that mode the full per-superstep round trip of payload+state.


def shipped_nbytes(obj: Any) -> int:
    """Logical byte size of a resident payload / superstep delta / result.

    Counts NumPy array payloads (``nbytes``), one 8-byte word per numeric
    scalar, the encoded length of strings/bytes, recursing through
    tuples/lists/dicts; ``None`` (an elided payload member, e.g. the dense
    marker of a sparse halo update) costs 0. The measure is *logical* — what
    the data costs to move, independent of how (or whether) a particular
    backend actually serialises it — so the shipped-bytes accounting recorded
    on partitioned results is bit-identical across backends and gateable by
    ``repro.bench compare``.

    Any other type raises ``TypeError``: this function *is* the meter, so an
    unrecognised payload member must never ship invisibly for free (it used to
    — strings, ``None`` and object-dtype arrays all counted 0 bytes).
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            raise TypeError(
                "shipped_nbytes: object-dtype arrays have no well-defined "
                "logical size; ship primitive-dtype arrays instead"
            )
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(shipped_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(shipped_nbytes(v) for v in obj)
    # NumPy scalars carry their dtype and must be checked before the plain
    # Python branch (np.float64 subclasses float): a np.float32 costs 4
    # bytes, a np.int8 or np.bool_ one — the flat 8-byte word this used to
    # charge over-counted every narrow scalar.
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return int(obj.itemsize)
    if isinstance(obj, (bool, int, float)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    raise TypeError(
        f"shipped_nbytes: unsupported payload type {type(obj).__name__!r}; "
        "every shipped member must have a defined logical size (arrays, "
        "numeric scalars, str/bytes, None, or containers of those)"
    )


class _StepGroup:
    """Accounting unit joining the sub-phases of one logical superstep.

    An overlapped driver splits a superstep phase into a boundary and an
    interior :meth:`ResidentSession.run_async` call; both must land in the
    *same* superstep of the byte accounting (one ``supersteps`` increment,
    one combined byte total, completion-order independent) or the overlap
    schedule would drift from the barrier baseline on every gated count.
    """

    __slots__ = ("bytes", "pending", "closed", "failed")

    def __init__(self) -> None:
        #: Bytes accumulated by the group's resolved sub-phases so far.
        self.bytes = 0
        #: Sub-phases submitted but not yet resolved.
        self.pending = 0
        #: True once the committing (final) sub-phase has been submitted.
        self.closed = False
        #: The exception that poisoned the group, if any member's collect
        #: raised. A failed group can never commit — its supersteps increment
        #: and byte totals are dropped wholesale rather than half-counted.
        self.failed: Optional[BaseException] = None


class StepGroupError(RuntimeError):
    """A sibling sub-phase of the same accounting superstep already failed.

    Raised by :meth:`PhaseFuture.result` (and by :meth:`ResidentSession.run_async`
    when asked to join a poisoned open group) so that a failure inside *one*
    member of a ``commit=False`` step group is loud on every member: no caller
    can quietly consume a sibling's results while the superstep's statistics
    were silently thrown away.
    """


class PhaseFuture:
    """Handle for an in-flight :meth:`ResidentSession.run_async` phase.

    :meth:`result` blocks until the phase's results are available, closes its
    share of the superstep byte accounting, and returns the per-task results
    in task order. Calling it again returns the cached results. The wait time
    spent inside :meth:`result` is metered on the session as ``idle_seconds``
    — coordinator time not hidden behind worker compute.
    """

    __slots__ = ("_session", "_group", "_tasks", "_outbound", "_collect", "_results", "_done")

    def __init__(self, session, group, tasks, outbound, collect) -> None:
        self._session = session
        self._group = group
        self._tasks = tasks
        self._outbound = outbound
        self._collect = collect
        self._results: List = []
        self._done = False

    @property
    def done(self) -> bool:
        """Whether :meth:`result` has already resolved this phase."""
        return self._done

    def result(self) -> List:
        if self._done:
            return self._results
        group = self._group
        if group.failed is not None:
            raise StepGroupError(
                "a sibling sub-phase of this superstep group already failed; "
                "the group's superstep/byte statistics were not committed"
            ) from group.failed
        session = self._session
        start = time.perf_counter()
        try:
            results = self._collect()
        except BaseException as exc:
            # Poison the whole group: siblings raise StepGroupError instead of
            # quietly resolving, and the group can never commit its partially
            # accumulated superstep/byte statistics.
            group.failed = exc
            session.idle_seconds += time.perf_counter() - start
            raise
        session.idle_seconds += time.perf_counter() - start
        step = self._outbound + sum(shipped_nbytes(r) for r in results)
        if not session.resident:
            step += sum(session._state_nbytes(i) for i, _ in self._tasks)
        group.bytes += step
        group.pending -= 1
        if group.closed and group.pending == 0:
            session.supersteps += 1
            session.superstep_bytes += group.bytes
            if group.bytes > session.max_superstep_bytes:
                session.max_superstep_bytes = group.bytes
        self._results = results
        self._done = True
        return results


class ResidentSession:
    """One partitioned kernel run's part-pinned execution handle.

    Created by :meth:`ExecutionBackend.resident_session` with the per-part
    immutable ``payloads`` and initial mutable ``states``; the driver then
    calls :meth:`run` once per superstep phase with ``(part_index, delta)``
    tasks. Every task function is ``fn(payload, state, delta) -> result`` —
    a pure function of the payload, the part's retained state and the delta
    that may mutate ``state`` in place (only its own part's state, which is
    what keeps any execution strategy deterministic).

    :meth:`run_async` is the overlap seam: it ships a phase and returns a
    :class:`PhaseFuture` immediately, so the driver can compute (or submit
    more phases) while workers chew. Two ordering guarantees make overlapped
    schedules deterministic: tasks for the *same part* execute in submission
    order (every implementation is per-part FIFO), and a phase's results are
    only observed through :meth:`PhaseFuture.result`. ``commit=False`` joins
    the next ``run_async`` call into the same accounting superstep — the
    boundary/interior halves of a split phase count as one superstep with one
    combined byte total, identical to the barrier schedule regardless of
    completion order.

    The base class implements the shipped-bytes accounting shared by every
    implementation, and it charges **both directions** of each superstep: the
    deltas shipped to the workers *and* the result arrays the workers return
    (the owned values the coordinator scatters back into the shared state are
    communication too — an outbound-only meter under-counts every phase). In
    resident mode each part's payload+state is charged once
    (``resident_bytes``) and each :meth:`run` charges deltas out + results
    back; in non-resident mode (``resident=False``, the pre-affinity
    baseline) every :meth:`run` additionally re-charges the live parts'
    payload+state outbound and the (possibly mutated) state returning with
    the results — exactly what shipping the whole task per superstep costs.
    """

    def __init__(
        self, token: str, payloads: Sequence, states: Sequence, resident: bool = True
    ) -> None:
        if len(payloads) != len(states):
            raise ValueError("payloads and states must have one entry per part")
        self.token = str(token)
        self.resident = bool(resident)
        self.num_parts = len(payloads)
        self._payload_bytes = [shipped_nbytes(p) for p in payloads]
        #: Bytes shipped once, at session open (0 in non-resident mode).
        self.resident_bytes = (
            sum(self._payload_bytes) + sum(shipped_nbytes(s) for s in states)
            if self.resident
            else 0
        )
        #: Bytes shipped across all supersteps so far (both directions).
        self.superstep_bytes = 0
        #: Largest single-superstep shipment (the O(changed halo) acceptance gate).
        self.max_superstep_bytes = 0
        #: Number of :meth:`run` calls (superstep phases) so far.
        self.supersteps = 0
        #: Coordinator wall-clock spent shipping phases (account + submit).
        self.ship_seconds = 0.0
        #: Coordinator wall-clock spent blocked in :meth:`PhaseFuture.result`.
        self.idle_seconds = 0.0
        #: Open accounting group for an uncommitted (``commit=False``) phase.
        self._group: Optional[_StepGroup] = None

    def _state_nbytes(self, part: int) -> int:
        """Live logical size of one part's mutable state (non-resident only).

        State sizes drift during a run (task functions stash worklists in
        state), so the non-resident charge is measured from the live state,
        not the session-open snapshot. Only the sessions that actually hold
        states coordinator-side implement this; resident pinned sessions never
        need it.
        """
        raise NotImplementedError

    def _account_out(self, tasks: Sequence[Tuple[int, Any]]) -> int:
        """Outbound bytes of one phase: deltas (+ payload & pre-phase state
        when non-resident). Called before the tasks run."""
        step = sum(shipped_nbytes(delta) for _, delta in tasks)
        if not self.resident:
            step += sum(
                self._payload_bytes[i] + self._state_nbytes(i) for i, _ in tasks
            )
        return step

    def _submit(self, fn: Callable, tasks: Sequence[Tuple[int, Any]]) -> Callable[[], List]:
        """Ship one phase's tasks and return a zero-argument collector.

        The collector blocks until the phase's results are available and
        returns them in task order. Implementations must execute same-part
        tasks in submission order (per-part FIFO) — that ordering is what
        lets overlapped drivers chain a boundary phase's worker-side stashes
        into the interior phase of the same superstep.
        """
        raise NotImplementedError

    def run_async(
        self, fn: Callable, tasks: Sequence[Tuple[int, Any]], commit: bool = True
    ) -> PhaseFuture:
        """Ship one superstep phase and return immediately with its future.

        ``commit=False`` leaves the accounting superstep open: the next
        ``run_async`` call joins the same :class:`_StepGroup`, and the group
        commits (one ``supersteps`` increment, combined byte total) only when
        every member future has resolved. The outbound charge (deltas, plus
        payload+pre-phase state in non-resident mode) is measured here, before
        anything executes; the inbound charge lands in
        :meth:`PhaseFuture.result`.
        """
        tasks = list(tasks)
        start = time.perf_counter()
        outbound = self._account_out(tasks)
        if self._group is not None and self._group.failed is not None:
            raise StepGroupError(
                "cannot join an open step group whose sibling sub-phase failed"
            ) from self._group.failed
        group = self._group if self._group is not None else _StepGroup()
        group.pending += 1
        if commit:
            group.closed = True
            self._group = None
        else:
            self._group = group
        collect = self._submit(fn, tasks)
        self.ship_seconds += time.perf_counter() - start
        return PhaseFuture(self, group, tasks, outbound, collect)

    def run(self, fn: Callable, tasks: Sequence[Tuple[int, Any]]) -> List:
        """Execute one superstep phase: ``fn(payload, state, delta)`` per task."""
        return self.run_async(fn, tasks).result()

    def close(self) -> None:
        """Release per-session worker state (idempotent)."""

    def __enter__(self) -> "ResidentSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class _LocalResidentSession(ResidentSession):
    """In-address-space session: payloads and states live in the session.

    The serial reference, the threaded backend and every backend's
    non-resident baseline use it — tasks read and mutate the caller's arrays
    directly, so it is trivially correct (nothing ever crosses a pickle
    boundary). An optional thread pool fans the per-part
    tasks out; each task touches only its own part's state, so the fan-out is
    race-free.
    """

    def __init__(
        self,
        token: str,
        payloads: Sequence,
        states: Sequence,
        resident: bool = True,
        pool: Optional[ThreadPoolExecutor] = None,
    ) -> None:
        super().__init__(token, payloads, states, resident=resident)
        self._payloads = list(payloads)
        self._states = list(states)
        self._pool = pool

    def _state_nbytes(self, part: int) -> int:
        return shipped_nbytes(self._states[part])

    def _submit(self, fn: Callable, tasks: Sequence[Tuple[int, Any]]) -> Callable[[], List]:
        # Lazy: nothing runs until the future is resolved, so pending phases
        # execute in result() order — which the drivers call in submission
        # order per part, preserving the per-part FIFO guarantee even with a
        # thread pool fanning out the tasks *within* one phase.
        calls = [(self._payloads[i], self._states[i], delta) for i, delta in tasks]
        pool = self._pool
        if pool is None or len(calls) <= 1:
            return lambda: [fn(p, s, d) for p, s, d in calls]
        return lambda: list(pool.map(lambda c: fn(*c), calls))


def numba_available() -> bool:
    """True when the optional :mod:`numba` dependency is importable."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


class ExecutionBackend:
    """Interface every execution backend implements.

    The base class provides the vectorised-NumPy reference behaviour for every
    primitive, so a backend only overrides the operations it accelerates. All
    overrides must be bit-identical to the reference for integer dtypes — the
    backend-equivalence test suite parametrises the full kernel stack over all
    registered backends and asserts exactly that.
    """

    #: Registry key and the name recorded on results / traffic counters.
    name: str = "abstract"

    # ------------------------------------------------------------------- scans
    def inclusive_scan(self, values: np.ndarray) -> np.ndarray:
        """Inclusive prefix sum (``out[i] = sum(values[:i+1])``)."""
        return _ref.inclusive_scan(values)

    def exclusive_scan(self, values: np.ndarray) -> np.ndarray:
        """Exclusive prefix sum, one element longer than the input."""
        return _ref.exclusive_scan(values)

    # -------------------------------------------------------------- compaction
    def stream_compact(self, items: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Stable stream compaction: keep ``items[i]`` where ``keep[i]``."""
        return _ref.stream_compact(items, keep)

    # -------------------------------------------------------------------- rows
    def row_lengths(self, rowmap: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Adjacency-list lengths of the selected CSR rows."""
        return _ref.row_lengths(rowmap, rows)

    def expand_rows(
        self, rowmap: np.ndarray, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expand selected CSR rows into flat (slots, segment_offsets) arrays."""
        return _ref.expand_rows(rowmap, rows)

    # -------------------------------------------------------------- reductions
    def segmented_min(
        self, values: np.ndarray, seg_offsets: np.ndarray, identity
    ) -> np.ndarray:
        """Per-segment minimum (identity for empty segments)."""
        return _ref.segmented_min(values, seg_offsets, identity)

    def segmented_max(
        self, values: np.ndarray, seg_offsets: np.ndarray, identity
    ) -> np.ndarray:
        """Per-segment maximum (identity for empty segments)."""
        return _ref.segmented_max(values, seg_offsets, identity)

    def segmented_sum(self, values: np.ndarray, seg_offsets: np.ndarray) -> np.ndarray:
        """Per-segment sum (0 for empty segments)."""
        return _ref.segmented_sum(values, seg_offsets)

    def segmented_all_equal(
        self, values: np.ndarray, reference: np.ndarray, seg_offsets: np.ndarray
    ) -> np.ndarray:
        """Per-segment "every value equals reference[j]" (vacuously True)."""
        return _ref.segmented_all_equal(values, reference, seg_offsets)

    def segmented_any_equal(
        self, values: np.ndarray, target, seg_offsets: np.ndarray
    ) -> np.ndarray:
        """Per-segment "any value equals target" (False for empty segments)."""
        return _ref.segmented_any_equal(values, target, seg_offsets)

    def segmented_lexmin(
        self,
        arrays: "List[np.ndarray]",
        seg_offsets: np.ndarray,
        identities: "List",
    ) -> "List[np.ndarray]":
        """Lexicographic per-segment minimum over parallel arrays."""
        return _ref.segmented_lexmin(arrays, seg_offsets, identities)

    # ------------------------------------------------------------ graph batches
    def map_graphs(self, fn: Callable, items: Sequence) -> List:
        """Apply ``fn`` to every item of a batch, preserving order.

        The reference executes serially; sharded backends may fan the batch out
        over a worker pool. ``fn`` must be a pure function so results are
        independent of the execution strategy.
        """
        return [fn(item) for item in items]

    def map_partitions_resident(
        self,
        token: str,
        payloads: Sequence,
        states: Sequence,
        resident: bool = True,
    ) -> ResidentSession:
        """Open a part-pinned session for one partitioned kernel run.

        ``payloads`` are the per-part *loop-invariant* inputs (local CSR, index
        maps, static parameters) and ``states`` the per-part mutable arrays;
        both ship once, identified by the layout ``token``. The returned
        :class:`ResidentSession` then executes each superstep phase via
        ``session.run(fn, [(part_index, delta), ...])`` where ``fn(payload,
        state, delta)`` may mutate only its own part's ``state`` — after the
        first superstep only the deltas (halo values, worklist indices, phase
        scalars) cross whatever boundary the backend has.

        The reference implementation keeps everything in the caller's address
        space (trivially correct for the serial and threaded backends); the
        chunked and distributed backends pin part ``i`` to rank process
        ``i % ranks`` over the rank protocol of
        :mod:`repro.parallel.distributed`. Pass ``resident=False`` for the
        non-resident baseline: it runs in process on every backend and is
        charged payload+state out and state back on every superstep.
        """
        return _LocalResidentSession(token, payloads, states, resident=resident)

    def with_jobs(self, jobs: Optional[int]) -> "ExecutionBackend":
        """A backend equivalent to this one with ``jobs`` ``map_graphs`` workers.

        Serial backends ignore the request and return themselves; pooled
        backends return a reconfigured clone (the registered instance is never
        mutated). ``None`` means "backend default".
        """
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyBackend(ExecutionBackend):
    """The vectorised whole-worklist NumPy reference backend."""

    name = "numpy"


class ChunkedBackend(ExecutionBackend):
    """Cache-blocked backend: segmented operations run in cache-sized blocks.

    Blocks are split only at segment boundaries, so every segment is reduced by
    exactly one reference call and results are bit-identical to
    :class:`NumpyBackend`. This mirrors how a CPU implementation tiles the
    worklist so each block's values stay resident in L2 while the reduction
    runs, and it bounds the temporary-array footprint of ``expand_rows`` on
    huge worklists.

    Parameters
    ----------
    block_elements:
        Target number of flat elements per block (default 32768, about 256 KiB
        of int64 values — comfortably cache-sized).
    processes:
        Worker-pool width for :meth:`map_graphs` and the rank count of
        resident sessions (:meth:`map_partitions_resident`). ``None`` uses the
        CPU count; 1 executes inline.
    """

    name = "chunked"

    def __init__(self, block_elements: int = 32768, processes: Optional[int] = None) -> None:
        if block_elements < 1:
            raise ValueError("block_elements must be >= 1")
        self.block_elements = int(block_elements)
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes

    # ------------------------------------------------------------------ helpers
    def _segment_blocks(self, seg_offsets: np.ndarray) -> List[Tuple[int, int]]:
        """Split segment indices into blocks of at most ~block_elements values.

        A segment larger than the block size gets a block of its own — segments
        are never split, which is what keeps per-segment results identical to
        the reference.
        """
        nseg = int(seg_offsets.size) - 1
        blocks: List[Tuple[int, int]] = []
        start = 0
        while start < nseg:
            target = int(seg_offsets[start]) + self.block_elements
            stop = int(np.searchsorted(seg_offsets, target, side="left"))
            stop = min(max(stop, start + 1), nseg)
            blocks.append((start, stop))
            start = stop
        return blocks

    def _chunk_segmented(self, seg_offsets: np.ndarray, run_block: Callable) -> np.ndarray:
        """Run ``run_block(s, e)`` over segment blocks and concatenate results."""
        seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
        blocks = self._segment_blocks(seg_offsets)
        pieces = [run_block(s, e) for s, e in blocks]
        return np.concatenate(pieces)

    def _small(self, seg_offsets) -> bool:
        """Fast path: a worklist that fits one block runs the reference directly."""
        seg_offsets = np.asarray(seg_offsets)
        return seg_offsets.size <= 2 or int(seg_offsets[-1]) <= self.block_elements

    # -------------------------------------------------------------------- scans
    def exclusive_scan(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise ValueError("exclusive_scan expects a 1-D array")
        # Blockwise float cumsum would reassociate additions; delegate floats to
        # the reference to keep results bit-identical across backends.
        if arr.dtype.kind not in "iub" or arr.size <= self.block_elements:
            return _ref.exclusive_scan(arr)
        out = np.zeros(arr.size + 1, dtype=np.int64)
        carry = np.int64(0)
        for start in range(0, arr.size, self.block_elements):
            stop = min(arr.size, start + self.block_elements)
            np.cumsum(arr[start:stop], out=out[start + 1: stop + 1])
            out[start + 1: stop + 1] += carry
            carry = out[stop]
        return out

    def inclusive_scan(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise ValueError("inclusive_scan expects a 1-D array")
        if arr.dtype.kind not in "iub" or arr.size <= self.block_elements:
            return _ref.inclusive_scan(arr)
        # The reference is np.cumsum, whose output dtype follows NumPy's
        # promotion rules (e.g. uint32 -> uint64, bool -> int64). Probe that
        # dtype on an empty slice so blocked results match the reference
        # exactly regardless of input size.
        out = np.empty(arr.size, dtype=np.cumsum(arr[:0]).dtype)
        carry = out.dtype.type(0)
        for start in range(0, arr.size, self.block_elements):
            stop = min(arr.size, start + self.block_elements)
            np.cumsum(arr[start:stop], out=out[start:stop])
            out[start:stop] += carry
            carry = out[stop - 1]
        return out

    # --------------------------------------------------------------- compaction
    def stream_compact(self, items: np.ndarray, keep: np.ndarray) -> np.ndarray:
        items = np.asarray(items)
        keep = np.asarray(keep, dtype=bool)
        if items.shape != keep.shape:
            raise ValueError("items and keep must have the same shape")
        if items.size <= self.block_elements:
            return _ref.stream_compact(items, keep)
        pieces = [
            _ref.stream_compact(
                items[s: s + self.block_elements], keep[s: s + self.block_elements]
            )
            for s in range(0, items.size, self.block_elements)
        ]
        return np.concatenate(pieces)

    # --------------------------------------------------------------------- rows
    def expand_rows(
        self, rowmap: np.ndarray, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        rowmap = np.asarray(rowmap, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        lens = _ref.row_lengths(rowmap, rows)
        bounds = _ref.exclusive_scan(lens)
        if self._small(bounds):
            return _ref.expand_rows(rowmap, rows)
        blocks = self._segment_blocks(bounds)
        slot_pieces: List[np.ndarray] = []
        seg_pieces: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
        offset = np.int64(0)
        for s, e in blocks:
            bslots, bseg = _ref.expand_rows(rowmap, rows[s:e])
            slot_pieces.append(bslots)
            seg_pieces.append(bseg[1:] + offset)
            offset += bseg[-1]
        return np.concatenate(slot_pieces), np.concatenate(seg_pieces)

    # --------------------------------------------------------------- reductions
    def _blocked_reduce(self, values, seg_offsets, reduce_block):
        values = np.asarray(values)
        seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
        if self._small(seg_offsets):
            return reduce_block(values, seg_offsets)

        def run(s: int, e: int) -> np.ndarray:
            lo, hi = seg_offsets[s], seg_offsets[e]
            return reduce_block(values[lo:hi], seg_offsets[s: e + 1] - lo)

        return self._chunk_segmented(seg_offsets, run)

    def segmented_min(self, values, seg_offsets, identity):
        return self._blocked_reduce(
            values, seg_offsets, lambda v, o: _ref.segmented_min(v, o, identity)
        )

    def segmented_max(self, values, seg_offsets, identity):
        return self._blocked_reduce(
            values, seg_offsets, lambda v, o: _ref.segmented_max(v, o, identity)
        )

    def segmented_sum(self, values, seg_offsets):
        return self._blocked_reduce(values, seg_offsets, _ref.segmented_sum)

    def segmented_any_equal(self, values, target, seg_offsets):
        return self._blocked_reduce(
            values, seg_offsets, lambda v, o: _ref.segmented_any_equal(v, target, o)
        )

    def segmented_all_equal(self, values, reference, seg_offsets):
        values = np.asarray(values)
        reference = np.asarray(reference)
        seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
        if self._small(seg_offsets):
            return _ref.segmented_all_equal(values, reference, seg_offsets)

        def run(s: int, e: int) -> np.ndarray:
            lo, hi = seg_offsets[s], seg_offsets[e]
            return _ref.segmented_all_equal(
                values[lo:hi], reference[s:e], seg_offsets[s: e + 1] - lo
            )

        return self._chunk_segmented(seg_offsets, run)

    def segmented_lexmin(self, arrays, seg_offsets, identities):
        if not arrays:
            raise ValueError("segmented_lexmin requires at least one array")
        arrays = [np.asarray(a) for a in arrays]
        seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
        if self._small(seg_offsets):
            return _ref.segmented_lexmin(arrays, seg_offsets, identities)
        blocks = self._segment_blocks(seg_offsets)
        pieces: List[List[np.ndarray]] = []
        for s, e in blocks:
            lo, hi = seg_offsets[s], seg_offsets[e]
            pieces.append(
                _ref.segmented_lexmin(
                    [a[lo:hi] for a in arrays], seg_offsets[s: e + 1] - lo, identities
                )
            )
        return [np.concatenate([p[i] for p in pieces]) for i in range(len(arrays))]

    # ------------------------------------------------------------- graph batches
    def map_graphs(self, fn: Callable, items: Sequence) -> List:
        """Fan a batch of independent per-graph computations over a process pool.

        Falls back to inline execution for single-item batches or a one-worker
        configuration. ``fn`` and the items must be picklable; order is
        preserved, so results are deterministic regardless of pool width.
        """
        return _pool_map(ProcessPoolExecutor, self.processes, fn, items)

    def map_partitions_resident(
        self,
        token: str,
        payloads: Sequence,
        states: Sequence,
        resident: bool = True,
    ) -> ResidentSession:
        """Open a rank-pinned session on the shared ``processes``-rank cluster.

        The session is the distributed backend's: part ``i`` resides on rank
        process ``i % processes``, whose payload cache is keyed by the layout
        token and persists across sessions, so the per-part CSR is pickled at
        most once per run. Single-worker configurations, single-part layouts,
        calls from inside a ``map_graphs`` pool worker and the non-resident
        baseline (``resident=False``) run in the in-process session.
        """
        workers = self.processes if self.processes is not None else max(1, os.cpu_count() or 1)
        if not resident or workers <= 1 or len(payloads) <= 1 or _in_worker_process():
            return _LocalResidentSession(token, payloads, states, resident=resident)
        # Looked up by name, as a kernel's ``backend="distributed"`` is. An
        # import would pull the transport's deadline and backoff clocks, which
        # never feed results, into the static determinism scope of
        # ``repro.analysis``.
        ranks = get_backend("distributed").with_jobs(workers)
        return ranks.map_partitions_resident(token, payloads, states)

    def with_jobs(self, jobs: Optional[int]) -> "ChunkedBackend":
        if jobs is None:
            return self
        return ChunkedBackend(block_elements=self.block_elements, processes=jobs)


class ThreadedBackend(ExecutionBackend):
    """Shared-memory threaded backend.

    The per-graph primitives are the NumPy reference (so per-graph results are
    trivially bit-identical), while :meth:`map_graphs` fans a batch of
    independent per-graph computations over a
    :class:`~concurrent.futures.ThreadPoolExecutor`. Unlike the chunked
    backend's process pool this needs no pickling: tasks share the caller's
    address space (and its graph caches), which makes it the cheapest way to
    shard a multi-graph benchmark sweep. NumPy releases the GIL inside the
    large array kernels, so independent graphs genuinely overlap.

    Parameters
    ----------
    threads:
        Worker-pool width for :meth:`map_graphs` and for the thread pool of
        resident sessions (:meth:`map_partitions_resident`). ``None`` uses the
        CPU count; 1 executes inline.
    """

    name = "threaded"

    def __init__(self, threads: Optional[int] = None) -> None:
        if threads is not None and threads < 1:
            raise ValueError("threads must be >= 1")
        self.threads = threads

    def map_graphs(self, fn: Callable, items: Sequence) -> List:
        """Fan a batch of independent per-graph computations over a thread pool.

        Order is preserved (results are deterministic regardless of pool
        width); single-item batches and one-thread configurations execute
        inline.
        """
        return _pool_map(ThreadPoolExecutor, self.threads, fn, items)

    def map_partitions_resident(
        self,
        token: str,
        payloads: Sequence,
        states: Sequence,
        resident: bool = True,
    ) -> ResidentSession:
        """In-process session fanned over the persistent thread pool.

        Payloads and states already live in the caller's address space, so the
        resident contract is free — tasks mutate their part's state directly
        and nothing is ever serialised. The shipped-bytes accounting still
        follows the requested mode so the recorded measurables stay
        bit-identical across backends.
        """
        workers = self.threads if self.threads is not None else max(1, os.cpu_count() or 1)
        pool = (
            _partition_thread_pool(workers)
            if workers > 1 and len(payloads) > 1
            else None
        )
        return _LocalResidentSession(token, payloads, states, resident=resident, pool=pool)

    def with_jobs(self, jobs: Optional[int]) -> "ThreadedBackend":
        if jobs is None:
            return self
        return ThreadedBackend(threads=jobs)


class NumbaBackend(NumpyBackend):
    """Numba-JIT backend with graceful degradation.

    When :mod:`numba` is importable the per-segment reduction loops run as
    compiled kernels (the shape a real OpenMP backend would take); when it is
    not, every primitive silently delegates to the NumPy reference so the
    backend can always be requested. ``available`` records which path is
    active.
    """

    name = "numba"

    def __init__(self) -> None:
        self._available: Optional[bool] = None
        self._kernels: Optional[Dict[str, Callable]] = None

    def __getstate__(self) -> Dict[str, object]:
        # Compiled numba dispatchers don't pickle reliably; drop them so the
        # backend can cross a process-pool boundary — workers recompile lazily.
        return {"_available": self._available, "_kernels": None}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    @property
    def available(self) -> bool:
        """Whether the JIT path is active (probed lazily — importing numba is
        expensive, and the backend is registered at package-import time)."""
        if self._available is None:
            self._available = numba_available()
        return self._available

    def _get_kernels(self) -> Optional[Dict[str, Callable]]:
        """Compile (once) and return the jitted kernels, or None unavailable."""
        if not self.available:
            return None
        if self._kernels is None:
            try:
                import numba

                @numba.njit(cache=False)
                def seg_min(values, offs, out):  # pragma: no cover - jitted
                    for j in range(out.size):
                        for k in range(offs[j], offs[j + 1]):
                            if values[k] < out[j]:
                                out[j] = values[k]

                @numba.njit(cache=False)
                def seg_max(values, offs, out):  # pragma: no cover - jitted
                    for j in range(out.size):
                        for k in range(offs[j], offs[j + 1]):
                            if values[k] > out[j]:
                                out[j] = values[k]

                @numba.njit(cache=False)
                def seg_sum(values, offs, out):  # pragma: no cover - jitted
                    for j in range(out.size):
                        for k in range(offs[j], offs[j + 1]):
                            out[j] += values[k]

                self._kernels = {"min": seg_min, "max": seg_max, "sum": seg_sum}
            except Exception:
                # Any JIT failure (unsupported numba build, …) demotes the
                # backend to the NumPy reference for the rest of the process.
                self._available = False
                return None
        return self._kernels

    def _jit_reduce(self, kind: str, values, seg_offsets, identity):
        values = np.asarray(values)
        # The jitted loops compare with </> — on float inputs containing NaN
        # that diverges from the reference's NaN-propagating np.minimum /
        # np.maximum, and the empty-input output dtype is the reference's
        # choice (identity-derived), so both cases delegate: only non-empty
        # integer worklists take the JIT path.
        if values.dtype.kind not in "iu" or values.size == 0:
            return None
        kernels = self._get_kernels()
        if kernels is None:
            return None
        values = np.ascontiguousarray(values)
        seg_offsets = np.ascontiguousarray(np.asarray(seg_offsets, dtype=np.int64))
        nseg = max(int(seg_offsets.size) - 1, 0)
        out = np.full(nseg, identity, dtype=values.dtype)
        if nseg > 0:
            kernels[kind](values, seg_offsets, out)
        return out

    def segmented_min(self, values, seg_offsets, identity):
        out = self._jit_reduce("min", values, seg_offsets, identity)
        if out is None:
            return super().segmented_min(values, seg_offsets, identity)
        return out

    def segmented_max(self, values, seg_offsets, identity):
        out = self._jit_reduce("max", values, seg_offsets, identity)
        if out is None:
            return super().segmented_max(values, seg_offsets, identity)
        return out

    def segmented_sum(self, values, seg_offsets):
        values = np.asarray(values)
        zero = values.dtype.type(0) if values.size else 0
        out = self._jit_reduce("sum", values, seg_offsets, zero)
        if out is None:
            return super().segmented_sum(values, seg_offsets)
        return out


# ------------------------------------------------------------------- registry
_REGISTRY: "Dict[str, ExecutionBackend]" = {}


def register_backend(backend: ExecutionBackend, *, overwrite: bool = False) -> ExecutionBackend:
    """Register ``backend`` under its ``name`` for lookup by :func:`get_backend`."""
    if not isinstance(backend, ExecutionBackend):
        raise TypeError("backend must be an ExecutionBackend instance")
    if backend.name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(backend: "str | ExecutionBackend") -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        return _REGISTRY[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> List[str]:
    """Names of every registered backend, in registration order."""
    return list(_REGISTRY)


register_backend(NumpyBackend())
register_backend(ChunkedBackend())
register_backend(ThreadedBackend())
register_backend(NumbaBackend())

_DEFAULT: ExecutionBackend = _REGISTRY["numpy"]


def default_backend() -> ExecutionBackend:
    """The process-wide default backend (the NumPy reference unless changed)."""
    return _DEFAULT


def resolve_backend(backend: "Optional[str | ExecutionBackend]" = None) -> ExecutionBackend:
    """Resolve a kernel's ``backend=`` argument (None means the default)."""
    if backend is None:
        return _DEFAULT
    return get_backend(backend)


class set_default_backend:
    """Set the process-wide default backend, optionally scoped as a context.

    Usable both as a plain call (sets the default until changed again)::

        set_default_backend("chunked")

    and as a context manager that restores the previous default on exit::

        with set_default_backend("chunked"):
            kk_mis2(graph)   # runs on the chunked backend
    """

    def __init__(self, backend: "str | ExecutionBackend") -> None:
        global _DEFAULT
        self._previous = _DEFAULT
        self.backend = get_backend(backend)
        _DEFAULT = self.backend

    def __enter__(self) -> ExecutionBackend:
        return self.backend

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _DEFAULT
        _DEFAULT = self._previous
        return False
