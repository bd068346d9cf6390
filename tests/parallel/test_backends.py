"""Tests for the ExecutionBackend registry, selection machinery and backends."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.graph import from_edges, path_graph, random_gnp
from repro.mis import kk_mis2
from repro.parallel import (
    ChunkedBackend,
    ExecutionBackend,
    NumbaBackend,
    NumpyBackend,
    ThreadedBackend,
    available_backends,
    default_backend,
    exclusive_scan,
    get_backend,
    numba_available,
    register_backend,
    resolve_backend,
    set_default_backend,
)
from repro.parallel import backends, distributed
from repro.parallel.backends import _REGISTRY


def _graph_mis_size(graph):
    """Module-level so the process-pool test can pickle it."""
    return int(kk_mis2(graph).in_set.size)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == [
            "numpy",
            "chunked",
            "threaded",
            "numba",
            "distributed",
        ]

    def test_get_backend_by_name_and_instance(self):
        np_backend = get_backend("numpy")
        assert isinstance(np_backend, NumpyBackend)
        assert get_backend(np_backend) is np_backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("cuda")

    def test_register_rejects_duplicates_and_non_backends(self):
        with pytest.raises(ValueError):
            register_backend(NumpyBackend())
        with pytest.raises(TypeError):
            register_backend("numpy")

    def test_register_overwrite(self):
        original = get_backend("chunked")
        replacement = ChunkedBackend(block_elements=128)
        try:
            register_backend(replacement, overwrite=True)
            assert get_backend("chunked") is replacement
        finally:
            register_backend(original, overwrite=True)


class TestDefaultBackend:
    def test_default_is_numpy(self):
        assert default_backend().name == "numpy"
        assert resolve_backend(None) is default_backend()

    def test_resolve_by_name(self):
        assert resolve_backend("chunked").name == "chunked"

    def test_set_default_backend_context_restores(self):
        before = default_backend()
        with set_default_backend("chunked") as active:
            assert active.name == "chunked"
            assert default_backend().name == "chunked"
            # Kernels called without backend= pick up the scoped default.
            result = kk_mis2(path_graph(8))
            assert result.config.backend == "chunked"
        assert default_backend() is before

    def test_set_default_backend_plain_call(self):
        before = default_backend()
        try:
            set_default_backend("chunked")
            assert default_backend().name == "chunked"
        finally:
            set_default_backend(before)

    def test_context_restores_on_exception(self):
        before = default_backend()
        with pytest.raises(RuntimeError):
            with set_default_backend("chunked"):
                raise RuntimeError("boom")
        assert default_backend() is before


class TestChunkedBackend:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            ChunkedBackend(block_elements=0)
        with pytest.raises(ValueError):
            ChunkedBackend(processes=0)

    def test_segment_blocks_never_split_segments(self):
        B = ChunkedBackend(block_elements=4)
        # Segment lengths 3, 3, 10, 1: the 10-element segment exceeds the block
        # size and must still land in a block of its own.
        seg = exclusive_scan(np.array([3, 3, 10, 1]))
        blocks = B._segment_blocks(seg)
        assert blocks[0] == (0, 1) or blocks[0] == (0, 2)
        covered = []
        for s, e in blocks:
            assert s < e
            covered.extend(range(s, e))
        assert covered == [0, 1, 2, 3]

    def test_chunked_scan_matches_reference_int(self):
        B = ChunkedBackend(block_elements=7)
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 100, size=1000)
        assert np.array_equal(B.exclusive_scan(vals), exclusive_scan(vals))
        assert np.array_equal(B.inclusive_scan(vals), np.cumsum(vals))
        assert B.exclusive_scan(vals).dtype == exclusive_scan(vals).dtype

    def test_chunked_scan_floats_delegate(self):
        B = ChunkedBackend(block_elements=7)
        vals = np.linspace(0.0, 1.0, 100)
        assert np.array_equal(B.exclusive_scan(vals), exclusive_scan(vals))

    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32, np.int32, np.int64, np.bool_])
    @pytest.mark.parametrize("size", [7, 8, 9, 100])
    def test_chunked_scan_dtype_independent_of_size(self, dtype, size):
        # Regression: the blocked path used to force int64 while inputs below
        # block_elements took the reference's promoted dtype (uint64 for
        # unsigned inputs), so the output dtype flipped at the block boundary.
        B = ChunkedBackend(block_elements=8)
        vals = (np.arange(size) % 3).astype(dtype)
        ref_inc = np.cumsum(vals)
        out_inc = B.inclusive_scan(vals)
        assert out_inc.dtype == ref_inc.dtype, (dtype, size)
        assert np.array_equal(out_inc, ref_inc)
        ref_exc = exclusive_scan(vals)
        out_exc = B.exclusive_scan(vals)
        assert out_exc.dtype == ref_exc.dtype, (dtype, size)
        assert np.array_equal(out_exc, ref_exc)

    def test_chunked_compact_matches_reference(self):
        B = ChunkedBackend(block_elements=16)
        rng = np.random.default_rng(1)
        items = rng.integers(0, 1000, size=500)
        keep = rng.random(500) < 0.3
        assert np.array_equal(B.stream_compact(items, keep), items[keep])

    def test_chunked_expand_rows_matches_reference(self):
        B = ChunkedBackend(block_elements=8)
        ref = NumpyBackend()
        g = random_gnp(150, 0.05, seed=5)
        rows = np.arange(g.num_vertices, dtype=np.int64)
        s_ref, seg_ref = ref.expand_rows(g.rowmap, rows)
        s_chk, seg_chk = B.expand_rows(g.rowmap, rows)
        assert np.array_equal(s_ref, s_chk)
        assert np.array_equal(seg_ref, seg_chk)

    def test_map_graphs_process_pool_preserves_order(self):
        graphs = [random_gnp(40, 0.1, seed=s) for s in range(4)]
        serial = NumpyBackend().map_graphs(_graph_mis_size, graphs)
        pooled = ChunkedBackend(processes=2).map_graphs(_graph_mis_size, graphs)
        inline = ChunkedBackend(processes=1).map_graphs(_graph_mis_size, graphs)
        assert pooled == serial == inline

    def test_error_paths_match_reference(self):
        B = ChunkedBackend(block_elements=4)
        with pytest.raises(ValueError):
            B.stream_compact(np.array([1, 2]), np.array([True]))
        with pytest.raises(ValueError):
            B.exclusive_scan(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            B.segmented_lexmin([], np.array([0]), [])


class TestThreadedBackend:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            ThreadedBackend(threads=0)

    def test_map_graphs_thread_pool_preserves_order(self):
        graphs = [random_gnp(40, 0.1, seed=s) for s in range(4)]
        serial = NumpyBackend().map_graphs(_graph_mis_size, graphs)
        pooled = ThreadedBackend(threads=3).map_graphs(_graph_mis_size, graphs)
        inline = ThreadedBackend(threads=1).map_graphs(_graph_mis_size, graphs)
        assert pooled == serial == inline

    def test_primitives_are_the_reference(self):
        # The threaded backend accelerates only map_graphs; per-graph primitives
        # delegate to the NumPy reference, so equivalence is structural.
        B = ThreadedBackend()
        vals = np.arange(20)
        assert np.array_equal(B.exclusive_scan(vals), exclusive_scan(vals))

    def test_requestable_by_name(self):
        result = kk_mis2(path_graph(8), backend="threaded")
        assert result.config.backend == "threaded"


class TestWithJobs:
    def test_serial_backends_ignore_jobs(self):
        B = NumpyBackend()
        assert B.with_jobs(4) is B
        assert B.with_jobs(None) is B

    def test_chunked_clone_keeps_block_size(self):
        B = ChunkedBackend(block_elements=512)
        clone = B.with_jobs(3)
        assert clone is not B
        assert clone.processes == 3
        assert clone.block_elements == 512
        assert B.processes is None  # registered instance untouched
        assert B.with_jobs(None) is B

    def test_threaded_clone(self):
        B = ThreadedBackend()
        clone = B.with_jobs(2)
        assert clone is not B
        assert clone.threads == 2
        assert B.threads is None


class TestNumbaBackend:
    def test_reports_availability(self):
        B = NumbaBackend()
        assert B.available == numba_available()

    def test_degrades_to_numpy_reference(self):
        # Whether or not numba is installed, results must equal the reference.
        B = NumbaBackend()
        ref = NumpyBackend()
        rng = np.random.default_rng(2)
        lens = rng.integers(0, 6, size=50)
        seg = exclusive_scan(lens)
        values = rng.integers(0, 1000, size=int(seg[-1])).astype(np.uint64)
        ident = np.uint64(2**64 - 1)
        assert np.array_equal(
            B.segmented_min(values, seg, ident), ref.segmented_min(values, seg, ident)
        )
        assert np.array_equal(
            B.segmented_max(values, seg, np.uint64(0)),
            ref.segmented_max(values, seg, np.uint64(0)),
        )
        assert np.array_equal(B.segmented_sum(values, seg), ref.segmented_sum(values, seg))

    def test_requestable_by_name_without_numba(self):
        result = kk_mis2(from_edges(5, [(0, 1), (1, 2), (3, 4)]), backend="numba")
        assert result.config.backend == "numba"

    def test_float_nan_matches_nan_propagating_reference(self):
        # Regression: the jitted </> comparison loops skip NaN (NaN < x is
        # False), diverging from the reference's np.minimum/np.maximum, which
        # propagate it. Float inputs must delegate to the reference.
        B = NumbaBackend()
        ref = NumpyBackend()
        values = np.array([1.0, np.nan, 3.0, 2.0, np.nan, 0.5])
        seg = np.array([0, 3, 6], dtype=np.int64)
        for op in ("segmented_min", "segmented_max"):
            out = getattr(B, op)(values, seg, np.inf)
            expect = getattr(ref, op)(values, seg, np.inf)
            assert out.dtype == expect.dtype
            assert np.array_equal(out, expect, equal_nan=True)
            assert np.isnan(out).all()  # every segment contains a NaN
        assert np.array_equal(
            B.segmented_sum(values, seg), ref.segmented_sum(values, seg), equal_nan=True
        )

    def test_float_without_nan_matches_reference(self):
        B = NumbaBackend()
        ref = NumpyBackend()
        rng = np.random.default_rng(3)
        values = rng.random(40)
        seg = exclusive_scan(np.array([5, 0, 10, 25]))
        assert np.array_equal(
            B.segmented_min(values, seg, np.inf), ref.segmented_min(values, seg, np.inf)
        )
        assert np.array_equal(
            B.segmented_max(values, seg, -np.inf), ref.segmented_max(values, seg, -np.inf)
        )

    def test_empty_input_dtype_matches_reference(self):
        # Regression: the empty-input output dtype must be the reference's
        # identity-derived choice, not a JIT-path variant.
        B = NumbaBackend()
        ref = NumpyBackend()
        empty = np.zeros(0, dtype=np.uint64)
        seg = np.array([0, 0, 0], dtype=np.int64)
        for identity in (np.uint64(2**64 - 1), 7, 1.5):
            out = B.segmented_min(empty, seg, identity)
            expect = ref.segmented_min(empty, seg, identity)
            assert out.dtype == expect.dtype, identity
            assert np.array_equal(out, expect)
        out_sum = B.segmented_sum(empty, seg)
        expect_sum = ref.segmented_sum(empty, seg)
        assert out_sum.dtype == expect_sum.dtype
        assert np.array_equal(out_sum, expect_sum)
        # Zero segments with non-empty values: output is empty but typed.
        values = np.arange(4, dtype=np.int64)
        none = np.array([0], dtype=np.int64)
        assert B.segmented_min(values, none, 0).dtype == ref.segmented_min(values, none, 0).dtype


def _install(token, part, payload, session_key, state):
    """Shorthand for the rank-side install task, called in-process."""
    return distributed._resident_install((token, part, payload, session_key, state))


class TestResidentInstallEviction:
    """Regression tests for the LRU eviction scan of ``_resident_install``."""

    @pytest.fixture(autouse=True)
    def _isolated_store(self, monkeypatch):
        monkeypatch.setattr(distributed, "_RESIDENT_PAYLOADS", OrderedDict())
        monkeypatch.setattr(distributed, "_RESIDENT_STATES", {})
        monkeypatch.setattr(distributed, "_RESIDENT_PAYLOAD_CAPACITY", 3)

    def test_protected_head_entry_does_not_block_eviction(self):
        # Interleave two tokens past capacity so the installing token's own
        # entry sits at the LRU head when capacity is exceeded. The eviction
        # scan used to *stop* at that protected head entry, leaving the store
        # over capacity with token B's stale payloads parked behind it forever.
        _install("A", 0, "pA0", 1, "sA0")
        _install("B", 0, "pB0", 2, "sB0")
        _install("B", 1, "pB1", 2, "sB1")
        _install("A", 1, "pA1", 1, "sA1")  # head is now ("A", 0): protected
        store = distributed._RESIDENT_PAYLOADS
        assert len(store) <= distributed._RESIDENT_PAYLOAD_CAPACITY
        # The oldest *other-token* entry was evicted; A's entries survive.
        assert ("B", 0) not in store
        assert set(store) == {("A", 0), ("B", 1), ("A", 1)}

    def test_installing_token_never_evicts_its_own_parts(self):
        # A session with more parts than capacity must keep every one of its
        # own payloads resident (over capacity is the lesser evil — evicting a
        # live session's parts would make it thrash within a single superstep).
        for part in range(5):
            _install("A", part, f"p{part}", 1, f"s{part}")
        store = distributed._RESIDENT_PAYLOADS
        assert set(store) == {("A", part) for part in range(5)}

    def test_eviction_is_oldest_first_among_unprotected(self):
        _install("B", 0, "pB0", 2, "sB0")
        _install("C", 0, "pC0", 3, "sC0")
        _install("B", 1, "pB1", 2, "sB1")
        _install("A", 0, "pA0", 1, "sA0")
        assert ("B", 0) not in distributed._RESIDENT_PAYLOADS  # oldest went first
        assert ("C", 0) in distributed._RESIDENT_PAYLOADS


def test_every_registered_backend_is_an_execution_backend():
    for name in available_backends():
        assert isinstance(_REGISTRY[name], ExecutionBackend)
        assert _REGISTRY[name].name == name


# ---------------------------------------------------------------- run_async


def _echo_delta(payload, state, delta):
    return delta


def _stash_delta(payload, state, delta):
    state["v"] = delta
    return None


def _read_stash(payload, state, delta):
    return state["v"]


class TestRunAsync:
    """The overlap seam: PhaseFuture resolution and _StepGroup accounting."""

    @staticmethod
    def _session(resident=True):
        payloads = [np.zeros(4, dtype=np.int64), np.zeros(2, dtype=np.int64)]
        states = [{"v": None}, {"v": None}]
        return backends._LocalResidentSession(
            "tok", payloads, states, resident=resident
        )

    @pytest.mark.parametrize("resident", [True, False])
    def test_split_phase_commits_one_superstep(self, resident):
        a = np.arange(3, dtype=np.int64)
        b = np.arange(5, dtype=np.int64)
        c = np.arange(2, dtype=np.int64)
        split = self._session(resident)
        fb = split.run_async(_echo_delta, [(0, a), (1, b)], commit=False)
        fi = split.run_async(_echo_delta, [(0, c)])
        # Resolving the committing member first must NOT commit the group
        # while the other member is pending — accounting is completion-order
        # independent.
        fi.result()
        assert split.supersteps == 0 and split.superstep_bytes == 0
        fb.result()
        assert split.supersteps == 1
        barrier = self._session(resident)
        barrier.run(_echo_delta, [(0, a), (1, b), (0, c)])
        assert split.supersteps == barrier.supersteps
        assert split.superstep_bytes == barrier.superstep_bytes
        assert split.max_superstep_bytes == barrier.max_superstep_bytes

    def test_result_is_cached(self):
        session = self._session()
        future = session.run_async(_echo_delta, [(0, np.arange(3))])
        assert not future.done
        first = future.result()
        assert future.done
        assert future.result() is first
        assert session.supersteps == 1  # no double commit

    def test_run_matches_run_async_accounting(self):
        delta = np.arange(6, dtype=np.int64)
        via_run = self._session()
        via_run.run(_echo_delta, [(0, delta)])
        via_async = self._session()
        via_async.run_async(_echo_delta, [(0, delta)]).result()
        assert via_run.superstep_bytes == via_async.superstep_bytes
        assert via_run.supersteps == via_async.supersteps

    def test_same_part_tasks_run_fifo_across_phases(self):
        # A boundary sub-phase's worker-side stash must be visible to the
        # interior sub-phase of the same part when futures resolve in
        # submission order — the chaining the overlapped drivers rely on.
        session = self._session()
        marker = np.arange(7, dtype=np.int64)
        fb = session.run_async(_stash_delta, [(0, marker)], commit=False)
        fi = session.run_async(_read_stash, [(0, None)])
        fb.result()
        (seen,) = fi.result()
        assert np.array_equal(seen, marker)
        assert session.supersteps == 1
