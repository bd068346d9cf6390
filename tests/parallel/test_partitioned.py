"""Unit tests for :mod:`repro.parallel.partitioned` (layout + drivers + seam)."""

import numpy as np
import pytest

from repro.coloring import greedy_color
from repro.graph import empty_graph, grid2d, path_graph, random_gnp
from repro.mis import kk_mis2, luby_mis1
from repro.parallel import (
    ChunkedBackend,
    NumpyBackend,
    build_partition_layout,
    get_backend,
    partition_vertices,
    partitioned_greedy_color,
    partitioned_kk_mis2,
    partitioned_luby_mis1,
    shipped_nbytes,
)
from repro.parallel.backends import _LocalResidentSession
from repro.parallel.distributed import (
    _CLUSTERS,
    _DistributedResidentSession,
    shutdown_rank_clusters,
)


class TestPartitionVertices:
    def test_single_part(self):
        g = path_graph(6)
        assert np.array_equal(partition_vertices(g, 1), np.zeros(6, dtype=np.int64))

    def test_power_of_two_uses_multilevel(self):
        g = grid2d(6, 6)
        labels = partition_vertices(g, 4)
        assert labels.shape == (36,)
        assert set(np.unique(labels)) <= {0, 1, 2, 3}

    def test_non_power_of_two_blocks_are_balanced(self):
        g = empty_graph(10)
        labels = partition_vertices(g, 3)
        sizes = np.bincount(labels, minlength=3)
        assert sizes.sum() == 10
        assert sizes.max() - sizes.min() <= 1

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            partition_vertices(path_graph(4), 0)

    def test_empty_graph(self):
        assert partition_vertices(empty_graph(0), 5).size == 0


class TestBuildLayout:
    def test_path_split_in_half(self):
        g = path_graph(6)
        layout = build_partition_layout(g, np.array([0, 0, 0, 1, 1, 1]))
        assert layout.num_parts == 2
        assert layout.cut_edges == 1
        left, right = layout.parts
        assert np.array_equal(left.owned, [0, 1, 2])
        assert np.array_equal(left.halo, [3])
        assert np.array_equal(left.boundary(), [2])
        assert np.array_equal(left.interior(), [0, 1])
        assert np.array_equal(right.halo, [2])
        assert np.array_equal(right.boundary(), [3])
        # Local CSR: owned rows carry adjacency, halo rows are empty.
        assert left.rowmap.size == left.ids.size + 1
        halo_local = left.local(left.halo)
        for h in halo_local:
            assert left.rowmap[h] == left.rowmap[h + 1]
        # Local entries resolve back to the global neighbours.
        v_local = int(left.local(np.array([2]))[0])
        nbrs = left.entries[left.rowmap[v_local]: left.rowmap[v_local + 1]]
        assert set(left.ids[nbrs].tolist()) == {1, 3}

    def test_layout_passthrough(self):
        g = path_graph(4)
        layout = build_partition_layout(g, 2)
        assert build_partition_layout(g, layout) is layout

    def test_rejects_bad_labels(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            build_partition_layout(g, np.array([0, 1]))
        with pytest.raises(ValueError):
            build_partition_layout(g, np.array([0, -1, 0, 1]))

    def test_empty_parts_allowed(self):
        g = path_graph(4)
        layout = build_partition_layout(g, np.array([0, 0, 3, 3]))
        assert layout.num_parts == 4
        assert layout.parts[1].num_owned == 0
        assert layout.parts[1].num_halo == 0

    def test_sparse_labels_rejected(self):
        # Hash-like labels would materialise max(label)+1 shards; refuse early.
        g = path_graph(4)
        with pytest.raises(ValueError, match="dense part ids"):
            build_partition_layout(g, np.array([0, 10**8, 0, 1]))

    def test_stats_accounting(self):
        g = grid2d(4, 4)
        layout = build_partition_layout(g, 4)
        stats = layout.stats(supersteps=9)
        assert stats.num_parts == 4
        assert stats.supersteps == 9
        assert stats.interior_vertices + stats.boundary_vertices == 16
        assert stats.cut_edges == layout.cut_edges
        assert stats.to_dict()["halo_vertices"] == layout.halo_vertices
        # Without a session the shipped-bytes fields default to zero.
        assert stats.resident_bytes == 0 and stats.superstep_bytes == 0
        assert "max_superstep_bytes" in stats.to_dict()

    def test_local_rejects_non_member_vertices(self):
        # Regression: a bare searchsorted silently mapped foreign global ids
        # onto arbitrary local indices; membership is now checked.
        g = path_graph(6)
        layout = build_partition_layout(g, np.array([0, 0, 0, 1, 1, 1]))
        left = layout.parts[0]
        # ids of part 0 are {0, 1, 2, 3 (halo)}; 5 is not local.
        with pytest.raises(ValueError, match="not local to part 0"):
            left.local(np.array([5]))
        # An id between members (4) and one past the end both fail.
        with pytest.raises(ValueError, match="not local"):
            left.local(np.array([0, 4]))
        with pytest.raises(ValueError, match="not local"):
            left.local(np.array([99]))
        # Valid queries (owned and halo) still resolve.
        assert np.array_equal(left.local(left.ids), np.arange(left.ids.size))
        # Empty query is fine.
        assert left.local(np.zeros(0, dtype=np.int64)).size == 0

    def test_layout_tokens_are_unique(self):
        g = path_graph(4)
        a = build_partition_layout(g, 2)
        b = build_partition_layout(g, 2)
        assert a.token != b.token


class TestDrivers:
    def test_single_part_degenerates_to_reference(self):
        g = random_gnp(40, 0.1, seed=5)
        ref = kk_mis2(g)
        out = kk_mis2(g, partitions=1)
        assert np.array_equal(ref.in_set, out.in_set)
        assert out.partition_stats.boundary_vertices == 0
        assert out.partition_stats.cut_edges == 0

    def test_empty_graph_all_drivers(self):
        g = empty_graph(0)
        assert kk_mis2(g, partitions=3).in_set.size == 0
        assert luby_mis1(g, partitions=3).in_set.size == 0
        assert greedy_color(g, partitions=3).num_colors == 0

    def test_worklist_ablation_rejected(self):
        with pytest.raises(ValueError):
            kk_mis2(path_graph(4), partitions=2, use_worklists=False)

    def test_partitioned_driver_direct_call(self):
        g = grid2d(5, 5)
        out = partitioned_kk_mis2(g, 4, backend="numpy")
        assert np.array_equal(out.in_set, kk_mis2(g).in_set)
        assert out.config.partitions == 4

    def test_config_and_stats_recorded(self):
        g = grid2d(5, 5)
        out = kk_mis2(g, partitions=2, backend="threaded")
        assert out.config.backend == "threaded"
        assert out.config.partitions == 2
        assert out.partition_stats.supersteps == 3 * out.iterations
        coloring = greedy_color(g, partitions=2)
        assert coloring.partitions == 2
        assert coloring.partition_stats.supersteps == 2 * coloring.rounds

    def test_unpartitioned_results_have_default_fields(self):
        g = path_graph(5)
        mis = kk_mis2(g)
        assert mis.config.partitions == 1
        assert mis.partition_stats is None
        coloring = greedy_color(g)
        assert coloring.partitions == 1
        assert coloring.partition_stats is None


class TestResidentSessions:
    """The rank-resident seam: ship the payload once, deltas per superstep."""

    @staticmethod
    def _payloads_states(k=3, size=100):
        payloads = [{"base": np.full(size, i, dtype=np.int64)} for i in range(k)]
        states = [{"acc": np.zeros(4, dtype=np.int64)} for _ in range(k)]
        return payloads, states

    def test_base_session_executes_and_mutates_state(self):
        payloads, states = self._payloads_states()
        session = NumpyBackend().map_partitions_resident("tok", payloads, states)
        outs = session.run(_resident_add, [(0, 5), (2, 7)])
        assert outs == [0 + 5, 2 + 7]
        # State mutation is retained across supersteps.
        outs = session.run(_resident_add, [(0, 1)])
        assert outs == [0 + 5 + 1]
        assert states[0]["acc"][0] == 6 and states[2]["acc"][0] == 7
        session.close()

    def test_accounting_resident_vs_baseline(self):
        payloads, states = self._payloads_states(k=2, size=50)
        per_payload = shipped_nbytes(payloads[0])
        per_state = shipped_nbytes(states[0])
        resident = NumpyBackend().map_partitions_resident("a", payloads, states)
        assert resident.resident_bytes == 2 * (per_payload + per_state)
        resident.run(_resident_add, [(0, 1), (1, 2)])
        resident.run(_resident_add, [(1, 3)])
        # Both directions are charged: scalar deltas out (8 logical bytes
        # each) and the scalar results back (8 each).
        assert resident.superstep_bytes == (16 + 16) + (8 + 8)
        assert resident.max_superstep_bytes == 32
        assert resident.supersteps == 2

        payloads, states = self._payloads_states(k=2, size=50)
        baseline = NumpyBackend().map_partitions_resident(
            "b", payloads, states, resident=False
        )
        assert baseline.resident_bytes == 0
        baseline.run(_resident_add, [(0, 1), (1, 2)])
        baseline.run(_resident_add, [(1, 3)])
        # Per task the baseline ships payload + state + delta out and the
        # mutated state + result back.
        round_trip = per_payload + 2 * per_state
        assert baseline.superstep_bytes == (2 * round_trip + 32) + (round_trip + 16)
        assert baseline.max_superstep_bytes == 2 * round_trip + 32

    def test_threaded_session_shares_state(self):
        payloads, states = self._payloads_states(k=4)
        session = get_backend("threaded").with_jobs(2).map_partitions_resident(
            "t", payloads, states
        )
        outs = session.run(_resident_add, [(i, 10) for i in range(4)])
        assert outs == [10, 11, 12, 13]
        assert [int(s["acc"][0]) for s in states] == [10, 10, 10, 10]

    def test_chunked_pinned_session_ships_payload_once(self):
        shutdown_rank_clusters()
        backend = ChunkedBackend(processes=2)
        payloads, states = self._payloads_states(k=3)
        with backend.map_partitions_resident("pin-1", payloads, states) as session:
            assert isinstance(session, _DistributedResidentSession)
            outs = session.run(_resident_add, [(0, 1), (1, 2), (2, 3)])
            assert outs == [1, 3, 5]
            # Rank-retained state accumulates without re-shipping payloads.
            outs = session.run(_resident_add, [(0, 10), (2, 30)])
            assert outs == [0 + 1 + 10, 2 + 3 + 30]
        # The rank cluster (keyed by width) persists for the next session, its
        # mirror holding each payload on rank ``part % 2``.
        assert sorted(_CLUSTERS) == [2]
        cluster = _CLUSTERS[2]
        assert all(cluster.known(part % 2, ("pin-1", part)) for part in range(3))
        shutdown_rank_clusters()
        assert not _CLUSTERS

    def test_chunked_session_reuses_cached_payload_across_runs(self):
        shutdown_rank_clusters()
        backend = ChunkedBackend(processes=2)
        # 32 KiB payloads, so one re-shipped payload dwarfs a whole session's
        # install, phase and framing traffic on the wire.
        payloads, states = self._payloads_states(k=2, size=4096)
        with backend.map_partitions_resident("reuse", payloads, states) as s1:
            assert s1.run(_resident_add, [(0, 1), (1, 1)]) == [1, 2]
        cluster = _CLUSTERS[2]
        assert cluster.known(0, ("reuse", 0)) and cluster.known(1, ("reuse", 1))
        # Same token, fresh states: the installs go out without the payload
        # (the ranks already hold it), the acks confirm it (a False ack would
        # re-ship the payload), and state starts clean.
        _, fresh_states = self._payloads_states(k=2, size=4096)
        with backend.map_partitions_resident("reuse", payloads, fresh_states) as s2:
            skipped = [
                known
                for entries, _ in s2._pending_install.values()
                for _, known in entries
            ]
            assert skipped == [True, True]
            assert s2.run(_resident_add, [(0, 5), (1, 5)]) == [5, 6]
            assert s2.measured_stats()["bytes_sent"] < shipped_nbytes(payloads[0])
        shutdown_rank_clusters()

    def test_chunked_nonresident_session_round_trips_state(self):
        backend = ChunkedBackend(processes=2)
        payloads, states = self._payloads_states(k=3)
        session = backend.map_partitions_resident(
            "nr", payloads, states, resident=False
        )
        # The non-resident baseline runs in process; only its accounting
        # charges the per-superstep round trip.
        assert isinstance(session, _LocalResidentSession)
        assert session.run(_resident_add, [(0, 1), (1, 2), (2, 3)]) == [1, 3, 5]
        assert session.run(_resident_add, [(0, 4)]) == [5]
        assert session.resident_bytes == 0 and session.superstep_bytes > 0

    def test_chunked_single_worker_falls_back_inline(self):
        shutdown_rank_clusters()
        backend = ChunkedBackend(processes=1)
        payloads, states = self._payloads_states(k=2)
        session = backend.map_partitions_resident("inline", payloads, states)
        assert isinstance(session, _LocalResidentSession)
        assert session.run(_resident_add, [(0, 2), (1, 2)]) == [2, 3]
        assert not _CLUSTERS  # no ranks for an inline session
        assert states[0]["acc"][0] == 2  # genuinely in-process

    def test_session_inside_pool_worker_stays_in_process(self):
        # A partitioned run inside a map_graphs process-pool worker must not
        # spawn rank processes of its own (cpu^2 oversubscription); the outer
        # pool already provides the parallelism.
        backend = ChunkedBackend(processes=2)
        for local, outs, clusters in backend.map_graphs(_session_in_worker, [0, 1]):
            assert local
            assert outs == [1, 2]
            assert clusters == []

    def test_payload_evicted_by_concurrent_sessions_is_reinstalled(self):
        # Crowd the shared ranks with enough other tokens to push the first
        # session's payloads out of the rank-side LRU store; its next phase
        # must transparently restore and retry, not abort the run.
        shutdown_rank_clusters()
        backend = ChunkedBackend(processes=2)
        payloads, states = self._payloads_states(k=2)
        with backend.map_partitions_resident("evicted", payloads, states) as victim:
            assert isinstance(victim, _DistributedResidentSession)
            assert victim.run(_resident_add, [(0, 1), (1, 1)]) == [1, 2]
            for n in range(20):  # rank store capacity is 16 per process
                others, other_states = self._payloads_states(k=2)
                with backend.map_partitions_resident(f"crowd-{n}", others, other_states) as s:
                    s.run(_resident_add, [(0, 0), (1, 0)])
            # State survived (it is session-keyed, not LRU-evicted), so the
            # accumulator continues from the pre-eviction value.
            assert victim.run(_resident_add, [(0, 2), (1, 3)]) == [0 + 1 + 2, 1 + 1 + 3]
        shutdown_rank_clusters()

    def test_more_parts_than_workers_share_ranks(self):
        shutdown_rank_clusters()
        backend = ChunkedBackend(processes=2)
        payloads, states = self._payloads_states(k=5)
        with backend.map_partitions_resident("wide", payloads, states) as session:
            outs = session.run(_resident_add, [(i, 100) for i in range(5)])
            assert outs == [100 + i for i in range(5)]
        # One two-rank cluster holds all five parts, part ``i`` on rank ``i % 2``.
        assert sorted(_CLUSTERS) == [2]
        cluster = _CLUSTERS[2]
        assert all(cluster.known(i % 2, ("wide", i)) for i in range(5))
        assert not any(cluster.known((i + 1) % 2, ("wide", i)) for i in range(5))
        shutdown_rank_clusters()

    def test_kernel_bytes_accounting_on_drivers(self):
        g = random_gnp(60, 0.08, seed=2)
        resident = partitioned_kk_mis2(g, 4, resident=True)
        baseline = partitioned_kk_mis2(g, 4, resident=False)
        assert np.array_equal(resident.in_set, baseline.in_set)
        sr, sn = resident.partition_stats, baseline.partition_stats
        assert sr.supersteps == sn.supersteps
        assert sr.resident_bytes > 0 and sn.resident_bytes == 0
        # The headline win: after the one-time shipment, supersteps are O(halo).
        assert sr.resident_bytes + sr.superstep_bytes < sn.superstep_bytes
        assert sr.max_superstep_bytes < sn.max_superstep_bytes
        assert sr.max_superstep_bytes < sr.resident_bytes


class TestExchangeTraffic:
    """Regression: modelled ghost traffic charges only the live parts' halos."""

    def test_charges_only_live_parts(self):
        from repro.parallel.costmodel import TrafficCounter
        from repro.parallel.partitioned import _exchange_traffic

        g = path_graph(9)
        layout = build_partition_layout(g, np.array([0, 0, 0, 1, 1, 1, 2, 2, 2]))
        halos = [p.num_halo for p in layout.parts]
        assert sum(halos) == layout.halo_vertices > 0

        traffic = TrafficCounter()
        _exchange_traffic(traffic, layout, 8, [0, 2])
        expected = 8 * (halos[0] + halos[2])
        assert traffic.kernels[-1].bytes_read == expected
        assert traffic.kernels[-1].bytes_written == expected
        # No live parts -> a free exchange, not a full-layout charge.
        _exchange_traffic(traffic, layout, 8, [])
        assert traffic.kernels[-1].total_bytes == 0

    def test_driver_charges_less_than_full_layout_every_exchange(self):
        # Once worklists shrink, ghost_exchange regions must charge less than
        # value_bytes * halo_vertices (the old flat rate) on late supersteps.
        g = random_gnp(80, 0.06, seed=4)
        out = partitioned_kk_mis2(g, 4)
        layout_halo = out.partition_stats.halo_vertices
        exchanges = [k for k in out.traffic.kernels if k.name == "ghost_exchange"]
        assert exchanges
        assert all(k.bytes_read <= 8 * layout_halo for k in exchanges)
        assert any(k.bytes_read < 8 * layout_halo for k in exchanges)

    def test_trailing_exchange_charges_next_rounds_readers(self):
        # The exchange after the last phase of a round is read by the *next*
        # round's live parts; once everything converges there are no readers,
        # so each run's final trailing ghost_exchange must charge 0 bytes.
        from repro.parallel.partitioned import partitioned_greedy_color, partitioned_luby_mis1

        g = random_gnp(70, 0.08, seed=6)
        for driver in (partitioned_greedy_color, partitioned_luby_mis1):
            out = driver(g, 3)
            exchanges = [k for k in out.traffic.kernels if k.name == "ghost_exchange"]
            assert exchanges and exchanges[-1].total_bytes == 0


class TestShippedNbytes:
    """Regression: the meter must never count an unknown payload as free."""

    def test_known_types_have_logical_sizes(self):
        assert shipped_nbytes(None) == 0
        assert shipped_nbytes(np.zeros(10, dtype=np.int64)) == 80
        assert shipped_nbytes(7) == 8 and shipped_nbytes(1.5) == 8
        # NumPy scalars are charged by their dtype's itemsize (a flat 8-byte
        # word used to over-charge every narrow scalar); plain Python
        # bool/int/float remain one 8-byte word.
        assert shipped_nbytes(np.int32(3)) == 4 and shipped_nbytes(np.float32(1.0)) == 4
        assert shipped_nbytes(np.uint8(2)) == 1 and shipped_nbytes(np.bool_(True)) == 1
        assert shipped_nbytes(np.int64(3)) == 8 and shipped_nbytes(True) == 8
        assert shipped_nbytes("xorstar") == 7
        assert shipped_nbytes("héllo") == len("héllo".encode("utf-8"))
        assert shipped_nbytes(b"abc") == 3
        assert shipped_nbytes({"a": np.zeros(2), "b": (None, 1)}) == 16 + 8
        assert shipped_nbytes([np.zeros(0), "x"]) == 1

    def test_object_dtype_arrays_raise(self):
        # These used to ship for 0 bytes — invisible on every byte gate.
        with pytest.raises(TypeError, match="object-dtype"):
            shipped_nbytes(np.array([None, "a"], dtype=object))

    def test_unknown_types_raise(self):
        with pytest.raises(TypeError, match="unsupported payload type"):
            shipped_nbytes({1, 2, 3})
        with pytest.raises(TypeError, match="unsupported payload type"):
            shipped_nbytes(object())
        # ... even nested inside an otherwise-fine container.
        with pytest.raises(TypeError):
            shipped_nbytes({"ok": np.zeros(1), "bad": object()})


class _RecordingBackend(NumpyBackend):
    """Backend whose resident sessions log every submitted phase's (fn, tasks)
    stream plus each part's session-open state snapshot.

    It records ``run_async``, which both schedules submit through (``run`` is
    sugar for it). Every recorded ``fn`` is ``partial(_phase_task, phase,
    half)``, so ``fn.args`` names the phase-table row and the half.
    """

    def __init__(self):
        self.phases = []
        self.initial_states = None
        self.halo_locals = None

    def map_partitions_resident(self, token, payloads, states, resident=True):
        self.initial_states = [
            {k: np.copy(v) for k, v in state.items()} for state in states
        ]
        self.halo_locals = [p["halo_local"] for p in payloads]
        session = super().map_partitions_resident(token, payloads, states, resident)
        outer = self
        original_run_async = session.run_async

        def recording_run_async(fn, tasks, commit=True):
            tasks = list(tasks)
            outer.phases.append((fn, tasks))
            return original_run_async(fn, tasks, commit=commit)

        session.run_async = recording_run_async
        return session


class TestChangedDeltaReconstruction:
    """The tentpole invariant, end-to-end: cumulatively applying the sparse
    changed-halo updates a part receives reconstructs exactly the full-halo
    values the dense protocol ships at every phase — on the overlapped
    default schedule and on the barrier schedule."""

    def test_kk_changed_updates_rebuild_full_halo_stream(self):
        from repro.parallel.partitioned import _INTERIOR, _KK_PHASES

        refresh_row = _KK_PHASES[0]
        g = random_gnp(90, 0.07, seed=11)
        layout = build_partition_layout(g, 4)
        for overlap in (True, False):
            changed, full = _RecordingBackend(), _RecordingBackend()
            a = partitioned_kk_mis2(
                g, layout, backend=changed, changed_deltas=True, overlap=overlap
            )
            b = partitioned_kk_mis2(
                g, layout, backend=full, changed_deltas=False, overlap=overlap
            )
            assert np.array_equal(a.in_set, b.in_set)
            assert len(changed.phases) == len(full.phases)

            # Per (part, array) reconstruction state: the session-open halo values.
            recon = {
                (part, name): changed.initial_states[part][name][changed.halo_locals[part]]
                for part in range(layout.num_parts)
                for name in ("T", "M")
            }
            sparse_phases = 0
            for (fn_c, tasks_c), (fn_f, tasks_f) in zip(changed.phases, full.phases):
                assert fn_c.args == fn_f.args  # same phase-table row, same half
                assert [i for i, _ in tasks_c] == [i for i, _ in tasks_f]
                phase, half = fn_c.args
                if half == _INTERIOR:
                    # A bare sub-worklist: halo updates ride the boundary half.
                    continue
                if phase is refresh_row:
                    # The worklist ships identically in both formats.
                    for (_, (w_c, it_c)), (_, (w_f, it_f)) in zip(tasks_c, tasks_f):
                        assert np.array_equal(w_c, w_f) and it_c == it_f
                    continue
                (name,) = phase.reads
                for (part, delta_c), (_, delta_f) in zip(tasks_c, tasks_f):
                    positions, values = delta_c[-1]
                    dense_positions, dense_values = delta_f[-1]
                    assert dense_positions is None  # full-halo mode is always dense
                    mirror = recon[(part, name)]
                    if positions is None:
                        mirror[:] = values
                    else:
                        sparse_phases += 1
                        mirror[positions] = values
                    # The reconstruction invariant.
                    assert np.array_equal(mirror, dense_values)
            assert sparse_phases > 0  # the changed format genuinely went sparse

    def test_decide_and_conflict_phases_ship_no_worklist_indices(self):
        # ... nor do Luby's select and remove phases: every phase that reads
        # the worker stash receives None where the indices would go.
        from repro.parallel.partitioned import (
            _COLOR_PHASES,
            _INTERIOR,
            _KK_PHASES,
            _LUBY_PHASES,
        )

        g = grid2d(6, 8)
        for overlap in (True, False):
            for phases, run in (
                (
                    _KK_PHASES[2:],
                    lambda b: partitioned_kk_mis2(g, 3, backend=b, overlap=overlap),
                ),
                (
                    _COLOR_PHASES[1:],
                    lambda b: partitioned_greedy_color(g, 3, backend=b, overlap=overlap),
                ),
                (
                    _LUBY_PHASES[1:],
                    lambda b: partitioned_luby_mis1(g, 3, backend=b, overlap=overlap),
                ),
            ):
                recorder = _RecordingBackend()
                run(recorder)
                for phase in phases:
                    assert phase.indices == "stashed"
                    seen = [
                        (fn.args[1], delta)
                        for fn, tasks in recorder.phases
                        if fn.args[0] is phase
                        for _, delta in tasks
                    ]
                    assert seen
                    for half, delta in seen:
                        # The worklist comes from the worker stash.
                        assert (delta if half == _INTERIOR else delta[0]) is None


class TestSmokeGraphByteMonotonicity:
    """Satellite gate: on every smoke graph the resident path's largest
    superstep never exceeds the non-resident baseline's, and changed deltas
    never ship more than the full-halo format."""

    @pytest.mark.parametrize("generator", ["laplace3d", "elasticity3d"])
    def test_resident_max_superstep_bounded_by_baseline(self, generator):
        from repro.graph.generators import elasticity3d, laplace3d

        g = laplace3d(10, 10, 10) if generator == "laplace3d" else elasticity3d(6, 6, 6)
        layout = build_partition_layout(g, 4)
        for kernel in (partitioned_kk_mis2, partitioned_greedy_color):
            res = kernel(g, layout).partition_stats
            base = kernel(g, layout, resident=False).partition_stats
            full = kernel(g, layout, changed_deltas=False).partition_stats
            assert res.supersteps == base.supersteps == full.supersteps
            assert res.max_superstep_bytes <= base.max_superstep_bytes
            assert res.resident_bytes + res.superstep_bytes < base.superstep_bytes
            # Changed deltas vs the full-halo wire format: strictly less in
            # total, never more in a single phase (the first ghost-reading
            # superstep is dense in both formats, so max may tie).
            assert res.superstep_bytes < full.superstep_bytes
            assert res.max_superstep_bytes <= full.max_superstep_bytes


def _resident_add(payload, state, delta):
    state["acc"][0] += delta
    return int(payload["base"][0] + state["acc"][0])


def _session_in_worker(_):
    payloads, states = TestResidentSessions._payloads_states(k=2)
    backend = ChunkedBackend(processes=2)
    with backend.map_partitions_resident("in-worker", payloads, states) as session:
        local = isinstance(session, _LocalResidentSession)
        outs = session.run(_resident_add, [(0, 1), (1, 1)])
    return local, outs, sorted(_CLUSTERS)


class TestOverlapEqualsBarrier:
    """Tentpole gate: the overlapped schedule is bit-identical to the
    barrier baseline — statuses AND every gated count (supersteps, all byte
    fields) — on every session backend and both delta wire formats."""

    @staticmethod
    def _deterministic(stats):
        return {k: v for k, v in stats.to_dict().items() if not k.endswith("_seconds")}

    @pytest.mark.parametrize("backend", ["numpy", "threaded", "chunked"])
    @pytest.mark.parametrize("changed_deltas", [True, False])
    def test_bit_identical_statuses_and_counts(self, backend, changed_deltas):
        g = grid2d(7, 9)
        layout = build_partition_layout(g, 3)
        for run, values in (
            (
                lambda ov: partitioned_kk_mis2(
                    g,
                    layout,
                    seed=0,
                    backend=backend,
                    changed_deltas=changed_deltas,
                    overlap=ov,
                ),
                lambda r: r.in_set,
            ),
            (
                lambda ov: partitioned_luby_mis1(
                    g,
                    layout,
                    seed=0,
                    backend=backend,
                    changed_deltas=changed_deltas,
                    overlap=ov,
                ),
                lambda r: r.in_set,
            ),
            (
                lambda ov: partitioned_greedy_color(
                    g,
                    layout,
                    backend=backend,
                    changed_deltas=changed_deltas,
                    overlap=ov,
                ),
                lambda r: r.colors,
            ),
        ):
            overlapped = run(True)
            barrier = run(False)
            assert np.array_equal(values(overlapped), values(barrier))
            assert self._deterministic(overlapped.partition_stats) == self._deterministic(
                barrier.partition_stats
            )

    def test_overlap_ignored_on_non_resident_runs(self):
        # Non-resident accounting re-ships payload+state per phase, so the
        # split schedule would double-charge it; overlap=True must fall back
        # to the barrier schedule there, bit-identically.
        g = grid2d(6, 6)
        layout = build_partition_layout(g, 3)
        a = partitioned_kk_mis2(g, layout, resident=False, overlap=True)
        b = partitioned_kk_mis2(g, layout, resident=False, overlap=False)
        assert np.array_equal(a.in_set, b.in_set)
        assert self._deterministic(a.partition_stats) == self._deterministic(
            b.partition_stats
        )

    def test_stats_timing_triple_present_and_finite(self):
        g = grid2d(6, 6)
        stats = kk_mis2(g, partitions=build_partition_layout(g, 2)).partition_stats
        for key in ("compute_seconds", "exchange_seconds", "idle_seconds"):
            value = stats.to_dict()[key]
            assert isinstance(value, float) and value >= 0.0
