"""Property-based tests of the partition-parallel execution layer.

The invariants the intra-graph sharding contract rests on: a layout is an
exact cover of the vertex set, boundary/halo relationships are symmetric
across the cut, and the partitioned kernels are independent of both the part
count and any permutation of the part labels — always bit-identical to the
unpartitioned reference.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coloring import greedy_color
from repro.mis import kk_mis2, luby_mis1
from repro.parallel import build_partition_layout, partition_vertices, partitioned_kk_mis2
from repro.parallel.partitioned import HaloDeltaTracker, _scatter_changed

from tests.properties.strategies import graphs

COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_labels(draw, max_parts: int = 5):
    """A random graph plus random (possibly unbalanced/empty-part) labels."""
    graph = draw(graphs())
    k = draw(st.integers(min_value=1, max_value=max_parts))
    n = graph.num_vertices
    labels = np.asarray(
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.int64
    )
    return graph, labels


@given(graphs(), st.integers(min_value=1, max_value=5))
@settings(**COMMON)
def test_partition_covers_every_vertex_exactly_once(graph, k):
    layout = build_partition_layout(graph, k)
    assert layout.num_parts == k
    owned = np.concatenate([p.owned for p in layout.parts]) if layout.parts else np.zeros(0)
    assert owned.size == graph.num_vertices
    assert np.array_equal(np.sort(owned), np.arange(graph.num_vertices))
    # Labels agree with membership.
    for part in layout.parts:
        assert np.all(layout.labels[part.owned] == part.part_id)


@given(graph_and_labels())
@settings(**COMMON)
def test_boundary_and_halo_are_symmetric(case):
    graph, labels = case
    layout = build_partition_layout(graph, labels)
    boundary = {p.part_id: set(p.boundary().tolist()) for p in layout.parts}
    halo = {p.part_id: set(p.halo.tolist()) for p in layout.parts}
    crossing = 0
    for u, v in graph.iter_edges():
        pu, pv = int(labels[u]), int(labels[v])
        if pu == pv:
            continue
        crossing += 1
        # Both endpoints of a cut edge are boundary vertices of their owners...
        assert u in boundary[pu] and v in boundary[pv]
        # ... and each is a ghost of the other's part.
        assert v in halo[pu] and u in halo[pv]
    assert crossing == layout.cut_edges
    # Every ghost really is a boundary vertex of the part that owns it.
    for part in layout.parts:
        for ghost in part.halo.tolist():
            assert ghost in boundary[int(labels[ghost])]
    assert layout.interior_vertices + layout.boundary_vertices == graph.num_vertices


@given(graph_and_labels())
@settings(**COMMON)
def test_partitioned_kernels_match_reference_for_arbitrary_labels(case):
    graph, labels = case
    mis = kk_mis2(graph)
    pmis = kk_mis2(graph, partitions=labels)
    assert np.array_equal(mis.in_set, pmis.in_set)
    assert mis.iterations == pmis.iterations
    coloring = greedy_color(graph)
    pcoloring = greedy_color(graph, partitions=labels)
    assert np.array_equal(coloring.colors, pcoloring.colors)
    assert coloring.rounds == pcoloring.rounds


@given(graph_and_labels())
@settings(**COMMON)
def test_resident_and_nonresident_paths_identical(case):
    """Rank-resident execution and the re-ship-everything baseline agree with
    the reference bit-for-bit; only the shipped-bytes accounting differs, and
    the resident run never ships more in total than the baseline."""
    graph, labels = case
    ref = kk_mis2(graph)
    resident = partitioned_kk_mis2(graph, labels, resident=True)
    baseline = partitioned_kk_mis2(graph, labels, resident=False)
    assert np.array_equal(ref.in_set, resident.in_set)
    assert np.array_equal(ref.in_set, baseline.in_set)
    assert ref.iterations == resident.iterations == baseline.iterations
    sr, sn = resident.partition_stats, baseline.partition_stats
    assert sr.supersteps == sn.supersteps
    assert sn.resident_bytes == 0
    if sr.supersteps:
        assert sr.resident_bytes > 0
        assert sr.resident_bytes + sr.superstep_bytes <= sn.superstep_bytes
        assert sr.max_superstep_bytes <= sn.max_superstep_bytes


@given(graph_and_labels())
@settings(**COMMON)
def test_changed_and_full_delta_formats_identical(case):
    """The changed-only delta wire format and the full-halo format agree with
    the reference bit-for-bit, run the same number of supersteps, and the
    changed format never ships more — per phase or in total."""
    graph, labels = case
    ref = kk_mis2(graph)
    changed = partitioned_kk_mis2(graph, labels, changed_deltas=True)
    full = partitioned_kk_mis2(graph, labels, changed_deltas=False)
    assert np.array_equal(ref.in_set, changed.in_set)
    assert np.array_equal(ref.in_set, full.in_set)
    assert ref.iterations == changed.iterations == full.iterations
    sc, sf = changed.partition_stats, full.partition_stats
    assert sc.supersteps == sf.supersteps
    assert sc.resident_bytes == sf.resident_bytes
    assert sc.superstep_bytes <= sf.superstep_bytes
    assert sc.max_superstep_bytes <= sf.max_superstep_bytes


@given(graph_and_labels(), st.data())
@settings(**COMMON)
def test_halo_tracker_reconstructs_full_halo_exchange(case, data):
    """The reconstruction invariant of the changed-delta protocol: for any
    interleaving of value changes and per-part refreshes, cumulatively
    applying the tracker's updates to a part's last-known halo values always
    rebuilds the full halo gather exactly."""
    graph, labels = case
    layout = build_partition_layout(graph, labels)
    n = graph.num_vertices
    values = np.zeros(n, dtype=np.int64)
    tracker = HaloDeltaTracker(layout, ("A",))
    # Each part's halo mirror starts current — exactly like session open.
    mirrors = [values[p.halo].copy() for p in layout.parts]
    for step in range(data.draw(st.integers(min_value=1, max_value=6), label="steps")):
        if n:
            idx = np.unique(
                np.asarray(
                    data.draw(
                        st.lists(st.integers(0, n - 1), min_size=0, max_size=n),
                        label="touched",
                    ),
                    dtype=np.int64,
                )
            )
            new = values[idx] + np.asarray(
                data.draw(
                    st.lists(st.integers(0, 1), min_size=idx.size, max_size=idx.size),
                    label="increments",
                ),
                dtype=np.int64,
            )
            tracker.mark("A", _scatter_changed(values, idx, new))
        refreshed = data.draw(
            st.lists(
                st.integers(0, layout.num_parts - 1),
                min_size=0,
                max_size=layout.num_parts,
                unique=True,
            ),
            label="refreshed",
        )
        for part in refreshed:
            halo = layout.parts[part].halo
            positions, vals = tracker.take("A", part, values)
            if positions is None:
                mirrors[part][:] = vals
            else:
                mirrors[part][positions] = vals
            assert np.array_equal(mirrors[part], values[halo])
    # Parts never refreshed above still reconstruct on a final take.
    for part, p in enumerate(layout.parts):
        positions, vals = tracker.take("A", part, values)
        if positions is None:
            mirrors[part][:] = vals
        else:
            mirrors[part][positions] = vals
        assert np.array_equal(mirrors[part], values[p.halo])


@given(graphs(), st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
@settings(**COMMON)
def test_partitioned_mis_independent_of_part_permutation(graph, k, rng):
    labels = partition_vertices(graph, k) if (k & (k - 1)) == 0 else (
        (np.arange(graph.num_vertices, dtype=np.int64) * k) // max(1, graph.num_vertices)
    )
    perm = np.arange(k, dtype=np.int64)
    rng.shuffle(perm)
    permuted = perm[labels] if labels.size else labels
    a = kk_mis2(graph, partitions=labels)
    b = kk_mis2(graph, partitions=permuted)
    ref = kk_mis2(graph)
    assert np.array_equal(a.in_set, b.in_set)
    assert np.array_equal(a.in_set, ref.in_set)
    assert a.iterations == b.iterations == ref.iterations
    la = luby_mis1(graph, partitions=labels)
    lb = luby_mis1(graph, partitions=permuted)
    assert np.array_equal(la.in_set, lb.in_set)
    assert la.iterations == lb.iterations
