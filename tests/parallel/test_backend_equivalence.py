"""Backend-equivalence suite: the paper's determinism guarantee, enforced.

Every registered execution backend (numpy, chunked, threaded, numba, …) must
produce *bit-identical* results to the vectorised-NumPy reference for the full
kernel stack — MIS-2 (Algorithm 1 and the Bell/Luby baselines), greedy and
distance-2 coloring, both aggregation schemes, and the cluster multicolor
Gauss-Seidel setup/apply. A tiny block size is used for the chunked backend so
that even the small fixture graphs are actually split into many blocks, and the
``map_graphs``-driven Experiment path is asserted to yield identical rows
regardless of backend and pool width.
"""

import numpy as np
import pytest

from repro.bench import BenchConfig, get_experiment
from repro.coarsen import d2c_aggregation, mis2_aggregation
from repro.coloring import distance2_color, greedy_color
from repro.graph import laplace3d_matrix, random_gnp
from repro.gs import ClusterMulticolorGaussSeidel
from repro.mis import bell_mis, kk_mis2, luby_mis1
from repro.parallel import (
    ChunkedBackend,
    available_backends,
    get_backend,
    partitioned_greedy_color,
    partitioned_kk_mis2,
    partitioned_luby_mis1,
)

from tests.conftest import SMALL_GRAPH_CASES

#: Backends under test: every registered backend plus a chunked instance with a
#: tiny block size (so the fixtures exercise real multi-block execution).
BACKENDS = {name: get_backend(name) for name in available_backends() if name != "numpy"}
BACKENDS["chunked-tiny"] = ChunkedBackend(block_elements=8)

GRAPH_NAMES = sorted(SMALL_GRAPH_CASES)


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def backend(request):
    return BACKENDS[request.param]


@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
@pytest.mark.parametrize("scheme", ["xorstar", "xor", "fixed"])
def test_kk_mis2_bit_identical(backend, graph_name, scheme):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = kk_mis2(g, priority_scheme=scheme)
    out = kk_mis2(g, priority_scheme=scheme, backend=backend)
    assert np.array_equal(ref.in_set, out.in_set)
    assert np.array_equal(ref.in_mask, out.in_mask)
    assert ref.iterations == out.iterations
    assert ref.worklist_sizes == out.worklist_sizes
    assert out.config.backend == backend.name


@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
def test_bell_mis_bit_identical(backend, graph_name):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = bell_mis(g)
    out = bell_mis(g, backend=backend)
    assert np.array_equal(ref.in_set, out.in_set)
    assert ref.iterations == out.iterations


@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
def test_luby_mis1_bit_identical(backend, graph_name):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = luby_mis1(g)
    out = luby_mis1(g, backend=backend)
    assert np.array_equal(ref.in_set, out.in_set)
    assert ref.iterations == out.iterations


@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
def test_greedy_coloring_bit_identical(backend, graph_name):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = greedy_color(g)
    out = greedy_color(g, backend=backend)
    assert np.array_equal(ref.colors, out.colors)
    assert ref.num_colors == out.num_colors
    assert ref.rounds == out.rounds
    assert out.backend == backend.name


@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
def test_distance2_coloring_bit_identical(backend, graph_name):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = distance2_color(g)
    out = distance2_color(g, backend=backend)
    assert np.array_equal(ref.colors, out.colors)
    assert ref.num_colors == out.num_colors


@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
def test_mis2_aggregation_bit_identical(backend, graph_name):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = mis2_aggregation(g)
    out = mis2_aggregation(g, backend=backend)
    assert np.array_equal(ref.labels, out.labels)
    assert ref.num_aggregates == out.num_aggregates
    assert np.array_equal(ref.roots, out.roots)
    assert out.backend == backend.name


@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
def test_d2c_aggregation_bit_identical(backend, graph_name):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = d2c_aggregation(g)
    out = d2c_aggregation(g, backend=backend)
    assert np.array_equal(ref.labels, out.labels)
    assert ref.num_aggregates == out.num_aggregates


def test_cluster_gs_bit_identical(backend):
    A = laplace3d_matrix(6, 6, 6)
    b = np.sin(np.arange(A.shape[0], dtype=np.float64))
    ref = ClusterMulticolorGaussSeidel(A)
    out = ClusterMulticolorGaussSeidel(A, backend=backend)
    assert np.array_equal(ref.aggregation.labels, out.aggregation.labels)
    assert np.array_equal(ref.coloring.colors, out.coloring.colors)
    assert np.array_equal(ref.apply(b), out.apply(b))
    assert out.backend == backend.name


def test_larger_random_graph_bit_identical(backend):
    g = random_gnp(400, 0.02, seed=7)
    assert np.array_equal(kk_mis2(g).in_set, kk_mis2(g, backend=backend).in_set)
    assert np.array_equal(
        greedy_color(g).colors, greedy_color(g, backend=backend).colors
    )
    assert np.array_equal(
        mis2_aggregation(g).labels, mis2_aggregation(g, backend=backend).labels
    )


#: Tiny configuration for the Experiment-path equivalence checks below.
_EXPERIMENT_CONFIG = BenchConfig(
    scale=0.002, trials=1, warmup=0, matrices=("ecology2", "tmt_sym", "apache2")
)


def test_experiment_map_graphs_rows_identical(backend):
    """The sharded suite-sweep path must yield the reference rows, bit for bit.

    ``table1`` rows contain no wall-clock fields, so full row equality holds —
    the same matrices through ``map_graphs`` on any backend at any pool width
    produce exactly the rows the serial NumPy reference produces.
    """
    experiment = get_experiment("table1")
    reference = experiment.run(_EXPERIMENT_CONFIG, backend="numpy").rows
    for jobs in (None, 1, 2):
        result = experiment.run(_EXPERIMENT_CONFIG, backend=backend, jobs=jobs)
        assert result.rows == reference
        assert result.counts == experiment.counts(reference)


def test_experiment_counts_identical_across_all_backends():
    """Deterministic counts of the smoke experiment agree on every backend."""
    experiment = get_experiment("smoke")
    reference = experiment.run(_EXPERIMENT_CONFIG, backend="numpy")
    for name in available_backends():
        assert experiment.run(_EXPERIMENT_CONFIG, backend=name, jobs=2).counts == reference.counts


# --------------------------------------------------------------------------
# Partition-equivalence matrix: every registered backend × k ∈ {1, 2, 4, 7} ×
# {kk, luby, greedy coloring, mis2_agg} must produce output bit-identical to
# the *unpartitioned* NumPy reference — the intra-graph sharding contract of
# repro.parallel.partitioned. Pooled backends run with a two-wide pool so the
# map_partitions fan-out genuinely executes (chunked: persistent process pool;
# threaded: thread pool).

#: One instance per registered backend name (including the numpy reference —
#: here it is the *execution* under test, not the baseline).
PARTITION_BACKENDS = {name: get_backend(name).with_jobs(2) for name in available_backends()}

PARTITION_KS = (1, 2, 4, 7)

#: Structured + irregular + disconnected coverage without blowing up runtime.
PARTITION_GRAPHS = ("grid5x7", "gnp60", "disconnected")


@pytest.fixture(params=sorted(PARTITION_BACKENDS), ids=sorted(PARTITION_BACKENDS))
def partition_backend(request):
    return PARTITION_BACKENDS[request.param]


@pytest.mark.parametrize("k", PARTITION_KS)
@pytest.mark.parametrize("graph_name", PARTITION_GRAPHS)
def test_partitioned_kk_mis2_bit_identical(partition_backend, graph_name, k):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = kk_mis2(g)
    out = kk_mis2(g, partitions=k, backend=partition_backend)
    assert np.array_equal(ref.in_set, out.in_set)
    assert np.array_equal(ref.in_mask, out.in_mask)
    assert ref.iterations == out.iterations
    assert ref.worklist_sizes == out.worklist_sizes
    assert out.config.backend == partition_backend.name
    assert out.config.partitions == k
    stats = out.partition_stats
    assert stats is not None and stats.num_parts == k
    assert stats.interior_vertices + stats.boundary_vertices == g.num_vertices


@pytest.mark.parametrize("k", PARTITION_KS)
@pytest.mark.parametrize("graph_name", PARTITION_GRAPHS)
def test_partitioned_luby_mis1_bit_identical(partition_backend, graph_name, k):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = luby_mis1(g)
    out = luby_mis1(g, partitions=k, backend=partition_backend)
    assert np.array_equal(ref.in_set, out.in_set)
    assert np.array_equal(ref.in_mask, out.in_mask)
    assert ref.iterations == out.iterations
    assert out.config.partitions == k


@pytest.mark.parametrize("k", PARTITION_KS)
@pytest.mark.parametrize("graph_name", PARTITION_GRAPHS)
def test_partitioned_greedy_coloring_bit_identical(partition_backend, graph_name, k):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = greedy_color(g)
    out = greedy_color(g, partitions=k, backend=partition_backend)
    assert np.array_equal(ref.colors, out.colors)
    assert ref.num_colors == out.num_colors
    assert ref.rounds == out.rounds
    assert out.partitions == k
    assert out.partition_stats is not None


@pytest.mark.parametrize("k", PARTITION_KS)
@pytest.mark.parametrize("graph_name", PARTITION_GRAPHS)
def test_partitioned_mis2_aggregation_bit_identical(partition_backend, graph_name, k):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = mis2_aggregation(g)
    out = mis2_aggregation(g, partitions=k, backend=partition_backend)
    assert np.array_equal(ref.labels, out.labels)
    assert ref.num_aggregates == out.num_aggregates
    assert np.array_equal(ref.roots, out.roots)


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 7, 8))
@pytest.mark.parametrize("graph_name", sorted(SMALL_GRAPH_CASES))
def test_partitioned_kk_every_small_graph_numpy(graph_name, k):
    """Exhaustive graph coverage (incl. empty/isolated/complete) on the reference."""
    g = SMALL_GRAPH_CASES[graph_name]
    ref = kk_mis2(g)
    out = kk_mis2(g, partitions=k)
    assert np.array_equal(ref.in_set, out.in_set)
    assert ref.iterations == out.iterations
    assert ref.worklist_sizes == out.worklist_sizes


@pytest.mark.parametrize("k", (2, 4))
@pytest.mark.parametrize("graph_name", PARTITION_GRAPHS)
def test_nonresident_baseline_bit_identical(partition_backend, graph_name, k):
    """The non-resident execution path (payload re-shipped every superstep)
    must stay bit-identical to the reference and to the resident path on
    every backend — only the shipped-bytes accounting may differ."""
    g = SMALL_GRAPH_CASES[graph_name]
    ref = kk_mis2(g)
    out = partitioned_kk_mis2(g, k, backend=partition_backend, resident=False)
    assert np.array_equal(ref.in_set, out.in_set)
    assert ref.iterations == out.iterations
    assert out.partition_stats.resident_bytes == 0
    coloring = partitioned_greedy_color(g, k, backend=partition_backend, resident=False)
    assert np.array_equal(greedy_color(g).colors, coloring.colors)
    luby = partitioned_luby_mis1(g, k, backend=partition_backend, resident=False)
    assert np.array_equal(luby_mis1(g).in_set, luby.in_set)


def _deterministic_stats(stats) -> dict:
    """PartitionStats as a dict with the wall-clock meters stripped — the
    ``*_seconds`` triple is perf_counter-based and machine-varying by design;
    everything else must agree bit-for-bit across backends."""
    return {
        k: v for k, v in stats.to_dict().items() if not k.endswith("_seconds")
    }


@pytest.mark.parametrize("changed_deltas", (True, False))
@pytest.mark.parametrize("resident", (True, False))
def test_shipped_bytes_accounting_identical_across_backends(resident, changed_deltas):
    """The shipped-bytes fields are *logical* (array nbytes, charged in both
    directions), so every backend must record exactly the same numbers for
    the same run — that is what makes them deterministic counts gateable by
    `bench compare` — under every delta wire format."""
    g = SMALL_GRAPH_CASES["gnp60"]
    reference = None
    for name, backend in sorted(PARTITION_BACKENDS.items()):
        out = partitioned_kk_mis2(
            g, 4, backend=backend,
            resident=resident, changed_deltas=changed_deltas,
        )
        recorded = _deterministic_stats(out.partition_stats)
        if reference is None:
            reference = recorded
        assert recorded == reference, name
    assert reference["superstep_bytes"] > 0
    if resident:
        assert reference["resident_bytes"] > 0
        assert reference["max_superstep_bytes"] < reference["resident_bytes"]
    else:
        assert reference["resident_bytes"] == 0


def test_changed_delta_accounting_identical_across_backends_all_kernels():
    """The changed-delta protocol's byte counts agree on every backend for
    every partitioned kernel (Luby and the coloring stash/recompute their
    worklists worker-side — the counts must not depend on where that runs)."""
    g = SMALL_GRAPH_CASES["gnp60"]
    for kernel in (luby_mis1, greedy_color):
        reference = None
        for name, backend in sorted(PARTITION_BACKENDS.items()):
            out = kernel(g, partitions=4, backend=backend)
            recorded = _deterministic_stats(out.partition_stats)
            if reference is None:
                reference = recorded
            assert recorded == reference, (kernel.__name__, name)
        assert reference["superstep_bytes"] > 0


@pytest.mark.parametrize("graph_name", PARTITION_GRAPHS)
def test_full_halo_format_bit_identical_and_never_cheaper(partition_backend, graph_name):
    """changed_deltas=False (the full-halo wire format kept for the CI gate)
    produces bit-identical results on every backend, and the changed-delta
    default never ships more than it — per phase or in total."""
    g = SMALL_GRAPH_CASES[graph_name]
    for kernel, driver, extract in (
        (kk_mis2, partitioned_kk_mis2, lambda r: r.in_set),
        (luby_mis1, partitioned_luby_mis1, lambda r: r.in_set),
        (greedy_color, partitioned_greedy_color, lambda r: r.colors),
    ):
        ref = kernel(g)
        changed = kernel(g, partitions=4, backend=partition_backend)
        full = driver(g, 4, backend=partition_backend, changed_deltas=False)
        assert np.array_equal(extract(ref), extract(changed))
        assert np.array_equal(extract(ref), extract(full))
        sc, sf = changed.partition_stats, full.partition_stats
        assert sc.supersteps == sf.supersteps
        assert sc.superstep_bytes <= sf.superstep_bytes
        assert sc.max_superstep_bytes <= sf.max_superstep_bytes


def test_partitioned_smoke_sweep_counts_identical():
    """The partitioned smoke sweep (CI's intra-graph sharding gate) passes and
    records identical deterministic counts on every backend."""
    from repro.bench import BenchConfig as _BC
    from repro.bench import sweep

    config = _BC(parts=2)
    result = sweep("smoke", ["numpy", "threaded"], config, jobs=2)
    assert result.reference.parts == 2
    for res in result.results:
        assert res.counts == result.reference.counts
        assert any(key.endswith("/boundary_vertices") for key in res.counts)
