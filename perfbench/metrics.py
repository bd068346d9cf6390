"""The benchmark's metric table: names, units, direction and bounds.

``BENCHMARK.json`` at the repository root repeats this table; the
benchmark's own tests check that the two agree.

Every workload reports every metric (an untraced run the end-to-end ones,
a traced run the per-layer ones), so each metric below is defined on all
four workloads. ``MOVES`` records, for each per-layer metric, the
end-to-end metric and the workload(s) it is expected to move.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: Dict[str, str] = {
    "flat-l3d48": (
        "MIS-2, greedy coloring and MIS-2 aggregation on laplace3d 48^3, "
        "flat numpy: the single-process baseline of the paper's kernels"
    ),
    "p4-dist-l3d48": (
        "The same calls with partitions=4 on 2 localhost ranks: layout build, "
        "superstep engine and socket transport, paired with flat-l3d48"
    ),
    "solve-el24": (
        "Elasticity 24^3 (72 nnz/row): the kernels on a dense-row pattern, then "
        "AMG-PCG and cluster-GS-PCG to 1e-8, the paper's two applications"
    ),
    "service-mix": (
        "GraphService on laplace3d 24^3, 2 closed-loop clients, 20% edge "
        "toggles beside mis2/color/aggregate queries: cache, repair, lock"
    ),
}

#: (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("mis2_s", "s", "lower", 0.25),
    ("color_s", "s", "lower", 0.25),
    ("aggregate_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("success_rate", "fraction", "higher", 0.01),
]

_KERNELS = ("mis2", "color")

#: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = (
    [("trace.overhead_pct", "%", "lower")]
    + [
        ("mis.iterations", "count", "lower"),
        ("mis.traffic_mb", "MB", "lower"),
        ("coloring.rounds", "count", "lower"),
        ("coloring.num_colors", "count", "lower"),
        ("coloring.traffic_mb", "MB", "lower"),
        ("coarsen.phase1_mis_s", "s", "lower"),
        ("coarsen.rest_s", "s", "lower"),
        ("coarsen.num_aggregates", "count", "lower"),
        ("partition.labels_s", "s", "lower"),
        ("partition.layout_s", "s", "lower"),
        ("partition.cut_edges", "count", "lower"),
        ("partition.halo_vertices", "count", "lower"),
        ("partition.boundary_vertices", "count", "lower"),
    ]
    + [
        (f"partitioned.{k}.{field}", unit, "lower")
        for k in _KERNELS
        for field, unit in (
            ("driver_s", "s"),
            ("compute_s", "s"),
            ("exchange_s", "s"),
            ("idle_s", "s"),
            ("overhead_s", "s"),
            ("supersteps", "count"),
        )
    ]
    + [("partitioned.aggregate.driver_s", "s", "lower"), ("distributed.spawn_s", "s", "lower")]
    + [
        (f"distributed.{k}.{field}", unit, "lower")
        for k in _KERNELS
        for field, unit in (
            ("resident_bytes", "bytes"),
            ("superstep_bytes", "bytes"),
            ("wire_bytes", "bytes"),
            ("messages", "count"),
        )
    ]
    + [
        ("distributed.wire_to_logical", "ratio", "lower"),
        ("solvers.hierarchy_s", "s", "lower"),
        ("solvers.aggregation_s", "s", "lower"),
        ("solvers.levels", "count", "lower"),
        ("solvers.operator_complexity", "ratio", "lower"),
        ("solvers.pcg_s", "s", "lower"),
        ("solvers.vcycle_ms", "ms", "lower"),
        ("solvers.amg_iters", "count", "lower"),
        ("solvers.amg_tts_s", "s", "lower"),
        ("gs.setup_s", "s", "lower"),
        ("gs.aggregation_s", "s", "lower"),
        ("gs.pcg_s", "s", "lower"),
        ("gs.apply_ms", "ms", "lower"),
        ("gs.cgs_iters", "count", "lower"),
        ("gs.cgs_tts_s", "s", "lower"),
    ]
    + [
        (f"service.{kind}_p50_ms", "ms", "lower")
        for kind in ("mis2", "color", "aggregate", "add_edges", "remove_edges")
    ]
    + [
        ("service.query_p50_ms", "ms", "lower"),
        ("service.query_p99_ms", "ms", "lower"),
        ("service.mutation_p50_ms", "ms", "lower"),
        ("service.mutation_p90_ms", "ms", "lower"),
        ("service.cache_hit_ratio", "ratio", "higher"),
        ("service.coalesced_ratio", "ratio", "higher"),
        ("service.repair_success_ratio", "ratio", "higher"),
        ("service.full_recomputes", "count", "lower"),
        ("service.touched_per_repair", "count", "lower"),
    ]
)

_KERNEL_WL = "flat-l3d48, p4-dist-l3d48"

#: Per-layer metric prefix -> (end-to-end metric it should move, workload).
MOVES: Dict[str, Tuple[str, str]] = {
    "trace.": ("none (tracing must cost almost nothing)", "all"),
    "mis.": ("mis2_s; ops_per_s", _KERNEL_WL + ", solve-el24"),
    "coloring.": ("color_s", _KERNEL_WL + ", solve-el24 (not service-mix: it colours via repair.ordered_color)"),
    "coarsen.": ("aggregate_s", _KERNEL_WL + ", solve-el24"),
    "partition.": ("mis2_s, color_s, aggregate_s", "p4-dist-l3d48 only"),
    "partitioned.mis2.": ("mis2_s", "p4-dist-l3d48 only"),
    "partitioned.color.": ("color_s", "p4-dist-l3d48 only"),
    "partitioned.aggregate.": ("aggregate_s", "p4-dist-l3d48 only"),
    "distributed.spawn_s": ("setup_s", "p4-dist-l3d48 only"),
    "distributed.": ("mis2_s, color_s, aggregate_s", "p4-dist-l3d48 only"),
    "solvers.": ("ops_per_s (AMG time to solution)", "solve-el24"),
    "gs.": ("ops_per_s (cluster-GS time to solution)", "solve-el24"),
    "service.": ("ops_per_s, mis2_s, color_s, aggregate_s", "service-mix only"),
}


def moves(metric: str) -> Tuple[str, str]:
    """The (end-to-end metric, workload) a per-layer metric should move."""
    best = max((p for p in MOVES if metric.startswith(p)), key=len)
    return MOVES[best]
