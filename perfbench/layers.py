"""Calls into single layers, timed from outside, for the traced run.

A workload's own traced calls give the per-layer metrics of the layers
they reach (its kernels' counts, the solve workload's solvers, the service
workload's service). Every other layer is probed here on the workload's
own input, so each traced run reports every per-layer metric. Nothing in
this module changes what a workload measures end to end.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.coarsen import mis2_aggregation
from repro.coloring import greedy_color
from repro.gs import ClusterMulticolorGaussSeidel
from repro.mis import kk_mis2
from repro.parallel import (
    DistributedBackend,
    build_partition_layout,
    partition_vertices,
    shutdown_rank_clusters,
)
from repro.service import GraphService
from repro.solvers import build_hierarchy, pcg

PARTS = 4
RANKS = 2
TOL = 1e-8
#: Applications of a preconditioner timed for ``vcycle_ms`` / ``apply_ms``.
APPLY_REPEATS = 3

QUERIES = ("mis2", "color", "aggregate")
MUTATIONS = ("add_edges", "remove_edges")


def kernel_counts(mis, coloring) -> Dict[str, float]:
    """The ``mis.*`` and ``coloring.*`` counts of one MIS-2 and one coloring."""
    return {
        "mis.iterations": mis.iterations,
        "mis.traffic_mb": mis.traffic.total_bytes / 1e6,
        "coloring.rounds": coloring.rounds,
        "coloring.num_colors": coloring.num_colors,
        "coloring.traffic_mb": coloring.traffic.total_bytes / 1e6,
    }


def residual_ok(A, b, result) -> bool:
    """Converged, and the recomputed ``||b - Ax|| / ||b||`` is within TOL."""
    residual = np.linalg.norm(b - A @ result.x) / np.linalg.norm(b)
    return bool(result.converged) and residual <= TOL


def _timed_aggregation(clock, seconds: List[float]) -> Callable:
    def aggregation_fn(graph):
        with clock.span("mis2_aggregation", "coarsen") as span:
            out = mis2_aggregation(graph)
        seconds.append(span.duration)
        return out

    return aggregation_fn


def solve_amg(clock, A, b) -> Tuple[object, Dict[str, float], Callable]:
    """AMG-PCG to TOL: ``build_hierarchy`` (MIS-2 aggregation) then ``pcg``.

    Returns the solve result, the ``solvers.*`` metrics it gives and the
    V-cycle, for ``preconditioner_ms``."""
    aggregation: List[float] = []
    with clock.span("build_hierarchy", "solvers") as build:
        hierarchy = build_hierarchy(A, aggregation_fn=_timed_aggregation(clock, aggregation))
    with clock.span("pcg", "solvers") as solve:
        result = pcg(A, b, M=hierarchy.as_preconditioner(), tol=TOL)
    return result, {
        "solvers.hierarchy_s": build.duration,
        "solvers.aggregation_s": sum(aggregation),
        "solvers.levels": hierarchy.num_levels,
        "solvers.operator_complexity": hierarchy.operator_complexity(),
        "solvers.pcg_s": solve.duration,
        "solvers.amg_iters": result.iterations,
        "solvers.amg_tts_s": build.duration + solve.duration,
    }, hierarchy.vcycle


def solve_cgs(clock, A, b) -> Tuple[object, Dict[str, float], Callable]:
    """Cluster-GS-PCG to TOL, one symmetric sweep per application; returns
    like :func:`solve_amg`."""
    aggregation: List[float] = []
    with clock.span("ClusterMulticolorGaussSeidel", "gs") as setup:
        smoother = ClusterMulticolorGaussSeidel(
            A, aggregation_fn=_timed_aggregation(clock, aggregation)
        )
    with clock.span("pcg", "solvers") as solve:
        result = pcg(A, b, M=smoother.as_preconditioner(), tol=TOL)
    return result, {
        "gs.setup_s": setup.duration,
        "gs.aggregation_s": sum(aggregation),
        "gs.pcg_s": solve.duration,
        "gs.cgs_iters": result.iterations,
        "gs.cgs_tts_s": setup.duration + solve.duration,
    }, smoother.apply


def preconditioner_ms(clock, metrics: Dict, apply: Callable, b) -> Dict[str, float]:
    """``metrics`` plus the median time of one preconditioner application."""
    name, layer = ("solvers.vcycle_ms", "solvers") if "solvers.pcg_s" in metrics else ("gs.apply_ms", "gs")
    times = []
    for _ in range(APPLY_REPEATS):
        with clock.span(name, layer) as span:
            apply(b)
        times.append(span.duration)
    return {**metrics, name: 1e3 * statistics.median(times)}


def _pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def service_metrics(records: Sequence[Tuple[str, float]], before: Dict, after: Dict) -> Dict[str, float]:
    """``service.*`` metrics from (kind, seconds) calls and two stats snapshots."""
    ms: Dict[str, List[float]] = {k: [] for k in QUERIES + MUTATIONS}
    for kind, seconds in records:
        ms[kind].append(1e3 * seconds)
    queries = [v for k in QUERIES for v in ms[k]]
    mutations = [v for k in MUTATIONS for v in ms[k]]
    delta = {k: after[k] - before[k] for k in after}
    tried = delta["repairs"] + delta["repair_fallbacks"]
    out = {f"service.{k}_p50_ms": _pct(v, 50) for k, v in ms.items()}
    out.update({
        "service.query_p50_ms": _pct(queries, 50),
        "service.query_p99_ms": _pct(queries, 99),
        "service.mutation_p50_ms": _pct(mutations, 50),
        "service.mutation_p90_ms": _pct(mutations, 90),
        "service.cache_hit_ratio": delta["cache_hits"] / max(1, delta["queries"]),
        "service.coalesced_ratio": delta["coalesced"] / max(1, delta["queries"]),
        "service.repair_success_ratio": delta["repairs"] / tried if tried else 0.0,
        "service.full_recomputes": delta["full_recomputes"],
        "service.touched_per_repair": delta["repair_touched"] / max(1, delta["repairs"]),
    })
    return out


def _chord(graph, rng) -> Tuple[int, int]:
    """A random vertex pair that is not an edge of ``graph``."""
    while True:
        u, v = (int(x) for x in rng.integers(0, graph.num_vertices, 2))
        if u != v and not graph.has_edge(u, v):
            return u, v


def probe_service(run, graph, rng) -> Dict[str, float]:
    """A short scripted session: full computes, one toggle each way, repairs,
    and four identical concurrent submits that the dispatcher may coalesce."""
    clock = run.tracer
    chord = _chord(graph, rng)
    records: List[Tuple[str, float]] = []
    service = GraphService(backend="numpy", repair_crossover=0.25)
    try:
        service.add_graph("g", graph)
        before = service.stats_snapshot()

        def op(kind, fn):
            records.append((kind, run.call(kind, "service", fn, clock)[1]))

        def queries():
            for kind in QUERIES:
                op(kind, lambda kind=kind: getattr(service, kind)("g"))

        def burst():
            futures = [service.submit("g", "mis2", seed=0) for _ in range(4)]
            return [f.result() for f in futures]

        queries()
        op("add_edges", lambda: service.add_edges("g", [chord]))
        run.call("mis2_burst", "service", burst, clock)
        queries()
        op("remove_edges", lambda: service.remove_edges("g", [chord]))
        queries()
        return service_metrics(records, before, service.stats_snapshot())
    finally:
        service.close()


def probe_layers(run, inputs, partitioned: bool) -> Dict[str, float]:
    """Every per-layer metric the workload's own traced calls did not give.

    ``inputs`` carries the workload's ``graph``, ``matrix`` and ``rhs``;
    ``partitioned`` runs the coarsening probe the way p4-dist-l3d48 runs its
    kernels. The partitioned kernels are probed with a prebuilt layout on
    freshly spawned ranks, so ``distributed.spawn_s`` is measured here too.
    """
    clock, have, graph = run.tracer, run.layer, inputs.graph
    out: Dict[str, float] = {}
    shutdown_rank_clusters()
    backend = DistributedBackend(ranks=RANKS)
    with clock.span("spawn", "distributed") as span:
        backend.cluster().ping()
    out["distributed.spawn_s"] = span.duration

    labels, seconds = run.call("partition_vertices", "partition",
                               lambda: partition_vertices(graph, PARTS), clock)
    out["partition.labels_s"] = seconds
    layout, seconds = run.call("build_partition_layout", "partition",
                               lambda: build_partition_layout(graph, labels), clock)
    out["partition.layout_s"] = seconds
    out["partition.cut_edges"] = layout.cut_edges
    out["partition.halo_vertices"] = layout.halo_vertices
    out["partition.boundary_vertices"] = layout.boundary_vertices

    kw = {"partitions": layout, "backend": backend} if partitioned else {}
    mis, seconds = run.call("kk_mis2", "mis", lambda: kk_mis2(graph, **kw), clock)
    out["coarsen.phase1_mis_s"] = seconds
    agg, seconds = run.call("mis2_aggregation", "coarsen",
                            lambda: mis2_aggregation(graph, mis=mis, **kw), clock)
    out["coarsen.rest_s"] = seconds
    out["coarsen.num_aggregates"] = agg.num_aggregates

    logical = wire = 0
    for k, kernel in (("mis2", kk_mis2), ("color", greedy_color)):
        before = backend.measured_stats()
        result, seconds = run.call(k, "partitioned",
                                   lambda: kernel(graph, partitions=layout, backend=backend), clock)
        after = backend.measured_stats()
        stats = result.partition_stats
        triple = stats.compute_seconds + stats.exchange_seconds + stats.idle_seconds
        k_wire = after["bytes_sent"] - before["bytes_sent"] + after["bytes_received"] - before["bytes_received"]
        out.update({
            f"partitioned.{k}.driver_s": seconds,
            f"partitioned.{k}.compute_s": stats.compute_seconds,
            f"partitioned.{k}.exchange_s": stats.exchange_seconds,
            f"partitioned.{k}.idle_s": stats.idle_seconds,
            f"partitioned.{k}.overhead_s": seconds - triple,
            f"partitioned.{k}.supersteps": stats.supersteps,
            f"distributed.{k}.resident_bytes": stats.resident_bytes,
            f"distributed.{k}.superstep_bytes": stats.superstep_bytes,
            f"distributed.{k}.wire_bytes": k_wire,
            f"distributed.{k}.messages": (after["messages_sent"] - before["messages_sent"]
                                          + after["messages_received"] - before["messages_received"]),
        })
        logical += stats.resident_bytes + stats.superstep_bytes
        wire += k_wire
        if k == "mis2":
            run.check(np.array_equal(result.in_mask, mis.in_mask),
                      "partitioned probe MIS-2 differs from the coarsening probe's")
    out["distributed.wire_to_logical"] = wire / max(1, logical)
    _, seconds = run.call("mis2_aggregation", "partitioned",
                          lambda: mis2_aggregation(graph, partitions=layout, backend=backend), clock)
    out["partitioned.aggregate.driver_s"] = seconds

    if "mis.iterations" not in have:
        coloring, _ = run.call("greedy_color", "coloring", lambda: greedy_color(graph), clock)
        out.update(kernel_counts(mis, coloring))
    for prefix, solve in (("solvers.", solve_amg), ("gs.", solve_cgs)):
        if not any(name.startswith(prefix) for name in have):
            (result, metrics, apply), _ = run.call(
                prefix.rstrip("."), prefix.rstrip("."),
                lambda: solve(clock, inputs.matrix, inputs.rhs), clock)
            run.check(residual_ok(inputs.matrix, inputs.rhs, result), f"{prefix} probe residual")
            out.update(preconditioner_ms(clock, metrics, apply, inputs.rhs))
    if "service.query_p50_ms" not in have:
        out.update(probe_service(run, graph, np.random.default_rng(inputs.seed)))
    return out
