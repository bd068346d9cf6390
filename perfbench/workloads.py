"""The four benchmark workloads, driven through the library's public API.

Inputs come from the workload seed alone. The kernel workloads renumber the
laplace3d grid by a seeded symmetry of the cube, so each seed is the same
graph under another vertex order (which the kernels' hashes and tie-breaks
see); the solve workload seeds the elasticity coupling blocks and the
right-hand side; the service workload seeds its chords and op script.

A run measures for ``seconds`` and checks every output. With ``trace`` the
run alternates untraced and traced repetitions (for the tracing overhead)
and then probes every layer its calls did not reach; see ``layers.py``.
"""

from __future__ import annotations

import gc
import resource
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.coarsen import mis2_aggregation
from repro.coloring import greedy_color, is_valid_coloring
from repro.graph import elasticity3d_matrix, from_edges, from_scipy, laplace3d_matrix
from repro.mis import kk_mis2, verify_mis
from repro.parallel import DistributedBackend, shutdown_rank_clusters
from repro.service import GraphService

import layers
from spans import Tracer

#: Problem sizes. ``tiny`` exists for the benchmark's own tests.
SCALES = {
    "full": {"grid": 48, "elastic": 24, "service": 24, "warm": 8, "chords": 32},
    "tiny": {"grid": 8, "elastic": 4, "service": 6, "warm": 4, "chords": 8},
}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Closed-loop clients of the service workload.
CLIENTS = 2
#: A traced service run cuts its measured time into this many windows,
#: alternately untraced and traced; an untraced run is one window. A window
#: plays the part a repetition plays in the other workloads.
SERVICE_WINDOWS = 4
#: Service op mix: (kind, cumulative probability).
SERVICE_MIX = (("toggle", 0.20), ("mis2", 0.65), ("color", 0.95), ("aggregate", 1.0))
KERNELS = ("mis2", "color", "aggregate")


class Failed(Exception):
    """A library call raised; the failure is already recorded on the run."""


class Run:
    """What one benchmark run measured and checked."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.timer = Tracer(tracer.run_id, enabled=False)
        self.attempted = 0  # guarded-by: _lock
        self.failures: List[str] = []  # guarded-by: _lock
        #: (kind, rep, traced, seconds) of every repetition call.
        self.calls: List[Tuple[str, int, bool, float]] = []  # guarded-by: _lock
        self.layer: Dict[str, float] = {}
        self.e2e: Dict[str, float] = {}
        self.details: Dict[str, dict] = {}
        self._lock = threading.Lock()

    def clock(self, traced: bool) -> Tracer:
        return self.tracer if traced else self.timer

    def call(self, kind: str, layer: str, fn: Callable, clock: Tracer,
             rep: Optional[int] = None):
        """Run ``fn`` in a span; returns ``(result, seconds)``.

        A raising call is recorded as a failed operation and ends the run
        (``Failed``); repetition calls (``rep`` given) are also kept for the
        end-to-end metrics.
        """
        with self._lock:
            self.attempted += 1
        try:
            with clock.span(kind, layer) as span:
                result = fn()
        except Exception as exc:
            with self._lock:
                self.failures.append(f"{kind} raised {type(exc).__name__}: {exc}")
            raise Failed(kind) from exc
        if rep is not None:
            with self._lock:
                self.calls.append((kind, rep, clock.enabled, span.duration))
        return result, span.duration

    def check(self, ok: bool, what: str) -> None:
        """A correctness gate: a false ``ok`` is a failed operation."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(what)

    def kind_seconds(self, kind: str) -> Tuple[float, int]:
        """Median over repetitions of the mean untraced ``kind`` call, and
        the number of calls it rests on."""
        per_rep: Dict[int, List[float]] = {}
        for k, rep, traced, seconds in self.calls:
            if k == kind and not traced:
                per_rep.setdefault(rep, []).append(seconds)
        means = [statistics.fmean(v) for v in per_rep.values()]
        if not means:
            return 0.0, 0
        return statistics.median(means), sum(map(len, per_rep.values()))

    def overhead_pct(self) -> float:
        """Traced minus untraced mean call time, as a share of untraced."""
        per_rep: Dict[Tuple[int, bool], List[float]] = {}
        for _, rep, traced, seconds in self.calls:
            per_rep.setdefault((rep, traced), []).append(seconds)
        side = {
            flag: statistics.median(statistics.fmean(v) for (_, t), v in per_rep.items() if t == flag)
            for flag in (False, True)
        }
        return 100.0 * (side[True] / side[False] - 1.0)

    def detail(self, name: str, value: float, unit: str, samples: int) -> None:
        self.details[name] = {"value": value, "unit": unit, "samples": samples}


@dataclass
class Inputs:
    seed: int
    matrix: sp.csr_matrix
    graph: object
    rhs: np.ndarray


def _timed_setups(make: Callable[[], Tuple[Inputs, object]]):
    """Set up SETUP_REPEATS times; keep the last, report the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        made = make()
        times.append(time.perf_counter() - start)
    return made, statistics.median(times)


def grid_matrix(n: int, seed: int) -> sp.csr_matrix:
    """laplace3d n^3, vertices renumbered by a seeded symmetry of the cube."""
    rng = np.random.default_rng(seed)
    ids = np.arange(n ** 3).reshape(n, n, n).transpose(rng.permutation(3))
    for axis in np.nonzero(rng.integers(0, 2, 3))[0]:
        ids = np.flip(ids, axis)
    order = ids.ravel()
    return sp.csr_matrix(laplace3d_matrix(n, n, n)[order][:, order])


def _rhs(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 1]).standard_normal(n)


def _repetitions(run: Run, seconds: float, trace: bool, body: Callable[[int, bool], None]) -> None:
    """Call ``body(rep, traced)`` while another repetition, as long as the
    median one so far, still ends within ``seconds``; a traced run
    alternates untraced and traced repetitions, at least one of each."""
    deadline = time.perf_counter() + seconds
    durations: List[float] = []
    while (not durations or (trace and len(durations) < 2)
           or time.perf_counter() + statistics.median(durations) <= deadline):
        gc.collect()  # garbage of the previous repetition is not this one's cost
        start = time.perf_counter()
        body(len(durations), trace and len(durations) % 2 == 1)
        durations.append(time.perf_counter() - start)


def _kernel_calls(run: Run, graph, kw: dict, rep: Optional[int], traced: bool, ref: dict) -> dict:
    """MIS-2, coloring and aggregation of ``graph``, each checked for
    validity and against the first output in ``ref``. ``rep`` is None for
    calls that are checks, not repetitions."""
    clock = run.clock(traced)
    mis, _ = run.call("mis2", "mis", lambda: kk_mis2(graph, **kw), clock, rep)
    col, _ = run.call("color", "coloring", lambda: greedy_color(graph, **kw), clock, rep)
    agg, _ = run.call("aggregate", "coarsen", lambda: mis2_aggregation(graph, **kw), clock, rep)
    out = {"mis2": mis.in_mask, "color": col.colors, "aggregate": agg.labels}
    run.check(verify_mis(graph, mis.in_set), "MIS-2 is not a maximal distance-2 independent set")
    run.check(is_valid_coloring(graph, col.colors), "coloring is not proper")
    run.check(
        agg.is_complete() and int(agg.labels.max()) < agg.num_aggregates,
        "aggregation leaves a vertex unaggregated or out of range",
    )
    for kind, array in out.items():
        ref.setdefault(kind, array)
        run.check(np.array_equal(ref[kind], array), f"{kind} differs between repetitions")
    if traced:
        run.layer.update(layers.kernel_counts(mis, col))
    return out


def _finish(run: Run, rss_mb: float, setup_s: float, ops_per_s: float) -> None:
    run.e2e["setup_s"] = setup_s
    for kind in KERNELS:
        value, samples = run.kind_seconds(kind)
        run.e2e[f"{kind}_s"] = value
        run.detail(f"{kind}_s", value, "s", samples)
    run.e2e["ops_per_s"] = ops_per_s
    run.e2e["peak_rss_mb"] = rss_mb
    run.detail("setup_s", setup_s, "s", SETUP_REPEATS)
    run.detail("ops_per_s", ops_per_s, "ops/s", sum(1 for c in run.calls if not c[2]))
    run.detail("peak_rss_mb", rss_mb, "MB", 1)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced_call_rate(run: Run) -> float:
    seconds = [c[3] for c in run.calls if not c[2]]
    return len(seconds) / sum(seconds)


# ------------------------------------------------------------------ kernels
def kernels(run: Run, scale: dict, seed: int, seconds: float, trace: bool, partitioned: bool) -> None:
    """flat-l3d48 / p4-dist-l3d48: each repetition builds a fresh graph and
    calls the three kernels on it (with ``partitions=4`` on 2 ranks)."""

    def setup():
        if partitioned:
            shutdown_rank_clusters()  # so that every set-up spawns the ranks
        kw = ({"partitions": layers.PARTS, "backend": DistributedBackend(ranks=layers.RANKS)}
              if partitioned else {})
        A = grid_matrix(scale["grid"], seed)
        warm = from_scipy(laplace3d_matrix(*[scale["warm"]] * 3))
        for kernel in (kk_mis2, greedy_color, mis2_aggregation):
            kernel(warm, **kw)
        return Inputs(seed, A, from_scipy(A), _rhs(A.shape[0], seed)), kw

    (inputs, kw), setup_s = _timed_setups(setup)
    ref: dict = {}
    _repetitions(run, seconds, trace, lambda rep, traced: _kernel_calls(
        run, from_scipy(inputs.matrix), kw, rep, traced, ref))
    rss = _peak_rss_mb()
    if partitioned:
        flat = _kernel_calls(run, inputs.graph, {}, None, False, {})
        for kind, array in flat.items():
            run.check(np.array_equal(array, ref[kind]), f"p4 {kind} is not bit-identical to flat")
    _finish(run, rss, setup_s, _untraced_call_rate(run))
    if trace:
        run.layer.update(layers.probe_layers(run, inputs, partitioned))


# -------------------------------------------------------------------- solve
def solve(run: Run, scale: dict, seed: int, seconds: float, trace: bool) -> None:
    """solve-el24: the three kernels on the elasticity pattern, then AMG-PCG
    and cluster-GS-PCG (one symmetric sweep) to 1e-8 on a seeded RHS."""
    n = scale["elastic"]

    def setup():
        A = elasticity3d_matrix(n, n, n, seed=seed)
        warm = elasticity3d_matrix(2, 2, 2, seed=seed)
        for solver in (layers.solve_amg, layers.solve_cgs):
            solver(run.timer, warm, _rhs(warm.shape[0], seed))
        return Inputs(seed, A, from_scipy(A), _rhs(A.shape[0], seed)), None

    (inputs, _), setup_s = _timed_setups(setup)
    A, b = inputs.matrix, inputs.rhs
    ref: dict = {}
    iters: Dict[str, List[int]] = {"amg": [], "cgs": []}

    def rep_body(rep: int, traced: bool) -> None:
        _kernel_calls(run, inputs.graph, {}, rep, traced, ref)
        clock = run.clock(traced)
        for kind, solver in (("amg", layers.solve_amg), ("cgs", layers.solve_cgs)):
            (result, metrics, apply), _ = run.call(kind, "solvers", lambda: solver(clock, A, b), clock, rep)
            run.check(layers.residual_ok(A, b, result), f"{kind}-PCG missed ||b-Ax||/||b|| <= 1e-8")
            iters[kind].append(result.iterations)
            if traced:
                run.layer.update(layers.preconditioner_ms(clock, metrics, apply, b))

    _repetitions(run, seconds, trace, rep_body)
    rss = _peak_rss_mb()
    _finish(run, rss, setup_s, _untraced_call_rate(run))
    for kind in ("amg", "cgs"):
        tts, samples = run.kind_seconds(kind)
        run.detail(f"{kind}_tts_s", tts, "s", samples)
        run.detail(f"{kind}_iters", statistics.median(iters[kind]), "count", len(iters[kind]))
    if trace:
        run.layer.update(layers.probe_layers(run, inputs, False))


# ------------------------------------------------------------------ service
def _chords(graph, seed: int, per_client: int) -> List[List[Tuple[int, int]]]:
    """Disjoint per-client sets of non-edges, so that the final graph is
    fixed by each client's own toggle counts, whatever the interleaving."""
    rng = np.random.default_rng([seed, 2])
    taken = set()
    sets: List[List[Tuple[int, int]]] = [[] for _ in range(CLIENTS)]
    for chords in sets:
        while len(chords) < per_client:
            u, v = sorted(int(x) for x in rng.integers(0, graph.num_vertices, 2))
            if u != v and (u, v) not in taken and not graph.has_edge(u, v):
                taken.add((u, v))
                chords.append((u, v))
    return sets


def _client(run: Run, service, chords, seed: int, client: int, start: float,
            window: float, end: float, trace: bool, on: set) -> None:
    """One closed-loop client: its next op is sent when the previous returns."""
    rng = np.random.default_rng([seed, 3, client])
    while True:
        now = time.perf_counter()
        if now >= end:
            return
        rep = int((now - start) / window)
        clock = run.clock(trace and rep % 2 == 1)
        draw = rng.random()
        kind = next(k for k, p in SERVICE_MIX if draw < p)
        if kind == "toggle":
            chord = chords[int(rng.integers(len(chords)))]
            kind = "remove_edges" if chord in on else "add_edges"
            run.call(kind, "service", lambda: getattr(service, kind)("g", [chord]), clock, rep)
            on.symmetric_difference_update({chord})
        else:
            run.call(kind, "service", lambda: getattr(service, kind)("g"), clock, rep)


def serve(run: Run, scale: dict, seed: int, seconds: float, trace: bool) -> None:
    """service-mix: a numpy GraphService holding laplace3d 24^3, driven by
    CLIENTS closed-loop client threads with the seeded SERVICE_MIX."""
    n = scale["service"]
    holder: List[GraphService] = []

    def setup():
        while holder:
            holder.pop().close()
        service = GraphService(backend="numpy", repair_crossover=0.25)
        holder.append(service)
        A = laplace3d_matrix(n, n, n)
        graph = from_scipy(A)
        service.add_graph("g", graph)
        for kind in layers.QUERIES:
            getattr(service, kind)("g")
        return Inputs(seed, A, graph, _rhs(A.shape[0], seed)), service

    try:
        (inputs, service), setup_s = _timed_setups(setup)
        chords = _chords(inputs.graph, seed, scale["chords"])
        on: List[set] = [set() for _ in range(CLIENTS)]
        before = service.stats_snapshot()
        start = time.perf_counter()
        window = seconds / (SERVICE_WINDOWS if trace else 1)
        threads = [
            threading.Thread(target=_client, name=f"client-{c}", args=(
                run, service, chords[c], seed, c, start, window, start + seconds, trace, on[c]))
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
        elapsed = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a service client did not finish")
        after = service.stats_snapshot()
        rss = _peak_rss_mb()

        toggled_on = np.array(sorted(set().union(*on)), dtype=np.int64).reshape(-1, 2)
        expected = from_edges(inputs.graph.num_vertices,
                              np.concatenate([inputs.graph.edge_array(), toggled_on]))
        final = service.graph("g")
        run.check(final == expected, "final graph differs from the per-client toggle model")
        mis, _ = run.call("mis2", "service", lambda: service.mis2("g"), run.timer)
        fresh = kk_mis2(final, priority_scheme="fixed").in_mask
        run.check(np.array_equal(mis, fresh), "service MIS-2 differs from a from-scratch kk_mis2")
        colors, _ = run.call("color", "service", lambda: service.color("g"), run.timer)
        run.check(is_valid_coloring(final, colors), "service coloring is not proper")
    finally:
        while holder:
            holder.pop().close()

    untraced = [c for c in run.calls if not c[2]]
    _finish(run, rss, setup_s, len(untraced) / elapsed)
    lat = {k: sorted(1e3 * c[3] for c in untraced if c[0] in kinds)
           for k, kinds in (("query", layers.QUERIES), ("mutation", layers.MUTATIONS))}
    for name, q in (("query_p50_ms", 50), ("query_p99_ms", 99),
                    ("mutation_p50_ms", 50), ("mutation_p90_ms", 90)):
        values = lat[name.split("_")[0]]
        run.detail(name, float(np.percentile(values, q)) if values else 0.0, "ms", len(values))
    if trace:
        traced = [(c[0], c[3]) for c in run.calls if c[2]]
        run.layer.update(layers.service_metrics(traced, before, after))
        run.layer.update(layers.probe_layers(run, inputs, False))


def run_workload(run: Run, name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> None:
    size = SCALES[scale]
    if name == "flat-l3d48":
        kernels(run, size, seed, seconds, trace, partitioned=False)
    elif name == "p4-dist-l3d48":
        kernels(run, size, seed, seconds, trace, partitioned=True)
    elif name == "solve-el24":
        solve(run, size, seed, seconds, trace)
    elif name == "service-mix":
        serve(run, size, seed, seconds, trace)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if trace:
        run.layer["trace.overhead_pct"] = run.overhead_pct()
