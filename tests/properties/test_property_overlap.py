"""Property-based tests of the overlapped superstep schedule.

The overlap contract (`repro.parallel.partitioned`, "overlapped schedule"
notes): the drivers' boundary/interior split is deterministic under *any*
task interleaving consistent with the one ordering guarantee
:class:`~repro.parallel.backends.ResidentSession` makes — tasks for the same
part execute in submission order (per-part FIFO). The strategy here drives
the partitioned kernels through a session whose scheduler is adversarial: it
queues every submitted task and, at each collect, executes queued work across
*all* pending phases in a drawn random order (later phases' tasks on one part
may run before earlier phases' tasks on another). Whatever interleaving comes
out, statuses and every gated deterministic count must be bit-identical to
the barrier baseline.
"""

from collections import deque
from random import Random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel import (
    NumpyBackend,
    build_partition_layout,
    partitioned_greedy_color,
    partitioned_kk_mis2,
    partitioned_luby_mis1,
)
from repro.parallel.backends import _LocalResidentSession

from tests.properties.strategies import graphs

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class _ScrambledSession(_LocalResidentSession):
    """Session that executes pending tasks in an adversarial drawn order.

    Every submitted task lands in its part's FIFO queue — the only order the
    resident-session contract guarantees. A collect then repeatedly picks a
    random part with queued work and runs its head task, until the collecting
    phase's own tasks have all resolved. Because the queues hold tasks from
    *every* in-flight phase, this samples interleavings the lazy local
    session never produces: an interior sub-phase draining on one part while
    a sibling part is still inside the boundary sub-phase, or vice versa.
    """

    def __init__(self, token, payloads, states, resident=True, rng=None):
        super().__init__(token, payloads, states, resident=resident)
        self._rng = rng
        self._part_queues = {}

    def _submit(self, fn, tasks):
        results = {}

        for j, (i, delta) in enumerate(tasks):
            def run_one(j=j, i=i, delta=delta, fn=fn):
                results[j] = fn(self._payloads[i], self._states[i], delta)

            self._part_queues.setdefault(i, deque()).append(run_one)

        def collect():
            while len(results) < len(tasks):
                ready = sorted(p for p, q in self._part_queues.items() if q)
                self._part_queues[self._rng.choice(ready)].popleft()()
            return [results[j] for j in range(len(tasks))]

        return collect


class _ScrambledBackend(NumpyBackend):
    """Numpy-reference backend whose resident sessions scramble execution."""

    name = "scrambled"

    def __init__(self, seed):
        self._rng = Random(seed)

    def map_partitions_resident(self, token, payloads, states, resident=True):
        return _ScrambledSession(
            token, payloads, states, resident=resident, rng=self._rng
        )


def _deterministic_stats(stats):
    """Drop the perf_counter timing triple — everything else is gated."""
    return {k: v for k, v in stats.to_dict().items() if not k.endswith("_seconds")}


_KERNELS = [
    (
        "kk",
        lambda g, layout, backend, overlap: partitioned_kk_mis2(
            g, layout, seed=0, backend=backend, overlap=overlap
        ),
        lambda r: r.in_set,
    ),
    (
        "luby",
        lambda g, layout, backend, overlap: partitioned_luby_mis1(
            g, layout, seed=0, backend=backend, overlap=overlap
        ),
        lambda r: r.in_set,
    ),
    (
        "color",
        lambda g, layout, backend, overlap: partitioned_greedy_color(
            g, layout, backend=backend, overlap=overlap
        ),
        lambda r: r.colors,
    ),
]


@given(graphs(), st.integers(min_value=1, max_value=4), st.integers(0, 2**31))
@settings(**COMMON)
def test_any_schedule_interleaving_is_bit_identical_to_barrier(graph, k, seed):
    layout = build_partition_layout(graph, k)
    for name, run, values in _KERNELS:
        barrier = run(graph, layout, "numpy", False)
        overlapped = run(graph, layout, _ScrambledBackend(seed), True)
        assert np.array_equal(values(overlapped), values(barrier)), name
        assert _deterministic_stats(overlapped.partition_stats) == _deterministic_stats(
            barrier.partition_stats
        ), name


@given(graphs(), st.integers(min_value=1, max_value=4), st.integers(0, 2**31))
@settings(**COMMON)
def test_scrambled_full_halo_matches_barrier_full_halo(graph, k, seed):
    # The full-halo wire format exercises the explicit sub-worklist deltas
    # (the changed-delta protocol elides them), so scramble that path too.
    layout = build_partition_layout(graph, k)
    barrier = partitioned_kk_mis2(
        graph, layout, seed=0, changed_deltas=False, overlap=False
    )
    overlapped = partitioned_kk_mis2(
        graph,
        layout,
        seed=0,
        backend=_ScrambledBackend(seed),
        changed_deltas=False,
        overlap=True,
    )
    assert np.array_equal(overlapped.in_set, barrier.in_set)
    assert _deterministic_stats(overlapped.partition_stats) == _deterministic_stats(
        barrier.partition_stats
    )
