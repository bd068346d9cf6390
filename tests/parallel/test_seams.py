"""The two execution seams every registered backend provides.

``map_graphs`` fans independent computations across a batch of graphs;
``map_partitions_resident`` opens the session that runs one partitioned kernel
part by part. Every backend must honour the same contract on both: results in
submission order, nothing run for an empty batch or phase, task errors
re-raised with their own type, per-part state retained across supersteps, and
the single-part and non-resident cases kept in process. Pooled backends run two
wide so the fan-out genuinely happens.
"""

import numpy as np
import pytest

from repro.parallel import available_backends, get_backend
from repro.parallel.backends import _LocalResidentSession


@pytest.fixture(params=available_backends())
def backend(request):
    return get_backend(request.param).with_jobs(2)


class _TaskError(ValueError):
    pass


def _square_plus_one(i):
    return i * i + 1


def _never_called(_):
    raise AssertionError("map_graphs ran a task for an empty batch")


def _fail_on_odd(i):
    if i % 2:
        raise _TaskError(f"item {i} failed")
    return i


def _accumulate(payload, state, delta):
    state["acc"][0] += delta
    return int(payload["base"][0] + state["acc"][0])


def _fail_task(payload, state, delta):
    raise _TaskError("task failed")


def _parts(k):
    payloads = [{"base": np.full(8, 100 * i, dtype=np.int64)} for i in range(k)]
    states = [{"acc": np.zeros(2, dtype=np.int64)} for _ in range(k)]
    return payloads, states


def _token(backend, name):
    return f"tok/test-seams/{backend.name}/{name}"


class TestMapGraphs:
    def test_every_item_once_in_order(self, backend):
        assert backend.map_graphs(_square_plus_one, range(17)) == [
            i * i + 1 for i in range(17)
        ]

    def test_empty_batch_runs_nothing(self, backend):
        assert backend.map_graphs(_never_called, []) == []

    def test_task_error_reraises_with_its_own_type(self, backend):
        with pytest.raises(_TaskError, match="item 1 failed"):
            backend.map_graphs(_fail_on_odd, [0, 1, 2, 3])


class TestResidentSession:
    @pytest.mark.parametrize("resident", [True, False], ids=["resident", "nonresident"])
    def test_results_in_task_order_and_state_retained(self, backend, resident):
        payloads, states = _parts(3)
        with backend.map_partitions_resident(
            _token(backend, f"order-{resident}"), payloads, states, resident=resident
        ) as session:
            assert session.run(_accumulate, [(2, 5), (0, 1), (1, 3)]) == [205, 1, 103]
            # Each part sees only its own accumulated state.
            assert session.run(_accumulate, [(0, 2), (2, 1)]) == [3, 206]
            assert session.supersteps == 2

    def test_empty_phase_returns_empty(self, backend):
        payloads, states = _parts(2)
        with backend.map_partitions_resident(
            _token(backend, "empty"), payloads, states
        ) as session:
            assert session.run(_accumulate, []) == []
            assert session.run(_accumulate, [(1, 4)]) == [104]

    def test_task_error_reraises_with_its_own_type(self, backend):
        payloads, states = _parts(2)
        with backend.map_partitions_resident(
            _token(backend, "error"), payloads, states
        ) as session:
            with pytest.raises(_TaskError, match="task failed"):
                session.run(_fail_task, [(0, None), (1, None)])

    @pytest.mark.parametrize("case", ["single-part", "nonresident"])
    def test_runs_in_process(self, backend, case):
        k, resident = (1, True) if case == "single-part" else (3, False)
        payloads, states = _parts(k)
        with backend.map_partitions_resident(
            _token(backend, case), payloads, states, resident=resident
        ) as session:
            assert isinstance(session, _LocalResidentSession)
            session.run(_accumulate, [(part, 7) for part in range(k)])
        # In process, the tasks mutated the caller's own state arrays.
        assert [int(s["acc"][0]) for s in states] == [7] * k
