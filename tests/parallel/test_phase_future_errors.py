"""PhaseFuture / step-group error paths.

A ``commit=False`` step group joins several ``run_async`` sub-phases into one
accounting superstep; these tests pin what happens when a member blows up:

* the failure is loud on *every* member — siblings raise
  :class:`StepGroupError` instead of quietly resolving;
* the group never commits partial statistics — no ``supersteps`` increment,
  no ``superstep_bytes`` / ``max_superstep_bytes`` contribution from any of
  the group's sub-phases, resolved or not;
* a poisoned open group cannot be joined by a later ``run_async``.
"""

import numpy as np
import pytest

from repro.parallel import StepGroupError, get_backend


class _Boom(RuntimeError):
    pass


def _ok(payload, state, delta):
    state["acc"] += delta
    return state["acc"].copy()


def _boom(payload, state, delta):
    raise _Boom("task function failed")


def _make_session(backend_name="numpy", parts=3, n=16, token="tok/phase-errors"):
    B = get_backend(backend_name)
    payloads = [{"w": np.arange(n, dtype=np.int64)} for _ in range(parts)]
    states = [{"acc": np.zeros(n, dtype=np.int64)} for _ in range(parts)]
    return B.map_partitions_resident(token, payloads, states)


@pytest.mark.parametrize("backend_name", ["numpy", "threaded"])
class TestStepGroupFailure:
    def test_failed_member_does_not_commit_partial_stats(self, backend_name):
        session = _make_session(backend_name)
        with session:
            # One committed warm-up superstep to have a non-trivial baseline.
            session.run(_ok, [(0, 1), (1, 1)])
            base_steps = session.supersteps
            base_bytes = session.superstep_bytes
            base_max = session.max_superstep_bytes
            assert base_steps == 1

            first = session.run_async(_ok, [(0, 2)], commit=False)
            second = session.run_async(_boom, [(1, 2)], commit=True)
            assert first.result() is not None  # resolves fine on its own
            with pytest.raises(_Boom):
                second.result()

            # The group must not half-commit: the resolved first member's
            # bytes and the superstep increment are dropped with the group.
            assert session.supersteps == base_steps
            assert session.superstep_bytes == base_bytes
            assert session.max_superstep_bytes == base_max

    def test_sibling_resolved_after_failure_raises_loudly(self, backend_name):
        session = _make_session(backend_name, token="tok/phase-errors-sibling")
        with session:
            healthy = session.run_async(_ok, [(0, 1)], commit=False)
            failing = session.run_async(_boom, [(1, 1)], commit=True)
            with pytest.raises(_Boom):
                failing.result()
            # The sibling was submitted before the failure and its task may
            # even have run — but consuming it must be loud, not silent.
            with pytest.raises(StepGroupError):
                healthy.result()
            assert not healthy.done
            assert session.supersteps == 0
            assert session.superstep_bytes == 0

    def test_member_resolved_before_failure_keeps_its_results(self, backend_name):
        session = _make_session(backend_name, token="tok/phase-errors-early")
        with session:
            early = session.run_async(_ok, [(0, 5)], commit=False)
            results = early.result()  # resolved while the group is healthy
            failing = session.run_async(_boom, [(1, 5)], commit=True)
            with pytest.raises(_Boom):
                failing.result()
            # Cached results stay readable; only the accounting was dropped.
            assert early.done
            assert np.array_equal(early.result()[0], results[0])
            assert session.supersteps == 0

    def test_open_poisoned_group_rejects_new_members(self, backend_name):
        session = _make_session(backend_name, token="tok/phase-errors-join")
        with session:
            # Fail a member while the group is still open (commit=False).
            failing = session.run_async(_boom, [(0, 1)], commit=False)
            with pytest.raises(_Boom):
                failing.result()
            with pytest.raises(StepGroupError):
                session.run_async(_ok, [(1, 1)], commit=True)

    def test_failure_in_committed_singleton_phase_commits_nothing(self, backend_name):
        session = _make_session(backend_name, token="tok/phase-errors-single")
        with session:
            with pytest.raises(_Boom):
                session.run(_boom, [(0, 1), (1, 1)])
            assert session.supersteps == 0
            assert session.superstep_bytes == 0
            # The session recovers: the next (fresh) superstep commits cleanly.
            session.run(_ok, [(0, 1)])
            assert session.supersteps == 1


class TestStepGroupFailureChunked:
    """Chunked's resident session runs on rank processes, whose collect path
    carries a task's own exception back over the wire — cover it."""

    def test_failed_member_is_loud_and_uncommitted(self):
        session = _make_session("chunked", token="tok/phase-errors-chunked")
        with session:
            healthy = session.run_async(_ok, [(0, 3)], commit=False)
            failing = session.run_async(_boom, [(1, 3)], commit=True)
            with pytest.raises(_Boom):
                failing.result()
            with pytest.raises(StepGroupError):
                healthy.result()
            assert session.supersteps == 0
            assert session.superstep_bytes == 0
