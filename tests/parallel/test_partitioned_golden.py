"""Golden counts for the partitioned drivers, in every schedule and wire format.

The byte and superstep gates elsewhere compare one mode against another in
the same run, so a change that shifted every mode alike would pass them all.
This test pins the absolute figures instead: for each kernel x mode x graph x
partitioning it checks the superstep count, the logical shipped bytes, the
modelled ghost-exchange traffic, the iteration/round count and a SHA-256 of
the result arrays against ``partitioned_golden.json``.

The JSON is regenerated only by a change that is *meant* to move a count::

    PYTHONPATH=src python tests/parallel/test_partitioned_golden.py
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.graph import grid2d, laplace3d, random_gnp
from repro.parallel import (
    build_partition_layout,
    partitioned_greedy_color,
    partitioned_kk_mis2,
    partitioned_luby_mis1,
)

GOLDEN = pathlib.Path(__file__).with_name("partitioned_golden.json")

GRAPHS = {
    "grid5x7": lambda: grid2d(5, 7),
    "gnp60": lambda: random_gnp(60, 0.08, seed=2),
    "laplace3d6": lambda: laplace3d(6, 6, 6),
}

KERNELS = {
    "kk": partitioned_kk_mis2,
    "luby": partitioned_luby_mis1,
    "greedy": partitioned_greedy_color,
}

MODES = {
    "default": {},
    "no_resident": {"resident": False},
    "full_halo": {"changed_deltas": False},
    "barrier": {"overlap": False},
}


def _partitionings(graph):
    """A 4-part count, and an explicit 4-part labelling whose part 1 is empty."""
    n = graph.num_vertices
    labels = np.array([0, 2, 3], dtype=np.int64)[(np.arange(n, dtype=np.int64) * 3) // n]
    return {"p4": 4, "labels_empty1": labels}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _record(kernel, result):
    stats = result.partition_stats
    exchanges = [k for k in result.traffic.kernels if k.name == "ghost_exchange"]
    rec = {
        "supersteps": stats.supersteps,
        "resident_bytes": stats.resident_bytes,
        "superstep_bytes": stats.superstep_bytes,
        "max_superstep_bytes": stats.max_superstep_bytes,
        "ghost_exchanges": len(exchanges),
        "ghost_bytes_read": sum(k.bytes_read for k in exchanges),
        "ghost_bytes_written": sum(k.bytes_written for k in exchanges),
    }
    if kernel == "greedy":
        rec["rounds"] = result.rounds
        rec["result_sha256"] = _digest(result.colors, np.array([result.num_colors]))
    else:
        rec["iterations"] = result.iterations
        rec["result_sha256"] = _digest(result.in_set, result.in_mask)
    return rec


def _compute_all():
    records = {}
    for graph_name, make in GRAPHS.items():
        graph = make()
        for part_name, spec in _partitionings(graph).items():
            layout = build_partition_layout(graph, spec)
            for kernel, driver in KERNELS.items():
                for mode, knobs in MODES.items():
                    result = driver(graph, layout, backend="numpy", **knobs)
                    records[f"{kernel}/{mode}/{graph_name}/{part_name}"] = _record(
                        kernel, result
                    )
    return records


@pytest.fixture(scope="module")
def computed():
    return _compute_all()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(computed, golden):
    assert sorted(computed) == sorted(golden)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_counts_and_results_match_golden(computed, golden, kernel):
    mismatches = {
        case: {k: (computed[case][k], want[k]) for k in want if computed[case].get(k) != want[k]}
        for case, want in golden.items()
        if case.startswith(f"{kernel}/")
    }
    mismatches = {case: diff for case, diff in mismatches.items() if diff}
    assert not mismatches, f"(computed, golden) per differing field: {mismatches}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
