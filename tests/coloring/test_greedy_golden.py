"""Golden results for the flat (unpartitioned) greedy coloring kernels.

``partitioned_golden.json`` pins the partitioned kernels only; the flat
kernels it is compared against are pinned here. For each graph this test
checks the round count, the color count, the per-kernel modelled traffic
and a SHA-256 of the colors of :func:`greedy_color` and
:func:`distance2_color` against ``greedy_golden.json``. A rewrite of the
round loop that keeps every color, round and traffic byte passes unchanged.

The JSON is regenerated only by a change that is *meant* to move a result::

    PYTHONPATH=src python tests/coloring/test_greedy_golden.py
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.coloring import distance2_color, greedy_color
from repro.graph import elasticity3d, from_edges, from_scipy, grid2d, laplace3d_matrix, random_gnp

GOLDEN = pathlib.Path(__file__).with_name("greedy_golden.json")


def _laplace3d_symmetry(n, seed):
    """laplace3d n^3 with its vertices renumbered by a seeded cube symmetry."""
    rng = np.random.default_rng(seed)
    ids = np.arange(n ** 3).reshape(n, n, n).transpose(rng.permutation(3))
    for axis in np.nonzero(rng.integers(0, 2, 3))[0]:
        ids = np.flip(ids, axis)
    order = ids.ravel()
    return from_scipy(sp.csr_matrix(laplace3d_matrix(n, n, n)[order][:, order]))


def _with_isolated():
    """A random graph on the even vertices of 0..39; the odd ones are isolated."""
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 20, size=(45, 2)) * 2
    return from_edges(40, [(int(u), int(v)) for u, v in pairs if u != v])


GRAPHS = {
    "grid9x11": lambda: grid2d(9, 11),
    "gnp150": lambda: random_gnp(150, 0.06, seed=4),
    "laplace3d12_sym": lambda: _laplace3d_symmetry(12, seed=7),
    "elasticity3d3": lambda: elasticity3d(3, 3, 3),
    "isolated40": _with_isolated,
}

KERNELS = {
    "greedy": greedy_color,
    "distance2": distance2_color,
}


def _record(result):
    traffic = {}
    for k in result.traffic.kernels:
        entry = traffic.setdefault(k.name, {"regions": 0, "bytes_read": 0, "bytes_written": 0})
        entry["regions"] += 1
        entry["bytes_read"] += k.bytes_read
        entry["bytes_written"] += k.bytes_written
    colors = np.ascontiguousarray(result.colors)
    return {
        "rounds": result.rounds,
        "num_colors": result.num_colors,
        "traffic": traffic,
        "colors_sha256": hashlib.sha256(
            str(colors.dtype).encode() + colors.tobytes()
        ).hexdigest(),
    }


def _compute_all():
    records = {}
    for graph_name, make in GRAPHS.items():
        graph = make()
        for kernel, fn in KERNELS.items():
            records[f"{kernel}/{graph_name}"] = _record(fn(graph, backend="numpy"))
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
def test_results_match_golden(computed, golden, kernel):
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
