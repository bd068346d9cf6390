"""The benchmark's own tests: run with ``python -m pytest perfbench/tests``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import metrics
import run as bench
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Tiny runs are short; the service needs a little longer so that every
#: query kind lands in an untraced window.
SECONDS = {"flat-l3d48": 0.3, "p4-dist-l3d48": 0.3, "solve-el24": 0.3, "service-mix": 2.0}


def _run(capsys, name, trace, seed=3):
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(SECONDS[name]),
            "--trace", str(int(trace))]
    code = bench.main(argv, scale="tiny")
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_benchmark_json_matches_the_metric_table():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(metrics.WORKLOADS.items())
    assert [tuple(m.values()) for m in doc["end_to_end"]] == metrics.END_TO_END
    assert [tuple(m.values()) for m in doc["per_layer"]] == metrics.PER_LAYER
    names = [w["name"] for w in doc["workloads"]] + [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert ("setup_s", "s", "lower", max(m["bound"] for m in doc["end_to_end"])) in metrics.END_TO_END
    assert all(metrics.moves(name) for name, _, _ in metrics.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(metrics.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(capsys, name, trace):
    code, report, result = _run(capsys, name, trace)
    assert code == 0 and result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {t[0]: t[1] for t in table}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["machine"]["nproc"] >= 1 and report["machine"]["numba"] in ("present", "absent")


def _flip_partitioned_bit(monkeypatch):
    real = workloads.kk_mis2

    def kk_mis2(graph, **kw):
        result = real(graph, **kw)
        if kw.get("partitions") is not None:
            result.in_mask[0] = not result.in_mask[0]
        return result

    monkeypatch.setattr(workloads, "kk_mis2", kk_mis2)


def _perturb_solve(monkeypatch):
    real = layers.pcg

    def pcg(A, b, **kw):
        result = real(A, b, **kw)
        result.x[0] += 1.0
        return result

    monkeypatch.setattr(layers, "pcg", pcg)


@pytest.mark.parametrize("name, plant", [
    ("p4-dist-l3d48", _flip_partitioned_bit),
    ("solve-el24", _perturb_solve),
])
def test_planted_defect_fails_the_run(capsys, monkeypatch, name, plant):
    plant(monkeypatch)
    code, report, result = _run(capsys, name, trace=False)
    assert code != 0 and not result["correct"]
    assert result["failed"] >= 1 and report["error_rate"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_without_library_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat-l3d48", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    tracer = Tracer("t")
    with tracer.span("outer", "a") as outer:
        with tracer.span("inner", "b") as inner:
            pass
    self_s = tracer.self_seconds()
    assert self_s["b"] == pytest.approx(inner.duration)
    assert self_s["a"] == pytest.approx(outer.duration - inner.duration)
    assert tracer.spans[1].parent == 0
