"""Self-test of the benchmark: ``python -m pytest perfbench`` from the repo root.

Tiny inputs only; these check that each workload emits exactly the metrics
``BENCHMARK.json`` names, with their units, that its checks pass on correct
outputs and count a perturbed output as failed, and that the runner refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == workloads.END_TO_END
    assert _declared("per_layer") == workloads.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = workloads.run_workload(workload, seed=5, seconds=0.2, trace=trace, size="tiny")
    line = result.line()
    assert line["correct"], result.failures
    assert line["attempted"] >= 1 and line["failed"] == 0
    want = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in line["metrics"].items()} == want
    assert all(np.isfinite(m["value"]) for m in line["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    json.dumps(line)  # the result line must serialize


def _nudge_loss(losses):
    losses[1] = float(np.nextafter(losses[1], np.inf))


def _nudge_answer(served):
    vertex, kind, value, ts = served[0]
    served[0] = (vertex, kind, np.nextafter(value, np.inf).astype(value.dtype), ts)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_output_is_counted_failed(workload):
    perturb = _nudge_answer if workload == "serve-churn" else _nudge_loss
    result = workloads.run_workload(workload, seed=5, seconds=0.2, trace=False, size="tiny", perturb=perturb)
    line = result.line()
    assert line["failed"] == 1, result.failures
    assert not line["correct"]


def test_runner_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "static-train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
