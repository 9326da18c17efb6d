"""Smoke test of the benchmark itself, at its smallest size.

    python3 -m pytest bench/test_smoke.py -q

Checks that every end-to-end and per-layer metric of BENCHMARK.json is
printed with its unit, that two traced runs of one seed count exactly the
same calls, and that the benchmark refuses to report without the library.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, root: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=root)


def result(proc) -> tuple:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(text: list, res: dict, spec: list) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in text), f"{m['name']} not printed with its unit"


def test_spec_lists_every_traced_metric():
    sys.path.insert(0, str(BENCH))
    from tracing import layer_metric_units

    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    for name, unit_better in layer_metric_units().items():
        assert per_layer.get(name) == unit_better, name
    assert {"trace_overhead", "checks.fail_ratio", "checks.float_resid_max"} <= set(per_layer)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    text, res = result(run(workload, 0))
    check_metrics(text, res, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_calls_repeat_exactly(workload):
    text, first = result(run(workload, 1))
    check_metrics(text, first, SPEC["per_layer"])
    _, second = result(run(workload, 1))
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert calls["cli.run.calls"] + calls["derivations.build_der_lie2.calls"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
