"""Smoke test of the benchmark harness on a tiny config.

Run from the repository root:

    python3 -m pytest bench/smoke_check.py

The file name keeps it out of the default test collection, so the repository's
own test run does not pay for it.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The harness with a reference table that no classification matches.
EVERY_OP_FAILS = """\
import sys
sys.path[:0] = ["src", "bench"]
import run, workloads
workloads.REFERENCE = {"checks": [], "verdicts": {
    n: {} for n in workloads.REFERENCE["verdicts"]}}
sys.exit(run.main(sys.argv[1:]))
"""


def run_bench(cwd, trace, program=("bench/run.py",)):
    return subprocess.run(
        [sys.executable, *program, "--workload", "classify_catalog",
         "--seed", "3", "--seconds", "0.5", "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_reports_every_metric_with_its_unit(trace, section):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 17
    assert ({n: m["unit"] for n, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in SPEC[section]})


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_exits_1_when_every_op_fails(trace):
    proc = run_bench(ROOT, trace, program=("-c", EVERY_OP_FAILS))
    assert proc.returncode == 1, proc.stderr
    result = last_json(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 17


def test_gate_rejects_a_wrong_verdict(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads
    ref = copy.deepcopy(workloads.REFERENCE)
    ref["verdicts"]["chi_plus"]["C"] = not ref["verdicts"]["chi_plus"]["C"]
    monkeypatch.setattr(workloads, "REFERENCE", ref)
    res = workloads.ClassifyCatalog._op("chi_plus", 7)
    assert res.error == "chi_plus: verdict table differs from the reference"
    assert workloads.ClassifyCatalog._op("weyl_plus", 7).error is None
