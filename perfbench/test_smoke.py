"""Smoke test of the benchmark: every workload and the traced run at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every end-to-end and per-layer metric is emitted with its unit,
that every output check passes, and that the benchmark fails without a
result when the package is missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# figures each workload prints besides the JSON result: name -> unit
WORKLOAD_FIGURES = {
    "qkd-bulk": {"rounds_per_s": "1/s"},
    "qkd-sweep-traced": {"rounds_per_s": "1/s", "run_ms.p50": "ms", "run_ms.p90": "ms"},
    "bound-search": {"bound_value_bits": "bit"},
    "cli-verify": {},
}

PER_LAYER = (
    [f"qkd.round_us.{p}.{e}" for p in ("lm05", "ext2", "ext4")
     for e in ("none", "qmm", "intercept")]
    + [f"qkd.fixed_ms.{p}" for p in ("lm05", "ext2", "ext4")]
    + ["qkd.trace_us_per_round.lm05", "qkd.trace_us_per_round.ext4",
       "qkd.draws_us_per_round", "qkd.rss_bytes_per_round"]
    + [f"bounds.exp_map_us.d{d}" for d in (2, 3, 4)]
    + ["bounds.entropy_sum_us.d3", "bounds.entropy_sum_us.d4bip"]
    + [f"bounds.{m}.{c}" for m in ("search_s_per_start", "starts_at_best")
       for c in ("0Z0X", "0ZpZ", "0ZpX", "d3", "d4bip")]
    + ["bounds.value_bits", "muub.partner_s_per_start.weyl3", "muub.partner_residual.weyl3",
       "muub.verify_prop_maximal_ms.ext4", "tester.outcome_distribution_us.d3",
       "tester.shannon_entropy_us", "qmath.haar_random_unitary_us.d4",
       "ppovm.probability_via_choi_us"]
    + [f"cli.verify_suite_s.{s}" for s in ("qmath", "tester", "ppovm", "bounds", "muub", "props")]
    + ["cli.overhead_ms.qkd", "trace.overhead_pct"]
)


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
    printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
    return result, printed, lines


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_emits_end_to_end_metrics(workload):
    result, printed, _ = _parse(_run(workload, 0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    common = {"error_rate": "1", "op_ms.p50": "ms", "wall_s.raw": "s", "setup_s.raw": "s"}
    for name, unit in {**WORKLOAD_FIGURES[workload], **common}.items():
        assert printed[name] == unit


def test_traced_run_emits_per_layer_metrics():
    result, _, lines = _parse(_run("qkd-sweep-traced", 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert set(PER_LAYER) == set(want)
    assert sum(ln.startswith("baseline ") for ln in lines) >= 10
    spans = json.loads((ROOT / "perfbench/out/spans-qkd-sweep-traced-s1.json").read_text())
    names = {s[2] for s in spans["spans"]}
    assert {"pass", "layers", "qkd.run_lm05", "bounds.estimate_bound", "cli.main"} <= names


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("qkd-bulk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
