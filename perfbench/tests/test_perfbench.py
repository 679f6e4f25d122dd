"""Tests of the benchmark itself, on its quick mode.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.kernels.prefix_sum import PrefixSum  # noqa: E402
from repro.kernels.suite import SMALL_SUITE  # noqa: E402


def _cli(*args, env=None):
    full_env = {k: v for k, v in os.environ.items()
                if k not in run.REFUSED_ENV}
    full_env.update(env or {})
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, env=full_env, capture_output=True, text=True, timeout=300)


def _quick(workload, trace=0, seed=3):
    proc = _cli("--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(l for l in lines if l.startswith("digest "))
    return digest, json.loads(lines[-1])


def _main_quick(capsys, workload="grid_intra"):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--quick"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_small_kernels_mirror_the_small_suite():
    for abbrev, factory in SMALL_SUITE.items():
        theirs, ours = factory(), workloads.make_bench(abbrev, 7)
        assert type(theirs) is type(ours)
        for name, value in vars(theirs).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, vars(ours)[name]), (abbrev, name)
            elif name != "rng":
                assert value == vars(ours)[name], (abbrev, name)


def test_planted_wrong_output_is_a_failed_op(monkeypatch, capsys):
    original = PrefixSum.run

    def wrong(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        next(iter(result.outputs.values()))[3] += 1.0
        return result

    monkeypatch.setattr(PrefixSum, "run", wrong)
    code, doc = _main_quick(capsys)
    assert code == 1 and doc["correct"] is False
    assert doc["failed"] == len(workloads.intra_cells(["PS"]))
    assert doc["attempted"] == len(workloads.intra_cells(
        workloads.QUICK_KERNELS))


def test_planted_detection_on_fault_free_cell_fails_the_run(monkeypatch,
                                                            capsys):
    original = PrefixSum.run

    def detecting(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        result.launches[0].detections.append((0.0, 0, 0))
        return result

    monkeypatch.setattr(PrefixSum, "run", detecting)
    code, doc = _main_quick(capsys)
    assert code == 1 and doc["correct"] is False and doc["failed"] > 0


def test_crashed_trial_is_an_attempted_and_failed_op(monkeypatch, capsys):
    original = workloads.fault_campaign.execute_trial

    def crashing(*args, index=-1, **kwargs):
        if index == 0:
            raise RuntimeError("planted crash")
        return original(*args, index=index, **kwargs)

    monkeypatch.setattr(workloads.fault_campaign, "execute_trial", crashing)
    code, doc = _main_quick(capsys, "fault_campaign")
    assert code == 1 and doc["correct"] is False
    # Trial 0 of each quick configuration crashed.
    assert doc["failed"] == len(workloads.QUICK_CAMPAIGNS)
    assert doc["attempted"] > doc["failed"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_runs_repeat_their_digest_and_print_the_declared_metrics(
        workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, untraced = _quick(workload)
    second, traced = _quick(workload, trace=1)
    assert first == second
    assert untraced["failed"] == traced["failed"] == 0
    assert set(untraced["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        printed = (untraced if metric in spec["end_to_end"] else traced)
        assert printed["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_program_settings():
    proc = _cli("--workload", "grid_inter", "--seed", "1", "--seconds", "0",
                env={"REPRO_FUSION": "0"})
    assert proc.returncode == 2 and not proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "grid_intra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout
