"""Fast test of the benchmark: every workload and check on a tiny model.

The tiny config keeps the default U-Net and fusion topology (two levels,
two res blocks, attention on the lower level, two fusion layers), so the
traced run yields the same per-layer names as the default config. The
sampler runs 2 DDIM steps instead of 20.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from duetdiff.denoiser import DenoiserConfig  # noqa: E402
from duetdiff.model import ModelConfig  # noqa: E402

from perfbench import checks, glue, run  # noqa: E402
from perfbench.workloads import WORKLOADS, closed_loop, setup  # noqa: E402

TINY = ModelConfig(
    canvas=12, d_embed=16, fusion_heads=2, fusion_hidden=32,
    encoder_channels=(4, 8), encoder_out_channels=8,
    denoiser=DenoiserConfig(base_channels=4, attn_resolutions=(6,), temb_dim=16,
                            cond_dim=16, n_heads=2),
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STEPS = 2


@pytest.fixture(autouse=True)
def few_sampler_steps(monkeypatch):
    monkeypatch.setattr(glue, "SAMPLE_STEPS", STEPS)


def _names(section):
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_run_is_correct_and_reports_every_metric(workload):
    result = run.run(workload, seed=3, seconds=0.0, trace=False, config=TINY)
    assert result["correct"], result["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    expected = {"finite_outputs", "train_f32_vs_f64"} if workload == "train_b16" else \
        {"finite_outputs", "sample_f32_vs_f64"} | ({"batch_invariance"} if workload == "sample_b16" else set())
    assert {c["name"] for c in result["checks"]} == expected


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    result = run.run(workload, seed=4, seconds=0.0, trace=True, config=TINY)
    assert result["correct"], result["checks"]
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == _names("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["denoiser.forward_ms"] > 0 and metrics["bench.traced_units"] >= 1
    calls = 1 if workload == "train_b16" else 3 * STEPS
    assert metrics["denoiser.calls_per_unit"] == calls
    assert metrics["denoiser.rows_per_call"] == WORKLOADS[workload].batch


def test_same_seed_gives_same_outputs():
    outs = []
    for _ in range(2):
        state, _ = setup(WORKLOADS["train_b16"], 5, TINY)
        outs.append(closed_loop(state, 0.0, trace=False).outputs)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("workload,check", [("sample_b1", "sample_f32_vs_f64"),
                                            ("sample_b16", "batch_invariance")])
def test_checks_catch_a_wrong_output(workload, check):
    state, _ = setup(WORKLOADS[workload], 6, TINY)
    res = closed_loop(state, 0.0, trace=False)
    assert all(c.passed for c in checks.run_checks(state, res))
    out = res.outputs[0] = res.outputs[0].copy()
    out[-1] += 1e-2 * np.max(np.abs(out))
    failed = {c.name for c in checks.run_checks(state, res) if not c.passed}
    assert failed == {check}
    out[0, 0, 0, 0] = np.nan
    assert checks.finite_units(res) == [False]


def test_exits_without_result_when_the_library_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample_b1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
