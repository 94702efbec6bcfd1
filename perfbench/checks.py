"""Correctness checks, run on every run after the timed loop.

None of them is timed or counted in set-up. A failed per-unit check fails
that unit; a failed whole-program check (precision, batch invariance)
fails every attempted unit, because no output of that program is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from duetdiff.model import DiffusionModel
from duetdiff.rng import Rng
from duetdiff.tensor import Tensor

from . import glue
from .trace import NullTracer
from .workloads import LoopResult, State

# float32 against float64 from the same weights and inputs. Losses and
# gradients are compared by relative L2 error over all entries; sampler
# outputs, which reach several hundred in magnitude, by max abs error
# relative to the largest float64 value.
TRAIN_LOSS_RTOL = 1e-5
TRAIN_GRAD_RTOL = 1e-4
SAMPLE_RTOL = 1e-5
# one row of a batched request against the same row run alone at B=1
BATCH_RTOL = 1e-5


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


def finite_units(res: LoopResult) -> list[bool]:
    """Per unit: it returned, and every loss, grad norm or image is finite."""
    ok = []
    for out in res.outputs:
        if out is None:
            ok.append(False)
        else:
            ok.append(bool(np.all(np.isfinite(np.asarray(out, dtype=np.float64)))))
    return ok


def twin64(state: State) -> DiffusionModel:
    """A float64 model holding exactly the float32 model's current weights."""
    model = state.model
    twin = DiffusionModel(model.config, dtype=np.float64)
    tensors = {name: p.data.astype(np.float64) for name, p in model.params().items()}
    tensors.update({name: b.astype(np.float64) for name, b in model.buffers().items()})
    twin.load_tensors(tensors)
    return twin


def _as64(batch: glue.Batch) -> glue.Batch:
    x0 = None if batch.x0 is None else Tensor(batch.x0.data.astype(np.float64))
    return glue.Batch(batch.prompts, Tensor(batch.layouts.data.astype(np.float64)), x0)


def _rel_l2(a: dict, b: dict) -> float:
    num = sum(float(np.sum((a[k].astype(np.float64) - b[k]) ** 2)) for k in b)
    den = sum(float(np.sum(b[k] ** 2)) for k in b)
    return float(np.sqrt(num / den)) if den else float("inf")


def train_precision(state: State, twin: DiffusionModel) -> Check:
    """One step's loss and gradients at float32 against float64."""
    batch = state.batches[0]
    rng = Rng(state.seed).split("check")
    words = rng.state
    loss32, g32 = glue.loss_and_grads(state.model, state.params, batch, rng, NullTracer())
    loss64, g64 = glue.loss_and_grads(twin, twin.params(), _as64(batch),
                                      Rng.from_state(words), NullTracer())
    loss_err = abs(loss32 - loss64) / abs(loss64)
    same_keys = set(g32) == set(g64)
    grad_err = _rel_l2(g32, g64) if same_keys else float("inf")
    passed = same_keys and loss_err <= TRAIN_LOSS_RTOL and grad_err <= TRAIN_GRAD_RTOL
    return Check("train_f32_vs_f64", passed,
                 f"loss rel err {loss_err:.2e} (tol {TRAIN_LOSS_RTOL:.0e}), "
                 f"grad rel L2 err {grad_err:.2e} (tol {TRAIN_GRAD_RTOL:.0e}), "
                 f"{len(g64)} gradients")


def _first_request(state: State, res: LoopResult):
    """Inputs and float32 output of the first timed request."""
    batch = state.batches[0]
    x_T = Rng.from_state(res.first_state).gaussian(
        glue.noise_shape(state.model, len(batch.prompts)), dtype=state.model.dtype)
    return batch, x_T, res.outputs[0]


def _max_rel(out: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(out.astype(np.float64) - ref)) / max(1.0, np.max(np.abs(ref))))


def sample_precision(state: State, res: LoopResult, twin: DiffusionModel) -> Check:
    """The first timed request's first row at float32 against float64.

    At B=1 the float32 side is the timed output itself. At B>1 it is that
    row sampled alone, which ``batch_invariance`` ties to the batched rows.
    """
    batch, x_T, out = _first_request(state, res)
    if out is None:
        return Check("sample_f32_vs_f64", False, "first request failed")
    one = batch.rows(0, 1)
    if len(batch.prompts) > 1:
        out = glue.sample(state.model, one, x_T[:1], NullTracer())
    ref = glue.sample(twin, _as64(one), x_T[:1].astype(np.float64), NullTracer())
    err = _max_rel(out, ref)
    return Check("sample_f32_vs_f64", err <= SAMPLE_RTOL,
                 f"max abs err / max|x| {err:.2e} (tol {SAMPLE_RTOL:.0e}), "
                 f"max|x| {np.max(np.abs(ref)):.1f}")


def batch_invariance(state: State, res: LoopResult) -> Check:
    """Each row of the first timed request against that row sampled alone."""
    batch, x_T, out = _first_request(state, res)
    if out is None:
        return Check("batch_invariance", False, "first request failed")
    err = 0.0
    for i in range(len(batch.prompts)):
        alone = glue.sample(state.model, batch.rows(i, i + 1), x_T[i:i + 1], NullTracer())
        err = max(err, _max_rel(alone[0], out[i].astype(np.float64)))
    return Check("batch_invariance", err <= BATCH_RTOL,
                 f"max abs err / max|x| {err:.2e} (tol {BATCH_RTOL:.0e}) over "
                 f"{len(batch.prompts)} rows")


def run_checks(state: State, res: LoopResult) -> list[Check]:
    twin = twin64(state)
    if state.workload.kind == "train":
        return [train_precision(state, twin)]
    checks = [sample_precision(state, res, twin)]
    if state.workload.batch > 1:
        checks.append(batch_invariance(state, res))
    return checks
