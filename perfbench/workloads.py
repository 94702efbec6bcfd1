"""Workload definitions, set-up, and the closed loop that times units.

A unit is one training step or one sampling request. Each workload runs
one client in a closed loop: the next unit starts when the previous one
returns. Inputs (scenes, prompts, layouts, t values, noise) come from the
workload seed; the library only sees them as arguments.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from duetdiff.model import DiffusionModel, ModelConfig
from duetdiff.nn import trunc_normal
from duetdiff.optim import Adam
from duetdiff.rng import Rng
from duetdiff.synthdata import generate_dataset
from duetdiff.tensor import Tensor

from . import glue
from .trace import UNIT, NullTracer, Tracer, instrument

POOL_SCENES = 128
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "sample"
    batch: int


WORKLOADS = {w.name: w for w in (
    Workload("train_b16", "train", 16),
    Workload("sample_b1", "sample", 1),
    Workload("sample_b16", "sample", 16),
)}


@dataclass
class State:
    """A built model with its inputs; ``params`` and ``opt`` serve training."""

    workload: Workload
    seed: int
    model: DiffusionModel
    params: dict
    opt: Adam | None
    batches: list[glue.Batch]
    model_s: float
    inputs_s: float


def redraw_out_conv(model: DiffusionModel, rng: Rng) -> None:
    """Replace the zero-initialised output conv with seeded weights.

    At init ``out_conv`` is zero, so eps is identically 0 and every sampler
    output and precision check would be vacuous.
    """
    tensors = {name: p.data for name, p in model.params().items()}
    tensors.update(model.buffers())
    w = tensors["denoiser.out_conv.w"]
    tensors["denoiser.out_conv.w"] = trunc_normal(rng, w.shape, dtype=w.dtype)
    model.load_tensors(tensors)


def make_batches(workload: Workload, seed: int, canvas: int) -> list[glue.Batch]:
    samples = generate_dataset(POOL_SCENES, canvas, seed, namespace=workload.kind)
    batches = []
    for start in range(0, POOL_SCENES - workload.batch + 1, workload.batch):
        rows = samples[start:start + workload.batch]
        x0 = Tensor(np.stack([s.target for s in rows])) if workload.kind == "train" else None
        batches.append(glue.Batch([s.prompt for s in rows],
                                  Tensor(np.stack([s.layout for s in rows])), x0))
    return batches


def build(workload: Workload, seed: int, config: ModelConfig) -> State:
    """Model construction, then input generation; each phase is timed."""
    t0 = perf_counter()
    root = Rng(seed)
    model = DiffusionModel(config, rng=root.split("model"))
    redraw_out_conv(model, root.split("out_conv"))
    params = model.params()
    opt = Adam(params, lr=glue.LEARNING_RATE) if workload.kind == "train" else None
    t1 = perf_counter()
    batches = make_batches(workload, seed, config.canvas)
    t2 = perf_counter()
    return State(workload, seed, model, params, opt, batches, t1 - t0, t2 - t1)


def setup(workload: Workload, seed: int, config: ModelConfig):
    """Set up ``SETUP_REPEATS`` times; returns the last state and every
    (model_s, inputs_s) pair."""
    timings = []
    for _ in range(SETUP_REPEATS):
        state = build(workload, seed, config)
        timings.append((state.model_s, state.inputs_s))
    return state, timings


def run_unit(state: State, k: int, rng: Rng, tracer):
    batch = state.batches[k % len(state.batches)]
    if state.workload.kind == "train":
        return glue.train_step(state.model, state.params, state.opt, batch, rng, tracer)
    return glue.sample_request(state.model, batch, rng, tracer)


def warm_up(state: State) -> None:
    """Run every shape the units use once, so lazy allocation is not timed."""
    rng = Rng(state.seed).split("warmup")
    batch = state.batches[0]
    if state.workload.kind == "train":
        glue.loss_and_grads(state.model, state.params, batch, rng, NullTracer())
    else:
        x_T = rng.gaussian(glue.noise_shape(state.model, len(batch.prompts)),
                           dtype=state.model.dtype)
        glue.sample(state.model, batch, x_T, NullTracer(), n_steps=2)


@dataclass
class LoopResult:
    seconds: float                      # wall time from loop start to last unit end
    unit_s: list[float]                 # duration of every attempted unit
    outputs: list                       # unit return value, or None when it raised
    errors: list[str] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    first_state: tuple = ()             # unit stream state before unit 0
    tracer: Tracer | None = None

    @property
    def attempted(self) -> int:
        return len(self.unit_s)


def closed_loop(state: State, seconds: float, trace: bool) -> LoopResult:
    """Run units back to back until ``seconds`` have passed.

    With ``trace`` the units alternate, at least one of each kind: even units run with the model's
    layers wrapped and spans recorded, odd units run untraced, so the two
    halves share the machine's speed drift and their difference is the
    tracing overhead.
    """
    rng = Rng(state.seed).split("units")
    null = NullTracer()
    tracer = Tracer() if trace else None
    res = LoopResult(0.0, [], [], first_state=rng.state, tracer=tracer)
    start = perf_counter()
    k = 0
    min_units = 2 if trace else 1
    while k < min_units or perf_counter() - start < seconds:
        traced = trace and k % 2 == 0
        restore = instrument(state.model, tracer) if traced else None
        t0 = perf_counter()
        try:
            if traced:
                with tracer.span(UNIT):
                    out = run_unit(state, k, rng, tracer)
            else:
                out = run_unit(state, k, rng, null)
        except Exception:  # a failed unit is counted, and the loop goes on
            out = None
            res.errors.append(traceback.format_exc())
        res.unit_s.append(perf_counter() - t0)
        if restore is not None:
            restore()
        res.outputs.append(out)
        res.traced.append(traced)
        k += 1
    res.seconds = perf_counter() - start
    return res
