"""Metric assembly, environment record and printing for one benchmark run."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics

import numpy as np
from duetdiff import rng as rng_module

from .trace import median_ms, unit_breakdown
from .workloads import LoopResult, State

# Per-layer metric -> the end-to-end metric it should move, on which
# workload. A layer a workload never enters reads 0 there, and a change to
# it should leave that workload's end-to-end metrics unchanged.
LAYER_TARGETS = {
    "rng.draw_ms": "images_per_s on train_b16 (~5%); no change on sample_*",
    "conditioning.encode_ms": "images_per_s on train_b16 (~4% with dropout and fuse)",
    "conditioning.dropout_ms": "images_per_s on train_b16",
    "conditioning.fuse_ms": "images_per_s on train_b16",
    "conditioning.fuse_joint_ms": "unit_ms.p50 on sample_* (<1%)",
    "conditioning.fuse_image_only_ms": "unit_ms.p50 on sample_* (<1%)",
    "conditioning.fuse_null_ms": "unit_ms.p50 on sample_* (<1%)",
    "diffusion.forward_diffuse_ms": "small; shows work moved into it (train_b16)",
    "diffusion.ddim_step_ms": "small; shows work moved into it (sample_*)",
    "denoiser.forward_ms": "images_per_s on sample_b16 (~99%), ~45% of train_b16, "
                           "unit_ms.p50 on sample_b1",
    "denoiser.calls_per_unit": "count; falls if guidance branches are batched",
    "denoiser.rows_per_call": "count; rises if guidance branches are batched",
    "tensor.backward_ms": "images_per_s on train_b16 only",
    "optim.clip_ms": "images_per_s on train_b16 only",
    "optim.adam_ms": "images_per_s on train_b16 only",
    "sample.guidance_ms": "unit_ms.p50 on sample_*",
    "bench.other_ms": "unit time no span covers (loss, gradient map, span cost)",
    "setup.model_s": "setup_s",
    "setup.inputs_s": "setup_s",
}
LAYERS = [name[:-3] for name in LAYER_TARGETS if name.endswith("_ms") and name != "bench.other_ms"]


def environment() -> dict:
    """What decides which program runs: library versions, threads, rng fill."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "rng_fill": rng_module._fill.__name__,
    }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def end_to_end(state: State, res: LoopResult, setup_s: list[float], rss_mb: float) -> dict:
    """name -> (value, unit) over every attempted unit of an untraced loop."""
    rows = state.workload.batch * sum(out is not None for out in res.outputs)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "images_per_s": (rows / res.seconds, "1/s"),
        "unit_ms.p50": (median_ms(res.unit_s), "ms"),
    }


def p90_ms(unit_s: list[float]) -> float | None:
    """90th percentile, only when at least ten units lie beyond it."""
    if len(unit_s) < 100:
        return None
    return 1e3 * statistics.quantiles(unit_s, n=10)[-1]


def per_layer(res: LoopResult, setups: list[tuple[float, float]], kernels: dict) -> tuple[dict, bool]:
    """name -> (value, unit) from the traced units, and whether spans nest."""
    units = unit_breakdown(res.tracer.records)
    out = {}
    for layer in LAYERS:
        out[f"{layer}_ms"] = (median_ms([u["layers"].get(layer, 0.0) for u in units]), "ms")
    out["bench.other_ms"] = (median_ms([u["other"] for u in units]), "ms")
    calls = statistics.median(u["calls"] for u in units)
    out["denoiser.calls_per_unit"] = (calls, "count")
    out["denoiser.rows_per_call"] = (
        statistics.median(u["rows"] / u["calls"] for u in units) if calls else 0.0, "count")
    modules = sorted({name for u in units for name in u["selfs"]
                      if name.startswith(("denoiser.", "cond."))})
    for name in modules:
        out[f"{name}.self_ms"] = (median_ms([u["selfs"].get(name, 0.0) for u in units]), "ms")
    traced = [s for s, tr in zip(res.unit_s, res.traced) if tr]
    untraced = [s for s, tr in zip(res.unit_s, res.traced) if not tr]
    out["bench.traced_units"] = (len(traced), "count")
    out["bench.unit_ms.traced"] = (median_ms(traced), "ms")
    out["bench.unit_ms.untraced"] = (median_ms(untraced), "ms")
    out["bench.trace_overhead_pct"] = (
        100.0 * (out["bench.unit_ms.traced"][0] / out["bench.unit_ms.untraced"][0] - 1.0), "%")
    out["setup.model_s"] = (statistics.median(m for m, _ in setups), "s")
    out["setup.inputs_s"] = (statistics.median(i for _, i in setups), "s")
    out.update(kernels)
    nested = all(u["nested"] and u["other"] >= 0.0 for u in units)
    return out, nested
