"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_b16 --seed 1 --seconds 45 --trace 0

Workloads: train_b16 (training steps at B=16), sample_b1 and sample_b16
(guided DDIM requests of 1 and 16 images). BENCHMARK.json lists
train_b16 and sample_b16. sample_b1 runs the same way by name, but on a
shared 2-core machine its runs spread by 20-30% (quartile distance over
median), wider than the 25% largest bound, so it serves per-layer study.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that records spans and prints the per-layer table. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. The full result,
with the environment and each check, also goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.

The library is imported from ``src/`` beside this directory; without it
the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library() -> None:
    if not (SRC / "duetdiff" / "model.py").is_file():
        raise SystemExit(f"perfbench: library source not found under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import duetdiff.model

    if Path(duetdiff.model.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: duetdiff imported from {duetdiff.model.__file__}, not {SRC}")


def run(workload_name: str, seed: int, seconds: float, trace: bool, config=None) -> dict:
    """One run: set up, warm up, time the closed loop, check, assemble metrics."""
    from duetdiff.model import ModelConfig

    from perfbench import checks, report
    from perfbench.kernels import kernel_table
    from perfbench.workloads import WORKLOADS, closed_loop, setup, warm_up

    workload = WORKLOADS[workload_name]
    config = config or ModelConfig()
    state, setups = setup(workload, seed, config)
    warm_up(state)
    res = closed_loop(state, seconds, trace)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    unit_ok = checks.finite_units(res)
    results = [checks.Check("finite_outputs", all(unit_ok),
                            f"{sum(unit_ok)} of {len(unit_ok)} units returned finite outputs")]
    results += checks.run_checks(state, res)
    failed = res.attempted if not all(c.passed for c in results[1:]) else unit_ok.count(False)

    if trace:
        kernels = kernel_table(config, workload.batch, dtype=state.model.dtype)
        metrics, nested = report.per_layer(res, setups, kernels)
        results.append(checks.Check("spans_add_up", nested,
                                    "layer spans lie inside their unit and do not overlap; "
                                    "bench.other_ms >= 0"))
    else:
        metrics = report.end_to_end(state, res, [m + i for m, i in setups], rss_mb)
    return {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "environment": report.environment(),
        "attempted": res.attempted,
        "failed": failed,
        "correct": failed == 0 and all(c.passed for c in results),
        "checks": [vars(c) for c in results],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "p90_ms": None if trace else report.p90_ms(res.unit_s),
        "unit_ms": [1e3 * s for s in res.unit_s],
        "errors": res.errors[:3],
    }


def print_result(result: dict) -> None:
    from perfbench.report import LAYER_TARGETS

    env = " ".join(f"{k}={v}" for k, v in result["environment"].items())
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"environment: {env}")
    for c in result["checks"]:
        print(f"check {c['name']:<18} {'pass' if c['passed'] else 'FAIL'}  {c['detail']}")
    for err in result["errors"]:
        print(err, file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(f"units attempted {attempted}  failed {failed}  error_rate {failed / attempted:.4f}")
    if result["p90_ms"] is not None:
        print(f"unit_ms.p90 {result['p90_ms']:.3f} ms  over {attempted} units")
    for name, m in result["metrics"].items():
        target = LAYER_TARGETS.get(name, "")
        print(f"{name:<44} {m['value']:>12.4f} {m['unit']:<8} {target}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train_b16", "sample_b1", "sample_b16"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _import_library()

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_result(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
