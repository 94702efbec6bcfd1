"""Byte-for-byte equivalence of two source trees on the benchmark's work.

    python3 tools/equivalence.py dump PARENT_TREE parent.npz
    python3 tools/equivalence.py dump . change.npz
    python3 tools/equivalence.py compare parent.npz change.npz [--rtol R]

``dump`` imports ``duetdiff`` and ``perfbench`` from TREE (``TREE/src`` and
TREE go first on ``sys.path``), builds ``train_b16`` at seed 3 and
``sample_b16`` at seed 4 at the default ``ModelConfig`` through
``perfbench.workloads.build``, and saves 867 arrays in four groups:

- ``f32``: the loss and the 288 gradients of ``glue.loss_and_grads``;
- ``f64``: the same on the float64 twin of ``checks.twin64``;
- ``params``: every parameter after 5 ``glue.train_step`` calls;
- ``sample``: one 16-row ``glue.sample_request``.

Run each tree in its own process, so a parent exported with
``git worktree add`` or ``git archive`` imports under its own name.
``compare`` prints, per group, how many arrays differ and the largest
max|B - A| / max|A|. It exits 1 on any byte difference or, with
``--rtol R``, only on a difference larger than R. One dump takes about
4 s on 2 cores.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

SEEDS = {"train_b16": 3, "sample_b16": 4}
TRAIN_STEPS = 5


def _import_tree(tree: Path) -> None:
    sys.path[:0] = [str(tree / "src"), str(tree)]
    import duetdiff.model
    import perfbench

    for module, depth in ((duetdiff.model, 2), (perfbench, 1)):
        found = Path(module.__file__).resolve().parents[depth]
        if found != tree:
            raise SystemExit(f"equivalence: {module.__name__} imported from {found}, not {tree}")


def dump(tree: Path, out: Path) -> None:
    _import_tree(tree)
    from duetdiff.model import ModelConfig
    from duetdiff.rng import Rng

    from perfbench import checks, glue
    from perfbench.trace import NullTracer
    from perfbench.workloads import WORKLOADS, build

    config, null = ModelConfig(), NullTracer()
    arrays = {}
    seed = SEEDS["train_b16"]
    state = build(WORKLOADS["train_b16"], seed, config)
    batch = state.batches[0]
    words = Rng(seed).split("equivalence").state
    twin = checks.twin64(state)
    for group, model, params, rows in (("f32", state.model, state.params, batch),
                                       ("f64", twin, twin.params(), checks._as64(batch))):
        loss, grads = glue.loss_and_grads(model, params, rows, Rng.from_state(words), null)
        arrays[f"{group}/loss"] = np.asarray(loss)
        arrays.update({f"{group}/{name}": g for name, g in grads.items()})

    rng = Rng(seed).split("units")
    for k in range(TRAIN_STEPS):
        glue.train_step(state.model, state.params, state.opt,
                        state.batches[k % len(state.batches)], rng, null)
    arrays.update({f"params/{name}": p.data for name, p in state.params.items()})

    seed = SEEDS["sample_b16"]
    state = build(WORKLOADS["sample_b16"], seed, config)
    arrays["sample/out"] = glue.sample_request(state.model, state.batches[0],
                                               Rng(seed).split("units"), null)
    np.savez(out, **arrays)
    print(f"{len(arrays)} arrays from {tree} -> {out}")


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max|b - a| / max|a|, in float64; inf where the shapes differ."""
    if a.shape != b.shape:
        return float("inf")
    delta = float(np.max(np.abs(b.astype(np.float64) - a), initial=0.0))
    scale = float(np.max(np.abs(a.astype(np.float64)), initial=0.0))
    return delta / scale if scale else (0.0 if delta == 0.0 else float("inf"))


def compare(path_a: Path, path_b: Path, rtol: float | None) -> int:
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    failed = False
    if a.keys() != b.keys():
        failed = True
        print(f"only in A: {sorted(a.keys() - b.keys())}; only in B: {sorted(b.keys() - a.keys())}")
    groups: dict[str, list] = {}
    for key in sorted(a.keys() & b.keys()):
        same = a[key].dtype == b[key].dtype and a[key].shape == b[key].shape \
            and a[key].tobytes() == b[key].tobytes()
        rel = 0.0 if same else _rel_diff(a[key], b[key])
        groups.setdefault(key.partition("/")[0], []).append((key, same, rel))
        within = same if rtol is None else rel <= rtol  # a NaN is never within
        failed = failed or not within
    for group, rows in groups.items():
        differing = [row for row in rows if not row[1]]
        worst = max(rows, key=lambda row: row[2])
        print(f"{group:<7} {len(differing):>4} of {len(rows):>4} arrays differ; "
              f"largest max|B-A|/max|A| {worst[2]:.3g}" + (f" ({worst[0]})" if differing else ""))
    total = sum(len(rows) for rows in groups.values())
    differing = sum(not row[1] for rows in groups.values() for row in rows)
    print(f"total   {differing:>4} of {total:>4} arrays differ"
          + ("" if rtol is None else f"; tolerance {rtol:g}"))
    return int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="save the 867 arrays of one source tree")
    p_dump.add_argument("tree", type=Path)
    p_dump.add_argument("out", type=Path)
    p_cmp = sub.add_parser("compare", help="compare two dumps")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    p_cmp.add_argument("--rtol", type=float, default=None)
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.tree.resolve(), args.out)
        return 0
    return compare(args.a, args.b, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
