"""Every declared runtime dependency is installed and imported by the
library, the library leaves out the imports it has decided against, every
public name it defines has a caller or a planned one, and every config
field is read."""

import ast
import dataclasses
import importlib.util
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "duetdiff"


def _declared() -> list[str]:
    """Import names of the ``[project].dependencies`` entries."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return [re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_") for dep in deps]


def _imported() -> set[str]:
    """Top-level names of the absolute imports in the library's modules."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("dep", _declared())
def test_declared_dependency_is_installed_and_imported(dep):
    assert importlib.util.find_spec(dep) is not None, f"{dep} is declared but not installed"
    assert dep in _imported(), f"{dep} is declared but no module in src/duetdiff imports it"


def test_no_module_imports_numpy_random():
    # numpy.random pulls in secrets, hashlib and OpenSSL: about 6 MB more peak
    # RSS, about 12% of the sample_b16 benchmark workload; rng.py draws without it
    imports = "".join(f"import duetdiff.{path.stem}\n" for path in sorted(PACKAGE.glob("*.py")))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
         f"{imports}print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.strip() == "[]"


# Public names that nothing in the library or the benchmark uses yet, each with
# the ROADMAP item that plans its first caller. The list can only shrink: a
# listed name that gains a caller fails the guard until it is taken off.
UNCALLED = {
    "Conditioner.fuse_text_only": "item 2: the per-step condition choice",
    "Adam.load_state": "item 2: resuming from a checkpoint",
    "sdedit_init": "item 1: the SDEdit baseline",
    "layout_iou": "item 1: the eval script",
    "color_adherence": "item 1: the eval script",
    "Sample.scene": "item 1: translation re-renders source scene A",
}


def _references(node, members: bool = False) -> list[str]:
    """Every attribute read under ``node`` and, unless ``members``, every
    name read or imported: a method or field is only used as ``obj.name``,
    so a local variable of the same name does not count for it."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.append(sub.attr)
        elif members:
            continue
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append(sub.id)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.extend(alias.name.split(".")[-1] for alias in sub.names)
    return out


def _uncalled() -> set[str]:
    """Public top-level names, public methods and public annotated class
    fields of the library that no code in ``src/duetdiff`` or ``perfbench/``
    (its tests left out) refers to.

    A reference inside the definition's own body does not count."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    counts = {members: Counter() for members in (False, True)}
    for tree in trees.values():
        for members, counter in counts.items():
            counter.update(_references(tree, members))
    defined = []  # (qualified name, bare name, definition node, is a class member)
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node.name, node, False))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend((t.id, t.id, node, False) for t in targets if isinstance(t, ast.Name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        name = item.name
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                    else:
                        continue
                    defined.append((f"{node.name}.{name}", name, item, True))
    return {qualified for qualified, bare, node, members in defined
            if not bare.startswith("_")
            and counts[members][bare] == _references(node, members).count(bare)}


def test_every_public_name_has_a_caller_or_a_planned_one():
    uncalled = _uncalled()
    new, called = sorted(uncalled - UNCALLED.keys()), sorted(UNCALLED.keys() - uncalled)
    assert not new, f"{new}: no caller in src/duetdiff or perfbench; delete or call them"
    assert not called, f"{called}: now called; take them off UNCALLED"


def _attributes_read_outside_post_init() -> set[str]:
    """Attribute names loaded anywhere in ``src/duetdiff`` except inside a
    ``__post_init__``, where a config only checks its own fields."""
    names = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")))
    return names


def test_every_config_field_is_read_by_the_library():
    from duetdiff.denoiser import DenoiserConfig
    from duetdiff.model import ModelConfig

    read = _attributes_read_outside_post_init()
    unread = [f"{cls.__name__}.{f.name}" for cls in (ModelConfig, DenoiserConfig)
              for f in dataclasses.fields(cls) if f.name not in read]
    assert not unread, f"{unread}: nothing in src/duetdiff reads them; delete or read them"
