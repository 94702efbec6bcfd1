"""Every declared runtime dependency is installed and imported by the
library, the library leaves out the imports it has decided against, every
public name it defines has a caller or a planned one, every member whose
callers that guard cannot tell apart by name is listed, every config field
is read, the counts of settable values and of code lines are pinned, and
the pytest configuration lets a run go on past a failing hypothesis test."""

import ast
import dataclasses
import importlib.util
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
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
    "Conditioner.fuse_text_only": "item 1a: the text CFG rule of the per-step condition choice",
    "Adam.load_state": "item 1b: resuming from a checkpoint",
    "sdedit_init": "item 2 translation: the SDEdit baseline",
    "layout_iou": "item 2 eval: the eval script",
    "color_adherence": "item 2 eval: the eval script",
    "Sample.scene": "item 2 translation: re-renders source scene A",
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


def _trees() -> dict:
    """The parsed modules of ``src/duetdiff`` and ``perfbench/`` (its tests left out)."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}


def _public_definitions(trees: dict) -> list[tuple]:
    """(qualified name, bare name, definition node, is a class member) for the
    library's public top-level names, public methods and public annotated
    class fields."""
    defined = []
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
    return [entry for entry in defined if not entry[1].startswith("_")]


def _uncalled() -> set[str]:
    """Public top-level names, public methods and public annotated class
    fields of the library that no code in ``src/duetdiff`` or ``perfbench/``
    (its tests left out) refers to.

    A reference inside the definition's own body does not count. A member
    is matched by its bare name, so one named in ``AMBIGUOUS`` counts the
    reads of its namesakes too."""
    trees = _trees()
    counts = {members: Counter() for members in (False, True)}
    for tree in trees.values():
        for members, counter in counts.items():
            counter.update(_references(tree, members))
    return {qualified for qualified, bare, node, members in _public_definitions(trees)
            if counts[members][bare] == _references(node, members).count(bare)}


def test_every_public_name_has_a_caller_or_a_planned_one():
    uncalled = _uncalled()
    new, called = sorted(uncalled - UNCALLED.keys()), sorted(UNCALLED.keys() - uncalled)
    assert not new, f"{new}: no caller in src/duetdiff or perfbench; delete or call them"
    assert not called, f"{called}: now called; take them off UNCALLED"


# Public members whose bare name another public library name or an
# ``np.ndarray`` attribute shares, so the caller guard, which matches ``x.name``
# by name alone, cannot tell their callers apart. Each says why it keeps the
# shared name; a new one fails until it is renamed or listed here.
AMBIGUOUS = {
    "dtype": "Tensor mirrors the ndarray it wraps",
    "item": "Tensor mirrors the ndarray it wraps",
    "ndim": "Tensor mirrors the ndarray it wraps",
    "shape": "Tensor mirrors the ndarray it wraps",
    "size": "Tensor mirrors the ndarray it wraps",
    "total_steps": "NoiseSchedule.total_steps is the ModelConfig field it is built from",
}


def _ambiguous() -> set[str]:
    defined = _public_definitions(_trees())
    names = Counter(bare for _, bare, _, _ in defined)
    return {bare for _, bare, _, member in defined
            if member and (names[bare] > 1 or hasattr(np.ndarray, bare))}


def test_every_member_the_caller_guard_cannot_tell_apart_is_listed():
    ambiguous = _ambiguous()
    new, gone = sorted(ambiguous - AMBIGUOUS.keys()), sorted(AMBIGUOUS.keys() - ambiguous)
    assert not new, f"{new}: named like another library name or an ndarray attribute; rename or list them"
    assert not gone, f"{gone}: no longer shared; take them off AMBIGUOUS"


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


# Argument defaults plus dataclass fields in src/duetdiff: each is a value a
# caller may set, and each one nothing sets is a knob to delete.
SETTABLE = 41


def _settable() -> list[str]:
    """``file:line name`` of each argument default and dataclass field."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                named = [(a.lineno, a.arg) for a in defaulted]
            elif isinstance(node, ast.ClassDef):
                decorators = {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                              for d in node.decorator_list}
                if "dataclass" not in decorators:
                    continue
                named = [(item.lineno, ast.unparse(item.target))
                         for item in node.body if isinstance(item, ast.AnnAssign)]
            else:
                continue
            found.extend(f"{path.name}:{line} {name}" for line, name in named)
    return found


def test_the_settable_value_count_is_pinned():
    found = _settable()
    assert len(found) == SETTABLE, (
        f"src/duetdiff has {len(found)} settable values (argument defaults plus dataclass "
        f"fields), pinned at {SETTABLE}: move the pin in the same diff and say why in "
        f"CHANGES.md. Found:\n" + "\n".join(found))


# Code lines in src/duetdiff: lines that are not blank, a comment or part of a
# docstring. This is the size that CHANGES.md and ROADMAP.md quote.
CODE_LINES = 1321


def _code_lines(path: Path) -> int:
    """The code lines of one module, by the rule above."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)


def test_the_code_line_count_is_pinned():
    counts = {path.name: _code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    total = sum(counts.values())
    assert total == CODE_LINES, (
        f"src/duetdiff has {total} code lines, pinned at {CODE_LINES}: move the pin in the "
        f"same diff and say why in CHANGES.md. By file:\n"
        + "\n".join(f"{name} {count}" for name, count in counts.items()))


def _tiny_config(path: Path) -> str:
    """``ast.dump`` of the ``TINY = ModelConfig(...)`` expression in ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TINY"]
                and isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "ModelConfig"):
            return ast.dump(node.value)
    raise AssertionError(f"{path}: no TINY = ModelConfig(...)")


def test_the_two_tiny_configs_agree():
    # the library's tests and the benchmark's tests each define TINY; until one
    # imports the other, a change to either must be made to both
    ours, bench = ROOT / "tests" / "tiny.py", ROOT / "perfbench" / "tests" / "test_perfbench.py"
    assert _tiny_config(ours) == _tiny_config(bench), f"TINY differs between {ours} and {bench}"


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # on a failing @given test, hypothesis's plugin imports libcst, and that
    # import warns; the run must report the next test and exit 1, not stop at 3
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(n):\n    assert n < 5\n\n\n"
        "def test_passes():\n    pass\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c",
         str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
