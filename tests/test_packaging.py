"""Every declared runtime dependency is installed and imported by the
library, and the library leaves out the imports it has decided against."""

import ast
import importlib.util
import re
import subprocess
import sys
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
