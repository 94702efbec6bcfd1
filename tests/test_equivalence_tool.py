"""``tools/equivalence.py compare``: what it counts as a difference, and
its exit status with and without a tolerance."""

import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
_SPEC = importlib.util.spec_from_file_location("equivalence", _PATH)
equivalence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(equivalence)


def _dump(path: Path, w: np.ndarray) -> Path:
    np.savez(path, **{"f32/loss": np.asarray(0.5, dtype=np.float32), "params/w": w})
    return path


def test_compare_fails_on_any_byte_difference_unless_it_is_within_the_tolerance(tmp_path, capsys):
    w = np.ones(3, dtype=np.float32)
    a = _dump(tmp_path / "a.npz", w)
    near = w.copy()
    near[2] = np.nextafter(near[2], np.float32(2))  # one ulp, 1.2e-7 relative
    assert equivalence.compare(a, _dump(tmp_path / "same.npz", w.copy()), None) == 0
    assert "total      0 of    2 arrays differ" in capsys.readouterr().out
    b = _dump(tmp_path / "near.npz", near)
    assert equivalence.compare(a, b, None) == 1
    assert "params     1 of    1 arrays differ" in capsys.readouterr().out
    assert equivalence.compare(a, b, 1e-6) == 0
    assert equivalence.compare(a, b, 1e-8) == 1


def test_compare_fails_on_a_changed_dtype_or_a_missing_array(tmp_path):
    w = np.ones(3, dtype=np.float32)
    a = _dump(tmp_path / "a.npz", w)
    assert equivalence.compare(a, _dump(tmp_path / "f64.npz", w.astype(np.float64)), None) == 1
    np.savez(tmp_path / "short.npz", **{"params/w": w})
    assert equivalence.compare(a, tmp_path / "short.npz", 1.0) == 1
