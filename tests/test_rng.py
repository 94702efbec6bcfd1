import numpy as np
import pytest

from duetdiff.rng import Rng


def test_same_seed_same_stream():
    a = Rng(42).gaussian((4,))
    b = Rng(42).gaussian((4,))
    assert np.array_equal(a, b)


def test_fixed_seed_reference_vector():
    # frozen so stream changes are caught across refactors
    rng = Rng(0)
    raw = rng.raw64(4)
    assert list(raw) == [5987356902031041503, 7051070477665621255,
                         6633766593972829180, 211316841551650330]
    assert rng.state == (12819629529729991464, 6045577685951396115,
                         2295764409171266266, 10290457378594590359)


def test_gaussian_moments():
    draws = Rng(7).gaussian((1_000_000,))
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 1.0) < 0.02


def test_split_streams_decorrelated():
    base = Rng(1)
    a = base.split("a").gaussian((100_000,))
    b = base.split("b").gaussian((100_000,))
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.01


def test_split_is_deterministic_and_non_advancing():
    base = Rng(5)
    before = base.state
    c1 = base.split("child").raw64(8)
    c2 = base.split("child").raw64(8)
    assert np.array_equal(c1, c2)
    assert base.state == before


def test_gaussian_dtype_does_not_change_stream():
    a = Rng(9).gaussian((10,), dtype=np.float32)
    b = Rng(9).gaussian((10,), dtype=np.float64)
    assert np.allclose(a, b.astype(np.float32))


def test_odd_shape_consumes_full_pair():
    r1 = Rng(11)
    r1.gaussian((3,))
    r2 = Rng(11)
    r2.gaussian((4,))
    assert r1.state == r2.state


def test_integers_in_bounds():
    draws = Rng(13).integers(10_000, 7)
    assert draws.min() >= 0
    assert draws.max() <= 6
    assert len(np.unique(draws)) == 7


def test_integers_rejects_bad_bound():
    with pytest.raises(ValueError):
        Rng(1).integers(4, 0)


def test_state_roundtrip():
    rng = Rng(99)
    rng.raw64(17)
    clone = Rng.from_state(rng.state)
    assert np.array_equal(rng.raw64(32), clone.raw64(32))
