import numpy as np
import pytest

from duetdiff.rng import Rng

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def _splitmix64(state: int, n: int) -> list[int]:
    """Textbook sequential SplitMix64 on python ints: n outputs from ``state``."""
    out = []
    for _ in range(n):
        state = (state + GOLDEN) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_same_seed_same_stream():
    a = Rng(42).gaussian((4,))
    b = Rng(42).gaussian((4,))
    assert np.array_equal(a, b)


def test_fixed_seed_reference_vector():
    # frozen so stream changes are caught across refactors
    rng = Rng(0)
    raw = rng.raw64(4)
    assert raw.tolist() == [12035550249420947055, 12935080325729570654,
                            7141179953334974231, 12108695660851890438]
    assert rng.state == (16294208416658607535, 4)


@pytest.mark.parametrize("key, counter", [
    (0, 0), (1, 5), (0xDEADBEEF, 1 << 40), (MASK, MASK - 2),
])
def test_raw64_is_splitmix64_from_key_and_counter(key, counter):
    rng = Rng.from_state((key, counter))
    assert rng.raw64(6).tolist() == _splitmix64((key + counter * GOLDEN) & MASK, 6)
    # the last case wraps the counter past 2**64
    assert rng.state == (key, (counter + 6) & MASK)


@pytest.mark.parametrize("seed", [0, 1, 123, -1])
def test_seed_key_is_the_first_splitmix64_output(seed):
    assert Rng(seed).state == (_splitmix64(seed & MASK, 1)[0], 0)


@pytest.mark.parametrize("a, b", [(a, b) for a in (0, 1, 3, 64) for b in (0, 1, 3, 64)])
def test_consecutive_draws_continue_one_stream(a, b):
    one, two = Rng(21), Rng(21)
    joined = np.concatenate([one.raw64(a), one.raw64(b)])
    assert np.array_equal(joined, two.raw64(a + b))
    assert one.state == two.state


def test_seeds_golden_apart_are_not_shifted_copies():
    a = Rng(0).raw64(64).tolist()
    b = Rng(GOLDEN).raw64(64).tolist()
    assert not set(a) & set(b)


def test_split_depends_on_label_and_parent_counter():
    base = Rng(5)
    child = base.split("a").raw64(4)
    assert not np.array_equal(child, base.split("b").raw64(4))
    base.raw64(1)
    assert not np.array_equal(child, base.split("a").raw64(4))


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
