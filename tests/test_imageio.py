import numpy as np
import pytest

from duetdiff.imageio import (
    ImageFormatError,
    pgm_bytes,
    ppm_bytes,
    read_pgm,
    read_ppm,
    to_bytes_channel,
    write_pgm,
    write_ppm,
)
from duetdiff.rng import Rng
from duetdiff.synthdata import to_unit


def test_one_pixel_white_p6_layout():
    img = np.ones((3, 1, 1))
    data = ppm_bytes(img)
    assert data == b"P6\n1 1\n255\n\xff\xff\xff"
    assert len(data) == 14  # 11 header bytes + 3 payload bytes


def test_round_half_away_mapping():
    assert to_bytes_channel(np.array([-1.0]))[0] == 0
    assert to_bytes_channel(np.array([1.0]))[0] == 255
    assert to_bytes_channel(np.array([0.0]))[0] == 128  # 127.5 rounds away from zero
    assert to_bytes_channel(np.array([2.0]))[0] == 255  # clamped


def test_write_read_round_trip(tmp_path):
    rng = Rng(21)
    img = rng.gaussian((3, 7, 5)).clip(-1, 1)
    path = tmp_path / "x.ppm"
    write_ppm(img, path)
    first = path.read_bytes()
    back = read_ppm(path)
    write_ppm(back, path)
    assert path.read_bytes() == first


def test_pgm_round_trip(tmp_path):
    img = np.where(Rng(3).gaussian((1, 6, 6)) > 0, 1.0, -1.0)
    path = tmp_path / "x.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)


def test_byte_value_round_trip():
    raw = np.arange(256, dtype=np.uint8)
    assert np.array_equal(to_bytes_channel(to_unit(raw)), raw)


def test_reject_wrong_maxval(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n1 1\n254\n\xff\xff\xff")
    with pytest.raises(ImageFormatError, match="maxval"):
        read_ppm(path)


def test_reject_bad_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P3\n1 1\n255\n\xff\xff\xff")
    with pytest.raises(ImageFormatError, match="magic"):
        read_ppm(path)


def test_reject_truncated_payload(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 11)
    with pytest.raises(ImageFormatError, match="payload"):
        read_ppm(path)


def test_reject_trailing_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n1 1\n255\n\x00extra")
    with pytest.raises(ImageFormatError):
        read_pgm(path)


def test_comments_in_header_accepted(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
    img = read_pgm(path)
    assert img.shape == (1, 1, 2)
    assert img[0, 0, 0] == -1.0 and img[0, 0, 1] == 1.0


def test_golden_bytes_fixed_images():
    # three frozen encodings; any writer change must be deliberate
    white = np.ones((3, 1, 1))
    assert ppm_bytes(white) == b"P6\n1 1\n255\n\xff\xff\xff"

    quad = np.zeros((3, 2, 2))
    quad[:, 0, 0] = (-1.0, -1.0, -1.0)
    quad[:, 0, 1] = (1.0, -1.0, -1.0)
    quad[:, 1, 0] = (-1.0, 1.0, -1.0)
    quad[:, 1, 1] = (-1.0, -1.0, 1.0)
    assert ppm_bytes(quad) == (
        b"P6\n2 2\n255\n"
        b"\x00\x00\x00\xff\x00\x00"
        b"\x00\xff\x00\x00\x00\xff"
    )

    ramp = np.array([[[-1.0, 0.0, 1.0]]])  # (1, 1, 3)
    assert pgm_bytes(ramp) == b"P5\n3 1\n255\n\x00\x80\xff"
