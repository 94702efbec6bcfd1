"""Binary PPM (P6) and PGM (P5) readers/writers, bit-exact by contract.

Pixel values map linearly between [-1, 1] floats and [0, 255] bytes with
round-half-away-from-zero; maxval is fixed at 255.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .synthdata import to_unit


class ImageFormatError(ValueError):
    """Malformed or unsupported PPM/PGM content."""


def to_bytes_channel(values: np.ndarray) -> np.ndarray:
    """[-1, 1] floats -> uint8, round half away from zero."""
    v = (np.asarray(values, dtype=np.float64) + 1.0) * 127.5
    return np.clip(np.floor(v + 0.5), 0, 255).astype(np.uint8)


def ppm_bytes(image: np.ndarray) -> bytes:
    """Encode a (3, H, W) image in [-1, 1] as a binary P6 file."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ImageFormatError(f"P6 needs a (3, H, W) image, got {image.shape}")
    _, h, w = image.shape
    payload = to_bytes_channel(image).transpose(1, 2, 0).tobytes()
    return f"P6\n{w} {h}\n255\n".encode("ascii") + payload


def pgm_bytes(image: np.ndarray) -> bytes:
    """Encode a (1, H, W) or (H, W) image in [-1, 1] as a binary P5 file."""
    if image.ndim == 3 and image.shape[0] == 1:
        image = image[0]
    if image.ndim != 2:
        raise ImageFormatError(f"P5 needs a (1, H, W) or (H, W) image, got {image.shape}")
    h, w = image.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + to_bytes_channel(image).tobytes()


def write_ppm(image: np.ndarray, path: str | Path) -> None:
    Path(path).write_bytes(ppm_bytes(image))


def write_pgm(image: np.ndarray, path: str | Path) -> None:
    Path(path).write_bytes(pgm_bytes(image))


def _parse_header(data: bytes, magic: bytes):
    """Return (width, height, payload offset); accepts whitespace and # comments."""
    if data[:2] != magic:
        raise ImageFormatError(f"bad magic {data[:2]!r}, expected {magic!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError("truncated header")
        token = data[start:pos]
        if not token.isdigit():
            raise ImageFormatError(f"non-numeric header field {token!r}")
        fields.append(int(token))
    if pos >= len(data):
        raise ImageFormatError("missing payload")
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}, only 255 is accepted")
    if width < 1 or height < 1:
        raise ImageFormatError("non-positive image dimensions")
    return width, height, pos


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary P6 file into a (3, H, W) float64 image in [-1, 1]."""
    data = Path(path).read_bytes()
    w, h, pos = _parse_header(data, b"P6")
    expected = w * h * 3
    payload = data[pos : pos + expected]
    if len(payload) != expected or len(data) != pos + expected:
        raise ImageFormatError(f"payload length {len(data) - pos}, expected {expected}")
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1)
    return to_unit(raw)


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary P5 file into a (1, H, W) float64 image in [-1, 1]."""
    data = Path(path).read_bytes()
    w, h, pos = _parse_header(data, b"P5")
    expected = w * h
    payload = data[pos : pos + expected]
    if len(payload) != expected or len(data) != pos + expected:
        raise ImageFormatError(f"payload length {len(data) - pos}, expected {expected}")
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(1, h, w)
    return to_unit(raw)
