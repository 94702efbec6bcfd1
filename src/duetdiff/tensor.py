"""Dense float tensors with reverse-mode autodiff on an explicit tape.

Data lives in numpy arrays (float32 for training, float64 for
verification); a ``Tensor`` of any other dtype raises ``TypeError`` rather
than being cast. Every differentiable primitive records a vector-Jacobian
closure on the active ``GradTape``. Ops are pure and fail fast on NaN/Inf
outputs. Ops take Tensors only: a python scalar enters through ``scale``,
and ``add``, ``sub`` and ``mul`` raise ``TypeError`` on any other operand.
An op's operands share one dtype, checked once per op by
``_check_dtypes``, and a reduction over an empty axis raises
``ShapeError`` naming the op. The only operands a caller may omit are
``layer_norm``'s gain and bias; ``conv2d_nhwc`` takes its bias, stride and
padding on every call. One ``GradTape`` records at a time; tapes do not
nest.

A record keeps only what its vjp reads. It is its inputs' keys and its
vjp: an op output's key is its record's index and a tracked leaf is its
own key, so ``add``, ``reshape``, ``concat`` and the like keep shapes
only, and an activation that no vjp reads is freed as soon as the forward
drops it. What a vjp does read is kept, unless one pass over
it rebuilds it: ``conv2d_nhwc`` gathers its input windows again in the
backward, ``silu`` recomputes its sigmoid, and ``attention`` keeps q, k,
v and the softmax's row max and row sum, not its (B, H, L_q, L_k)
weights, which it rebuilds with one more Q K^T and exp (FlashAttention's
backward, Dao et al., arXiv 2205.14135); ``layer_norm`` keeps its
normalized input. Two fused records go further and keep only a chain's
input: ``norm_silu_conv2d`` (layer norm, SiLU, conv) keeps ``x`` and the
row mean and 1/sigma, and rebuilds the normalized input, the affine
output and its SiLU; ``silu_mlp`` (linear, SiLU, linear) keeps ``x``
and rebuilds the hidden state and its SiLU (selective recomputation,
Korthikanti et al., arXiv 2205.05198). Each stage's forward and vjp is one array-level helper
(``_ln_normalize``, ``_ln_affine``, ``_ln_vjp``, ``_silu``, ``_silu_vjp``,
``_conv``, ``_conv_vjp``, ``_linear``, ``_linear_vjp``) that the standalone
op and the fused record both call, so the rebuilt values and every
gradient equal the composed ops' bit for bit. A vjp takes the output
gradient alone and returns one gradient for each input, tracked or not,
so every record runs one backward path; ``backward`` keeps the gradients
of the inputs that have a key and drops the rest. It pops each record as
it consumes it, which frees what that record kept.
Inputs must not change between an op and the backward that reads them. A
vjp may work in place in arrays it made, but never writes its incoming
gradient, which can be another input's gradient too.

Convolution gathers only kw-wide row windows of the zero-padded input,
with no padded copy: about a third of the bytes of kh x kw im2col columns
at 3 x 3. It runs one GEMM per kernel row on row-shifted slices of them;
the forward, the weight gradient and the input gradient all take this
path. It does so on s x s blocks of the input and the kernel, which at
stride 1 are the pixels: the stride-1 convolution of those blocks
(space-to-depth) is the strided convolution of the pixels.

Reductions over a short axis go through BLAS. The network reduces over
16-64 channels or 24-64 keys per row, and at those lengths numpy's
``sum``/``mean``/``max`` along an axis run 5-10x slower than a GEMV:
(4096, 16) float32 rows sum in about 13 us as ``x @ ones`` and 120 us as
``x.sum(axis=-1)`` (2 cores, OpenBLAS). So ``layer_norm``, ``softmax``, ``attention`` and the
bias gradients of ``linear`` and ``conv2d_nhwc`` reduce only through
``_row_sum`` (trailing axis, ``x @ ones``), ``_col_sum`` (leading rows,
``ones @ x``) and ``_row_max`` (trailing axis, exact, so bitwise equal to
``np.max``).
"""

from __future__ import annotations

import ctypes

import numpy as np

# glibc's default allocator raises its mmap threshold to the largest block
# freed so far and trims the heap top whenever twice that is free, so how
# often freed activations go back to the OS, to be faulted in again on the
# next step, follows the history of the heap, not the code. In the
# benchmark loop (2 cores) a 16-image guided sample took 28 to 25,000 minor
# faults, and a B=16 train step 20-200 while records kept their inputs but
# about 4,600 once they stopped. With both thresholds fixed once, blocks
# under 32 MiB come from the heap and up to 64 MiB of free heap top is
# kept: 1-3 faults per train step and 14-42 per sample.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
if _mallopt is not None:
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    _mallopt(_M_TRIM_THRESHOLD, 64 << 20)


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf; the message names the op."""


class TapeError(RuntimeError):
    """Gradient-tape misuse: consumed tape, non-scalar loss, untracked loss."""


_FLOAT_DTYPES = (np.float32, np.float64)
_LAYER_NORM_EPS = 1e-5
_ACTIVE = None  # the GradTape that is recording, if any


def _assert_finite(op: str, data: np.ndarray) -> None:
    if not data.size:
        return
    # one-pass screen: the sum of squares has no terms that cancel, so a NaN
    # gives NaN and an Inf of either sign +Inf. It can also overflow on finite
    # values, so confirm with the exact check before raising. ``vdot`` raises
    # no floating-point warning, so no ``errstate`` is entered per call
    flat = data.reshape(-1)
    screen = np.vdot(flat, flat)
    if not np.isfinite(screen):
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """A dense float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "_tape", "_key")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            raise TypeError(f"Tensor: data must be float32 or float64, got {arr.dtype}")
        self.data = arr
        self.requires_grad = requires_grad
        self._tape = None
        self._key = None
        _assert_finite("tensor", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # internal fast path: caller has already run the finite check
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t._tape = None
        t._key = None
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class GradTape:
    """Ordered record of primitive ops; replayed in reverse by ``backward``.

    Single-use: one backward pass consumes the tape. Use as a context
    manager so ops executed inside the block are recorded. Entering a tape
    while another records, or exiting one that does not, raises TapeError.

    A record is ``(input keys, vjp)`` and holds no op output: an input's
    key is its record's index if it is an output of this tape
    (``Tensor._key``), itself if it is a leaf that requires grad, and
    ``None`` otherwise. A vjp maps the output gradient to one gradient
    per input; ``backward`` keeps each one whose input key is not ``None``,
    summing into that key, and pops each record as it consumes it.
    """

    def __init__(self):
        self._records = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise TapeError("a tape is already recording; tapes do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        if _ACTIVE is not self:
            raise TapeError("exited a tape that is not recording")
        _ACTIVE = None

    def _key_of(self, t: Tensor):
        """``t``'s record index on this tape, ``t`` for a tracked leaf, else None."""
        if t._tape is self:
            return t._key
        return t if t.requires_grad else None

    def backward(self, loss: Tensor) -> dict:
        """Gradients of a scalar loss for every tracked leaf on this tape."""
        if self._consumed:
            raise TapeError("gradient tape already consumed")
        if loss.data.size != 1:
            raise TapeError("backward requires a scalar loss")
        loss_key = self._key_of(loss)
        if loss_key is None:
            raise TapeError("loss is not tracked on this tape")
        self._consumed = True

        # in reverse, a record is reached after every consumer of its output
        grads = {loss_key: np.ones_like(loss.data)}
        records = self._records
        while records:
            in_keys, vjp = records.pop()
            g = grads.pop(len(records), None)
            if g is None:
                continue
            for key, gi in zip(in_keys, vjp(g)):
                if key is not None:
                    prev = grads.get(key)
                    grads[key] = gi if prev is None else prev + gi
        return grads


def _record(name: str, out_data: np.ndarray, inputs: tuple, vjp, check: bool = True) -> Tensor:
    """Wrap an op result; register its vjp on the recording tape if needed.

    Pure data-movement ops pass check=False: they cannot introduce
    non-finite values, so the finite guarantee carries over from inputs.
    """
    if check:
        _assert_finite(name, out_data)
    out = Tensor._wrap(out_data)
    tape = _ACTIVE
    if tape is not None:
        in_keys = tuple(tape._key_of(t) for t in inputs)
        if any(key is not None for key in in_keys):
            out._tape = tape
            out._key = len(tape._records)
            tape._records.append((in_keys, vjp))
    return out


def _check_dtypes(name: str, *tensors: Tensor) -> None:
    """Every operand of op ``name`` has the first one's dtype."""
    for t in tensors[1:]:
        if t.data.dtype != tensors[0].data.dtype:
            raise TypeError(f"{name}: mixed dtypes {tensors[0].data.dtype} and {t.data.dtype}")


def _check_rows(name: str, x: Tensor) -> None:
    """``x`` has a trailing axis, of extent >= 1, for op ``name`` to reduce."""
    if not x.ndim or not x.shape[-1]:
        raise ShapeError(f"{name}: input {x.shape} has no trailing axis to reduce")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the trailing axis, keeping it: one GEMV against a ones vector."""
    n = a.shape[-1]
    return (a.reshape(-1, n) @ np.ones(n, dtype=a.dtype)).reshape(a.shape[:-1] + (1,))


def _col_sum(a: np.ndarray) -> np.ndarray:
    """Sum of the rows of a 2-D array: one GEMV of a ones row with ``a``."""
    return np.ones(a.shape[0], dtype=a.dtype) @ a


def _row_max(a: np.ndarray) -> np.ndarray:
    """Max over the trailing axis, keeping it; bitwise equal to ``np.max``.

    Rows longer than 32 are halved by a pairwise ``np.maximum`` of their two
    (for odd lengths overlapping) halves; the rest is reduced over the
    leading axis of a transposed contiguous copy.
    """
    m = a.reshape(-1, a.shape[-1])
    while m.shape[1] > 32:
        h = (m.shape[1] + 1) // 2
        m = np.maximum(m[:, :h], m[:, -h:])
    return np.ascontiguousarray(m.T).max(axis=0).reshape(a.shape[:-1] + (1,))


def _softmax_rows(a: np.ndarray, out: np.ndarray | None, stats: tuple | None) -> tuple:
    """``(weights, (row max, row sum))``: the max-shifted softmax of ``a``
    over the trailing axis, written to ``out`` (may be ``a``) or a new
    array. Given the ``stats`` of an earlier call on the same ``a``, it
    rebuilds that call's weights bit for bit without either reduction."""
    top, total = (_row_max(a), None) if stats is None else stats
    out = np.subtract(a, top, out=out)
    np.exp(out, out=out)
    if total is None:
        total = _row_sum(out)
    out /= total
    return out, (top, total)


# ---------------------------------------------------------------------------
# elementwise suite


def _elementwise(name: str, fn, a: Tensor, b: Tensor, grads) -> Tensor:
    """``fn`` of two broadcasting Tensors. ``grads(a.data, b.data)`` gives the
    two maps from the output gradient to each operand's gradient at the
    output shape, which is then summed back to the operand's shape. The
    record keeps those maps and the two shapes, so it keeps an operand's
    data only where a map reads it."""
    for t in (a, b):
        if not isinstance(t, Tensor):
            raise TypeError(f"{name}: operands must be Tensors, got {type(t).__name__}")
    _check_dtypes(name, a, b)
    try:
        out = fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}") from exc
    grad_a, grad_b = grads(a.data, b.data)
    shape_a, shape_b = a.shape, b.shape

    def vjp(g):
        return (_unbroadcast(grad_a(g), shape_a), _unbroadcast(grad_b(g), shape_b))

    return _record(name, out, (a, b), vjp)


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise("add", np.add, a, b, lambda ad, bd: (_identity, _identity))


def sub(a: Tensor, b: Tensor) -> Tensor:
    # negation commutes with the sum in _unbroadcast, bit for bit
    return _elementwise("sub", np.subtract, a, b, lambda ad, bd: (_identity, np.negative))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise("mul", np.multiply, a, b, lambda ad, bd: (lambda g: g * bd, lambda g: g * ad))


def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar (cast to the tensor's dtype)."""
    s = float(s)
    out = x.data * s

    def vjp(g):
        return (g * s,)

    return _record("scale", out, (x,), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 0.5 * tanh(0.5 * x) + 0.5: overflow-free, computed in one buffer
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _silu(x: np.ndarray) -> np.ndarray:
    out = _sigmoid(x)
    out *= x
    return out


def _silu_vjp(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    # g * (sig * (1 + x * (1 - sig))), operand by operand, in one buffer
    sig = _sigmoid(x)
    gx = np.subtract(1.0, sig)
    gx *= x
    gx += 1.0
    gx *= sig
    gx *= g
    return gx


def silu(x: Tensor) -> Tensor:
    xd = x.data

    def vjp(g):
        return (_silu_vjp(g, xd),)

    return _record("silu", _silu(xd), (x,), vjp)


def _check_layer_norm(x: Tensor, gain: Tensor | None, bias: Tensor | None) -> tuple:
    """``gain`` and ``bias`` for ``x``, ones and zeros when both are omitted."""
    if (gain is None) != (bias is None):
        raise ShapeError("layer_norm: pass both gain and bias, or neither")
    _check_rows("layer_norm", x)
    c = x.shape[-1]
    if gain is None:
        gain = Tensor._wrap(np.ones(c, dtype=x.data.dtype))
        bias = Tensor._wrap(np.zeros(c, dtype=x.data.dtype))
    _check_dtypes("layer_norm", x, gain, bias)
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"layer_norm: gain and bias must be ({c},); got {gain.shape}, {bias.shape}")
    return gain, bias


def _ln_normalize(x: np.ndarray, stats: tuple | None) -> tuple:
    """``(xhat, (mean, inv))`` for the rows of ``x``: xhat = (x - mean) * inv
    with inv = 1 / sqrt(var + 1e-5). Given the ``stats`` of an earlier call
    on the same ``x``, it rebuilds that call's xhat bit for bit without
    another statistics pass."""
    c = x.shape[-1]
    mean, inv = (_row_sum(x) / c, None) if stats is None else stats
    xhat = x - mean
    if inv is None:
        var = _row_sum(xhat * xhat) / c
        inv = 1.0 / np.sqrt(var + np.asarray(_LAYER_NORM_EPS, dtype=x.dtype))
    xhat *= inv
    return xhat, (mean, inv)


def _ln_affine(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray,
               out: np.ndarray | None) -> np.ndarray:
    """``xhat * gain + bias``, written to ``out`` (may be ``xhat``) or a new array."""
    out = np.multiply(xhat, gain, out=out)
    out += bias
    return out


def _ln_vjp(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray) -> tuple:
    """(gx, ggain, gbias) of ``_ln_affine`` after ``_ln_normalize``.

    gx = inv * (gg - gm - xhat * gxm) with gg = g * gain, operand by
    operand; the incoming g may be another input's gradient too, so only
    gg is written.
    """
    c = xhat.shape[-1]
    ggain = _col_sum((g * xhat).reshape(-1, c))
    gbias = _col_sum(g.reshape(-1, c))
    gg = g * gain
    gm = _row_sum(gg) / c
    tmp = np.multiply(gg, xhat)
    gxm = _row_sum(tmp) / c
    gx = np.subtract(gg, gm, out=gg)
    np.multiply(xhat, gxm, out=tmp)
    gx -= tmp
    gx *= inv
    return (gx, ggain, gbias)


def layer_norm(x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """Normalize the trailing axis to zero mean, unit variance (+1e-5), and
    return ``xhat * gain + bias`` in the same record.

    ``gain`` and ``bias`` are both (C,), or both omitted. Omitted, they are
    ones and zeros, so every call runs the one affine body.
    """
    gain, bias = _check_layer_norm(x, gain, bias)
    xhat, (_, inv) = _ln_normalize(x.data, None)
    gd = gain.data

    def vjp(g):
        return _ln_vjp(g, xhat, inv, gd)

    return _record("layer_norm", _ln_affine(xhat, gd, bias.data, None), (x, gain, bias), vjp)


def softmax(x: Tensor) -> Tensor:
    """Max-shifted softmax over the trailing axis."""
    _check_rows("softmax", x)
    out, _ = _softmax_rows(x.data, None, None)

    def vjp(g):
        return (out * (g - _row_sum(g * out)),)

    return _record("softmax", out, (x,), vjp)


# ---------------------------------------------------------------------------
# contractions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting over leading dims."""
    _check_dtypes("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands need at least 2 dims")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents {a.shape} x {b.shape} do not match")
    ad, bd = a.data, b.data
    try:
        out = np.matmul(ad, bd)
    except ValueError as exc:
        raise ShapeError(f"matmul: incompatible batch shapes {a.shape} x {b.shape}") from exc

    def vjp(g):
        return (_unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape),
                _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape))

    return _record("matmul", out, (a, b), vjp)


def _check_linear(x_shape: tuple, w: Tensor, b: Tensor) -> None:
    if len(x_shape) < 2 or w.ndim != 2 or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: need x (..., d_in), w (d_in, d_out), b (d_out,); "
                         f"got {x_shape}, {w.shape}, {b.shape}")
    if x_shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: inner extents {x_shape} x {w.shape} do not match")


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.matmul(x, w)
    out += b
    return out


def _linear_vjp(g: np.ndarray, x: np.ndarray, w: np.ndarray) -> tuple:
    """(gx, gw, gb) of ``_linear``.

    gx is one 2-D GEMM on the rows: ``np.matmul`` runs a 3-D ``g`` against
    the transposed view ``w.T`` as a stacked matmul, about 2x slower at the
    model's shapes.
    """
    d_in, d_out = w.shape
    g2 = g.reshape(-1, d_out)
    gx = (g2 @ w.T).reshape(g.shape[:-1] + (d_in,))
    return (gx, x.reshape(-1, d_in).T @ g2, _col_sum(g2))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` over the trailing axis, as one tape record.

    x is (..., d_in), w is (d_in, d_out), b is (d_out,). The backward gives
    the weight gradient as one GEMM over all leading rows and the bias
    gradient as a column sum of the output gradient's rows.
    """
    _check_dtypes("linear", x, w, b)
    _check_linear(x.shape, w, b)
    xd, wd = x.data, w.data

    def vjp(g):
        return _linear_vjp(g, xd, wd)

    return _record("linear", _linear(xd, wd, b.data), (x, w, b), vjp)


def silu_mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(silu(linear(x, w1, b1)), w2, b2)`` as one tape record.

    The record keeps ``x`` alone; the backward rebuilds the hidden state
    and its SiLU with the forward's own expressions, so the output and
    every gradient equal the three composed ops' bit for bit. The forward
    checks each stage's output and names that stage.
    """
    _check_dtypes("linear", x, w1, b1, w2, b2)
    _check_linear(x.shape, w1, b1)
    _check_linear(x.shape[:-1] + w1.shape[1:], w2, b2)
    xd, w1d, b1d, w2d = x.data, w1.data, b1.data, w2.data
    hidden = _linear(xd, w1d, b1d)
    _assert_finite("linear", hidden)
    act = _silu(hidden)
    del hidden
    _assert_finite("silu", act)
    out = _linear(act, w2d, b2.data)
    del act

    def vjp(g):
        hidden = _linear(xd, w1d, b1d)
        gact, gw2, gb2 = _linear_vjp(g, _silu(hidden), w2d)
        return (*_linear_vjp(_silu_vjp(gact, hidden), xd, w1d), gw2, gb2)

    return _record("linear", out, (x, w1, b1, w2, b2), vjp)


def _space_to_depth(a: np.ndarray, s: int, pad: int) -> np.ndarray:
    """(N, H, W, C) ``a`` zero-padded by ``pad`` on each side and out to
    whole s x s blocks, cut into those blocks: (N, ceil((H + 2 pad) / s),
    ceil((W + 2 pad) / s), s * s * C), each block's values in (row, column,
    C) order. It copies ``a`` only to pad it: at s = 1 with no padding the
    blocks are a view of the pixels."""
    n, h, w, c = a.shape
    hb, wb = -(-(h + 2 * pad) // s), -(-(w + 2 * pad) // s)
    if (hb * s, wb * s) != (h, w):
        padded = np.zeros((n, hb * s, wb * s, c), dtype=a.dtype)
        padded[:, pad : pad + h, pad : pad + w] = a
        a = padded
    return a.reshape(n, hb, s, wb, s, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, hb, wb, s * s * c)


def _depth_to_space(a: np.ndarray, s: int, pad: int, h: int, w: int) -> np.ndarray:
    """The adjoint of ``_space_to_depth``: (N, hb, wb, s * s * C) blocks laid
    out as pixels again and cropped to the (h, w) window at (pad, pad)."""
    n, hb, wb, k = a.shape
    c = k // (s * s)
    pixels = a.reshape(n, hb, wb, s, s, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, hb * s, wb * s, c)
    return pixels[:, pad : pad + h, pad : pad + w]


def _row_windows(a: np.ndarray, kw: int, ph: int, pw: int) -> np.ndarray:
    """Every kw-wide window of every row of (N, H, W, C) ``a`` zero-padded by
    (ph, pw) >= 0, as (N, H + 2 ph, W + 2 pw - kw + 1, kw * C).

    No padded copy is made. A window that lies inside its row is kw * C
    contiguous values in row-major NHWC memory, so one strided view gathers
    all of those. Its strides come from the item size, not from
    ``a.strides``: a contiguous array may carry any stride on a size-1 axis.
    Each of the 2 pw windows per row that overlap the side padding is
    zeroed and then given the values it takes from inside the row. The ph
    padding rows above and below are zeros.
    """
    a = np.ascontiguousarray(a)
    n, h, w, c = a.shape
    ow = w + 2 * pw - kw + 1
    out = np.empty((n, h + 2 * ph, ow, kw * c), dtype=a.dtype)
    out[:, :ph] = 0
    out[:, ph + h :] = 0
    rows = out[:, ph : ph + h]
    lo, hi = pw, max(w + pw - kw + 1, pw)  # the windows inside the row
    px = c * a.itemsize
    rows[:, :, lo:hi] = np.lib.stride_tricks.as_strided(
        a, (n, h, hi - lo, kw * c), (h * w * px, w * px, px, a.itemsize), writeable=False)
    for x in (*range(min(lo, ow)), *range(hi, ow)):
        j0, j1 = max(pw - x, 0), min(w + pw - x, kw)  # kernel columns inside the row
        rows[:, :, x] = 0
        if j1 > j0:
            rows[:, :, x, j0 * c : j1 * c] = a[:, :, x - pw + j0 : x - pw + j1].reshape(n, h, -1)
    return out


def _row_shift_conv(a: np.ndarray, ph: int, pw: int, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Stride-1 cross-correlation of (N, H, W, C) ``a`` zero-padded by (ph, pw);
    a negative amount crops instead.

    w is (kh, kw, C, C_out). On the rows r = (n * Hp + y) * OW + x of the
    padded input's ``_row_windows``, kernel row i reads window row
    r + i * OW, so each kernel row is one GEMM on a zero-copy slice of the
    windows, and the products are summed in kernel-row order. The last
    kh - 1 grid rows of each image read into the next image; they are
    cropped, leaving (N, Hp - kh + 1, OW, C_out), and the optional bias is
    added in the same pass. The windows are freed before the crop, which
    keeps the call's transient peak to the windows and the grid.
    """
    kh, kw, _, co = w.shape
    ch, cw = max(-ph, 0), max(-pw, 0)
    a = a[:, ch : a.shape[1] - ch, cw : a.shape[2] - cw]
    windows = _row_windows(a, kw, max(ph, 0), max(pw, 0))
    n, hp, ow, k = windows.shape
    rows = (n * hp - kh + 1) * ow
    flat = windows.reshape(-1, k)
    wrows = w.reshape(kh, k, co)
    grid = np.empty((n, hp, ow, co), dtype=a.dtype)
    out = grid.reshape(-1, co)[:rows]
    np.matmul(flat[:rows], wrows[0], out=out)
    for i in range(1, kh):
        out += flat[i * ow : i * ow + rows] @ wrows[i]
    del windows, flat
    if kh == 1:
        if b is not None:
            grid += b
        return grid
    oh = hp - kh + 1
    cropped = grid[:, :oh]
    if b is None:
        return cropped.copy()
    # each cropped row is one contiguous OW * C_out run: the bias tiled to
    # that run adds in about 2/3 of the time of a per-pixel broadcast
    return np.add(cropped.reshape(n, oh, ow * co), np.tile(b, ow)).reshape(n, oh, ow, co)


def _check_conv(x: Tensor, w: Tensor, b: Tensor, stride, padding) -> None:
    _check_dtypes("conv2d", x, w, b)
    for name, value in (("stride", stride), ("padding", padding)):
        if not isinstance(value, (int, np.integer)):
            raise ShapeError(f"conv2d: {name} must be an integer, got {value!r}")
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"conv2d: padding must be >= 0, got {padding}")
    if w.ndim != 4:
        raise ShapeError("conv2d: weight must be (kh, kw, C_in, C_out)")
    if x.ndim != 4:
        raise ShapeError("conv2d: input must be (N, H, W, C)")
    if not x.size:
        raise ShapeError(f"conv2d: input {x.shape} has an extent of 0")
    if not w.size:
        raise ShapeError(f"conv2d: kernel {w.shape} has an extent of 0")
    _, h, wd, ci = x.shape
    kh, kw, ci_w, co = w.shape
    if ci != ci_w:
        raise ShapeError(f"conv2d: input channels {ci} != kernel channels {ci_w}")
    if b.shape != (co,):
        raise ShapeError(f"conv2d: bias must be ({co},), got {b.shape}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if hp < kh or wp < kw:
        raise ShapeError("conv2d: kernel larger than padded input")
    if (hp - kh) % stride or (wp - kw) % stride:
        raise ShapeError("conv2d: non-integral output extent")


def _conv_blocks(x: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """The input cut into stride x stride blocks, padded there at stride > 1."""
    return _space_to_depth(x, stride, padding if stride > 1 else 0)


def _conv_kernel(w: np.ndarray, stride: int) -> np.ndarray:
    """(kh, kw, C_in, C_out) ``w`` cut into blocks: (kbh, kbw, s * s * C_in, C_out)."""
    kh, kw, ci, co = w.shape
    folded = _space_to_depth(w.reshape(1, kh, kw, ci * co), stride, 0)
    return folded.reshape(-(-kh // stride), -(-kw // stride), stride * stride * ci, co)


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: int) -> np.ndarray:
    pad = padding if stride == 1 else 0  # the windows' padding; the blocks take the rest
    return _row_shift_conv(_conv_blocks(x, stride, padding), pad, pad, _conv_kernel(w, stride), b)


def _conv_vjp(g: np.ndarray, x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> tuple:
    """(gx, gw, gb) of ``_conv``."""
    n, oh, ow, co = g.shape
    kh, kw, ci, _ = w.shape
    kbh, kbw = -(-kh // stride), -(-kw // stride)  # the kernel's extent in blocks
    hb = oh + kbh - 1  # the padded input's height in blocks
    pad = padding if stride == 1 else 0
    gmat = np.ascontiguousarray(g).reshape(n * oh * ow, co)
    windows = _row_windows(_conv_blocks(x, stride, padding), kbw, pad, pad)
    windows = windows.reshape(-1, kbw * stride * stride * ci)
    ggrid = gmat
    if kbh > 1:
        ggrid = np.zeros((n, hb, ow, co), dtype=g.dtype)
        ggrid[:, :oh] = g
        ggrid = ggrid.reshape(-1, co)
    rows = (n * hb - kbh + 1) * ow
    gw = np.stack([windows[i * ow : i * ow + rows].T @ ggrid[:rows] for i in range(kbh)])
    gw = _depth_to_space(gw.reshape(1, kbh, kbw, -1), stride, 0, kh, kw).reshape(kh, kw, ci, co)
    del windows, ggrid  # not alive alongside the input gradient's windows
    gb = _col_sum(gmat)
    flipped = _conv_kernel(w, stride)[::-1, ::-1].transpose(0, 1, 3, 2)
    gx = _row_shift_conv(g, kbh - 1 - pad, kbw - 1 - pad, flipped, None)
    h = (oh - 1) * stride + kh - 2 * padding
    wd = (ow - 1) * stride + kw - 2 * padding
    return (_depth_to_space(gx, stride, padding - pad, h, wd), gw, gb)


def conv2d_nhwc(x: Tensor, w: Tensor, b: Tensor, *, stride: int, padding: int) -> Tensor:
    """2-D cross-correlation on channels-last input, as one tape record.

    x is (N, H, W, C_in), w is (kh, kw, C_in, C_out) and the bias b is
    (C_out,), all of one dtype; every operand is required, so every call
    runs the one biased body. Channels-last keeps every gather contiguous,
    which is why the network runs in this layout. Output extents must
    divide exactly. ``stride`` and ``padding`` must be integers,
    ``stride`` >= 1 and ``padding`` >= 0, and no extent of x or w may be 0.

    At stride 1 the padded input is gathered into kw-wide row windows
    (``_row_windows``), and the forward is kh GEMMs on row-shifted slices of
    them (``_row_shift_conv``). The record keeps no windows: the backward
    gathers them again, and kernel row i of the weight gradient is the
    windows shifted by i grid rows against the output gradient laid on a
    zero grid of the padded height. The input gradient is
    ``_row_shift_conv`` of the output gradient padded by
    (kh-1-padding, kw-1-padding), with the flipped kernel
    (kh, kw, C_out, C_in).

    A stride-s conv is the stride-1 conv of s x s pixel blocks, and at
    stride 1 the blocks are the pixels, so every stride runs this code on
    the input and the kernel, zero-padded to (s ceil(kh/s), s ceil(kw/s)),
    cut into blocks (``_space_to_depth``); ``_depth_to_space`` lays both
    gradients out as pixels again and crops them. The stride only decides
    where the padding goes: into the blocks at s > 1, else into the
    windows. The backward cuts the blocks again, as it gathers the
    windows. The bias gradient is a column sum of the output gradient's
    rows. The output is checked for non-finite values.
    """
    _check_conv(x, w, b, stride, padding)
    xd, wd = x.data, w.data

    def vjp(g):
        return _conv_vjp(g, xd, wd, stride, padding)

    return _record("conv2d", _conv(xd, wd, b.data, stride, padding), (x, w, b), vjp)


def norm_silu_conv2d(x: Tensor, gain: Tensor, bias: Tensor, w: Tensor, b: Tensor, *,
                     padding: int) -> Tensor:
    """``conv2d_nhwc(silu(layer_norm(x, gain, bias)), w, b, padding=padding)``
    at stride 1, as one tape record.

    The record keeps ``x`` and the row mean and 1/sigma; the backward
    rebuilds the normalized input, the affine output and its SiLU with
    the forward's own expressions, so the output and every gradient equal
    the three composed ops' bit for bit. The forward checks each stage's
    output and names that stage.
    """
    _check_layer_norm(x, gain, bias)
    _check_conv(x, w, b, 1, padding)
    xd, gd, bd, wd = x.data, gain.data, bias.data, w.data
    xhat, stats = _ln_normalize(xd, None)
    act = _ln_affine(xhat, gd, bd, xhat)
    del xhat
    _assert_finite("layer_norm", act)
    act = _silu(act)
    _assert_finite("silu", act)
    out = _conv(act, wd, b.data, 1, padding)
    del act

    def vjp(g):
        xhat, _ = _ln_normalize(xd, stats)
        normed = _ln_affine(xhat, gd, bd, None)
        gact, gw, gb = _conv_vjp(g, _silu(normed), wd, 1, padding)
        return (*_ln_vjp(_silu_vjp(gact, normed), xhat, stats[1], gd), gw, gb)

    return _record("conv2d", out, (x, gain, bias, w, b), vjp)


def conv2d(x: Tensor, w: Tensor, *, stride: int, padding: int) -> Tensor:
    """2-D cross-correlation (no kernel flip, no bias) on (N, C, H, W) input.

    w is (C_out, C_in, kh, kw). Thin layout adapter over the channels-last
    kernel, which it hands a zero bias; gradients flow through the
    transposes.
    """
    if w.ndim != 4:
        raise ShapeError("conv2d: weight must be (C_out, C_in, kh, kw)")
    if x.ndim != 4:
        raise ShapeError("conv2d: input must be (N, C, H, W)")
    zero = Tensor._wrap(np.zeros(w.shape[0], dtype=x.data.dtype))
    out = conv2d_nhwc(transpose(x, (0, 2, 3, 1)), transpose(w, (2, 3, 1, 0)), zero,
                      stride=stride, padding=padding)
    return transpose(out, (0, 3, 1, 2))


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over given projections.

    q is (B, L_q, d); k and v are (B, L_k, d). Heads are split from d,
    attended independently with scale 1/sqrt(d/n_heads), and concatenated.

    One tape record: the head split, Q K^T times the scale, the
    max-shifted softmax and the product with V all run in numpy inside
    the op, in that order. The record keeps the q, k and v head views and
    the softmax's row max and row sum, not its weights. The backward
    rebuilds the weights from them with the forward's own expressions and
    no reduction, so they equal the forward's bit for bit, and is written
    out by hand from them. Both the scores and the output are checked for
    non-finite values, and a failure names ``attention``.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError("attention: q, k and v must be (B, L, d)")
    _check_dtypes("attention", q, k, v)
    if not isinstance(n_heads, (int, np.integer)) or n_heads < 1:
        raise ShapeError(f"attention: n_heads must be an integer >= 1, got {n_heads!r}")
    b, lq, d = q.shape
    if k.shape[0] != b or v.shape[0] != b:
        raise ShapeError(f"attention: q, k and v batch sizes differ: {q.shape}, {k.shape}, {v.shape}")
    if d % n_heads:
        raise ShapeError(f"attention: dim {d} not divisible by {n_heads} heads")
    if k.shape[-1] != d or v.shape[-1] != d:
        raise ShapeError("attention: q/k/v embedding dims differ")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError("attention: k and v sequence lengths differ")
    lk = k.shape[1]
    if not lk or not d:
        raise ShapeError(f"attention: needs at least one key and d >= 1, got k {k.shape}")
    dh = d // n_heads
    s = 1.0 / float(np.sqrt(dh))

    def heads(a, length):
        return a.reshape(b, length, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(a, length):
        return a.transpose(0, 2, 1, 3).reshape(b, length, d)

    qh, kh, vh = heads(q.data, lq), heads(k.data, lk), heads(v.data, lk)

    def scores():
        qk = np.matmul(qh, kh.transpose(0, 1, 3, 2))
        qk *= s
        return qk

    weights = scores()
    _assert_finite("attention", weights)
    _, stats = _softmax_rows(weights, weights, None)
    out = merge(np.matmul(weights, vh), lq)

    def vjp(g):
        weights = scores()
        _softmax_rows(weights, weights, stats)
        gh = heads(g, lq)
        gv = merge(np.matmul(weights.transpose(0, 1, 3, 2), gh), lk)
        gs = np.matmul(gh, vh.transpose(0, 1, 3, 2))
        gs -= _row_sum(gs * weights)
        gs *= weights
        gs *= s
        gq = merge(np.matmul(gs, kh), lq)
        gk = merge(np.matmul(gs.transpose(0, 1, 3, 2), qh), lk)
        return (gq, gk, gv)

    return _record("attention", out, (q, k, v), vjp)


# ---------------------------------------------------------------------------
# shape & reduction ops


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from exc

    x_shape = x.shape

    def vjp(g):
        return (g.reshape(x_shape),)

    return _record("reshape", out, (x,), vjp, check=False)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _record("transpose", out, (x,), vjp, check=False)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: empty input list")
    _check_dtypes("concat", *tensors)
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError("concat: incompatible shapes") from exc
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return np.split(g, offsets, axis=axis)

    return _record("concat", out, tuple(tensors), vjp, check=False)


def tsum(x: Tensor) -> Tensor:
    """Sum of every element, as a 0-d tensor."""
    out = x.data.sum()
    x_shape = x.shape

    def vjp(g):
        return (np.broadcast_to(g, x_shape),)

    return _record("sum", np.asarray(out, dtype=x.data.dtype), (x,), vjp)


def tmean(x: Tensor) -> Tensor:
    """Mean of every element, as a 0-d tensor."""
    if not x.size:
        raise ShapeError(f"tmean: input {x.shape} has no elements")
    out = x.data.mean()
    x_shape, x_size = x.shape, x.size

    def vjp(g):
        return (np.broadcast_to(g, x_shape) / x_size,)

    return _record("mean", np.asarray(out, dtype=x.data.dtype), (x,), vjp)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling of H and W in channels-last (.., H, W, C)."""
    if x.ndim < 3:
        raise ShapeError("upsample2x: input must be (.., H, W, C)")
    out = x.data.repeat(2, axis=-3).repeat(2, axis=-2)

    def vjp(g):
        *lead, h2, w2, c = g.shape
        return (g.reshape((*lead, h2 // 2, 2, w2 // 2, 2, c)).sum(axis=(-2, -4)),)

    return _record("upsample2x", out, (x,), vjp, check=False)
