"""Dense float tensors with reverse-mode autodiff on an explicit tape.

Data lives in numpy arrays (float32 for training, float64 for verification);
every differentiable primitive records a vector-Jacobian closure on the
active ``GradTape``. Ops are pure and fail fast on NaN/Inf outputs. Ops take
Tensors only: a python scalar enters through ``scale``, and ``add``, ``sub``
and ``mul`` raise ``TypeError`` on any other operand. There is one stack of
active tapes per process; the innermost ``GradTape`` block records.

A record keeps its inputs, its output, and only what one pass over them
cannot rebuild: ``conv2d_nhwc`` gathers its im2col columns again in the
backward and ``silu`` recomputes its sigmoid, while ``layer_norm`` keeps
its normalized input and ``attention`` its softmax weights. So inputs must
not change between an op and the backward that reads them.

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

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf; the message names the op."""


class TapeError(RuntimeError):
    """Gradient-tape misuse: consumed tape, non-scalar loss, untracked loss."""


_FLOAT_DTYPES = (np.float32, np.float64)
_LAYER_NORM_EPS = 1e-5
_TAPES: list = []


def _assert_finite(op: str, data: np.ndarray) -> None:
    if not data.size:
        return
    # one-pass screen: the sum of squares has no terms that cancel, so a NaN
    # gives NaN and an Inf of either sign +Inf. It can also overflow on finite
    # values, silently here, so confirm with the exact check before raising
    flat = data.reshape(-1)
    with np.errstate(over="ignore"):
        screen = np.dot(flat, flat)
    if not np.isfinite(screen):
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """A dense float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self._tape = None
        _assert_finite("tensor", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # internal fast path: caller has already run the finite check
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t._tape = None
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
    manager so ops executed inside the block are recorded.
    """

    def __init__(self):
        self._records = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if not _TAPES or _TAPES[-1] is not self:
            raise TapeError("tape context exited out of order")
        _TAPES.pop()
        return False

    def _live(self, t: Tensor) -> bool:
        return t.requires_grad or t._tape is self

    def backward(self, loss: Tensor) -> dict:
        """Gradients of a scalar loss for every tracked leaf on this tape."""
        if self._consumed:
            raise TapeError("gradient tape already consumed")
        if loss.data.size != 1:
            raise TapeError("backward requires a scalar loss")
        if not self._live(loss):
            raise TapeError("loss is not tracked on this tape")
        self._consumed = True

        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaves: dict[int, Tensor] = {}
        if loss.requires_grad:
            leaves[id(loss)] = loss
        for out, inputs, vjp, live in reversed(self._records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for t, gi in zip(inputs, vjp(g, live)):
                if gi is None:
                    continue
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = gi
                if t.requires_grad:
                    leaves[key] = t
        self._records.clear()
        return {t: grads[key] for key, t in leaves.items()}


def _record(name: str, out_data: np.ndarray, inputs: tuple, vjp, check: bool = True) -> Tensor:
    """Wrap an op result; register its vjp on the active tape if needed.

    Pure data-movement ops pass check=False: they cannot introduce
    non-finite values, so the finite guarantee carries over from inputs.
    """
    if check:
        _assert_finite(name, out_data)
    out = Tensor._wrap(out_data)
    if _TAPES:
        tape = _TAPES[-1]
        live = tuple(tape._live(t) for t in inputs)
        if any(live):
            out._tape = tape
            tape._records.append((out, inputs, vjp, live))
    return out


def _check_dtypes(name: str, a: Tensor, b: Tensor) -> None:
    if a.data.dtype != b.data.dtype:
        raise TypeError(f"{name}: mixed dtypes {a.data.dtype} and {b.data.dtype}")


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


def _softmax_rows(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max-shifted softmax over the trailing axis, written to ``out`` (may be ``a``)."""
    out = np.subtract(a, _row_max(a), out=out)
    np.exp(out, out=out)
    out /= _row_sum(out)
    return out


# ---------------------------------------------------------------------------
# elementwise suite


def _elementwise(name: str, fn, a: Tensor, b: Tensor, grad_a, grad_b) -> Tensor:
    """``fn`` of two broadcasting Tensors; ``grad_a(g)``/``grad_b(g)`` give each
    operand's gradient at the output shape, summed back to the operand's shape."""
    for t in (a, b):
        if not isinstance(t, Tensor):
            raise TypeError(f"{name}: operands must be Tensors, got {type(t).__name__}")
    _check_dtypes(name, a, b)
    try:
        out = fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}") from exc

    def vjp(g, live):
        return (
            _unbroadcast(grad_a(g), a.shape) if live[0] else None,
            _unbroadcast(grad_b(g), b.shape) if live[1] else None,
        )

    return _record(name, out, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise("add", np.add, a, b, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    # negation commutes with the sum in _unbroadcast, bit for bit
    return _elementwise("sub", np.subtract, a, b, lambda g: g, np.negative)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise("mul", np.multiply, a, b, lambda g: g * b.data, lambda g: g * a.data)


def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar (cast to the tensor's dtype)."""
    s = float(s)
    out = x.data * s

    def vjp(g, live):
        return (g * s,)

    return _record("scale", out, (x,), vjp)


def silu(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)
    out *= x.data

    def vjp(g, live):
        sig = _sigmoid(x.data)
        return (g * (sig * (1.0 + x.data * (1.0 - sig))),)

    return _record("silu", out, (x,), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is overflow-free and single-pass
    return 0.5 * np.tanh(0.5 * x) + 0.5


def layer_norm(x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """Normalize the trailing axis to zero mean, unit variance (+1e-5).

    With ``gain`` and ``bias`` (both (C,), or neither) the result is
    ``xhat * gain + bias`` in the same record.
    """
    if (gain is None) != (bias is None):
        raise ShapeError("layer_norm: pass both gain and bias, or neither")
    c = x.shape[-1]
    affine = gain is not None
    if affine:
        _check_dtypes("layer_norm", x, gain)
        _check_dtypes("layer_norm", x, bias)
        if gain.shape != (c,) or bias.shape != (c,):
            raise ShapeError(f"layer_norm: gain and bias must be ({c},); got {gain.shape}, {bias.shape}")
    centered = x.data - _row_sum(x.data) / c
    var = _row_sum(centered * centered) / c
    inv = 1.0 / np.sqrt(var + np.asarray(_LAYER_NORM_EPS, dtype=x.data.dtype))
    xhat = centered * inv
    out = xhat
    if affine:
        out = xhat * gain.data
        out += bias.data

    def vjp(g, live):
        ggain = gbias = gx = None
        if affine:
            if live[1]:
                ggain = _col_sum((g * xhat).reshape(-1, c))
            if live[2]:
                gbias = _col_sum(g.reshape(-1, c))
            g = g * gain.data
        if live[0]:
            gm = _row_sum(g) / c
            gxm = _row_sum(g * xhat) / c
            gx = inv * (g - gm - xhat * gxm)
        return (gx, ggain, gbias)

    return _record("layer_norm", out, (x, gain, bias) if affine else (x,), vjp)


def softmax(x: Tensor) -> Tensor:
    """Max-shifted softmax over the trailing axis."""
    out = _softmax_rows(x.data)

    def vjp(g, live):
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
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"matmul: incompatible batch shapes {a.shape} x {b.shape}") from exc

    def vjp(g, live):
        ga = gb = None
        if live[0]:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if live[1]:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return (ga, gb)

    return _record("matmul", out, (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` over the trailing axis, as one tape record.

    x is (..., d_in), w is (d_in, d_out), b is (d_out,). The backward gives
    the weight gradient as one GEMM over all leading rows and the bias
    gradient as a column sum of the output gradient's rows.
    """
    _check_dtypes("linear", x, w)
    _check_dtypes("linear", x, b)
    if x.ndim < 2 or w.ndim != 2 or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: need x (..., d_in), w (d_in, d_out), b (d_out,); "
                         f"got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: inner extents {x.shape} x {w.shape} do not match")
    out = np.matmul(x.data, w.data)
    out += b.data

    def vjp(g, live):
        d_in, d_out = w.shape
        g2 = g.reshape(-1, d_out)
        gx = np.matmul(g, w.data.T) if live[0] else None
        gw = x.data.reshape(-1, d_in).T @ g2 if live[1] else None
        gb = _col_sum(g2) if live[2] else None
        return (gx, gw, gb)

    return _record("linear", out, (x, w, b), vjp)


def _pad_hw(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad H and W of (N, H, W, C) by ph and pw on each side.

    A negative amount crops that many rows or columns from each side
    instead. Padding writes into one preallocated buffer.
    """
    if ph < 0 or pw < 0:
        ch, cw = max(-ph, 0), max(-pw, 0)
        a = a[:, ch : a.shape[1] - ch, cw : a.shape[2] - cw]
        ph, pw = max(ph, 0), max(pw, 0)
    if not (ph or pw):
        return a
    n, h, wd, c = a.shape
    out = np.zeros((n, h + 2 * ph, wd + 2 * pw, c), dtype=a.dtype)
    out[:, ph : ph + h, pw : pw + wd] = a
    return out


def _im2col(a: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(N, H, W, C) -> (N * OH * OW, kh * kw * C) windows in (kh, kw, C) order.

    In row-major NHWC memory one kernel row of a window is kw * C contiguous
    values, so one strided view of shape (N, OH, OW, kh, kw * C) gathers
    whole rows. Its strides come from the item size, not from ``a.strides``:
    a contiguous array may carry any stride on a size-1 axis.
    """
    a = np.ascontiguousarray(a)
    n, h, w, c = a.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    row, px = w * c * a.itemsize, c * a.itemsize
    win = np.lib.stride_tricks.as_strided(
        a, (n, oh, ow, kh, kw * c), (h * row, stride * row, stride * px, row, a.itemsize),
        writeable=False)
    return win.reshape(n * oh * ow, kh * kw * c)


def conv2d_nhwc(x: Tensor, w: Tensor, b: Tensor | None = None, *, stride: int = 1,
                padding: int = 0) -> Tensor:
    """2-D cross-correlation on channels-last input, as one tape record.

    x is (N, H, W, C_in), w is (kh, kw, C_in, C_out) and the optional bias
    b is (C_out,), added in place to the GEMM output. Channels-last keeps
    the im2col gather contiguous, which is why the network runs in this
    layout. Output extents must divide exactly. ``stride`` and ``padding``
    must be integers, ``stride`` >= 1 and ``padding`` >= 0.

    Forward is one im2col GEMM, and the record keeps no columns. Backward
    gathers the columns of the input again and gives the weight gradient as
    one GEMM of them with the output gradient, and the bias
    gradient as a column sum of the output gradient's rows. The input gradient
    depends on the stride alone. At stride 1 it is one im2col GEMM: the
    output gradient is padded by (kh-1, kw-1) and cropped by ``padding``,
    done as one pad of (kh-1-padding, kw-1-padding), then gathered into
    windows and multiplied by the flipped kernel (kh, kw, C_out, C_in).
    At stride > 1 it scatters the column gradient back, one kh x kw offset
    at a time. The output is checked for non-finite values.
    """
    _check_dtypes("conv2d", x, w)
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
    n, h, wd, ci = x.shape
    kh, kw, ci_w, co = w.shape
    if ci != ci_w:
        raise ShapeError(f"conv2d: input channels {ci} != kernel channels {ci_w}")
    if b is not None:
        _check_dtypes("conv2d", x, b)
        if b.shape != (co,):
            raise ShapeError(f"conv2d: bias must be ({co},), got {b.shape}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if hp < kh or wp < kw:
        raise ShapeError("conv2d: kernel larger than padded input")
    if (hp - kh) % stride or (wp - kw) % stride:
        raise ShapeError("conv2d: non-integral output extent")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1

    wmat = w.data.reshape(kh * kw * ci, co)
    out = _im2col(_pad_hw(x.data, padding, padding), kh, kw, stride) @ wmat
    if b is not None:
        out += b.data

    def vjp(g, live):
        gmat = np.ascontiguousarray(g).reshape(n * oh * ow, co)
        gw = gx = gb = None
        if live[1]:
            cols = _im2col(_pad_hw(x.data, padding, padding), kh, kw, stride)
            gw = (cols.T @ gmat).reshape(w.shape)
        if b is not None and live[2]:
            gb = _col_sum(gmat)
        if live[0] and stride == 1:
            gcols = _im2col(_pad_hw(g, kh - 1 - padding, kw - 1 - padding), kh, kw, 1)
            flipped = w.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * co, ci)
            gx = (gcols @ flipped).reshape(n, h, wd, ci)
        elif live[0]:
            dcols = (gmat @ wmat.T).reshape(n, oh, ow, kh, kw, ci)
            dxp = np.zeros((n, hp, wp, ci), dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :] += dcols[:, :, :, i, j, :]
            gx = dxp[:, padding : hp - padding, padding : wp - padding, :] if padding else dxp
        return (gx, gw, gb)

    inputs = (x, w) if b is None else (x, w, b)
    return _record("conv2d", out.reshape(n, oh, ow, co), inputs, vjp)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation (no kernel flip) on (N, C, H, W) input.

    w is (C_out, C_in, kh, kw). Thin layout adapter over the channels-last
    kernel; gradients flow through the transposes.
    """
    if w.ndim != 4:
        raise ShapeError("conv2d: weight must be (C_out, C_in, kh, kw)")
    if x.ndim != 4:
        raise ShapeError("conv2d: input must be (N, C, H, W)")
    out = conv2d_nhwc(
        transpose(x, (0, 2, 3, 1)),
        transpose(w, (2, 3, 1, 0)),
        stride=stride,
        padding=padding,
    )
    return transpose(out, (0, 3, 1, 2))


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over given projections.

    q is (B, L_q, d); k and v are (B, L_k, d). Heads are split from d,
    attended independently with scale 1/sqrt(d/n_heads), and concatenated.

    One tape record: the head split, Q K^T times the scale, the
    max-shifted softmax and the product with V all run in numpy inside
    the op, in that order. Backward is written out by hand from the saved
    softmax weights. Both the scores and the output are checked for
    non-finite values, and a failure names ``attention``.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError("attention: q, k and v must be (B, L, d)")
    _check_dtypes("attention", q, k)
    _check_dtypes("attention", q, v)
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
    dh = d // n_heads
    s = 1.0 / float(np.sqrt(dh))

    def heads(a, length):
        return a.reshape(b, length, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(a, length):
        return a.transpose(0, 2, 1, 3).reshape(b, length, d)

    qh, kh, vh = heads(q.data, lq), heads(k.data, lk), heads(v.data, lk)
    weights = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    weights *= s
    _assert_finite("attention", weights)
    _softmax_rows(weights, out=weights)
    out = merge(np.matmul(weights, vh), lq)

    def vjp(g, live):
        gh = heads(g, lq)
        gq = gk = gv = None
        if live[2]:
            gv = merge(np.matmul(weights.transpose(0, 1, 3, 2), gh), lk)
        if live[0] or live[1]:
            gs = np.matmul(gh, vh.transpose(0, 1, 3, 2))
            gs -= _row_sum(gs * weights)
            gs *= weights
            gs *= s
            if live[0]:
                gq = merge(np.matmul(gs, kh), lq)
            if live[1]:
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

    def vjp(g, live):
        return (g.reshape(x.shape),)

    return _record("reshape", out, (x,), vjp, check=False)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g, live):
        return (np.transpose(g, inverse),)

    return _record("transpose", out, (x,), vjp, check=False)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: empty input list")
    dtype = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dtype:
            raise TypeError("concat: mixed dtypes")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError("concat: incompatible shapes") from exc
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g, live):
        pieces = np.split(g, offsets, axis=axis)
        return tuple(p if is_live else None for p, is_live in zip(pieces, live))

    return _record("concat", out, tuple(tensors), vjp, check=False)


def tsum(x: Tensor) -> Tensor:
    """Sum of every element, as a 0-d tensor."""
    out = x.data.sum()

    def vjp(g, live):
        return (np.broadcast_to(g, x.shape),)

    return _record("sum", np.asarray(out, dtype=x.data.dtype), (x,), vjp)


def tmean(x: Tensor) -> Tensor:
    """Mean of every element, as a 0-d tensor."""
    out = x.data.mean()

    def vjp(g, live):
        return (np.broadcast_to(g, x.shape) / x.data.size,)

    return _record("mean", np.asarray(out, dtype=x.data.dtype), (x,), vjp)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling of H and W in channels-last (.., H, W, C)."""
    if x.ndim < 3:
        raise ShapeError("upsample2x: input must be (.., H, W, C)")
    out = x.data.repeat(2, axis=-3).repeat(2, axis=-2)

    def vjp(g, live):
        *lead, h2, w2, c = g.shape
        return (g.reshape((*lead, h2 // 2, 2, w2 // 2, 2, c)).sum(axis=(-2, -4)),)

    return _record("upsample2x", out, (x,), vjp, check=False)
