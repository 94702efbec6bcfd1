"""Dense float tensors with reverse-mode autodiff on an explicit tape.

Data lives in numpy arrays (float32 for training, float64 for verification);
every differentiable primitive records a vector-Jacobian closure on the
active ``GradTape``. Ops are pure and fail fast on NaN/Inf outputs.
"""

from __future__ import annotations

import threading

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf; the message names the op."""


class TapeError(RuntimeError):
    """Gradient-tape misuse: consumed tape, non-scalar loss, untracked loss."""


_FLOAT_DTYPES = (np.float32, np.float64)
_TAPES = threading.local()


def _tape_stack() -> list:
    stack = getattr(_TAPES, "stack", None)
    if stack is None:
        stack = []
        _TAPES.stack = stack
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


def _assert_finite(op: str, data: np.ndarray) -> None:
    if not data.size:
        return
    # one-pass screen; a non-finite sum can also mean benign overflow of
    # finite values, so confirm with the exact check before raising
    if not np.isfinite(data.sum()):
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """A dense float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "_tape")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype)
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

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


class GradTape:
    """Ordered record of primitive ops; replayed in reverse by ``backward``.

    Single-use: one backward pass consumes the tape. Use as a context
    manager so ops executed inside the block are recorded.
    """

    def __init__(self):
        self._records = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise TapeError("tape context exited out of order")
        stack.pop()
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
    tape = _active_tape()
    if tape is not None:
        live = tuple(tape._live(t) for t in inputs)
        if any(live):
            out._tape = tape
            tape._records.append((out, inputs, vjp, live))
    return out


def _check_dtypes(name: str, a: Tensor, b: Tensor) -> None:
    if a.data.dtype != b.data.dtype:
        raise TypeError(f"{name}: mixed dtypes {a.data.dtype} and {b.data.dtype}")


def _operands(name: str, a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a non-Tensor one takes the other's dtype."""
    if not isinstance(a, Tensor):
        a = Tensor(a, b.data.dtype if isinstance(b, Tensor) else None)
    if not isinstance(b, Tensor):
        b = Tensor(b, a.data.dtype)
    _check_dtypes(name, a, b)
    return a, b


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


# ---------------------------------------------------------------------------
# elementwise suite


def add(a, b) -> Tensor:
    a, b = _operands("add", a, b)
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from exc

    def vjp(g, live):
        return (
            _unbroadcast(g, a.shape) if live[0] else None,
            _unbroadcast(g, b.shape) if live[1] else None,
        )

    return _record("add", out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _operands("sub", a, b)
    try:
        out = a.data - b.data
    except ValueError as exc:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}") from exc

    def vjp(g, live):
        return (
            _unbroadcast(g, a.shape) if live[0] else None,
            -_unbroadcast(g, b.shape) if live[1] else None,
        )

    return _record("sub", out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _operands("mul", a, b)
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from exc

    def vjp(g, live):
        return (
            _unbroadcast(g * b.data, a.shape) if live[0] else None,
            _unbroadcast(g * a.data, b.shape) if live[1] else None,
        )

    return _record("mul", out, (a, b), vjp)


def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar (cast to the tensor's dtype)."""
    s = float(s)
    out = x.data * s

    def vjp(g, live):
        return (g * s,)

    return _record("scale", out, (x,), vjp)


def silu(x: Tensor) -> Tensor:
    sig = _sigmoid(x.data)
    out = x.data * sig

    def vjp(g, live):
        return (g * (sig * (1.0 + x.data * (1.0 - sig))),)

    return _record("silu", out, (x,), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is overflow-free and single-pass
    return 0.5 * np.tanh(0.5 * x) + 0.5


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the trailing axis to zero mean, unit variance (+eps)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat = centered * inv

    def vjp(g, live):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - xhat * gx),)

    return _record("layer_norm", xhat, (x,), vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g, live):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

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


def conv2d_nhwc(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation on channels-last input.

    x is (N, H, W, C_in), w is (kh, kw, C_in, C_out). Channels-last keeps
    the im2col gather contiguous, which is why the network runs in this
    layout. Output extents must divide exactly.
    """
    _check_dtypes("conv2d", x, w)
    if stride < 1:
        raise ShapeError("conv2d: stride must be >= 1")
    if w.ndim != 4:
        raise ShapeError("conv2d: weight must be (kh, kw, C_in, C_out)")
    if x.ndim != 4:
        raise ShapeError("conv2d: input must be (N, H, W, C)")
    n, h, wd, ci = x.shape
    kh, kw, ci_w, co = w.shape
    if ci != ci_w:
        raise ShapeError(f"conv2d: input channels {ci} != kernel channels {ci_w}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if hp < kh or wp < kw:
        raise ShapeError("conv2d: kernel larger than padded input")
    if (hp - kh) % stride or (wp - kw) % stride:
        raise ShapeError("conv2d: non-integral output extent")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1

    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding), (0, 0))) if padding else x.data
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # (N, OH, OW, C, kh, kw)
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, kh * kw * ci)
    wmat = w.data.reshape(kh * kw * ci, co)
    out = (cols @ wmat).reshape(n, oh, ow, co)

    def vjp(g, live):
        gmat = np.ascontiguousarray(g).reshape(n * oh * ow, co)
        gw = gx = None
        if live[1]:
            gw = (cols.T @ gmat).reshape(w.shape)
        if live[0]:
            dcols = (gmat @ wmat.T).reshape(n, oh, ow, kh, kw, ci)
            dxp = np.zeros((n, hp, wp, ci), dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :] += dcols[:, :, :, i, j, :]
            gx = dxp[:, padding : hp - padding, padding : wp - padding, :] if padding else dxp
        return (gx, gw)

    return _record("conv2d", out, (x, w), vjp)


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
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError("attention: q, k and v must be (B, L, d)")
    b, lq, d = q.shape
    if d % n_heads:
        raise ShapeError(f"attention: dim {d} not divisible by {n_heads} heads")
    if k.shape[-1] != d or v.shape[-1] != d:
        raise ShapeError("attention: q/k/v embedding dims differ")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError("attention: k and v sequence lengths differ")
    lk = k.shape[1]
    dh = d // n_heads

    def heads(t, length):
        return transpose(reshape(t, (b, length, n_heads, dh)), (0, 2, 1, 3))

    qh, kh_, vh = heads(q, lq), heads(k, lk), heads(v, lk)
    scores = scale(matmul(qh, transpose(kh_, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    weights = softmax(scores, axis=-1)
    out = matmul(weights, vh)
    return reshape(transpose(out, (0, 2, 1, 3)), (b, lq, d))


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


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    extent = x.shape[axis]
    if not (0 <= start < stop <= extent):
        raise ShapeError(f"slice_axis: [{start}:{stop}] out of range for extent {extent}")
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = x.data[index]

    def vjp(g, live):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return (gx,)

    return _record("slice_axis", out, (x,), vjp, check=False)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g, live):
        return (_spread(g, x.shape, axis, keepdims),)

    return _record("sum", np.asarray(out, dtype=x.data.dtype), (x,), vjp)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else np.prod([x.shape[a] for a in np.atleast_1d(axis)])

    def vjp(g, live):
        return (_spread(g, x.shape, axis, keepdims) / count,)

    return _record("mean", np.asarray(out, dtype=x.data.dtype), (x,), vjp)


def _spread(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction gradient back to the input shape."""
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(shape)), shape).astype(g.dtype, copy=False)
    axes = tuple(a % len(shape) for a in np.atleast_1d(axis))
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape).astype(g.dtype, copy=False)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling of H and W in channels-last (.., H, W, C)."""
    if x.ndim < 3:
        raise ShapeError("upsample2x: input must be (.., H, W, C)")
    out = x.data.repeat(2, axis=-3).repeat(2, axis=-2)

    def vjp(g, live):
        *lead, h2, w2, c = g.shape
        return (g.reshape((*lead, h2 // 2, 2, w2 // 2, 2, c)).sum(axis=(-2, -4)),)

    return _record("upsample2x", out, (x,), vjp, check=False)
