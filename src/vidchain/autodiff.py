"""Minimal dense-tensor arithmetic with reverse-mode automatic differentiation.

Tensors are immutable float64 arrays.  Operations executed while a GradTape is
active are recorded in order, each with one vector-Jacobian product (VJP) per
input.  `backward` replays the tape in reverse and returns one gradient per
requested parameter.  It replays only the records on a path from a requested
parameter to the loss, and of those it runs only the VJPs of inputs on such a
path: a discriminator update never forms the gradient of the discriminator's
input, nor a generator update the weight gradients of the discriminator.
A VJP's own state (concat's split offsets, clip's mask) is formed inside the
VJP, so an untaped call or a pruned record never pays for it.

Every Tensor is finite: NaN and Inf are an error state, not a value.  The
constructor checks its data, and a primitive checks its output only where
finite inputs can overflow or hit a pole: add, sub, mul, affine, mlp2 (its
hidden pre-activation too, which tanh would clamp to ±1), square, log, exp,
mean, sum and cumsum.  neg, tanh, sigmoid, clip, reshape, concat and slicing
map finite inputs (clip's bounds included) to finite outputs, so they check
nothing.  A failed check raises NumericsError naming the primitive.  The
backward pass checks every gradient it forms the same way, reporting the
primitive responsible.

A VJP returns either a fresh array it keeps no reference to, which `backward`
may adopt as the accumulator of that input's later contributions and add
into in place, or its upstream array or a view of it, which `backward` never
writes.

The primitive set is deliberately small: add, sub, mul, neg, affine, tanh,
mlp2, sigmoid, mean, sum, cumsum, square, log, exp, concat, slicing, clip,
reshape; mlp2 is a whole two-layer stack in one record.  Slicing takes basic
or advanced indices; the gradient of an advanced index that selects a
position twice raises GradientError.
"""

from __future__ import annotations

import builtins
import math
import threading

import numpy as np

__all__ = [
    "Tensor", "GradTape", "backward", "NumericsError", "GradientError",
    "add", "sub", "mul", "neg", "affine", "tanh", "mlp2", "sigmoid", "mean",
    "sum", "cumsum", "square", "log", "exp", "concat", "clip", "reshape",
]


class NumericsError(RuntimeError):
    """A forward computation produced NaN or Inf."""


class GradientError(RuntimeError):
    """backward() was asked something impossible or produced non-finite grads."""


def _check_finite(op: str, data: np.ndarray) -> None:
    if not np.isfinite(data).all():
        raise NumericsError(f"non-finite value produced by primitive '{op}'")


class Tensor:
    """Immutable float64 array, optionally a trainable leaf (requires_grad)."""

    __slots__ = ("data", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)  # owning copy
        _check_finite("tensor", arr)
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._tape = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path, with no copy and no check: the caller owns
        # `arr` and knows it to be finite (an op output, or a finite constant).
        t = object.__new__(cls)
        arr.setflags(write=False)
        t.data = arr
        t.requires_grad = False
        t._tape = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar — every route goes through the recorded primitives below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __getitem__(self, idx):
        return _slice(self, idx)


class _Rec:
    __slots__ = ("op", "inputs", "out", "vjps")

    def __init__(self, op, inputs, out, vjps):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.vjps = vjps  # vjps[i](g): the gradient for inputs[i]


class _TapeState(threading.local):
    # a class default: reading the tape of a thread that never entered one
    # finds None without a failed attribute lookup
    tape = None


_state = _TapeState()


class GradTape:
    """Ordered record of the primitives applied during one loss evaluation.

    Use as a context manager; a tape is confined to one thread and one loss
    evaluation.  Entering a tape while another is active nests: only the
    innermost tape records.  A tape that exits after a backward pass releases
    its records: recorded tensors point back at their tape, so without that
    a step's whole graph would wait for the cycle collector.
    """

    def __init__(self):
        self.records: list[_Rec] | None = []
        self._replayed = False

    def __enter__(self):
        self._outer = _state.tape
        _state.tape = self
        return self

    def __exit__(self, *exc):
        _state.tape = self._outer
        if self._replayed:
            self.records = None
        return False

    def _tracks(self, t: Tensor) -> bool:
        return t.requires_grad or t._tape is self


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, float) and math.isfinite(x):
        # a finite Python constant (0.5 * t, 1.0 - p): a fresh 0-d array
        # needs neither the constructor's copy nor its array check
        return Tensor._wrap(np.array(x))
    return Tensor(np.asarray(x, dtype=np.float64))


# Primitives whose output is finite whenever their inputs are (see the module
# docstring); every other primitive checks its output.
_FINITE_PRESERVING = frozenset(
    ("neg", "tanh", "sigmoid", "clip", "reshape", "concat", "slice"))


def _emit(op: str, out_data: np.ndarray, inputs: tuple, vjps: tuple) -> Tensor:
    if op not in _FINITE_PRESERVING:
        _check_finite(op, out_data)
    out = Tensor._wrap(out_data)
    tape = _state.tape
    if tape is not None and any(tape._tracks(t) for t in inputs):
        tape.records.append(_Rec(op, inputs, out, vjps))
        out._tape = tape
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise / arithmetic -------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    return _emit("add", out, (a, b),
                 (lambda g: _unbroadcast(g, a.data.shape),
                  lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data
    return _emit("sub", out, (a, b),
                 (lambda g: _unbroadcast(g, a.data.shape),
                  lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data
    return _emit("mul", out, (a, b),
                 (lambda g: _unbroadcast(g * b.data, a.data.shape),
                  lambda g: _unbroadcast(g * a.data, b.data.shape)))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _emit("neg", -a.data, (a,), (np.negative,))


def square(a) -> Tensor:
    a = _as_tensor(a)
    return _emit("square", a.data * a.data, (a,), (lambda g: 2.0 * a.data * g,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    return _emit("log", np.log(a.data), (a,), (lambda g: g / a.data,))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _emit("exp", out, (a,), (lambda g: g * out,))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)
    return _emit("tanh", out, (a,), (lambda g: g * (1.0 - out * out),))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    e = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _emit("sigmoid", out, (a,), (lambda g: g * out * (1.0 - out),))


def clip(a, lo: float, hi: float) -> Tensor:
    a = _as_tensor(a)
    out = np.clip(a.data, lo, hi)
    return _emit("clip", out, (a,),
                 (lambda g: g * ((a.data >= lo) & (a.data <= hi)),))


# -- linear algebra -----------------------------------------------------------

def affine(x, w, b) -> Tensor:
    """x @ w + b for a (batch, in) input, (in, out) weight, (out,) bias."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise GradientError("affine expects (B,in) @ (in,out) + (out,)")
    out = x.data @ w.data
    out += b.data       # in place: the GEMM output is fresh
    return _emit("affine", out, (x, w, b),
                 (lambda g: g @ w.data.T, lambda g: x.data.T @ g,
                  lambda g: g.sum(axis=0)))


def mlp2(x, w0, b0, w1, b1) -> Tensor:
    """affine(tanh(affine(x, w0, b0)), w1, b1) in one record, op for op."""
    ts = x, w0, b0, w1, b1 = tuple(_as_tensor(t) for t in (x, w0, b0, w1, b1))
    if tuple(t.ndim for t in ts) != (2, 2, 1, 2, 1):
        raise GradientError("mlp2 expects (B,in) @ (in,h) + (h,) @ (h,out) + (out,)")
    h = x.data @ w0.data
    h += b0.data
    _check_finite("mlp2", h)
    np.tanh(h, out=h)       # the pre-activation has no other use
    out = h @ w1.data
    out += b1.data
    memo = [None, None]     # g, and its gradient at the pre-activation

    def pre(g):
        if memo[0] is not g:
            memo[:] = g, (g @ w1.data.T) * (1.0 - h * h)
        return memo[1]

    return _emit("mlp2", out, ts,
                 (lambda g: pre(g) @ w0.data.T, lambda g: x.data.T @ pre(g),
                  lambda g: pre(g).sum(axis=0), lambda g: h.T @ g,
                  lambda g: g.sum(axis=0)))


# -- shape / reduction --------------------------------------------------------

def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - deliberate numpy-style name
    a = _as_tensor(a)
    axes = _axis_tuple(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        gg = g if keepdims or a.ndim == 0 else np.expand_dims(g, axes)
        return np.broadcast_to(gg, a.data.shape).copy()

    return _emit("sum", out, (a,), (vjp,))


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _axis_tuple(axis, a.ndim)
    count = int(np.prod([a.data.shape[i] for i in axes])) if axes else 1
    out = a.data.mean(axis=axes, keepdims=keepdims) if axes else a.data.copy()

    def vjp(g):
        gg = g if keepdims or a.ndim == 0 else np.expand_dims(g, axes)
        return np.broadcast_to(gg, a.data.shape) / count

    return _emit("mean", out, (a,), (vjp,))


def cumsum(a, axis: int) -> Tensor:
    """Running sum along `axis`, accumulated in index order."""
    a = _as_tensor(a)
    return _emit("cumsum", np.cumsum(a.data, axis=axis), (a,),
                 (lambda g: np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    # tensors are read-only, so the output may be a view of the input
    return _emit("reshape", a.data.reshape(shape), (a,),
                 (lambda g: g.reshape(a.data.shape),))


def concat(tensors, axis: int = 0) -> Tensor:
    ts = tuple(_as_tensor(t) for t in tensors)
    if not ts:
        raise GradientError("concat of an empty sequence")
    out = np.concatenate([t.data for t in ts], axis=axis)

    def part(i):
        def vjp(g):
            start = builtins.sum(t.data.shape[axis] for t in ts[:i])
            where = [slice(None)] * g.ndim
            where[axis] = slice(start, start + ts[i].data.shape[axis])
            return np.ascontiguousarray(g[tuple(where)])
        return vjp

    return _emit("concat", out, ts, tuple(part(i) for i in range(len(ts))))


def _selects_twice(idx, shape, selected: int) -> bool:
    """Whether `idx`, which selects `selected` entries of an array of
    `shape`, selects some position more than once; only an advanced (array
    or list) index can."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    if not any(isinstance(p, (np.ndarray, list)) for p in parts):
        return False
    hit = np.zeros(shape, dtype=bool)
    hit[idx] = True
    return np.count_nonzero(hit) < selected


def _slice(a, idx) -> Tensor:
    a = _as_tensor(a)
    out = a.data[idx]

    def vjp(g):
        if _selects_twice(idx, a.data.shape, g.size):
            raise GradientError("primitive 'slice' selects a position more "
                                "than once, which its gradient cannot do")
        buf = np.zeros(a.data.shape)
        buf[idx] = g
        return buf

    return _emit("slice", np.array(out), (a,), (vjp,))


# -- backward -----------------------------------------------------------------

def backward(loss: Tensor, params) -> list[np.ndarray]:
    """Gradient of a scalar loss w.r.t. each parameter, in order.

    Parameters never touched by the loss get zero gradients.  Only records
    whose output depends on a requested parameter are replayed, and of
    those only the VJPs of inputs that depend on one; the backward pass
    checks every gradient it forms.
    Raises GradientError for a non-scalar loss, for parameters that are not
    trainable leaves, and when such a gradient is non-finite (the message
    names the responsible primitive).
    """
    params = list(params)
    if not isinstance(loss, Tensor):
        raise GradientError("loss must be a Tensor")
    if loss.size != 1:
        raise GradientError(f"loss must be scalar, got shape {loss.shape}")
    for p in params:
        if not isinstance(p, Tensor) or not p.requires_grad:
            raise GradientError("every parameter must be a requires_grad Tensor")
    tape = loss._tape
    if tape is None:
        # loss not produced from tracked tensors: every gradient is zero
        return [np.zeros(p.shape) for p in params]
    if tape.records is None:
        raise GradientError("the loss's tape was released when it exited "
                            "after a backward pass")
    tape._replayed = True

    # Ids of the tensors that depend on a requested parameter.  A record whose
    # output is not among them cannot carry gradient to any parameter, so the
    # replay skips it; pruning changes no live tensor's accumulation order.
    live = {id(p) for p in params}
    for rec in tape.records:
        if any(id(t) in live for t in rec.inputs):
            live.add(id(rec.out))

    grads: dict[int, np.ndarray] = {id(loss): np.ones(loss.shape)}
    # Keys whose gradient array nothing else holds, so that later
    # contributions add into it in place.  A VJP returns either a fresh
    # array it keeps no reference to (a GEMM output, `neg`'s negation),
    # which becomes such an accumulator, or its upstream gradient or a view
    # of it (`add`, `reshape`, `_unbroadcast`), which is never written to.
    # The sum is the same `old + new` either way: IEEE addition commutes.
    owned: set[int] = set()
    for rec in reversed(tape.records):
        if id(rec.out) not in live:
            continue
        g = grads.pop(id(rec.out), None)
        if g is None:
            continue
        # only the VJPs of inputs that reach a requested parameter run
        for t, vjp in zip(rec.inputs, rec.vjps):
            key = id(t)
            if key not in live:
                continue
            ig = np.asarray(vjp(g), dtype=np.float64)
            if not np.isfinite(ig).all():
                raise GradientError(
                    f"non-finite gradient produced by primitive '{rec.op}'")
            fresh = ig is not g and ig.base is None and ig.flags.writeable
            if key in owned:
                np.add(grads[key], ig, out=grads[key])
            elif key not in grads:
                grads[key] = ig
                if fresh:
                    owned.add(key)
            else:
                if fresh:
                    ig += grads[key]
                else:
                    ig = grads[key] + ig
                grads[key] = ig
                owned.add(key)

    out = []
    for p in params:
        g = grads.get(id(p))
        out.append(np.zeros(p.shape) if g is None else g.reshape(p.shape))
    return out
