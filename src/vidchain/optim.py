"""Adam with bias correction, in a functional style.

`adam_step` consumes immutable parameter Tensors plus raw gradient arrays and
returns fresh parameter Tensors.  The AdamState's step counter and its moment
arrays are updated in place, and each new parameter array is wrapped as a
Tensor without a copy.  The update runs over the flat view of each parameter
in blocks of `BLOCK` elements: every block goes through the whole sequence of
float64 expressions, and is checked for NaN/Inf, while it is still in cache;
a non-finite parameter raises NumericsError.  Each element meets the same
operations in the same order as in one pass over the whole array, so
blocking changes no bit.  Identical (state, params, grads) triples produce
bit-identical results.

The update runs on two threads.  Each parameter larger than one block is
split at a block boundary near its middle: the calling thread runs the first
halves and every small parameter, and one process-wide worker thread,
started on first use, runs the second halves through the same block kernel.
The kernel is numpy calls only, which release the interpreter lock, and no
element's operations depend on any other element, so where an element is
updated moves no bit.  `adam_step` joins both halves before it returns or
raises.
"""

from __future__ import annotations

import queue
import threading

import numpy as np

from .autodiff import NumericsError, Tensor

__all__ = ["AdamState", "adam_step"]

# Elements per block of the update: one block of g, m, v, the scratch buffer
# and the new parameter (5 x 256 KiB) stays in cache for all its passes.
BLOCK = 32768

# The worker thread, started by the first call that splits a parameter, and
# the queue of its jobs: (blocks, coef, reply).
_jobs: queue.SimpleQueue = queue.SimpleQueue()
_worker: threading.Thread | None = None
_worker_lock = threading.Lock()


class AdamState:
    """Per-parameter first/second moment accumulators and a step counter."""

    def __init__(self, lr: float = 2e-4, beta1: float = 0.5,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step = 0
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None


def _update(blocks, coef) -> None:
    """The Adam update of each (m, v, g, p, new) block, in place in m, v and
    new; raises NumericsError on a non-finite new parameter."""
    b1, a1, b2, a2, c1, c2, lr, eps = coef
    for mb, vb, gb, pb, nb in blocks:
        # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*(g*g), in that float64
        # order, with one scratch block for the right-hand terms
        sb = gb * a1
        mb *= b1
        mb += sb
        np.multiply(gb, gb, out=sb)
        sb *= a2
        vb *= b2
        vb += sb
        # p - lr*m_hat / (sqrt(v_hat) + eps), computed in the new block
        np.divide(vb, c2, out=sb)
        np.sqrt(sb, out=sb)
        sb += eps
        np.divide(mb, c1, out=nb)
        nb *= lr
        nb /= sb
        np.subtract(pb, nb, out=nb)
        if not np.isfinite(nb).all():
            raise NumericsError("non-finite parameter produced by adam_step")


def _serve() -> None:
    while True:
        blocks, coef, reply = _jobs.get()
        error = None
        try:
            _update(blocks, coef)
        except Exception as exc:    # raised again by the calling thread
            error = exc
        # the views would keep the step's gradients and old parameters alive
        # until the next job
        del blocks
        reply.put(error)


def _hand_off(blocks, coef) -> queue.SimpleQueue:
    """Queues `blocks` for the worker thread; the queue returned receives
    None, or the exception the update raised, once they are done."""
    global _worker
    with _worker_lock:
        if _worker is None or not _worker.is_alive():
            _worker = threading.Thread(target=_serve, name="adam", daemon=True)
            _worker.start()
    reply = queue.SimpleQueue()
    _jobs.put((blocks, coef, reply))
    return reply


def adam_step(state: AdamState, params, grads) -> list[Tensor]:
    """One bias-corrected Adam update; returns the new parameter Tensors."""
    params = list(params)
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    if len(params) != len(grads):
        raise ValueError("params and grads differ in length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
    if state.m is None:
        state.m = [np.zeros(p.shape) for p in params]
        state.v = [np.zeros(p.shape) for p in params]
    if len(state.m) != len(params):
        raise ValueError("optimizer state does not match parameter count")

    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    coef = (b1, 1.0 - b1, b2, 1.0 - b2, 1.0 - b1 ** t, 1.0 - b2 ** t,
            state.lr, state.eps)
    news = [np.empty(p.shape) for p in params]
    mine, theirs = [], []
    for m, v, p, g, new in zip(state.m, state.v, params, grads, news):
        if new.size <= BLOCK:
            # one block: the whole arrays.  The ten views and slices below
            # cost about 6 us a parameter, which made the eval probe's 780
            # steps of four small parameters 20-30% slower
            mine.append((m, v, g, p.data, new))
            continue
        # flat views: writes to the blocks of m and v land in the moments,
        # which stay C-contiguous
        flat = [a.reshape(-1) for a in (m, v, g, p.data, new)]
        # the block boundary nearest the middle: both halves are non-empty
        mid = (new.size + BLOCK) // (2 * BLOCK) * BLOCK
        mine += ([a[lo:lo + BLOCK] for a in flat] for lo in range(0, mid, BLOCK))
        theirs += ([a[lo:lo + BLOCK] for a in flat]
                   for lo in range(mid, new.size, BLOCK))
    reply = _hand_off(theirs, coef) if theirs else None
    try:
        _update(mine, coef)
    finally:
        # the worker writes into state.m and state.v: wait for it either way
        error = None if reply is None else reply.get()
    if error is not None:
        raise error
    out = []
    for new in news:
        tensor = Tensor._wrap(new)
        tensor.requires_grad = True
        out.append(tensor)
    return out
