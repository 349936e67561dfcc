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
"""

from __future__ import annotations

import numpy as np

from .autodiff import NumericsError, Tensor

__all__ = ["AdamState", "adam_step"]

# Elements per block of the update: one block of g, m, v, the scratch buffer
# and the new parameter (5 x 256 KiB) stays in cache for all its passes.
BLOCK = 32768


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
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    a1, a2 = 1.0 - b1, 1.0 - b2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    out = []
    for m, v, p, g in zip(state.m, state.v, params, grads):
        new = np.empty(p.shape)
        if new.size <= BLOCK:
            # one block: the whole arrays.  The ten views and slices of the
            # loop below cost about 6 us a parameter, which made the eval
            # probe's 780 steps of four small parameters 20-30% slower
            blocks = ((m, v, g, p.data, new),)
        else:
            # flat views: writes to the blocks of m and v land in the
            # moments, which stay C-contiguous
            flat = [a.reshape(-1) for a in (m, v, g, p.data, new)]
            blocks = ([a[lo:lo + BLOCK] for a in flat]
                      for lo in range(0, new.size, BLOCK))
        for mb, vb, gb, pb, nb in blocks:
            # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*(g*g), in that
            # float64 order, with one scratch block for the right-hand terms
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
        tensor = Tensor._wrap(new)
        tensor.requires_grad = True
        out.append(tensor)
    return out
