"""Shared independent oracles for the test suite.

The finite-difference helpers here are the second route against which every
autodiff gradient is judged; they never touch the library's backward pass.
`held_frames` counts the frame buffers a chain holds from the outside, by
looking at its frame, never at what it reports.
"""

import sys

import numpy as np

from vidchain.autodiff import Tensor

H = 1e-5          # central-difference step (64-bit precision assumed)
REL_TOL = 1e-4    # maximum relative error accepted for a gradient entry


def rel_err(a, b) -> float:
    """Worst-case elementwise relative error with a floor of 1 on the scale."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def fd_grad(f, x0, h: float = H) -> np.ndarray:
    """Entrywise central finite differences of a scalar function at x0."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros(x0.shape)
    gflat = g.reshape(-1)
    for i in range(x0.size):
        xp = x0.reshape(-1).copy()
        xm = xp.copy()
        xp[i] += h
        xm[i] -= h
        gflat[i] = (f(xp.reshape(x0.shape)) - f(xm.reshape(x0.shape))) / (2.0 * h)
    return g


def fd_directional(f, x0, direction, h: float = H) -> float:
    """Central finite difference of f along one direction (one evaluation pair)."""
    x0 = np.asarray(x0, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    return float((f(x0 + h * d) - f(x0 - h * d)) / (2.0 * h))


def held_frames(chain_generate, bundle, *args, **kwargs):
    """Run ``chain_generate(bundle, *args, sink=..., **kwargs)`` and return
    its result and the most frames it held at once.

    The count is taken before each line of its body runs and at each call
    of the bundle's content_posterior, motion_posterior and compose and of
    the sink: the frame-shaped arrays (last axis a multiple of the frame
    size), bare or in a Tensor, bound in chain_generate's frame or passed
    to the call, each counted as the whole buffer it views, and a buffer
    several of them view counted once.  A call's own temporaries are not
    counted."""
    size = int(np.prod(bundle.cfg.frame_shape))
    code = chain_generate.__code__
    most = 0

    def count(frame, extra=()):
        nonlocal most
        buffers = {}
        for value in (*frame.f_locals.values(), *extra):
            arr = value.data if isinstance(value, Tensor) else value
            if isinstance(arr, np.ndarray) and arr.ndim and arr.shape[-1] % size == 0:
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                buffers[id(arr)] = arr.size // size
        most = max(most, sum(buffers.values()))

    def spy(fn):
        def call(*a, **k):
            count(sys._getframe(1), a)
            return fn(*a, **k)
        return call

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        count(frame)
        return trace

    names = ("content_posterior", "motion_posterior", "compose")
    for name in names:
        setattr(bundle, name, spy(getattr(bundle, name)))
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = chain_generate(bundle, *args, sink=spy(lambda block: None),
                                **kwargs)
    finally:
        sys.settrace(previous)
        for name in names:
            delattr(bundle, name)
    return result, most
