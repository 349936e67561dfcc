"""Dense layers over flattened frames: initialization and application.

An MLP here is a two-layer stack, the flat list of trainable Tensors
[W0, b0, W1, b1]: a tanh hidden layer and a linear output layer, which
`apply_mlp` records as one `autodiff.mlp2` tape entry.  Weights draw from
N(0, 1/n_in); biases draw from N(0, bias_init^2) — deliberately *not* zero,
so an untrained model maps zero latents to a nonzero signal (a meaningful
baseline for before/after-training comparisons).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rng import RandomStream

__all__ = ["init_mlp", "apply_mlp"]


def init_mlp(stream: RandomStream, sizes, bias_init: float) -> list[Tensor]:
    """Trainable parameters for layer widths `sizes` = [n_in, n_hid, n_out]."""
    params: list[Tensor] = []
    for i in range(len(sizes) - 1):
        n_in, n_out = sizes[i], sizes[i + 1]
        w = stream.split(f"w{i}").normal((n_in, n_out), scale=1.0 / np.sqrt(n_in))
        b = stream.split(f"b{i}").normal((n_out,), scale=bias_init)
        params.append(Tensor(w, requires_grad=True))
        params.append(Tensor(b, requires_grad=True))
    return params


def apply_mlp(params: list[Tensor], x: Tensor) -> Tensor:
    """The stack [W0, b0, W1, b1] on x, (batch, n_in), as one record."""
    return ad.mlp2(x, *params)
