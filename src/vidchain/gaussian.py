"""Diagonal-Gaussian latent utilities: KL to the standard normal prior and
the reparameterization trick.

GaussianParams clamps its log-variance to [-10, 10] on the autodiff graph
once, when it is built, so the clamp is one record on the tape active then,
and every downstream loss reads that one clamped Tensor.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import Tensor
from .rng import RandomStream

__all__ = ["GaussianParams", "gaussian_kl", "reparameterize",
           "LOG_VAR_MIN", "LOG_VAR_MAX"]

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0


class GaussianParams:
    """Mean and clamped log-variance of a diagonal Gaussian.

    Accepts a trailing batch layout: (dim,) for one distribution or
    (batch, dim) for a batch of them.  The clamp is applied at construction,
    so build a posterior inside the tape of the loss that reads it.
    """

    __slots__ = ("mu", "log_var")

    def __init__(self, mu: Tensor, log_var: Tensor):
        if mu.shape != log_var.shape:
            raise ValueError(f"mu shape {mu.shape} != log_var shape {log_var.shape}")
        self.mu = mu
        self.log_var = ad.clip(log_var, LOG_VAR_MIN, LOG_VAR_MAX)


def gaussian_kl(q: GaussianParams) -> Tensor:
    """KL(q || N(0, I)) as a scalar: summed over the latent dimension,
    averaged over any leading batch axes.

    Closed form per coordinate: 0.5 * (mu^2 + exp(log_var) - log_var - 1).
    """
    per_coord = ad.square(q.mu) + ad.exp(q.log_var) - q.log_var - 1.0
    per_dist = ad.sum(per_coord, axis=-1)
    return ad.mean(0.5 * per_dist)


def reparameterize(q: GaussianParams, stream: RandomStream) -> Tensor:
    """Draw z = mu + exp(0.5 * log_var) * eps with eps ~ N(0, I).

    Gradient flows to mu and log_var; eps is a constant draw from the stream.
    """
    eps = Tensor(stream.normal(q.mu.shape))
    return q.mu + ad.exp(0.5 * q.log_var) * eps
