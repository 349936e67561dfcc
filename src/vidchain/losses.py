"""Training objectives for the short-clip model.

Conventions shared by every loss here and in the chaining module:

* A clip batch is a Tensor (B, T, D).  Reconstruction error is the per-frame
  *sum* of squared pixel differences; sums over frames are normalized by the
  frame count and everything is averaged over the batch, so magnitudes are
  independent of batch size and clip length (but scale with frame area,
  keeping the pixel term strong relative to the KL terms).
* The frame-reconstruction objective counts frame 0 twice: once as the
  dedicated first-frame term and once inside the per-frame average.
* Reconstruction compares the generator's *pre-clamp* output, so its
  gradient never dies when pixels saturate; discriminators always see the
  clamped clip, which is what generation emits.
* Adversarial terms use the non-saturating form -log D(fake) for the
  generator and -[log D(real) + log(1 - D(fake))] for discriminators.  With
  logits clamped to +-15 all log terms are finite.
* Image discriminators score one random frame per clip per loss evaluation;
  ``_image_prob`` draws that index once, so every image term inside the
  evaluation shares it.
* Every loss takes an explicit RandomStream and derives named children, so
  a (parameters, batch, stream) triple fixes the value bit-for-bit.
* A loss's total is its named terms summed in the order they are listed,
  and its ``parts`` name every term, then any diagnostics (``mse``), then
  ``total``.  A discriminator's terms are one real term followed by one
  term per fake batch (``_critic_terms``); every discriminator loss but the
  chained one (``loss_d_video_merged``) is one ``_critic_loss``, its fakes
  summed as ``fake``.  The generator's adversarial term is ``_fooling``.

Losses never detach: each is differentiable w.r.t. every parameter it
touches, and the training step decides which group's gradients to apply.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .gaussian import gaussian_kl, reparameterize
from .model import ModelBundle, clips_to_tensor
from .rng import RandomStream

__all__ = [
    "LossOutput", "frame_recon", "clip_recon", "diff_recon", "ref_frame_recon",
    "gather_frames", "pixel_mse",
    "loss_enc", "loss_enc_v", "loss_gen", "loss_d_image", "loss_d_video",
]


@dataclass
class LossOutput:
    total: Tensor            # scalar, ready for backward()
    parts: dict              # named float diagnostics, including "total"


def _output(terms: dict, **diagnostics) -> LossOutput:
    """The loss whose total is `terms` summed left to right; `parts` holds
    each term, then the diagnostics, then the total."""
    total = functools.reduce(operator.add, terms.values())
    parts = {name: term.item() for name, term in terms.items()}
    return LossOutput(total, {**parts, **diagnostics, "total": total.item()})


# -- reconstruction objectives (pure, hand-checkable) ---------------------------

def _frame_errors(x: Tensor, x_hat: Tensor) -> Tensor:
    """(B, T) per-frame errors ||x_j - x̂_j||^2 of two (B, T, D) clip batches."""
    return ad.sum(ad.square(x - x_hat), axis=2)


def frame_recon(x: Tensor, x_hat: Tensor) -> Tensor:
    """mean over batch of  ||x_0 - x̂_0||^2  +  (1/T) Σ_j ||x_j - x̂_j||^2."""
    per_frame = _frame_errors(x, x_hat)
    return ad.mean(per_frame[:, 0] + ad.mean(per_frame, axis=1))


def clip_recon(x: Tensor, x_hat: Tensor) -> Tensor:
    """mean over batch of (1/T) Σ_j ||x_j - x̂_j||^2 (no extra first-frame term)."""
    return ad.mean(ad.mean(_frame_errors(x, x_hat), axis=1))


def diff_recon(x: Tensor, x_hat: Tensor) -> Tensor:
    """mean over batch of  ||x_0 - x̂_0||^2  +  (1/(T-1)) Σ_j ||v_j - v̂_j||^2,
    with v the adjacent-frame differences of each clip."""
    first = ad.sum(ad.square(x[:, 0, :] - x_hat[:, 0, :]), axis=1)
    dv = (x[:, 1:, :] - x[:, :-1, :]) - (x_hat[:, 1:, :] - x_hat[:, :-1, :])
    per_step = ad.sum(ad.square(dv), axis=2)                # (B, T-1)
    return ad.mean(first + ad.mean(per_step, axis=1))


def ref_frame_recon(x: Tensor, x_hat: Tensor, ref_index: int) -> Tensor:
    """mean over batch of ||x_ref - x̂_ref||^2 at the 1-based reference index."""
    k = ref_index - 1
    return ad.mean(ad.sum(ad.square(x[:, k, :] - x_hat[:, k, :]), axis=1))


def pixel_mse(x: Tensor, x_hat: Tensor) -> float:
    """Plain per-pixel mean squared error (diagnostic, not a training term)."""
    return float(np.mean((x.data - x_hat.data) ** 2))


def gather_frames(clips: Tensor, indices) -> Tensor:
    """Per-clip frame selection: clips (B, T, D) + 0-based indices (B,) -> (B, D)."""
    return clips[np.arange(clips.shape[0]), indices]


# -- adversarial pieces -------------------------------------------------------------

def _push_real(p: Tensor) -> Tensor:
    return ad.mean(ad.neg(ad.log(p)))


def _critic_terms(prob, real: Tensor, *fakes: Tensor) -> list[Tensor]:
    """A discriminator's terms: -log prob(real), then -log(1 - prob(fake))
    for each fake batch, in order."""
    return [_push_real(prob(real))] + [ad.mean(ad.neg(ad.log(1.0 - prob(f))))
                                       for f in fakes]


def _fooling(probs, fakes) -> Tensor:
    """The generator's adversarial term: -log prob(fake) summed left to right
    over each discriminator in `probs`, each scoring every fake in turn."""
    return functools.reduce(operator.add, (_push_real(prob(f)) for prob in probs
                                           for f in fakes))


def _image_prob(bundle: ModelBundle, x: Tensor, stream: RandomStream):
    """The image discriminator of one loss evaluation: every batch shaped like
    `x` is scored at the per-clip frames `stream`'s ``frame_idx`` child draws."""
    idx = stream.split("frame_idx").integers(0, x.shape[1], (x.shape[0],))
    return lambda clips: bundle.d_image_prob(gather_frames(clips, idx))


def _encode_generate(bundle: ModelBundle, x: Tensor, stream: RandomStream,
                     ref_index: int = 1):
    """Shared reconstruction path: posterior -> sampled latents -> compose."""
    q_x, q_v = bundle.encode_clips(x, ref_index=ref_index)
    z_x = reparameterize(q_x, stream.split("eps_x"))
    z_v = reparameterize(q_v, stream.split("eps_v"))
    raw, clip = bundle.compose(z_x, z_v, ref_index=ref_index)
    return q_x, q_v, raw, clip


def _prior_generate(bundle: ModelBundle, b: int, stream: RandomStream) -> Tensor:
    return bundle.compose(*bundle.prior_latents(b, stream))[1]


def _critic_loss(bundle: ModelBundle, x: Tensor, stream: RandomStream,
                 image: bool, ref_index: int = 1, prior: bool = True) -> LossOutput:
    """The image (`image`) or video discriminator's loss: ``real`` pushes `x`
    up, ``fake`` pushes down `x` rebuilt through its posterior at `ref_index`
    and, when `prior`, clips drawn from the prior."""
    fakes = [_encode_generate(bundle, x, stream, ref_index)[3]]
    if prior:
        fakes.append(_prior_generate(bundle, x.shape[0], stream))
    prob = _image_prob(bundle, x, stream) if image else bundle.d_video_prob
    real, *fake = _critic_terms(prob, x, *fakes)
    return _output({"real": real, "fake": functools.reduce(operator.add, fake)})


# -- the five short-clip losses ------------------------------------------------------

def _posterior_loss(bundle: ModelBundle, clips, stream: RandomStream,
                    recon_fn) -> LossOutput:
    """`recon_fn(x, raw)` of the clips rebuilt through the generator, plus
    the two KL terms."""
    x = clips_to_tensor(clips)
    q_x, q_v, raw, _ = _encode_generate(bundle, x, stream)
    return _output({"recon": recon_fn(x, raw), "kl_x": gaussian_kl(q_x),
                    "kl_v": gaussian_kl(q_v)}, mse=pixel_mse(x, raw))


def loss_enc(bundle: ModelBundle, clips, stream: RandomStream) -> LossOutput:
    """Posterior quality: frame reconstruction through the generator plus the
    two KL terms.  Differentiable w.r.t. encoder and generator parameters."""
    return _posterior_loss(bundle, clips, stream, frame_recon)


def loss_enc_v(bundle: ModelBundle, clips, stream: RandomStream) -> LossOutput:
    """Variant objective: the per-frame term is replaced by reconstruction of
    the difference maps (first frame still anchored)."""
    return _posterior_loss(bundle, clips, stream, diff_recon)


def loss_gen(bundle: ModelBundle, clips, stream: RandomStream) -> LossOutput:
    """Generator objective: reconstruction plus four non-saturating
    adversarial terms — image and video discriminators, each scoring clips
    rebuilt from encoded latents and clips drawn from the prior."""
    x = clips_to_tensor(clips)
    _, _, raw, fake_e = _encode_generate(bundle, x, stream)
    fake_p = _prior_generate(bundle, x.shape[0], stream)
    recon = frame_recon(x, raw)
    adv = _fooling((_image_prob(bundle, x, stream), bundle.d_video_prob),
                   (fake_e, fake_p))
    return _output({"recon": recon, "adv": adv}, mse=pixel_mse(x, raw))


def loss_d_image(bundle: ModelBundle, clips, stream: RandomStream) -> LossOutput:
    """Image-discriminator objective on one random frame per clip: real frames
    up, reconstruction fakes and prior fakes down."""
    return _critic_loss(bundle, clips_to_tensor(clips), stream, image=True)


def loss_d_video(bundle: ModelBundle, clips, stream: RandomStream) -> LossOutput:
    """Video-discriminator objective on whole clips, same three-term shape."""
    return _critic_loss(bundle, clips_to_tensor(clips), stream, image=False)
