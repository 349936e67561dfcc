"""Long-video machinery: overlapping training pairs, the joint recall
objective, pair-level discriminator losses, and fixed-memory chained
generation.

Training views a long video as clips taken every `stride` frames; a
``ClipPair`` is two such clips one stride apart, sharing ``t_c - stride``
frames.  The joint recall loss ``loss_rencg`` trains Enc and G to make clip
j+1 continue clip j.  The merged video-discriminator loss scores a real clip
against two generated ones, the second *chained* from the first (its latents
re-encode the first generated clip), so the graph carries a gradient through
the chaining path to the generator; but ``loss_d_video_merged`` runs only in
the discriminator update (``training.train_step_recall``): it trains D alone.

One rule places the chain: a clip's frame ``chain_ref_frame(t_c, r)`` is
carried into the next clip, which starts ``r`` frames later and so takes it
as its reference frame at index ``ref = chain_ref_frame(t_c, r) - r``.  The
first clip, and every recall loss, uses the mid-clip index ``t_c // 2``.

Generation then runs the same chaining forever in fixed memory.  The chain
is a Markov chain whose state between clips is two things: the overlap
``tail`` (the previous clip's last ``t_c - r`` frames, of which
``tail[ref - 1]`` is the carried frame) and the motion latent ``z_v``.
``chain_generate`` hands each clip's first ``r`` frames (the final clip
fully) to a sink as one ``(k, H, W, C)`` block, keeps none of them, and
drops each frame buffer at its last use, so it holds at most two clips'
worth of frames between its calls.

Latent modes:

* ``sampled`` — first clip from prior draws; each next content code sampled
  from the posterior of the carried frame, ``z_v`` re-drawn from the prior.
* ``mean`` — zero latents for the first clip, posterior means afterwards
  (content from the carried frame, ``z_v`` from the previous clip's
  difference maps); fully deterministic, no random stream touched.
* ``seeded`` — like ``mean`` for content, but ``z_v`` is the first clip's
  prior draw, kept for the whole chain: one consistent "motion style".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .config import GEN_MODES
from .gaussian import reparameterize, gaussian_kl
from .losses import (
    LossOutput, _critic_loss, _critic_terms, _encode_generate, _fooling,
    _image_prob, _output, clip_recon, pixel_mse, ref_frame_recon,
)
from .model import GEN_GROUP, ModelBundle, clips_to_tensor
from .rng import RandomStream

# Not called here; perfbench/layertrace.py patches both names in this module.
from .autodiff import backward  # noqa: F401
from .optim import adam_step  # noqa: F401

__all__ = [
    "ClipPair", "make_training_pairs", "pairs_to_clips",
    "loss_rencg", "loss_d_image_r", "loss_d_video_r1", "loss_d_video_merged",
    "merged_video_terms",
    "ChainResult", "chain_components", "chain_generate",
    "chain_overlap_mismatch",
]


# -- training pairs ------------------------------------------------------------

@dataclass
class ClipPair:
    """Two clips of one source video, `stride` frames apart.  When
    stride < clip length they share frames: first[stride + i] == second[i]."""
    first: np.ndarray      # (T, H, W, C)
    second: np.ndarray     # (T, H, W, C)
    source: int            # index of the source video
    offset: int            # start frame of `first` within the source
    stride: int            # second clip starts at offset + stride


def make_training_pairs(videos, t_c: int, stride: int):
    """All (clip at k*stride, clip at (k+1)*stride) pairs of each video.

    Returns (pairs, skipped) where skipped lists the indices of videos too
    short to contribute (length < t_c + stride).  Clips are views into their
    video, so the frames two clips share are the same memory.
    """
    if not 1 <= stride <= t_c:
        raise ValueError(f"pair stride must be in 1..{t_c}, got {stride}")
    pairs: list[ClipPair] = []
    skipped: list[int] = []
    for src, video in enumerate(videos):
        video = np.asarray(video)
        if len(video) < t_c + stride:
            skipped.append(src)
            continue
        for a in range(0, len(video) - t_c - stride + 1, stride):
            b = a + stride
            pairs.append(ClipPair(video[a:a + t_c], video[b:b + t_c], src, a,
                                  stride))
    return pairs, skipped


def pairs_to_clips(pairs) -> np.ndarray:
    """Flatten a pair batch into individual clips: (2B, T, H, W, C),
    firsts then seconds."""
    if len(pairs) == 0:
        raise ValueError("empty batch")
    return np.stack([p.first for p in pairs] + [p.second for p in pairs])


def _ref_index(t_c: int) -> int:
    """The 1-based mid-clip reference index used by all recall losses and by
    the first clip of a chain."""
    return t_c // 2


# -- recall losses ----------------------------------------------------------------

def loss_rencg(bundle: ModelBundle, pairs, stream: RandomStream) -> LossOutput:
    """Joint encoder+generator objective over the individual clips of a pair
    batch: mid-clip reference-frame reconstruction, full-clip reconstruction
    built from that reference, both KL terms, and non-saturating adversarial
    terms from both discriminators."""
    x = clips_to_tensor(pairs_to_clips(pairs))
    ref = _ref_index(x.shape[1])

    q_x, q_v, raw, fake = _encode_generate(bundle, x, stream, ref)
    ref_term = ref_frame_recon(x, raw, ref)
    full_term = clip_recon(x, raw)
    kl_x, kl_v = gaussian_kl(q_x), gaussian_kl(q_v)
    adv = _fooling((bundle.d_video_prob, _image_prob(bundle, x, stream)), (fake,))
    return _output({"recon_ref": ref_term, "recon_full": full_term,
                    "kl_x": kl_x, "kl_v": kl_v, "adv": adv},
                   mse=pixel_mse(x, raw))


def loss_d_image_r(bundle: ModelBundle, pairs, stream: RandomStream) -> LossOutput:
    """Two-term image-discriminator loss (no prior-sample term): real frames
    vs frames of clips rebuilt from encoded latents."""
    x = clips_to_tensor(pairs_to_clips(pairs))
    return _critic_loss(bundle, x, stream, image=True,
                        ref_index=_ref_index(x.shape[1]), prior=False)


def loss_d_video_r1(bundle: ModelBundle, pairs, stream: RandomStream) -> LossOutput:
    """Two-term whole-clip discriminator loss (no prior-sample term)."""
    x = clips_to_tensor(pairs_to_clips(pairs))
    return _critic_loss(bundle, x, stream, image=False,
                        ref_index=_ref_index(x.shape[1]), prior=False)


def chain_ref_frame(t_c: int, stride: int) -> int:
    """1-based index, within the previous clip, of the frame that becomes the
    next clip's reference: ideally stride + t_c//2, clamped into the clip.
    The next clip starts `stride` frames later, so there the frame lands at
    index ``chain_ref_frame(t_c, stride) - stride``, which is
    min(t_c//2, t_c - stride)."""
    return min(stride + t_c // 2, t_c)


def merged_video_terms(bundle: ModelBundle, pairs, stream: RandomStream):
    """The three expectations of the merged-clip discriminator objective:
    (real clip up, first generated clip down, chained generated clip down).

    The chained clip's latents re-encode the first *generated* clip: content
    from its frame at ``chain_ref_frame``, motion from its difference maps —
    so both generated clips lie on the discriminator's input path.
    """
    if len(pairs) == 0:
        raise ValueError("empty batch")
    r = bundle.cfg.r
    real = clips_to_tensor(np.stack([p.first for p in pairs]))
    t = real.shape[1]

    # first fake: rebuild the pair's first clip from its posterior
    fake1 = _encode_generate(bundle, real, stream, _ref_index(t))[3]

    # second fake: chain from the first — re-encode fake1's carried frame
    # and difference maps, then compose one stride later with that frame
    # at its new place
    carry = chain_ref_frame(t, r)
    q_x2, q_v2 = bundle.encode_clips(fake1, ref_index=carry)
    z_x2 = reparameterize(q_x2, stream.split("eps2_x"))
    z_v2 = reparameterize(q_v2, stream.split("eps2_v"))
    fake2 = bundle.compose(z_x2, z_v2, ref_index=carry - r)[1]
    return _critic_terms(bundle.d_video_prob, real, fake1, fake2)


def loss_d_video_merged(bundle: ModelBundle, pairs,
                        stream: RandomStream) -> LossOutput:
    """Merged-clip video-discriminator loss: one real clip against the two
    chained generated clips of each pair."""
    terms = merged_video_terms(bundle, pairs, stream)
    return _output(dict(zip(("real", "fake1", "fake2"), terms)))


# -- fixed-memory chained generation ------------------------------------------------

@dataclass
class ChainResult:
    frames_emitted: int
    mismatches: list        # per-seam mean |tail - head|
    peak_frames: int

    @property
    def mean_mismatch(self) -> float:
        return float(np.mean(self.mismatches)) if self.mismatches else 0.0


def chain_components(mode: str) -> tuple[str, ...]:
    """The model components `chain_generate` calls in `mode`: the content
    encoder and the three generator streams, and in `mean` mode the motion
    encoder too.  It never calls a discriminator."""
    return ("content_enc",) + ("motion_enc",) * (mode == "mean") + GEN_GROUP


def chain_generate(bundle: ModelBundle, n_clips: int, mode: str = "sampled",
                   stream: RandomStream | None = None, r: int | None = None,
                   sink=None) -> ChainResult:
    """Generate (n_clips - 1) * r + t_c frames by chaining clips through the
    encoders.  Between its calls it holds at most two clips' worth of frames:
    the clip and the tail it continues (2·t_c - r), or in `mean` mode the clip
    and its difference maps at the motion encoder (2·t_c - 1); `peak_frames`
    is the most it held, a compose's own temporaries not counted.

    `sink(block)` receives (k, H, W, C) float64 frame blocks, read-only
    views of the composed clip, as they are emitted; without a sink the
    frames are dropped.
    """
    cfg = bundle.cfg
    t_c = cfg.t_c
    r = cfg.r if r is None else r
    if n_clips < 1:
        raise ValueError(f"n_clips must be >= 1, got {n_clips}")
    if not 1 <= r < t_c:
        raise ValueError(f"need 1 <= r < t_c, got r={r}, t_c={t_c}")
    if mode not in GEN_MODES:
        raise ValueError(f"unknown generation mode {mode!r}")
    if stream is None:
        stream = RandomStream.from_seed(cfg.seed, "chain-generate")

    olap = t_c - r                       # tail length = shared frames per seam
    ref = _ref_index(t_c)                # the first clip's reference index

    # the chain's state between clips: the overlap tail and the motion latent
    tail: np.ndarray | None = None       # (olap, D) frames shared with next clip
    z_v: Tensor | None = None
    mismatches: list[float] = []
    peak = 0                             # the most frames held at once

    for j in range(n_clips):
        cstream = stream.split(f"clip{j}")
        if tail is None:
            if mode == "mean":
                z_x = Tensor(np.zeros((1, cfg.z_content)))
                z_v = Tensor(np.zeros((1, cfg.z_motion)))
            else:
                z_x, z_v = bundle.prior_latents(1, cstream)
        else:
            # the carried frame is the one this clip places at `ref`
            q_x = bundle.content_posterior(Tensor(tail[ref - 1][None]))
            if mode == "sampled":
                z_x = reparameterize(q_x, cstream.split("eps_x"))
                z_v = Tensor(cstream.split("prior_v").normal((1, cfg.z_motion)))
            else:        # mean and seeded keep z_v as the last clip left it
                z_x = q_x.mu

        clip = bundle.compose(z_x, z_v, ref_index=ref)[1].data[0]  # (t_c, D)
        peak = max(peak, len(clip) + (0 if tail is None else len(tail)))
        if tail is not None:
            mismatches.append(float(np.abs(tail - clip[:olap]).mean()))
            tail = None                  # the seam was its last use

        last = j == n_clips - 1
        if sink is not None:
            sink((clip if last else clip[:r]).reshape((-1,) + cfg.frame_shape))

        if not last:
            if mode == "mean":           # its difference maps, (1, (t_c - 1) * D)
                # fresh and finite (the clip is clamped to [-1, 1]): no copy
                diffs = Tensor._wrap(np.diff(clip, axis=0).reshape(1, -1))
                peak = max(peak, len(clip) + diffs.size // clip.shape[1])
                z_v = bundle.motion_posterior(diffs).mu
                del diffs
            tail = clip[r:].copy()
        del clip
        ref = chain_ref_frame(t_c, r) - r

    return ChainResult((n_clips - 1) * r + t_c, mismatches, peak)


def chain_overlap_mismatch(bundle: ModelBundle, n_clips: int,
                           mode: str = "mean",
                           stream: RandomStream | None = None,
                           r: int | None = None) -> float:
    """Mean absolute tail-vs-head disagreement across all seams of one chain
    (frames are discarded as they are produced)."""
    return chain_generate(bundle, n_clips, mode=mode, stream=stream,
                          r=r).mean_mismatch
