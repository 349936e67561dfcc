"""Training: both phases step through one update helper and one loop.

A clip step updates the discriminators, then the encoders, then the
generator; a recall step updates the discriminators on pair losses, then
encoders and generator jointly.  Clip batches sample frames uniformly from
binned positions for the first `uniform_fraction` of steps, then at a fixed
step stride; recall batches draw clip pairs uniformly.

Stream discipline: step s derives the named stream "step{s}", and each role
(batch choice, each loss) splits its own child, so no loss's draw count can
shift another's randomness and whole runs replay bit-identically.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from . import autodiff as ad
from . import chain
from .autodiff import backward
from .chain import make_training_pairs
from .config import RunConfig
from .datasets import step_sample, uniform_sample
from .losses import loss_d_image, loss_d_video, loss_enc, loss_enc_v, loss_gen
from .model import OPT_GROUPS, ModelBundle
from .optim import adam_step
from .rng import RandomStream

__all__ = ["train_step", "train_step_recall", "sample_batch", "train_loop",
           "train_loop_recall", "build_pairs"]


def _update(bundle: ModelBundle, opt_names, losses: dict, batch,
            stream: RandomStream) -> dict:
    """One Adam update of each optimizer in `opt_names` on the group that
    OPT_GROUPS pairs it with, on the totals of `losses` ({name: loss
    function}) summed in order.  Each loss draws from stream.split(name);
    returns each loss's parts by name."""
    groups = [OPT_GROUPS[name] for name in opt_names]
    with ad.GradTape():
        outs = {name: loss(bundle, batch, stream.split(name))
                for name, loss in losses.items()}
        total = functools.reduce(operator.add, (o.total for o in outs.values()))
        params = [bundle.params(group) for group in groups]
        grads = backward(total, [p for group in params for p in group])
    for name, group, group_params in zip(opt_names, groups, params):
        n = len(group_params)
        bundle.set_params(group, adam_step(bundle.opts[name], group_params,
                                           grads[:n]))
        grads = grads[n:]
    return {name: out.parts for name, out in outs.items()}


def train_step(bundle: ModelBundle, clips: np.ndarray,
               stream: RandomStream) -> dict:
    """One clip step: discriminators (image + video losses summed, one Adam
    update), then encoders, then generator."""
    enc_loss = loss_enc_v if bundle.cfg.loss_variant == "diff" else loss_enc
    report = _update(bundle, ["opt_d"],
                     {"d_image": loss_d_image, "d_video": loss_d_video},
                     clips, stream)
    report.update(_update(bundle, ["opt_enc"], {"enc": enc_loss}, clips, stream))
    report.update(_update(bundle, ["opt_gen"], {"gen": loss_gen}, clips, stream))
    return report


def train_step_recall(bundle: ModelBundle, pairs, stream: RandomStream) -> dict:
    """One recall step: discriminators (image + video, merged when cfg.mgv),
    then one joint update of encoders and generator on the recall objective."""
    d_video = chain.loss_d_video_merged if bundle.cfg.mgv else chain.loss_d_video_r1
    report = _update(bundle, ["opt_d"],
                     {"d_image": chain.loss_d_image_r, "d_video": d_video},
                     pairs, stream)
    report.update(_update(bundle, ["opt_enc", "opt_gen"],
                          {"rencg": chain.loss_rencg}, pairs, stream))
    return report


def sample_batch(videos, cfg: RunConfig, step_index: int,
                 stream: RandomStream) -> np.ndarray:
    """One (batch, t_c, H, W, C) batch per the uniform-then-step schedule."""
    uniform_steps = int(round(cfg.uniform_fraction * cfg.steps))
    use_uniform = step_index < uniform_steps
    which = stream.split("videos").choice(len(videos), cfg.batch)
    clips = []
    for i, vid_idx in enumerate(which):
        video = videos[int(vid_idx)]
        cstream = stream.split(f"clip{i}")
        if use_uniform:
            clips.append(uniform_sample(video, cstream, bins=cfg.t_c))
        else:
            span = cfg.sample_step * (cfg.t_c - 1)
            max_start = len(video) - span - 1
            if max_start < 0:
                raise ValueError(
                    f"video of {len(video)} frames is too short for step "
                    f"sampling {cfg.t_c} frames at stride {cfg.sample_step}")
            start = int(cstream.integers(0, max_start + 1, ()))
            clips.append(step_sample(video, start, cfg.sample_step, cfg.t_c))
    return np.stack(clips)


def _run(bundle: ModelBundle, label: str, draw, step_fn, progress) -> list[dict]:
    """cfg.steps steps of `step_fn` under the root stream `label`; step s
    runs on the batch `draw(s, stream)` takes from its own stream, then
    calls `progress(s, report)`.  Returns the per-step reports."""
    root = RandomStream.from_seed(bundle.cfg.seed, label)
    reports = []
    for step in range(bundle.cfg.steps):
        sstream = root.split(f"step{step}")
        reports.append(step_fn(bundle, draw(step, sstream), sstream))
        if progress is not None:
            progress(step, reports[-1])
    return reports


def _check_frames(videos, cfg: RunConfig) -> None:
    """Every video's frames must have the config's (H, W, C) shape."""
    for i, video in enumerate(videos):
        if np.shape(video)[1:] != cfg.frame_shape:
            raise ValueError(f"video {i} has frames of shape {np.shape(video)[1:]}, "
                             f"the config's frame_shape is {cfg.frame_shape}")


def train_loop(bundle: ModelBundle, videos, progress=None) -> list[dict]:
    """Run cfg.steps clip steps; returns the per-step loss reports."""
    if len(videos) == 0:
        raise ValueError("no videos to train on")
    _check_frames(videos, bundle.cfg)
    return _run(bundle, "train", lambda step, sstream: sample_batch(
        videos, bundle.cfg, step, sstream.split("batch")), train_step, progress)


def build_pairs(videos, cfg: RunConfig):
    """Training pairs at the configured stride: overlapping (stride r) when
    cfg.ovi, disjoint consecutive clips (stride t_c) otherwise."""
    _check_frames(videos, cfg)
    stride = cfg.r if cfg.ovi else cfg.t_c
    return make_training_pairs(videos, cfg.t_c, stride)


def train_loop_recall(bundle: ModelBundle, pairs, progress=None) -> list[dict]:
    """Run cfg.steps recall steps over uniformly drawn pair batches."""
    if not pairs:
        raise ValueError("no training pairs — videos shorter than t_c + stride")

    def draw(step, sstream):
        which = sstream.split("pairs").choice(len(pairs), bundle.cfg.batch)
        return [pairs[int(i)] for i in which]
    return _run(bundle, "train-recall", draw, train_step_recall, progress)
