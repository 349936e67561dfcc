"""Clip-pair machinery, recall objectives, and fixed-memory chained
generation."""

import numpy as np
import pytest

import vidchain.autodiff as ad
from vidchain.autodiff import GradTape, Tensor, backward
from vidchain.chain import (
    ClipPair, chain_generate, chain_overlap_mismatch, chain_ref_frame,
    loss_d_image_r, loss_d_video_merged, loss_d_video_r1,
    loss_rencg, make_training_pairs, merged_video_terms, pairs_to_clips,
)
from vidchain.config import RunConfig
from vidchain.losses import clip_recon
from vidchain.model import D_GROUP, ENC_GROUP, GEN_GROUP, ModelBundle
from vidchain.rng import RandomStream
from vidchain.training import train_step_recall

from oracle_utils import held_frames
from test_losses import TINY, directional_fd, stream, tiny_bundle, zero_discriminators

LN2 = np.log(2.0)


def ramp_video(length, cfg=TINY, scale=1000.0):
    """Video whose frames are globally unique values -> overlap mistakes are
    impossible to miss."""
    n = length * np.prod(cfg.frame_shape)
    return (np.arange(n, dtype=np.float64).reshape((length,) + cfg.frame_shape)
            / scale)


def tiny_pairs(n_videos=2, length=12, seed=3):
    rng = np.random.default_rng(seed)
    videos = [rng.uniform(-1, 1, (length,) + TINY.frame_shape)
              for _ in range(n_videos)]
    pairs, skipped = make_training_pairs(videos, TINY.t_c, TINY.r)
    assert not skipped
    return pairs


# -- pair enumeration ---------------------------------------------------------------

def test_pair_offsets_l32():
    videos = [np.zeros((32, 2, 2, 1))]
    pairs, skipped = make_training_pairs(videos, t_c=16, stride=8)
    assert [p.offset for p in pairs] == [0, 8]
    assert [p.offset + p.stride for p in pairs] == [8, 16]
    assert skipped == []


def test_pair_offsets_l24_single():
    pairs, _ = make_training_pairs([np.zeros((24, 2, 2, 1))], t_c=16, stride=8)
    assert [(p.offset, p.offset + p.stride) for p in pairs] == [(0, 8)]


def test_short_video_skipped():
    videos = [np.zeros((23, 2, 2, 1)), np.zeros((40, 2, 2, 1))]
    pairs, skipped = make_training_pairs(videos, t_c=16, stride=8)
    assert skipped == [0]
    assert all(p.source == 1 for p in pairs)


def test_pair_overlap_property():
    video = ramp_video(20)
    pairs, _ = make_training_pairs([video], TINY.t_c, TINY.r)
    assert pairs
    for p in pairs:
        assert np.array_equal(p.first[p.stride:], p.second[:TINY.t_c - p.stride])
        assert np.array_equal(p.first, video[p.offset:p.offset + TINY.t_c])
        second = p.offset + p.stride
        assert np.array_equal(p.second, video[second:second + TINY.t_c])
        # views, not copies: each interior clip is stored once
        assert np.shares_memory(p.first, video)
        assert np.shares_memory(p.second, video)


def test_disjoint_pairs_at_full_stride():
    video = ramp_video(8)
    pairs, _ = make_training_pairs([video], t_c=4, stride=4)
    assert len(pairs) == 1
    assert np.array_equal(pairs[0].first, video[0:4])
    assert np.array_equal(pairs[0].second, video[4:8])


def test_pair_stride_bounds():
    with pytest.raises(ValueError, match="stride"):
        make_training_pairs([np.zeros((32, 2, 2, 1))], t_c=16, stride=0)
    with pytest.raises(ValueError, match="stride"):
        make_training_pairs([np.zeros((32, 2, 2, 1))], t_c=16, stride=17)


def test_pairs_to_clips_order_and_shape():
    pairs = tiny_pairs()
    flat = pairs_to_clips(pairs)
    b = len(pairs)
    assert flat.shape == (2 * b, TINY.t_c) + TINY.frame_shape
    assert np.array_equal(flat[0], pairs[0].first)
    assert np.array_equal(flat[b], pairs[0].second)


def test_pairs_to_clips_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        pairs_to_clips([])


# -- recall objectives -----------------------------------------------------------

def test_clip_recon_hand_value():
    x = Tensor(np.zeros((1, 2, 1)))
    x_hat = Tensor(np.full((1, 2, 1), 0.1))
    assert abs(clip_recon(x, x_hat).item() - 0.01) < 1e-15


def test_reference_frame_perturbation_split():
    # only the reference frame wrong by 0.1: reference term pays 0.01,
    # whole-clip term pays 0.01 / T
    from vidchain.losses import ref_frame_recon
    t = 8
    x = np.zeros((1, t, 1))
    x_hat = np.zeros((1, t, 1))
    x_hat[0, t // 2 - 1, 0] = 0.1
    ref_term = ref_frame_recon(Tensor(x), Tensor(x_hat), t // 2).item()
    full_term = clip_recon(Tensor(x), Tensor(x_hat)).item()
    assert abs(ref_term - 0.01) < 1e-15
    assert abs(full_term - 0.01 / t) < 1e-15


def test_recall_d_losses_two_terms_at_half():
    bundle = zero_discriminators(tiny_bundle())
    pairs = tiny_pairs()
    assert abs(loss_d_image_r(bundle, pairs, stream()).total.item()
               - 2 * LN2) < 1e-12
    assert abs(loss_d_video_r1(bundle, pairs, stream()).total.item()
               - 2 * LN2) < 1e-12


def test_merged_d_loss_three_terms_at_half():
    bundle = zero_discriminators(tiny_bundle())
    out = loss_d_video_merged(bundle, tiny_pairs(), stream())
    assert abs(out.total.item() - 3 * LN2) < 1e-12
    for key in ("real", "fake1", "fake2"):
        assert abs(out.parts[key] - LN2) < 1e-12


def test_rencg_adversarial_part_at_half():
    bundle = zero_discriminators(tiny_bundle())
    out = loss_rencg(bundle, tiny_pairs(), stream())
    assert abs(out.parts["adv"] - 2 * LN2) < 1e-12


def test_chain_ref_frame_values():
    assert chain_ref_frame(16, 8) == 16
    assert chain_ref_frame(16, 4) == 12
    assert chain_ref_frame(16, 16) == 16   # clamped into the clip
    assert chain_ref_frame(4, 2) == 4


def test_merged_gradient_reaches_generator_through_chained_clip():
    bundle = tiny_bundle()
    pairs = tiny_pairs()
    gen_params = bundle.params(GEN_GROUP)
    with GradTape():
        _, _, t_fake2 = merged_video_terms(bundle, pairs, stream())
        grads = backward(t_fake2, gen_params)
    assert any(np.any(g != 0) for g in grads)
    # and through the encoders (the chained clip re-encodes the first fake)
    enc_params = bundle.params(ENC_GROUP)
    with GradTape():
        _, _, t_fake2 = merged_video_terms(bundle, pairs, stream())
        enc_grads = backward(t_fake2, enc_params)
    assert any(np.any(g != 0) for g in enc_grads)


def test_fd_rencg_wrt_encoders():
    bundle = tiny_bundle()
    pairs = tiny_pairs()
    err = directional_fd(bundle, ENC_GROUP,
                         lambda: loss_rencg(bundle, pairs, stream(seed=2)))
    assert err < 1e-4, err


def test_fd_merged_wrt_generator():
    bundle = tiny_bundle()
    pairs = tiny_pairs()
    err = directional_fd(
        bundle, GEN_GROUP,
        lambda: loss_d_video_merged(bundle, pairs, stream(seed=2)))
    assert err < 1e-4, err


def test_recall_losses_deterministic():
    bundle = tiny_bundle()
    pairs = tiny_pairs()
    for fn in (loss_rencg, loss_d_image_r, loss_d_video_r1, loss_d_video_merged):
        assert (fn(bundle, pairs, stream(seed=9)).total.item()
                == fn(bundle, pairs, stream(seed=9)).total.item())


# -- recall training step -----------------------------------------------------------

def test_train_step_recall_updates_all_groups():
    bundle = tiny_bundle()
    pairs = tiny_pairs()
    before = {g: [p.data.copy() for p in bundle.params(g)]
              for g in (D_GROUP, ENC_GROUP, GEN_GROUP)}
    report = train_step_recall(bundle, pairs, stream(seed=1))
    for group, olds in before.items():
        changed = any(not np.array_equal(old, new.data)
                      for old, new in zip(olds, bundle.params(group)))
        assert changed, group
    assert set(report) == {"d_image", "d_video", "rencg"}
    assert "fake2" in report["d_video"]      # merged objective when mgv


def test_train_step_recall_plain_video_loss_without_mgv():
    bundle = tiny_bundle(mgv=False)
    report = train_step_recall(bundle, tiny_pairs(), stream(seed=1))
    assert "fake2" not in report["d_video"]


def test_train_step_recall_zero_lr_keeps_params():
    bundle = tiny_bundle(lr=0.0)
    before = [p.data.copy() for p in bundle.params(D_GROUP + ENC_GROUP + GEN_GROUP)]
    report = train_step_recall(bundle, tiny_pairs(), stream(seed=1))
    after = bundle.params(D_GROUP + ENC_GROUP + GEN_GROUP)
    assert all(np.array_equal(b, a.data) for b, a in zip(before, after))
    assert np.isfinite(report["rencg"]["total"])


def test_train_step_recall_deterministic():
    pairs = tiny_pairs()
    outs = []
    for _ in range(2):
        bundle = tiny_bundle()
        train_step_recall(bundle, pairs, stream(seed=4))
        outs.append([p.data.copy() for p in bundle.params(GEN_GROUP)])
    assert all(np.array_equal(a, b) for a, b in zip(*outs))


# -- fixed-memory chained generation --------------------------------------------------

def chain_frames(bundle, n_clips, **kwargs):
    """A chain's result and its (L, H, W, C) frames, gathered from the
    blocks its sink receives (read-only views of `Tensor` data)."""
    blocks = []
    result = chain_generate(bundle, n_clips, sink=blocks.append, **kwargs)
    assert all(not block.flags.writeable for block in blocks)
    return result, np.concatenate(blocks)


def test_chain_single_clip():
    bundle = tiny_bundle()
    result, frames = chain_frames(bundle, 1)
    assert result.frames_emitted == TINY.t_c
    assert frames.shape == (TINY.t_c,) + TINY.frame_shape
    assert result.mismatches == []


def test_chain_length_formula():
    bundle = tiny_bundle()
    result, frames = chain_frames(bundle, 5)
    assert result.frames_emitted == 4 * TINY.r + TINY.t_c   # 12
    assert len(frames) == 12
    assert len(result.mismatches) == 4
    assert all(m >= 0.0 for m in result.mismatches)


def test_chain_default_geometry_19_clips():
    cfg = RunConfig(seed=1)          # 16-frame clips, stride 8
    bundle = ModelBundle.init(cfg)
    result, frames = chain_frames(bundle, 19)
    assert frames.shape == (160, 16, 16, 1)
    assert result.frames_emitted == 160


def test_chain_output_is_clamped():
    bundle = tiny_bundle()
    frames = chain_frames(bundle, 6)[1]
    assert frames.min() >= -1.0
    assert frames.max() <= 1.0


def test_chain_sampled_deterministic_per_seed():
    bundle = tiny_bundle()
    a, b, c = (chain_frames(bundle, 4, stream=stream("chain", seed=seed))[1]
               for seed in (1, 1, 2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_chain_mean_mode_ignores_stream():
    bundle = tiny_bundle()
    a = chain_frames(bundle, 4, mode="mean", stream=stream("s", seed=1))[1]
    b = chain_frames(bundle, 4, mode="mean", stream=stream("t", seed=99))[1]
    assert np.array_equal(a, b)


def test_chain_seeded_mode_deterministic():
    bundle = tiny_bundle()
    a = chain_frames(bundle, 4, mode="seeded", stream=stream("s", seed=1))[1]
    b = chain_frames(bundle, 4, mode="seeded", stream=stream("s", seed=1))[1]
    assert np.array_equal(a, b)


def test_chain_modes_differ():
    bundle = tiny_bundle()
    frames = {mode: chain_frames(bundle, 4, mode=mode,
                                 stream=stream("s", seed=1))[1]
              for mode in ("sampled", "mean", "seeded")}
    assert not np.array_equal(frames["sampled"], frames["mean"])
    assert not np.array_equal(frames["sampled"], frames["seeded"])


def test_chain_without_sink_drops_frames():
    """A chain without a sink runs the same chain and reports the same
    result; the frames it would have emitted are dropped.  With a sink, the
    blocks hold exactly `frames_emitted` rows."""
    bundle = tiny_bundle()
    for mode in ("sampled", "mean"):
        dropped = chain_generate(bundle, 5, mode=mode, stream=stream("c", seed=2))
        blocks = []
        streamed = chain_generate(bundle, 5, mode=mode,
                                  stream=stream("c", seed=2), sink=blocks.append)
        assert ((dropped.mismatches, dropped.peak_frames, dropped.frames_emitted)
                == (streamed.mismatches, streamed.peak_frames, streamed.frames_emitted))
        assert sum(len(block) for block in blocks) == streamed.frames_emitted
        assert [len(block) for block in blocks] == [TINY.r] * 4 + [TINY.t_c]


def test_chain_peak_frames_below_two_clips():
    """A longer chain holds the clip and the tail it continues (2·t_c - r),
    or in `mean` mode the clip and its difference maps at the motion
    encoder (2·t_c - 1): `peak_frames` says so, and it bounds the frames
    the chain really holds, as `held_frames` counts them from its frame."""
    for cfg in (TINY, RunConfig(seed=1)):        # 4- and 16-frame clips
        bundle = ModelBundle.init(cfg)
        for mode in ("sampled", "mean", "seeded"):
            result, held = held_frames(chain_generate, bundle, 8, mode=mode)
            peak = 2 * cfg.t_c - (1 if mode == "mean" else cfg.r)
            assert held <= result.peak_frames == peak, (cfg.t_c, mode, held)


def test_one_clip_chain_peaks_at_one_clip():
    """A chain of one clip holds only that clip: nothing is carried to a
    next clip, so no mode forms a tail or a motion posterior."""
    for cfg in (TINY, RunConfig(seed=1)):
        bundle = ModelBundle.init(cfg)
        for mode in ("sampled", "mean", "seeded"):
            result, held = held_frames(chain_generate, bundle, 1, mode=mode)
            assert held <= result.peak_frames == cfg.t_c, (cfg.t_c, mode, held)


def test_chain_stride_override():
    bundle = tiny_bundle()
    result, frames = chain_frames(bundle, 5, r=1)
    assert result.frames_emitted == len(frames) == 4 * 1 + TINY.t_c


@pytest.mark.parametrize("r", [None, 1, 3])
@pytest.mark.parametrize("mode", ["sampled", "mean", "seeded"])
def test_chain_is_a_markov_chain(mode, r):
    """A clip depends only on the clips before it: a chain of n clips
    emits, byte for byte, the first n * r frames of a chain of n + k, and
    its seams are the first n - 1 of the longer chain's.  (The last clip's
    remaining t_c - r frames are its overlap tail, which the longer chain
    replaces with the next clip's head.)"""
    bundle = tiny_bundle()
    stride = TINY.r if r is None else r
    n, k = 3, 4
    (short, short_frames), (long, long_frames) = (
        chain_frames(bundle, clips, mode=mode, r=r, stream=stream("chain", seed=4))
        for clips in (n, n + k))
    assert long_frames[:n * stride].tobytes() == \
        short_frames[:n * stride].tobytes()
    assert len(short_frames) == (n - 1) * stride + TINY.t_c
    assert short.mismatches == long.mismatches[:n - 1]
    assert len(long.mismatches) == n + k - 1


def test_chain_rejects_bad_arguments():
    bundle = tiny_bundle()
    with pytest.raises(ValueError, match="n_clips"):
        chain_generate(bundle, 0)
    with pytest.raises(ValueError, match="mode"):
        chain_generate(bundle, 2, mode="typo")
    with pytest.raises(ValueError, match="t_c"):
        chain_generate(bundle, 2, r=TINY.t_c)
    with pytest.raises(ValueError, match="t_c"):
        chain_generate(bundle, 2, r=0)


def test_chain_overlap_mismatch_scalar():
    bundle = tiny_bundle()
    value = chain_overlap_mismatch(bundle, 6)
    assert isinstance(value, float)
    assert value >= 0.0
    # untrained network: consecutive clips disagree on their shared frames
    assert value > 0.0
