"""Objective functions: hand-computed values, pinned-discriminator closed
forms, and finite-difference gradient spot checks."""

import numpy as np
import pytest

import vidchain.autodiff as ad
from vidchain.autodiff import GradTape, Tensor, backward
from vidchain.chain import (
    loss_d_image_r, loss_rencg, make_training_pairs, pairs_to_clips,
)
from vidchain.config import RunConfig
from vidchain.gaussian import GaussianParams, gaussian_kl
from vidchain.losses import (
    diff_recon, frame_recon, gather_frames, loss_d_image, loss_d_video,
    loss_enc, loss_enc_v, loss_gen, ref_frame_recon,
)
from vidchain.model import D_GROUP, ENC_GROUP, GEN_GROUP, ModelBundle, clips_to_tensor
from vidchain.rng import RandomStream

from oracle_utils import rel_err

LN2 = np.log(2.0)
TINY = RunConfig(t_c=4, r=2, height=4, width=4, channels=1,
                 z_content=8, z_motion=4, hidden=16, batch=2, seed=5)


def tiny_bundle(seed=5, **changes):
    return ModelBundle.init(TINY.replace(seed=seed, **changes))


def random_clips(b=2, cfg=TINY, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (b, cfg.t_c) + cfg.frame_shape)


def zero_discriminators(bundle):
    """Pin both discriminators to output exactly 0.5 (all-zero parameters
    give zero logits)."""
    zeroed = [Tensor(np.zeros(p.shape), requires_grad=True)
              for p in bundle.params(D_GROUP)]
    bundle.set_params(D_GROUP, zeroed)
    return bundle


def stream(name="loss", seed=7):
    return RandomStream.from_seed(seed, name)


# -- reconstruction objectives: hand values --------------------------------------

def test_frame_recon_hand_value():
    # 1-pixel 2-frame clip [0,0] reconstructed as [0.1,0.1]:
    # first-frame term 0.01 + per-frame average (0.01+0.01)/2 = 0.02
    x = Tensor(np.zeros((1, 2, 1)))
    x_hat = Tensor(np.full((1, 2, 1), 0.1))
    assert abs(frame_recon(x, x_hat).item() - 0.02) < 1e-15


def test_frame_recon_perfect_is_zero():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4, 5)))
    assert frame_recon(x, x).item() == 0.0


def test_frame_recon_counts_first_frame_twice():
    x = Tensor(np.zeros((1, 4, 1)))
    only_first = np.zeros((1, 4, 1)); only_first[0, 0, 0] = 0.1
    only_last = np.zeros((1, 4, 1)); only_last[0, 3, 0] = 0.1
    first_loss = frame_recon(x, Tensor(only_first)).item()
    last_loss = frame_recon(x, Tensor(only_last)).item()
    assert abs(first_loss - (0.01 + 0.01 / 4)) < 1e-15
    assert abs(last_loss - 0.01 / 4) < 1e-15


def test_diff_recon_hand_value():
    # motion [0.5] vs [0.3] on a 1-pixel 2-frame clip: difference term 0.04
    x = Tensor(np.array([0.0, 0.5]).reshape(1, 2, 1))
    x_hat = Tensor(np.array([0.0, 0.3]).reshape(1, 2, 1))
    assert abs(diff_recon(x, x_hat).item() - 0.04) < 1e-15


def test_diff_recon_vs_frame_recon_on_constant_content_error():
    # motion exact, content off by delta: the diff variant pays once,
    # the frame variant pays per frame (plus the double-counted first frame)
    delta = 0.2
    rng = np.random.default_rng(1)
    x = np.cumsum(rng.standard_normal((1, 6, 3)), axis=1)
    x_hat = x + delta
    d = diff_recon(Tensor(x), Tensor(x_hat)).item()
    f = frame_recon(Tensor(x), Tensor(x_hat)).item()
    per_frame = 3 * delta ** 2          # 3 pixels, squared error each
    assert abs(d - per_frame) < 1e-12               # first-frame term only
    assert abs(f - 2 * per_frame) < 1e-12           # first frame + average


def test_ref_frame_recon_entry():
    t = 8
    x = np.zeros((1, t, 1))
    x_hat = np.zeros((1, t, 1))
    x_hat[0, t // 2 - 1, 0] = 0.1       # reference frame wrong by 0.1
    ref_term = ref_frame_recon(Tensor(x), Tensor(x_hat), t // 2).item()
    assert abs(ref_term - 0.01) < 1e-15


def test_kl_shift_by_half():
    # objective with mu = 1 in one dim exceeds mu = 0 by exactly 0.5
    q0 = GaussianParams(Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1))))
    q1 = GaussianParams(Tensor(np.ones((1, 1))), Tensor(np.zeros((1, 1))))
    assert abs((gaussian_kl(q1).item() - gaussian_kl(q0).item()) - 0.5) < 1e-15


def test_gather_frames_selects_per_clip():
    clips = Tensor(np.arange(24, dtype=float).reshape(2, 4, 3))
    out = gather_frames(clips, [1, 3])
    assert np.array_equal(out.data, [[3, 4, 5], [21, 22, 23]])


@pytest.mark.parametrize("loss_fn, critic", [
    (loss_d_image, True), (loss_gen, False), (loss_d_image_r, True),
    (loss_rencg, False)])
def test_image_terms_share_one_frame_index(monkeypatch, loss_fn, critic):
    """Every image-discriminator input of one loss evaluation is gathered at
    one frame index per clip, drawn from the loss stream's ``frame_idx``
    child: from the real clips (discriminator losses only), then from each
    clip batch the generator composed, in order."""
    recall = loss_fn in (loss_d_image_r, loss_rencg)
    if recall:
        rng = np.random.default_rng(3)
        videos = [rng.uniform(-1, 1, (12,) + TINY.frame_shape) for _ in range(2)]
        batch = make_training_pairs(videos, TINY.t_c, TINY.r)[0]
        real = clips_to_tensor(pairs_to_clips(batch))
    else:
        batch = random_clips(b=6)
        real = clips_to_tensor(batch)
    bundle = tiny_bundle()
    compose, d_image_prob = bundle.compose, bundle.d_image_prob
    composed, scored = [], []

    def recording_compose(*args, **kwargs):
        raw, clip = compose(*args, **kwargs)
        composed.append(clip)
        return raw, clip

    def recording_prob(frames):
        scored.append(frames.data)
        return d_image_prob(frames)

    monkeypatch.setattr(bundle, "compose", recording_compose)
    monkeypatch.setattr(bundle, "d_image_prob", recording_prob)
    loss_fn(bundle, batch, stream())

    idx = stream().split("frame_idx").integers(0, real.shape[1], (real.shape[0],))
    assert len(set(idx.tolist())) > 1          # one index for all would hide a mix-up
    clips = ([real] if critic else []) + composed
    assert len(scored) == len(clips) > 0
    for frames, clip in zip(scored, clips):
        assert np.array_equal(frames, gather_frames(clip, idx).data)


# -- pinned-discriminator closed forms ----------------------------------------------

def test_loss_d_image_three_terms_at_half():
    bundle = zero_discriminators(tiny_bundle())
    out = loss_d_image(bundle, random_clips(), stream())
    assert abs(out.total.item() - 3 * LN2) < 1e-12


def test_loss_d_video_three_terms_at_half():
    bundle = zero_discriminators(tiny_bundle())
    out = loss_d_video(bundle, random_clips(), stream())
    assert abs(out.total.item() - 3 * LN2) < 1e-12


def test_loss_gen_adversarial_part_at_half():
    bundle = zero_discriminators(tiny_bundle())
    out = loss_gen(bundle, random_clips(), stream())
    assert abs(out.parts["adv"] - 4 * LN2) < 1e-12
    assert abs(out.total.item() - (out.parts["recon"] + 4 * LN2)) < 1e-12


def test_perfect_discriminator_drives_loss_toward_zero():
    # logits pinned at +15 for everything: real term tiny, fake terms huge;
    # check the real term alone via a discriminator that loves everything
    bundle = tiny_bundle()
    big = []
    for p in bundle.params(D_GROUP):
        arr = np.zeros(p.shape)
        big.append(Tensor(arr, requires_grad=True))
    bundle.set_params(D_GROUP, big)
    # bias of the output layer -> +15 saturation
    for name in ("d_image", "d_video"):
        params = bundle.components[name]
        params[-1] = Tensor(np.full(params[-1].shape, 100.0), requires_grad=True)
    out = loss_d_image(bundle, random_clips(), stream())
    # real term: -log sigmoid(15) ~ 3e-7; fake terms: -log(1-sigmoid(15)) ~ 15
    assert out.parts["real"] < 1e-6
    assert out.parts["fake"] > 20.0
    assert np.isfinite(out.total.item())


# -- determinism and batch contracts ---------------------------------------------

@pytest.mark.parametrize("loss_fn", [loss_enc, loss_enc_v, loss_gen,
                                     loss_d_image, loss_d_video])
def test_losses_deterministic_per_stream(loss_fn):
    bundle = tiny_bundle()
    clips = random_clips()
    a = loss_fn(bundle, clips, stream(seed=3)).total.item()
    b = loss_fn(bundle, clips, stream(seed=3)).total.item()
    c = loss_fn(bundle, clips, stream(seed=4)).total.item()
    assert a == b
    assert a != c   # sampled eps / prior draws / frame choice moved


@pytest.mark.parametrize("loss_fn", [loss_enc, loss_enc_v, loss_gen,
                                     loss_d_image, loss_d_video])
def test_losses_reject_empty_batch(loss_fn):
    bundle = tiny_bundle()
    empty = np.zeros((0, TINY.t_c) + TINY.frame_shape)
    with pytest.raises(ValueError, match="empty"):
        loss_fn(bundle, empty, stream())


def test_loss_enc_parts_sum_to_total():
    bundle = tiny_bundle()
    out = loss_enc(bundle, random_clips(), stream())
    assert abs(out.parts["recon"] + out.parts["kl_x"] + out.parts["kl_v"]
               - out.parts["total"]) < 1e-12
    assert out.parts["total"] == out.total.item()


def test_losses_nonnegative():
    bundle = tiny_bundle()
    clips = random_clips()
    for fn in (loss_enc, loss_enc_v, loss_gen, loss_d_image, loss_d_video):
        assert fn(bundle, clips, stream()).total.item() >= 0.0


# -- finite-difference gradient spot checks ------------------------------------------

def directional_fd(bundle, group, make_loss, h=1e-5, seed=11):
    """Relative error between backward() and a central finite difference
    along one random direction through the whole parameter group."""
    params = bundle.params(group)
    with GradTape():
        out = make_loss()
        grads = backward(out.total, params)
    rng = np.random.default_rng(seed)
    direction = [rng.standard_normal(p.shape) for p in params]
    norm = np.sqrt(sum(np.sum(d * d) for d in direction))
    direction = [d / norm for d in direction]
    analytic = sum(np.sum(g * d) for g, d in zip(grads, direction))

    originals = list(params)

    def value_at(eps):
        bundle.set_params(group, [Tensor(p.data + eps * d, requires_grad=True)
                                  for p, d in zip(originals, direction)])
        v = make_loss().total.item()
        bundle.set_params(group, originals)
        return v

    numeric = (value_at(h) - value_at(-h)) / (2 * h)
    return rel_err(np.array(analytic), np.array(numeric))


def test_fd_loss_enc_wrt_encoders():
    bundle = tiny_bundle()
    clips = random_clips()
    err = directional_fd(bundle, ENC_GROUP,
                         lambda: loss_enc(bundle, clips, stream(seed=2)))
    assert err < 1e-4, err


def test_fd_loss_enc_wrt_generator():
    bundle = tiny_bundle()
    clips = random_clips()
    err = directional_fd(bundle, GEN_GROUP,
                         lambda: loss_enc(bundle, clips, stream(seed=2)))
    assert err < 1e-4, err


def test_fd_loss_gen_wrt_generator():
    bundle = tiny_bundle()
    clips = random_clips()
    err = directional_fd(bundle, GEN_GROUP,
                         lambda: loss_gen(bundle, clips, stream(seed=2)))
    assert err < 1e-4, err


def test_fd_loss_d_video_wrt_discriminators():
    bundle = tiny_bundle()
    clips = random_clips()
    err = directional_fd(bundle, D_GROUP,
                         lambda: loss_d_video(bundle, clips, stream(seed=2)))
    assert err < 1e-4, err


def test_fd_loss_enc_v_wrt_encoders():
    bundle = tiny_bundle()
    clips = random_clips()
    err = directional_fd(bundle, ENC_GROUP,
                         lambda: loss_enc_v(bundle, clips, stream(seed=2)))
    assert err < 1e-4, err
