"""Training drivers: batch schedule, step ordering, determinism."""

import numpy as np
import pytest

from vidchain import training
from vidchain.chain import ClipPair
from vidchain.losses import loss_gen
from vidchain.model import D_GROUP, ENC_GROUP, GEN_GROUP, ModelBundle
from vidchain.rng import RandomStream
from vidchain.training import (
    build_pairs, sample_batch, train_loop, train_loop_recall, train_step,
    train_step_recall,
)

from test_losses import TINY, random_clips, stream, tiny_bundle


def tiny_videos(n=3, length=24, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, (length,) + TINY.frame_shape) for _ in range(n)]


# -- single step ----------------------------------------------------------------

def test_train_step_updates_every_group():
    bundle = tiny_bundle()
    clips = random_clips()
    before = {g: [p.data.copy() for p in bundle.params(g)]
              for g in (D_GROUP, ENC_GROUP, GEN_GROUP)}
    report = train_step(bundle, clips, stream(seed=1))
    for group, olds in before.items():
        assert any(not np.array_equal(o, n.data)
                   for o, n in zip(olds, bundle.params(group))), group
    assert set(report) == {"d_image", "d_video", "enc", "gen"}


def test_train_step_zero_lr_reports_without_moving():
    bundle = tiny_bundle(lr=0.0)
    everything = D_GROUP + ENC_GROUP + GEN_GROUP
    before = [p.data.copy() for p in bundle.params(everything)]
    report = train_step(bundle, random_clips(), stream(seed=1))
    after = bundle.params(everything)
    assert all(np.array_equal(b, a.data) for b, a in zip(before, after))
    for section in report.values():
        assert np.isfinite(section["total"])


def test_train_step_deterministic():
    clips = random_clips()
    results = []
    for _ in range(2):
        bundle = tiny_bundle()
        train_step(bundle, clips, stream(seed=6))
        results.append([p.data.copy()
                        for p in bundle.params(D_GROUP + ENC_GROUP + GEN_GROUP)])
    assert all(np.array_equal(a, b) for a, b in zip(*results))


def test_tape_records_per_step(monkeypatch):
    """The graph size the benchmark reports as autodiff.tape_records: the
    records on the tapes of one clip step and one recall step, summed over
    their updates.  A change that shrinks the graph lowers these pins."""
    backward = training.backward
    counts = []

    def counting_backward(loss, params):
        counts.append(len(loss._tape.records))
        return backward(loss, params)

    monkeypatch.setattr(training, "backward", counting_backward)
    train_step(tiny_bundle(), random_clips(), stream(seed=1))
    clip_records, counts[:] = sum(counts), []
    pairs, _ = build_pairs(tiny_videos(), TINY)
    train_step_recall(tiny_bundle(), pairs[:TINY.batch], stream(seed=1))
    assert (clip_records, sum(counts)) == (248, 230)


def test_generator_loss_sees_updated_discriminators():
    # the reported generator loss must come from post-discriminator-update
    # parameters, not the ones the step started with
    clips = random_clips()
    bundle = tiny_bundle()
    s = stream(seed=3)
    stale = loss_gen(bundle, clips, s.split("gen")).total.item()
    report = train_step(bundle, clips, stream(seed=3))
    assert report["gen"]["total"] != stale


def test_train_step_diff_variant_changes_encoder_update():
    clips = random_clips()
    results = {}
    for variant in ("frame", "diff"):
        bundle = tiny_bundle(loss_variant=variant)
        train_step(bundle, clips, stream(seed=2))
        results[variant] = [p.data.copy() for p in bundle.params(ENC_GROUP)]
    assert any(not np.array_equal(a, b)
               for a, b in zip(results["frame"], results["diff"]))


# -- batch schedule -----------------------------------------------------------------

def test_sample_batch_shape():
    videos = tiny_videos()
    cfg = TINY
    batch = sample_batch(videos, cfg, 0, stream(seed=5))
    assert batch.shape == (cfg.batch, cfg.t_c) + cfg.frame_shape


def test_sample_batch_uniform_then_step_phases():
    # marker video: frame f is constant f, so sampled indices are readable
    length = 48
    video = np.full((length,) + TINY.frame_shape, 0.0)
    video += np.arange(length, dtype=float).reshape(-1, 1, 1, 1)
    cfg = TINY.replace(steps=10, uniform_fraction=0.5, batch=4)
    bin_size = length // cfg.t_c

    early = sample_batch([video], cfg, 0, stream(seed=8))
    for clip in early[:, :, 0, 0, 0]:
        idx = clip.astype(int)
        # one frame per bin, in order
        assert all(b * bin_size <= i < (b + 1) * bin_size
                   for b, i in enumerate(idx))

    late = sample_batch([video], cfg, 5, stream(seed=8))
    for clip in late[:, :, 0, 0, 0]:
        idx = clip.astype(int)
        assert set(np.diff(idx)) == {cfg.sample_step}


def test_sample_batch_phase_boundary_uses_rounding():
    video = np.zeros((48,) + TINY.frame_shape)
    video += np.arange(48, dtype=float).reshape(-1, 1, 1, 1)
    cfg = TINY.replace(steps=10, uniform_fraction=0.25, batch=2)
    # int(round(0.25 * 10)) == 2: steps 0,1 uniform, step 2 stepped
    stepped = sample_batch([video], cfg, 2, stream(seed=1))
    for clip in stepped[:, :, 0, 0, 0]:
        assert set(np.diff(clip.astype(int))) == {cfg.sample_step}


def test_sample_batch_rejects_too_short_video():
    cfg = TINY.replace(steps=10, uniform_fraction=0.0)
    short = [np.zeros((TINY.t_c,) + TINY.frame_shape)]  # fine at stride 1 only
    with pytest.raises(ValueError, match="too short"):
        sample_batch(short, cfg.replace(sample_step=3), 0, stream())


def test_sample_batch_deterministic():
    videos = tiny_videos()
    a = sample_batch(videos, TINY, 0, stream(seed=2))
    b = sample_batch(videos, TINY, 0, stream(seed=2))
    c = sample_batch(videos, TINY, 0, stream(seed=3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- loops ------------------------------------------------------------------------

@pytest.mark.parametrize("phase", ["clip", "recall"])
def test_train_loop_runs_and_reports(phase):
    bundle = tiny_bundle(steps=3)
    videos = tiny_videos()
    if phase == "clip":
        loop, data, last = train_loop, videos, "gen"
    else:
        loop, data, last = train_loop_recall, build_pairs(videos, TINY)[0], "rencg"
    seen = []
    reports = loop(bundle, data, progress=lambda s, r: seen.append((s, r)))
    assert len(reports) == 3
    # the callback sees each step's index and report, in order
    assert seen == list(enumerate(reports))
    assert all(np.isfinite(r[last]["total"]) for r in reports)


def test_train_loop_bit_reproducible():
    videos = tiny_videos()
    params = []
    for _ in range(2):
        bundle = tiny_bundle(steps=3)
        train_loop(bundle, videos)
        params.append([p.data.copy()
                       for p in bundle.params(D_GROUP + ENC_GROUP + GEN_GROUP)])
    assert all(np.array_equal(a, b) for a, b in zip(*params))


def test_build_pairs_stride_follows_overlap_flag():
    videos = [np.zeros((TINY.t_c * 2,) + TINY.frame_shape)]
    overlapping, _ = build_pairs(videos, TINY)
    disjoint, _ = build_pairs(videos, TINY.replace(ovi=False))
    assert all(p.stride == TINY.r for p in overlapping)
    assert all(p.stride == TINY.t_c for p in disjoint)
    assert len(overlapping) > len(disjoint)


def test_train_loop_recall_runs_and_reproduces():
    videos = tiny_videos()
    pairs, _ = build_pairs(videos, TINY)
    params = []
    for _ in range(2):
        bundle = tiny_bundle(steps=2)
        reports = train_loop_recall(bundle, pairs)
        assert len(reports) == 2
        params.append([p.data.copy() for p in bundle.params(GEN_GROUP)])
    assert all(np.array_equal(a, b) for a, b in zip(*params))


def test_train_loop_recall_rejects_empty_pairs():
    bundle = tiny_bundle(steps=1)
    with pytest.raises(ValueError, match="pairs"):
        train_loop_recall(bundle, [])
