"""Synthetic dataset generators and frame-sampling strategies."""

import numpy as np
import pytest

from vidchain.config import ConfigError
from vidchain.container import load_dataset, read_manifest
from vidchain.datasets import (
    SHAPE_CLASSES, gen_drift_dataset, gen_shapes_dataset,
    make_drift_video, make_shapes_video, step_sample, uniform_sample,
)
from vidchain.rng import RandomStream
from vidchain.video import decompose


def stream(name="s", seed=0):
    return RandomStream.from_seed(seed, name)


# -- shapes videos -----------------------------------------------------------

def test_shapes_video_shape_dtype_range():
    v = make_shapes_video(48, 0, stream())
    assert v.shape == (48, 16, 16, 1)
    assert v.dtype == np.float32
    assert set(np.unique(v)) == {-1.0, 1.0}


def test_shapes_square_present_every_frame():
    v = make_shapes_video(48, 2, stream())
    bright = (v > 0).reshape(48, -1).sum(axis=1)
    assert np.all(bright == 16)  # 4x4 square, never clipped by the border


def test_shapes_every_step_moves_exactly_one_pixel():
    # an axis-aligned 1-px move changes exactly two 4-px edges: 32 pixels of
    # the two frames differ in no more than 2*4 positions per step
    for label in range(4):
        v = make_shapes_video(48, label, stream(f"l{label}"))
        _, motion = decompose(v.astype(np.float64))
        nonzero = (motion != 0).reshape(len(motion), -1).sum(axis=1)
        assert np.all(nonzero == 8), f"class {label}"
        assert set(np.unique(motion)) <= {-2.0, 0.0, 2.0}


def test_shapes_class_motion_direction():
    # first step is in the labeled direction: +x, -x, +y, -y
    for label, (axis, direction) in enumerate(SHAPE_CLASSES):
        v = make_shapes_video(8, label, stream(f"d{label}")).astype(np.float64)
        com0 = _center_of_mass(v[0, ..., 0])
        com1 = _center_of_mass(v[1, ..., 0])
        delta = np.array(com1) - np.array(com0)
        assert delta[axis] == pytest.approx(direction), (label, delta)
        assert delta[1 - axis] == pytest.approx(0.0)


def _center_of_mass(frame):
    ys, xs = np.nonzero(frame > 0)
    return ys.mean(), xs.mean()


def test_shapes_phase_locked_start_position():
    # each class starts at its canonical border, so the very first clip
    # identifies the class even though every 16-frame window bounces
    for label, (axis, direction) in enumerate(SHAPE_CLASSES):
        v = make_shapes_video(4, label, stream(f"p{label}"))
        ys, xs = np.nonzero(v[0, ..., 0] > 0)
        moving = xs if axis == 1 else ys
        assert moving.min() == (0 if direction > 0 else 12)


def test_shapes_bounce_keeps_square_in_bounds():
    v = make_shapes_video(200, 1, stream("long"))
    assert np.all((v == 1.0).reshape(200, -1).sum(axis=1) == 16)


def test_shapes_determinism_and_stream_sensitivity():
    a = make_shapes_video(16, 0, stream("x"))
    b = make_shapes_video(16, 0, stream("x"))
    c = make_shapes_video(16, 0, stream("y"))
    assert np.array_equal(a, b)
    # perpendicular start coordinate is the only randomness; different streams
    # usually differ, but equality is possible — just check determinism above
    assert c.shape == a.shape


def _bouncing_square_loop(length, label, stream, height, width, square):
    """The frame-by-frame bounce `make_shapes_video` computes in one pass."""
    axis, direction = SHAPE_CLASSES[label % 4]
    limit = (width if axis == 1 else height) - square
    perp_limit = (height if axis == 1 else width) - square
    pos, vel = (0 if direction > 0 else limit), direction
    perp = int(stream.integers(0, perp_limit + 1, ()))
    video = np.full((length, height, width, 1), -1.0, dtype=np.float32)
    for t in range(length):
        y, x = (perp, pos) if axis == 1 else (pos, perp)
        video[t, y:y + square, x:x + square, 0] = 1.0
        if not 0 <= pos + vel <= limit:
            vel = -vel
        pos += vel
    return video


@pytest.mark.parametrize("height,width,square",
                         [(16, 16, 4), (5, 9, 4), (12, 7, 3), (20, 20, 1)])
def test_shapes_video_matches_bounce_loop(height, width, square):
    for label in range(8):
        for length in (2, 3, 17, 48, 101):
            dims = (height, width, square)
            loop = _bouncing_square_loop(length, label, stream(f"b{label}"), *dims)
            video = make_shapes_video(length, label, stream(f"b{label}"), *dims)
            assert video.dtype == loop.dtype and np.array_equal(video, loop)


def test_shapes_invalid_dims():
    with pytest.raises(ConfigError, match="dims"):
        make_shapes_video(1, 0, stream())
    with pytest.raises(ConfigError, match="dims"):
        make_shapes_video(16, 0, stream(), height=4, width=4, square=4)


# -- drift videos -------------------------------------------------------------

def test_drift_video_shape_range():
    v = make_drift_video(48, stream())
    assert v.shape == (48, 16, 16, 1)
    assert v.dtype == np.float32
    assert np.abs(v).max() <= 0.9 + 1e-6


def test_drift_temporal_smoothness_bound():
    # |sin(x - w) - sin(x)| <= w, so per-pixel |diff| <= amplitude * w
    # with the loosest parameters amplitude=0.9, speed=1.5, period=8
    bound = 0.9 * 2.0 * np.pi * 1.5 / 8.0
    for i in range(5):
        v = make_drift_video(48, stream(f"d{i}")).astype(np.float64)
        _, motion = decompose(v)
        assert np.abs(motion).max() <= bound
        assert np.abs(motion).mean() <= bound


def test_drift_adjacent_frames_never_identical():
    for i in range(5):
        v = make_drift_video(48, stream(f"n{i}"))
        _, motion = decompose(v.astype(np.float64))
        assert np.all(np.abs(motion).reshape(len(motion), -1).max(axis=1) > 0)


def test_drift_determinism():
    assert np.array_equal(make_drift_video(16, stream("q")),
                          make_drift_video(16, stream("q")))


# -- dataset writers -----------------------------------------------------------

def test_gen_shapes_dataset_roundtrip(tmp_path):
    manifest = gen_shapes_dataset(tmp_path / "ds", count=8, length=24, seed=3)
    videos, labels = load_dataset(manifest)
    assert len(videos) == 8
    assert all(v.shape == (24, 16, 16, 1) for v in videos)
    assert labels.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]


def test_gen_shapes_dataset_class_balance():
    labels = [i % 4 for i in range(100)]
    assert all(labels.count(k) == 25 for k in range(4))


def test_gen_shapes_dataset_bit_identical_across_runs(tmp_path):
    m1 = gen_shapes_dataset(tmp_path / "a", count=6, length=20, seed=7)
    m2 = gen_shapes_dataset(tmp_path / "b", count=6, length=20, seed=7)
    v1, _ = load_dataset(m1)
    v2, _ = load_dataset(m2)
    for a, b in zip(v1, v2):
        assert np.array_equal(a, b)
    recs = read_manifest(m1)
    assert [r.path for r in recs] == [f"video_{i:05d}.rcg" for i in range(6)]


def test_gen_shapes_dataset_seed_changes_content(tmp_path):
    v1, _ = load_dataset(gen_shapes_dataset(tmp_path / "a", 8, 20, seed=1))
    v2, _ = load_dataset(gen_shapes_dataset(tmp_path / "b", 8, 20, seed=2))
    assert any(not np.array_equal(a, b) for a, b in zip(v1, v2))


def test_gen_drift_dataset(tmp_path):
    manifest = gen_drift_dataset(tmp_path / "ds", count=5, length=32, seed=11)
    videos, labels = load_dataset(manifest)
    assert len(videos) == 5
    assert labels.tolist() == [-1] * 5
    # videos differ from one another (per-video derived streams)
    assert not np.array_equal(videos[0], videos[1])


def test_gen_dataset_rejects_bad_count(tmp_path):
    with pytest.raises(ConfigError, match="count"):
        gen_shapes_dataset(tmp_path / "x", count=0, length=16, seed=0)


# -- step sampling --------------------------------------------------------------

def test_step_sample_stride_one_is_contiguous():
    video = np.arange(48)[:, None, None, None].astype(np.float64)
    clip = step_sample(video, start=5, step=1, count=16)
    assert clip[:, 0, 0, 0].tolist() == list(range(5, 21))


def test_step_sample_l48_step3():
    video = np.arange(48)[:, None, None, None].astype(np.float64)
    clip = step_sample(video, start=0, step=3, count=16)
    assert clip[:, 0, 0, 0].tolist() == list(range(0, 46, 3))


def test_step_sample_out_of_range_no_partial():
    video = np.zeros((48, 2, 2, 1))
    with pytest.raises(ValueError, match="out of range"):
        step_sample(video, start=3, step=3, count=16)  # needs frame 48
    step_sample(video, start=2, step=3, count=16)      # frame 47 is fine


def test_step_sample_returns_copy():
    video = np.zeros((20, 1, 1, 1))
    clip = step_sample(video, 0, 1, 16)
    clip += 1.0
    assert video.sum() == 0.0


# -- uniform sampling -------------------------------------------------------------

def test_uniform_sample_identity_when_length_equals_bins():
    video = np.arange(16)[:, None, None, None].astype(np.float64)
    clip = uniform_sample(video, stream())
    assert clip[:, 0, 0, 0].tolist() == list(range(16))


def test_uniform_sample_one_per_bin_strictly_increasing():
    video = np.arange(160)[:, None, None, None].astype(np.float64)
    for i in range(10):
        idx = uniform_sample(video, stream(f"u{i}"))[:, 0, 0, 0].astype(int)
        assert len(idx) == 16
        assert np.all(np.diff(idx) > 0)
        for b, frame in enumerate(idx):
            assert b * 10 <= frame < (b + 1) * 10


def test_uniform_sample_remainder_goes_to_last_bin():
    video = np.arange(37)[:, None, None, None].astype(np.float64)  # bins of 2, last 7
    for i in range(20):
        idx = uniform_sample(video, stream(f"r{i}"))[:, 0, 0, 0].astype(int)
        for b in range(15):
            assert 2 * b <= idx[b] < 2 * (b + 1)
        assert 30 <= idx[15] < 37


def test_uniform_sample_matches_one_draw_per_bin():
    """One vector draw gives the frames that a scalar draw per bin, in bin
    order, gives from the same stream."""
    for length in (16, 17, 37, 160, 4097, 70000):
        video = np.arange(length)
        for seed in range(5):
            s = stream("per-bin", seed)
            size = length // 16
            scalar = [int(s.integers(b * size, (b + 1) * size if b < 15
                                     else length, ())) for b in range(16)]
            assert uniform_sample(video, stream("per-bin", seed)).tolist() == scalar


def test_uniform_sample_deterministic_per_stream():
    video = np.arange(160)[:, None, None, None].astype(np.float64)
    a = uniform_sample(video, stream("fixed"))
    b = uniform_sample(video, stream("fixed"))
    assert np.array_equal(a, b)


def test_uniform_sample_too_short():
    with pytest.raises(ValueError, match="short"):
        uniform_sample(np.zeros((10, 2, 2, 1)), stream())
