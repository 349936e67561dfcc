"""Synthetic video datasets and the two frame-sampling strategies.

Two generators, both deterministic per seed, both writing [-1, 1] float32
pixels to containers plus a manifest:

* **shapes** — a bright 4x4 square on a dark background translating at one
  pixel per frame in one of four axis directions (the class label), bouncing
  off borders.  Start positions are phase-locked to the class (each class
  starts at its canonical border with the perpendicular coordinate random):
  on a 16-pixel canvas every 16-frame clip contains a bounce, and with
  random phases the +x/-x (and +y/-y) orbits would be indistinguishable, so
  phase-locking is what makes the label recoverable from a clip.
* **drift** — a smoothly translating low-frequency sinusoidal texture with
  random orientation, period, amplitude, and speed; unlabeled (label -1).

Sampling strategies for drawing training clips from longer videos:

* ``step_sample`` — frames at a fixed stride (start, start+step, ...).
* ``uniform_sample`` — the video is split into equal bins (remainder to the
  last) and one frame is drawn uniformly per bin, indices strictly increasing.

Each video derives its own named random stream from the dataset seed, so
generation order (or parallel generation) cannot change the content.
"""

from __future__ import annotations

import os

import numpy as np

from .config import ConfigError
from .container import ManifestRecord, write_container, write_manifest
from .rng import RandomStream

__all__ = [
    "SHAPE_CLASSES", "make_shapes_video", "make_drift_video",
    "gen_shapes_dataset", "gen_drift_dataset", "step_sample", "uniform_sample",
]

# class id -> (axis, direction): 0:+x  1:-x  2:+y  3:-y   (x = width axis)
SHAPE_CLASSES = ((1, +1), (1, -1), (0, +1), (0, -1))


def make_shapes_video(length: int, label: int, stream: RandomStream,
                      height: int = 16, width: int = 16,
                      square: int = 4) -> np.ndarray:
    """One bouncing-square video, (length, height, width, 1) float32 in [-1, 1]."""
    if length < 2 or height <= square or width <= square:
        raise ConfigError(f"invalid shapes-video dims: length={length}, "
                          f"height={height}, width={width}, square={square}")
    axis, direction = SHAPE_CLASSES[label % 4]
    limit = (width if axis == 1 else height) - square
    perp_limit = (height if axis == 1 else width) - square
    # phase-locked start: begin at the border the motion leaves from, then
    # bounce between 0 and limit, a triangle wave of period 2 * limit
    start = 0 if direction > 0 else limit
    t = np.arange(length)
    pos = limit - np.abs(limit - (t + start) % (2 * limit))
    perp = int(stream.integers(0, perp_limit + 1, ()))
    frames, cells = t[:, None], pos[:, None] + np.arange(square)
    video = np.full((length, height, width, 1), -1.0, dtype=np.float32)
    if axis == 1:
        video[frames, perp:perp + square, cells, 0] = 1.0
    else:
        video[frames, cells, perp:perp + square, 0] = 1.0
    return video


def make_drift_video(length: int, stream: RandomStream,
                     height: int = 16, width: int = 16) -> np.ndarray:
    """One drifting-sinusoid video, (length, height, width, 1) float32."""
    if length < 2 or height < 2 or width < 2:
        raise ConfigError(f"invalid drift-video dims: length={length}, "
                          f"height={height}, width={width}")
    amplitude = float(stream.uniform((), 0.6, 0.9))
    speed = float(stream.uniform((), 0.5, 1.5))
    period = float(stream.uniform((), 8.0, 16.0))
    theta = float(stream.uniform((), 0.0, 2.0 * np.pi))
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    phase = 2.0 * np.pi * (xx * np.cos(theta) + yy * np.sin(theta)) / period
    t = np.arange(length, dtype=np.float64)
    omega = 2.0 * np.pi * speed / period
    frames = amplitude * np.sin(phase[None] - omega * t[:, None, None])
    return frames[..., None].astype(np.float32)


def _write_dataset(out_dir, count, make_video, labels) -> str:
    records = []
    for i in range(count):
        video = make_video(i)
        if i == 0:      # made only once the first video passed its checks
            os.makedirs(out_dir, exist_ok=True)
        name = f"video_{i:05d}.rcg"
        write_container(os.path.join(out_dir, name), video)
        records.append(ManifestRecord(name, *video.shape, labels[i]))
    manifest = os.path.join(out_dir, "manifest.tsv")
    write_manifest(manifest, records)
    return manifest


def gen_shapes_dataset(out_dir, count: int, length: int, seed: int,
                       height: int = 16, width: int = 16,
                       square: int = 4) -> str:
    """Write `count` labeled bouncing-square videos + manifest; returns manifest path.

    Labels cycle 0..3, so class balance is exact whenever count % 4 == 0.
    """
    if count < 1:
        raise ConfigError(f"count must be positive, got {count}")
    root = RandomStream.from_seed(seed, "shapes-dataset")
    return _write_dataset(
        out_dir, count,
        lambda i: make_shapes_video(length, i % 4, root.split(f"video{i}"),
                                    height, width, square),
        labels=[i % 4 for i in range(count)])


def gen_drift_dataset(out_dir, count: int, length: int, seed: int,
                      height: int = 16, width: int = 16) -> str:
    """Write `count` unlabeled drifting-texture videos + manifest."""
    if count < 1:
        raise ConfigError(f"count must be positive, got {count}")
    root = RandomStream.from_seed(seed, "drift-dataset")
    return _write_dataset(
        out_dir, count,
        lambda i: make_drift_video(length, root.split(f"video{i}"), height, width),
        labels=[-1] * count)


def step_sample(video: np.ndarray, start: int, step: int,
                count: int = 16) -> np.ndarray:
    """Frames start, start+step, ..., start+step*(count-1); whole clip or error."""
    if step < 1 or start < 0:
        raise ValueError(f"start and step must be nonnegative/positive, "
                         f"got start={start}, step={step}")
    last = start + step * (count - 1)
    if last >= len(video):
        raise ValueError(f"step sampling out of range: frame {last} requested "
                         f"from a {len(video)}-frame video")
    return video[start:last + 1:step].copy()


def uniform_sample(video: np.ndarray, stream: RandomStream,
                   bins: int = 16) -> np.ndarray:
    """One frame drawn uniformly from each of `bins` equal bins (remainder to
    the last bin); indices strictly increasing."""
    length = len(video)
    if length < bins:
        raise ValueError(f"video of {length} frames is shorter than {bins} bins")
    lo = np.arange(bins) * (length // bins)
    hi = np.append(lo[1:], length)
    return video[stream.integers(lo, hi, (bins,))].copy()
