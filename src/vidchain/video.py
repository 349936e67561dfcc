"""Pure-function algebra of frames, difference maps, clips, and long videos.

Conventions: a Frame is an (H, W, C) float array; a VideoClip is (T, H, W, C);
a DiffSequence is (T-1, H, W, C) of signed consecutive-frame differences.
Difference maps are kept signed so that decomposition and reconstruction are
exact inverses at 64-bit precision — nothing in this module clamps, blends, or
interpolates.  Pixel clamping to [-1, 1] belongs to the generation boundary,
not to the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LongVideo", "decompose", "reconstruct", "reconstruct_from_reference",
    "stitch", "segment_overlapping", "segment_nonoverlapping",
]


@dataclass
class LongVideo:
    """A stitched frame sequence plus the chain geometry that produced it.

    Length invariant: len(frames) == (clip_count - 1) * stride + clip_len.
    """

    frames: np.ndarray  # (L, H, W, C)
    clip_count: int
    stride: int
    clip_len: int

    def __post_init__(self):
        want = (self.clip_count - 1) * self.stride + self.clip_len
        if len(self.frames) != want:
            raise ValueError(
                f"long video has {len(self.frames)} frames, geometry implies {want}")

    def __len__(self) -> int:
        return len(self.frames)


def _require_clip(clip: np.ndarray, min_frames: int = 2) -> np.ndarray:
    clip = np.asarray(clip)
    if clip.ndim != 4:
        raise ValueError(f"clip must be (T, H, W, C), got shape {clip.shape}")
    if clip.shape[0] < min_frames:
        raise ValueError(f"clip needs at least {min_frames} frames, got {clip.shape[0]}")
    return clip


def decompose(clip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a clip into (content, motion): first frame + signed diffs."""
    clip = _require_clip(clip)
    return clip[0].copy(), np.diff(clip, axis=0)


def reconstruct(content: np.ndarray, motion: np.ndarray) -> np.ndarray:
    """Rebuild a clip by recursively adding diffs onto the content frame.

    Inverse of decompose: frame[0] = content, frame[j] = frame[j-1] + motion[j-1].
    The recursion is exact whenever pixel values live on a grid where the
    running sums are representable (true for 32-bit-quantized data in 64-bit
    arithmetic, which is how datasets are stored here).
    """
    content = np.asarray(content)
    motion = np.asarray(motion)
    if motion.ndim != content.ndim + 1 or motion.shape[1:] != content.shape:
        raise ValueError(f"motion shape {motion.shape} does not extend frame {content.shape}")
    return reconstruct_from_reference(content, 1, motion)


def reconstruct_from_reference(ref: np.ndarray, r: int, motion: np.ndarray) -> np.ndarray:
    """Rebuild a clip around the frame at 1-based position r.

    Frames before the reference are filled by subtracting diffs backward,
    frames after it by adding diffs forward.  r=1 degenerates to reconstruct().
    """
    ref = np.asarray(ref)
    motion = np.asarray(motion)
    t_c = len(motion) + 1
    if not 1 <= r <= t_c:
        raise ValueError(f"reference index {r} outside 1..{t_c}")
    if motion.shape[1:] != ref.shape:
        raise ValueError(f"motion shape {motion.shape} does not extend frame {ref.shape}")
    # two running sums outward from the reference; adding a negated diff is
    # subtracting it, so each frame is bit-equal to a frame-by-frame walk
    k, dtype = r - 1, np.result_type(ref, motion)
    forward = np.cumsum(np.concatenate([ref[None], motion[k:]]), 0, dtype)
    back = np.cumsum(np.concatenate([ref[None], -motion[:k][::-1]]), 0, dtype)
    return np.concatenate([back[:0:-1], forward])


def stitch(clips, r: int) -> LongVideo:
    """Assemble overlapping clips into one long video.

    Clip j contributes its first r frames at offset j*r; the final clip also
    contributes its tail, so the result has exactly (N-1)*r + T_c frames.
    Every output frame is bit-equal to a frame of some input clip.
    """
    clips = [np.asarray(c) for c in clips]
    if not clips:
        raise ValueError("cannot stitch an empty clip list")
    t_c = clips[0].shape[0]
    for c in clips:
        _require_clip(c)
        if c.shape != clips[0].shape:
            raise ValueError("clips must share length and frame dimensions")
    if not 1 <= r < t_c:
        raise ValueError(f"stride {r} outside 1..{t_c - 1}")
    n = len(clips)
    out = np.empty(((n - 1) * r + t_c,) + clips[0].shape[1:], dtype=clips[0].dtype)
    for j, c in enumerate(clips):
        out[j * r: j * r + r] = c[:r]
    out[(n - 1) * r:] = clips[-1]
    return LongVideo(out, clip_count=n, stride=r, clip_len=t_c)


def segment_overlapping(video: np.ndarray, t_c: int, r: int) -> list[np.ndarray]:
    """Clips starting at offsets 0, r, 2r, ...; consecutive ones share t_c - r frames.

    Trailing frames that do not fill a clip on the stride grid are dropped.
    """
    video = np.asarray(video)
    length = video.shape[0]
    if length < t_c:
        raise ValueError(f"video of {length} frames is shorter than a clip ({t_c})")
    if not 1 <= r < t_c:
        raise ValueError(f"stride {r} outside 1..{t_c - 1}")
    n = (length - t_c) // r + 1
    return [video[k * r: k * r + t_c].copy() for k in range(n)]


def segment_nonoverlapping(video: np.ndarray, seg_len: int = 16) -> np.ndarray:
    """An (n, seg_len, ...) view of disjoint segments; leftover frames are dropped."""
    video = np.asarray(video)
    length = video.shape[0]
    if length < seg_len:
        raise ValueError(f"video of {length} frames is shorter than a segment ({seg_len})")
    n = length // seg_len
    return video[:n * seg_len].reshape((n, seg_len) + video.shape[1:])
