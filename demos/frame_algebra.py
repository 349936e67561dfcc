"""The frame algebra that makes clip chaining possible.

A clip is stored as one content frame plus signed frame-to-frame
differences.  Because reconstruction is pure addition, any frame of the
clip can serve as the anchor: walking the differences backward from frame
r recovers everything before it.  That one identity is what lets a
generated clip hand a single frame to the next clip as its anchor, and it
is exact — no tolerance needed — as long as pixel values live on the
32-bit grid that datasets are stored on, so the 64-bit sums are free of
rounding.
"""

import numpy as np

from vidchain.video import (decompose, reconstruct, reconstruct_from_reference,
                            segment_overlapping, stitch)


def ramp_clip(t=8, side=4):
    """A tiny clip whose every pixel value is globally unique, so any
    misplaced frame would be caught immediately.  Values are snapped to the
    32-bit grid the same way stored datasets are."""
    n = t * side * side
    ramp = np.arange(n, dtype=np.float64).reshape(t, side, side, 1) * 0.01
    return ramp.astype(np.float32).astype(np.float64)


def main():
    clip = ramp_clip()
    content, motion = decompose(clip)
    print(f"clip {clip.shape} -> content {content.shape} + motion {motion.shape}")
    print("round trip exact:", np.array_equal(reconstruct(content, motion), clip))

    print("\nrebuilding the same clip from each possible anchor frame:")
    for r in range(1, len(clip) + 1):
        rebuilt = reconstruct_from_reference(clip[r - 1], r, motion)
        print(f"  anchor frame {r}: exact={np.array_equal(rebuilt, clip)}")

    video = ramp_clip(t=28)
    t_c, r = 8, 4
    clips = segment_overlapping(video, t_c, r)
    print(f"\n{len(video)}-frame video -> {len(clips)} overlapping clips "
          f"(t_c={t_c}, stride r={r})")
    rebuilt = stitch(clips, r)
    covered = len(rebuilt)
    print(f"stitch emits {covered} frames "
          f"((n-1)*r + t_c = {(len(clips)-1)*r + t_c})")
    print("stitched prefix identical to source:",
          np.array_equal(rebuilt, video[:covered]))

    # overlap consistency: each clip's tail IS the next clip's head
    a, b = clips[0], clips[1]
    print("clip 0 tail == clip 1 head:",
          np.array_equal(a[r:], b[:t_c - r]))


if __name__ == "__main__":
    main()
