"""Chaining short clips into an arbitrarily long video with fixed memory.

The model only ever generates t_c-frame clips.  To go longer, each clip
hands one anchor frame to the next generation and emits its first r frames
(the last clip all of them) as a block to a sink; nothing keeps the video
unless the sink does.  Two things are worth watching:

* the seam mismatch — how much clip j+1's head disagrees with clip j's
  tail — which recall training exists to shrink, and
* the peak frames held — the most frames the chain keeps across its calls
  (in `mean` mode, a clip and its t_c - 1 difference maps) stays below
  2*t_c no matter how long the video gets.
"""

import os
import tempfile

import numpy as np

from vidchain.chain import chain_generate
from vidchain.config import RunConfig
from vidchain.container import load_dataset
from vidchain.datasets import gen_shapes_dataset
from vidchain.model import ModelBundle
from vidchain.training import build_pairs, train_loop, train_loop_recall

CFG = RunConfig(
    t_c=8, r=4, height=8, width=8, channels=1,
    z_content=16, z_motion=6, hidden=32,
    batch=4, steps=400, seed=0,
)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        gen_shapes_dataset(tmp, count=40, length=24, seed=0, height=8, width=8, square=2)
        videos, _ = load_dataset(os.path.join(tmp, "manifest.tsv"))

    print(f"clip phase: {CFG.steps} steps ...")
    bundle = ModelBundle.init(CFG)
    train_loop(bundle, videos)

    before = chain_generate(bundle, n_clips=10, mode="mean")

    print(f"recall phase: {CFG.steps} steps on overlapping pairs ...")
    pairs, _ = build_pairs(videos, CFG)
    train_loop_recall(bundle, pairs)

    blocks = []
    after = chain_generate(bundle, n_clips=10, mode="mean", sink=blocks.append)

    print(f"\nchained {10} clips -> {after.frames_emitted} frames "
          f"((n-1)*r + t_c = {9 * CFG.r + CFG.t_c})")
    print(f"peak frames held: {after.peak_frames} (bound: 2*t_c = {2 * CFG.t_c})")
    print("\nseam mismatch before vs after recall training:")
    for j, (b, a) in enumerate(zip(before.mismatches, after.mismatches)):
        print(f"  seam {j}: {b:.4f} -> {a:.4f}")
    print(f"  mean   : {before.mean_mismatch:.4f} -> {after.mean_mismatch:.4f}")

    # the emitted blocks join into one contiguous array of frames
    video = np.concatenate(blocks)
    print(f"\nvideo array: {video.shape}, values clamped to "
          f"[{video.min():.2f}, {video.max():.2f}]")

    # memory does not grow with length: generate 4x longer, same peak (with
    # no sink, the frames are dropped as they are made)
    longer = chain_generate(bundle, n_clips=40, mode="mean")
    print(f"40 clips -> {longer.frames_emitted} frames, "
          f"peak still {longer.peak_frames}")


if __name__ == "__main__":
    main()
