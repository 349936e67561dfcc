"""A look at the two synthetic datasets and the clip-sampling strategies.

`shapes` videos carry a bright square bouncing along one of four directions
(the direction is the class label); `drift` videos are smooth sinusoidal
textures with no labels.  Both are written as binary containers plus a text
manifest, so this script also doubles as a tour of the storage format.
"""

import os
import tempfile

import numpy as np

from vidchain.container import load_dataset, read_manifest
from vidchain.datasets import (gen_drift_dataset, gen_shapes_dataset,
                               step_sample, uniform_sample)
from vidchain.rng import RandomStream
from vidchain.video import decompose

SHADES = " .:-=+*#%@"


def ascii_frame(frame):
    lo, hi = frame.min(), frame.max()
    scaled = (frame[..., 0] - lo) / (hi - lo + 1e-12)
    rows = ((SHADES[int(v * (len(SHADES) - 1))] for v in row) for row in scaled)
    return "\n".join("".join(row) for row in rows)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        shapes_dir = os.path.join(tmp, "shapes")
        drift_dir = os.path.join(tmp, "drift")
        gen_shapes_dataset(shapes_dir, count=8, length=48, seed=0)
        gen_drift_dataset(drift_dir, count=4, length=48, seed=0)

        records = read_manifest(os.path.join(shapes_dir, "manifest.tsv"))
        print("manifest records (path frames h w c label):")
        for rec in records[:4]:
            print(f"  {rec.path} {rec.frames} {rec.height}x{rec.width}"
                  f"x{rec.channels} label={rec.label}")
        labels = [rec.label for rec in records]
        print("class balance:", {k: labels.count(k) for k in sorted(set(labels))})

        # videos load at their stored float32; arithmetic starts in float64
        videos, _ = load_dataset(os.path.join(shapes_dir, "manifest.tsv"))
        video = videos[0].astype(np.float64)
        print(f"\nframe 0 of video 0 ({video.shape[1]}x{video.shape[2]}):")
        print(ascii_frame(video[0]))

        # motion is sparse by construction: the square's leading and trailing
        # edges are the only pixels that change between frames
        _, motion = decompose(video[:16])
        nonzero = (motion != 0).sum(axis=(1, 2, 3))
        print(f"\nnonzero diff pixels per step: {nonzero.tolist()}")

        drift_videos, drift_labels = load_dataset(
            os.path.join(drift_dir, "manifest.tsv"))
        print(f"\ndrift labels are all unlabeled (-1): "
              f"{set(drift_labels.tolist())}")
        steps = np.abs(np.diff(drift_videos[0].astype(np.float64), axis=0)).mean()
        print(f"drift mean |frame diff| = {steps:.4f} (smooth by construction)")

        # the two training-clip samplers
        clip = step_sample(video, start=0, step=3, count=16)
        print(f"\nstep sampling  start=0 step=3 -> frames 0,3,...,45 "
              f"({clip.shape[0]} frames)")
        stream = RandomStream.from_seed(7, "tour")
        clip2 = uniform_sample(video, stream, bins=16)
        print(f"uniform sampling -> one frame per 3-frame bin, "
              f"{clip2.shape[0]} frames, deterministic per stream")


if __name__ == "__main__":
    main()
