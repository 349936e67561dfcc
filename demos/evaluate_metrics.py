"""The evaluation toolkit: segment-wise Fréchet scores, ratios, and a probe.

Real FID/FVD pipelines embed clips with pretrained networks; this package
swaps in a frozen random feature extractor so every number is cheap and
exactly reproducible.  Magnitudes are therefore not comparable to
published scores — what carries over is the protocol: fit Gaussians to
features, compare them segment by segment along the video, and summarize
quality/diversity with a probe classifier.
"""

import os
import tempfile

import numpy as np

from vidchain.container import load_dataset
from vidchain.datasets import gen_shapes_dataset
from vidchain.metrics import (FeatureExtractor, fvd_ratio, inception_score,
                              segmentwise_scores, train_probe)
from vidchain.rng import RandomStream

SEG = 16


def main():
    with tempfile.TemporaryDirectory() as tmp:
        gen_shapes_dataset(tmp, count=120, length=48, seed=0)
        videos, labels = load_dataset(os.path.join(tmp, "manifest.tsv"))

    frame_dim = int(np.prod(videos[0].shape[1:]))
    extractor = FeatureExtractor(SEG, frame_dim, seed=0)

    print("-- a dataset scored against itself is exactly matched --")
    self_scores = segmentwise_scores(videos, videos, extractor, seg_len=SEG)
    print("  per-segment:", [f"{s:.2e}" for s in self_scores.scores])

    print("\n-- disjoint halves: same distribution, finite-sample gap --")
    halves = segmentwise_scores(videos[:60], videos[60:], extractor, seg_len=SEG)
    print("  per-segment:", [f"{s:.3f}" for s in halves.scores])

    print("\n-- against uniform noise: a large, obvious gap --")
    rng = np.random.default_rng(1)
    noise = [rng.uniform(-1, 1, videos[0].shape) for _ in range(60)]
    vs_noise = segmentwise_scores(noise, videos[60:], extractor, seg_len=SEG)
    print("  per-segment:", [f"{s:.3f}" for s in vs_noise.scores])
    print(f"  noise / halves ratio at segment 0: "
          f"{vs_noise.scores[0] / halves.scores[0]:.0f}x")

    print("\n-- degradation summarized as a ratio (16-frame vs long) --")
    print(f"  fvd_ratio(113.5, 145.9) = {fvd_ratio(113.5, 145.9):.3f} "
          f"(< 1 means the first segment scores better than the average)")

    print("\n-- probe classifier: can features recover the motion class? --")
    clips = np.stack([v[:SEG] for v in videos])
    feats = extractor.features(clips)
    train_n = 90
    probe = train_probe(feats[:train_n], labels[:train_n],
                        RandomStream.from_seed(0, "demo-probe"))
    predicted = probe.predict_proba(feats[train_n:]).argmax(axis=1)
    acc = float(np.mean(predicted == labels[train_n:]))
    print(f"  holdout accuracy on {len(labels) - train_n} videos: {acc:.2f} "
          f"(chance = 0.25)")

    probs = probe.predict_proba(feats)
    score, inter, intra = inception_score(probs)
    print(f"  inception score {score:.2f} "
          f"(inter-entropy {inter:.3f}, intra-entropy {intra:.3f}, max 4)")


if __name__ == "__main__":
    main()
