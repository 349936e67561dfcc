"""Full-state digests of a short training run, one per config variant.

Run it as a plain script, with no arguments:

    python tests/state_digest.py

For each variant it trains a fresh bundle for a few clip steps and then a
few recall steps, and prints one sha256 over every `state_arrays()` array
(name, shape and bytes) and the `repr` of every step's loss reports.  A
refactor that claims to leave training byte-identical prints the same
lines before and after.  The script imports the package from the `src/`
beside it, so it measures the checkout it lives in.
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from vidchain.config import RunConfig  # noqa: E402
from vidchain.datasets import make_shapes_video  # noqa: E402
from vidchain.model import ModelBundle  # noqa: E402
from vidchain.rng import RandomStream  # noqa: E402
from vidchain.training import build_pairs, train_loop, train_loop_recall  # noqa: E402

SEED = 101
STEPS = 4
VIDEOS = 8
VIDEO_FRAMES = 48

VARIANTS = {
    "default": {},
    "loss_variant=diff": {"loss_variant": "diff"},
    "mgv=off": {"mgv": False},
    "ovi=off": {"ovi": False},
    "disable_motion": {"disable_motion": True},
    "disable_fusion": {"disable_fusion": True},
    "disable_content": {"disable_content": True},
}


def videos():
    stream = RandomStream.from_seed(SEED, "state-digest")
    return [make_shapes_video(VIDEO_FRAMES, i % 4, stream.split(f"video{i}"))
            for i in range(VIDEOS)]


def digest(fields: dict, data) -> str:
    cfg = RunConfig(seed=SEED, steps=STEPS, **fields)
    bundle = ModelBundle.init(cfg)
    reports = train_loop(bundle, data)
    pairs, _ = build_pairs(data, cfg)
    reports += train_loop_recall(bundle, pairs)
    h = hashlib.sha256()
    for name, arr in bundle.state_arrays().items():
        h.update(f"{name}{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(repr(reports).encode())
    return h.hexdigest()


def main() -> int:
    data = videos()
    for name, fields in VARIANTS.items():
        print(f"{name}\t{digest(fields, data)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
