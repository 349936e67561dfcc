"""Full-state digests of a short training run, one per config variant.

Run it as a plain script, with no arguments:

    python tests/state_digest.py

For each variant it trains a fresh bundle for a few clip steps and then a
few recall steps, and prints one sha256 over every `state_arrays()` array
(name, shape and bytes) and the `repr` of every step's loss reports.  Two
more lines hash files written from the default variant's bundle: the
checkpoint `save` writes, and a short `chain_generate` video written
through `ContainerWriter` as `generate-long` writes it.  The last three
prove the checkpoint restore byte-exact: the default variant's checkpoint
after `ModelBundle.load` and a second `save` (equal to the `checkpoint`
line), and an untrained bundle's checkpoint before and after the same
reload (equal to each other).  A refactor that claims to leave training or
file I/O byte-identical prints the same lines before and after.  The script imports the package from the `src/` beside
it, so it measures the checkout it lives in.
"""

import hashlib
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from vidchain.chain import chain_generate  # noqa: E402
from vidchain.config import RunConfig  # noqa: E402
from vidchain.container import ContainerWriter  # noqa: E402
from vidchain.datasets import make_shapes_video  # noqa: E402
from vidchain.model import ModelBundle  # noqa: E402
from vidchain.rng import RandomStream  # noqa: E402
from vidchain.training import build_pairs, train_loop, train_loop_recall  # noqa: E402

SEED = 101
STEPS = 4
VIDEOS = 8
VIDEO_FRAMES = 48
CHAIN_CLIPS = 5

VARIANTS = {
    "default": {},
    "loss_variant=diff": {"loss_variant": "diff"},
    "mgv=off": {"mgv": False},
    "ovi=off": {"ovi": False},
    "disable_motion": {"disable_motion": True},
    "disable_fusion": {"disable_fusion": True},
    "disable_content": {"disable_content": True},
    # every clip step samples frames uniformly; at STEPS steps the default
    # fraction of 0.1 rounds to no uniform step at all
    "uniform_fraction=1.0": {"uniform_fraction": 1.0},
}


def videos():
    stream = RandomStream.from_seed(SEED, "state-digest")
    return [make_shapes_video(VIDEO_FRAMES, i % 4, stream.split(f"video{i}"))
            for i in range(VIDEOS)]


def trained(fields: dict, data):
    """A bundle after the short run, and its loss reports."""
    cfg = RunConfig(seed=SEED, steps=STEPS, **fields)
    bundle = ModelBundle.init(cfg)
    reports = train_loop(bundle, data)
    pairs, _ = build_pairs(data, cfg)
    reports += train_loop_recall(bundle, pairs)
    return bundle, reports


def digest(bundle, reports) -> str:
    h = hashlib.sha256()
    for name, arr in bundle.state_arrays().items():
        h.update(f"{name}{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(repr(reports).encode())
    return h.hexdigest()


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def checkpoint_digests(bundle, tmp: str, tag: str) -> dict:
    """sha256 of the bundle's checkpoint, and of that checkpoint after a
    `ModelBundle.load` and a second `save`."""
    first, again = (os.path.join(tmp, f"{tag}{i}.ckpt") for i in (1, 2))
    bundle.save(first)
    ModelBundle.load(first).save(again)
    return {tag: _sha256(first), f"{tag}_reload": _sha256(again)}


def file_digests(bundle) -> dict:
    """sha256 of the bundle's checkpoint and of a short chained video, then
    the checkpoint digests of the trained bundle reloaded and of an
    untrained one, whose optimizers hold step 0 and no moments."""
    with tempfile.TemporaryDirectory() as tmp:
        video = os.path.join(tmp, "long.rcg")
        ckpt = checkpoint_digests(bundle, tmp, "checkpoint")
        with ContainerWriter(video, bundle.cfg.frame_shape) as writer:
            chain_generate(bundle, CHAIN_CLIPS, mode=bundle.cfg.gen_mode,
                           sink=lambda block: writer.append(
                               block.astype(np.float32)))
        untrained = checkpoint_digests(ModelBundle.init(bundle.cfg), tmp,
                                       "untrained_checkpoint")
        return {"checkpoint": ckpt["checkpoint"],
                "chain_container": _sha256(video),
                "checkpoint_reload": ckpt["checkpoint_reload"], **untrained}


def main() -> int:
    data = videos()
    files = {}
    for name, fields in VARIANTS.items():
        bundle, reports = trained(fields, data)
        print(f"{name}\t{digest(bundle, reports)}")
        if not fields:
            files = file_digests(bundle)
    for name, value in files.items():
        print(f"{name}\t{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
