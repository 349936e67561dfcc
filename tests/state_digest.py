"""Full-state digests of a short training run, one per config variant.

Run it as a plain script, with no arguments:

    python tests/state_digest.py

The first line, `domain`, names the numeric domain the digests hold in:
the kernel OpenBLAS picked and numpy's active CPU dispatch targets, as
`vidchain.cli.numeric_domain` reports them for the `eval` reference key.
Another kernel or another set of targets may print other digests.  Then,
for each variant it trains a fresh bundle for a few clip steps and then a
few recall steps, and prints one sha256 over every `state_arrays()` array
(name, shape and bytes) and the `repr` of every step's loss reports.  Two
more lines hash files written from the default variant's bundle: the
checkpoint `save` writes, and a short `chain_generate` video written
through `ContainerWriter` as `generate-long` writes it.  The last three
prove the checkpoint restore byte-exact: the default variant's checkpoint
after `ModelBundle.load` and a second `save` (equal to the `checkpoint`
line), and an untrained bundle's checkpoint before and after the same
reload (equal to each other).  Then the same chained video in the `mean`
and `seeded` modes, the `sampled` and `mean` videos again at a stride
override of `CHAIN_STRIDE` frames, and a `train_probe` fit on fixed
features (its parameters and predicted probabilities), which runs `log`,
`exp`, `sum` and Adam on small parameters.  The next line hashes the two
tables of `vidchain ablate --init` on a tiny model that `vidchain train`
trained on the same videos, written as a dataset; its overlap sweep trains
one variant beyond the ovi, mgv and recall ones.  The last line hashes the
report of `vidchain eval --probe` of the same videos played backwards
against that dataset, made cold; the script fails if a warm rerun, which
reads the reference fits and the probe from the dataset's `refstats.rcgb`,
writes other bytes.  A refactor that claims to leave training or file I/O
byte-identical prints the same lines before and after.  The script imports
the package from the `src/` beside it, so it measures the checkout it lives
in.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from vidchain.chain import chain_generate  # noqa: E402
from vidchain.cli import main as cli_main, numeric_domain  # noqa: E402
from vidchain.config import RunConfig  # noqa: E402
from vidchain.container import (ContainerWriter, ManifestRecord,  # noqa: E402
                                write_container, write_manifest)
from vidchain.datasets import make_shapes_video  # noqa: E402
from vidchain.metrics import train_probe  # noqa: E402
from vidchain.model import ModelBundle  # noqa: E402
from vidchain.rng import RandomStream  # noqa: E402
from vidchain.training import build_pairs, train_loop, train_loop_recall  # noqa: E402

SEED = 101
STEPS = 4
VIDEOS = 8
VIDEO_FRAMES = 48
CHAIN_CLIPS = 5
CHAIN_STRIDE = 4       # a stride override; the default config's stride is 8
PROBE_ROWS = 64
PROBE_FEATURES = 12
PROBE_CLASSES = 4
PROBE_EPOCHS = 20
# a tiny model at t_c 8, r 4: the overlap sweep's stride 6 is its own variant
ABLATE_FLAGS = ["--t-c", "8", "--r", "4", "--z-content", "8", "--z-motion", "4",
                "--hidden", "16", "--batch", "2", "--steps", "2",
                "--seed", str(SEED)]

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


def chain_digest(bundle, path: str, mode: str, r: int | None = None) -> str:
    """sha256 of a short chained video in `mode` at stride `r` (the config's
    when None), written through `ContainerWriter` as `generate-long` writes
    it."""
    with ContainerWriter(path, bundle.cfg.frame_shape) as writer:
        chain_generate(bundle, CHAIN_CLIPS, mode=mode, r=r,
                       sink=lambda block: writer.append(block.astype(np.float32)))
    return _sha256(path)


def probe_digest() -> str:
    """sha256 of a `train_probe` fit on fixed features: every parameter,
    then the predicted class probabilities of the training rows."""
    stream = RandomStream.from_seed(SEED, "state-digest-probe")
    labels = np.arange(PROBE_ROWS) % PROBE_CLASSES
    features = (stream.split("features").normal((PROBE_ROWS, PROBE_FEATURES))
                + labels[:, None])
    probe = train_probe(features, labels, stream.split("fit"),
                        epochs=PROBE_EPOCHS)
    h = hashlib.sha256()
    for p in probe.params:
        h.update(p.data.tobytes())
    h.update(probe.predict_proba(features).tobytes())
    return h.hexdigest()


def write_dataset(data, path: str) -> None:
    """`data` as a dataset directory at `path`, labeled in 4 classes."""
    os.makedirs(path, exist_ok=True)
    records = []
    for i, video in enumerate(data):
        name = f"video{i}.rcg"
        write_container(os.path.join(path, name), video.astype(np.float32))
        records.append(ManifestRecord(name, *video.shape, i % 4))
    write_manifest(os.path.join(path, "manifest.tsv"), records)


def ablate_digest(data) -> str:
    """sha256 of table10.tsv then table11.tsv from `vidchain ablate --init`
    on a checkpoint `vidchain train` wrote; both read `data` as a dataset."""
    with (tempfile.TemporaryDirectory() as tmp,
          contextlib.redirect_stdout(io.StringIO())):
        write_dataset(data, tmp)
        ckpt, out = os.path.join(tmp, "base.ckpt"), os.path.join(tmp, "ablate")
        for argv in (["train", "--data", tmp, "--out", ckpt, *ABLATE_FLAGS],
                     ["ablate", "--data", tmp, "--init", ckpt, "--out", out]):
            if cli_main(argv) != 0:
                raise RuntimeError(f"vidchain {argv[0]} failed")
        h = hashlib.sha256()
        for name in ("table10.tsv", "table11.tsv"):
            with open(os.path.join(out, name), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()


def eval_digest(data) -> str:
    """sha256 of the report of `vidchain eval --probe` of `data` played
    backwards, against `data` as a dataset, made with no `refstats.rcgb`;
    a warm rerun must write the same bytes."""
    with (tempfile.TemporaryDirectory() as tmp,
          contextlib.redirect_stdout(io.StringIO())):
        ref, gen = os.path.join(tmp, "data"), os.path.join(tmp, "gen.rcg")
        write_dataset(data, ref)
        write_container(gen, np.stack(data)[:, ::-1].astype(np.float32))
        reports = []
        for run in ("cold", "warm"):
            report = os.path.join(tmp, f"{run}.tsv")
            if cli_main(["eval", "--data", gen, "--reference", ref, "--report",
                         report, "--probe", "--seed", str(SEED)]) != 0:
                raise RuntimeError(f"{run} vidchain eval failed")
            if not os.path.isfile(os.path.join(ref, "refstats.rcgb")):
                raise RuntimeError("vidchain eval wrote no refstats.rcgb")
            with open(report, "rb") as fh:
                reports.append(fh.read())
        if reports[0] != reports[1]:
            raise RuntimeError("the warm eval report differs from the cold one")
        return hashlib.sha256(reports[0]).hexdigest()


def file_digests(bundle) -> dict:
    """sha256 of the bundle's checkpoint and of a short chained video, then
    the checkpoint digests of the trained bundle reloaded and of an
    untrained one, whose optimizers hold step 0 and no moments, then the
    chained videos of the other modes and strides."""
    with tempfile.TemporaryDirectory() as tmp:
        video = os.path.join(tmp, "long.rcg")
        ckpt = checkpoint_digests(bundle, tmp, "checkpoint")
        sampled = chain_digest(bundle, video, bundle.cfg.gen_mode)
        untrained = checkpoint_digests(ModelBundle.init(bundle.cfg), tmp,
                                       "untrained_checkpoint")
        return {"checkpoint": ckpt["checkpoint"], "chain_container": sampled,
                "checkpoint_reload": ckpt["checkpoint_reload"], **untrained,
                **{f"chain_container_{mode}": chain_digest(bundle, video, mode)
                   for mode in ("mean", "seeded")},
                f"chain_container_r{CHAIN_STRIDE}": chain_digest(
                    bundle, video, "sampled", CHAIN_STRIDE),
                f"chain_container_mean_r{CHAIN_STRIDE}": chain_digest(
                    bundle, video, "mean", CHAIN_STRIDE)}


def main() -> int:
    data = videos()
    domain = numeric_domain()
    print(f"domain\t{domain['blas_core']} {' '.join(domain['dispatch'])}")
    files = {}
    for name, fields in VARIANTS.items():
        bundle, reports = trained(fields, data)
        print(f"{name}\t{digest(bundle, reports)}")
        if not fields:
            files = file_digests(bundle)
    for name, value in files.items():
        print(f"{name}\t{value}")
    print(f"probe\t{probe_digest()}")
    print(f"ablate_tables\t{ablate_digest(data)}")
    print(f"eval_report\t{eval_digest(data)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
