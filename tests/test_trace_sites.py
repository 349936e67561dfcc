"""The benchmark's layer tracer still finds every name it patches.

`perfbench/layertrace.py` replaces names where the package looks them up.
A refactor that binds one of them early (a table built at import, a name
imported under another module) leaves the wrapper uncalled, and that stage
of the traced benchmark reads zero.  This runs one tiny step of each
training phase, a `generate-long` of 3 sampled clips from the clip-phase
checkpoint, then a cold and a warm `eval --probe`, under the installed
tracer, in a child process so the patches stay there.
"""

import json
import os
import subprocess
import sys

from vidchain.model import COMPONENTS

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import layertrace
tracer = layertrace.Tracer()
layertrace.install(tracer)
from vidchain.config import RunConfig
from vidchain.model import ModelBundle
from vidchain.training import build_pairs, train_loop, train_loop_recall

cfg = RunConfig(t_c=4, r=2, height=4, width=4, channels=1, z_content=8,
                z_motion=4, hidden=16, batch=2, steps=1, seed=5)
rng = np.random.default_rng(0)
videos = [rng.uniform(-1, 1, (24,) + cfg.frame_shape) for _ in range(3)]
tracer.phase = "clip"
clip_bundle = ModelBundle.init(cfg)
train_loop(clip_bundle, videos)
tracer.phase = "pairs"
pairs, _ = build_pairs(videos, cfg)
tracer.phase = "recall"
train_loop_recall(ModelBundle.init(cfg), pairs)

import contextlib, io, os, tempfile
from vidchain.cli import main
from vidchain.container import ManifestRecord, write_container, write_manifest
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    records = []
    for i in range(4):
        name = f"video_{i}.rcg"
        write_container(os.path.join(tmp, name),
                        rng.uniform(-1, 1, (12, 4, 4, 1)).astype(np.float32))
        records.append(ManifestRecord(name, 12, 4, 4, 1, i % 2))
    write_manifest(os.path.join(tmp, "manifest.tsv"), records)
    ckpt = os.path.join(tmp, "clip.ckpt")
    clip_bundle.save(ckpt)
    tracer.phase = "generate-long"
    assert main(["generate-long", "--ckpt", ckpt, "--out",
                 os.path.join(tmp, "long.rcg"), "--clips", "3"]) == 0
    argv = ["eval", "--data", os.path.join(tmp, "video_0.rcg"), "--reference",
            tmp, "--report", os.path.join(tmp, "r.tsv"), "--seg-len", "4",
            "--probe"]
    for phase in ("eval-cold", "eval-warm"):
        tracer.phase = phase
        assert main(argv) == 0
tracer.phase = None
print(json.dumps({key: calls for key, (calls, _, _) in tracer.stats.items()}))
"""

# Each dense stack is one `mlp2` record, which the tracer does not patch,
# so `apply_mlp`, labelled by component, is the only per-layer view of MLP
# cost; a model that bound `mlp2` directly would leave it reading zero.
MLP_SITES = [f"layers.apply_mlp.{name}" for name in COMPONENTS]

# Both evals call these; only the cold one trains the probe.  The tracer's
# `metrics.segmentwise_scores` site reads zero on every eval: `eval` calls
# `reference_fits` and `score_segments` instead (a known gap of the tracer).
EVAL_SITES = ["metrics.features", "metrics.frechet_distance",
              "video.segment_nonoverlapping", "container.load_checkpoint",
              "container.read_container"]

EXPECTED = {
    "clip": ["training.sample_batch", "autodiff.backward.clip-d",
             "autodiff.backward.clip-enc", "autodiff.backward.clip-gen",
             "autodiff.tape_records.clip", "optim.adam_step",
             "losses.loss_d_image", "losses.loss_d_video", "losses.loss_enc",
             "losses.loss_gen", *MLP_SITES],
    "pairs": ["chain.make_training_pairs"],
    "recall": ["autodiff.backward.recall-d", "autodiff.backward.recall-joint",
               "autodiff.tape_records.recall", "optim.adam_step",
               "chain.loss_d_image_r", "chain.loss_d_video_merged",
               "chain.loss_rencg", *MLP_SITES],
    "eval-cold": ["metrics.train_probe", "optim.adam_step",
                  "container.load_dataset", *EVAL_SITES],
    "eval-warm": EVAL_SITES,
    # the long-video stage: one checkpoint read, then 3 composed clips
    "generate-long": ["container.load_checkpoint", "model.compose",
                      "chain.chain_generate", "chain.clip", "container.append",
                      *(f"layers.apply_mlp.{name}"
                        for name in ("content_enc", "g_c", "g_t", "fusion"))],
}


def test_every_patched_training_name_is_called():
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, check=True, timeout=300).stdout
    calls = json.loads(out.strip().splitlines()[-1])
    missing = [f"{phase}|{name}" for phase, names in EXPECTED.items()
               for name in names if calls.get(f"{phase}|{name}", 0) < 1]
    assert not missing, missing
    # one Adam step per group: 3 in a clip step, 3 in a recall step
    assert calls["clip|optim.adam_step"] == calls["recall|optim.adam_step"] == 3
    # a sampled chain calls neither discriminator nor the motion encoder
    assert not {f"generate-long|layers.apply_mlp.{name}"
                for name in ("d_image", "d_video", "motion_enc")} & set(calls)
    assert calls["generate-long|container.load_checkpoint"] == 1
    # a warm eval trains nothing and decodes no reference container
    assert not {f"eval-warm|{name}" for name in (
        "metrics.train_probe", "optim.adam_step", "container.load_dataset")} & set(calls)
    # the probe fit: one Adam step a batch, 4 rows in one batch, 60 epochs
    assert calls["eval-cold|optim.adam_step"] == 60
