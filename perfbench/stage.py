"""One benchmark stage, run as its own process by run.py.

    stage.py train --data DIR --out DIR --steps N --seed S --result FILE
                   [--trace] [--checks]
        Both training phases from a fresh ModelBundle, timed step by step,
        then, with --checks, the train output checks.  Peak RSS is read
        before the checks.
    stage.py cli --phase NAME --result FILE [--trace] -- <vidchain argv>
        One `vidchain` command through its entry point, timed, with the peak
        RSS of this process.

The result is a JSON file; with --trace it also holds the layer trace.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

import layertrace
from checks import sha256

# The first steps of each phase are re-run to check byte determinism.
RERUN_STEPS = 3
# A phase this long is expected to converge visibly; shorter ones skip the
# convergence checks (the long-video workload's short training stage).
CONVERGE_MIN_STEPS = 50
# The seam check runs a mean-mode chain of 100 clips.  On 8 clips the first
# seams dominate, and on some seeds (205) recall training leaves those
# unchanged through 240 steps while the 100-clip figure still halves.
SEAM_CLIPS = 100
FD_STEP = 1e-5
FD_TOL = 1e-5


class _Stop(Exception):
    """Raised from a progress callback to end a re-run early."""


def _peak_rss_mb() -> float:
    """Peak RSS of this process.  VmHWM rather than getrusage: a spawned
    child's ru_maxrss starts at its parent's RSS, which would hide the peak
    of a stage smaller than the benchmark's own process."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _copy_state(bundle) -> dict:
    return {k: np.array(v, copy=True) for k, v in bundle.state_arrays().items()}


def _same_state(a: dict, b: dict) -> bool:
    return (a.keys() == b.keys()
            and all(a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
                    and a[k].tobytes() == b[k].tobytes() for k in a))


class StepClock:
    """Progress callback recording the wall time of each step, and a copy
    of the state after step RERUN_STEPS - 1."""

    def __init__(self, bundle):
        self.bundle = bundle
        self.times = []
        self.snapshot = None
        self.reports = []
        self.last = None

    def start(self):
        self.last = time.perf_counter()

    def __call__(self, step, report):
        now = time.perf_counter()
        self.times.append(now - self.last)
        self.reports.append(report)
        if step == RERUN_STEPS - 1:
            self.snapshot = _copy_state(self.bundle)
        self.last = time.perf_counter()


def _rerun_state(loop, bundle, data):
    """State of `bundle` after the first RERUN_STEPS steps of `loop`."""
    def stop(step, report):
        if step == RERUN_STEPS - 1:
            raise _Stop
    try:
        loop(bundle, data, progress=stop)
    except _Stop:
        pass
    return _copy_state(bundle)


def directional_fd(bundle, group, make_loss) -> float:
    """Error of backward() against a central finite difference of the loss
    along one fixed random unit direction through the group, relative to
    the gradient norm (the largest directional derivative there is)."""
    from vidchain import autodiff as ad
    from vidchain.autodiff import Tensor

    params = bundle.params(group)
    with ad.GradTape():
        grads = ad.backward(make_loss(), params)
    rng = np.random.default_rng(12345)
    direction = [rng.standard_normal(p.shape) for p in params]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
    analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction)) / norm
    scale = np.sqrt(sum(float(np.sum(g * g)) for g in grads))

    def value_at(h):
        bundle.set_params(group, [Tensor(p.data + h * d / norm, requires_grad=True)
                                  for p, d in zip(params, direction)])
        try:
            return make_loss().item()
        finally:
            bundle.set_params(group, params)

    numeric = (value_at(FD_STEP) - value_at(-FD_STEP)) / (2 * FD_STEP)
    return abs(analytic - numeric) / max(scale, 1e-8)


def gradient_checks(bundle, videos, pairs) -> dict:
    """Finite-difference checks of every loss each phase differentiates,
    on a fixed batch with a fixed stream."""
    from vidchain.chain import loss_d_image_r, loss_d_video_merged, loss_rencg
    from vidchain.losses import (loss_d_image, loss_d_video, loss_enc,
                                 loss_enc_v, loss_gen)
    from vidchain.model import D_GROUP, ENC_GROUP, GEN_GROUP
    from vidchain.rng import RandomStream
    from vidchain.training import sample_batch

    cfg = bundle.cfg
    root = RandomStream.from_seed(cfg.seed, "perfbench-fd")
    clips = sample_batch(videos, cfg, cfg.steps, root.split("batch"))
    which = root.split("pairs").choice(len(pairs), cfg.batch)
    batch = [pairs[int(i)] for i in which]
    enc_loss = loss_enc_v if cfg.loss_variant == "diff" else loss_enc

    def stream(name):
        return root.split(name)

    cases = {
        "clip-d": (D_GROUP, lambda: loss_d_image(bundle, clips, stream("di")).total
                   + loss_d_video(bundle, clips, stream("dv")).total),
        "clip-enc": (ENC_GROUP, lambda: enc_loss(bundle, clips, stream("enc")).total),
        "clip-gen": (GEN_GROUP, lambda: loss_gen(bundle, clips, stream("gen")).total),
        "recall-d": (D_GROUP, lambda: loss_d_image_r(bundle, batch, stream("ri")).total
                     + loss_d_video_merged(bundle, batch, stream("rv")).total),
        "recall-enc": (ENC_GROUP, lambda: loss_rencg(bundle, batch, stream("rj")).total),
        "recall-gen": (GEN_GROUP, lambda: loss_rencg(bundle, batch, stream("rj")).total),
    }
    checks = {}
    for name, (group, make_loss) in cases.items():
        err = directional_fd(bundle, group, make_loss)
        checks[f"grad_fd.{name}"] = [bool(err < FD_TOL), f"err/|grad|={err:.3e}"]
    return checks


def run_train(args, tracer) -> dict:
    from vidchain.chain import chain_overlap_mismatch
    from vidchain.config import RunConfig
    from vidchain.container import load_dataset
    from vidchain.model import ModelBundle
    from vidchain.training import build_pairs, train_loop, train_loop_recall

    cfg = RunConfig(steps=args.steps, seed=args.seed)
    videos, _ = load_dataset(os.path.join(args.data, "manifest.tsv"))
    clip_ckpt = os.path.join(args.out, "clip.ckpt")
    recall_ckpt = os.path.join(args.out, "recall.ckpt")

    start = time.perf_counter()
    bundle = ModelBundle.init(cfg)
    clip_clock = StepClock(bundle)
    tracer.phase = "clip"
    clip_clock.start()
    train_loop(bundle, videos, progress=clip_clock)
    tracer.phase = "io"
    bundle.save(clip_ckpt)
    recall_bundle = ModelBundle.load(clip_ckpt)
    tracer.phase = "pairs"
    pairs, _ = build_pairs(videos, cfg)
    recall_clock = StepClock(recall_bundle)
    tracer.phase = "recall"
    recall_clock.start()
    train_loop_recall(recall_bundle, pairs, progress=recall_clock)
    tracer.phase = "io"
    recall_bundle.save(recall_ckpt)
    reloaded = ModelBundle.load(recall_ckpt)
    train_s = time.perf_counter() - start
    tracer.phase = None
    peak = _peak_rss_mb()
    result = {
        "clip_step_s": clip_clock.times,
        "recall_step_s": recall_clock.times,
        "train_s": train_s,
        "peak_rss_mb": peak,
        "checks": {},
        "digests": {"clip_state": sha256(clip_ckpt),
                    "recall_state": sha256(recall_ckpt)},
    }
    if not args.checks:
        return result

    clip_loaded = ModelBundle.load(clip_ckpt)
    checks = result["checks"] = {
        "checkpoint_reload.clip": [_same_state(bundle.state_arrays(),
                                               clip_loaded.state_arrays()), ""],
        "checkpoint_reload.recall": [_same_state(recall_bundle.state_arrays(),
                                                 reloaded.state_arrays()), ""],
    }
    same = _same_state(clip_clock.snapshot,
                       _rerun_state(train_loop, ModelBundle.init(cfg), videos))
    checks["rerun_bytes.clip"] = [same, f"first {RERUN_STEPS} steps"]
    same = _same_state(recall_clock.snapshot,
                       _rerun_state(train_loop_recall, ModelBundle.load(clip_ckpt), pairs))
    checks["rerun_bytes.recall"] = [same, f"first {RERUN_STEPS} steps"]
    checks.update(gradient_checks(reloaded, videos, pairs))

    if args.steps >= CONVERGE_MIN_STEPS:
        k = max(1, args.steps // 10)
        mse = [r["enc"]["mse"] for r in clip_clock.reports]
        first, last = float(np.mean(mse[:k])), float(np.mean(mse[-k:]))
        checks["clip_recon_mse_drops"] = [last < 0.5 * first,
                                          f"{first:.3f} -> {last:.3f}"]
        before, after = (chain_overlap_mismatch(b, SEAM_CLIPS, mode="mean")
                         for b in (bundle, reloaded))
        short = [chain_overlap_mismatch(b, 8, mode="mean") for b in (bundle, reloaded)]
        checks["recall_lowers_seam_mismatch"] = [
            after < before, f"{SEAM_CLIPS} clips {before:.3f} -> {after:.3f}, "
                            f"8 clips {short[0]:.3f} -> {short[1]:.3f}"]
    return result


def run_cli(args, tracer) -> dict:
    from vidchain import cli

    tracer.phase = args.phase
    start = time.perf_counter()
    code = cli.main(args.argv)
    wall_s = time.perf_counter() - start
    tracer.phase = None
    return {"code": code, "wall_s": wall_s, "peak_rss_mb": _peak_rss_mb()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="stage", required=True)
    p = sub.add_parser("train")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--checks", action="store_true")
    p = sub.add_parser("cli")
    p.add_argument("--phase", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    for p in sub.choices.values():
        p.add_argument("--result", required=True)
        p.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.stage == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]

    tracer = layertrace.Tracer()
    if args.trace:
        layertrace.install(tracer)
    result = (run_train if args.stage == "train" else run_cli)(args, tracer)
    if args.trace:
        result["trace"] = tracer.dump()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
