"""Acceptance suite: nine end-to-end checks that pin the package's headline
behaviors — exact frame algebra, verified gradients, closed-form loss values,
real (small) training convergence, recall effectiveness, fixed-memory long
generation, the evaluation protocol, the ablation harness, and whole-pipeline
byte determinism.  Each test prints one `criterion N: PASS/FAIL` line with
its measured numbers.

These tests train real models on one CPU core; the full file takes about
9 minutes (531 s on 2 CPUs).  Every run is deterministic, so the printed numbers are
stable across machines up to timing.
"""

import os
import time

import numpy as np
import pytest

import vidchain.autodiff as ad
from vidchain.autodiff import Tensor
from vidchain.chain import (chain_generate, chain_overlap_mismatch,
                            loss_d_image_r, loss_d_video_merged,
                            loss_d_video_r1, loss_rencg)
from vidchain.cli import main as cli_main
from vidchain.config import RunConfig
from vidchain.container import load_dataset
from vidchain.datasets import gen_shapes_dataset
from vidchain.gaussian import GaussianParams, gaussian_kl
from vidchain.losses import (loss_d_image, loss_d_video, loss_enc,
                             loss_enc_v, loss_gen)
from vidchain.metrics import (FeatureExtractor, GaussianFit, frechet_distance,
                              fvd_ratio, inception_score, segmentwise_scores)
from vidchain.model import D_GROUP, ENC_GROUP, GEN_GROUP, ModelBundle
from vidchain.training import build_pairs, train_loop, train_loop_recall
from vidchain.video import (decompose, reconstruct,
                            reconstruct_from_reference, stitch)

from test_chain import tiny_pairs
from test_losses import (TINY, directional_fd, random_clips, stream,
                         tiny_bundle, zero_discriminators)

# the criteria train real models for minutes; `pytest -m "not slow"` skips
# this file for a fast edit-test loop
pytestmark = pytest.mark.slow

LN2 = np.log(2.0)

# ablation-harness run: recall-phase steps per variant, on the shared
# 2000-step base checkpoint (see trained_base).  800 steps is long enough
# for the pair-chaining discriminator term to separate the variants on
# every chain length at this scale (measured margin-vs-steps curves), while
# keeping the harness run's five trainings moderate.
ABLATE_RECALL_STEPS = 800


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# -- shared artifacts (built once, reused across criteria) ---------------------------

@pytest.fixture(scope="session")
def shapes400(tmp_path_factory):
    """The toy dataset all training criteria share: 400 shapes videos,
    48 frames, 16x16x1, seed 0."""
    data_dir = tmp_path_factory.mktemp("shapes400")
    gen_shapes_dataset(data_dir, 400, 48, 0)
    videos, labels = load_dataset(os.path.join(data_dir, "manifest.tsv"))
    return {"dir": data_dir, "videos": videos, "labels": labels}


@pytest.fixture(scope="session")
def trained_base(shapes400, tmp_path_factory):
    """One 2000-step clip-model training run under the default config,
    timed, with its checkpoint saved for the ablation harness."""
    t0 = time.perf_counter()
    cfg = RunConfig()                      # 16x16x1, t_c=16, steps=2000, seed=0
    bundle = ModelBundle.init(cfg)
    reports = train_loop(bundle, shapes400["videos"])
    seconds = time.perf_counter() - t0
    ckpt = tmp_path_factory.mktemp("base") / "base.ckpt"
    bundle.save(ckpt)
    return {"bundle": bundle, "reports": reports, "seconds": seconds,
            "ckpt": ckpt}


# -- 1: exact frame algebra ----------------------------------------------------------

def test_criterion_01_frame_algebra_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    def grid_clip(shape):
        # Clips carry values on the 32-bit grid (the storage precision of
        # every dataset here); diffs and running sums are then exactly
        # representable at 64-bit, which is what bit-exactness relies on.
        return rng.standard_normal(shape).astype(np.float32).astype(np.float64)

    roundtrips = 0
    for _ in range(100):
        t = int(rng.integers(2, 12))
        clip = grid_clip((t, 4, 4, 1))
        content, motion = decompose(clip)
        roundtrips += np.array_equal(reconstruct(content, motion), clip)

    ref_ok = 0
    t_c = 8
    for _ in range(100):
        clip = grid_clip((t_c, 3, 3, 2))
        _, motion = decompose(clip)
        ref_ok += all(
            np.array_equal(reconstruct_from_reference(clip[r - 1], r, motion),
                           clip)
            for r in range(1, t_c + 1))

    lengths_ok = 0
    for _ in range(200):
        t = int(rng.integers(2, 10))
        r = int(rng.integers(1, t))
        n = int(rng.integers(1, 12))
        first = grid_clip((t, 2, 2, 1))
        clips = [first]
        for _ in range(n - 1):
            nxt = np.concatenate([clips[-1][r:], grid_clip((r, 2, 2, 1))])
            clips.append(nxt)
        long = stitch(clips, r)
        lengths_ok += len(long.frames) == (n - 1) * r + t

    seconds = time.perf_counter() - t0
    ok = roundtrips == 100 and ref_ok == 100 and lengths_ok == 200
    report(1, ok and seconds < 10,
           f"roundtrip {roundtrips}/100, reference-rebuild {ref_ok}/100, "
           f"stitch-length {lengths_ok}/200, {seconds:.1f}s (< 10s)")


# -- 2: finite-difference gradient suite ---------------------------------------------

def test_criterion_02_gradient_suite():
    t0 = time.perf_counter()
    clips = random_clips(b=2)
    pairs = tiny_pairs(n_videos=1, length=8)

    def on_clips(fn):
        def make(b):
            return lambda: fn(b, clips, stream(seed=3))
        return make

    def on_pairs(fn):
        def make(b):
            return lambda: fn(b, pairs, stream(seed=3))
        return make

    cases = [
        ("enc", on_clips(loss_enc), (ENC_GROUP, GEN_GROUP)),
        ("enc_v", on_clips(loss_enc_v), (ENC_GROUP, GEN_GROUP)),
        ("gen", on_clips(loss_gen), (GEN_GROUP, ENC_GROUP)),
        ("d_image", on_clips(loss_d_image), (D_GROUP,)),
        ("d_video", on_clips(loss_d_video), (D_GROUP,)),
        ("rencg", on_pairs(loss_rencg), (ENC_GROUP, GEN_GROUP)),
        ("d_image_r", on_pairs(loss_d_image_r), (D_GROUP,)),
        ("d_video_r1", on_pairs(loss_d_video_r1), (D_GROUP,)),
        ("d_video_merged", on_pairs(loss_d_video_merged),
         (D_GROUP, GEN_GROUP)),
    ]
    worst_name, worst = "", 0.0
    for name, make, groups in cases:
        for group in groups:
            bundle = tiny_bundle()
            err = directional_fd(bundle, group, make(bundle))
            if err > worst:
                worst_name, worst = f"{name}/{group}", err
    seconds = time.perf_counter() - t0
    report(2, worst < 1e-4 and seconds < 300,
           f"9 losses x parameter groups, worst rel. err {worst:.2e} "
           f"({worst_name}) < 1e-4, {seconds:.1f}s (< 5 min)")


# -- 3: closed-form values -----------------------------------------------------------

def test_criterion_03_closed_forms():
    tol = 1e-9
    errs = {}

    q = GaussianParams(Tensor(np.ones((1, 1))), Tensor(np.zeros((1, 1))))
    errs["kl(mu=1,var=1)=0.5"] = abs(gaussian_kl(q).item() - 0.5)

    bundle = zero_discriminators(tiny_bundle())
    clips = random_clips(b=2)
    pairs = tiny_pairs(n_videos=1, length=8)
    errs["d_image=3ln2"] = abs(
        loss_d_image(bundle, clips, stream()).total.item() - 3 * LN2)
    errs["d_video=3ln2"] = abs(
        loss_d_video(bundle, clips, stream()).total.item() - 3 * LN2)
    errs["d_video_merged=3ln2"] = abs(
        loss_d_video_merged(bundle, pairs, stream()).total.item() - 3 * LN2)
    errs["d_image_r=2ln2"] = abs(
        loss_d_image_r(bundle, pairs, stream()).total.item() - 2 * LN2)
    errs["d_video_r1=2ln2"] = abs(
        loss_d_video_r1(bundle, pairs, stream()).total.item() - 2 * LN2)
    errs["gen_adv=4ln2"] = abs(
        loss_gen(bundle, clips, stream()).parts["adv"] - 4 * LN2)

    shift = frechet_distance(GaussianFit([0.0], [[1.0]]),
                             GaussianFit([1.0], [[1.0]]))
    spread = frechet_distance(GaussianFit([0.0], [[4.0]]),
                              GaussianFit([0.0], [[1.0]]))
    errs["frechet(mu+1)=1"] = abs(shift - 1.0)
    errs["frechet(sd 2 vs 1)=1"] = abs(spread - 1.0)

    uniform = np.full((6, 4), 0.25)
    onehot = np.tile(np.eye(4), (3, 1))
    is_u, _, _ = inception_score(uniform)
    is_o, _, _ = inception_score(onehot)
    errs["is(uniform)=1"] = abs(is_u - 1.0)
    errs["is(one-hot,4)=4"] = abs(is_o - 4.0)

    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(5), size=40)
    value, inter, intra = inception_score(probs)
    errs["log is = inter - intra"] = abs(np.log(value) - (inter - intra))

    worst = max(errs, key=errs.get)
    report(3, max(errs.values()) < tol,
           f"{len(errs)} identities, worst |err| {errs[worst]:.1e} "
           f"({worst}) < 1e-9")


# -- 4: clip-model convergence -------------------------------------------------------

def test_criterion_04_clip_training_converges(trained_base):
    reports = trained_base["reports"]
    seconds = trained_base["seconds"]
    mse_10 = reports[9]["enc"]["mse"]
    mse_2000 = reports[1999]["enc"]["mse"]
    ratio = mse_2000 / mse_10
    tail = [r["d_image"]["total"] for r in reports[-500:]]
    lo, hi = min(tail), max(tail)
    ok = ratio < 0.20 and lo > 0.2 and hi < 4.0 and seconds < 600
    report(4, ok,
           f"enc MSE {mse_10:.3f} -> {mse_2000:.4f} (ratio {ratio:.1%} < 20%), "
           f"image-D final-500 range [{lo:.3f}, {hi:.3f}] in (0.2, 4.0), "
           f"{seconds:.0f}s (< 600s)")


# -- 5: recall training shrinks seam mismatch ----------------------------------------

def test_criterion_05_recall_halves_seam_mismatch(shapes400):
    t0 = time.perf_counter()
    cfg = RunConfig()                      # steps=2000, seed=0
    bundle = ModelBundle.init(cfg)
    before = chain_overlap_mismatch(bundle, 8, mode="mean")
    pairs, skipped = build_pairs(shapes400["videos"], cfg)
    train_loop_recall(bundle, pairs)
    after = chain_overlap_mismatch(bundle, 8, mode="mean")
    seconds = time.perf_counter() - t0
    ratio = after / before
    report(5, ratio <= 0.5 and seconds < 900,
           f"mean-mode mismatch (8 clips) {before:.4f} -> {after:.4f} "
           f"(ratio {ratio:.1%} <= 50%), {len(pairs)} pairs, "
           f"{seconds:.0f}s (< 900s)")


# -- 6: fixed-memory long generation -------------------------------------------------

def test_criterion_06_fixed_memory_chain():
    cfg = RunConfig()                      # t_c=16, r=8
    bundle = ModelBundle.init(cfg)
    result = chain_generate(bundle, 127, sink=lambda block: None)
    ok = result.frames_emitted == 1024 and result.peak_frames <= 2 * cfg.t_c
    report(6, ok,
           f"127 clips -> {result.frames_emitted} frames (= 1024), "
           f"peak buffer {result.peak_frames} frames <= {2 * cfg.t_c}")


# -- 7: evaluation protocol ----------------------------------------------------------

def test_criterion_07_evaluation_protocol(shapes400):
    videos = shapes400["videos"]
    fx = FeatureExtractor(16, 256, seed=0)

    selfs = segmentwise_scores(videos, videos, fx, seg_len=16)
    self_max = max(selfs.scores)

    a, b = videos[:200], videos[200:]
    halves = segmentwise_scores(a, b, fx, seg_len=16)
    rng = np.random.default_rng(1)
    noise = [rng.uniform(-1.0, 1.0, (48, 16, 16, 1)) for _ in range(200)]
    vs_noise = segmentwise_scores(noise, b, fx, seg_len=16)
    separation = vs_noise.average / halves.average

    ratio = fvd_ratio(113.5, 145.9)
    ok = (self_max < 1e-6 and separation >= 10.0
          and abs(ratio - 0.778) <= 1e-3)
    report(7, ok,
           f"self-eval max {self_max:.1e} < 1e-6, noise/halves separation "
           f"{separation:.0f}x >= 10x, ratio(113.5, 145.9) = {ratio:.4f} "
           f"= 0.778 +- 1e-3")


# -- 8: ablation harness -------------------------------------------------------------

def test_criterion_08_ablation_harness(shapes400, trained_base, tmp_path):
    out = tmp_path / "ablation"
    code = cli_main(["ablate", "--data", str(shapes400["dir"]),
                     "--init", str(trained_base["ckpt"]),
                     "--steps", str(ABLATE_RECALL_STEPS),
                     "--out", str(out)])
    assert code == 0

    t11 = (out / "table11.tsv").read_text().strip().splitlines()
    header, rows = t11[0], [l.split("\t") for l in t11[1:]]
    lengths = [int(r[0]) for r in rows]
    ovi = [float(r[1]) for r in rows]
    recall = [float(r[3]) for r in rows]
    wins = sum(rv < ov for rv, ov in zip(recall, ovi))

    t10 = (out / "table10.tsv").read_text().strip().splitlines()
    overlaps = [int(l.split("\t")[0]) for l in t10[1:]]

    structure = (header == "# length\tovi\tmgv\trecall"
                 and lengths == [32, 48, 64, 80, 96, 112, 128, 144]
                 and overlaps == [0, 2, 4, 8])
    report(8, structure and wins == 8,
           f"table structure {'ok' if structure else 'WRONG'}; recall beats "
           f"ovi on {wins}/8 lengths "
           f"(recall {[f'{v:.3f}' for v in recall]} vs "
           f"ovi {[f'{v:.3f}' for v in ovi]})")


# -- 9: byte-level determinism of the pipeline ---------------------------------------

def test_criterion_09_byte_reproducible_pipeline(tmp_path):
    # dataset-gen emits 16x16 videos, so the model keeps the default frame size
    flags = ["--t-c", "4", "--r", "2", "--z-content", "8", "--z-motion", "4",
             "--hidden", "16", "--batch", "2", "--steps", "3"]
    data = tmp_path / "data"
    assert cli_main(["dataset-gen", "--out", str(data), "--count", "6",
                     "--length", "12", "--seed", "0"]) == 0

    def twice(cmd, outputs):
        payloads = []
        for tag in ("a", "b"):
            paths = {k: tmp_path / f"{k}.{tag}" for k in outputs}
            argv = [arg.format(**{k: str(v) for k, v in paths.items()})
                    for arg in cmd]
            assert cli_main(argv) == 0
            payloads.append(tuple(p.read_bytes() for p in paths.values()))
        return payloads[0] == payloads[1]

    results = {
        "train": twice(
            ["train", "--data", str(data), "--out", "{ckpt}",
             "--seed", "5", *flags], ["ckpt"]),
        "train-recall": twice(
            ["train-recall", "--data", str(data), "--out", "{rckpt}",
             "--seed", "5", *flags], ["rckpt"]),
        "generate-long": twice(
            ["generate-long", "--ckpt", str(tmp_path / "ckpt.a"),
             "--out", "{video}", "--clips", "5", "--report", "{rep}"],
            ["video", "rep"]),
        "eval": twice(
            ["eval", "--data", str(tmp_path / "video.a"),
             "--reference", str(data), "--seg-len", "4",
             "--report", "{score}"], ["score"]),
    }
    bad = [k for k, same in results.items() if not same]
    report(9, not bad,
           "byte-identical reruns: " + ", ".join(results) if not bad
           else f"outputs differ for: {', '.join(bad)}")
