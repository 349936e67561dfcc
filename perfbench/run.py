"""The vidchain benchmark: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {train,long-video} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; the package is imported from src/.
Every stage runs in its own process, one at a time (see stage.py).  The last
line of standard output is one JSON object: with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
Lines before it name the BLAS library, the state digests and the result of
every output check.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import layertrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

VIDEO_FRAMES = 48
# setup_s is the median of several set-ups, made in pairs spread over the
# run: at its start and after each chain and eval pair.  The machine's
# speed drifts over tens of seconds, and a set-up (mostly creating 400 small
# files) drifts more than the steps do; spread out, the set-ups sample the
# whole run rather than its first seconds.
SETUPS_PER_SLOT = 2
PREFIX_CLIPS = 12          # length of the shorter chain in the prefix check
STAGE_TIMEOUT_S = 150
# One BLAS thread: with two on a 2-CPU machine, steps run ~10% faster but
# their run-to-run spread more than doubles (host noise stalls both threads).
BLAS_THREADS = "1"

COMPONENTS = ("content_enc", "motion_enc", "g_c", "g_t", "fusion",
              "d_image", "d_video")


def plan(workload: str, seconds: int, tiny: bool) -> dict:
    """Sizes of one run.  A run is `rounds` rounds, each a training stage of
    `steps` steps per phase followed by `chains` pairs of a generate-long
    stage of `clips` clips and an eval stage.  Every stage recurs through
    the run, so each end-to-end metric samples the machine's drifting speed
    over the whole run, not over one stretch of it.  `train` spends its time
    in the training phases, `long-video` in chaining a long video and
    evaluating it."""
    if tiny:
        return {"videos": 40, "steps": 4, "clips": 20, "rounds": 1, "chains": 1,
                "setups": 1}
    if workload == "train":
        return {"videos": 400, "steps": 80, "clips": 400,
                "rounds": max(1, seconds // 15), "chains": 3,
                "setups": SETUPS_PER_SLOT}
    return {"videos": 400, "steps": 12, "clips": 1000,
            "rounds": max(1, seconds // 6), "chains": 1, "setups": SETUPS_PER_SLOT}


def blas_name() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def run_stage(args: list, result: str, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "stage.py"), *args[:1],
           "--result", result, *(["--trace"] if trace else []), *args[1:]]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=STAGE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"stage {' '.join(args[:3])} failed "
                           f"(exit {proc.returncode}): {proc.stderr.strip()}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def cli_stage(phase: str, argv: list, result: str, trace: bool) -> dict:
    out = run_stage(["cli", "--phase", phase, "--", *argv], result, trace)
    if out["code"] != 0:
        raise RuntimeError(f"vidchain {argv[0]} exited {out['code']}")
    return out


def merge(traces) -> dict:
    total = {}
    for trace in traces:
        for key, (calls, incl, own) in trace.items():
            entry = total.setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += own
    return total


def unit_of(name: str) -> str:
    if "_ms" in name or ".ms." in name:
        return "ms"
    return "bytes" if name.endswith("bytes_written") else "count"


def per_layer(workload, n, traces) -> dict:
    """Per-layer metrics from the stage traces; `n` holds the divisors."""
    train, chain, evals, setup = traces

    def stat(trace, phase, name):
        return trace.get(f"{phase}|{name}", [0, 0.0, 0.0])

    def ms(trace, phase, name, per, own=False):
        return 1000.0 * stat(trace, phase, name)[2 if own else 1] / per

    def ms_per_call(trace, phase, name):
        calls, incl, _ = stat(trace, phase, name)
        return 1000.0 * incl / calls if calls else 0.0

    # Layers that serve both workloads report from the workload's main
    # stage: the clip phase on train, the chain on long-video.  Where the
    # chain never calls a name, the clip phase stands in for it.
    main, phase, per = ((train, "clip", n["steps"]) if workload == "train"
                        else (chain, "chain", n["clips"]))

    def main_or_clip(name):
        if stat(main, phase, name)[0]:
            return main, phase, per
        return train, "clip", n["steps"]

    m = {"training.sample_batch_ms": ms(train, "clip", "training.sample_batch", n["steps"])}
    for loss in ("loss_d_image", "loss_d_video", "loss_enc", "loss_gen"):
        m[f"losses.{loss}_ms"] = ms(train, "clip", f"losses.{loss}", n["steps"])
    for loss in ("loss_d_image_r", "loss_d_video_merged", "loss_rencg"):
        m[f"chain.{loss}_ms"] = ms(train, "recall", f"chain.{loss}", n["steps"])
    for label in ("clip-d", "clip-enc", "clip-gen", "recall-d", "recall-joint"):
        ph = label.split("-")[0]
        m[f"autodiff.backward_ms.{label}"] = ms(train, ph, f"autodiff.backward.{label}",
                                                n["steps"])
    for ph in ("clip", "recall"):
        m[f"autodiff.tape_records.{ph}"] = (
            stat(train, ph, f"autodiff.tape_records.{ph}")[0] / n["steps"])
    for prim in layertrace.PRIMITIVES:
        trace, ph, div = main_or_clip(f"autodiff.{prim}")
        m[f"autodiff.calls.{prim}"] = stat(trace, ph, f"autodiff.{prim}")[0] / div
        m[f"autodiff.ms.{prim}"] = ms(trace, ph, f"autodiff.{prim}", div, own=True)
    m["optim.adam_ms.clip"] = ms(train, "clip", "optim.adam_step", n["steps"])
    m["optim.adam_ms.recall"] = ms(train, "recall", "optim.adam_step", n["steps"])
    m["optim.adam_ms.probe"] = ms(evals, "eval", "optim.adam_step", n["evals"])
    m["model.compose_ms"] = ms_per_call(main, phase, "model.compose")
    for comp in COMPONENTS:
        trace, ph, _ = main_or_clip(f"layers.apply_mlp.{comp}")
        m[f"layers.apply_mlp_ms.{comp}"] = ms_per_call(trace, ph,
                                                       f"layers.apply_mlp.{comp}")
    m["gaussian.reparameterize_ms"] = ms(train, "clip", "gaussian.reparameterize",
                                         n["steps"])
    m["gaussian.gaussian_kl_ms"] = ms(train, "clip", "gaussian.gaussian_kl", n["steps"])
    m["rng.split_calls"] = stat(main, phase, "rng.split")[0] / per
    m["chain.make_training_pairs_ms"] = ms_per_call(train, "pairs",
                                                    "chain.make_training_pairs")
    m["chain.chain_generate_ms"] = ms(chain, "chain", "chain.chain_generate", n["chains"])
    m["chain.clip_ms"] = ms_per_call(chain, "chain", "chain.clip")
    m["container.append_ms"] = ms_per_call(chain, "chain", "container.append")
    m["container.bytes_written"] = float(n["bytes_written"])
    m["container.save_checkpoint_ms"] = ms_per_call(train, "io", "container.save_checkpoint")
    m["container.load_checkpoint_ms"] = (
        ms_per_call(train, "io", "container.load_checkpoint") if workload == "train"
        else ms_per_call(chain, "chain", "container.load_checkpoint"))
    m["container.load_dataset_ms"] = ms_per_call(setup, "setup", "container.load_dataset")
    m["container.read_container_ms"] = ms(evals, "eval", "container.read_container",
                                          n["evals"])
    for name in ("features", "frechet_distance", "segmentwise_scores", "train_probe"):
        m[f"metrics.{name}_ms"] = ms(evals, "eval", f"metrics.{name}", n["evals"])
    m["metrics.frechet_distance_calls"] = (
        stat(evals, "eval", "metrics.frechet_distance")[0] / n["evals"])
    m["video.segment_nonoverlapping_ms"] = ms(evals, "eval",
                                              "video.segment_nonoverlapping", n["evals"])
    m["datasets.gen_shapes_dataset_ms"] = ms_per_call(setup, "setup",
                                                      "datasets.gen_shapes_dataset")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "long-video"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few seconds at toy sizes (for the self-test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "vidchain", "__init__.py")):
        print(f"error: no vidchain sources under {SRC}", file=sys.stderr)
        return 2

    # BLAS threads are pinned before numpy loads, here and in every stage.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)     # left by a killed run
    os.makedirs(work)
    try:
        return run(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)      # only when no other run is using it


def run(args, work) -> int:
    import numpy as np

    import checks
    from vidchain import cli, container, datasets
    from vidchain.config import RunConfig
    from vidchain.metrics import read_metric_report
    from vidchain.model import ModelBundle

    sizes = plan(args.workload, args.seconds, args.tiny)
    trace = bool(args.trace)
    tracer = layertrace.Tracer()
    if trace:
        layertrace.install(tracer)
        datasets.gen_shapes_dataset = tracer.wrap("datasets.gen_shapes_dataset",
                                                  datasets.gen_shapes_dataset)

    # -- set-up: dataset generation and load, plus the set-up checkpoint --------
    # Before each set-up, untimed, the file system's dirty pages are written
    # out (os.sync).  Without that, the kernel's writeback of files written
    # before (by the last set-up or stage) competed with the timed set-up,
    # which then took up to twice as long.
    setup_s = []

    def set_up(base):
        os.sync()
        data, init_ckpt = os.path.join(base, "data"), os.path.join(base, "init.ckpt")
        tracer.phase = "setup"
        start = time.perf_counter()
        manifest = datasets.gen_shapes_dataset(data, sizes["videos"], VIDEO_FRAMES,
                                               args.seed)
        videos, labels = container.load_dataset(manifest)
        ModelBundle.init(RunConfig(seed=args.seed)).save(init_ckpt)
        setup_s.append(time.perf_counter() - start)
        tracer.phase = None
        return data, init_ckpt, videos, labels

    def set_up_again(count):
        """More set-ups of the same inputs, timed and then deleted."""
        for _ in range(count):
            set_up(os.path.join(work, "setup-again"))
            shutil.rmtree(os.path.join(work, "setup-again"))

    data, init_ckpt, videos, labels = set_up(os.path.join(work, "setup"))
    set_up_again(sizes["setups"] - 1)

    # -- rounds: the two training phases, then generate-long and eval --probe ------
    # The training stage of every round is the same (same config and seed);
    # the first one also runs the train output checks.
    long_rcg, chain_tsv, eval_tsv = (os.path.join(work, f) for f in
                                     ("long.rcg", "chain.tsv", "eval.tsv"))
    trains, gen_runs, eval_runs = [], [], []
    state_digests, long_digests = [], []
    for i in range(sizes["rounds"]):
        train_dir = os.path.join(work, f"train{i}")
        os.makedirs(train_dir)
        trains.append(run_stage(
            ["train", "--data", data, "--out", train_dir, "--steps", str(sizes["steps"]),
             "--seed", str(args.seed), *(["--checks"] if i == 0 else [])],
            os.path.join(work, f"train{i}.json"), trace))
        state_digests.append(trains[-1]["digests"])
        ckpt = (os.path.join(train_dir, "recall.ckpt") if args.workload == "train"
                else init_ckpt)
        for j in range(sizes["chains"]):
            gen_runs.append(cli_stage("chain", [
                "generate-long", "--ckpt", ckpt, "--out", long_rcg,
                "--clips", str(sizes["clips"]), "--report", chain_tsv],
                os.path.join(work, f"gen{i}-{j}.json"), trace))
            long_digests.append(checks.sha256(long_rcg))
            eval_runs.append(cli_stage("eval", [
                "eval", "--data", long_rcg, "--reference", data, "--report", eval_tsv,
                "--probe", "--seed", str(args.seed)],
                os.path.join(work, f"eval{i}-{j}.json"), trace))
            set_up_again(sizes["setups"])
    results = dict(trains[0]["checks"])
    digests = dict(state_digests[0])
    digests["long_video"] = long_digests[0]
    results["trained_state_same_every_round"] = [
        all(d == state_digests[0] for d in state_digests), ""]
    results["long_video_same_every_round"] = [len(set(long_digests)) == 1, ""]

    # -- long-video output checks ------------------------------------------------------
    cfg = RunConfig.from_dict(container.load_checkpoint(ckpt)[0])
    frames = checks.read_rcg1(long_rcg)
    results.update(checks.container_checks(frames, sizes["clips"], cfg))
    def report(path):
        return {(metric, segment): value
                for metric, segment, value in read_metric_report(path)}

    chain_rows = report(chain_tsv)
    peak = chain_rows[("peak_frames", "-")]
    results["peak_frames_within_two_clips"] = [peak <= 2 * cfg.t_c,
                                               f"peak_frames={peak:g}"]
    short_rcg = os.path.join(work, "short.rcg")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["generate-long", "--ckpt", ckpt, "--out", short_rcg,
                         "--clips", str(PREFIX_CLIPS)])
    prefix = PREFIX_CLIPS * cfg.r
    same = code == 0 and np.array_equal(checks.read_rcg1(short_rcg)[:prefix],
                                        frames[:prefix])
    results["shorter_chain_same_prefix"] = [bool(same), f"{prefix} frames"]
    eval_rows = report(eval_tsv)
    results.update(checks.fid_checks(frames, videos, eval_rows, seg_len=16,
                                     seed=args.seed))
    n_classes = len(set(int(c) for c in labels if c >= 0))
    score = eval_rows[("is", "-")]
    results["diversity_in_range"] = [1.0 <= score <= n_classes,
                                     f"is={score:.4f} classes={n_classes}"]

    # -- report --------------------------------------------------------------------------
    # Step times are pooled over the rounds and their median taken.  Stage
    # times are averaged over the stages: with a handful of stages a run,
    # the mean of their times varies less from run to run than their median.
    frames_out = (sizes["clips"] - 1) * cfg.r + cfg.t_c
    steps = [t for tr in trains for t in tr["clip_step_s"]]
    recall_steps = [t for tr in trains for t in tr["recall_step_s"]]
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "clip_step_ms": (1000 * statistics.median(steps), "ms"),
        "recall_step_ms": (1000 * statistics.median(recall_steps), "ms"),
        "train_s": (statistics.fmean(tr["train_s"] for tr in trains), "s"),
        "train_peak_rss_mb": (statistics.median(tr["peak_rss_mb"] for tr in trains), "MB"),
        "chain_frames_per_s": (frames_out * len(gen_runs)
                               / sum(g["wall_s"] for g in gen_runs), "frames/s"),
        "chain_peak_rss_mb": (statistics.median(g["peak_rss_mb"] for g in gen_runs), "MB"),
        "eval_s": (statistics.fmean(e["wall_s"] for e in eval_runs), "s"),
    }
    print(f"blas: {blas_name()} threads={BLAS_THREADS}")
    print("setup_s of each set-up: " + " ".join(f"{t:.4f}" for t in setup_s))
    for name, value in digests.items():
        print(f"digest {name} sha256={value}")
    for name, (ok, detail) in results.items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    if trace:
        print("traced end-to-end: " + json.dumps(
            {k: round(v, 6) for k, (v, _) in end_to_end.items()}))
        divisors = {"steps": len(steps), "clips": sizes["clips"] * len(gen_runs),
                    "chains": len(gen_runs), "evals": len(eval_runs),
                    "bytes_written": os.path.getsize(long_rcg)}
        traces = (merge(tr["trace"] for tr in trains), merge(g["trace"] for g in gen_runs),
                  merge(e["trace"] for e in eval_runs), tracer.dump())
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in per_layer(args.workload, divisors, traces).items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    attempted = 2 * len(steps) + len(gen_runs) * (sizes["clips"] + 1)
    print(json.dumps({"correct": all(ok for ok, _ in results.values()),
                      "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
