"""Command-line surface: dataset generation, the two training phases, clip
and chained long-video generation, metric evaluation, a dataset algebra
checker, and the ablation sweep.

Conventions
-----------
* Every run is determined by (config, seed): same inputs produce the same
  output bytes.  Reports carry no timestamps and echo paths as given.
* Config resolution order: built-in defaults < checkpoint-stored config
  (where a checkpoint is loaded) < --config file < individual flags.
* The single honored environment variable is VIDCHAIN_OUT: when set,
  relative output paths are created under it.  Inputs are never remapped.
* Every tab-separated file written (a dataset manifest, a metric report,
  an ablation table) is a ``# `` line of column names, then one line of
  tab-separated fields per row, floats as their shortest repr; it is
  written atomically, by `container.write_table`.
* Exit codes: 0 success; 2 usage or configuration error; 3 missing or
  unusable file; 4 data/dimension error; 5 numeric failure.  Errors print
  exactly one line to stderr: ``error code=<kind> detail=<message>``.
* numpy's floating-point warnings are off while a command runs: the
  library's finite checks raise on every NaN or Inf, and `main` prints
  that one line.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import sys

import numpy as np

from .autodiff import GradientError, NumericsError, Tensor
from .chain import chain_generate
from .config import ConfigError, RunConfig
from .container import (ContainerError, ContainerWriter, ManifestError,
                        load_checkpoint, load_dataset, read_container,
                        save_checkpoint, write_container, write_table)
from .datasets import gen_drift_dataset, gen_shapes_dataset
from .metrics import (FeatureExtractor, GaussianFit, ProbeClassifier,
                      fvd_ratio, inception_score, reference_fits,
                      score_segments, segment_features, train_probe,
                      write_metric_report)
from .metrics import segmentwise_scores  # noqa: F401 (perfbench patches it here)
from .model import OPT_NAMES, ModelBundle
from .rng import RandomStream
from .training import build_pairs, train_loop, train_loop_recall
from .video import (decompose, reconstruct, reconstruct_from_reference,
                    segment_overlapping, stitch)

OUT_ENV = "VIDCHAIN_OUT"

ABLATE_CLIP_COUNTS = (3, 5, 7, 9, 11, 13, 15, 17)   # eight generated lengths
ABLATE_OVERLAPS = (0, 2, 4, 8)                      # training-pair overlaps
ABLATE_PROBE_CLIPS = 8                              # the overlap sweep's chain


class _Parser(argparse.ArgumentParser):
    """argparse with the one-line error contract."""

    def error(self, message):
        print(f"error code=usage detail={message}", file=sys.stderr)
        raise SystemExit(2)


def _resolve_out(path: str) -> str:
    """Apply the output-directory override to relative output paths."""
    base = os.environ.get(OUT_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file of run-configuration fields")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool" or isinstance(f.default, bool):
            parser.add_argument(flag, dest=f.name, default=None,
                                action=argparse.BooleanOptionalAction,
                                help=f"override config field {f.name}")
        else:
            kind = {"float": float, "str": str}.get(f.type, int)
            parser.add_argument(flag, dest=f.name, default=None, type=kind,
                                metavar="V",
                                help=f"override config field {f.name}")


def _effective_config(args, stored: dict | None = None) -> RunConfig:
    """defaults < checkpoint-stored < --config file < flags."""
    merged = dict(stored) if stored else {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"config file {args.config} is not "
                                  f"valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(loaded)
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            merged[f.name] = value
    return RunConfig.from_dict(merged)


def _load_bundle(args, path: str, skip: tuple[str, ...] = ()) -> ModelBundle:
    """A bundle from one read of a checkpoint: its stored config under the
    command's --config file and flags, with the architecture fields checked
    against the stored ones.  Arrays under the `skip` name prefixes stay on
    disk (see `load_checkpoint`)."""
    stored, arrays = load_checkpoint(path, skip)
    cfg = _effective_config(args, stored)
    cfg.ensure_arch_matches(stored)
    return ModelBundle.init(cfg, arrays)


def _training_config(cfg: RunConfig) -> RunConfig:
    if cfg.steps < 1:
        raise ConfigError(f"training needs steps >= 1, got {cfg.steps}")
    return cfg


def _load_videos(path: str):
    """A dataset directory (manifest) or a single container file -> list of
    (T, H, W, C) videos."""
    if os.path.isdir(path):
        return load_dataset(os.path.join(path, "manifest.tsv"))
    arr = read_container(path).astype(np.float64)
    if arr.ndim == 4:
        return [arr], None
    if arr.ndim == 5:
        return list(arr), None
    raise ContainerError(f"expected a video or clip-batch container, "
                         f"got {arr.ndim} dims")


# -- commands -----------------------------------------------------------------------

def cmd_dataset_gen(args) -> int:
    out = _resolve_out(args.out)
    os.makedirs(out, exist_ok=True)
    maker = gen_shapes_dataset if args.kind == "shapes" else gen_drift_dataset
    maker(out, args.count, args.length, args.seed)
    print(f"dataset kind={args.kind} count={args.count} length={args.length} "
          f"seed={args.seed} out={args.out}")
    return 0


def _save_trained(args, bundle: ModelBundle, reports, keys) -> dict:
    """Save a trained bundle to --out and, with --report, write each step's
    losses named by `keys` (metric -> (loss, part)); the last step's report."""
    bundle.save(_resolve_out(args.out))
    if args.report:
        write_metric_report(_resolve_out(args.report), [
            (metric, step, report[loss][part])
            for step, report in enumerate(reports)
            for metric, (loss, part) in keys.items()])
    return reports[-1]


def cmd_train(args) -> int:
    cfg = _training_config(_effective_config(args))
    videos, _ = _load_videos(args.data)
    bundle = ModelBundle.init(cfg)
    last = _save_trained(args, bundle, train_loop(bundle, videos), {
        "enc_mse": ("enc", "mse"), "d_image": ("d_image", "total"),
        "d_video": ("d_video", "total"), "gen": ("gen", "total")})
    print(f"trained steps={cfg.steps} enc_mse={last['enc']['mse']:.6f} "
          f"d_image={last['d_image']['total']:.6f} out={args.out}")
    return 0


def cmd_train_recall(args) -> int:
    bundle = (_load_bundle(args, args.init) if args.init
              else ModelBundle.init(_effective_config(args)))
    cfg = _training_config(bundle.cfg)
    videos, _ = _load_videos(args.data)
    pairs, skipped = build_pairs(videos, cfg)
    last = _save_trained(args, bundle, train_loop_recall(bundle, pairs), {
        "rencg": ("rencg", "total"), "rencg_mse": ("rencg", "mse"),
        "d_video": ("d_video", "total")})
    print(f"trained-recall steps={cfg.steps} pairs={len(pairs)} "
          f"skipped={len(skipped)} rencg={last['rencg']['total']:.6f} "
          f"out={args.out}")
    return 0


def cmd_generate(args) -> int:
    if args.count < 1:
        raise ConfigError(f"generate needs --count >= 1, got {args.count}")
    bundle = _load_bundle(args, args.ckpt, skip=OPT_NAMES)   # moments stay on disk
    cfg = bundle.cfg
    stream = RandomStream.from_seed(cfg.seed, "generate")
    z_x, z_v = bundle.prior_latents(args.count, stream)
    clips = bundle.compose(Tensor(z_x), Tensor(z_v))[1].data
    clips = clips.reshape((args.count, cfg.t_c) + cfg.frame_shape)
    write_container(_resolve_out(args.out), clips.astype(np.float32))
    print(f"generated clips={args.count} t_c={cfg.t_c} out={args.out}")
    return 0


def cmd_generate_long(args) -> int:
    if args.clips < 1:
        raise ConfigError(f"generate-long needs --clips >= 1, got {args.clips}")
    bundle = _load_bundle(args, args.ckpt, skip=OPT_NAMES)   # moments stay on disk
    cfg = bundle.cfg
    with ContainerWriter(_resolve_out(args.out), cfg.frame_shape) as writer:
        result = chain_generate(
            bundle, args.clips, mode=cfg.gen_mode, r=args.stride,
            sink=lambda block: writer.append(block.astype(np.float32)))
    if args.report:
        rows = [("seam_mismatch", j, m) for j, m in enumerate(result.mismatches)]
        rows += [("mean_mismatch", "-", result.mean_mismatch),
                 ("frames", "-", float(result.frames_emitted)),
                 ("peak_frames", "-", float(result.peak_frames))]
        write_metric_report(_resolve_out(args.report), rows)
    print(f"generated-long clips={args.clips} frames={result.frames_emitted} "
          f"stride={result.stride} mode={cfg.gen_mode} "
          f"peak_frames={result.peak_frames} "
          f"mean_mismatch={result.mean_mismatch:.6f} out={args.out}")
    return 0


def _sha256(parts) -> str:
    """sha256 of (header, float64 array) pairs, each header as JSON."""
    h = hashlib.sha256()
    for header, arr in parts:
        h.update(json.dumps(header).encode())
        h.update(np.require(arr, "<f8", "C"))
    return h.hexdigest()


def numeric_domain() -> dict:
    """What float64 bits depend on besides the sources: numpy's version and
    CPU dispatch targets, and the OpenBLAS kernel, forced and picked."""
    umath = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath
    core = None     # without numpy's bundled OpenBLAS or its core-name symbol
    for lib in pathlib.Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        with contextlib.suppress(OSError, AttributeError):
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
            get.argtypes, get.restype = [], ctypes.c_char_p
            core = get().decode()
    return {"numpy": np.__version__, "coretype": os.environ.get("OPENBLAS_CORETYPE"),
            "blas_core": core, "dispatch": [t for t in umath.__cpu_dispatch__
                                            if umath.__cpu_features__.get(t)]}


def _refstats_key(args, reference, labels) -> str:
    """sha256 of all eval's reference side depends on: the package sources,
    the `numeric_domain`, --seed, --seg-len, and each reference video's
    shape, bytes and label."""
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(pathlib.Path(__file__).parent.glob("*.py"))}
    return _sha256([([sources, numeric_domain(), args.seed, args.seg_len], [])]
                   + [([v.shape, int(c)], v) for v, c in zip(reference, labels)])


def _reference_stats(args, reference, labels, extractor):
    """`reference_fits` and, with --probe, the probe trained on the first
    segment of each labeled video.  A dataset directory keeps both in its
    `refstats.rcgb` under the `_refstats_key` and a digest of the arrays;
    a miss recomputes and replaces it, and a failed write costs only time."""
    path = (os.path.join(args.reference, "refstats.rcgb")
            if os.path.isdir(args.reference) else None)
    key = path and _refstats_key(args, reference, labels)
    try:
        header, arrays = load_checkpoint(path) if path else ({}, {})
    except (OSError, ContainerError):
        header, arrays = {}, {}
    if (header == {"key": key, "digest": _sha256(arrays.items())}
            and (not args.probe or "probe.0" in arrays)):
        fits = [GaussianFit(*m) for m in zip(arrays["means"], arrays["covs"])]
        return fits, (ProbeClassifier.from_params(
            arrays[f"probe.{i}"] for i in range(4)) if args.probe else None)
    rows = segment_features(reference, extractor, args.seg_len, "reference")
    fits = reference_fits(rows)
    probe = None
    if args.probe:
        first = (rows.position == 0) & (labels[rows.video] >= 0)
        probe = train_probe(rows.features[first], labels[rows.video[first]],
                            RandomStream.from_seed(args.seed, "eval-probe"))
    if path:
        means, covs = map(np.stack, zip(*(fit.moments for fit in fits)))
        arrays = {"means": means, "covs": covs, **{
            f"probe.{i}": p.data for i, p in enumerate(probe.params if probe else ())}}
        with contextlib.suppress(OSError):
            save_checkpoint(path, {"key": key, "digest": _sha256(arrays.items())},
                            arrays)
    return fits, probe


def cmd_eval(args) -> int:
    if args.seg_len < 2:
        raise ConfigError(f"eval needs --seg-len >= 2, got {args.seg_len}")
    generated, _ = _load_videos(args.data)
    reference, labels = _load_videos(args.reference)
    if not reference:
        raise ValueError("reference set is empty")
    if args.probe:
        if labels is None:
            raise ConfigError("--probe needs a labeled reference dataset")
        keep = (labels >= 0) & np.array([len(v) >= args.seg_len
                                         for v in reference])
        if len(np.unique(labels[keep])) < 2:
            raise ConfigError(f"--probe needs at least 2 reference classes "
                              f"among videos of {args.seg_len} frames or more")
    frame_dim = int(np.prod(np.asarray(reference[0]).shape[1:]))
    extractor = FeatureExtractor(args.seg_len, frame_dim, seed=args.seed)
    fits, probe = _reference_stats(args, reference, labels, extractor)
    segments = segment_features(generated, extractor, args.seg_len)
    scores = score_segments(segments, fits)
    rows = [("fid_segment", j, s) for j, s in enumerate(scores.scores)]
    rows += [("fid_average", "-", scores.average),
             ("fvd_16f", "-", scores.scores[0]), ("fvd_long", "-", scores.average)]
    if scores.average > 0:
        rows.append(("fvd_ratio", "-",
                     fvd_ratio(scores.scores[0], scores.average)))
    if probe is not None:
        probs = probe.predict_proba(segments.features)
        value, inter, intra = inception_score(probs)
        rows += [("is", "-", value), ("inter_entropy", "-", inter),
                 ("intra_entropy", "-", intra)]
    write_metric_report(_resolve_out(args.report), rows)
    for j, s in enumerate(scores.scores):
        print(f"segment {j} score {s!r}")
    print(f"evaluated segments={len(scores.scores)} "
          f"average={scores.average!r} excluded={len(scores.excluded)} "
          f"report={args.report}")
    return 0


def cmd_roundtrip_check(args) -> int:
    videos, _ = _load_videos(args.data)
    videos = videos[:args.limit]
    t_c = args.t_c
    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    ok_round = ok_ref = ok_stitch = True
    for video in videos:
        video = np.asarray(video)
        if len(video) < t_c:
            raise ConfigError(f"videos of {len(video)} frames are shorter "
                              f"than t_c={t_c}")
        clip = video[:t_c]
        content, motion = decompose(clip)
        ok_round &= bool(np.array_equal(reconstruct(content, motion), clip))
        for r in range(1, t_c + 1):
            rebuilt = reconstruct_from_reference(clip[r - 1], r, motion)
            ok_ref &= bool(np.array_equal(rebuilt, clip))
        r = max(1, t_c // 2)
        if len(video) >= t_c + r:
            clips = segment_overlapping(video, t_c, r)
            long = stitch(clips, r)
            ok_stitch &= bool(
                np.array_equal(long.frames, video[:len(long.frames)]))
    check("decompose-reconstruct-roundtrip", ok_round)
    check("reference-frame-reconstruction", ok_ref)
    check("segment-stitch-identity", ok_stitch)
    print(f"checked videos={len(videos)} t_c={t_c}")
    if failures:
        raise NumericsError(f"invariants failed: {', '.join(failures)}")
    return 0


def cmd_ablate(args) -> int:
    # with --init, the variants take the checkpoint's stored config under the
    # --config file and flags, as the base bundle does
    base = _load_bundle(args, args.init) if args.init else None
    cfg = base.cfg if base is not None else _effective_config(args)
    videos, _ = _load_videos(args.data)
    out_dir = _resolve_out(args.out)
    os.makedirs(out_dir, exist_ok=True)

    if base is None:
        base = ModelBundle.init(cfg)
        train_loop(base, videos)
    base_state = base.state_arrays()

    @functools.cache
    def seams(ovi: bool, mgv: bool, r: int) -> list[float]:
        """The seam mismatches of variant `cfg.replace(ovi=, mgv=, r=)`,
        trained from the base state, over one `mean` chain of the most clips
        at the config stride.  A shorter chain's seams are a prefix of it."""
        vcfg = cfg.replace(ovi=ovi, mgv=mgv, r=r)
        bundle = ModelBundle.init(vcfg, base_state)
        train_loop_recall(bundle, build_pairs(videos, vcfg)[0])
        return chain_generate(bundle, max(ABLATE_CLIP_COUNTS), mode="mean",
                              r=cfg.r, sink=lambda block: None).mismatches

    def mismatch(ovi: bool, mgv: bool, r: int, n_clips: int) -> float:
        return float(np.mean(seams(ovi, mgv, r)[:n_clips - 1]))

    # every variant is measured at the config stride, so the sweep varies
    # only the training
    t11 = [((n - 1) * cfg.r + cfg.t_c, mismatch(True, False, cfg.r, n),
            mismatch(False, True, cfg.r, n), mismatch(True, True, cfg.r, n))
           for n in ABLATE_CLIP_COUNTS]
    write_table(os.path.join(out_dir, "table11.tsv"),
                ("length", "ovi", "mgv", "recall"), t11)

    # overlap sweep: training-pair overlap o -> pair stride t_c - o; overlap
    # 0 is the disjoint-pair (mgv) variant, and stride r the recall one
    t10 = []
    for overlap in ABLATE_OVERLAPS:
        stride = cfg.t_c - overlap
        if stride >= 1:          # the overlap fits in the clip
            key = (True, True, stride) if overlap else (False, True, cfg.r)
            t10.append((overlap, stride, mismatch(*key, ABLATE_PROBE_CLIPS)))
    write_table(os.path.join(out_dir, "table10.tsv"),
                ("overlap", "stride", "mismatch"), t10)

    wins = sum(recall < ovi for _, ovi, _, recall in t11)
    print(f"ablation lengths={len(t11)} recall_beats_ovi={wins}/{len(t11)} "
          f"out={args.out}")
    return 0


# -- parser -------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="vidchain",
                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("dataset-gen", help="write a synthetic video dataset")
    p.add_argument("--kind", choices=("shapes", "drift"), default="shapes")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--count", type=int, default=400)
    p.add_argument("--length", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dataset_gen)

    p = sub.add_parser("train", help="train the clip model on a dataset")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="CKPT")
    p.add_argument("--report", metavar="FILE",
                   help="write per-step losses as a metric report")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-recall",
                       help="train the recall phase on overlapping pairs")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--init", metavar="CKPT",
                   help="checkpoint to start from (fresh model otherwise)")
    p.add_argument("--out", required=True, metavar="CKPT")
    p.add_argument("--report", metavar="FILE")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train_recall)

    p = sub.add_parser("generate", help="sample short clips from the prior")
    p.add_argument("--ckpt", required=True, metavar="CKPT")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--count", type=int, default=8)
    _add_config_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("generate-long",
                       help="chain clips into one long video")
    p.add_argument("--ckpt", required=True, metavar="CKPT")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--clips", type=int, required=True, metavar="N")
    p.add_argument("--stride", type=int, default=None,
                   help="generation stride (default: the config stride)")
    p.add_argument("--report", metavar="FILE")
    _add_config_flags(p)
    p.set_defaults(func=cmd_generate_long)

    p = sub.add_parser("eval", help="segment-wise scores of generated videos")
    p.add_argument("--data", required=True, metavar="PATH",
                   help="generated container file or dataset directory")
    p.add_argument("--reference", required=True, metavar="PATH")
    p.add_argument("--report", required=True, metavar="FILE")
    p.add_argument("--seg-len", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probe", action="store_true",
                   help="also train a probe and report the diversity score")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("roundtrip-check",
                       help="run the frame-algebra invariants on a dataset")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--t-c", dest="t_c", type=int, default=16)
    p.add_argument("--limit", type=int, default=20,
                   help="check at most this many videos")
    p.set_defaults(func=cmd_roundtrip_check)

    p = sub.add_parser("ablate",
                       help="overlap/merged-loss ablation sweep")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--init", metavar="CKPT",
                   help="pretrained clip-model checkpoint to start from")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def _fail(kind: str, code: int, exc: BaseException) -> int:
    detail = " ".join(str(exc).split())
    print(f"error code={kind} detail={detail}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse usage error or --help
        return int(exc.code or 0)
    try:
        # every NaN or Inf the library forms is caught by a finite check and
        # raised, which prints the one error line below; numpy's own
        # floating-point warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        return _fail("config", 2, exc)
    except OSError as exc:      # missing, a directory, or otherwise unusable
        return _fail("missing-file", 3, exc)
    except (ContainerError, ManifestError) as exc:
        return _fail("data-format", 4, exc)
    except (NumericsError, GradientError, np.linalg.LinAlgError) as exc:
        return _fail("numeric", 5, exc)
    except ValueError as exc:
        return _fail("dimension", 4, exc)


if __name__ == "__main__":
    sys.exit(main())
