"""Command-line surface: dataset generation, the two training phases, clip
and chained long-video generation, metric evaluation, a dataset algebra
checker, and the ablation sweep.

Conventions
-----------
* Every run is determined by (config, seed): same inputs produce the same
  output bytes.  Reports carry no timestamps and echo paths as given.
* Config resolution order: train, train-recall and ablate take defaults <
  the first video's frame shape, or the checkpoint-stored config with
  --init < --config file < flags (none for a frame field); generate and
  generate-long take the stored config under --seed (and --gen-mode).
  ablate's sweep sets ovi, mgv and gen_mode, so its --config file may not
  name them.
* The single honored environment variable is VIDCHAIN_OUT: when set,
  relative output paths are created under it.  Inputs are never remapped.
  An unusable --out or --report fails (exit 3) before any work starts.
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
import errno
import functools
import hashlib
import json
import os
import pathlib
import sys

import numpy as np

from .autodiff import GradientError, NumericsError
from .chain import chain_components, chain_generate
from .config import FRAME_FIELDS, ConfigError, RunConfig
from .container import (ContainerError, ContainerWriter, ManifestError,
                        load_checkpoint, load_dataset, read_container,
                        read_manifest, save_checkpoint, write_container,
                        write_table)
from .datasets import gen_drift_dataset, gen_shapes_dataset
from .metrics import (FeatureExtractor, GaussianFit, ProbeClassifier,
                      fvd_ratio, inception_score, reference_fits,
                      score_segments, segment_features, train_probe,
                      write_metric_report)
from .metrics import segmentwise_scores  # noqa: F401 (perfbench patches it here)
from .model import GEN_GROUP, ModelBundle
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


def _out_path(path: str) -> str:
    """Apply the output-directory override to a relative output path."""
    return os.path.join(os.environ.get(OUT_ENV, ""), path)


def _resolve_out(path: str) -> str:
    """`_out_path` with its parent directory made."""
    path = _out_path(path)
    if os.path.dirname(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _check_outputs(args) -> None:
    """Raise, creating nothing, the OSError writing --out or --report would: a
    file output that is a directory, or a path at or below a regular file where
    a directory goes (dataset-gen and ablate write --out as a directory)."""
    for name in ("out", "report"):
        if getattr(args, name, None) is None:
            continue
        path = pathlib.Path(_out_path(getattr(args, name)))
        is_dir = name == "out" and args.command in ("dataset-gen", "ablate")
        if path.is_dir() and not is_dir:
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        start = path if is_dir else path.parent
        if not next(p for p in (start, *start.parents) if p.exists()).is_dir():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))


def _add_config_flags(parser: argparse.ArgumentParser, skip=()) -> None:
    """--config and a flag per `RunConfig` field but FRAME_FIELDS and `skip`,
    the fields the command sets itself, which the --config file may not name."""
    parser.set_defaults(fixed_fields=skip)
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file of run-configuration fields")
    for f in dataclasses.fields(RunConfig):
        if f.name in FRAME_FIELDS + skip:
            continue
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
    """defaults < checkpoint-stored < --config file < flags, as parsed."""
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
        fixed = [name for name in args.fixed_fields if name in loaded]
        if fixed:
            raise ConfigError(f"{args.command} sets {', '.join(fixed)} itself; "
                              f"config file {args.config} may not name them")
        merged.update(loaded)
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            merged[f.name] = value
    return RunConfig.from_dict(merged)


def _load_bundle(args, path: str, runs=None) -> ModelBundle:
    """`ModelBundle.load` of a checkpoint under the command's --config file
    and flags, checked against the stored architecture fields as soon as
    the stored config is read; `runs` as there."""
    def resolve(stored: dict) -> RunConfig:
        cfg = _effective_config(args, stored)
        cfg.ensure_arch_matches(stored)
        return cfg

    return ModelBundle.load(path, resolve, runs)


def _training_bundle(args, videos) -> ModelBundle:
    """The bundle a command trains on `videos`: restored from --init (see
    `_load_bundle`) or fresh from the effective config over the first video's
    frame shape; either must train at least one step."""
    shape = dict(zip(FRAME_FIELDS, np.shape(videos[0])[1:])) if videos else {}
    bundle = (_load_bundle(args, args.init) if getattr(args, "init", None)
              else ModelBundle.init(_effective_config(args, shape)))
    if bundle.cfg.steps < 1:
        raise ConfigError(f"training needs steps >= 1, got {bundle.cfg.steps}")
    return bundle


def _load_videos(path: str):
    """A dataset directory (manifest) or a single container file -> list of
    (T, H, W, C) videos, each at its container's dtype."""
    if os.path.isdir(path):
        return load_dataset(os.path.join(path, "manifest.tsv"))
    arr = read_container(path)      # at its stored width, as `load_dataset`
    if arr.ndim == 4:
        return [arr], None
    if arr.ndim == 5:
        return list(arr), None
    raise ContainerError(f"expected a video or clip-batch container, "
                         f"got {arr.ndim} dims")


# -- commands -----------------------------------------------------------------------

def cmd_dataset_gen(args) -> int:
    maker = gen_shapes_dataset if args.kind == "shapes" else gen_drift_dataset
    maker(_out_path(args.out), args.count, args.length, args.seed)
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
    videos, _ = _load_videos(args.data)
    bundle = _training_bundle(args, videos)
    last = _save_trained(args, bundle, train_loop(bundle, videos), {
        "enc_mse": ("enc", "mse"), "d_image": ("d_image", "total"),
        "d_video": ("d_video", "total"), "gen": ("gen", "total")})
    print(f"trained steps={bundle.cfg.steps} enc_mse={last['enc']['mse']:.6f} "
          f"d_image={last['d_image']['total']:.6f} out={args.out}")
    return 0


def cmd_train_recall(args) -> int:
    videos, _ = _load_videos(args.data)
    bundle = _training_bundle(args, videos)
    cfg = bundle.cfg
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
    bundle = _load_bundle(args, args.ckpt, runs=lambda cfg: GEN_GROUP)
    cfg = bundle.cfg
    stream = RandomStream.from_seed(cfg.seed, "generate")
    clips = bundle.compose(*bundle.prior_latents(args.count, stream))[1].data
    clips = clips.reshape((args.count, cfg.t_c) + cfg.frame_shape)
    write_container(_resolve_out(args.out), clips.astype(np.float32))
    print(f"generated clips={args.count} t_c={cfg.t_c} out={args.out}")
    return 0


def cmd_generate_long(args) -> int:
    if args.clips < 1:
        raise ConfigError(f"generate-long needs --clips >= 1, got {args.clips}")
    bundle = _load_bundle(args, args.ckpt,
                          runs=lambda cfg: chain_components(cfg.gen_mode))
    cfg = bundle.cfg
    stride = cfg.r if args.stride is None else args.stride
    if not 1 <= stride < cfg.t_c:
        raise ConfigError(f"generate-long needs 1 <= --stride < t_c={cfg.t_c}, "
                          f"got {stride}")
    with ContainerWriter(_resolve_out(args.out), cfg.frame_shape) as writer:
        result = chain_generate(bundle, args.clips, mode=cfg.gen_mode, r=stride,
                                sink=writer.append)
    if args.report:
        rows = [("seam_mismatch", j, m) for j, m in enumerate(result.mismatches)]
        rows += [("mean_mismatch", "-", result.mean_mismatch),
                 ("frames", "-", float(result.frames_emitted)),
                 ("peak_frames", "-", float(result.peak_frames))]
        write_metric_report(_resolve_out(args.report), rows)
    print(f"generated-long clips={args.clips} frames={result.frames_emitted} "
          f"stride={stride} mode={cfg.gen_mode} "
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


def _refstats_key(args) -> tuple[str, list]:
    """sha256 of all eval's reference side depends on: the package sources,
    the `numeric_domain`, --seed, --seg-len, and the reference dataset's
    manifest and container files, byte for byte; and the manifest's records."""
    manifest = pathlib.Path(args.reference, "manifest.tsv")
    records = read_manifest(manifest)
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(pathlib.Path(__file__).parent.glob("*.py"))}
    h = hashlib.sha256(json.dumps(
        [sources, numeric_domain(), args.seed, args.seg_len]).encode())
    for name in [manifest.name] + [rec.path for rec in records]:
        blob = (manifest.parent / name).read_bytes()
        h.update(json.dumps([name, len(blob)]).encode())
        h.update(blob)
    return h.hexdigest(), records


def _reference_stats(args):
    """The feature extractor, the `reference_fits` and, with --probe, the
    probe trained on the first segment of each labeled reference video.  A
    dataset directory keeps fits and probe in its `refstats.rcgb` under the
    `_refstats_key` and an array digest: a hit reads the reference only to
    hash it, a miss (or read error) loads it and replaces the file."""
    key, header, arrays = None, {}, {}
    path = os.path.join(args.reference, "refstats.rcgb")
    if os.path.isdir(args.reference):
        with contextlib.suppress(OSError, ContainerError, ManifestError):
            key, records = _refstats_key(args)
            header, arrays = load_checkpoint(path)
    if (key and header == {"key": key, "digest": _sha256(arrays.items())}
            and (not args.probe or "probe.0" in arrays)):
        rec = records[0]
        extractor = FeatureExtractor(args.seg_len, rec.height * rec.width * rec.channels,
                                     seed=args.seed)
        return extractor, GaussianFit(arrays["means"], arrays["covs"]), (
            ProbeClassifier([arrays[f"probe.{i}"] for i in range(4)])
            if args.probe else None)
    reference, labels = _load_videos(args.reference)
    if not reference:
        raise ValueError("reference set is empty")
    if args.probe:
        if labels is None:
            raise ConfigError("--probe needs a labeled reference dataset")
        keep = (labels >= 0) & np.array([len(v) >= args.seg_len for v in reference])
        if len(set(labels[keep].tolist())) < 2:     # np.unique imports numpy.ma
            raise ConfigError(f"--probe needs at least 2 reference classes "
                              f"among videos of {args.seg_len} frames or more")
    frame_dim = int(np.prod(np.asarray(reference[0]).shape[1:]))
    extractor = FeatureExtractor(args.seg_len, frame_dim, seed=args.seed)
    rows = segment_features(reference, extractor, args.seg_len, "reference")
    fits = reference_fits(rows)
    probe = None
    if args.probe:
        first = (rows.position == 0) & (labels[rows.video] >= 0)
        probe = train_probe(rows.features[first], labels[rows.video[first]],
                            RandomStream.from_seed(args.seed, "eval-probe"))
    if key:
        means, covs = fits.moments
        arrays = {"means": means, "covs": covs, **{
            f"probe.{i}": p for i, p in enumerate(probe.params if probe else ())}}
        with contextlib.suppress(OSError):
            save_checkpoint(path, {"key": key, "digest": _sha256(arrays.items())}, arrays)
    return extractor, fits, probe


def cmd_eval(args) -> int:
    if args.seg_len < 2:
        raise ConfigError(f"eval needs --seg-len >= 2, got {args.seg_len}")
    generated, _ = _load_videos(args.data)
    extractor, fits, probe = _reference_stats(args)
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
    if args.t_c < 2:
        raise ConfigError(f"roundtrip-check needs --t-c >= 2, got {args.t_c}")
    if args.limit < 1:
        raise ConfigError(f"roundtrip-check needs --limit >= 1, got {args.limit}")
    videos, _ = _load_videos(args.data)
    videos = videos[:args.limit]
    if not videos:
        raise ValueError(f"no videos to check in {args.data}")
    t_c = args.t_c
    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    stride = t_c // 2   # the default config r
    ok_round = ok_ref = True
    stitched = []       # one verdict per video long enough to stitch
    for video in videos:
        video = np.asarray(video, dtype=np.float64)   # the algebra is exact in float64
        if len(video) < t_c:
            raise ConfigError(f"videos of {len(video)} frames are shorter "
                              f"than t_c={t_c}")
        clip = video[:t_c]
        content, motion = decompose(clip)
        ok_round &= bool(np.array_equal(reconstruct(content, motion), clip))
        for r in range(1, t_c + 1):
            rebuilt = reconstruct_from_reference(clip[r - 1], r, motion)
            ok_ref &= bool(np.array_equal(rebuilt, clip))
        if len(video) >= t_c + stride:
            long = stitch(segment_overlapping(video, t_c, stride), stride)
            stitched.append(bool(np.array_equal(long, video[:len(long)])))
    check("decompose-reconstruct-roundtrip", ok_round)
    check("reference-frame-reconstruction", ok_ref)
    if stitched:
        check("segment-stitch-identity", all(stitched))
    else:
        print(f"SKIP segment-stitch-identity (no video of {t_c + stride} frames)")
    print(f"checked videos={len(videos)} t_c={t_c}")
    if failures:
        raise NumericsError(f"invariants failed: {', '.join(failures)}")
    return 0


def cmd_ablate(args) -> int:
    # with --init, the variants take the checkpoint's stored config under the
    # --config file and flags, as the base bundle does
    videos, _ = _load_videos(args.data)
    base = _training_bundle(args, videos)
    cfg = base.cfg

    if not args.init:
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
                              r=cfg.r).mismatches

    def mismatch(ovi: bool, mgv: bool, r: int, n_clips: int) -> float:
        return float(np.mean(seams(ovi, mgv, r)[:n_clips - 1]))

    # every variant is measured at the config stride, so the sweep varies
    # only the training
    t11 = [((n - 1) * cfg.r + cfg.t_c, mismatch(True, False, cfg.r, n),
            mismatch(False, True, cfg.r, n), mismatch(True, True, cfg.r, n))
           for n in ABLATE_CLIP_COUNTS]
    # --out is made only now, when there is a table to write in it
    write_table(_resolve_out(os.path.join(args.out, "table11.tsv")),
                ("length", "ovi", "mgv", "recall"), t11)

    # overlap sweep: training-pair overlap o -> pair stride t_c - o; overlap
    # 0 is the disjoint-pair (mgv) variant, and stride r the recall one
    t10 = []
    for overlap in ABLATE_OVERLAPS:
        stride = cfg.t_c - overlap
        if stride >= 1:          # the overlap fits in the clip
            key = (True, True, stride) if overlap else (False, True, cfg.r)
            t10.append((overlap, stride, mismatch(*key, ABLATE_PROBE_CLIPS)))
    write_table(_resolve_out(os.path.join(args.out, "table10.tsv")),
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
    p.add_argument("--seed", type=int, help="override the stored seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("generate-long",
                       help="chain clips into one long video")
    p.add_argument("--ckpt", required=True, metavar="CKPT")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--clips", type=int, required=True, metavar="N")
    p.add_argument("--stride", type=int, default=None,
                   help="generation stride (default: the config stride)")
    p.add_argument("--report", metavar="FILE")
    p.add_argument("--seed", type=int, help="override the stored seed")
    p.add_argument("--gen-mode", help="override the stored gen_mode")
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
    _add_config_flags(p, skip=("ovi", "mgv", "gen_mode"))   # set by the sweep
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
            _check_outputs(args)
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
