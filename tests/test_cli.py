"""Command-line surface: artifacts, exit codes, determinism, overrides."""

import argparse
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import vidchain
from vidchain.chain import chain_overlap_mismatch
from vidchain.cli import build_parser, main
from vidchain.config import RunConfig
from vidchain.container import (load_checkpoint, load_dataset, read_container,
                                save_checkpoint, write_container)
from vidchain.metrics import read_metric_report
from vidchain.model import COMPONENTS, ModelBundle
from vidchain.training import build_pairs, train_loop, train_loop_recall

TINY_FLAGS = ["--t-c", "4", "--r", "2", "--z-content", "8", "--z-motion", "4",
              "--hidden", "16", "--batch", "2"]


def _write_dataset(out, frames):
    """Six random 4x4x1 videos of `frames` frames, in two classes."""
    rng = np.random.default_rng(0)
    from vidchain.container import ContainerWriter, write_manifest, ManifestRecord
    records = []
    for i in range(6):
        video = rng.uniform(-1, 1, (frames, 4, 4, 1)).astype(np.float32)
        # snap to the float32 grid already; label two classes
        out.mkdir(exist_ok=True)
        name = f"video_{i:05d}.rcg"
        writer = ContainerWriter(out / name, (4, 4, 1))
        writer.append(video)
        writer.close()
        records.append(ManifestRecord(name, frames, 4, 4, 1, i % 2))
    write_manifest(out / "manifest.tsv", records)
    return out


@pytest.fixture()
def tiny_dataset(tmp_path):
    return _write_dataset(tmp_path / "data", 12)


def run(args):
    return main([str(a) for a in args])


def test_dataset_gen_writes_manifest(tmp_path):
    out = tmp_path / "ds"
    assert run(["dataset-gen", "--kind", "shapes", "--out", out,
                "--count", "8", "--length", "20", "--seed", "1"]) == 0
    assert (out / "manifest.tsv").exists()
    assert run(["roundtrip-check", "--data", out, "--t-c", "16"]) == 0


def test_roundtrip_check_reports_failed_invariants(tmp_path, capsys):
    """Pixels off the float32-sum grid break the float64 running sums, so
    both reconstruction invariants fail; stitching only copies frames and
    still passes.  The failures exit 5 after every check has printed."""
    video = np.array([1e-8, 3e7, -7e-9] * 3, np.float32)[:8].reshape(8, 1, 1, 1)
    write_container(tmp_path / "v.rcg", video)
    assert run(["roundtrip-check", "--data", tmp_path / "v.rcg",
                "--t-c", "4"]) == 5
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "FAIL decompose-reconstruct-roundtrip",
        "FAIL reference-frame-reconstruction",
        "PASS segment-stitch-identity",
        "checked videos=1 t_c=4"]
    assert err.splitlines() == [
        "error code=numeric detail=invariants failed: "
        "decompose-reconstruct-roundtrip, reference-frame-reconstruction"]


def test_roundtrip_check_skips_stitching_without_a_long_video(tmp_path, capsys):
    """Stitching at --t-c 16 needs a video of t_c + t_c // 2 = 24 frames:
    with only 20-frame videos that check is reported as skipped, not passed."""
    assert run(["dataset-gen", "--out", tmp_path / "ds", "--count", "3",
                "--length", "20"]) == 0
    capsys.readouterr()
    assert run(["roundtrip-check", "--data", tmp_path / "ds"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS decompose-reconstruct-roundtrip",
        "PASS reference-frame-reconstruction",
        "SKIP segment-stitch-identity (no video of 24 frames)",
        "checked videos=3 t_c=16"]


def test_dataset_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["dataset-gen", "--out", out, "--count", "4",
                    "--length", "20", "--seed", "7"]) == 0
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_checkpoint_byte_reproducible(tiny_dataset, tmp_path):
    outs = []
    for name in ("one.ckpt", "two.ckpt"):
        path = tmp_path / name
        assert run(["train", "--data", tiny_dataset, "--out", path,
                    "--steps", "3", "--seed", "5", *TINY_FLAGS]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_train_takes_the_frame_shape_from_the_data(tiny_dataset, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", *TINY_FLAGS]) == 0
    stored, _ = load_checkpoint(ckpt)
    assert (stored["height"], stored["width"], stored["channels"]) == (4, 4, 1)


def test_train_report_and_config_file(tiny_dataset, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"steps": 2, "seed": 9, "t_c": 4, "r": 2,
                                    "height": 4, "width": 4, "channels": 1,
                                    "z_content": 8, "z_motion": 4,
                                    "hidden": 16, "batch": 2}))
    ckpt = tmp_path / "m.ckpt"
    report = tmp_path / "train.tsv"
    # flag overrides the file's steps=2
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--config", cfg_file, "--steps", "3",
                "--report", report]) == 0
    stored, _ = load_checkpoint(ckpt)
    assert stored["steps"] == 3 and stored["seed"] == 9
    rows = read_metric_report(report)
    steps_seen = {int(s) for metric, s, _ in rows if metric == "enc_mse"}
    assert steps_seen == {0, 1, 2}


def test_recall_resumes_and_generates(tiny_dataset, tmp_path):
    base, recall = tmp_path / "base.ckpt", tmp_path / "recall.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", base,
                "--steps", "2", *TINY_FLAGS]) == 0
    assert run(["train-recall", "--data", tiny_dataset, "--init", base,
                "--out", recall, "--steps", "2"]) == 0
    clips = tmp_path / "clips.rcg"
    assert run(["generate", "--ckpt", recall, "--out", clips,
                "--count", "3"]) == 0
    assert read_container(clips).shape == (3, 4, 4, 4, 1)


def test_generate_long_dims_and_determinism(tiny_dataset, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "2", *TINY_FLAGS]) == 0
    outs, reports = [], []
    for tag in ("a", "b"):
        video = tmp_path / f"long{tag}.rcg"
        report = tmp_path / f"long{tag}.tsv"
        assert run(["generate-long", "--ckpt", ckpt, "--out", video,
                    "--clips", "5", "--report", report]) == 0
        outs.append(video.read_bytes())
        reports.append(report.read_bytes())
    assert outs[0] == outs[1] and reports[0] == reports[1]
    # (5-1)*2 + 4 = 12 frames
    assert read_container(tmp_path / "longa.rcg").shape == (12, 4, 4, 1)
    rows = dict((m, v) for m, s, v in read_metric_report(tmp_path / "longa.tsv")
                if s == "-")
    assert rows["frames"] == 12.0
    assert rows["peak_frames"] <= 2 * 4


def test_string_config_flags_reach_the_run(tiny_dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt, "--steps", "2",
                "--loss-variant", "diff", *TINY_FLAGS]) == 0
    assert load_checkpoint(ckpt)[0]["loss_variant"] == "diff"
    capsys.readouterr()
    assert run(["generate-long", "--ckpt", ckpt, "--out", tmp_path / "l.rcg",
                "--clips", "3", "--gen-mode", "mean"]) == 0
    assert "mode=mean" in capsys.readouterr().out


def test_generation_seed_flag_replaces_the_stored_seed(tiny_dataset, tmp_path):
    """`generate --seed 7` and `generate-long --seed 7` write other bytes than
    a run under the checkpoint's seed, and the same bytes when run again."""
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", *TINY_FLAGS]) == 0
    for command, *flags in (["generate", "--count", "3"],
                            ["generate-long", "--clips", "3"]):
        outs = []
        for i, seed in enumerate(([], ["--seed", "7"], ["--seed", "7"])):
            out = tmp_path / f"{command}{i}.rcg"
            assert run([command, "--ckpt", ckpt, "--out", out, *flags, *seed]) == 0
            outs.append(out.read_bytes())
        assert outs[1] != outs[0] and outs[2] == outs[1], command


def test_eval_self_scores_tiny(tiny_dataset, tmp_path):
    report = tmp_path / "eval.tsv"
    assert run(["eval", "--data", tiny_dataset, "--reference", tiny_dataset,
                "--report", report, "--seg-len", "4"]) == 0
    rows = read_metric_report(report)
    segs = [v for m, _, v in rows if m == "fid_segment"]
    assert len(segs) == 3          # 12-frame videos, 4-frame segments
    assert all(v < 1e-6 for v in segs)


def test_eval_probe_rows(tiny_dataset, tmp_path):
    report = tmp_path / "evalp.tsv"
    assert run(["eval", "--data", tiny_dataset, "--reference", tiny_dataset,
                "--report", report, "--seg-len", "4", "--probe"]) == 0
    metrics = {m for m, _, _ in read_metric_report(report)}
    assert {"is", "inter_entropy", "intra_entropy"} <= metrics


def test_eval_byte_reproducible(tiny_dataset, tmp_path):
    payloads = []
    for name in ("r1.tsv", "r2.tsv"):
        report = tmp_path / name
        assert run(["eval", "--data", tiny_dataset,
                    "--reference", tiny_dataset, "--report", report,
                    "--seg-len", "4", "--probe"]) == 0
        payloads.append(report.read_bytes())
    assert payloads[0] == payloads[1]


def test_eval_probe_skips_labeled_videos_shorter_than_a_segment(tmp_path):
    """Four 20-frame videos and one of 10 frames, at --seg-len 16: the probe
    trains on the four, so the report equals one made without the fifth."""
    from vidchain.container import ManifestRecord, write_manifest
    rng = np.random.default_rng(1)
    videos = [rng.uniform(-1, 1, (n, 4, 4, 1)).astype(np.float32)
              for n in (20, 20, 20, 20, 10)]
    for name, count in (("with_short", 5), ("without", 4)):
        (tmp_path / name).mkdir()
        for i, video in enumerate(videos[:count]):
            write_container(tmp_path / name / f"v{i}.rcg", video)
        write_manifest(tmp_path / name / "manifest.tsv", [
            ManifestRecord(f"v{i}.rcg", len(v), 4, 4, 1, i % 2)
            for i, v in enumerate(videos[:count])])
    write_container(tmp_path / "gen.rcg", videos[0])
    for name in ("with_short", "without"):
        assert run(["eval", "--data", tmp_path / "gen.rcg", "--reference",
                    tmp_path / name, "--report", tmp_path / f"{name}.tsv",
                    "--seg-len", "16", "--probe"]) == 0
    assert ((tmp_path / "with_short.tsv").read_bytes()
            == (tmp_path / "without.tsv").read_bytes())


def test_exit_codes(tiny_dataset, tmp_path, capsys):
    assert run(["train", "--data", tmp_path / "nope", "--out",
                tmp_path / "x.ckpt"]) == 3
    assert run(["train", "--data", tiny_dataset, "--out", tmp_path / "x.ckpt",
                "--r", "99", "--steps", "1"]) == 2
    assert run(["no-such-command"]) == 2
    err = capsys.readouterr().err
    lines = [l for l in err.strip().splitlines() if l]
    assert all(l.startswith("error code=") for l in lines)
    assert any("code=missing-file" in l for l in lines)
    assert any("code=config" in l for l in lines)


def test_exit_code_arch_conflict(tiny_dataset, tmp_path, capsys):
    base = tmp_path / "b.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", base,
                "--steps", "1", *TINY_FLAGS]) == 0
    capsys.readouterr()
    assert run(["train-recall", "--data", tiny_dataset, "--init", base,
                "--out", tmp_path / "r.ckpt", "--steps", "1",
                "--hidden", "32"]) == 2
    assert "conflicts" in _one_error_line(capsys, "config")
    # schedule fields may differ from the stored ones, and the flags win
    assert run(["train-recall", "--data", tiny_dataset, "--init", base,
                "--out", tmp_path / "r.ckpt", "--steps", "2",
                "--seed", "123"]) == 0
    stored = load_checkpoint(tmp_path / "r.ckpt")[0]
    assert stored["steps"] == 2 and stored["seed"] == 123


def test_exit_code_data_format(tmp_path):
    bad = tmp_path / "bad.rcg"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    assert run(["eval", "--data", bad, "--reference", bad,
                "--report", tmp_path / "r.tsv"]) == 4


def _one_error_line(capsys, kind):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error code={kind} "), err
    return err[0]


# fields ablate's sweep sets, which its --config file may not name
_SWEPT_CONFIG = b'{"ovi": false, "mgv": false, "gen_mode": "seeded"}'
_LONG = ["generate-long", "--ckpt", "CKPT", "--out", "OUT", "--clips", "2"]
_TRAIN = ["train", "--data", "DATA", "--out", "OUT", "--steps", "1"]
# the command that reads --config on top of a checkpoint's stored config
_RECALL = ["train-recall", "--data", "DATA", "--init", "CKPT", "--out", "OUT"]


def _edit_manifest(dataset, old, new):
    manifest = dataset / "manifest.tsv"
    manifest.write_bytes(manifest.read_bytes().replace(old, new, 1))


def _nan_pixel(dataset):
    video = read_container(dataset / "video_00000.rcg")
    video[5, 0, 0, 0] = np.nan
    write_container(dataset / "video_00000.rcg", video)


def _cut_video(dataset):
    path = dataset / "video_00001.rcg"
    path.write_bytes(path.read_bytes()[:-100])


def _with_stats(damage):
    """`damage` after a cold `eval --probe` against the dataset wrote a
    valid `refstats.rcgb` into it."""
    def damage_after_eval(dataset):
        assert main(["eval", "--data", str(dataset / "video_00000.rcg"),
                     "--reference", str(dataset), "--report",
                     str(dataset / "r.tsv"), "--seg-len", "4", "--probe"]) == 0
        assert (dataset / "refstats.rcgb").exists()
        damage(dataset)
    return damage_after_eval


def _no_video(dataset):
    (dataset / "video_00001.rcg").unlink()


def _short_video(dataset):
    """video_00001 cut to 5 frames: enough for a uniform clip of t_c=4, too
    few for one at sample_step 2, which spans 7."""
    path = dataset / "video_00001.rcg"
    write_container(path, read_container(path)[:5])
    _edit_manifest(dataset, b"video_00001.rcg\t12", b"video_00001.rcg\t5")


# copies of the test dataset, each damaged in one way
_DAMAGED = {
    "NAN_PIXEL": _nan_pixel,
    "NO_VIDEO": _no_video,
    "SHORT_VIDEO": _short_video,
    "CUT_VIDEO": _cut_video,
    "STATS_NO_VIDEO": _with_stats(_no_video),
    "STATS_CUT_VIDEO": _with_stats(_cut_video),
    "NOT_INT": lambda ds: _edit_manifest(ds, b"video_00001.rcg\t12",
                                         b"video_00001.rcg\tabc"),
    "NOT_UTF8": lambda ds: _edit_manifest(ds, b"video_00001", b"video_\xff0001"),
    "HEADER_ONLY": lambda ds: (ds / "manifest.tsv").write_bytes(
        (ds / "manifest.tsv").read_bytes().splitlines(keepends=True)[0]),
    "ONE_CLASS": lambda ds: (ds / "manifest.tsv").write_bytes(
        (ds / "manifest.tsv").read_bytes().replace(b"\t1\n", b"\t0\n")),
}


@pytest.mark.parametrize("argv,config,code,kind", [
    pytest.param(_RECALL + ["--config", "CFG"], b"{not json", 2, "config",
                 id="config-not-json"),
    pytest.param(_RECALL + ["--config", "CFG"], b"[1, 2]", 2, "config",
                 id="config-not-object"),
    pytest.param(_RECALL + ["--config", "CFG"], b"\xff{}", 2, "config",
                 id="config-not-utf8"),
    pytest.param(_RECALL + ["--config", "DIR"], None, 3, "missing-file",
                 id="config-is-dir"),
    pytest.param(_TRAIN + ["--config", "CFG"], b'{"hidden": 1.5}', 2, "config",
                 id="config-int-field-float"),
    pytest.param(_TRAIN + ["--config", "CFG"], b'{"t_c": "abc"}', 2, "config",
                 id="config-int-field-string"),
    pytest.param(_TRAIN + ["--config", "CFG"], b'{"batch": true}', 2, "config",
                 id="config-int-field-bool"),
    pytest.param(_TRAIN + ["--config", "CFG"], b'{"ovi": "no"}', 2, "config",
                 id="config-bool-field-string"),
    pytest.param(_TRAIN + ["--config", "CFG"], b'{"r": 2.0}', 2, "config",
                 id="config-stride-float"),
    pytest.param(_RECALL + ["--config", "CFG"], b'{"lr": "fast"}', 2, "config",
                 id="config-float-field-string"),
    # generation reads the stored config, under --seed and generate-long's
    # --gen-mode only; RunConfig alone validates the mode
    pytest.param(_LONG + ["--lr", "5"], None, 2, "usage", id="long-lr-not-an-option"),
    pytest.param(["generate", "--ckpt", "CKPT", "--out", "OUT", "--gen-mode",
                  "mean"], None, 2, "usage", id="generate-gen-mode-not-an-option"),
    pytest.param(["generate", "--ckpt", "CKPT", "--out", "OUT", "--config",
                  "CFG"], b"{}", 2, "usage", id="generate-config-not-an-option"),
    pytest.param(_LONG + ["--gen-mode", "wild"], None, 2, "config",
                 id="long-gen-mode-wild"),
    # the data fixes the frame shape, and ablate's sweep sets ovi, mgv and
    # the chain mode, so no command takes a flag for them
    pytest.param(_TRAIN + ["--height", "4"], None, 2, "usage",
                 id="train-height-not-an-option"),
    pytest.param(["ablate", "--data", "DATA", "--out", "DIR", "--steps", "1",
                  "--no-ovi"], None, 2, "usage", id="ablate-no-ovi-not-an-option"),
    pytest.param(["ablate", "--data", "DATA", "--out", "DIR", "--steps", "1",
                  "--gen-mode", "mean"], None, 2, "usage",
                 id="ablate-gen-mode-not-an-option"),
    pytest.param(["ablate", "--data", "DATA", "--out", "NEW_DIR", "--steps", "1",
                  *TINY_FLAGS, "--config", "CFG"], _SWEPT_CONFIG, 2, "config",
                 id="ablate-config-names-swept-fields"),
    pytest.param(["generate-long", "--ckpt", "FLOAT_CKPT", "--out", "OUT",
                  "--clips", "2"], None, 2, "config", id="stored-config-float-hidden"),
    pytest.param(["generate-long", "--ckpt", "DIR", "--out", "OUT", "--clips", "2"],
                 None, 3, "missing-file", id="ckpt-is-dir"),
    pytest.param(["generate-long", "--ckpt", "CKPT", "--out", "DIR", "--clips", "2"],
                 None, 3, "missing-file", id="long-out-is-dir"),
    pytest.param(["generate", "--ckpt", "CKPT", "--out", "DIR"],
                 None, 3, "missing-file", id="out-is-dir"),
    pytest.param(["generate", "--ckpt", "CKPT", "--out", "OUT", "--count", "0"],
                 None, 2, "config", id="count-zero"),
    pytest.param(["generate", "--ckpt", "CKPT", "--out", "OUT", "--count", "-1"],
                 None, 2, "config", id="count-negative"),
    pytest.param(["generate-long", "--ckpt", "CKPT", "--out", "OUT", "--clips", "0"],
                 None, 2, "config", id="clips-zero"),
    # the generation stride takes the bound the config's r does: 1 <= r < t_c
    *(pytest.param(_LONG + ["--stride", stride], None, 2, "config",
                   id=f"long-stride-{stride}") for stride in ("0", "4")),
    *(pytest.param(["roundtrip-check", "--data", "DATA", *flags], None, 2,
                   "config", id=f"roundtrip-check{'-'.join(flags)}")
      for flags in (["--t-c", "1"], ["--t-c", "0"], ["--limit", "-1"],
                    ["--limit", "0"])),
    pytest.param(["ablate", "--data", "DATA", "--out", "DIR", "--steps", "0",
                  *TINY_FLAGS], None, 2, "config", id="ablate-steps-zero"),
    pytest.param(["roundtrip-check", "--data", "DIR"], None, 3, "missing-file",
                 id="dataset-without-manifest"),
    pytest.param(["roundtrip-check", "--data", "NO_VIDEO"], None, 3,
                 "missing-file", id="manifest-names-missing-container"),
    pytest.param(["train", "--data", "NO_VIDEO", "--out", "OUT"], None, 3,
                 "missing-file", id="train-manifest-names-missing-container"),
    pytest.param(["train", "--data", "NAN_PIXEL", "--out", "OUT", "--steps", "1",
                  *TINY_FLAGS], None, 4, "data-format",
                 id="train-non-finite-pixel"),
    pytest.param(["train-recall", "--data", "NAN_PIXEL", "--out", "OUT",
                  "--steps", "1", *TINY_FLAGS], None, 4, "data-format",
                 id="train-recall-non-finite-pixel"),
    pytest.param(["eval", "--data", "NAN_PIXEL", "--reference", "DATA",
                  "--report", "OUT", "--seg-len", "4"], None, 4, "data-format",
                 id="eval-non-finite-pixel"),
    # a reference with a missing or a truncated container fails as it loads,
    # whether or not its directory holds a valid refstats.rcgb
    *(pytest.param(["eval", "--data", "DATA", "--reference", ref, "--report",
                    "OUT", "--seg-len", "4", *flags], None, code, kind,
                   id=f"eval-{ref.lower().replace('_', '-')}{'-probe' * len(flags)}")
      for ref, code, kind in (("NO_VIDEO", 3, "missing-file"),
                              ("STATS_NO_VIDEO", 3, "missing-file"),
                              ("CUT_VIDEO", 4, "data-format"),
                              ("STATS_CUT_VIDEO", 4, "data-format"))
      for flags in ([], ["--probe"])),
    pytest.param(["eval", "--data", "DATA", "--reference", "HEADER_ONLY",
                  "--report", "OUT", "--seg-len", "4"], None, 4, "dimension",
                 id="eval-empty-reference"),
    # a dataset whose manifest lists no video gives nothing to train on or check
    pytest.param(["train", "--data", "HEADER_ONLY", "--out", "OUT", "--steps", "1",
                  *TINY_FLAGS], None, 4, "dimension", id="train-empty-dataset"),
    pytest.param(["ablate", "--data", "HEADER_ONLY", "--out", "DIR", "--steps", "1",
                  *TINY_FLAGS], None, 4, "dimension", id="ablate-empty-dataset"),
    pytest.param(["ablate", "--data", "HEADER_ONLY", "--out", "NEW_DIR", "--steps",
                  "1", *TINY_FLAGS], None, 4, "dimension",
                 id="ablate-empty-dataset-new-out"),
    # frames of another (H, W, C) than the config's are refused by name
    pytest.param(_TRAIN + [*TINY_FLAGS, "--config", "CFG"], b'{"height": 8}', 4,
                 "dimension", id="train-frame-shape-mismatch"),
    pytest.param(["train-recall", "--data", "DATA", "--out", "OUT", "--steps", "1",
                  *TINY_FLAGS, "--config", "CFG"], b'{"height": 8}', 4, "dimension",
                 id="train-recall-frame-shape-mismatch"),
    pytest.param(["train-recall", "--data", "DATA", "--init", "TALL_CKPT", "--out",
                  "OUT"], None, 4, "dimension",
                 id="train-recall-init-frame-shape-mismatch"),
    # a video too short for a clip the schedule may draw is refused before
    # the first step, whether or not a batch would have drawn it
    pytest.param(["train", "--data", "SHORT_VIDEO", "--out", "OUT", "--steps", "1",
                  *TINY_FLAGS], None, 4, "dimension",
                 id="train-video-too-short-for-step-sampling"),
    pytest.param(["roundtrip-check", "--data", "HEADER_ONLY"], None, 4,
                 "dimension", id="roundtrip-check-empty-dataset"),
    # a refused dataset-gen leaves no directory behind
    pytest.param(["dataset-gen", "--out", "NEW_DIR", "--count", "0"], None, 2,
                 "config", id="dataset-gen-count-zero"),
    pytest.param(["dataset-gen", "--out", "NEW_DIR", "--length", "1"], None, 2,
                 "config", id="dataset-gen-length-one"),
    pytest.param(["dataset-gen", "--kind", "drift", "--out", "NEW_TREE",
                  "--length", "1"], None, 2, "config",
                 id="dataset-gen-drift-length-one-new-tree"),
    # eval checks its flags before it reads a file, and --probe's labels
    # before any scoring: at --seg-len 13 no video holds a segment
    pytest.param(["eval", "--data", "MISSING", "--reference", "MISSING",
                  "--report", "OUT", "--seg-len", "1"], None, 2, "config",
                 id="eval-seg-len-one"),
    pytest.param(["eval", "--data", "MISSING", "--reference", "MISSING",
                  "--report", "OUT", "--seg-len", "-3"], None, 2, "config",
                 id="eval-seg-len-negative"),
    pytest.param(["eval", "--data", "DATA", "--reference", "VIDEO", "--report",
                  "OUT", "--seg-len", "13", "--probe"], None, 2, "config",
                 id="eval-probe-unlabeled-reference"),
    pytest.param(["eval", "--data", "DATA", "--reference", "ONE_CLASS",
                  "--report", "OUT", "--seg-len", "13", "--probe"], None, 2,
                 "config", id="eval-probe-one-class"),
    pytest.param(["roundtrip-check", "--data", "NAN_PIXEL", "--t-c", "4"], None,
                 4, "data-format", id="roundtrip-check-non-finite-pixel"),
    pytest.param(["roundtrip-check", "--data", "NOT_INT"], None, 4,
                 "data-format", id="manifest-field-not-integer"),
    pytest.param(["roundtrip-check", "--data", "NOT_UTF8"], None, 4,
                 "data-format", id="manifest-not-utf8"),
    # a path that runs through a regular file: every open, and every
    # directory an output needs, fails with an OSError
    pytest.param(["train", "--data", "UNDER_FILE", "--out", "OUT", "--steps", "1"],
                 None, 3, "missing-file", id="data-under-file"),
    pytest.param(["train-recall", "--data", "DATA", "--init", "UNDER_FILE",
                  "--out", "OUT", "--steps", "1"], None, 3, "missing-file",
                 id="init-under-file"),
    pytest.param(["generate-long", "--ckpt", "UNDER_FILE", "--out", "OUT",
                  "--clips", "2"], None, 3, "missing-file", id="ckpt-under-file"),
    pytest.param(_RECALL + ["--config", "UNDER_FILE"], None, 3, "missing-file",
                 id="config-under-file"),
    pytest.param(["generate-long", "--ckpt", "CKPT", "--out", "UNDER_FILE",
                  "--clips", "2"], None, 3, "missing-file",
                 id="long-out-under-file"),
    pytest.param(["generate", "--ckpt", "CKPT", "--out", "UNDER_FILE"], None, 3,
                 "missing-file", id="generate-out-under-file"),
    pytest.param(["train", "--data", "DATA", "--out", "UNDER_FILE", "--steps",
                  "1", *TINY_FLAGS], None, 3, "missing-file",
                 id="train-out-under-file"),
    pytest.param(["eval", "--data", "DATA", "--reference", "DATA", "--report",
                  "UNDER_FILE", "--seg-len", "4"], None, 3, "missing-file",
                 id="report-out-under-file"),
    pytest.param(["dataset-gen", "--out", "UNDER_FILE", "--count", "1"], None, 3,
                 "missing-file", id="dataset-out-under-file"),
    pytest.param(["ablate", "--data", "DATA", "--out", "UNDER_FILE", "--steps",
                  "1", *TINY_FLAGS], None, 3, "missing-file",
                 id="ablate-out-under-file"),
    # an unusable --report or --out is refused before any training or chain
    pytest.param(_TRAIN + [*TINY_FLAGS, "--report", "UNDER_FILE"], None, 3,
                 "missing-file", id="train-report-under-file"),
    pytest.param(_LONG + ["--report", "UNDER_FILE"], None, 3, "missing-file",
                 id="long-report-under-file"),
    pytest.param(_TRAIN + [*TINY_FLAGS, "--report", "DIR"], None, 3,
                 "missing-file", id="train-report-is-dir"),
    pytest.param(["ablate", "--data", "DATA", "--out", "OUT", "--steps", "1",
                  *TINY_FLAGS], None, 3, "missing-file", id="ablate-out-is-file"),
])
def test_cli_error_contract(tiny_dataset, tmp_path, capsys, monkeypatch, argv,
                            config, code, kind):
    """Bad input gives one error line and the documented exit code, and
    leaves the previous output and its directory as they were.  A command
    whose --out or --report is unusable fails before it trains or chains."""
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", *TINY_FLAGS]) == 0
    capsys.readouterr()

    def unusable(flag, value):
        as_dir = flag == "--out" and argv[0] in ("dataset-gen", "ablate")
        return value in ("UNDER_FILE", "OUT" if as_dir else "DIR")

    def refuse(*args, **kwargs):
        pytest.fail("ran before its output path and config were checked")

    # a refused ablate config, like an unusable output, stops it before training
    if (argv[0], kind) == ("ablate", "config") or any(
            unusable(flag, value) for flag, value in zip(argv, argv[1:])
            if flag in ("--out", "--report")):
        for name in ("train_loop", "train_loop_recall", "chain_generate"):
            monkeypatch.setattr(f"vidchain.cli.{name}", refuse)
    if "SHORT_VIDEO" in argv:
        monkeypatch.setattr("vidchain.training.train_step", lambda *a: pytest.fail(
            "trained a step before every video's length was checked"))
    work = tmp_path / "work"
    (work / "dir").mkdir(parents=True)
    (work / "out.rcg").write_bytes(b"previous")
    if config is not None:
        (work / "cfg.json").write_bytes(config)
    before = sorted(os.listdir(work))
    paths = {"CKPT": ckpt, "OUT": work / "out.rcg", "DIR": work / "dir",
             "CFG": work / "cfg.json", "DATA": tiny_dataset,
             "VIDEO": tiny_dataset / "video_00000.rcg",
             "MISSING": work / "missing", "NEW_DIR": work / "new",
             "NEW_TREE": work / "new" / "data",
             "UNDER_FILE": work / "out.rcg" / "x"}
    if "FLOAT_CKPT" in argv:    # the same model, its hidden stored as 16.0
        stored, arrays = load_checkpoint(ckpt)
        paths["FLOAT_CKPT"] = tmp_path / "float.ckpt"
        save_checkpoint(paths["FLOAT_CKPT"],
                        dict(stored, hidden=float(stored["hidden"])), arrays)
    if "TALL_CKPT" in argv:     # a model of 8x4x1 frames
        paths["TALL_CKPT"] = tmp_path / "tall.ckpt"
        stored = RunConfig.from_dict(load_checkpoint(ckpt)[0])
        ModelBundle.init(stored.replace(height=8)).save(paths["TALL_CKPT"])
    for name, damage in _DAMAGED.items():
        if name in argv:
            paths[name] = tmp_path / name
            shutil.copytree(tiny_dataset, paths[name])
            damage(paths[name])
    assert run([paths.get(a, a) for a in argv]) == code
    line = _one_error_line(capsys, kind)
    if "NOT_INT" in argv or "NOT_UTF8" in argv:
        assert "manifest.tsv:3:" in line
    if "CFG" in argv and config.startswith(b'{"'):
        assert config[2:config.index(b'"', 2)].decode() in line    # names the field
    if "FLOAT_CKPT" in argv:
        assert "hidden" in line
    if "HEADER_ONLY" in argv:
        empty = {"eval": "reference set is empty",
                 "roundtrip-check": "no videos to check"}
        assert empty.get(argv[0], "no videos to train on") in line
    if "MISSING" in argv:   # refused before the missing files are opened
        assert "--seg-len >= 2" in line
    if "VIDEO" in argv:
        assert "labeled reference" in line
    if "ONE_CLASS" in argv:
        assert "2 reference classes" in line
    if {"NO_VIDEO", "CUT_VIDEO", "STATS_NO_VIDEO", "STATS_CUT_VIDEO"} & set(argv):
        assert "video_00001.rcg" in line
    if "CUT_VIDEO" in argv or "STATS_CUT_VIDEO" in argv:
        assert "payload is" in line
    if "NAN_PIXEL" in argv:
        assert "video_00000.rcg" in line and "non-finite" in line
    if config == b'{"height": 8}' or "TALL_CKPT" in argv:
        assert "(4, 4, 1)" in line and "(8, 4, 1)" in line
    if "SHORT_VIDEO" in argv:
        assert "video 1 has 5 frames" in line and "spanning 7" in line
    if "UNDER_FILE" in argv:
        assert "[Errno 20] Not a directory" in line
    if kind == "usage":     # names the last flag as the one not taken
        flag = [a for a in argv if a.startswith("--")][-1]
        assert line.split("unrecognized arguments: ")[1].split()[0] == flag
    if "wild" in argv:
        assert "gen_mode" in line
    if "--stride" in argv or (argv[0] == "roundtrip-check" and kind == "config"):
        assert argv[-2] in line                 # names the flag
    if (argv[0], kind, config) == ("ablate", "config", None):     # --steps 0
        assert "steps >= 1" in line
    if config == _SWEPT_CONFIG:
        assert "ovi, mgv, gen_mode" in line
    assert (work / "out.rcg").read_bytes() == b"previous"
    assert sorted(os.listdir(work)) == before
    assert os.listdir(work / "dir") == []


_CONFIG_OPTIONS = (
    "--config", "--t-c", "--r",
    "--z-content", "--z-motion", "--hidden", "--bias-init",
    "--disable-content", "--no-disable-content", "--disable-motion",
    "--no-disable-motion", "--disable-fusion", "--no-disable-fusion",
    "--lr", "--beta1", "--beta2", "--eps", "--batch", "--steps", "--seed",
    "--uniform-fraction", "--sample-step", "--ovi", "--no-ovi", "--mgv",
    "--no-mgv", "--loss-variant", "--gen-mode")
# ablate's sweep sets ovi, mgv and the chain mode itself
_ABLATE_OPTIONS = tuple(o for o in _CONFIG_OPTIONS if o not in (
    "--ovi", "--no-ovi", "--mgv", "--no-mgv", "--gen-mode"))

# every command's option strings, in the order its parser defines them
_OPTIONS = {
    "dataset-gen": ("--kind", "--out", "--count", "--length", "--seed"),
    "train": ("--data", "--out", "--report", *_CONFIG_OPTIONS),
    "train-recall": ("--data", "--init", "--out", "--report", *_CONFIG_OPTIONS),
    "generate": ("--ckpt", "--out", "--count", "--seed"),
    "generate-long": ("--ckpt", "--out", "--clips", "--stride", "--report",
                      "--seed", "--gen-mode"),
    "eval": ("--data", "--reference", "--report", "--seg-len", "--seed",
             "--probe"),
    "roundtrip-check": ("--data", "--t-c", "--limit"),
    "ablate": ("--data", "--out", "--init", *_ABLATE_OPTIONS),
}


def test_each_command_takes_exactly_its_options():
    parser = build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    actions = {name: [a for a in command._actions
                      if not isinstance(a, argparse._HelpAction)]
               for name, command in commands.items()}
    assert {name: tuple(s for a in acts for s in a.option_strings)
            for name, acts in actions.items()} == _OPTIONS
    assert sum(map(len, actions.values())) == 101


def test_train_zero_steps_is_config_error(tiny_dataset, tmp_path, capsys):
    assert run(["train", "--data", tiny_dataset, "--out", tmp_path / "z.ckpt",
                "--steps", "0", *TINY_FLAGS]) == 2
    _one_error_line(capsys, "config")
    assert not (tmp_path / "z.ckpt").exists()


def test_train_recall_zero_steps_is_config_error(tiny_dataset, tmp_path, capsys):
    base = tmp_path / "b.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", base,
                "--steps", "1", *TINY_FLAGS]) == 0
    capsys.readouterr()
    assert run(["train-recall", "--data", tiny_dataset, "--init", base,
                "--out", tmp_path / "z.ckpt", "--steps", "0"]) == 2
    _one_error_line(capsys, "config")
    assert run(["train-recall", "--data", tiny_dataset, "--out",
                tmp_path / "z.ckpt", "--steps", "0", *TINY_FLAGS]) == 2
    _one_error_line(capsys, "config")


def test_truncated_checkpoint_is_data_format_error(tiny_dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", *TINY_FLAGS]) == 0
    capsys.readouterr()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(ckpt.read_bytes()[:30])
    assert run(["generate-long", "--ckpt", cut, "--out", tmp_path / "l.rcg",
                "--clips", "2"]) == 4
    _one_error_line(capsys, "data-format")


def test_checkpoint_cut_in_skipped_moments_is_data_format_error(
        tiny_dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", *TINY_FLAGS]) == 0
    capsys.readouterr()
    blob = ckpt.read_bytes()
    last = list(load_checkpoint(ckpt)[1])[-1]
    assert last.startswith("opt_")       # the file ends in a skipped payload
    # 8 bytes into the payload of opt_d.m0 (name, length, 2-dim header
    # first), and 8 bytes before the end of the last moment
    for at in (blob.index(b"opt_d.m0") + 8 + 8 + 32 + 8, len(blob) - 8):
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(blob[:at])
        for argv in (["generate-long", "--clips", "2"], ["generate"]):
            assert run([argv[0], "--ckpt", cut, "--out", tmp_path / "g.rcg",
                        *argv[1:]]) == 4
            _one_error_line(capsys, "data-format")


def test_nan_parameter_checkpoint_is_numeric_error(tiny_dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", *TINY_FLAGS]) == 0
    capsys.readouterr()
    cfg, arrays = load_checkpoint(ckpt)
    arrays["g_c.0"][0, 0] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(bad, cfg, arrays)
    assert run(["generate-long", "--ckpt", bad, "--out", tmp_path / "l.rcg",
                "--clips", "2"]) == 5
    _one_error_line(capsys, "numeric")
    assert not (tmp_path / "l.rcg").exists()


def test_train_recall_init_restores_the_moments(tiny_dataset, tmp_path):
    """train-recall --init continues the stored Adam moments: its output
    equals a library run from the whole checkpoint, and differs from one
    that starts the moments afresh."""
    ckpt, out = tmp_path / "m.ckpt", tmp_path / "r.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "2", *TINY_FLAGS]) == 0
    assert run(["train-recall", "--data", tiny_dataset, "--init", ckpt,
                "--out", out, "--steps", "1"]) == 0
    cfg = RunConfig.from_dict(load_checkpoint(ckpt)[0]).replace(steps=1)
    videos, _ = load_dataset(tiny_dataset / "manifest.tsv")
    pairs, _ = build_pairs(videos, cfg)
    saved = {}
    for name, runs in (("whole", None), ("params", lambda cfg: COMPONENTS)):
        bundle = ModelBundle.load(ckpt, lambda stored: cfg, runs)
        train_loop_recall(bundle, pairs)
        bundle.save(tmp_path / f"{name}.ckpt")
        saved[name] = (tmp_path / f"{name}.ckpt").read_bytes()
    assert out.read_bytes() == saved["whole"]
    assert out.read_bytes() != saved["params"]


@pytest.mark.parametrize("damage", ["missing", "wrong-shape"])
def test_damaged_checkpoint_parameter_is_config_error(tiny_dataset, tmp_path,
                                                      capsys, damage):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", *TINY_FLAGS]) == 0
    capsys.readouterr()
    cfg, arrays = load_checkpoint(ckpt)
    if damage == "missing":
        del arrays["g_t.2"]
    else:
        arrays["g_t.2"] = arrays["g_t.2"][:-1]
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, cfg, arrays)
    assert run(["generate-long", "--ckpt", bad, "--out", tmp_path / "l.rcg",
                "--clips", "2"]) == 2
    assert "g_t.2" in _one_error_line(capsys, "config")


def _rename(arrays, name):
    arrays[name.replace(".", ".x", 1)] = arrays.pop(name)


def _set(arrays, name, value):
    arrays[name] = value


# damage to a trained checkpoint's optimizer arrays, and the array named
_DAMAGED_MOMENTS = {
    "renamed-moment": (lambda a: _rename(a, "opt_d.v2"), "opt_d.v2"),
    "missing-step": (lambda a: a.pop("opt_enc.step"), "opt_enc.step"),
    "step-not-a-count": (lambda a: _set(a, "opt_enc.step", np.array([np.inf])),
                         "opt_enc.step"),
    "wrong-shape-moment": (lambda a: _set(a, "opt_gen.m0", a["opt_gen.m0"][:-1]),
                           "opt_gen.m0"),
}


@pytest.mark.parametrize("command", ["train-recall", "ablate"])
@pytest.mark.parametrize("damage", list(_DAMAGED_MOMENTS))
def test_damaged_optimizer_state_is_config_error(tiny_dataset, tmp_path, capsys,
                                                 command, damage):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", *TINY_FLAGS]) == 0
    capsys.readouterr()
    cfg, arrays = load_checkpoint(ckpt)
    edit, name = _DAMAGED_MOMENTS[damage]
    edit(arrays)
    assert any(k.startswith("opt_enc.m") for k in arrays)   # moments present
    save_checkpoint(ckpt, cfg, arrays)
    assert run([command, "--data", tiny_dataset, "--init", ckpt,
                "--out", tmp_path / "out", "--steps", "1"]) == 2
    line = _one_error_line(capsys, "config")
    assert name in line.split(), line
    assert not (tmp_path / "out").exists()


def test_checkpoint_name_mutations_are_config_errors(tiny_dataset, tmp_path,
                                                     capsys):
    """Flipping the low bit of the last byte of any array name in a trained
    checkpoint removes that array (a digit turns into its neighbour, which
    it then shadows): train-recall --init names it in one config line."""
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", *TINY_FLAGS]) == 0
    capsys.readouterr()
    blob = ckpt.read_bytes()
    names = list(load_checkpoint(ckpt)[1])
    assert len(names) == 28 + 3 + 2 * 28
    bad = tmp_path / "bad.ckpt"
    for name in names:
        field = struct.pack("<I", len(name)) + name.encode()
        at = blob.index(field) + len(field) - 1
        assert blob.count(field) == 1
        bad.write_bytes(blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:])
        assert run(["train-recall", "--data", tiny_dataset, "--init", bad,
                    "--out", tmp_path / "r.ckpt", "--steps", "1"]) == 2, name
        line = _one_error_line(capsys, "config")
        assert "is missing" in line and line.endswith(f" {name}"), line


# damage that makes the first recall step form a NaN or Inf: Adam's square
# root of a negative second moment, and a generator output bias whose square
# overflows in the forward pass
_NUMERIC_DAMAGE = {
    "negative-v0": ("opt_d.v0", -1.0),
    "huge-g_c-bias": ("g_c.3", 1e200),
}


@pytest.mark.parametrize("command", ["train-recall", "ablate"])
@pytest.mark.parametrize("damage", list(_NUMERIC_DAMAGE))
def test_negative_second_moment_is_one_numeric_line(tiny_dataset, tmp_path,
                                                    command, damage):
    """The finite checks report the NaN or Inf, and numpy prints no warning
    of its own: exactly one stderr line, from a child process."""
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", *TINY_FLAGS]) == 0
    cfg, arrays = load_checkpoint(ckpt)
    name, value = _NUMERIC_DAMAGE[damage]
    arrays[name][...] = value
    save_checkpoint(ckpt, cfg, arrays)
    src = os.path.dirname(os.path.dirname(vidchain.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "vidchain.cli", command, "--data",
         str(tiny_dataset), "--init", str(ckpt), "--out",
         str(tmp_path / "out"), "--steps", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 5
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error code=numeric "), lines


def test_generate_long_loads_checkpoint_once(tiny_dataset, tmp_path, monkeypatch):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", *TINY_FLAGS]) == 0
    calls = []

    def counted(path, skip):
        stored, arrays = load_checkpoint(path, skip)
        calls.append(sorted(arrays))
        return stored, arrays

    for module in ("vidchain.cli", "vidchain.model"):
        monkeypatch.setattr(f"{module}.load_checkpoint", counted)
    # generation leaves the optimizer moments, the discriminators and the
    # stacks its mode never calls on disk
    for mode, components in (("sampled", ("content_enc", "g_c", "g_t", "fusion")),
                             ("mean", ("content_enc", "motion_enc", "g_c", "g_t",
                                       "fusion"))):
        calls.clear()
        assert run(["generate-long", "--ckpt", ckpt, "--out", tmp_path / "l.rcg",
                    "--clips", "3", "--gen-mode", mode]) == 0
        assert calls == [sorted(f"{name}.{i}" for name in components
                                for i in range(4))]


def _without(ckpt, path, prefixes):
    """A copy of checkpoint `ckpt` at `path` without the arrays whose names
    start with one of `prefixes`."""
    stored, arrays = load_checkpoint(ckpt)
    save_checkpoint(path, stored, {k: v for k, v in arrays.items()
                                   if not k.startswith(prefixes)})
    return path


def test_generation_needs_only_the_stacks_it_calls(tiny_dataset, tmp_path, capsys):
    """`generate` and `generate-long` write the same bytes from a checkpoint
    without the discriminators and the motion encoder as from the full one;
    a command that calls a missing stack refuses the file, naming it."""
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "2", *TINY_FLAGS]) == 0
    no_d = _without(ckpt, tmp_path / "no_d.ckpt", ("d_image.", "d_video."))
    lean = _without(ckpt, tmp_path / "lean.ckpt",
                    ("d_image.", "d_video.", "motion_enc."))
    commands = (["generate", "--count", "3"],
                ["generate-long", "--clips", "4"],
                ["generate-long", "--clips", "4", "--gen-mode", "seeded"])
    for command, *flags in commands:
        outs = []
        for path in (ckpt, no_d, lean):
            out = tmp_path / f"{path.stem}.rcg"
            assert run([command, "--ckpt", path, "--out", out, *flags]) == 0
            outs.append(out.read_bytes())
        assert outs[1] == outs[0] and outs[2] == outs[0], command
    capsys.readouterr()
    assert run(["generate-long", "--ckpt", lean, "--out", tmp_path / "mean.rcg",
                "--clips", "4", "--gen-mode", "mean"]) == 2
    assert "motion_enc.0" in _one_error_line(capsys, "config")
    assert run(["train-recall", "--data", tiny_dataset, "--init", no_d,
                "--out", tmp_path / "r.ckpt", "--steps", "1"]) == 2
    assert "d_image.0" in _one_error_line(capsys, "config")
    assert not (tmp_path / "mean.rcg").exists() and not (tmp_path / "r.ckpt").exists()


def test_output_dir_env_override(tiny_dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("VIDCHAIN_OUT", str(tmp_path / "redirected"))
    assert run(["train", "--data", tiny_dataset, "--out", "env.ckpt",
                "--steps", "1", *TINY_FLAGS]) == 0
    assert (tmp_path / "redirected" / "env.ckpt").exists()
    assert not os.path.exists("env.ckpt")


def test_ablate_report_structure(tiny_dataset, tmp_path):
    out = tmp_path / "abl"
    assert run(["ablate", "--data", tiny_dataset, "--out", out,
                "--steps", "2", "--seed", "3", *TINY_FLAGS]) == 0
    t11 = (out / "table11.tsv").read_text().strip().splitlines()
    assert t11[0] == "# length\tovi\tmgv\trecall"
    assert len(t11) == 9                      # header + eight lengths
    lengths = [int(l.split("\t")[0]) for l in t11[1:]]
    assert lengths == [(n - 1) * 2 + 4 for n in (3, 5, 7, 9, 11, 13, 15, 17)]
    t10 = (out / "table10.tsv").read_text().strip().splitlines()
    assert t10[0] == "# overlap\tstride\tmismatch"
    # overlaps of 4+ frames have no valid pair stride at clip length 4
    overlaps = [int(l.split("\t")[0]) for l in t10[1:]]
    assert overlaps == [0, 2]


@pytest.mark.parametrize("t_c, r, frames", [(4, 2, 12), (8, 4, 24)])
def test_ablate_values_match_their_definition(tmp_path, t_c, r, frames):
    """Each table value is the mean seam mismatch of `mean` chains at the
    config stride, generated by a variant trained from the same base state:
    table 11 by the ovi, mgv and recall variants at each length, table 10
    by the variant trained on pairs of each overlap (overlap 0: disjoint
    pairs) at 8 clips.  At t_c 8 the sweep's stride 6 is a variant of its
    own."""
    data = _write_dataset(tmp_path / "data", frames)
    flags = list(TINY_FLAGS)
    flags[flags.index("--t-c") + 1], flags[flags.index("--r") + 1] = t_c, r
    out = tmp_path / "abl"
    assert run(["ablate", "--data", data, "--out", out,
                "--steps", "2", "--seed", "3", *flags]) == 0

    cfg = RunConfig(t_c=t_c, r=r, height=4, width=4, channels=1, z_content=8,
                    z_motion=4, hidden=16, batch=2, steps=2, seed=3)
    videos, _ = load_dataset(data / "manifest.tsv")
    base = ModelBundle.init(cfg)
    train_loop(base, videos)
    state = base.state_arrays()

    def mismatches(counts, **fields):
        vcfg = cfg.replace(**fields)
        bundle = ModelBundle.init(vcfg, state)
        train_loop_recall(bundle, build_pairs(videos, vcfg)[0])
        return [chain_overlap_mismatch(bundle, n, mode="mean", r=r)
                for n in counts]

    counts = (3, 5, 7, 9, 11, 13, 15, 17)
    columns = [mismatches(counts, ovi=True, mgv=False),
               mismatches(counts, ovi=False, mgv=True),
               mismatches(counts, ovi=True, mgv=True)]
    expected11 = [((n - 1) * r + t_c, *values)
                  for n, *values in zip(counts, *columns)]
    expected10 = [(o, t_c - o, mismatches((8,), ovi=o > 0, mgv=True,
                                          r=t_c - o if o else r)[0])
                  for o in (0, 2, 4, 8) if o < t_c]

    def table(name, int_columns):
        rows = [line.split("\t")
                for line in (out / name).read_text().splitlines()[1:]]
        return [(*map(int, row[:int_columns]), *map(float, row[int_columns:]))
                for row in rows]

    assert table("table11.tsv", 1) == expected11
    assert table("table10.tsv", 2) == expected10
    assert len(expected10) == (2 if t_c == 4 else 3)


def test_ablate_init_takes_architecture_and_seed_from_checkpoint(tiny_dataset, tmp_path):
    ckpt = tmp_path / "h32.ckpt"
    flags = list(TINY_FLAGS)
    flags[flags.index("--hidden") + 1] = "32"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", "--seed", "3", *flags]) == 0
    # a --config file may name a field the sweep leaves alone
    seed_file = tmp_path / "seed.json"
    seed_file.write_text('{"seed": 3}')
    tables = {}
    for name, extra in (("stored", []), ("same", ["--seed", "3"]),
                        ("file", ["--config", seed_file]),
                        ("other", ["--seed", "4"])):
        out = tmp_path / name
        assert run(["ablate", "--data", tiny_dataset, "--out", out,
                    "--init", ckpt, "--steps", "2", *extra]) == 0
        tables[name] = [(out / t).read_bytes()
                        for t in ("table10.tsv", "table11.tsv")]
    assert tables["stored"] == tables["same"] == tables["file"]
    assert tables["stored"] != tables["other"]
