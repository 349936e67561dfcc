"""`eval`'s reference statistics file, `refstats.rcgb` in the reference
dataset directory: a warm run reports the same bytes as a cold one, any
change to what the fits and the probe depend on recomputes and rewrites the
file, a damaged file is replaced, and an unwritable one costs only time."""

import os
import platform
import shutil
import subprocess
import sys

import numpy as np
import pytest

from vidchain import cli
from vidchain.container import (ManifestRecord, load_checkpoint,
                                read_container, write_container,
                                write_manifest)
from vidchain.metrics import FeatureExtractor

FRAMES = 12
SEG = ["--seg-len", "4"]


@pytest.fixture()
def data(tmp_path):
    """Six random 4x4x1 videos, labeled in two classes."""
    rng = np.random.default_rng(3)
    out = tmp_path / "ref"
    out.mkdir()
    records = []
    for i in range(6):
        name = f"video_{i:05d}.rcg"
        video = rng.uniform(-1, 1, (FRAMES, 4, 4, 1)).astype(np.float32)
        write_container(out / name, video)
        records.append(ManifestRecord(name, FRAMES, 4, 4, 1, i % 2))
    write_manifest(out / "manifest.tsv", records)
    return out


@pytest.fixture()
def generated(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "gen.rcg"
    write_container(path, rng.uniform(-1, 1, (3, 16, 4, 4, 1)).astype(np.float32))
    return path


def _eval(generated, reference, report, *flags, capsys=None):
    """The report bytes (and the stdout, with `capsys`) of one eval."""
    code = cli.main(["eval", "--data", str(generated), "--reference",
                     str(reference), "--report", str(report), *SEG, *flags])
    assert code == 0
    out = capsys.readouterr().out if capsys is not None else None
    return report.read_bytes(), out


def _fresh(generated, reference, report, *flags):
    """The report of an eval with no stats file to read."""
    (reference / "refstats.rcgb").unlink(missing_ok=True)
    return _eval(generated, reference, report, *flags)[0]


@pytest.mark.parametrize("flags", [[], ["--probe"]], ids=["plain", "probe"])
def test_warm_report_equals_cold(data, generated, tmp_path, capsys,
                                 monkeypatch, flags):
    report = tmp_path / "r.tsv"
    cold = _eval(generated, data, report, *flags, capsys=capsys)
    stats = data / "refstats.rcgb"
    written = stats.read_bytes()
    header, arrays = load_checkpoint(stats)
    assert sorted(header) == ["digest", "key"]
    assert ("probe.3" in arrays) == bool(flags)
    # a hit fits nothing and trains nothing
    def refuse(*args, **kwargs):
        raise AssertionError("a warm eval recomputed the reference side")
    monkeypatch.setattr(cli, "reference_fits", refuse)
    monkeypatch.setattr(cli, "train_probe", refuse)
    assert _eval(generated, data, report, *flags, capsys=capsys) == cold
    assert stats.read_bytes() == written


def test_probe_run_adds_the_probe_to_a_file_without_one(data, generated,
                                                         tmp_path):
    report = tmp_path / "r.tsv"
    _eval(generated, data, report)
    assert "probe.0" not in load_checkpoint(data / "refstats.rcgb")[1]
    warm = _eval(generated, data, report, "--probe")[0]
    assert "probe.0" in load_checkpoint(data / "refstats.rcgb")[1]
    assert warm == _fresh(generated, data, report, "--probe")


def _set_pixel(ref):
    video = read_container(ref / "video_00002.rcg")
    video[3, 1, 2, 0] = 0.5
    write_container(ref / "video_00002.rcg", video)


def _swap_label(ref):
    manifest = ref / "manifest.tsv"
    manifest.write_bytes(manifest.read_bytes().replace(
        b"video_00002.rcg\t12\t4\t4\t1\t0", b"video_00002.rcg\t12\t4\t4\t1\t1"))


@pytest.mark.parametrize("change,flags", [
    (_set_pixel, []),
    (_swap_label, []),
    (None, ["--seed", "9"]),
    (None, ["--seg-len", "3"]),     # the later flag wins
], ids=["pixel", "label", "seed", "seg-len"])
def test_changed_inputs_recompute_the_file(data, generated, tmp_path, change,
                                           flags):
    report = tmp_path / "r.tsv"
    cold = _eval(generated, data, report, "--probe")[0]
    stale = (data / "refstats.rcgb").read_bytes()
    if change is not None:
        change(data)
    changed = _eval(generated, data, report, "--probe", *flags)[0]
    rewritten = (data / "refstats.rcgb").read_bytes()
    assert rewritten != stale
    assert changed != cold
    assert changed == _fresh(generated, data, report, "--probe", *flags)
    assert (data / "refstats.rcgb").read_bytes() == rewritten


def test_forced_blas_kernel_recomputes_the_file(data, generated, tmp_path,
                                                monkeypatch):
    """OpenBLAS reads OPENBLAS_CORETYPE when it loads, and a forced kernel
    changes float64 bits, so fits made under another kernel are stale."""
    report = tmp_path / "r.tsv"
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    cold = _eval(generated, data, report, "--probe")[0]
    key = load_checkpoint(data / "refstats.rcgb")[0]["key"]
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    assert _eval(generated, data, report, "--probe")[0] == cold
    assert load_checkpoint(data / "refstats.rcgb")[0]["key"] != key


@pytest.mark.skipif(
    np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    != "scipy-openblas" or platform.machine() not in ("x86_64", "AMD64"),
    reason="reads the kernel of numpy's bundled x86 OpenBLAS")
def test_numeric_domain_reads_the_kernel_openblas_runs():
    """A forced kernel is the one named, so the name is read from the
    loaded library rather than from its build configuration."""
    code = "from vidchain.cli import numeric_domain; print(numeric_domain()['blas_core'])"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["Nehalem"]


def test_picked_blas_kernel_recomputes_the_file(data, generated, tmp_path,
                                               monkeypatch):
    """The kernel OpenBLAS picks for a CPU is part of the key, so a reference
    directory copied to a machine where another kernel runs is refitted."""
    report = tmp_path / "r.tsv"
    cold = _eval(generated, data, report, "--probe")[0]
    stats = data / "refstats.rcgb"
    key = load_checkpoint(stats)[0]["key"]
    domain = cli.numeric_domain()
    assert domain["blas_core"] is None or domain["blas_core"].isidentifier()
    monkeypatch.setattr(cli, "numeric_domain",
                        lambda: {**domain, "blas_core": "SomeOtherCore"})
    assert _eval(generated, data, report, "--probe")[0] == cold
    assert load_checkpoint(stats)[0]["key"] != key


@pytest.mark.parametrize("flags", [[], ["--probe"]], ids=["plain", "probe"])
def test_one_features_pass_per_video_set(data, generated, tmp_path,
                                         monkeypatch, flags):
    """A cold eval featurizes the reference set once and the generated set
    once; a warm one only the generated set."""
    calls = []
    features = FeatureExtractor.features
    monkeypatch.setattr(FeatureExtractor, "features",
                        lambda self, clips: calls.append(len(clips))
                        or features(self, clips))
    report = tmp_path / "r.tsv"
    _eval(generated, data, report, *flags)
    assert calls == [6 * 3, 3 * 4]          # reference rows, generated rows
    _eval(generated, data, report, *flags)
    assert calls[2:] == [3 * 4]


def _truncate(blob):
    return blob[:len(blob) // 2]


def _flip_header(blob):
    """One hex digit of the stored key changed."""
    at = blob.index(b'"key": "') + len(b'"key": "')
    return blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]


def _flip_payload(blob):
    """The lowest mantissa byte of the last stored value changed."""
    at = len(blob) - 8
    return blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]


@pytest.mark.parametrize("damage", [_truncate, _flip_header, _flip_payload],
                         ids=["truncated", "header-byte", "payload-byte"])
def test_damaged_file_is_replaced(data, generated, tmp_path, damage):
    report = tmp_path / "r.tsv"
    cold = _eval(generated, data, report, "--probe")[0]
    stats = data / "refstats.rcgb"
    good = stats.read_bytes()
    stats.write_bytes(damage(good))
    assert _eval(generated, data, report, "--probe")[0] == cold
    assert stats.read_bytes() == good


def test_unwritable_stats_path_costs_only_time(data, generated, tmp_path,
                                               capsys):
    report = tmp_path / "r.tsv"
    fresh = _fresh(generated, data, report, "--probe")
    capsys.readouterr()
    stats = data / "refstats.rcgb"
    stats.unlink()
    stats.mkdir()       # a directory: the write fails, even as root
    for _ in range(2):
        assert _eval(generated, data, report, "--probe")[0] == fresh
        assert capsys.readouterr().err == ""
    assert stats.is_dir() and os.listdir(stats) == []


def test_container_reference_writes_no_stats(data, generated, tmp_path):
    ref_dir = tmp_path / "container_ref"
    ref_dir.mkdir()
    shutil.copy(data / "video_00000.rcg", ref_dir / "ref.rcg")
    _eval(generated, ref_dir / "ref.rcg", tmp_path / "r.tsv")
    assert os.listdir(ref_dir) == ["ref.rcg"]

