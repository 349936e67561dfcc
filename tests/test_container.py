"""Binary container, checkpoint, and manifest round-trips and error handling."""

import os
import struct

import numpy as np
import pytest

from vidchain.container import (
    ContainerError, ContainerWriter, ManifestError, ManifestRecord,
    load_checkpoint, load_dataset, read_container, read_manifest,
    save_checkpoint, write_container, write_manifest,
)


def test_roundtrip_float32_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((5, 4, 3, 2)).astype(np.float32)
    p = tmp_path / "a.rcg"
    write_container(p, arr)
    back = read_container(p)
    assert back.dtype == np.float32
    assert back.shape == arr.shape
    assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))


def test_roundtrip_float64_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((7, 3)).astype(np.float64)
    p = tmp_path / "b.rcg"
    write_container(p, arr)
    back = read_container(p)
    assert back.dtype == np.float64
    assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))


def test_written_bytes_match_documented_layout(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    p = tmp_path / "c.rcg"
    write_container(p, arr)
    blob = p.read_bytes()
    assert blob[:4] == b"RCG1"
    version, dtype_tag, ndim = struct.unpack_from("<III", blob, 4)
    assert (version, dtype_tag, ndim) == (1, 1, 2)
    assert struct.unpack_from("<2Q", blob, 16) == (2, 3)
    payload = np.frombuffer(blob, dtype="<f4", offset=32)
    assert np.array_equal(payload, arr.ravel())


def test_roundtrip_special_values(tmp_path):
    arr = np.array([0.0, -0.0, np.pi, 1e-300, -1e300, np.finfo(np.float64).tiny])
    p = tmp_path / "d.rcg"
    write_container(p, arr)
    back = read_container(p)
    assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))


def test_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ContainerError, match="dtype"):
        write_container(tmp_path / "e.rcg", np.arange(4, dtype=np.int32))


def test_read_missing_file():
    with pytest.raises(FileNotFoundError):
        read_container("/nonexistent/path.rcg")


def test_read_bad_magic(tmp_path):
    p = tmp_path / "f.rcg"
    p.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ContainerError, match="magic"):
        read_container(p)


def test_read_bad_version(tmp_path):
    p = tmp_path / "g.rcg"
    arr = np.zeros(3, dtype=np.float32)
    write_container(p, arr)
    blob = bytearray(p.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    p.write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match="version"):
        read_container(p)


def test_read_truncated_payload(tmp_path):
    p = tmp_path / "h.rcg"
    write_container(p, np.zeros((4, 4), dtype=np.float64))
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(ContainerError, match="payload"):
        read_container(p)


def test_every_container_prefix_raises_container_error(tmp_path):
    p = tmp_path / "cut.rcg"
    write_container(p, np.arange(6, dtype=np.float32).reshape(2, 3))
    blob = p.read_bytes()
    cut = tmp_path / "prefix.rcg"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(ContainerError):
            read_container(cut)


def test_every_checkpoint_prefix_raises_container_error(tmp_path):
    p = tmp_path / "tiny.ckpt"
    save_checkpoint(p, {"seed": 1, "name": "tiny"},
                    {"w": np.arange(4.0).reshape(2, 2), "b": np.ones(2)})
    blob = p.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        for skip in ((), ("w",), ("w", "b")):    # skipped payloads are checked too
            with pytest.raises(ContainerError):
                load_checkpoint(cut, lambda config: skip)


def test_checkpoint_skip_leaves_prefixed_arrays_out(tmp_path):
    p = tmp_path / "skip.ckpt"
    arrays = {"enc.0": np.arange(4.0), "opt_enc.m0": np.ones(4),
              "opt_enc.step": np.array([3.0]), "gen.0": np.eye(2)}
    save_checkpoint(p, {"k": 1}, arrays)
    cfg, back = load_checkpoint(p, lambda config: ("opt_",))
    assert cfg == {"k": 1}
    assert list(back) == ["enc.0", "gen.0"]
    assert np.array_equal(back["gen.0"], np.eye(2))
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(ContainerError, match="1 trailing bytes"):
        load_checkpoint(p, lambda config: ("opt_",))


def test_checkpoint_blob_length_past_end_is_truncation(tmp_path):
    p = tmp_path / "one.ckpt"
    save_checkpoint(p, {"k": 1}, {"w": np.arange(3.0)})
    data = bytearray(p.read_bytes())
    at = len(data) - (16 + 8 + 3 * 8) - 8      # the blob's length field
    (length,) = struct.unpack_from("<Q", data, at)
    assert length == len(data) - at - 8
    struct.pack_into("<Q", data, at, length + 8)
    p.write_bytes(data)
    with pytest.raises(ContainerError, match=r":w: file truncated"):
        load_checkpoint(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_refuses_non_finite_payload(tmp_path, bad):
    p = tmp_path / "nf.rcg"
    arr = np.zeros((3, 2), dtype=np.float32)
    arr[2, 1] = bad
    write_container(p, arr)
    with pytest.raises(ContainerError, match="nf.rcg: payload holds a non-finite"):
        read_container(p)


def test_checkpoint_rejects_non_object_config(tmp_path):
    p = tmp_path / "list.ckpt"
    save_checkpoint(p, [1, 2], {})
    with pytest.raises(ContainerError, match="JSON object"):
        load_checkpoint(p)


def test_read_oversized_payload(tmp_path):
    p = tmp_path / "i.rcg"
    write_container(p, np.zeros(3, dtype=np.float32))
    p.write_bytes(p.read_bytes() + b"\x00" * 4)
    with pytest.raises(ContainerError, match="payload"):
        read_container(p)


def test_streaming_writer_matches_one_shot(tmp_path):
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((9, 4, 4, 1)).astype(np.float32)
    one = tmp_path / "one.rcg"
    streamed = tmp_path / "streamed.rcg"
    write_container(one, frames)
    with ContainerWriter(streamed, (4, 4, 1), np.float32) as w:
        w.append(frames[0])          # single item
        w.append(frames[1:5])        # block
        for f in frames[5:]:
            w.append(f)
    assert one.read_bytes() == streamed.read_bytes()


def test_streaming_writer_patches_leading_dim(tmp_path):
    p = tmp_path / "j.rcg"
    w = ContainerWriter(p, (2, 2, 1), np.float64)
    w.append(np.ones((2, 2, 1)))
    w.append(np.ones((3, 2, 2, 1)))
    assert w.close() == 4
    assert read_container(p).shape == (4, 2, 2, 1)


def test_streaming_writer_rejects_wrong_item_shape(tmp_path):
    with ContainerWriter(tmp_path / "k.rcg", (2, 2, 1)) as w:
        with pytest.raises(ContainerError, match="shape"):
            w.append(np.ones((3, 3, 1)))


def test_streaming_writer_refuses_directory_before_writing(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        ContainerWriter(target, (2, 2, 1))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert os.listdir(target) == []


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {
        "enc.w0": rng.standard_normal((8, 4)),
        "enc.b0": rng.standard_normal(4),
        "gen.w0": rng.standard_normal((4, 8)),
    }
    config = {"seed": 7, "hidden": 96, "t_c": 16}
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, config, arrays)
    cfg_back, arrs_back = load_checkpoint(p)
    assert cfg_back == config
    assert list(arrs_back) == list(arrays)
    for name in arrays:
        assert np.array_equal(arrs_back[name].view(np.uint64),
                              arrays[name].view(np.uint64))


def test_checkpoint_save_is_deterministic(tmp_path):
    arrays = {"a": np.arange(3.0), "b": np.eye(2)}
    p1, p2 = tmp_path / "x1.ckpt", tmp_path / "x2.ckpt"
    save_checkpoint(p1, {"k": 1}, arrays)
    save_checkpoint(p2, {"k": 1}, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_container_file(tmp_path):
    p = tmp_path / "l.rcg"
    write_container(p, np.zeros(2, dtype=np.float32))
    with pytest.raises(ContainerError, match="magic"):
        load_checkpoint(p)


def test_checkpoint_missing_file():
    with pytest.raises(FileNotFoundError):
        load_checkpoint("/nonexistent/model.ckpt")


class _Unconvertible:
    """An array-like whose conversion fails, partway through a write."""

    def __array__(self, *args, **kwargs):
        raise RuntimeError("conversion failed")


def test_write_failing_midway_leaves_previous_file(tmp_path):
    ckpt, manifest = tmp_path / "m.ckpt", tmp_path / "index.tsv"
    save_checkpoint(ckpt, {"k": 1}, {"a": np.arange(3.0)})
    write_manifest(manifest, [ManifestRecord("a.rcg", 5, 4, 4, 1, 0)])
    before = {p: p.read_bytes() for p in (ckpt, manifest)}
    with pytest.raises(RuntimeError, match="conversion"):
        save_checkpoint(ckpt, {"k": 2}, {"a": np.arange(4.0), "b": _Unconvertible()})
    with pytest.raises(AttributeError):
        write_manifest(manifest, [ManifestRecord("b.rcg", 6, 4, 4, 1, 1), None])
    assert {p: p.read_bytes() for p in before} == before
    assert sorted(os.listdir(tmp_path)) == ["index.tsv", "m.ckpt"]


def _write_small_dataset(tmp_path, n=3, frames=5):
    rng = np.random.default_rng(4)
    records = []
    for i in range(n):
        clip = rng.standard_normal((frames, 4, 4, 1)).astype(np.float32)
        name = f"clip_{i:03d}.rcg"
        write_container(tmp_path / name, clip)
        records.append(ManifestRecord(name, frames, 4, 4, 1, i % 2))
    manifest = tmp_path / "index.tsv"
    write_manifest(manifest, records)
    return manifest, records


def test_manifest_roundtrip(tmp_path):
    manifest, records = _write_small_dataset(tmp_path)
    back = read_manifest(manifest)
    assert back == records


def test_manifest_header_and_fields(tmp_path):
    manifest, _ = _write_small_dataset(tmp_path)
    lines = manifest.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split("\t") == ["clip_000.rcg", "5", "4", "4", "1", "0"]


def test_load_dataset_accepts_consistent(tmp_path):
    manifest, records = _write_small_dataset(tmp_path)
    videos, labels = load_dataset(manifest)
    for rec, video in zip(records, videos, strict=True):
        assert np.array_equal(video, read_container(tmp_path / rec.path))
    assert labels.tolist() == [rec.label for rec in records]


def test_load_dataset_rejects_shape_mismatch(tmp_path):
    manifest, records = _write_small_dataset(tmp_path)
    records[1].frames = 99
    write_manifest(manifest, records)
    with pytest.raises(ManifestError, match="shape"):
        load_dataset(manifest)


def test_load_dataset_rejects_missing_container(tmp_path):
    manifest, _ = _write_small_dataset(tmp_path)
    (tmp_path / "clip_001.rcg").unlink()
    with pytest.raises(FileNotFoundError):
        load_dataset(manifest)


def test_load_dataset_reads_each_container_once(tmp_path, monkeypatch):
    manifest, records = _write_small_dataset(tmp_path)
    calls = []
    monkeypatch.setattr("vidchain.container.read_container",
                        lambda path: calls.append(path) or read_container(path))
    load_dataset(manifest)
    assert len(calls) == len(records)


def test_manifest_rejects_malformed_line(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("# header\nonly_two_fields\t5\n")
    with pytest.raises(ManifestError, match="6 tab-separated"):
        read_manifest(p)


def test_manifest_missing_file():
    with pytest.raises(FileNotFoundError):
        read_manifest("/nonexistent/index.tsv")


def test_load_dataset_returns_videos_at_stored_dtype_and_labels(tmp_path):
    manifest, _ = _write_small_dataset(tmp_path, n=4)
    videos, labels = load_dataset(manifest)
    assert len(videos) == 4
    assert all(v.dtype == np.float32 and v.shape == (5, 4, 4, 1) for v in videos)
    assert labels.tolist() == [0, 1, 0, 1]
    # a float64 container stays float64, every bit as written
    wide = np.random.default_rng(5).standard_normal((5, 4, 4, 1))
    write_container(tmp_path / "clip_001.rcg", wide)
    video = load_dataset(manifest)[0][1]
    assert video.dtype == np.float64 and video.tobytes() == wide.tobytes()
