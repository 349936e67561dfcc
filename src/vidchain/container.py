"""Bit-exact binary tensor containers, dataset manifests, and checkpoints.

Container layout (magic "RCG1"), all integers little-endian:

    magic    4 bytes  b"RCG1"
    version  u32      currently 1
    dtype    u32      1 = float32, 2 = float64
    ndim     u32
    dims     ndim * u64
    payload  row-major little-endian scalars

The first dimension sits at a fixed byte offset, so a writer can stream
frames and patch the final length on close — that is how long generated
videos are written incrementally.  Every container is written through
`ContainerWriter`, into a temporary file that only a completed write moves
into place.

A checkpoint (magic "RCGB") is a JSON config echo followed by named RCG1
blobs; loading verifies the config against the caller's and refuses to mix
incompatible runs.

A dataset manifest is line-oriented text: one tab-separated record per
container with its declared geometry and class label.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContainerError", "ManifestError", "write_container", "read_container",
    "ContainerWriter", "save_checkpoint", "load_checkpoint",
    "ManifestRecord", "write_manifest", "read_manifest", "load_dataset",
    "atomic_write",
]

MAGIC = b"RCG1"
BUNDLE_MAGIC = b"RCGB"
VERSION = 1
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_TAGS = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}


class ContainerError(RuntimeError):
    """Malformed, truncated, or incompatible container data."""


class ManifestError(RuntimeError):
    """Malformed manifest line, or a record that disagrees with the
    container it points to."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a temporary file beside `path` for writing.  A block that
    completes moves it over `path` with `os.replace`; a block that raises
    deletes it, so `path` keeps its previous bytes or stays absent.  A
    `path` that is a directory is refused before anything is written."""
    path = os.fspath(path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _header(dtype_tag: int, dims) -> bytes:
    return (MAGIC + struct.pack("<III", VERSION, dtype_tag, len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims))


def write_container(path, array: np.ndarray) -> None:
    array = np.asarray(array)
    if array.ndim == 0:
        raise ContainerError("a container needs at least one dimension")
    with ContainerWriter(path, array.shape[1:], array.dtype) as writer:
        writer.append(array)


def read_container(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    return parse_container(blob, name=str(path))


def parse_container(blob: bytes, name: str = "<bytes>") -> np.ndarray:
    if blob[:4] != MAGIC:
        raise ContainerError(f"{name}: bad magic {blob[:4]!r}")
    if len(blob) < 16:
        raise ContainerError(f"{name}: header cut short at {len(blob)} bytes")
    version, tag, ndim = struct.unpack_from("<III", blob, 4)
    if version != VERSION:
        raise ContainerError(f"{name}: unsupported version {version}")
    if tag not in _DTYPES:
        raise ContainerError(f"{name}: unknown dtype tag {tag}")
    start = 16 + 8 * ndim
    if len(blob) < start:
        raise ContainerError(f"{name}: header cut short at {len(blob)} bytes, "
                             f"{ndim} dims need {start}")
    dims = struct.unpack_from(f"<{ndim}Q", blob, 16)
    dtype = _DTYPES[tag]
    count = math.prod(dims)
    want = start + count * dtype.itemsize
    if len(blob) != want:
        raise ContainerError(f"{name}: payload is {len(blob) - start} bytes, "
                             f"dims {tuple(dims)} require {count * dtype.itemsize}")
    arr = np.frombuffer(blob, dtype=dtype, count=count, offset=start)
    return arr.reshape(dims).astype(dtype.newbyteorder("="), copy=True)


class ContainerWriter:
    """Streaming writer that appends along axis 0 and patches the final length.

    The stream goes to a temporary file beside `path` (see `atomic_write`)
    under a header with a zero leading dimension.  `close()`, or a `with`
    block that completes, writes the true count and moves the file over
    `path`; a `with` block that raises deletes it, so `path` keeps its
    previous bytes or stays absent.
    """

    def __init__(self, path, item_shape, dtype=np.float32):
        dtype = np.dtype(dtype)
        if dtype not in _TAGS:
            raise ContainerError(f"unsupported dtype {dtype}; use float32 or float64")
        self._dtype = _DTYPES[_TAGS[dtype]]
        self._item_shape = tuple(int(d) for d in item_shape)
        self._count = 0
        self._target = atomic_write(path)
        self._fh = self._target.__enter__()
        self._fh.write(_header(_TAGS[dtype], (0,) + self._item_shape))

    def append(self, item: np.ndarray) -> None:
        item = np.asarray(item)
        if item.shape == self._item_shape:
            item = item[None]
        if item.shape[1:] != self._item_shape:
            raise ContainerError(f"item shape {item.shape[1:]} != declared {self._item_shape}")
        self._fh.write(np.ascontiguousarray(item, dtype=self._dtype).tobytes())
        self._count += item.shape[0]

    def close(self) -> int:
        self._fh.seek(16)  # first dim of the header
        self._fh.write(struct.pack("<Q", self._count))
        self._target.__exit__(None, None, None)
        return self._count

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            self.close()
        else:
            self._target.__exit__(*exc)
        return False


# -- checkpoints ---------------------------------------------------------------

def save_checkpoint(path, config: dict, arrays: dict) -> None:
    cfg_blob = json.dumps(config, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(BUNDLE_MAGIC + struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(cfg_blob)) + cfg_blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            blob = (_header(2, arr.shape)
                    + np.ascontiguousarray(arr, dtype="<f8").tobytes())
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_b)) + name_b)
            fh.write(struct.pack("<Q", len(blob)) + blob)


def load_checkpoint(path) -> tuple[dict, dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != BUNDLE_MAGIC:
        raise ContainerError(f"{path}: not a checkpoint (magic {blob[:4]!r})")
    # A file cut short fails a field read (struct.error) or the decoding of a
    # cut config or name (UnicodeDecodeError, JSONDecodeError: ValueErrors).
    try:
        (version,) = struct.unpack_from("<I", blob, 4)
        if version != VERSION:
            raise ContainerError(f"{path}: unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack_from("<I", blob, 8)
        pos = 12
        config = json.loads(blob[pos:pos + cfg_len].decode("utf-8"))
        if not isinstance(config, dict):
            raise ContainerError(f"{path}: stored config is not a JSON object")
        pos += cfg_len
        (count,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        arrays = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            name = blob[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (blob_len,) = struct.unpack_from("<Q", blob, pos)
            pos += 8
            arrays[name] = parse_container(blob[pos:pos + blob_len],
                                           name=f"{path}:{name}")
            pos += blob_len
    except (struct.error, ValueError) as exc:
        raise ContainerError(f"{path}: truncated or corrupt checkpoint "
                             f"({exc})") from None
    if pos != len(blob):
        raise ContainerError(f"{path}: {len(blob) - pos} trailing bytes")
    return config, arrays


# -- manifests -------------------------------------------------------------------

@dataclass
class ManifestRecord:
    path: str      # container path relative to the manifest
    frames: int
    height: int
    width: int
    channels: int
    label: int     # class id, -1 for unlabeled


def write_manifest(path, records) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("# path\tframes\theight\twidth\tchannels\tlabel\n")
        for r in records:
            fh.write(f"{r.path}\t{r.frames}\t{r.height}\t{r.width}\t{r.channels}\t{r.label}\n")


def read_manifest(path) -> list[ManifestRecord]:
    """The records of a manifest.  A line that is not UTF-8, lacks a field
    or holds a non-integer number raises `ManifestError` naming it."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    records = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ManifestError(f"{path}:{lineno}: not UTF-8 text") from None
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ManifestError(f"{path}:{lineno}: expected 6 tab-separated fields")
        try:
            numbers = [int(p) for p in parts[1:]]
        except ValueError:
            raise ManifestError(f"{path}:{lineno}: frames, height, width, "
                                "channels and label must be integers") from None
        records.append(ManifestRecord(parts[0], *numbers))
    return records


def load_dataset(path) -> tuple[list[np.ndarray], np.ndarray]:
    """Videos (float64 (L,H,W,C) arrays) and labels from a manifest.  Every
    record's container must exist and match its declared dims."""
    records = read_manifest(path)
    base = os.path.dirname(os.path.abspath(path))
    videos = []
    for rec in records:
        arr = read_container(os.path.join(base, rec.path))
        declared = (rec.frames, rec.height, rec.width, rec.channels)
        if arr.shape != declared:
            raise ManifestError(
                f"{rec.path}: container shape {arr.shape} != declared {declared}")
        videos.append(arr.astype(np.float64))
    labels = np.array([rec.label for rec in records], dtype=np.int64)
    return videos, labels
