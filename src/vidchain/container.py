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
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContainerError", "ManifestError", "write_container", "read_container",
    "ContainerWriter", "save_checkpoint", "load_checkpoint",
    "ManifestRecord", "write_manifest", "read_manifest", "load_dataset",
    "atomic_write", "write_table",
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
    """The array of one container file, read straight into a fresh native
    array.  Datasets and generated videos hold only finite values, so a NaN
    or an infinity in the payload is refused as malformed data."""
    with open(path, "rb") as fh:
        arr = _read_array(fh, os.fstat(fh.fileno()).st_size, name=str(path))
    if not np.isfinite(arr).all():
        raise ContainerError(f"{path}: payload holds a non-finite value")
    return arr


def _read_array(fh, size: int, name: str, skip: bool = False):
    """The container of `size` bytes at `fh`'s position.  Its header is read
    and checked against `size`, then its payload is read once, into the array
    returned; with `skip`, the payload is seeked past and None returned."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise ContainerError(f"{name}: bad magic {magic!r}")
    if size < 16:
        raise ContainerError(f"{name}: header cut short at {size} bytes")
    version, tag, ndim = struct.unpack("<III", fh.read(12))
    if version != VERSION:
        raise ContainerError(f"{name}: unsupported version {version}")
    if tag not in _DTYPES:
        raise ContainerError(f"{name}: unknown dtype tag {tag}")
    start = 16 + 8 * ndim
    if size < start:
        raise ContainerError(f"{name}: header cut short at {size} bytes, "
                             f"{ndim} dims need {start}")
    dims = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
    dtype = _DTYPES[tag]
    nbytes = math.prod(dims) * dtype.itemsize
    if size != start + nbytes:
        raise ContainerError(f"{name}: payload is {size - start} bytes, "
                             f"dims {tuple(dims)} require {nbytes}")
    if skip:
        fh.seek(nbytes, os.SEEK_CUR)
        return None
    arr = np.empty(dims, dtype.type)
    got = fh.readinto(arr)
    if got != nbytes:
        raise ContainerError(f"{name}: payload cut short at {got} of "
                             f"{nbytes} bytes")
    if sys.byteorder != "little":
        arr.byteswap(inplace=True)
    return arr


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
        self._fh.write(np.ascontiguousarray(item, dtype=self._dtype).data)
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
    """Write `config` and the float64 `arrays` as a checkpoint.  Each array's
    bytes go from the array to the file once, after its header."""
    cfg_blob = json.dumps(config, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(BUNDLE_MAGIC + struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(cfg_blob)) + cfg_blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.require(arr, "<f8", "C")
            header = _header(2, arr.shape)
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_b)) + name_b)
            fh.write(struct.pack("<Q", len(header) + arr.nbytes) + header)
            fh.write(arr.data)


def _unpack(fh, fmt: str):
    """One field read from `fh`; a file cut short raises struct.error."""
    return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))[0]


def _read_text(fh, length: int, file_size: int) -> str:
    """`length` bytes of UTF-8 from `fh`, or as many as the file still holds:
    a corrupt length asks for no more memory than the file's size."""
    return fh.read(min(length, file_size - fh.tell())).decode("utf-8")


def _corrupt(path, exc: Exception) -> ContainerError:
    return ContainerError(f"{path}: truncated or corrupt checkpoint ({exc})")


def load_checkpoint(path, skip=lambda config: ()) -> tuple[dict, dict]:
    """The stored config and the named arrays of a checkpoint.

    Each array is read from the file once, straight into a fresh, writable,
    C-contiguous float64 array that nothing else references: the caller owns
    it, and `ModelBundle.init` adopts such arrays without copying them.
    `skip` is called once, on the stored config, after that is read and
    before any array is; what it raises propagates.  An array whose name
    starts with one of the prefixes it returns stays on disk: its header is
    read and checked, its payload is seeked past, and it is left out of the
    returned dict.  Any malformed, truncated or overlong file raises
    `ContainerError`."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != BUNDLE_MAGIC:
            raise ContainerError(f"{path}: not a checkpoint (magic {magic!r})")
        # A file cut short fails a field read (struct.error) or the decoding
        # of a cut config or name (UnicodeDecodeError, JSONDecodeError:
        # ValueErrors).
        try:
            version = _unpack(fh, "<I")
            if version != VERSION:
                raise ContainerError(f"{path}: unsupported checkpoint version {version}")
            cfg_len = _unpack(fh, "<I")
            config = json.loads(_read_text(fh, cfg_len, file_size))
        except (struct.error, ValueError) as exc:
            raise _corrupt(path, exc) from None
        if not isinstance(config, dict):
            raise ContainerError(f"{path}: stored config is not a JSON object")
        prefixes = tuple(skip(config))
        try:
            count = _unpack(fh, "<I")
            arrays = {}
            pos = fh.tell()
            for _ in range(count):
                name_len = _unpack(fh, "<I")
                name = _read_text(fh, name_len, file_size)
                blob_len = _unpack(fh, "<Q")
                pos = fh.tell()
                if blob_len > file_size - pos:
                    raise ContainerError(
                        f"{path}:{name}: file truncated, array of {blob_len} "
                        f"bytes but {file_size - pos} remain")
                arr = _read_array(fh, blob_len, name=f"{path}:{name}",
                                  skip=name.startswith(prefixes))
                if arr is not None:
                    arrays[name] = arr
                pos += blob_len
        except (struct.error, ValueError) as exc:
            raise _corrupt(path, exc) from None
    if pos != file_size:
        raise ContainerError(f"{path}: {file_size - pos} trailing bytes")
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


def write_table(path, columns, rows) -> None:
    """Write a `# `-prefixed line of column names, then one tab-separated
    line per row with each field formatted by `str`, through
    `atomic_write`."""
    lines = ["# " + "\t".join(columns)]
    lines += ["\t".join(map(str, row)) for row in rows]
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_manifest(path, records) -> None:
    write_table(path, ("path", "frames", "height", "width", "channels", "label"),
                ((r.path, r.frames, r.height, r.width, r.channels, r.label)
                 for r in records))


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
    """Videos ((L,H,W,C) arrays) and labels from a manifest.  Every record's
    container must exist and match its declared dims.  Each video is held
    at its container's dtype, float32 for every set `dataset-gen` writes:
    arithmetic widens to float64 where it starts (`clips_to_tensor`,
    `segment_features`), and float32 to float64 is exact, so the width
    held changes no result."""
    records = read_manifest(path)
    base = os.path.dirname(os.path.abspath(path))
    videos = []
    for rec in records:
        arr = read_container(os.path.join(base, rec.path))
        declared = (rec.frames, rec.height, rec.width, rec.channels)
        if arr.shape != declared:
            raise ManifestError(
                f"{rec.path}: container shape {arr.shape} != declared {declared}")
        videos.append(arr)
    labels = np.array([rec.label for rec in records], dtype=np.int64)
    return videos, labels
