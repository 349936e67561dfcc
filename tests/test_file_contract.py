"""The error contract under damaged files, by mutation.

Each test changes one byte of a file a command reads, in three ways (0x00,
0xFF, the low bit flipped), and runs the command on it in-process.  Every
run must keep the README's contract: exit 0, or exactly one
``error code=<kind> detail=...`` line on stderr with that kind's exit code,
no uncaught exception and no warning.  Every header byte is mutated; the
array payloads, whose bytes all decode the same way, and the manifest's
comment line, which the reader skips, at a stride.
"""

import re
import struct
import warnings

import numpy as np
import pytest

from vidchain import cli

from test_cli import TINY_FLAGS, run, tiny_dataset  # noqa: F401 (fixture)

# the documented exit code of each error kind
_CODES = {"config": 2, "missing-file": 3, "data-format": 4, "dimension": 4,
          "numeric": 5}
# strides over the bytes that are mutated sparsely, odd so that they reach
# every byte of a float
CKPT_PAYLOAD_STRIDE = 2003      # of a TINY checkpoint's ~133 kB of payload
VIDEO_PAYLOAD_STRIDE = 31       # of one dataset video's 768 bytes of payload
COMMENT_STRIDE = 3              # of the manifest's 40-byte comment text


@pytest.fixture(autouse=True)
def one_parser(monkeypatch):
    """Build the argument parser once per test, not once per run: at about
    4 ms it would be most of a run that stops at a damaged file."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)


def _mutants(blob: bytes, positions):
    """(position, blob with that byte set to 0x00, 0xFF and flipped in its
    low bit), each value that differs from the original."""
    for at in positions:
        for value in (0x00, 0xFF, blob[at] ^ 1):
            if value != blob[at]:
                yield at, blob[:at] + bytes([value]) + blob[at + 1:]


def _checkpoint_payloads(blob: bytes) -> list[range]:
    """The byte range of each array payload in a checkpoint file: magic and
    version, the config's length and text, the array count, then per array
    its name's length and text, its container's length and header."""
    pos = 8
    pos += 4 + struct.unpack_from("<I", blob, pos)[0]
    count = struct.unpack_from("<I", blob, pos)[0]
    pos += 4
    spans = []
    for _ in range(count):
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
        length = struct.unpack_from("<Q", blob, pos)[0]
        ndim = struct.unpack_from("<I", blob, pos + 8 + 12)[0]
        spans.append(range(pos + 8 + 16 + 8 * ndim, pos + 8 + length))
        pos += 8 + length
    assert pos == len(blob)
    return spans


def _positions(size: int, sparse, stride: int) -> list[int]:
    """Every position outside the `sparse` ranges, then every `stride`th
    position inside them, counted across all of them."""
    inside = np.zeros(size, bool)
    for span in sparse:
        inside[span.start:span.stop] = True
    return (np.flatnonzero(~inside).tolist()
            + np.flatnonzero(inside)[::stride].tolist())


def _broken(argv, capsys) -> str | None:
    """None when one in-process run of `argv` keeps the contract, else what
    it did instead."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = run(argv)
        except Exception as exc:        # noqa: BLE001 - a traceback
            code = exc
    err = capsys.readouterr().err.strip().splitlines()
    if isinstance(code, Exception):
        return f"raised {code!r}"
    if caught:
        return f"warned {[str(w.message) for w in caught]}"
    if code == 0:
        return None
    line = re.fullmatch(r"error code=(\S+) detail=.*", err[0]) \
        if len(err) == 1 else None
    if line is None or _CODES.get(line[1]) != code:
        return f"exit {code} with stderr {err}"
    return None


def _probe(path, positions, commands, capsys) -> list[str]:
    """Each command on each mutant of the file at `path`, restored after."""
    blob = path.read_bytes()
    failures = []
    try:
        for at, mutant in _mutants(blob, positions):
            path.write_bytes(mutant)
            for argv in commands:
                problem = _broken(argv, capsys)
                if problem:
                    failures.append(f"{path.name}[{at}]={mutant[at]:#04x} "
                                    f"{argv[0]}: {problem}")
    finally:
        path.write_bytes(blob)
    return failures


def test_checkpoint_mutations_keep_the_contract(tiny_dataset, tmp_path,
                                                capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--out", ckpt,
                "--steps", "1", *TINY_FLAGS]) == 0
    capsys.readouterr()
    blob = ckpt.read_bytes()
    positions = _positions(len(blob), _checkpoint_payloads(blob),
                           CKPT_PAYLOAD_STRIDE)
    commands = [
        ["generate-long", "--ckpt", ckpt, "--out", tmp_path / "l.rcg",
         "--clips", "2"],
        ["train-recall", "--data", tiny_dataset, "--init", ckpt,
         "--out", tmp_path / "r.ckpt", "--steps", "1"],
    ]
    failures = _probe(ckpt, positions, commands, capsys)
    assert not failures, "\n".join(failures[:20])


@pytest.mark.parametrize("target", ["video_00000.rcg", "manifest.tsv"])
def test_dataset_mutations_keep_the_contract(tiny_dataset, tmp_path, capsys,
                                             target):
    path = tiny_dataset / target
    blob = path.read_bytes()
    if target == "manifest.tsv":    # the comment after its "#"
        positions = _positions(len(blob), [range(1, blob.index(b"\n"))],
                               COMMENT_STRIDE)
    else:   # after the RCG1 header: magic, version, dtype tag, ndim, 4 dims
        positions = _positions(len(blob), [range(48, len(blob))],
                               VIDEO_PAYLOAD_STRIDE)
    commands = [
        ["train", "--data", tiny_dataset, "--out", tmp_path / "m.ckpt",
         "--steps", "1", *TINY_FLAGS],
        ["eval", "--data", tiny_dataset, "--reference", tiny_dataset,
         "--report", tmp_path / "e.tsv", "--seg-len", "4", "--probe"],
        ["roundtrip-check", "--data", tiny_dataset, "--t-c", "4"],
    ]
    failures = _probe(path, positions, commands, capsys)
    assert not failures, "\n".join(failures[:20])
