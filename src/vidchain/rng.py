"""Named, splittable, counter-based random streams.

Every stochastic operation in the library takes an explicit RandomStream so
that whole runs are bit-reproducible from a single integer seed.  Streams are
backed by the Philox counter-based generator; child streams are derived by
hashing the parent key with a human-readable name, so the draw order of one
stream never perturbs another.  A stream builds its Philox generator on its
first draw, so a stream that is only split never builds one.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RandomStream"]


def _derive_key(parent: bytes, name: str) -> bytes:
    return hashlib.sha256(parent + name.encode("utf-8")).digest()[:16]


class RandomStream:
    """A seeded random source with named, independent children.

    `split(name)` is deterministic: the same (seed, path of names) always
    yields the same stream, regardless of how many draws were made anywhere
    else.  Draws on a stream advance only that stream.
    """

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError("stream key must be 16 bytes")
        self.key = key
        self._gen = None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            philox = np.random.Philox(key=np.frombuffer(self.key, dtype=np.uint64))
            self._gen = np.random.Generator(philox)
        return self._gen

    @classmethod
    def from_seed(cls, seed: int, label: str = "root") -> "RandomStream":
        raw = int(seed).to_bytes(16, "little", signed=True)
        return cls(_derive_key(raw, label))

    def split(self, name: str) -> "RandomStream":
        """Fresh independent stream derived from this stream's identity."""
        return RandomStream(_derive_key(self.key, name))

    # -- draws ---------------------------------------------------------------

    def normal(self, shape=(), scale: float = 1.0) -> np.ndarray:
        return self._generator().standard_normal(size=shape, dtype=np.float64) * scale

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._generator().uniform(low, high, size=shape)

    def integers(self, low, high, shape=()) -> np.ndarray:
        """Uniform integers in [low, high); array bounds broadcast to shape."""
        return self._generator().integers(low, high, size=shape)

    def choice(self, n: int, size: int) -> np.ndarray:
        """`size` draws from range(n), with replacement."""
        return self._generator().choice(n, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._generator().permutation(n)
