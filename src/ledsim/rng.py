"""Path-addressed random streams.

Every random draw in the simulator is keyed by a (seed, path) pair, where the
path is an ordered tuple of labels such as ("run", 3, "round", 17,
"grad_noise", 2).  Two streams with different paths are statistically
independent, and the same (seed, path) reproduces the same draws no matter
what else has been sampled, which makes runs reproducible under any
parallel schedule.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_ZEROS4 = np.zeros(4, dtype=np.uint64)


@functools.cache
def _shared_generator() -> np.random.Generator:
    """One Philox Generator, rekeyed before every draw of normal()/uniform().

    A Philox state is fully set by its key, counter and buffer, so rekeying
    gives the draws of a fresh Philox(key=...) without constructing one (whose
    unused SeedSequence reads os.urandom).  It never leaves this module, and it
    is not safe to share across threads (ledsim parallelises with processes).
    Created on first use rather than when ledsim is imported.
    """
    return np.random.Generator(np.random.Philox(0))


class RngStream:
    """A deterministic random stream addressed by a seed and a label path."""

    __slots__ = ("seed", "path")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(path)

    def child(self, *labels) -> "RngStream":
        """Derive a sub-stream by extending the path."""
        return RngStream(self.seed, self.path + labels)

    def _key(self) -> np.ndarray:
        """The Philox key: the first 16 bytes of sha256(repr((seed, path)))."""
        digest = hashlib.sha256(repr((self.seed, self.path)).encode()).digest()
        return np.frombuffer(digest[:16], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        """A fresh Generator keyed by sha256(seed, path).

        Calling this twice on the same stream returns identical generators;
        the stream is a pure address, not a stateful source.
        """
        return np.random.Generator(np.random.Philox(key=self._key()))

    def _rekeyed(self) -> np.random.Generator:
        """The shared Generator, reset to the state generator() starts in."""
        gen = _shared_generator()
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS4, "key": self._key()},
            "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return gen

    def normal(self, size, scale: float = 1.0) -> np.ndarray:
        """Standard normals scaled by `scale`; equal to generator()'s draws."""
        out = self._rekeyed().standard_normal(size)
        if scale != 1.0:
            out *= scale
        return out

    def uniform(self) -> float:
        """One uniform on [0, 1); equal to generator().random()."""
        return float(self._rekeyed().random())

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"
