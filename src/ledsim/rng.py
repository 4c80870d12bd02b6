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
def _shared_generator() -> tuple:
    """One Philox Generator, rekeyed before every draw of normal()/uniform(),
    with its reused state dict and a byte view of that state's key.

    A Philox state is fully set by its key, counter and buffer, so rekeying
    gives the draws of a fresh Philox(key=...) without constructing one (whose
    unused SeedSequence reads os.urandom); the setter copies the key, so a draw
    writes only its 16 key bytes.  Created on first use; not safe to share
    across threads (ledsim parallelises with processes).
    """
    key = np.zeros(2, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": _ZEROS4, "key": key},
             "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(np.random.Philox(0)), state, memoryview(key).cast("B")


def _digest(seed: int, path: tuple) -> bytes:
    """The 16 key bytes: the first 16 of sha256(repr((seed, path)))."""
    return hashlib.sha256(repr((seed, path)).encode()).digest()[:16]


class RngStream:
    """A deterministic random stream addressed by a seed and a label path."""

    __slots__ = ("seed", "path")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(path)

    def child(self, *labels) -> "RngStream":
        """Derive a sub-stream by extending the path."""
        return RngStream(self.seed, self.path + labels)

    def generator(self) -> np.random.Generator:
        """A fresh Generator keyed by sha256(seed, path).

        Calling this twice on the same stream returns identical generators;
        the stream is a pure address, not a stateful source.
        """
        return np.random.Generator(np.random.Philox(
            key=np.frombuffer(_digest(self.seed, self.path), dtype=np.uint64)))

    def _rekeyed(self) -> np.random.Generator:
        """The shared Generator, reset to the state generator() starts in."""
        gen, state, key_bytes = _shared_generator()
        key_bytes[:] = _digest(self.seed, self.path)
        gen.bit_generator.state = state
        return gen

    def normal(self, size, scale: float = 1.0) -> np.ndarray:
        """Standard normals scaled by `scale`; equal to generator()'s draws."""
        out = self._rekeyed().standard_normal(size)
        if scale != 1.0:
            out *= scale
        return out

    def uniform(self, size=None):
        """Uniforms on [0, 1) equal to generator().random(size); a float
        when size is None."""
        u = self._rekeyed().random(size)
        return float(u) if size is None else u

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"


class RunStreams(RngStream):
    """The streams RngStream(seed).child("run", r) of several runs, stepped as
    one stream with a leading lane axis.

    runs holds the distinct runs as Python ints (they enter the keys through
    their repr); lanes maps each lane to its run's index in runs, or is None
    for one lane per run.  normal() and uniform() draw once per run, each
    draw bitwise the one that run's own stream makes, and return the draws
    gathered to the lanes, stacked on axis 0: the lanes of one run share its
    draw.  child() extends the path below ("run", r).
    """

    __slots__ = ("runs", "lanes")

    def __init__(self, seed: int, runs: tuple, lanes=None, path: tuple = ()):
        super().__init__(seed, path)
        self.runs = runs
        self.lanes = lanes

    def child(self, *labels) -> "RunStreams":
        return RunStreams(self.seed, self.runs, self.lanes, self.path + labels)

    def _draws(self, method: str, size) -> np.ndarray:
        """The Generator method `method` once per run, rekeyed to the run's
        stream and filling its (size)-shaped slot, gathered to the lanes."""
        gen, state, key_bytes = _shared_generator()
        draw = getattr(gen, method)
        shape = (1,) if size is None else tuple(np.atleast_1d(size))
        out = np.empty((len(self.runs),) + shape)
        for k, run in enumerate(self.runs):
            key_bytes[:] = _digest(self.seed, ("run", run) + self.path)
            gen.bit_generator.state = state
            draw(out=out[k])
        if size is None:
            out = out[:, 0]
        return out if self.lanes is None else out[self.lanes]

    def normal(self, size, scale: float = 1.0) -> np.ndarray:
        out = self._draws("standard_normal", size)
        if scale != 1.0:
            out *= scale
        return out

    def uniform(self, size=None) -> np.ndarray:
        """One uniform per lane when size is None, else a (size) block each."""
        return self._draws("random", size)

    def __repr__(self) -> str:
        return (f"RunStreams(seed={self.seed}, runs={self.runs}, "
                f"path={self.path})")
