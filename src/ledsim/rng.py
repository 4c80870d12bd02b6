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
import struct

import numpy as np

# the 16 key bytes at the head of a sha256 digest as two uint64 Python ints,
# in the native order np.frombuffer(..., np.uint64) reads them
_key_words = struct.Struct("=QQ").unpack_from


@functools.cache
def _shared_generator() -> tuple:
    """One Philox Generator, rekeyed before every draw of normal()/uniform(),
    and rekey(text), which keys it by sha256(text)[:16].

    A Philox state is fully set by its key, counter and buffer, so rekeying
    gives the draws of a fresh Philox(key=...) without constructing one (whose
    unused SeedSequence reads os.urandom).  The state holds Python ints and
    tuples, which the state setter reads about 3x faster than uint64 arrays;
    a rekey replaces only the key.  Created on first use; not safe to share
    across threads (ledsim parallelises with processes).
    """
    gen = np.random.Generator(np.random.Philox(0))
    bit_generator = gen.bit_generator
    keyed = {"counter": (0, 0, 0, 0), "key": (0, 0)}
    state = {"bit_generator": "Philox", "state": keyed, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(text: str) -> None:
        keyed["key"] = _key_words(hashlib.sha256(text.encode()).digest())
        bit_generator.state = state

    return gen, rekey


class RngStream:
    """A deterministic random stream addressed by a seed and a label path.

    A lane stream, one with runs, stands for the streams
    RngStream(seed).child("run", r, *path) of the distinct runs r in runs
    (Python ints), stepped as one with a leading lane axis; lanes maps each
    lane to its run's index in runs, or is None for one lane per run.  It
    draws once per run, each draw bitwise the one that run's own stream
    makes, and returns the draws gathered to the lanes, stacked on axis 0:
    the lanes of one run share its draw.  for_runs() builds one.
    """

    __slots__ = ("seed", "path", "runs", "lanes")

    def __init__(self, seed: int, path: tuple = (), runs=None, lanes=None):
        self.seed = int(seed)
        self.path = tuple(path)
        self.runs = runs
        self.lanes = lanes

    @classmethod
    def for_runs(cls, seed: int, runs) -> "RngStream":
        """The stream of lanes whose runs are the integers `runs`, ascending:
        that run's own stream when there is one run, else a lane stream."""
        # labels key through their repr, and repr(np.int64(3)) is not "3"
        distinct = tuple(dict.fromkeys(map(int, runs)))
        if len(distinct) == 1:
            return cls(seed).child("run", distinct[0])
        return cls(seed, (), distinct, None if len(distinct) == len(runs)
                   else np.searchsorted(distinct, runs))

    def child(self, *labels) -> "RngStream":
        """Derive a sub-stream by extending the path."""
        return RngStream(self.seed, self.path + labels, self.runs, self.lanes)

    def generator(self) -> np.random.Generator:
        """A fresh Generator keyed by sha256(seed, path); ValueError for a
        lane stream, whose runs each have their own.

        Calling this twice on the same stream returns identical generators;
        the stream is a pure address, not a stateful source.
        """
        if self.runs is not None:
            raise ValueError(f"{self!r} is a lane stream; take generator() "
                             "of one run's stream")
        key = _key_words(hashlib.sha256(repr((self.seed, self.path)).encode()).digest())
        # typed: numpy converts two Python ints past 2**63 through float64
        return np.random.Generator(np.random.Philox(key=np.array(key, np.uint64)))

    def _draw(self, method: str, size):
        """The shared Generator's `method`(size), rekeyed to the state
        generator() starts in; for a lane stream, once per run, keyed by one
        head and tail formatted around each run's repr."""
        gen, rekey = _shared_generator()
        draw = getattr(gen, method)
        if self.runs is None:
            rekey(repr((self.seed, self.path)))
            return draw(size)
        shape = () if size is None else tuple(size) if np.iterable(size) else (size,)
        out = np.empty((len(self.runs),) + shape)
        head = f"({self.seed!r}, ('run', "
        tail = "".join(", " + repr(label) for label in self.path) + "))"
        for k, run in enumerate(self.runs):
            rekey(f"{head}{run!r}{tail}")
            draw(out=out[k:k + 1])
        return out if self.lanes is None else out[self.lanes]

    def normal(self, size, scale: float = 1.0) -> np.ndarray:
        """Standard normals scaled by `scale`; equal to generator()'s draws."""
        out = self._draw("standard_normal", size)
        if scale != 1.0:
            out *= scale
        return out

    def uniform(self, size=None):
        """Uniforms on [0, 1) equal to generator().random(size); a float
        when size is None, or one per lane for a lane stream."""
        return self._draw("random", size)

    def __repr__(self) -> str:
        return (f"RngStream(seed={self.seed}, path={self.path}, "
                f"runs={self.runs}, lanes={self.lanes})")
