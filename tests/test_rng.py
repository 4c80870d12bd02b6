"""Path-addressed stream contract: reproducible, order-independent, disjoint."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledsim import RngStream

_labels = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.text(max_size=8))


def test_same_seed_and_path_reproduce_draws():
    a = RngStream(42).child("run", 3, "round", 17).normal(8)
    b = RngStream(42).child("run", 3, "round", 17).normal(8)
    assert np.array_equal(a, b)


def test_draws_independent_of_call_order():
    s = RngStream(0)
    first = s.child("a").normal(4)
    _ = s.child("b").normal(1000)  # interleaved sampling elsewhere
    again = s.child("a").normal(4)
    assert np.array_equal(first, again)


def test_different_paths_differ():
    s = RngStream(1)
    assert not np.array_equal(s.child("x").normal(16), s.child("y").normal(16))
    assert not np.array_equal(s.child("x", 0).normal(16),
                              s.child("x", 1).normal(16))


def test_different_seeds_differ():
    assert not np.array_equal(RngStream(0).normal(16), RngStream(1).normal(16))


def test_child_extends_path():
    s = RngStream(5, ("run", 1))
    c = s.child("round", 2)
    assert c.path == ("run", 1, "round", 2)
    assert c.seed == 5


def test_scaled_normal_and_uniform_range():
    s = RngStream(9).child("noise")
    assert np.array_equal(s.normal(32, 2.5), 2.5 * s.normal(32))
    u = [RngStream(9).child("u", i).uniform() for i in range(100)]
    assert all(0.0 <= v < 1.0 for v in u)


def test_generator_is_pure_address():
    s = RngStream(3).child("g")
    assert np.array_equal(s.generator().random(10), s.generator().random(10))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 63), path=st.lists(_labels, max_size=5),
       size=st.one_of(st.integers(0, 40),
                      st.tuples(st.integers(1, 16), st.integers(1, 6))),
       scale=st.sampled_from([1.0, 0.5, 1e-3]))
def test_draws_equal_fresh_generator_draws(seed, path, size, scale):
    s = RngStream(seed, tuple(path))
    held = s.generator()
    first = held.standard_normal(size)
    # draws on other streams between two draws of a held generator
    assert np.array_equal(s.normal(size, scale), scale * first)
    other = RngStream(seed + 1, tuple(path)).child("other")
    assert np.array_equal(other.normal(size),
                          other.generator().standard_normal(size))
    assert s.uniform() == float(s.generator().random())
    assert type(s.uniform()) is float
    uniforms = s.uniform(size)
    assert isinstance(uniforms, np.ndarray)
    assert np.array_equal(uniforms, s.generator().random(size))
    # the held generator continues its own sequence, untouched by the above
    fresh = s.generator()
    fresh.standard_normal(size)
    assert np.array_equal(held.standard_normal(size), fresh.standard_normal(size))
    assert held.random() == fresh.random()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 63), path=st.lists(_labels, max_size=4),
       lane_runs=st.lists(st.integers(0, 6), min_size=1, max_size=8).map(sorted),
       size=st.one_of(st.integers(0, 12),
                      st.tuples(st.integers(1, 5), st.integers(1, 4))),
       scale=st.sampled_from([1.0, 0.5]))
def test_run_streams_draw_each_run_as_its_own_stream(seed, path, lane_runs,
                                                     size, scale):
    runs, lanes = np.unique(lane_runs, return_inverse=True)
    runs = tuple(map(int, runs))
    gather = None if len(runs) == len(lane_runs) else lanes
    streams = RngStream(seed, runs=runs, lanes=gather).child(*path)
    assert streams.path == tuple(path)
    normal, uniform = streams.normal(size, scale), streams.uniform()
    blocks = streams.uniform(size)
    assert normal.shape == (len(lane_runs),) + np.shape(np.empty(size))
    assert uniform.shape == (len(lane_runs),)
    for lane, run in enumerate(lane_runs):
        own = RngStream(seed).child("run", run, *path)
        assert normal[lane].tobytes() == own.normal(size, scale).tobytes()
        assert uniform[lane] == own.uniform()
        assert blocks[lane].tobytes() == own.uniform(size).tobytes()


def test_for_runs_keys_numpy_run_indices_as_python_ints():
    # a label keys through its repr, which differs for np.int64(3) and 3
    assert not np.array_equal(RngStream(1).child("run", np.int64(3)).normal(4),
                              RngStream(1).child("run", 3).normal(4))
    one = RngStream.for_runs(1, np.array([3, 3]))
    assert one.runs is None and one.path == ("run", 3)
    lane_runs = np.array([0, 2, 2])
    draws = RngStream.for_runs(1, lane_runs).child("round", 5).normal(2)
    for lane, run in enumerate(lane_runs.tolist()):
        own = RngStream(1).child("run", run, "round", 5)
        assert draws[lane].tobytes() == own.normal(2).tobytes()


def test_generator_refuses_a_lane_stream():
    # a lane stream has one generator per run, none of them that of its bare
    # (seed, path)
    lanes = RngStream.for_runs(1, [0, 2]).child("round", 5)
    with pytest.raises(ValueError, match="lane stream"):
        lanes.generator()
    assert "lanes=None" in repr(lanes) and "runs=(0, 2)" in repr(lanes)
    shared = RngStream.for_runs(1, [0, 2, 2])
    assert "lanes=[0 1 1]" in repr(shared)
    with pytest.raises(ValueError, match="lane stream"):
        shared.generator()


# literal keys and draws of the derivation sha256(repr((seed, path)))[:16]:
# a rewrite that changed the reference and the fast paths alike would still
# pass the property tests above
_GOLDEN = [
    ((), "c0c160aed38b411bc1b27a98d60c75fe",
     [-0.2996203990993739, -1.854505861901543, 0.9604119651076276]),
    (("a",), "8d304d4811ce2c295c6faa49b0f787d3",
     [-0.4543473202646353, -0.6848320781466148, -0.8508008723141887]),
    (("run", 3, "round", 17, "grad_noise", 1), "ff67f44c3d475383be7f842ee155795b",
     [-1.0089582665331536, -0.11565165851738175, -1.0702474353989657]),
]


def test_keys_and_draws_equal_golden_values():
    for path, key, draws in _GOLDEN:
        s = RngStream(1).child(*path)
        assert s.generator().bit_generator.state["state"]["key"].tobytes().hex() == key
        assert s.generator().standard_normal(3).tolist() == draws
        assert s.normal(3).tolist() == draws
    assert RngStream(1, runs=(0, 2)).child("round", 5).normal(2).tolist() == [
        [-0.9460343955070543, 1.0956079204807818],
        [-0.7061271059462868, -0.6845708275063936]]
