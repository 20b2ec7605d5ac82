"""The finite-difference stencil plan: batched calls with every distinct
stencil point of many points, same sums as one point at a time."""

import math
import struct
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import fdcheck
from finslerlab.fdcheck import (
    FD_STEPS,
    _stencil_1d,
    fd_partial,
    fd_partials,
    per_row,
)
from finslerlab.jets import get_context

MONOMIALS = get_context(4, 4).monomials


def _reference_partial(f, point, multi_index, step=None):
    """One multi-index at a time, one f call per stencil entry."""
    order = sum(multi_index)
    if order == 0:
        return f(list(point))
    h = FD_STEPS[order] if step is None else step
    sums = []
    for size in (h, h / 2.0):
        total = 0.0
        for combo in product(*(_stencil_1d(k, size) for k in multi_index)):
            shifted = [x + off for x, (off, _) in zip(point, combo)]
            total += math.prod(w for _, w in combo) * f(shifted)
        sums.append(total)
    coarse, fine = sums
    return (4.0 * fine - coarse) / 3.0


def _scalar(z):
    return math.sin(z[0] + 0.3 * z[1]) * math.exp(0.2 * z[2]) + z[3] ** 3 * z[0]


def _vector(z):
    return np.array([_scalar(z), z[0] * z[1] - z[2] * z[3]])


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


class Recorder:
    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, z):
        self.calls.append(tuple(z))
        return self.f(z)


coordinate = st.one_of(st.just(0.0), st.just(-0.0),
                       st.floats(-1.0, 1.0, allow_nan=False))


@settings(max_examples=40, deadline=None)
@given(point=st.lists(coordinate, min_size=4, max_size=4),
       monomials=st.lists(st.sampled_from(MONOMIALS), min_size=1, max_size=12),
       step=st.sampled_from([None, 1e-3, 3e-2]),
       vector=st.booleans())
def test_fd_partials_equals_fd_partial(point, monomials, step, vector):
    f = _vector if vector else _scalar
    planned = Recorder(f)
    batches = []

    def rows(points):
        batches.append(points.shape)
        return per_row(planned)(points)

    got = fd_partials(rows, [point], monomials, step)[0]
    one_by_one = Recorder(f)
    want = [fd_partial(f, point, m, step) for m in monomials]
    reference = [_reference_partial(one_by_one, point, m, step)
                 for m in monomials]
    assert [_bits(v) for v in got] == [_bits(v) for v in want]
    assert [_bits(v) for v in got] == [_bits(v) for v in reference]
    # one batched call, with exactly one row per distinct stencil point,
    # in sorted order
    assert batches == [(len(planned.calls), 4)]
    distinct = {struct.pack("4d", *z) for z in one_by_one.calls}
    called = [struct.pack("4d", *z) for z in planned.calls]
    assert len(called) == len(set(called)) == len(distinct)
    assert set(called) == distinct
    assert planned.calls == sorted(planned.calls)


def test_fd_partials_shares_points_across_indices():
    """The sizing of one derivative-soundness sample: 988 stencil entries of
    F^2 over 481 points, and 88 of the spray over 81."""
    point = [0.1, -0.2, 0.5, 0.7]
    for order, entries, distinct in ((4, 988, 481), (2, 88, 81)):
        monomials = [m for m in get_context(4, order).monomials
                     if 1 <= sum(m) <= order]
        planned = Recorder(_scalar)
        fd_partials(per_row(planned), [point], monomials)
        one_by_one = Recorder(_scalar)
        for m in monomials:
            _reference_partial(one_by_one, point, m)
        assert len(one_by_one.calls) == entries
        assert len(planned.calls) == distinct


def test_fd_partial_order_zero_reads_the_point():
    calls = []
    value = fd_partial(lambda z: calls.append(z) or z[0], [-0.0, 1.0], (0, 0))
    assert calls == [[-0.0, 1.0]]
    assert math.copysign(1.0, value) == -1.0


@settings(max_examples=25, deadline=None)
@given(points=st.lists(st.lists(coordinate, min_size=4, max_size=4),
                       min_size=1, max_size=6),
       monomials=st.lists(st.sampled_from(MONOMIALS), min_size=1, max_size=12),
       step=st.sampled_from([None, 1e-3]),
       vector=st.booleans(),
       chunk=st.sampled_from([1, 7, 64, fdcheck.ROW_CHUNK]))
def test_fd_partials_of_many_points_equal_one_point_calls(
        points, monomials, step, vector, chunk):
    """Every point's partials have the bits of differencing it alone, and
    no call of f takes more than ``ROW_CHUNK`` rows."""
    f = _vector if vector else _scalar
    sizes = []

    def rows(z):
        sizes.append(len(z))
        return per_row(f)(z)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fdcheck, "ROW_CHUNK", chunk)
        got = fd_partials(rows, points, monomials, step)
    assert got.shape[:2] == (len(points), len(monomials))
    assert max(sizes) <= chunk and all(sizes)
    for p, point in enumerate(points):
        want = fd_partials(per_row(f), [point], monomials, step)[0]
        assert _bits(got[p]) == _bits(want)


@pytest.mark.parametrize("chunk", [fdcheck.ROW_CHUNK, 4096])
def test_fd_partials_of_many_points_call_f_row_by_row_in_order(chunk):
    """The rows of all points go to f point after point, each point's
    distinct rows sorted, in chunks of at most ``ROW_CHUNK``, whether a
    chunk holds one point's stencil or several (here the same point
    twice, whose rows must not be shared)."""
    points = [[0.1, -0.2, 0.5, 0.7], [-0.0, 0.3, 0.0, -0.4],
              [0.1, -0.2, 0.5, 0.7]]
    monomials = [m for m in MONOMIALS if sum(m) <= 3]
    planned = Recorder(_scalar)
    sizes = []

    def rows(z):
        sizes.append(len(z))
        return per_row(planned)(z)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fdcheck, "ROW_CHUNK", chunk)
        fd_partials(rows, points, monomials)
    one_by_one = []
    for point in points:
        calls = Recorder(_scalar)
        fd_partials(per_row(calls), [point], monomials)
        one_by_one += calls.calls
    assert planned.calls == one_by_one
    assert all(0 < size <= chunk for size in sizes)
    assert (len(sizes) == 1) == (chunk == 4096)


def test_fd_partials_of_no_points_or_no_indices_are_empty():
    def never(z):
        raise AssertionError("f called")

    assert fd_partials(never, [], MONOMIALS[:3]).shape == (0, 3)
    assert fd_partials(never, [[0.1, 0.2]], []).shape == (1, 0)
