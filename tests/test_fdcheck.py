"""The finite-difference stencil plan: one batched call with every distinct
point, same sums."""

import math
import struct
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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

    got = fd_partials(rows, point, monomials, step)
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
        fd_partials(per_row(planned), point, monomials)
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
