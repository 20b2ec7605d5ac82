"""Central finite-difference oracles for derivative soundness checks.

Stencils are convolved per variable for mixed partials and Richardson
extrapolation removes the leading truncation term.  Step sizes scale with
the derivative order: a k-th central difference loses eps/h^k to roundoff,
so no single step serves all orders.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from itertools import product

import numpy as np

FD_STEPS = {1: 1e-5, 2: 1e-4, 3: 4e-3, 4: 2e-2}


def _stencil_1d(order, h):
    if order == 0:
        return ((0.0, 1.0),)
    if order == 1:
        return ((h, 0.5 / h), (-h, -0.5 / h))
    if order == 2:
        return ((h, 1.0 / h**2), (0.0, -2.0 / h**2), (-h, 1.0 / h**2))
    if order == 3:
        w = 0.5 / h**3
        return ((2 * h, w), (h, -2 * w), (-h, 2 * w), (-2 * h, -w))
    if order == 4:
        w = 1.0 / h**4
        return ((2 * h, w), (h, -4 * w), (0.0, 6 * w), (-h, -4 * w),
                (-2 * h, w))
    raise ValueError(f"unsupported derivative order {order}")


@functools.lru_cache(maxsize=16)
def _plan(multi_indices, step):
    """The part of :func:`fd_partials` that does not depend on the point.

    Returns the distinct offset vectors of all stencils and, per
    multi-index, ``None`` for order 0 (the point itself) or its coarse and
    fine stencils as ``(offset slot, weight)`` pairs in ``product`` order.
    """
    offsets = {}
    plans = []
    for multi_index in multi_indices:
        order = sum(multi_index)
        if order == 0:
            plans.append(None)
            continue
        h = FD_STEPS[order] if step is None else step
        stencils = []
        for size in (h, h / 2.0):
            stencil = []
            for combo in product(*(_stencil_1d(k, size) for k in multi_index)):
                off = tuple(o for o, _ in combo)
                slot = offsets.setdefault(off, len(offsets))
                stencil.append((slot, math.prod(w for _, w in combo)))
            stencils.append(tuple(stencil))
        plans.append(tuple(stencils))
    return tuple(offsets), tuple(plans)


def _weighted_sum(values, stencil):
    total = 0.0
    for slot, weight in stencil:
        total += weight * values[slot]
    return total


def fd_partials(f, point, multi_indices, step=None):
    """Raw partials of ``f`` at ``point``, one per multi-index, Richardson-extrapolated.

    ``f`` takes an array of points, one per row, and returns one value per
    row (:func:`per_row` makes such an ``f`` from a function of one
    point).  The coarse and fine stencils of every multi-index are planned
    first, and ``f`` is called once, with every distinct stencil point in
    sorted order, so points that share their leading coordinates are
    neighbours.  Each partial is then summed from those values with the
    same weights, in the same order, as its own stencils alone would sum
    them.  A value may be a numpy array; every component is then
    differenced with the same weights, in the same order, as a scalar
    value would be.
    """
    offsets, plans = _plan(
        tuple(tuple(int(e) for e in m) for m in multi_indices), step)
    # the exact bits of a point key its slot (as core.exact_key, but one
    # precompiled format for the hundreds of points of one call)
    pack = struct.Struct(f"{len(point)}d").pack
    slots = {}
    points = []

    def slot_of(z):
        slot = slots.setdefault(pack(*z), len(points))
        if slot == len(points):
            points.append(z)
        return slot

    # value slot of each offset vector, and of the point itself
    at = [slot_of(tuple(map(operator.add, point, off))) for off in offsets]
    here = slot_of(tuple(point)) if None in plans else None
    order = sorted(range(len(points)), key=points.__getitem__)
    values = [None] * len(points)
    if points:
        rows = f(np.array([points[i] for i in order], dtype=float))
        for i, value in zip(order, rows):
            values[i] = value
    by_offset = [values[i] for i in at]
    out = []
    for plan in plans:
        if plan is None:
            out.append(values[here])
            continue
        coarse, fine = (_weighted_sum(by_offset, stencil) for stencil in plan)
        out.append((4.0 * fine - coarse) / 3.0)
    return out


def per_row(f):
    """A function of an array of points, one per row, that calls ``f``
    once per row, with the row as a list of floats."""
    def rows(points):
        return [f(row) for row in points.tolist()]
    return rows


def fd_partial(f, point, multi_index, step=None):
    """Raw partial derivative of ``f`` at ``point``, Richardson-extrapolated.

    ``f`` is a function of one point; this is the one-index case of
    :func:`fd_partials`.
    """
    return fd_partials(per_row(f), point, [multi_index], step)[0]


def rel_err(got, want, floor=1.0):
    """Error relative to |want|, floored so near-zero targets compare absolutely."""
    return abs(got - want) / max(abs(want), floor)
