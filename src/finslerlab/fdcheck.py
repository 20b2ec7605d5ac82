"""Central finite-difference oracles for derivative soundness checks.

Stencils are convolved per variable for mixed partials and Richardson
extrapolation removes the leading truncation term.  Step sizes scale with
the derivative order: a k-th central difference loses eps/h^k to roundoff,
so no single step serves all orders.

:func:`fd_partials` differences many points in one pass: it plans the
stencils of all multi-indices once, adds their offsets to every point
with numpy, calls ``f`` on the distinct stencil rows in chunks of at most
``ROW_CHUNK`` rows, and sums each partial across all points at once.  A
point's partials have the bits of differencing that point alone, and
:func:`fd_partial` is the one-point, one-index case.
"""

from __future__ import annotations

import functools
import math
from itertools import product

import numpy as np

FD_STEPS = {1: 1e-5, 2: 1e-4, 3: 4e-3, 4: 2e-2}

# stencil rows per call of f, and about the rows stenciled at a time.
# Sized by verify-paper's peak resident memory, which derivative-soundness
# sets: its 100 samples have 481 distinct F^2 rows and 81 spray rows
# each, and a spray row costs f several times the memory of an F^2 row.
# Above differencing one sample at a time, one call over all 48,100 F^2
# rows raised the scenario's peak by about 28 MB, and 2,048-row calls by
# about 6 MB; in the benchmark 512-row calls (six spray samples) raised
# verify-paper's peak by about 1.5 MB, and 256-row calls (three) by about
# 0.7 MB, at the cost of two calls per F^2 sample (about 2% of a pass)
ROW_CHUNK = 256


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
    """The part of :func:`fd_partials` that does not depend on the points.

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


def _stencil_rows(z):
    """The distinct rows of each point's stencil, and where each slot's
    row sits among them.

    ``z[p, s]`` is the stencil row of slot s at point p.  Returns
    ``(rows, at)``: the rows of every point, point after point, each
    point's rows told apart by their exact bits, taken in the order their
    slots come first and stably sorted by value, so rows that share their
    leading coordinates are neighbours; and ``at[p, s]``, the index in
    ``rows`` of the row of slot s at point p.
    """
    count, slots, dim = z.shape
    # each point's slots by value, ties in slot order
    order = np.lexsort(np.moveaxis(z, -1, 0)[::-1], axis=-1)
    order = (order + slots * np.arange(count)[:, None]).ravel()
    flat = z.reshape(-1, dim)
    ordered = flat[order].reshape(count, slots, dim)
    tied = (ordered[:, 1:] == ordered[:, :-1]).all(axis=-1)
    # a slot stands for itself, or for the first slot of its point whose
    # row has the same bits (0.0 and -0.0 apart); such rows tie in value
    stands_for = np.arange(len(flat))
    first_of = {}
    for p, k in zip(*np.nonzero(tied)):
        for slot in order[p * slots + k:p * slots + k + 2]:
            key = (p, flat[slot].tobytes())
            stands_for[slot] = first_of.setdefault(key, slot)
    kept = order[stands_for[order] == order]
    position = np.empty(len(flat), dtype=np.intp)
    position[kept] = np.arange(len(kept))
    return flat[kept], position[stands_for].reshape(count, slots)


def fd_partials(f, points, multi_indices, step=None):
    """Raw partials of ``f`` at each of ``points``, one per multi-index,
    Richardson-extrapolated: an array whose entry ``[p, j]`` is the
    partial of multi-index j at point p.

    ``f`` takes an array of points, one per row, and returns one value per
    row (:func:`per_row` makes such an ``f`` from a function of one
    point).  A value may be a numpy array; the result then has its shape
    as trailing axes, and every component is differenced with the same
    weights, in the same order, as a scalar value would be.

    The coarse and fine stencils of every multi-index are planned once.
    The distinct stencil points of each point are its rows
    (:func:`_stencil_rows`), and ``f`` is called on the rows of all
    points, in order, at most ``ROW_CHUNK`` rows at a time.  Each partial
    is then summed at all points at once, with the same weights, in the
    same order, as the point's own stencils alone would sum it.
    """
    offsets, plans = _plan(
        tuple(tuple(int(e) for e in m) for m in multi_indices), step)
    points = np.asarray(points, dtype=float)
    if not len(points) or not plans:
        return np.zeros((len(points), len(plans)))
    offsets = np.array(offsets, dtype=float).reshape(-1, points.shape[1])
    slots = len(offsets) + (None in plans)
    # as many points as fill a chunk of rows are stenciled at a time, so
    # the stencil arrays stay as small as f's calls
    group = max(1, ROW_CHUNK // slots)
    by_slot = None  # by_slot[p, s]: f at the row of slot s at point p
    for start in range(0, len(points), group):
        some = points[start:start + group]
        z = some[:, None, :] + offsets
        if None in plans:  # the point itself, after every offset
            z = np.concatenate([z, some[:, None, :]], axis=1)
        rows, where = _stencil_rows(z)
        values = np.concatenate([
            np.asarray(f(rows[i:i + ROW_CHUNK]), dtype=float)
            for i in range(0, len(rows), ROW_CHUNK)])
        if by_slot is None:
            by_slot = np.empty((len(points), slots) + values.shape[1:])
        by_slot[start:start + group] = values[where]
    out = np.empty((len(points), len(plans)) + by_slot.shape[2:])
    for j, plan in enumerate(plans):
        if plan is None:
            out[:, j] = by_slot[:, -1]
            continue
        coarse, fine = (_weighted_sum(by_slot, stencil) for stencil in plan)
        out[:, j] = (4.0 * fine - coarse) / 3.0
    return out


def _weighted_sum(by_slot, stencil):
    total = 0.0
    for slot, weight in stencil:
        total = total + weight * by_slot[:, slot]
    return total


def per_row(f):
    """A function of an array of points, one per row, that calls ``f``
    once per row, with the row as a list of floats."""
    def rows(points):
        return [f(row) for row in points.tolist()]
    return rows


def fd_partial(f, point, multi_index, step=None):
    """Raw partial derivative of ``f`` at ``point``, Richardson-extrapolated.

    ``f`` is a function of one point; this is the one-point, one-index
    case of :func:`fd_partials`.
    """
    return fd_partials(per_row(f), [point], [multi_index], step)[0, 0]


def rel_err(got, want):
    """Error relative to |want|, floored at 1 so near-zero targets compare
    absolutely; elementwise for arrays."""
    return np.abs(np.subtract(got, want)) / np.maximum(np.abs(want), 1.0)
