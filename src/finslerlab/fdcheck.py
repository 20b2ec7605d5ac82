"""Central finite-difference oracles for derivative soundness checks.

Stencils are convolved per variable for mixed partials and Richardson
extrapolation removes the leading truncation term.  Step sizes scale with
the derivative order: a k-th central difference loses eps/h^k to roundoff,
so no single step serves all orders.
"""

from __future__ import annotations

import math
from itertools import product

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


def _apply(f, point, multi_index, h):
    stencils = [_stencil_1d(k, h) for k in multi_index]
    total = 0.0
    for combo in product(*stencils):
        shifted = [x + off for x, (off, _) in zip(point, combo)]
        weight = math.prod(w for _, w in combo)
        total += weight * f(shifted)
    return total


def fd_partial(f, point, multi_index, step=None):
    """Raw partial derivative of ``f`` at ``point``, Richardson-extrapolated.

    ``f`` may return a numpy array; every component is then differenced
    with the same weights, in the same order, as a scalar ``f`` would be.
    """
    order = sum(multi_index)
    if order == 0:
        return f(list(point))
    h = FD_STEPS[order] if step is None else step
    coarse = _apply(f, point, multi_index, h)
    fine = _apply(f, point, multi_index, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def rel_err(got, want, floor=1.0):
    """Error relative to |want|, floored so near-zero targets compare absolutely."""
    return abs(got - want) / max(abs(want), floor)
