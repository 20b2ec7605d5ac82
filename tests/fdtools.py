"""Test-suite shims: the package finite-difference oracle, and the Funk-ball
Randers metric in any dimension."""

from finslerlab import PPowerSpec
from finslerlab.fdcheck import FD_STEPS, fd_partial, rel_err

__all__ = ["FD_STEPS", "fd_partial", "funk_spec", "rel_err"]


def funk_spec(n):
    """The Funk-ball Randers metric of the unit ball in R^n, which is
    Einstein with lambda = -1/4: a_ij = ((1-|x|^2) delta_ij + x_i x_j) /
    (1-|x|^2)^2, b_i = x_i / (1-|x|^2), p = 1."""
    xs = [f"x{i + 1}" for i in range(n)]
    den = "(1-" + "-".join(f"{x}^2" for x in xs) + ")"
    a = [[(f"(1-" + "-".join(f"{x}^2" for x in xs if x != xi) + f")/{den}^2")
          if xi == xj else f"{xi}*{xj}/{den}^2" for xj in xs] for xi in xs]
    return PPowerSpec(a, [f"{xi}/{den}" for xi in xs], 1.0)
