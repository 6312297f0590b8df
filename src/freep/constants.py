"""Closed-form constants of the p-norm toolkit.

Everything here is a pure double-precision formula: the summation constant
C(p, n) that plays the role of a quasi-norm modulus for n-term sums, the
two cost factors entering the dyadic decomposition bounds, the Lipschitz
sandwich of the cube retraction, the basis bound, and the norming bound.
"""

from __future__ import annotations

import numbers
import sys

# the slack of every certified comparison: a residual, or a value against its bound
EVAL_TOL = 1e-9
# the least admitted p: a p-norm is a sum of powers t^p taken to the power
# 1/p, which magnifies the sum's relative rounding error, about one ulp, by
# 1/p; at this p that stays within EVAL_TOL
P_FLOOR = sys.float_info.epsilon / EVAL_TOL


def check_count(name: str, value, low: int) -> int:
    """Validate an integer count value >= low; a bool, a float or any other
    non-integral value raises, so a count is never truncated."""
    # int first: a plain int skips the slower abstract-class check
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_integer(name: str, value) -> int:
    """Validate an integer value of either sign, a coordinate; a bool, a
    float or any other non-integral value raises, so it is never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_p(p: float) -> float:
    """Validate an exponent p with P_FLOOR <= p <= 1."""
    p = float(p)
    if not P_FLOOR <= p <= 1.0:
        raise ValueError(f"exponent p must satisfy {P_FLOOR:.3g} <= p <= 1, got {p}")
    return p


def check_alpha(alpha: float, allow_one: bool = False) -> float:
    """Validate a distortion exponent alpha in (0, 1), or (0, 1] if allowed."""
    alpha = float(alpha)
    hi_ok = alpha <= 1.0 if allow_one else alpha < 1.0
    if not (0.0 < alpha and hi_ok):
        hi = "1]" if allow_one else "1)"
        raise ValueError(f"alpha must lie in (0, {hi}, got {alpha}")
    return alpha


def c_const(p: float, n: int) -> float:
    """The n-term summation constant n^(1/p - 1)."""
    p = check_p(p)
    n = check_count("n", n, 1)
    return float(n) ** (1.0 / p - 1.0)


def _gap(t: float) -> float:
    """1 - t, the denominator of a geometric sum of ratio t < 1; a t that
    rounds to 1 puts the sum beyond the double range, which raises
    OverflowError as every other overflowing constant does."""
    gap = 1.0 - t
    if gap == 0.0:
        raise OverflowError("a geometric ratio rounds to 1")
    return gap


def rho(p: float, alpha: float) -> float:
    """Cost factor of one axis-step expansion in the dyadic hierarchy."""
    p = check_p(p)
    alpha = check_alpha(alpha)
    t = 2.0 ** (-p * alpha)
    geom = t / _gap(t)
    return (c_const(p, 2) ** p + (1.0 + 2.0 ** (1.0 - p)) * geom) ** (1.0 / p)


def tau(p: float, alpha: float, d: int) -> float:
    """Cost factor of one face-induction level in molecule decompositions;
    its chain factor is C(p alpha, d)^alpha for every p alpha > 0."""
    p = check_p(p)
    alpha = check_alpha(alpha)
    d = check_count("d", d, 1)
    chain = (float(d) ** (1.0 / (p * alpha) - 1.0)) ** alpha
    line = (1.0 / _gap(2.0 ** (p * (alpha - 1.0)))) ** (1.0 / p)
    path = (1.0 / _gap(2.0 ** (-p * alpha))) ** (1.0 / p)
    corner = (1.0 + float(d - 1) ** (p * alpha)) ** (1.0 / p)
    return chain * 2.0 ** (2.0 / p) * line * path * corner


def retraction_bounds(p: float, d: int) -> tuple[float, float]:
    """Certified (lower, upper) bounds on the Lipschitz constant of the
    vertex retraction of a d-dimensional cube complex."""
    p = check_p(p)
    d = check_count("d", d, 1)
    lower = c_const(p, 2 ** (d - 1))
    upper = lower * c_const(p, d) * c_const(p, 3)
    return lower, upper


def basis_bound(p: float, alpha: float, d: int) -> float:
    """Upper bound d^alpha C(p, 2^d) on the norm of every dyadic basis element."""
    d = check_count("d", d, 1)
    return float(d) ** check_alpha(alpha) * c_const(p, 2**d)


def bm_bound(p: float, alpha: float, d: int) -> float:
    """Upper bound on the Banach-Mazur distance between the free p-space of
    the distorted d-cube and the sequence space with the same exponent."""
    d = check_count("d", d, 1)
    return c_const(p, 2**d) * rho(p, alpha) ** d * tau(p, alpha, d) ** d
