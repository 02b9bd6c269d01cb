"""Derivative-free minimization of a univariate function on a closed interval.

Golden-section steps with successive parabolic interpolation: the parabola
through the three best points proposes the next probe, and the golden-section
fallback keeps worst-case progress guaranteed. Robust for the piecewise-smooth
functions coordinate descent produces (one kink at zero, smooth elsewhere).
The solver does not call it: `sgl.solver` solves each coordinate by Newton
on its stationarity equation, which is exact to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = ["BracketedMinimum", "minimize_scalar"]

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAX_EVALS = 200


@dataclass(frozen=True)
class BracketedMinimum:
    """Result of a bracketed scalar minimization."""

    argmin: float
    value: float
    evals: int
    converged: bool


def minimize_scalar(
    f: Callable[[float], float], lower: float, upper: float, tol: float | None = None
) -> BracketedMinimum:
    """Minimize ``f`` on ``[lower, upper]`` to within ``tol + |argmin| * tol``.

    ``tol=None`` selects ``1e-10 * (1 + bracket width)``. Raises ValueError
    for an invalid bracket or tolerance, and ArithmeticError if ``f`` returns
    a non-finite value. Hitting the evaluation cap returns the best point
    found with ``converged=False`` rather than raising.
    """
    a, b = float(lower), float(upper)
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise ValueError(f"invalid bracket [{lower}, {upper}]")
    if tol is None:
        tol = 1e-10 * (1.0 + (b - a))
    if not (tol > 0.0) or not math.isfinite(tol):
        raise ValueError(f"tolerance must be positive, got {tol}")

    def probe(t: float) -> float:
        v = float(f(t))
        if not math.isfinite(v):
            raise ArithmeticError(f"f({t}) = {v} is not finite")
        return v

    # x: best point; w: second best; v: previous w; d: last step, e: the one before
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = probe(x)
    evals = 1
    d = e = 0.0
    while evals < _MAX_EVALS:
        m = 0.5 * (a + b)
        # quarter of the guaranteed bound keeps the result within tol*(1+|x|)
        t = 0.25 * tol * (1.0 + abs(x))
        if abs(x - m) <= 2.0 * t - 0.5 * (b - a):
            return BracketedMinimum(argmin=x, value=fx, evals=evals, converged=True)
        use_golden = True
        if abs(e) > t:
            # parabola through (x, fx), (w, fw), (v, fv)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            pnum = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                pnum = -pnum
            q = abs(q)
            e_prev, e = e, d
            if abs(pnum) < abs(0.5 * q * e_prev) and q * (a - x) < pnum < q * (b - x):
                d = pnum / q
                u = x + d
                # never probe closer than t to the bracket ends
                if (u - a) < 2.0 * t or (b - u) < 2.0 * t:
                    d = t if x < m else -t
                use_golden = False
        if use_golden:
            e = (b if x < m else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= t else math.copysign(t, d))
        fu = probe(u)
        evals += 1
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return BracketedMinimum(argmin=x, value=fx, evals=evals, converged=False)
