"""Monotone scalar functions used for edge latencies and variances.

Every edge of a routing network carries two of these: a mean latency
function and a variance function, both evaluated at the edge flow.  All
variants are continuous, non-decreasing and nonnegative on [0, inf).  The
solver's exact line search uses their values and slope-change knots, and
its Newton finish their right derivatives.  The smoothness parameter mu
(`analysis.estimate_smoothness_mu`) reads the knots and right derivatives
too: a piecewise-linear function is walked piece by piece, each slope its
right derivative.  The closed-form integrals from zero serve only
`solver.beckmann_potential`.

`fn(x)` is the reference evaluation, which the analysis, the network and
the instance builders call.  The solvers evaluate costs millions of times,
so they call kernels instead: `fn.kernel(shift)` is a plain function of x
that returns fn(x) + shift bit for bit, the float sum taken last, as that
expression takes it.  The shift defaults to -0.0, and y + -0.0 is y bit
for bit (signed zeros, NaN and inf included), so `fn.kernel()` gives
fn(x).  A kernel holds the function's numbers as locals and does the same
float operations in the same order as `__call__`, without its attribute
loads and calls: a piecewise-linear function of up to three breakpoints
picks its piece by comparisons, in place of `bisect_right`, and a
polynomial of up to four coefficients runs Horner's rule unrolled.  The
kernel of a longer function calls `__call__`.

Variants:
    Constant(value)            value everywhere
    Affine(slope, intercept)   slope * x + intercept
    Polynomial(coeffs)         sum(c_k * x**k), nonnegative coefficients
    PiecewiseLinear(points)    linear interpolation through breakpoints,
                               constant left of the first breakpoint and
                               extended with the final slope past the last
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field


class LatencyFn:
    """Base type for the four function variants.

    Subclasses are immutable value objects: equality is structural, so a
    round-trip through the text serialization reproduces an equal object.
    Every parameter must be finite; a non-finite one raises ValueError.
    Negative arguments (tiny float underflows of a nonnegative flow) are
    clamped to zero.
    """

    def __call__(self, x: float) -> float:
        raise NotImplementedError

    def kernel(self, shift: float = -0.0):
        """A function of x computing self(x) + shift, bit for bit."""
        call = self.__call__
        return lambda x: call(x) + shift

    def integral(self, x: float) -> float:
        """Definite integral of the function from 0 to x."""
        raise NotImplementedError

    def derivative(self, x: float) -> float:
        """Right derivative at max(x, 0)."""
        raise NotImplementedError

    def knots_between(self, lo: float, hi: float) -> list[float] | None:
        """Slope-change points strictly inside (lo, hi).

        Returns None when the function is not piecewise linear: the
        solvers' step (`solver._step_root`) then runs Anderson-Bjorck
        regula falsi on the curved piece instead of interpolating.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(LatencyFn):
    value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value < math.inf:
            raise ValueError(f"constant function must be finite and nonnegative, got {self.value}")

    def __call__(self, x: float) -> float:
        return self.value

    def kernel(self, shift: float = -0.0):
        value = self.value + shift
        return lambda x: value

    def integral(self, x: float) -> float:
        return self.value * max(x, 0.0)

    def derivative(self, x: float) -> float:
        return 0.0

    def knots_between(self, lo: float, hi: float) -> list[float]:
        return []


@dataclass(frozen=True)
class Affine(LatencyFn):
    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.slope < math.inf:
            raise ValueError(f"affine slope must be finite and nonnegative, got {self.slope}")
        if not 0.0 <= self.intercept < math.inf:
            raise ValueError(f"affine intercept must be finite and nonnegative, got {self.intercept}")

    def __call__(self, x: float) -> float:
        # max(x, 0.0) without the call: keeps -0.0 and NaN as max does
        if x < 0.0:
            x = 0.0
        return self.slope * x + self.intercept

    def kernel(self, shift: float = -0.0):
        a, b = self.slope, self.intercept

        def affine(x):
            if x < 0.0:
                x = 0.0
            return a * x + b + shift
        return affine

    def integral(self, x: float) -> float:
        x = max(x, 0.0)
        return 0.5 * self.slope * x * x + self.intercept * x

    def derivative(self, x: float) -> float:
        return self.slope

    def knots_between(self, lo: float, hi: float) -> list[float]:
        return []


@dataclass(frozen=True)
class Polynomial(LatencyFn):
    """Polynomial with nonnegative coefficients, ascending powers."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            coeffs = (0.0,)
        if not all(0.0 <= c < math.inf for c in coeffs):
            raise ValueError(f"polynomial coefficients must be finite and nonnegative, got {coeffs}")
        # trim trailing zeros so the reported degree is meaningful
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: float) -> float:
        # max(x, 0.0) without the call: keeps -0.0 and NaN as max does
        if x < 0.0:
            x = 0.0
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def kernel(self, shift: float = -0.0):
        if len(self.coeffs) > 4:
            return super().kernel(shift)
        # Horner unrolled from acc = 0.0, padded with zero coefficients on
        # top: 0.0 * x + 0.0 is 0.0 or NaN wherever 0.0 * x is, and times x
        # it is 0.0 * x again, signed zero and NaN included, so the padding
        # changes no bit
        c3, c2, c1, c0 = (0.0,) * (4 - len(self.coeffs)) + self.coeffs[::-1]

        def poly(x):
            if x < 0.0:
                x = 0.0
            return (((0.0 * x + c3) * x + c2) * x + c1) * x + c0 + shift
        return poly

    def integral(self, x: float) -> float:
        x = max(x, 0.0)
        acc = 0.0
        for k in range(len(self.coeffs) - 1, -1, -1):
            acc = acc * x + self.coeffs[k] / (k + 1)
        return acc * x

    def derivative(self, x: float) -> float:
        x = max(x, 0.0)
        acc = 0.0
        for k in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * x + k * self.coeffs[k]
        return acc

    def knots_between(self, lo: float, hi: float) -> list[float] | None:
        if self.degree <= 1:
            return []
        return None


@dataclass(frozen=True)
class PiecewiseLinear(LatencyFn):
    """Piecewise-linear function through sorted breakpoints.

    Breakpoint x values must be strictly increasing and start at x >= 0;
    y values must be non-decreasing and nonnegative.  Left of the first
    breakpoint the function is constant at the first y value; right of the
    last it continues with the slope of the final segment (or stays
    constant when there is a single breakpoint).
    """

    points: tuple[tuple[float, float], ...]
    _breaks: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _cum: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # (xa, ya, yb - ya, xb - xa) of the piece right of each breakpoint but
    # the last, then (xk, yk, final slope, 1.0) of the piece past the last
    _pieces: tuple[tuple[float, float, float, float], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if not pts:
            raise ValueError("piecewise-linear function needs at least one breakpoint")
        if not all(math.isfinite(v) for pt in pts for v in pt):
            raise ValueError(f"breakpoints must be finite, got {pts}")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        if xs[0] < 0.0:
            raise ValueError(f"breakpoints must lie in [0, inf), got x={xs[0]}")
        for a, b in zip(xs, xs[1:]):
            if not b > a:
                raise ValueError(f"breakpoint x values must be strictly increasing, got {a} then {b}")
        for a, b in zip(ys, ys[1:]):
            if b < a:
                raise ValueError(f"breakpoint y values must be non-decreasing, got {a} then {b}")
        if ys[0] < 0.0:
            raise ValueError(f"breakpoint y values must be nonnegative, got {ys[0]}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_breaks", tuple(xs))
        # cumulative integral from 0 up to each breakpoint
        cum = [xs[0] * ys[0]]
        for k in range(1, len(pts)):
            seg = (xs[k] - xs[k - 1]) * 0.5 * (ys[k] + ys[k - 1])
            cum.append(cum[-1] + seg)
        object.__setattr__(self, "_cum", tuple(cum))
        pieces = [(xa, ya, yb - ya, xb - xa) for (xa, ya), (xb, yb) in zip(pts, pts[1:])]
        # dividing by 1.0 is exact: the final piece's values are yk + slope * (x - xk)
        slope = pieces[-1][2] / pieces[-1][3] if pieces else 0.0
        object.__setattr__(self, "_pieces", (*pieces, (*pts[-1], slope, 1.0)))

    def __call__(self, x: float) -> float:
        # max(x, 0.0) without the call: keeps -0.0 and NaN as max does
        if x < 0.0:
            x = 0.0
        i = bisect_right(self._breaks, x)
        if i == 0:
            return self.points[0][1]
        xa, ya, rise, run = self._pieces[i - 1]
        return ya + rise * (x - xa) / run

    def kernel(self, shift: float = -0.0):
        if len(self.points) > 3:
            return super().kernel(shift)
        x0, y0 = self.points[0]
        # x < b is the test bisect_right makes, NaN reading False, so the
        # comparisons pick its piece.  Fewer than three breakpoints are
        # padded with breakpoints at inf whose piece is the final one, and
        # x = inf or NaN passes no x < inf to the final piece
        final = self._pieces[-1]
        (xa, ya, ra, ua), (xb, yb, rb, ub), (xc, yc, rc, _) = (*self._pieces, final, final)[:3]
        b1, b2 = (*self._breaks[1:], math.inf, math.inf)[:2]

        def pwl(x):
            if x < 0.0:
                x = 0.0
            if x < x0:
                return y0 + shift
            if x < b1:
                return ya + ra * (x - xa) / ua + shift
            if x < b2:
                return yb + rb * (x - xb) / ub + shift
            # the final piece, whose run is 1.0: no division to make
            return yc + rc * (x - xc) + shift
        return pwl

    def integral(self, x: float) -> float:
        x = max(x, 0.0)
        i = bisect_right(self._breaks, x)
        if i == 0:
            return self.points[0][1] * x
        xa, ya, rise, _ = self._pieces[i - 1]
        t = x - xa
        if i == len(self._pieces):
            # past the last breakpoint, where rise is the final slope
            return self._cum[-1] + ya * t + 0.5 * rise * t * t
        return self._cum[i - 1] + t * 0.5 * (ya + self(x))

    def derivative(self, x: float) -> float:
        # the piece bisect_right picks is the one to the right of a knot
        i = bisect_right(self._breaks, max(x, 0.0))
        if i == 0:
            return 0.0
        _, _, rise, run = self._pieces[i - 1]
        return rise / run

    def knots_between(self, lo: float, hi: float) -> list[float]:
        return [x for x in self._breaks if lo < x < hi]
