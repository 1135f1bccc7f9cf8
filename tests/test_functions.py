"""Latency function evaluation, exact integrals and breakpoint reporting."""

import dataclasses
import math
import pickle
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskroute.functions import Affine, Constant, PiecewiseLinear, Polynomial
from test_solver import _pwl_reference


def test_constant_eval_and_integral():
    fn = Constant(2.5)
    assert fn(0.0) == 2.5
    assert fn(17.3) == 2.5
    assert fn.integral(4.0) == 10.0


def test_constant_rejects_negative():
    with pytest.raises(ValueError):
        Constant(-0.1)


def test_affine_eval_integral_and_clamp():
    fn = Affine(2.0, 1.0)
    assert fn(3.0) == 7.0
    assert fn.integral(3.0) == 9.0 + 3.0  # x^2 + x at 3
    # negative flow is treated as zero
    assert fn(-5.0) == 1.0


def test_affine_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        Affine(-1.0, 0.0)
    with pytest.raises(ValueError):
        Affine(1.0, -0.5)


def test_polynomial_eval_and_integral():
    fn = Polynomial((1.0, 2.0, 3.0))
    assert fn(2.0) == 1.0 + 4.0 + 12.0
    assert fn.integral(2.0) == pytest.approx(2.0 + 4.0 + 8.0, abs=1e-12)


def test_polynomial_trims_trailing_zeros():
    fn = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert fn.coeffs == (1.0, 2.0)
    assert fn.degree == 1


def test_polynomial_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        Polynomial((1.0, -0.5, 2.0))


def test_pwl_eval_segments():
    fn = PiecewiseLinear(((0.0, 0.0), (0.5, 0.0), (1.0, 2.0)))
    assert fn(0.25) == 0.0
    assert fn(0.75) == pytest.approx(1.0)
    # beyond the last breakpoint the final slope (4) continues
    assert fn(2.0) == pytest.approx(6.0)


def test_pwl_constant_left_of_first_breakpoint():
    fn = PiecewiseLinear(((1.0, 2.0), (2.0, 4.0)))
    assert fn(0.0) == 2.0
    assert fn(0.5) == 2.0
    assert fn(1.5) == pytest.approx(3.0)


def test_pwl_integral_hand_value():
    fn = PiecewiseLinear(((0.0, 0.0), (1.0, 2.0)))
    # int_0^1 2x dx = 1, then int_1^2 (2 + 2(x-1)) dx = 3
    assert fn.integral(2.0) == pytest.approx(4.0, abs=1e-12)


def test_pwl_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear(((0.0, 1.0), (0.0, 2.0)))  # xs not strictly increasing
    with pytest.raises(ValueError):
        PiecewiseLinear(((0.0, 2.0), (1.0, 1.0)))  # decreasing values
    with pytest.raises(ValueError):
        PiecewiseLinear(((-1.0, 0.0), (1.0, 1.0)))  # negative breakpoint


def test_pwl_needs_a_nonnegative_first_breakpoint():
    with pytest.raises(ValueError, match="needs at least one breakpoint"):
        PiecewiseLinear(())
    with pytest.raises(ValueError, match="y values must be nonnegative, got -1.0"):
        PiecewiseLinear(((0.0, -1.0), (1.0, 0.0)))


def test_knots_between():
    # the knots inside an interval are those of knots() that it holds
    pwl = PiecewiseLinear(((0.0, 0.0), (0.5, 0.0), (1.0, 2.0)))
    assert pwl.knots() == (0.0, 0.5, 1.0)
    assert [x for x in pwl.knots() if 0.0 < x < 2.0] == [0.5, 1.0]
    assert [x for x in pwl.knots() if 0.6 < x < 0.9] == []
    assert Affine(1.0, 1.0).knots() == ()
    assert Constant(1.0).knots() == ()
    assert Polynomial((1.0, 2.0)).knots() == ()
    # degree >= 2 polynomials are not piecewise linear
    assert Polynomial((0.0, 0.0, 1.0)).knots() is None


_coef = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def _functions(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Constant(draw(_coef))
    if kind == 1:
        return Affine(draw(_coef), draw(_coef))
    if kind == 2:
        coeffs = draw(st.lists(_coef, min_size=1, max_size=4))
        return Polynomial(tuple(coeffs))
    xs = sorted(draw(st.lists(st.floats(0.0, 10.0, allow_nan=False),
                              min_size=2, max_size=5, unique=True)))
    ys = sorted(draw(st.lists(_coef, min_size=len(xs), max_size=len(xs))))
    fn = PiecewiseLinear(tuple(zip(xs, ys)))
    # breakpoints a subnormal apart give a final slope near the float
    # maximum, so values and integrals overflow to inf within the x + h
    # range the tests probe; the properties hold only for finite values
    assume(math.isfinite(fn(11.0)) and math.isfinite(fn.integral(11.0)))
    return fn


@settings(max_examples=200, deadline=None)
@given(fn=_functions(), x=st.floats(0.0, 10.0, allow_nan=False),
       y=st.floats(0.0, 10.0, allow_nan=False))
def test_functions_are_monotone(fn, x, y):
    lo, hi = min(x, y), max(x, y)
    assert fn(lo) <= fn(hi) + 1e-12


@settings(max_examples=200, deadline=None)
@given(fn=_functions(), x=st.floats(0.0, 10.0, allow_nan=False),
       h=st.floats(1e-6, 1.0, allow_nan=False))
def test_integral_increment_is_bracketed_by_monotone_values(fn, x, h):
    # for non-decreasing fn: h*fn(x) <= F(x+h) - F(x) <= h*fn(x+h)
    inc = fn.integral(x + h) - fn.integral(x)
    scale = max(1.0, abs(inc))
    assert h * fn(x) <= inc + 1e-9 * scale
    assert inc <= h * fn(x + h) + 1e-9 * scale


@settings(max_examples=100, deadline=None)
@given(fn=_functions())
def test_integral_starts_at_zero(fn):
    assert fn.integral(0.0) == 0.0


@st.composite
def _spaced_piecewise_linear(draw):
    """Breakpoints at 0 or from 0.01 on and at least 0.01 apart, so that a
    quotient fits on each piece."""
    x = draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
    y = draw(_coef)
    points = [(x, y)]
    for _ in range(draw(st.integers(0, 4))):
        x += draw(st.floats(0.01, 3.0))
        y += draw(_coef)
        points.append((x, y))
    return PiecewiseLinear(tuple(points))


@settings(max_examples=200, deadline=None)
@given(fn=_functions().filter(lambda f: not isinstance(f, PiecewiseLinear)),
       x=st.floats(1e-3, 10.0, allow_nan=False))
def test_derivative_matches_difference_quotients(fn, x):
    h = min(1e-4, 0.5 * x)
    q = (fn(x + h) - fn(x - h)) / (2.0 * h)
    assert fn.derivative(x) == pytest.approx(q, rel=1e-5, abs=1e-6)
    assert fn.derivative(-1.0) == fn.derivative(0.0)


@settings(max_examples=200, deadline=None)
@given(fn=_spaced_piecewise_linear())
def test_pwl_derivative_is_the_right_derivative(fn):
    # at every knot and inside every piece, from a quotient that stays on
    # the piece to the right; 0 left of the first breakpoint
    breaks = [p[0] for p in fn.points]
    ends = breaks[1:] + [breaks[-1] + 2.0]
    probes = [(0.5 * breaks[0], 0.25 * breaks[0])] if breaks[0] > 0.0 else []
    for a, b in zip(breaks, ends):
        probes += [(a, 0.25 * (b - a)), (0.5 * (a + b), 0.25 * (b - a))]
    for at, h in probes:
        q = (fn(at + h) - fn(at)) / h
        assert fn.derivative(at) == pytest.approx(q, rel=1e-9, abs=1e-9)
    assert fn.derivative(-1.0) == fn.derivative(0.0)


def test_derivative_hand_values():
    assert Constant(3.0).derivative(1.0) == 0.0
    assert Affine(2.0, 1.0).derivative(0.0) == 2.0
    assert Polynomial((1.0, 2.0, 3.0)).derivative(2.0) == 2.0 + 12.0
    assert Polynomial((1.0, 2.0, 3.0)).derivative(-1.0) == 2.0
    pwl = PiecewiseLinear(((1.0, 0.0), (2.0, 2.0), (3.0, 3.0)))
    # 0 left of the first breakpoint, the piece to the right at a knot, and
    # the final slope past the last breakpoint
    assert [pwl.derivative(x) for x in (0.5, 1.0, 1.5, 2.0, 3.0, 9.0)] == \
        [0.0, 2.0, 2.0, 1.0, 1.0, 1.0]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _affine_reference(fn, x):
    return fn.slope * max(x, 0.0) + fn.intercept


def _horner_reference(fn, x):
    x = max(x, 0.0)
    acc = 0.0
    for c in reversed(fn.coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=300, deadline=None)
@given(slope=_coef, intercept=_coef, coeffs=st.lists(_coef, min_size=1, max_size=6),
       xs=st.lists(st.floats(-10.0, 10.0), max_size=6))
def test_affine_and_polynomial_clamp_as_max_does(slope, intercept, coeffs, xs):
    # the clamp is an if, not a call of max(x, 0.0); both keep -0.0 and NaN.
    # Five or six coefficients take the Horner loop, fewer the unrolled rule
    affine, poly = Affine(slope, intercept), Polynomial(tuple(coeffs))
    for x in [*xs, -0.0, 0.0, -1e-300, -5e-324, math.nan, -math.inf, math.inf]:
        assert _bits(affine(x)) == _bits(_affine_reference(affine, x)), x
        assert _bits(poly(x)) == _bits(_horner_reference(poly, x)), x


# -0.0 passes every nonnegativity check, so it may be any parameter
_signed_coef = st.one_of(_coef, st.just(0.0), st.just(-0.0))


@st.composite
def _kernel_cases(draw):
    """A function of each class (polynomials of 1-6 coefficients with inner
    zeros, piecewise-linear functions of 1-5 breakpoints) and the flows to
    probe: any float, floats in the range of flows, the clamp's edge cases,
    every breakpoint and the floats just beside it."""
    kind = draw(st.integers(0, 3))
    breaks = []
    if kind == 0:
        fn = Constant(draw(_signed_coef))
    elif kind == 1:
        fn = Affine(draw(_signed_coef), draw(_signed_coef))
    elif kind == 2:
        fn = Polynomial(tuple(draw(st.lists(_signed_coef, min_size=1, max_size=6))))
    else:
        breaks = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5,
                                      unique=True)))
        ys = sorted(draw(st.lists(_signed_coef, min_size=len(breaks),
                                  max_size=len(breaks))))
        fn = PiecewiseLinear(tuple(zip(breaks, ys)))
    beside = [math.nextafter(b, d) for b in breaks for d in (-math.inf, math.inf)]
    xs = draw(st.lists(st.floats(), max_size=6)) + draw(st.lists(st.floats(0.0, 20.0),
                                                                   min_size=1, max_size=6))
    return fn, [*xs, *breaks, *beside, -0.0, 0.0, -1.0, -5e-324, math.nan,
                -math.inf, math.inf]


_REFERENCES = {Constant: lambda fn, x: fn.value, Affine: _affine_reference,
               Polynomial: _horner_reference, PiecewiseLinear: _pwl_reference}


@settings(max_examples=500, deadline=None)
@given(_kernel_cases(), st.one_of(st.floats(0.0, 50.0), st.just(-0.0)))
def test_kernels_are_the_call_bit_for_bit(case, shift):
    # fn(x) runs the default kernel, so both kernels, and the call, are
    # checked against a reference written apart from them
    fn, xs = case
    reference = _REFERENCES[type(fn)]
    plain, shifted = fn.kernel(), fn.kernel(shift)
    for x in xs:
        assert _bits(plain(x)) == _bits(fn(x)) == _bits(reference(fn, x)), x
        assert _bits(shifted(x)) == _bits(reference(fn, x) + shift), x


def test_default_kernel_and_knots_are_kept_on_the_function():
    # built on first use and kept, a shifted kernel per call; equality, hash
    # and repr do not see what is kept
    for fn, expected in (
            (Constant(1.0), ()), (Affine(1.0, 2.0), ()), (Polynomial((1.0, 0.0, 2.0)), None),
            (Polynomial((1.0,) * 6), None), (PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))), (0.0, 1.0)),
            (PiecewiseLinear(tuple((float(i), float(i * i)) for i in range(5))),
             (0.0, 1.0, 2.0, 3.0, 4.0))):
        twin = dataclasses.replace(fn)
        assert fn.kernel() is fn.kernel() is fn.kernel(-0.0)
        assert fn.kernel(0.0) is not fn.kernel(0.0)
        assert twin.kernel() is not fn.kernel()
        assert fn.knots() == expected
        assert fn.knots() is fn.knots()
        assert fn == twin
        assert (hash(fn), repr(fn)) == (hash(twin), repr(twin))


@pytest.mark.parametrize("build", [lambda fn: fn.kernel(), lambda fn: fn(0.5)],
                         ids=["kernel", "call"])
@pytest.mark.parametrize("fn", [
    Constant(1.5), Affine(2.0, 0.5), Polynomial((1.0, 0.0, 2.0)), Polynomial((1.0,) * 6),
    PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))),
    PiecewiseLinear(tuple((float(i), float(i * i)) for i in range(5)))])
def test_functions_pickle_after_their_kernel_is_built(fn, build):
    # the kept kernel is a closure: it stays out of the pickled state and
    # the copy builds its own on first use, with the same bits
    fn = dataclasses.replace(fn)
    build(fn)
    assert "_plain_kernel" in vars(fn)
    copy = pickle.loads(pickle.dumps(fn))
    assert copy == fn and copy.knots() == fn.knots()
    assert "_plain_kernel" not in vars(copy)
    for x in (-1.0, 0.0, 0.5, 1.0, 2.5, 7.0):
        assert _bits(copy(x)) == _bits(fn(x)), x
        assert _bits(copy.kernel(1.0)(x)) == _bits(fn.kernel(1.0)(x)), x
