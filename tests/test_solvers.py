"""The in-house Brent solvers against scipy's: ``protocols.brentq`` against
``scipy.optimize.brentq`` and ``protocols._fminbound`` against
``minimize_scalar(method="bounded")``, result for result, bit for bit, on
random polynomial-plus-sine functions. scipy is a test dependency only.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

import ionramsey
from ionramsey import ConvergenceError, protocols
from ionramsey.protocols import _fminbound, brentq

EPS = np.finfo(float).eps
check = settings(derandomize=True, deadline=None, max_examples=600, database=None)

coefs = st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4)
sines = st.tuples(
    st.floats(0, 5, allow_nan=False), st.floats(0.1, 40, allow_nan=False), st.floats(-4, 4),
    st.sampled_from([None, 0, 1, 3]),  # decimals a value is rounded to: plateaus and ties
)
ends = st.floats(-20, 20, allow_nan=False)
widths = st.floats(1e-9, 10, allow_nan=False)


def poly_sine(coef, sine):
    amp, freq, phase, decimals = sine

    def f(x):
        value = coef[0] + x * (coef[1] + x * (coef[2] + x * coef[3])) + amp * math.sin(
            freq * x + phase
        )
        return value if decimals is None else round(value, decimals)

    return f


def outcome(solve):
    """The solver's result, or the type of the error it raised."""
    try:
        return solve()
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc)


class TestBrentq:
    @check
    @given(coefs, sines, ends, widths, st.floats(0, 1))
    # Differences of values near 1e-192 underflow to a zero divisor, where C
    # divides to inf or NaN and bisects: Python would raise ZeroDivisionError.
    @example([0.0, 0.0, 0.0, 8.283960235167495e-192], (0.0, 1.0, 0.0, None), 0.0, 1.0, 0.5)
    def test_matches_scipy(self, coef, sine, a, width, level):
        g = poly_sine(coef, sine)
        b = a + width
        # Shift g so that it crosses zero between its values at a and b.
        target = g(a) + level * (g(b) - g(a))

        def f(x):
            return g(x) - target

        tol = dict(xtol=1e-300, rtol=4 * EPS)
        want = outcome(lambda: scipy_brentq(f, a, b, **tol))
        got = outcome(lambda: brentq(f, a, b, **tol))
        assert got == (ConvergenceError if want is RuntimeError else want)

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            scipy_brentq(lambda x: x * x + 1, -1.0, 1.0)
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1, -1.0, 1.0, xtol=1e-12, rtol=4 * EPS)

    def test_exhausted_iterations_raise_convergence_error(self):
        def f(x):
            return x**3 - 2.0

        with pytest.raises(RuntimeError, match="Failed to converge"):
            scipy_brentq(f, 0.0, 2.0, xtol=1e-300, rtol=4 * EPS, maxiter=2)
        with pytest.raises(ConvergenceError, match="2 iterations"):
            brentq(f, 0.0, 2.0, xtol=1e-300, rtol=4 * EPS, maxiter=2)

    @pytest.mark.parametrize("where", ["end", "interior"])
    def test_nan_value_raises_and_is_never_bisected(self, where):
        seen = []

        def f(x):
            seen.append(x)
            if where == "end" and x == 1.0 or where == "interior" and 0.2 < x < 0.8:
                return math.nan
            return x - 0.5

        tol = dict(xtol=1e-12, rtol=4 * EPS)
        with pytest.raises(ValueError, match="NaN"):
            scipy_brentq(f, 0.0, 1.0, **tol)
        scipy_calls, seen[:] = list(seen), []
        with pytest.raises(ValueError, match="NaN"):
            brentq(f, 0.0, 1.0, **tol)
        assert seen == scipy_calls  # it stops at the first NaN, as scipy does

    def test_is_a_private_module_global(self):
        # Benchmarks count root searches by wrapping protocols.brentq.
        assert protocols.brentq is brentq
        assert "brentq" not in ionramsey.__all__


class TestFminbound:
    @check
    @given(coefs, sines, ends, widths, st.floats(1e-3, 1e3, allow_nan=False))
    def test_matches_scipy(self, coef, sine, a, width, scale):
        f = poly_sine(coef, sine)
        b = a + width
        xatol = 1e-13 * scale
        res = minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": xatol})
        got = outcome(lambda: _fminbound(f, a, b, xatol))
        assert got == (ConvergenceError if res.status == 1 else res.x)

    def test_spent_budget_raises_convergence_error(self):
        def f(x):
            return math.cos(3 * x) + 0.1 * x

        res = minimize_scalar(f, bounds=(-4, 4), method="bounded",
                              options={"xatol": 1e-13, "maxiter": 5})
        assert res.status == 1
        with pytest.raises(ConvergenceError, match="5 evaluations"):
            _fminbound(f, -4.0, 4.0, 1e-13, maxfun=5)

    def test_nan_value_raises(self):
        seen = []

        def f(x):
            seen.append(x)
            return math.nan if x > 0 else x * x

        # scipy steps past a NaN without a word; the port refuses to compare one.
        res = minimize_scalar(f, bounds=(-1, 1), method="bounded")
        assert res.status == 0 and max(seen) > 0
        with pytest.raises(ValueError, match="NaN"):
            _fminbound(f, -1.0, 1.0, 1e-5)

    def test_inverted_bounds_raise(self):
        with pytest.raises(ValueError, match="bounds"):
            _fminbound(abs, 1.0, -1.0, 1e-5)
