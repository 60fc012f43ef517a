"""The in-house solvers against scipy's. ``protocols.brentq`` matches
``scipy.optimize.brentq`` result for result, bit for bit, on random
polynomial-plus-sine functions. ``fit_fringe_frequency``'s Gauss-Newton
search fits random fringes at least as well as the bounded Brent search of
``minimize_scalar(method="bounded")`` on the same variable-projection
objective, and in fewer least-squares solves. scipy is a test dependency
only.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

import ionramsey
from ionramsey import ConvergenceError, fit_fringe_frequency, protocols
from ionramsey.protocols import brentq

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
        got = outcome(lambda: brentq(f, a, b, f(a), f(b), **tol))
        assert got == (ConvergenceError if want is RuntimeError else want)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(coefs, sines, ends, widths, st.floats(0, 1))
    def test_known_end_values_spare_their_calls(self, coef, sine, a, width, level):
        g = poly_sine(coef, sine)
        b = a + width
        target = g(a) + level * (g(b) - g(a))
        seen = []

        def f(x):
            seen.append(x)
            return g(x) - target

        tol = dict(xtol=1e-300, rtol=4 * EPS)
        outcome(lambda: scipy_brentq(f, a, b, **tol))
        scipy_calls, seen[:] = list(seen), []
        fa, fb = g(a) - target, g(b) - target
        outcome(lambda: brentq(f, a, b, fa, fb, **tol))
        assert seen == scipy_calls[2:]  # scipy's steps after its calls at a and b

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            scipy_brentq(lambda x: x * x + 1, -1.0, 1.0)
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1, -1.0, 1.0, 2.0, 2.0, xtol=1e-12, rtol=4 * EPS)

    def test_exhausted_iterations_raise_convergence_error(self):
        def f(x):
            return x**3 - 2.0

        with pytest.raises(RuntimeError, match="Failed to converge"):
            scipy_brentq(f, 0.0, 2.0, xtol=1e-300, rtol=4 * EPS, maxiter=2)
        with pytest.raises(ConvergenceError, match="2 iterations"):
            brentq(f, 0.0, 2.0, f(0.0), f(2.0), xtol=1e-300, rtol=4 * EPS, maxiter=2)

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
            brentq(f, 0.0, 1.0, f(0.0), f(1.0), **tol)
        assert seen == scipy_calls  # it stops at the first NaN, as scipy does

    def test_is_a_private_module_global(self):
        # Benchmarks count root searches by wrapping protocols.brentq.
        assert protocols.brentq is brentq
        assert "brentq" not in ionramsey.__all__


def projected_rss(t, s, freq):
    """The variable-projection objective: the residual sum of squares of
    the least-squares fit of cos(freq t), sin(freq t) and 1 to s."""
    design = np.column_stack((np.cos(freq * t), np.sin(freq * t), np.ones_like(t)))
    coef = np.linalg.lstsq(design, s, rcond=None)[0]
    return float(np.sum((s - design @ coef) ** 2))


def bounded_brent_fit(t, s):
    """The frequency scipy's bounded Brent search finds from the fit's
    periodogram peak, a derivative-free reference: two passes, half a bin
    wide and then 1e-6 of that, each to 1e-13 of the frequency."""
    pad = 16
    spectrum = np.abs(np.fft.rfft(s - np.mean(s), pad * len(s)))
    peak = pad // 2 + int(np.argmax(spectrum[pad // 2 :]))
    half_bin = np.pi / (len(s) * (t[1] - t[0]))
    freq = 2 * half_bin * peak / pad
    for width in (half_bin, 1e-6 * half_bin):
        res = minimize_scalar(
            lambda shift, centre=freq: projected_rss(t, s, centre + shift),
            bounds=(-width, width), method="bounded", options={"xatol": 1e-13 * freq},
        )
        freq += res.x
    return freq


# A fringe of >= 32 samples and >= 1 period, well under the grid's Nyquist
# frequency, in one of four kinds: noiseless, with a second harmonic of up
# to 0.2 of its amplitude, with Gaussian noise of up to 0.2 of it, or
# rounded to 3 decimals.
fringes = st.fixed_dictionaries({
    "kind": st.sampled_from(["noiseless", "harmonic", "noise", "rounded"]),
    "n": st.integers(32, 400),
    "periods": st.floats(1.0, 8.0),
    "dt": st.floats(0.01, 1.0),
    "start": st.floats(0.0, 5.0),
    "amplitude": st.floats(0.1, 2.0),
    "phase": st.floats(-np.pi, np.pi),
    "offset": st.floats(-1.0, 1.0),
    "extra": st.floats(0.0, 0.2),
    "seed": st.integers(0, 2**32 - 1),
})


def fringe(kind, n, periods, dt, start, amplitude, phase, offset, extra, seed):
    t = start + dt * np.arange(n)
    freq = 2 * np.pi * periods / (n * dt)
    s = amplitude * np.cos(freq * t + phase) + offset
    if kind == "harmonic":
        s += extra * amplitude * np.cos(2 * freq * t + 3 * phase)
    elif kind == "noise":
        s += extra * amplitude * np.random.default_rng(seed).standard_normal(n)
    elif kind == "rounded":
        s = np.round(s, 3)
    return t, s


class TestFringeFit:
    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(fringes)
    def test_fits_at_least_as_well_as_bounded_brent(self, params):
        t, s = fringe(**params)
        got = projected_rss(t, s, fit_fringe_frequency(t, s).frequency)
        want = projected_rss(t, s, bounded_brent_fit(t, s))
        assert got <= want * (1 + 1e-9) + 1e-26 * float(s @ s)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(fringes.map(lambda params: {**params, "kind": "noiseless"}))
    def test_noiseless_fit_takes_at_most_8_solves(self, params):
        # The bounded Brent search takes 19.
        t, s = fringe(**params)
        calls, solve = 0, np.linalg.lstsq

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return solve(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "lstsq", counted)
            fit_fringe_frequency(t, s)
        assert calls <= 8
