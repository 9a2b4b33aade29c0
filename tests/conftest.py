"""Shared fixtures."""

from dataclasses import replace

import numpy as np
import pytest

from diracnsbf import solution, spectral


def _all_complex(*arrays):
    return [np.asarray(a, dtype=complex) for a in arrays]


class ComplexPath:
    """Evaluation in complex128 throughout, to pin the float64 path to.

    `run` casts the evaluator's folded coefficients to complex and takes
    lambda, c and the boundary blocks as complex whatever their imaginary
    parts, as every input was evaluated before real ones ran in float64.
    """

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def run(self, fn, ev, *args, **kwargs):
        with self.monkeypatch.context() as m:
            m.setattr(solution, "_real_if_real", _all_complex)
            m.setattr(spectral, "_real_if_real", _all_complex)
            return fn(replace(ev, Ktilde=ev.Ktilde.astype(complex)), *args, **kwargs)

    def check(self, fn, ev, *args, **kwargs):
        """fn(ev, ...) as usual, after asserting that each of its arrays is
        float64 and the real part of the complex result bit for bit."""
        got = fn(ev, *args, **kwargs)
        forced = self.run(fn, ev, *args, **kwargs)
        pairs = zip(got, forced) if isinstance(got, tuple) else [(got, forced)]
        for real, cplx in pairs:
            self.assert_real_part(real, cplx)
        return got

    @staticmethod
    def assert_real_part(real, cplx):
        real, cplx = np.asarray(real), np.asarray(cplx)
        assert real.dtype == np.float64
        assert cplx.dtype == np.complex128
        assert not cplx.imag.any()
        np.testing.assert_array_equal(
            real.view(np.uint64), np.ascontiguousarray(cplx.real).view(np.uint64)
        )


@pytest.fixture
def complex_path(monkeypatch):
    return ComplexPath(monkeypatch)
