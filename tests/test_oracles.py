"""Self-checks of the reference solutions the suite leans on."""

import mpmath as mp
import numpy as np
import pytest

from oracles import airy_char, airy_root_mp, airy_spectrum, const_q_solution, zs_const_solution


class TestConstQOracle:
    def test_free_case_rotation(self):
        U = const_q_solution(0.0, 0.0, 2.0, 0.7)
        z = 1.4
        np.testing.assert_allclose(
            U, [[np.cos(z), -np.sin(z)], [np.sin(z), np.cos(z)]], atol=1e-15
        )

    def test_lambda_zero_exponentials(self):
        U = const_q_solution(0.0, 1.0, 0.0, 1.0)
        np.testing.assert_allclose(np.diag(U), [np.e, 1 / np.e], atol=1e-14)

    def test_degenerate_eigenvalues(self):
        # at lambda = +-1 (for p=0, q=1) the coefficient matrix is
        # nilpotent; exp(x C) = I + x C must come out of the sinhc branch
        U = const_q_solution(0.0, 1.0, 1.0, 0.5)
        C = np.array([[1.0, -1.0], [1.0, -1.0]])
        np.testing.assert_allclose(U, np.eye(2) + 0.5 * C, atol=1e-13)

    def test_group_property(self):
        a = const_q_solution(0.3, -0.2, 5.0, 0.4)
        b = const_q_solution(0.3, -0.2, 5.0, 0.35)
        c = const_q_solution(0.3, -0.2, 5.0, 0.75)
        np.testing.assert_allclose(b @ a, c, atol=1e-13)


class TestZsOracle:
    def test_free_plane_waves(self):
        Z = zs_const_solution(0.0, 2.0, 1.0)
        np.testing.assert_allclose(
            np.diag(Z), [np.exp(2j), np.exp(-2j)], atol=1e-14
        )
        assert abs(Z[0, 1]) < 1e-15


class TestAiryOracle:
    @pytest.mark.parametrize("lam", [-3.7, 0.2, 2.3, 17.1, -31.4])
    def test_against_high_precision_shooting(self, lam):
        # direct Taylor-series integration of z'' = (1-lam)(lam+x) z at
        # 30 digits; completely independent of scipy's Airy evaluation
        mp.mp.dps = 30
        f = mp.odefun(
            lambda x, y: [y[1], (1 - lam) * (lam + x) * y[0]],
            0,
            [0, 1],
            tol=1e-22,
        )
        ref = float(f(1)[0])
        assert abs(float(airy_char(lam)) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_mpmath_roots_match_scipy_roots(self):
        # the two Airy implementations agree where scipy is accurate
        for root in airy_spectrum(-12.0, 12.0):
            if abs(root - 1.0) > 0.5:
                assert float(abs(airy_root_mp(root) - root)) <= 1e-12 * abs(root)

    def test_unit_eigenvalue_included_once(self):
        sp = airy_spectrum(0.0, 2.0)
        assert len(sp) == 1
        assert sp[0] == 1.0

    def test_large_lambda_asymptotic_spacing(self):
        sp = airy_spectrum(390.0, 410.0)
        gaps = np.diff(sp)
        assert np.max(np.abs(gaps - np.pi)) < 1e-2
