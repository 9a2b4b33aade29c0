import numpy as np
import pytest

from diracnsbf.dirac import _b_right
from diracnsbf.grid import Grid
from diracnsbf.solution import evaluate_U
from diracnsbf.special import bessel_pair_batch
from diracnsbf.zs import (
    A_INV,
    A_MAT,
    ZsPotential,
    evaluate_Z,
    zs_to_dirac,
)

from oracles import zs_coefficients, zs_const_solution, zs_ode_residual, zs_potential


def zs_series_coefficients(zev):
    """Conjugated series coefficients of Z, one (2, 2) block per order.

    Order n holds A^-1 C_n A for even n and A^-1 C_n B A for odd n, so
    that Z = A^-1 U0 A + sum_n (+-2) (conjugated C_n) j_n(lambda x) with
    the same parity sign pattern as the canonical series.
    """
    K = zev.coeffs.astype(complex)
    K[1::2] = _b_right(K[1::2])
    return A_INV @ K @ A_MAT


@pytest.fixture(scope="module")
def smooth_zev():
    g = Grid(1.0, 1000)
    zs = zs_potential(g, lambda x: (0.3 + 0.4j) * np.sin(np.pi * x))
    return zs_coefficients(zs, 16)


class TestMapping:
    def test_zero(self):
        g = Grid(1.0, 100)
        Q = zs_to_dirac(ZsPotential(g, np.zeros(g.size)))
        assert np.max(np.abs(Q.p)) == 0.0
        assert np.max(np.abs(Q.q)) == 0.0

    def test_pure_imaginary(self):
        g = Grid(1.0, 100)
        Q = zs_to_dirac(ZsPotential(g, np.full(g.size, 1j)))
        np.testing.assert_allclose(Q.p, 1.0, atol=0)
        np.testing.assert_allclose(Q.q, 0.0, atol=0)

    def test_general_constant(self):
        g = Grid(1.0, 100)
        Q = zs_to_dirac(ZsPotential(g, np.full(g.size, 1.0 + 2.0j)))
        np.testing.assert_allclose(Q.p, 2.0, atol=0)
        np.testing.assert_allclose(Q.q, -1.0, atol=0)

    def test_conjugation_constants(self):
        np.testing.assert_allclose(A_MAT @ A_INV, np.eye(2), atol=1e-16)


class TestEvaluateZ:
    def test_identity_at_zero(self, smooth_zev):
        for lam in (0.0, 2.0, -5.0, 1.0 + 0.5j):
            Z = evaluate_Z(smooth_zev, lam, 0.0)
            np.testing.assert_allclose(Z, np.eye(2), atol=1e-12)

    def test_free_case_plane_waves(self):
        g = Grid(1.0, 200)
        zev = zs_coefficients(ZsPotential(g, np.zeros(g.size)), 4)
        for lam in (1.0, -3.7):
            Z = evaluate_Z(zev, lam, g.nodes)
            np.testing.assert_allclose(
                Z[:, 0, 0], np.exp(1j * lam * g.nodes), atol=1e-12
            )
            np.testing.assert_allclose(
                Z[:, 1, 1], np.exp(-1j * lam * g.nodes), atol=1e-12
            )
            assert np.max(np.abs(Z[:, 0, 1])) < 1e-12
            assert np.max(np.abs(Z[:, 1, 0])) < 1e-12

    def test_constant_nu_against_exponential_oracle(self):
        g = Grid(1.0, 1000)
        zev = zs_coefficients(ZsPotential(g, np.full(g.size, 0.5)), 20)
        Z = evaluate_Z(zev, 3.0, 1.0)
        ref = zs_const_solution(0.5, 3.0, 1.0)
        assert np.max(np.abs(Z - ref)) < 1e-8

    def test_conjugation_identity(self, smooth_zev):
        for lam in (0.0, 1.5, -9.0):
            Z = evaluate_Z(smooth_zev, lam, 0.8)
            U = evaluate_U(smooth_zev, lam, 0.8)
            np.testing.assert_allclose(Z, A_INV @ U @ A_MAT, atol=0)

    def test_series_coefficients_reproduce_Z(self, smooth_zev):
        # rebuild Z from the conjugated coefficient families and the
        # parity-signed Bessel sums; must match the conjugation path
        lam, i = 4.0, 700
        x = smooth_zev.grid.nodes[i]
        coeffs = zs_series_coefficients(smooth_zev)
        jn = bessel_pair_batch(np.array([lam * x]), smooth_zev.N)[0][:, 0]
        U0c = A_INV @ np.array(
            [[np.cos(lam * x), -np.sin(lam * x)], [np.sin(lam * x), np.cos(lam * x)]]
        ) @ A_MAT
        Z = U0c.astype(complex)
        for n in range(smooth_zev.N + 1):
            sign = (-1.0) ** (n // 2) if n % 2 == 0 else -((-1.0) ** ((n - 1) // 2))
            Z += 2.0 * sign * coeffs[n, i] * jn[n]
        ref = evaluate_Z(smooth_zev, lam, x)
        np.testing.assert_allclose(Z, ref, atol=1e-13)


class TestOdeResidual:
    def test_constant_nu(self):
        g = Grid(1.0, 1000)
        zev = zs_coefficients(ZsPotential(g, np.full(g.size, 0.5)), 16)
        for lam in (0.7, 3.0):
            assert zs_ode_residual(zev, lam) < 1e-6

    def test_smooth_complex_nu(self, smooth_zev):
        for lam in (0.7, 3.0, 10.0):
            assert zs_ode_residual(smooth_zev, lam) < 1e-6
