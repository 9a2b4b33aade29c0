import numpy as np
import pytest

from diracnsbf.dirac import Potential, apply_A, fundamental_solution_zero
from diracnsbf.formal_powers import (
    build_formal_powers,
    build_particular_solution,
    kernel_coeffs_via_mapping,
    mapped_coefficients,
    phi_psi,
    sign_calibration,
)
from diracnsbf.grid import Grid
from diracnsbf.kernel import build_coefficients


@pytest.fixture(scope="module")
def free_setup():
    g = Grid(1.0, 500)
    Q = Potential.zero(g)
    ps = build_particular_solution(Q)
    fp = build_formal_powers(ps, Q, 8)
    return g, Q, ps, fp


@pytest.fixture(scope="module")
def const_setup():
    g = Grid(1.0, 500)
    Q = Potential.constant(g, 0.0, 1.0)
    ps = build_particular_solution(Q)
    fp = build_formal_powers(ps, Q, 8)
    return g, Q, ps, fp


class TestParticularSolution:
    def test_free_case_is_constant_one(self, free_setup):
        _, _, ps, _ = free_setup
        np.testing.assert_allclose(ps.f, 1.0, atol=1e-13)
        np.testing.assert_allclose(ps.g, 1.0, atol=1e-13)

    def test_const_case_exponentials(self, const_setup):
        g, _, ps, _ = const_setup
        np.testing.assert_allclose(ps.f, np.exp(g.nodes), atol=1e-10)
        np.testing.assert_allclose(ps.g, np.exp(-g.nodes), atol=1e-10)

    def test_normalization(self, const_setup):
        _, _, ps, _ = const_setup
        assert abs(ps.f[0] * ps.g[0] - 1.0) < 1e-12

    def test_solves_homogeneous_system(self, const_setup):
        g, Q, ps, _ = const_setup
        from diracnsbf.dirac import apply_A

        Y = np.stack([ps.f, ps.g], axis=1)
        r = apply_A(g, Y, Q)
        assert np.max(np.linalg.norm(r[1:-1], axis=1)) < 1e-8

    def test_sign_changing_needs_complex_combination(self):
        # p = 4, q = -4: every real candidate ratio in the sweep has a
        # component zero inside [0, 1], so the sweep must settle on a
        # genuinely complex c
        g = Grid(1.0, 500)
        Q = Potential.constant(g, 4.0, -4.0)
        ps = build_particular_solution(Q)
        assert ps.min_modulus > 0.0
        assert abs(np.imag(ps.c[1] / ps.c[0])) > 1e-8
        assert abs(ps.f[0] * ps.g[0] - 1.0) < 1e-12


class TestFormalPowers:
    def test_free_untilded(self, free_setup):
        g, _, _, fp = free_setup
        x = g.nodes
        np.testing.assert_allclose(fp.X[0], 0.0, atol=1e-14)
        np.testing.assert_allclose(fp.Y[0], 1.0, atol=1e-14)
        np.testing.assert_allclose(fp.Z[0], x, atol=1e-13)
        np.testing.assert_allclose(fp.X[1], -x, atol=1e-13)
        np.testing.assert_allclose(fp.Y[1], 0.0, atol=1e-14)

    def test_free_tilded(self, free_setup):
        g, _, _, fp = free_setup
        x = g.nodes
        np.testing.assert_allclose(fp.Xt[0], 1.0, atol=1e-14)
        np.testing.assert_allclose(fp.Yt[0], 0.0, atol=1e-14)
        np.testing.assert_allclose(fp.Zt[0], x, atol=1e-13)
        np.testing.assert_allclose(fp.Yt[1], x, atol=1e-13)

    def test_zero_p_any_q(self):
        g = Grid(1.0, 200)
        Q = Potential.from_functions(
            g, lambda x: np.zeros_like(x), lambda x: np.cos(3 * x)
        )
        ps = build_particular_solution(Q)
        fp = build_formal_powers(ps, Q, 2)
        np.testing.assert_allclose(fp.X[0], 0.0, atol=1e-14)
        np.testing.assert_allclose(fp.Y[0], 1.0, atol=1e-14)

    def test_const_first_order_closed_forms(self, const_setup):
        g, _, _, fp = const_setup
        x = g.nodes
        np.testing.assert_allclose(fp.X[1], -(1 - np.exp(-2 * x)) / 2, atol=1e-11)
        np.testing.assert_allclose(fp.Yt[1], (np.exp(2 * x) - 1) / 2, atol=1e-10)

    def test_initial_values(self, const_setup):
        _, _, _, fp = const_setup
        assert fp.X[0][0] == 0.0
        assert fp.Y[0][0] == 1.0
        assert fp.Xt[0][0] == 1.0
        assert fp.Yt[0][0] == 0.0
        for n in range(1, fp.N + 1):
            assert abs(fp.X[n][0]) == 0.0
            assert abs(fp.Y[n][0]) == 0.0
        for n in range(fp.N + 1):
            assert abs(fp.Z[n][0]) == 0.0


class TestSignCalibration:
    def test_table(self):
        cal = sign_calibration()
        assert cal[("phi", "odd")] == -1
        assert cal[("phi", "even")] == 1
        assert cal[("psi", "odd")] == 1
        assert cal[("psi", "even")] == 1


class TestPhiPsi:
    def test_free_monomials(self, free_setup):
        g, _, ps, fp = free_setup
        x = g.nodes
        for k in (0, 1, 2, 3, 4):
            phi, psi = phi_psi(fp, ps, k)
            np.testing.assert_allclose(phi[:, 0], x**k, atol=1e-12)
            np.testing.assert_allclose(phi[:, 1], 0.0, atol=1e-12)
            np.testing.assert_allclose(psi[:, 0], 0.0, atol=1e-12)
            np.testing.assert_allclose(psi[:, 1], x**k, atol=1e-12)

    def test_const_first_images(self, const_setup):
        g, _, ps, fp = const_setup
        x = g.nodes
        phi, psi = phi_psi(fp, ps, 1)
        np.testing.assert_allclose(phi[:, 0], np.sinh(x), atol=1e-10)
        np.testing.assert_allclose(phi[:, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(psi[:, 1], np.sinh(x), atol=1e-10)

    def test_order_zero_solves_system(self, const_setup):
        # Phi_0 is a lambda = 0 solution: B Phi_0' + Q Phi_0 = 0
        _, Q, ps, fp = const_setup
        phi, _ = phi_psi(fp, ps, 0)
        r = apply_A(Q.grid, phi, Q)
        assert np.max(np.linalg.norm(r[1:-1], axis=1)) < 1e-8

    def test_out_of_range(self, const_setup):
        _, _, ps, fp = const_setup
        with pytest.raises(ValueError):
            phi_psi(fp, ps, fp.N + 1)


class TestKernelCoeffsViaMapping:
    def test_free_case_vanishes(self, free_setup):
        _, _, ps, fp = free_setup
        for n in (0, 1, 3, 6, 8):
            kn = kernel_coeffs_via_mapping(fp, ps, n)
            assert np.max(np.abs(kn)) < 1e-9

    def test_const_order_zero_is_half_u_minus_i(self, const_setup):
        g, Q, ps, fp = const_setup
        hom = fundamental_solution_zero(Q)
        k0 = kernel_coeffs_via_mapping(fp, ps, 0)
        np.testing.assert_allclose(k0, 0.5 * (hom.U - np.eye(2)), atol=1e-10)

    def test_const_order_one_closed_form(self, const_setup):
        g, _, ps, fp = const_setup
        x = g.nodes[1:]
        k1 = kernel_coeffs_via_mapping(fp, ps, 1)[1:]
        expect = 1.5 * (np.sinh(x) - x) / x
        np.testing.assert_allclose(k1[:, 0, 0], expect, atol=1e-9)
        np.testing.assert_allclose(k1[:, 1, 1], expect, atol=1e-9)
        assert np.max(np.abs(k1[:, 0, 1])) < 1e-9

    def test_cross_validation_against_recursion(self):
        # the central consistency check between the two independent routes;
        # once ||C_n|| collapses below the monomial-assembly conditioning
        # floor (sum_k |l| O(1) terms cancelling to a tiny remainder), only
        # agreement at that floor is meaningful in double precision
        from diracnsbf.special import legendre_monomial_coeffs

        g = Grid(1.0, 2000)
        Q = Potential.from_functions(
            g, lambda x: np.sin(np.pi * x), lambda x: np.cos(np.pi * x)
        )
        hom = fundamental_solution_zero(Q)
        fam = build_coefficients(Q, hom, 8)
        mapped = mapped_coefficients(Q, hom, 8)
        table = legendre_monomial_coeffs(8)
        eta_scale = np.sqrt(2.0 * g.size)
        family_scale = max(
            np.sqrt(np.sum(np.abs(fam.coeff(m)) ** 2)) for m in range(9)
        )
        eps = np.finfo(float).eps
        for n in range(9):
            ref = fam.coeff(n)
            num = np.sqrt(np.sum(np.abs(mapped[n] - ref) ** 2))
            den = np.sqrt(np.sum(np.abs(ref) ** 2))
            floor = 50 * eps * (n + 0.5) * np.sum(np.abs(table.coeffs[n])) * eta_scale
            assert num <= max(1e-8 * den, floor), f"n={n}: num={num}, den={den}"
            assert num <= 1e-8 * family_scale
