import warnings

import numpy as np
import pytest

from diracnsbf import kernel
from diracnsbf.dirac import (
    Potential,
    apply_A,
    fundamental_solution_zero,
)
from diracnsbf.grid import Grid
from diracnsbf.kernel import (
    auto_truncation,
    build_coefficients,
    goursat_residuals,
    kernel_eval,
)

from oracles import goursat_kernel, scale_by_nodes, stacked_recurse, theta_n

B_MAT = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def trig_potential(grid):
    return Potential.from_functions(
        grid, lambda x: np.sin(np.pi * x), lambda x: np.cos(np.pi * x)
    )


@pytest.fixture(scope="module")
def const_family():
    g = Grid(1.0, 500)
    Q = Potential.constant(g, 0.0, 1.0)
    hom = fundamental_solution_zero(Q)
    return build_coefficients(Q, hom, 8)


@pytest.fixture(scope="module")
def trig_family():
    g = Grid(1.0, 1000)
    Q = trig_potential(g)
    hom = fundamental_solution_zero(Q)
    return build_coefficients(Q, hom, 16)


class TestBuildCoefficients:
    def test_zero_potential_all_zero(self):
        g = Grid(1.0, 100)
        Q = Potential.zero(g)
        hom = fundamental_solution_zero(Q)
        fam = build_coefficients(Q, hom, 6)
        assert all(np.max(np.abs(theta_n(fam, n))) == 0.0 for n in range(-1, 7))
        assert np.max(np.abs(fam.K)) == 0.0

    def test_k0_closed_form(self, const_family):
        # K_0(1) = diag((e - 1)/2, (1/e - 1)/2)
        k0 = const_family.coeff(0)
        assert abs(k0[-1, 0, 0] - 0.8591409142295225) < 1e-11
        assert abs(k0[-1, 1, 1] - (-0.31606027941427883)) < 1e-11
        assert np.max(np.abs(k0[:, 0, 1])) < 1e-12

    def test_theta_minus1_origin_limit(self, const_family):
        # theta_-1(0) = -B Q(0) / 2 = diag(-1/2, 1/2) for q = 1
        np.testing.assert_allclose(
            theta_n(const_family, -1)[0], np.diag([-0.5, 0.5]), atol=1e-14
        )

    def test_k1_closed_form(self, const_family):
        # independent hand derivation: C_1(x) = 3 (sinh x - x) / (2 x) I
        g = const_family.grid
        x = g.nodes[1:]
        expect = 1.5 * (np.sinh(x) - x) / x
        k1 = const_family.coeff(1)[1:]
        np.testing.assert_allclose(k1[:, 0, 0], expect, atol=1e-10)
        np.testing.assert_allclose(k1[:, 1, 1], expect, atol=1e-10)
        assert np.max(np.abs(k1[:, 0, 1])) < 1e-10
        np.testing.assert_allclose(const_family.coeff(1)[0], 0.0, atol=0)

    def test_k_minus1_is_minus_k0(self, trig_family):
        np.testing.assert_allclose(
            trig_family.coeff(-1), -trig_family.coeff(0), atol=0
        )

    def test_theta_vanishes_at_origin(self, trig_family):
        for n in range(1, trig_family.N + 1):
            np.testing.assert_allclose(theta_n(trig_family, n)[0], 0.0, atol=1e-15)

    def test_all_coeffs_vanish_at_origin(self, trig_family):
        for n in range(trig_family.N + 1):
            np.testing.assert_allclose(trig_family.coeff(n)[0], 0.0, atol=1e-14)

    def test_lambda_zero_closure(self, trig_family):
        lhs = np.eye(2) + 2.0 * trig_family.coeff(0)
        U0 = fundamental_solution_zero(trig_family.potential).U
        assert np.max(np.abs(lhs - U0)) < 1e-13

    def test_recursion_differential_identity(self, trig_family):
        # B theta_n' + Q theta_n matches the recursion's right-hand side
        g = trig_family.grid
        Q = trig_family.potential
        x = g.nodes
        for n in (1, 2, 5, 9):
            lhs = apply_A(g, theta_n(trig_family, n), Q)
            t2 = theta_n(trig_family, n - 2)
            t1 = theta_n(trig_family, n - 1)
            rhs = ((2 * n + 1) / (2 * n - 3)) * (
                scale_by_nodes(x**2, apply_A(g, t2, Q))
                - (2 * n - 3) * scale_by_nodes(x, B_MAT @ t2)
                + (2 * n - 3) * (t1 @ B_MAT)
            )
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.max(np.abs((lhs - rhs)[3:-3])) < 1e-7 * scale

    def test_extend_matches_direct_build(self):
        # auto_truncation continues one recursion across its probes; at
        # M = 2000 the first nodes are guarded, and a family continued from
        # guarded orders would differ from a direct build there
        g = Grid(1.0, 2000)
        Q = trig_potential(g)
        hom = fundamental_solution_zero(Q)
        orders = []
        for tol in (1e-6, 1e-9, 1e-12):
            fam, _ = auto_truncation(Q, hom, tol)
            direct = build_coefficients(Q, hom, fam.N)
            np.testing.assert_array_equal(fam.K, direct.K)
            orders.append(fam.N)
        assert len(set(orders)) == 3

    def test_coefficient_decay_smooth(self, trig_family):
        peaks = np.array(
            [np.max(np.abs(trig_family.coeff(n))) for n in range(trig_family.N + 1)]
        )
        assert peaks[16] <= 1e-3 * peaks[4]
        # super-algebraic trend: every order beyond 2 shrinks
        assert np.all(peaks[3:] < peaks[2:-1])

    def test_real_potential_real_coefficients(self, trig_family):
        assert np.max(np.abs(trig_family.K.imag)) < 1e-13


def with_complex_samples(Q):
    """A copy of Q whose node samples are complex: it takes the complex build."""
    Qc = Potential.from_functions(Q.grid, Q.p_fn, Q.q_fn)
    object.__setattr__(Qc, "p", Qc.p.astype(complex))
    object.__setattr__(Qc, "q", Qc.q.astype(complex))
    return Qc


def assert_bits_equal(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.dtype == b.dtype == np.float64
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestRealBuild:
    """A real potential builds in float64, bit for bit as the complex build."""

    def test_real_build_is_the_real_part_of_the_complex_build(self):
        # M = 2000 puts nodes below the guard fraction (x < 1e-3), and
        # N = 24 reaches the sanitized orders (n >= 4) up to their cap
        g = Grid(1.0, 2000)
        Q = trig_potential(g)
        Qc = with_complex_samples(Q)
        hom, hom_c = fundamental_solution_zero(Q), fundamental_solution_zero(Qc)
        fam, fam_c = build_coefficients(Q, hom, 24), build_coefficients(Qc, hom_c, 24)
        assert fam.K.dtype == np.float64 and fam_c.K.dtype == np.complex128
        for real, cplx in (
            (hom.U, hom_c.U),
            (hom.entries[1], hom_c.entries[1]),
            (fam.K, fam_c.K),
        ):
            assert_bits_equal(real, cplx.real)
            assert not cplx.imag.any()
        res, res_c = goursat_residuals(fam), goursat_residuals(fam_c)
        assert_bits_equal(res.delta_Q, res_c.delta_Q)
        assert_bits_equal(res.delta_0, res_c.delta_0)

    def test_auto_truncation_is_the_same(self):
        g = Grid(1.0, 2000)
        Q = trig_potential(g)
        Qc = with_complex_samples(Q)
        fam, probes = auto_truncation(Q, fundamental_solution_zero(Q), 1e-12)
        fam_c, probes_c = auto_truncation(Qc, fundamental_solution_zero(Qc), 1e-12)
        assert probes[-1, 1:].max() <= 1e-12 and fam.N == fam_c.N == 16
        assert_bits_equal(probes, probes_c)
        assert_bits_equal(fam.K, fam_c.K.real)

    def test_imaginary_part_off_the_nodes_is_kept(self):
        # exactly real on the nodes, complex between them (small enough to
        # pass the ODE-residual check): the RK4 samples carry the imaginary
        # part, so the build stays complex
        g = Grid(1.0, 200)

        def p_fn(x):
            return np.sin(x) + (0.0 if x.shape == g.nodes.shape else 1e-12j * x)

        Q = Potential.from_functions(g, p_fn, lambda x: 1.0 + x)
        assert Q.p.dtype == np.float64
        hom = fundamental_solution_zero(Q)
        fam = build_coefficients(Q, hom, 6)
        assert hom.U.dtype == fam.K.dtype == np.complex128
        assert np.max(np.abs(fam.K.imag)) > 0.0


class TestKernelEval:
    def test_zero_potential(self):
        g = Grid(1.0, 100)
        Q = Potential.zero(g)
        fam = build_coefficients(Q, fundamental_solution_zero(Q), 8)
        assert np.max(np.abs(kernel_eval(fam, 0.7, 0.3))) == 0.0

    def test_diagonal_identity_with_goursat_condition(self, trig_family):
        # at t = x the kernel matches the characteristic identity
        # B K(x, x) - K(x, x) B = -Q(x) to truncation accuracy
        Q = trig_family.potential
        for i in (400, 700, 1000):
            x = trig_family.grid.nodes[i]
            Kxx = kernel_eval(trig_family, x, x)
            lhs = B_MAT @ Kxx - Kxx @ B_MAT
            assert np.max(np.abs(lhs + Q.matrices[i])) < 1e-6

    def test_domain_validation(self, trig_family):
        with pytest.raises(ValueError):
            kernel_eval(trig_family, 0.5, 0.6)
        with pytest.raises(ValueError):
            kernel_eval(trig_family, 0.0, 0.0)
        with pytest.raises(ValueError):
            kernel_eval(trig_family, 1.5, 0.0)

    def test_against_characteristics_oracle(self, const_family):
        # brute-force characteristics integration on a coarse triangle mesh
        xs, ts, Kref = goursat_kernel(
            lambda x: np.zeros_like(x), lambda x: np.ones_like(x), 1.0, n=30
        )
        errs = []
        for x, t, kr in zip(xs, ts, Kref):
            if x < 0.2:
                continue
            errs.append(np.max(np.abs(kernel_eval(const_family, x, t) - kr)))
        assert max(errs) < 5e-3


class TestGoursatResiduals:
    def test_zero_potential(self):
        g = Grid(1.0, 100)
        Q = Potential.zero(g)
        fam = build_coefficients(Q, fundamental_solution_zero(Q), 4)
        res = goursat_residuals(fam)
        assert res.sup_Q == 0.0
        assert res.sup_0 == 0.0

    def test_residual_decay_doubling_n(self):
        g = Grid(1.0, 500)
        Q = Potential.constant(g, 0.0, 1.0)
        hom = fundamental_solution_zero(Q)
        res8 = goursat_residuals(build_coefficients(Q, hom, 8))
        res16 = goursat_residuals(build_coefficients(Q, hom, 16))
        assert res16.sup_Q_outer < res8.sup_Q_outer
        assert res16.sup_0_outer < res8.sup_0_outer

    def test_profile_shape(self, trig_family):
        res = goursat_residuals(trig_family)
        assert res.x.shape == res.delta_Q.shape == res.delta_0.shape
        assert res.sup_Q == pytest.approx(res.delta_Q.max())


class TestAutoTruncation:
    def test_zero_potential_gives_zero_order(self):
        g = Grid(1.0, 100)
        Q = Potential.zero(g)
        hom = fundamental_solution_zero(Q)
        fam, probes = auto_truncation(Q, hom, 1e-12, N_max=32)
        assert probes[-1, 1:].max() <= 1e-12
        assert fam.N == 0

    def test_meets_tolerance_by_construction(self):
        g = Grid(1.0, 500)
        Q = trig_potential(g)
        hom = fundamental_solution_zero(Q)
        tol = 1e-8
        fam, probes = auto_truncation(Q, hom, tol, N_max=64)
        assert probes[-1, 1:].max() <= tol
        res = goursat_residuals(fam)
        assert max(res.sup_Q_outer, res.sup_0_outer) <= tol

    def test_monotone_in_tolerance(self):
        g = Grid(1.0, 500)
        Q = Potential.constant(g, 0.0, 1.0)
        hom = fundamental_solution_zero(Q)
        orders = []
        for tol in (1e-4, 1e-7, 1e-10):
            fam, probes = auto_truncation(Q, hom, tol, N_max=64)
            assert probes[-1, 1:].max() <= tol
            orders.append(fam.N)
        assert orders == sorted(orders)

    def test_benchmark_potential_order(self):
        # the gauge-transformed diagonal benchmark reaches 1e-10 residuals
        # within the order the reference computation used (16)
        from diracnsbf.gauge import diagonal_to_canonical

        g = Grid(1.0, 2000)
        Q, _ = diagonal_to_canonical(
            g, lambda x: -x, lambda x: 1.0 + 0 * x, lambda x: x * (x - 2) / 4
        )
        hom = fundamental_solution_zero(Q)
        fam, probes = auto_truncation(Q, hom, 1e-10, N_max=64)
        assert probes[-1, 1:].max() <= 1e-10
        assert fam.N <= 16

    def test_constant_potential_floor(self):
        # the solve-sweep problem: a propagator whose rounding drifts
        # raises the residual floor above 1e-12 and never converges
        g = Grid(1.0, 2000)
        Q = Potential.constant(g, 0.3, 1.0)
        hom = fundamental_solution_zero(Q)
        fam, probes = auto_truncation(Q, hom, 1e-12)
        assert probes[-1, 1:].max() <= 1e-12
        assert fam.N == 12
        # the probe schedule (2, 4, 8, 12) leaves no trace in the family
        np.testing.assert_array_equal(fam.K, build_coefficients(Q, hom, 12).K)

    @pytest.mark.parametrize("kind", ["constant", "trig"])
    def test_probe_tuples_are_goursat_residuals(self, kind):
        # both sum the orders one by one through one step, so each probe's
        # tuple is the outer sups of goursat_residuals at its order, bit for bit
        g = Grid(1.0, 2000)
        Q = Potential.constant(g, 0.3, 1.0) if kind == "constant" else trig_potential(g)
        hom = fundamental_solution_zero(Q)
        _, probes = auto_truncation(Q, hom, 1e-12)
        assert len(probes) >= 4
        for Np, sup_Q, sup_0 in probes:
            res = goursat_residuals(build_coefficients(Q, hom, int(Np)))
            assert (res.sup_Q_outer.hex(), res.sup_0_outer.hex()) == (
                sup_Q.hex(),
                sup_0.hex(),
            )

    def test_walk_to_n_max_without_overflow(self):
        # tol 1e-17 is out of reach, so the whole schedule runs to order
        # 128; x^n is subnormal on the first nodes there, which lie in the
        # cells pinned to zero, where no reciprocal is taken.  The family
        # returned is that of order 12, the smallest residual (7.8e-14,
        # against 1.3e-11 at order 128)
        g = Grid(1.0, 2000)
        Q = Potential.constant(g, 0.3, 1.0)
        hom = fundamental_solution_zero(Q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam, probes = auto_truncation(Q, hom, 1e-17)
            fam_max = build_coefficients(Q, hom, 128)
        assert not probes[-1, 1:].max() <= 1e-17
        assert probes[-1, 0] == 128 and fam.N == 12
        # the stacked form still divides by the subnormal x^n
        with np.errstate(over="ignore", invalid="ignore"):
            ref = kernel._finalize(Q, stacked_recurse(Q, hom, 128))
        np.testing.assert_array_equal(fam_max.K.view(np.uint64), ref.K.view(np.uint64))

    def test_unconverged_keeps_the_smallest_residual(self):
        # tol 1e-30 is out of reach; the residual is smallest at order 19
        # (2.8e-10) and grows to 3.2 at order 128
        g = Grid(1.0, 200)
        Q = Potential.constant(g, 0.3, 1.0)
        hom = fundamental_solution_zero(Q)
        fam, probes = auto_truncation(Q, hom, 1e-30)
        assert probes[-1, 0] == 128 and probes[-1, 1:].max() > 1.0
        assert fam.N == 19
        ref = build_coefficients(Q, hom, 19)
        np.testing.assert_array_equal(fam.K.view(np.uint64), ref.K.view(np.uint64))

    @pytest.mark.parametrize(
        "kind, orders",
        [("constant", {1e-12: 12}), ("trig", {1e-12: 16, 1e-10: 14, 1e-8: 12})],
    )
    def test_orders_and_probes_match_svd_norm(self, monkeypatch, kind, orders):
        # the orders are those the LAPACK SVD norm chose at M = 2000; every
        # probe residual is recomputed through the SVD and agrees to 2e-15
        g = Grid(1.0, 2000)
        Q = Potential.constant(g, 0.3, 1.0) if kind == "constant" else trig_potential(g)
        hom = fundamental_solution_zero(Q)
        builds = {tol: auto_truncation(Q, hom, tol) for tol in orders}
        monkeypatch.setattr(kernel, "matrix_norm", lambda a: np.linalg.matrix_norm(a, ord=2))
        for tol, order in orders.items():
            ref, want = auto_truncation(Q, hom, tol)
            fam, got = builds[tol]
            assert fam.N == ref.N == order
            assert got.shape == want.shape
            np.testing.assert_array_equal(got[:, 0], want[:, 0])
            assert np.all(np.abs(got[:, 1:] - want[:, 1:]) <= 2e-15 * want[:, 1:])

    def test_warning_flag_when_unreachable(self):
        g = Grid(1.0, 100)
        Q = trig_potential(g)
        hom = fundamental_solution_zero(Q)
        fam, probes = auto_truncation(Q, hom, 1e-30, N_max=8)
        assert not probes[-1, 1:].max() <= 1e-30
        assert fam.N == 8

    def test_rejects_bad_tolerance(self):
        g = Grid(1.0, 100)
        Q = Potential.zero(g)
        hom = fundamental_solution_zero(Q)
        with pytest.raises(ValueError):
            auto_truncation(Q, hom, 0.0)
