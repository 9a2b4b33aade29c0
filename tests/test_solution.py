import numpy as np
import pytest

from diracnsbf.dirac import Potential, free_solution, fundamental_solution_zero
from diracnsbf.grid import Grid
from diracnsbf.kernel import build_coefficients, goursat_residuals
from diracnsbf.solution import evaluate_U, solve_ivp
from diracnsbf.special import bessel_pair_batch

from oracles import central_dlambda, const_q_solution


@pytest.fixture(scope="module")
def const_ev():
    g = Grid(1.0, 2000)
    Q = Potential.constant(g, 0.0, 1.0)
    hom = fundamental_solution_zero(Q)
    return build_coefficients(Q, hom, 20)


@pytest.fixture(scope="module")
def trig_ev():
    g = Grid(1.0, 1000)
    Q = Potential.from_functions(
        g, lambda x: np.sin(np.pi * x), lambda x: np.cos(np.pi * x)
    )
    hom = fundamental_solution_zero(Q)
    return build_coefficients(Q, hom, 16)


class TestEvaluateU:
    def test_zero_potential_reduces_to_free(self):
        g = Grid(1.0, 100)
        Q = Potential.zero(g)
        ev = build_coefficients(Q, fundamental_solution_zero(Q), 8)
        for lam in (0.0, 3.0, -17.0, 2.0 + 1.0j):
            U = evaluate_U(ev, lam, g.nodes)
            np.testing.assert_allclose(U, free_solution(lam, g.nodes), atol=1e-13)

    def test_lambda_zero_closure(self, trig_ev):
        U = evaluate_U(trig_ev, 0.0, trig_ev.grid.nodes)
        U0 = fundamental_solution_zero(trig_ev.potential).U
        assert np.max(np.abs(U - U0)) < 1e-12

    def test_constant_potential_oracle_single(self, const_ev):
        U = evaluate_U(const_ev, 10.0, 1.0)
        ref = const_q_solution(0.0, 1.0, 10.0, 1.0)
        assert np.max(np.abs(U - ref)) < 1e-8

    def test_constant_potential_oracle_sweep(self, const_ev):
        g = const_ev.grid
        for lam in (-100.0, -37.0, -1.0, 0.5, 24.0, 99.0):
            U = evaluate_U(const_ev, lam, g.nodes)
            ref = const_q_solution(0.0, 1.0, lam, g.nodes)
            assert np.max(np.abs(U - ref)) < 1e-8, lam

    def test_uniformity_in_lambda(self, const_ev):
        g = const_ev.grid
        errs = {}
        for lam in (-95.0, -10.0, -3.0, 3.0, 10.0, 95.0):
            U = evaluate_U(const_ev, lam, g.nodes)
            ref = const_q_solution(0.0, 1.0, lam, g.nodes)
            errs[lam] = np.max(np.abs(U - ref))
        small = max(v for k, v in errs.items() if abs(k) <= 10)
        large = max(v for k, v in errs.items() if abs(k) >= 90)
        ratio = max(small, large) / min(small, large)
        assert ratio < 10.0

    def test_imaginary_lambda_growth(self, const_ev):
        # truncation error bound scales like (e^(sigma x) - 1)/sigma for
        # lambda = i sigma; check the measured error stays within that
        # envelope relative to the real-axis level
        g = const_ev.grid
        real_err = 0.0
        for lam in (1.0, 5.0, 10.0):
            U = evaluate_U(const_ev, lam, g.nodes)
            ref = const_q_solution(0.0, 1.0, lam, g.nodes)
            real_err = max(real_err, np.max(np.abs(U - ref)))
        for sigma in (1.0, 5.0, 10.0):
            U = evaluate_U(const_ev, 1j * sigma, g.nodes)
            ref = const_q_solution(0.0, 1.0, 1j * sigma, g.nodes)
            err = np.max(np.abs(U - ref))
            envelope = (np.exp(sigma * g.b) - 1.0) / sigma
            assert err <= 10.0 * envelope * real_err + 1e-13

    def test_unimodularity_improves_with_n(self):
        g = Grid(1.0, 1000)
        Q = Potential.from_functions(
            g, lambda x: np.sin(np.pi * x), lambda x: np.cos(np.pi * x)
        )
        hom = fundamental_solution_zero(Q)
        defects = []
        for N in (4, 8, 16):
            ev = build_coefficients(Q, hom, N)
            U = evaluate_U(ev, 7.0, 1.0)
            defects.append(abs(np.linalg.det(U) - 1.0))
        assert defects[2] < defects[0]
        res = goursat_residuals(build_coefficients(Q, hom, 16))
        assert defects[2] <= 10.0 * max(res.sup_Q_outer, res.sup_0_outer)

    def test_realness(self, trig_ev):
        U = evaluate_U(trig_ev, 4.0, trig_ev.grid.nodes)
        assert np.max(np.abs(U.imag)) < 1e-12

    def test_off_grid_interpolation(self, const_ev):
        x = 0.61237
        U = evaluate_U(const_ev, 5.0, x)
        ref = const_q_solution(0.0, 1.0, 5.0, x)
        assert np.max(np.abs(U - ref)) < 1e-7

    def test_nodes_take_the_node_rows(self, trig_ev):
        # on-grid points use the folded coefficients of their node exactly
        lam, nodes = 25.0, trig_ev.grid.nodes
        jn, _ = bessel_pair_batch(lam * nodes, trig_ev.N + 1)
        ref = free_solution(lam, nodes) + np.einsum(
            "nm,nmij->mij", jn[: trig_ev.N + 1], trig_ev.folded
        )
        np.testing.assert_array_equal(evaluate_U(trig_ev, lam, nodes), ref)

    def test_domain_check(self, const_ev):
        with pytest.raises(ValueError):
            evaluate_U(const_ev, 1.0, 1.5)
        with pytest.raises(ValueError):
            evaluate_U(const_ev, np.array([1.0, 2.0]), np.array([0.5, -0.1]))


class TestDerivative:
    def test_zero_potential_closed_form(self):
        g = Grid(1.0, 100)
        Q = Potential.zero(g)
        ev = build_coefficients(Q, fundamental_solution_zero(Q), 8)
        lam, x = 2.5, 0.8
        dU = evaluate_U(ev, lam, x, derivative=True)[1]
        z = lam * x
        expect = np.array(
            [
                [-x * np.sin(z), -x * np.cos(z)],
                [x * np.cos(z), -x * np.sin(z)],
            ]
        )
        np.testing.assert_allclose(dU, expect, atol=1e-13)

    def test_against_central_differences(self, trig_ev):
        rng = np.random.default_rng(42)
        pts = [(rng.uniform(-20, 20), rng.uniform(0.1, 1.0)) for _ in range(19)]
        pts.append((0.0, 0.7))
        for lam, x in pts:
            dU = evaluate_U(trig_ev, lam, x, derivative=True)[1]
            fd = central_dlambda(lambda t: evaluate_U(trig_ev, t, x), lam, h=1e-5)
            assert np.max(np.abs(dU - fd)) < 1e-6, (lam, x)

    def test_finite_at_lambda_zero(self, trig_ev):
        dU = evaluate_U(trig_ev, 0.0, 1.0, derivative=True)[1]
        assert np.all(np.isfinite(dU))
        fd = (
            evaluate_U(trig_ev, 1e-4, 1.0) - evaluate_U(trig_ev, -1e-4, 1.0)
        ) / 2e-4
        assert np.max(np.abs(dU - fd)) < 1e-6

    def test_batched_end_matches_pointwise(self, trig_ev):
        # the one-pass (U, dU) at x = b used by the eigenvalue scan against
        # single-point calls, each with a Bessel pass of its own
        lams = np.array([0.0, 1e-3, -0.4, 2.5, -37.0, 180.0, 3.0 + 1.0j])
        U, dU = evaluate_U(trig_ev, lams, trig_ev.grid.b, derivative=True)
        for k, lam in enumerate(lams):
            ref_U, ref_dU = evaluate_U(trig_ev, lam, trig_ev.grid.b, derivative=True)
            np.testing.assert_allclose(U[k], ref_U, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dU[k], ref_dU, rtol=0, atol=1e-11)


class TestBroadcast:
    """One call over many points equals one call per point, bit for bit."""

    @staticmethod
    def assert_elementwise(ev, lam, x):
        U, dU = evaluate_U(ev, lam, x, derivative=True)
        lam_b, x_b = np.broadcast_arrays(lam, x)
        assert U.shape == dU.shape == lam_b.shape + (2, 2)
        for k in np.ndindex(lam_b.shape):
            ref_U, ref_dU = evaluate_U(ev, lam_b[k], x_b[k], derivative=True)
            np.testing.assert_array_equal(U[k], ref_U)
            np.testing.assert_array_equal(dU[k], ref_dU)

    def test_lambda_array_at_scalar_x(self, trig_ev):
        lams = np.array([0.0, 1e-3, -0.4, 2.5, -37.0, 180.0, 3.0 + 1.0j, 400.0])
        self.assert_elementwise(trig_ev, lams, trig_ev.grid.b)
        self.assert_elementwise(trig_ev, lams, 0.61237)

    def test_scalar_lambda_at_nodes(self, trig_ev):
        nodes = trig_ev.grid.nodes[::37]
        for lam in (0.0, 25.0, -7.5, 390.0 + 1.0j):
            self.assert_elementwise(trig_ev, lam, nodes)

    def test_mixed_on_and_off_grid_points(self, trig_ev):
        h = trig_ev.grid.h
        x = np.array([0.0, 0.5 * h, 3 * h, 0.61237, 0.5, 1.0 - 0.3 * h, 1.0])
        self.assert_elementwise(trig_ev, 12.5, x)
        # a lambda column against an x row broadcasts to a table
        self.assert_elementwise(trig_ev, np.array([[-3.0], [40.0 + 0.5j]]), x)


class TestSolveIvp:
    def test_zero_initial_value(self, trig_ev):
        sol = solve_ivp(trig_ev, 3.0, (0.0, 0.0))
        assert np.max(np.abs(sol.Y)) == 0.0

    def test_free_first_column(self):
        g = Grid(1.0, 500)
        Q = Potential.zero(g)
        ev = build_coefficients(Q, fundamental_solution_zero(Q), 4)
        lam = 6.0
        sol = solve_ivp(ev, lam, (1.0, 0.0))
        np.testing.assert_allclose(sol.Y[:, 0], np.cos(lam * g.nodes), atol=1e-12)
        np.testing.assert_allclose(sol.Y[:, 1], np.sin(lam * g.nodes), atol=1e-12)

    def test_constant_oracle_columns(self, const_ev):
        g = const_ev.grid
        lam = 10.0
        ref = const_q_solution(0.0, 1.0, lam, g.nodes)
        for c in ((1.0, 0.0), (0.0, 1.0)):
            sol = solve_ivp(const_ev, lam, c)
            expect = ref @ np.asarray(c)
            assert np.max(np.abs(sol.Y - expect)) < 1e-8

    def test_initial_value_exact(self, trig_ev):
        sol = solve_ivp(trig_ev, 5.0, (0.3, -0.7))
        np.testing.assert_allclose(sol.Y[0], [0.3, -0.7], atol=1e-13)

    def test_residual_reported(self, const_ev):
        sol = solve_ivp(const_ev, 10.0, (1.0, 0.0))
        assert sol.residual < 1e-7

    def test_realness(self, trig_ev):
        sol = solve_ivp(trig_ev, 2.0, (1.0, 1.0))
        assert np.max(np.abs(sol.Y.imag)) < 1e-12


@pytest.fixture(scope="module")
def complex_ev():
    g = Grid(1.0, 1000)
    Q = Potential.from_functions(g, lambda x: np.sin(3 * x) + 0.5j * x, lambda x: 1 + x)
    return build_coefficients(Q, fundamental_solution_zero(Q), 12)


class TestRealPath:
    """A real lambda on a real potential evaluates in float64, bit for bit
    the real part of the complex evaluation; any complex input keeps the
    complex path."""

    LAMS = (0.0, -7.25, 3.7, 25.0, -390.5, 3e4)

    def test_dtypes(self, trig_ev, complex_ev):
        x = trig_ev.grid.nodes
        assert trig_ev.folded.dtype == np.float64
        for lam in (4.0, 4.0 + 0j, np.array([[1.0], [-2.0 + 0j]])):
            U, dU = evaluate_U(trig_ev, lam, 0.5, derivative=True)
            assert U.dtype == dU.dtype == np.float64
            assert evaluate_U(trig_ev, lam, x).dtype == np.float64
        assert evaluate_U(trig_ev, 4.0 + 1j, x).dtype == np.complex128
        assert evaluate_U(trig_ev, np.array([1.0, 2.0 + 1j]), 0.5).dtype == np.complex128
        assert complex_ev.folded.dtype == np.complex128
        assert evaluate_U(complex_ev, 4.0, x).dtype == np.complex128
        sol = solve_ivp(trig_ev, 4.0 + 0j, np.array([1.0, 0.5], dtype=complex))
        assert sol.Y.dtype == sol.residual_nodes.dtype == np.float64
        assert solve_ivp(trig_ev, 4.0, (1.0, 0.5j)).Y.dtype == np.complex128
        assert solve_ivp(trig_ev, 4.0 + 1j, (1.0, 0.5)).Y.dtype == np.complex128
        assert solve_ivp(complex_ev, 4.0, (1.0, 0.5)).Y.dtype == np.complex128

    @pytest.mark.parametrize("derivative", [False, True])
    def test_nodes_bitwise(self, trig_ev, complex_path, derivative):
        for lam in self.LAMS:
            complex_path.check(evaluate_U, trig_ev, lam, trig_ev.grid.nodes, derivative)

    @pytest.mark.parametrize("derivative", [False, True])
    def test_off_nodes_bitwise(self, trig_ev, complex_path, derivative):
        x = np.random.default_rng(8).uniform(0.0, 1.0, 500)
        for lam in self.LAMS:
            complex_path.check(evaluate_U, trig_ev, lam, x, derivative)
        complex_path.check(evaluate_U, trig_ev, np.array(self.LAMS)[:, None], x, derivative)

    def test_solve_bitwise(self, trig_ev, complex_path):
        # a written-out U c: a real stacked matmul rounds unlike the complex one
        for lam in self.LAMS:
            for c in ((1.0, 0.0), (0.3, -2.0)):
                sol = solve_ivp(trig_ev, lam, c)
                ref = complex_path.run(solve_ivp, trig_ev, lam, c)
                complex_path.assert_real_part(sol.Y, ref.Y)
                np.testing.assert_array_equal(
                    sol.residual_nodes.view(np.uint64), ref.residual_nodes.view(np.uint64)
                )

    @pytest.mark.parametrize("lam", [-7.25, 3.7, 40.0, 3.0 + 1.0j, -20.0 - 0.5j])
    def test_complex_inputs_keep_the_complex_path(self, trig_ev, complex_ev, complex_path, lam):
        # a complex potential at a real lambda adds a float64 free solution
        # to a complex fold, and a complex lambda casts the float64 folded
        # coefficients: both equal the all-complex evaluation bit for bit,
        # imaginary parts included
        x = np.r_[trig_ev.grid.nodes, 0.61237]
        bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
        for ev in (complex_ev, trig_ev):
            for got, ref in zip(
                evaluate_U(ev, lam, x, derivative=True),
                complex_path.run(evaluate_U, ev, lam, x, derivative=True),
            ):
                if got.dtype == np.complex128:
                    np.testing.assert_array_equal(bits(got), bits(ref))
            for c in ((1.0, 0.0), (0.3, -2.0j)):
                sol = solve_ivp(ev, lam, c)
                ref = complex_path.run(solve_ivp, ev, lam, c)
                if sol.Y.dtype == np.complex128:
                    np.testing.assert_array_equal(bits(sol.Y), bits(ref.Y))
                    np.testing.assert_array_equal(
                        bits(sol.residual_nodes), bits(ref.residual_nodes)
                    )
