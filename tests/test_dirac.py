import numpy as np
import pytest

from diracnsbf.dirac import (
    HomogeneousSolution,
    Potential,
    ResidualError,
    apply_A,
    apply_S,
    dirac_residual_nodes,
    free_solution,
    free_solution_dlambda,
    fundamental_solution_zero,
    matrix_norm,
)
from diracnsbf.grid import Grid, GridMismatchError, differentiate

from oracles import const_q_solution

B_MAT = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
BT_MAT = B_MAT.T


def dirac_residual(Y, Q, lam):
    """Max interior-node norm of B Y' + Q Y - lambda Y."""
    return float(np.max(dirac_residual_nodes(Y, Q, lam)[1:-1]))


def smooth_potential(grid):
    p_fn = lambda x: 0.4 * np.sin(2.0 * x) + 0.15 * x
    q_fn = lambda x: 0.3 * np.cos(x) - 0.1 * x**2
    return Potential.from_functions(grid, p_fn, q_fn)


class TestFreeSolution:
    def test_identity_at_zero(self):
        U = free_solution(3.7 + 1j, 0.0)
        np.testing.assert_allclose(U, np.eye(2), atol=0)

    def test_half_rotation(self):
        U = free_solution(np.pi, 1.0)
        np.testing.assert_allclose(U, -np.eye(2), atol=1e-15)

    def test_imaginary_lambda(self):
        # cos(i) = cosh(1) = 1.5430806348152437, sin(i) = i sinh(1)
        U = free_solution(1j, 1.0)
        assert abs(U[0, 0] - 1.5430806348152437) < 1e-12
        assert abs(U[0, 1] - (-1j * np.sinh(1.0))) < 1e-12
        assert abs(U[1, 0] - 1j * np.sinh(1.0)) < 1e-12

    def test_dtype_follows_lambda_x(self):
        # cos and sin of a complex argument with a zero imaginary part give
        # the real values exactly, with imaginary parts of either sign; only
        # the sign of a zero may differ (z = -0 at x = 0 for lam < 0)
        x = np.linspace(0.0, 1.0, 2001)
        for lam in (0.0, -7.25, 3.7, 423.0, -3e4):
            for fn in (free_solution, free_solution_dlambda):
                real, cplx = fn(lam, x), fn(complex(lam), x)
                assert real.dtype == np.float64 and cplx.dtype == np.complex128
                assert not cplx.imag.any()
                np.testing.assert_array_equal(real, cplx.real)
        assert free_solution(2.0 + 1j, x).dtype == np.complex128

    def test_array_argument(self):
        x = np.linspace(0, 1, 11)
        U = free_solution(2.0, x)
        assert U.shape == (11, 2, 2)
        np.testing.assert_allclose(U[:, 0, 0], np.cos(2 * x), atol=1e-15)


def adjugate(m):
    """The inverse HomogeneousSolution.entries makes of the 2x2 matrix m,
    held at every node of a grid."""
    g = Grid(1.0, 10)
    hom = HomogeneousSolution(grid=g, U=np.broadcast_to(m, (g.size, 2, 2)).copy())
    return hom.entries[1][..., 0]


def poison_one_step_map(monkeypatch, drift=np.nan):
    """Add drift to entry 00 of one RK4 step map of every propagator built
    afterwards, so that det U(0, x) drifts from 1 by about |drift|."""
    from diracnsbf import dirac

    step_maps = dirac._rk4_step_maps

    def poisoned(p, q, h):
        D = step_maps(p, q, h)
        if np.iscomplexobj(drift):
            D = D.astype(complex)
        D[0, 0, D.shape[-1] // 2] += drift
        return D

    monkeypatch.setattr(dirac, "_rk4_step_maps", poisoned)


class TestInvertUnimodular:
    """U(0, x) is inverted by its adjugate, which fundamental_solution_zero
    guards even unchecked: a determinant drift above 1e-6 raises."""

    def test_identity(self):
        np.testing.assert_array_equal(adjugate(np.eye(2)), np.eye(2))

    def test_adjugate_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a += 1.5  # keep away from 0
            d = (1.0 + b * c) / a
            m = np.array([[a, b], [c, d]])
            inv = adjugate(m)
            np.testing.assert_array_equal(inv, [[d, -b], [-c, a]])
            np.testing.assert_allclose(m @ inv, np.eye(2), atol=1e-13)

    def test_rotation_gives_transpose(self):
        th = 0.77
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        np.testing.assert_allclose(adjugate(r), r.T, atol=1e-15)

    def test_rejects_non_unimodular(self, monkeypatch):
        # a drift of 1e-8 fails the checked bound 1e-10 only; 1e-5 fails both
        Q = smooth_potential(Grid(1.0, 100))
        poison_one_step_map(monkeypatch, 1e-8)
        assert 5e-9 < fundamental_solution_zero(Q, check=False).det_defect < 2e-8
        with pytest.raises(ResidualError, match="drifts from 1 by"):
            fundamental_solution_zero(Q)
        monkeypatch.undo()
        poison_one_step_map(monkeypatch, 1e-5)
        with pytest.raises(ResidualError, match="drifts from 1 by"):
            fundamental_solution_zero(Q, check=False)

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan)])
    def test_rejects_nan(self, monkeypatch, bad):
        poison_one_step_map(monkeypatch, bad)
        with pytest.raises(ResidualError, match="drifts from 1 by nan"):
            fundamental_solution_zero(smooth_potential(Grid(1.0, 100)), check=False)


class TestFundamentalSolution:
    def test_zero_potential(self):
        g = Grid(1.0, 100)
        hom = fundamental_solution_zero(Potential.zero(g))
        np.testing.assert_allclose(hom.U, np.broadcast_to(np.eye(2), (g.size, 2, 2)), atol=1e-14)

    def test_constant_offdiagonal(self):
        # Q = [[0, 1], [1, 0]]: U(0, x) = diag(e^x, e^-x)
        g = Grid(1.0, 200)
        hom = fundamental_solution_zero(Potential.constant(g, 0.0, 1.0))
        np.testing.assert_allclose(hom.U[-1, 0, 0], 2.718281828459045, atol=1e-11)
        np.testing.assert_allclose(hom.U[-1, 1, 1], 0.36787944117144233, atol=1e-12)
        assert np.max(np.abs(hom.U[:, 0, 1])) < 1e-13
        assert np.max(np.abs(hom.U[:, 1, 0])) < 1e-13

    def test_constant_diagonal(self):
        # Q = [[1, 0], [0, -1]]: U(0, x) = [[cosh x, -sinh x], [-sinh x, cosh x]]
        g = Grid(1.0, 200)
        hom = fundamental_solution_zero(Potential.constant(g, 1.0, 0.0))
        x = g.nodes
        np.testing.assert_allclose(hom.U[:, 0, 0], np.cosh(x), atol=1e-11)
        np.testing.assert_allclose(hom.U[:, 0, 1], -np.sinh(x), atol=1e-11)
        np.testing.assert_allclose(hom.U[:, 1, 0], -np.sinh(x), atol=1e-11)

    def test_oracle_agreement_smooth(self):
        # against the closed form for a constant potential at every node
        g = Grid(1.0, 200)
        hom = fundamental_solution_zero(Potential.constant(g, 0.3, -0.7))
        ref = const_q_solution(0.3, -0.7, 0.0, g.nodes)
        assert np.max(np.abs(hom.U - ref)) < 1e-11

    def test_det_one_random_smooth(self):
        g = Grid(1.0, 300)
        hom = fundamental_solution_zero(smooth_potential(g))
        assert hom.det_defect <= 1e-10

    def test_real_potential_real_solution(self):
        g = Grid(1.0, 100)
        hom = fundamental_solution_zero(smooth_potential(g))
        assert np.max(np.abs(hom.U.imag)) < 1e-14

    def test_initial_value_exact(self):
        g = Grid(1.0, 100)
        hom = fundamental_solution_zero(smooth_potential(g))
        np.testing.assert_allclose(hom.U[0], np.eye(2), atol=0)

    def test_self_residual(self):
        g = Grid(1.0, 2000)
        Q = smooth_potential(g)
        hom = fundamental_solution_zero(Q)
        assert dirac_residual(hom.U, Q, 0.0) < 1e-10

    def test_coarse_grid_raises(self):
        g = Grid(1.0, 10)
        Q = Potential.constant(g, 0.0, 60.0)
        with pytest.raises(ResidualError):
            fundamental_solution_zero(Q)

    def test_nan_in_propagator_raises(self, monkeypatch):
        # a NaN passes every `value > tol` test; the determinant check is
        # written `not value <= tol`, so the propagator itself refuses it
        poison_one_step_map(monkeypatch)
        with pytest.raises(ResidualError, match="propagator U.* drifts from 1 by nan"):
            fundamental_solution_zero(smooth_potential(Grid(1.0, 100)))

    def test_nan_in_propagator_raises_without_check(self, monkeypatch):
        # check=False leaves only the adjugate inverse's determinant test
        poison_one_step_map(monkeypatch)
        with pytest.raises(ResidualError, match="propagator"):
            fundamental_solution_zero(smooth_potential(Grid(1.0, 100)), check=False)

    def test_tabulated_potential_interpolation_path(self):
        # without callables the integrator interpolates the node samples;
        # must agree with the exact-callable route at quadrature accuracy
        g = Grid(1.0, 300)
        Q_exact = smooth_potential(g)
        Q_tab = Potential(g, Q_exact.p.copy(), Q_exact.q.copy())
        hom_exact = fundamental_solution_zero(Q_exact)
        hom_tab = fundamental_solution_zero(Q_tab)
        assert np.max(np.abs(hom_exact.U - hom_tab.U)) < 1e-10


def rk4_loop(Q, substeps=10):
    """Reference: the classical RK4 stages, one substep at a time."""
    grid = Q.grid
    x = np.linspace(0.0, grid.b, 2 * grid.M * substeps + 1)
    p, q = Q.values_at(x)
    A = np.array([[q, -p], [-p, -q]]).transpose(2, 0, 1)
    hs = grid.h / substeps
    U = np.empty((grid.size, 2, 2), dtype=complex)
    u = U[0] = np.eye(2)
    for k in range(grid.M * substeps):
        a0, am, a1 = A[2 * k], A[2 * k + 1], A[2 * k + 2]
        k1 = a0 @ u
        k2 = am @ (u + 0.5 * hs * k1)
        k3 = am @ (u + 0.5 * hs * k2)
        k4 = a1 @ (u + hs * k3)
        u = u + (hs / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (k + 1) % substeps == 0:
            U[(k + 1) // substeps] = u
    return U


class TestComposedPropagator:
    """The RK4 step maps are composed in I + D form by a prefix scan.

    Forming I + D per step would carry the rounding of the identity into
    every step; on a constant potential that error drifts instead of
    averaging out, which these bounds at M = 10000 would catch.
    """

    def test_matches_stepwise_rk4(self):
        # same scheme, other arithmetic order: the bound is the loop's own
        # rounding budget, (M * substeps) * eps ~ 2e-12
        g = Grid(1.0, 1000)
        Q = smooth_potential(g)
        U = fundamental_solution_zero(Q).U
        assert np.max(np.abs(U - rk4_loop(Q))) < 1e-12

    @pytest.mark.parametrize("kind", ["constant", "smooth"])
    def test_det_defect_fine_grid(self, kind):
        g = Grid(1.0, 10000)
        if kind == "constant":
            Q = Potential.constant(g, 0.3, 1.0)
        else:
            Q = smooth_potential(g)
        assert fundamental_solution_zero(Q).det_defect <= 1e-14

    def test_closed_form_fine_grid(self):
        g = Grid(1.0, 10000)
        hom = fundamental_solution_zero(Potential.constant(g, 0.3, 1.0))
        ref = const_q_solution(0.3, 1.0, 0.0, g.nodes)
        assert np.max(np.abs(hom.U - ref)) < 1e-14


class TestApplyS:
    def setup_method(self):
        self.g = Grid(1.0, 500)
        self.Q0 = Potential.zero(self.g)
        self.hom0 = fundamental_solution_zero(self.Q0)

    def test_zero_rhs(self):
        H = np.zeros((self.g.size, 2, 2), dtype=complex)
        np.testing.assert_allclose(apply_S(H, self.hom0), H, atol=0)

    def test_constant_rhs_free(self):
        # Q = 0: B Y' = C integrates to Y = x B^T C
        C = np.array([[1.0, 2.0], [0.5 - 1j, -3.0]])
        H = np.broadcast_to(C, (self.g.size, 2, 2))
        Y = apply_S(H, self.hom0)
        expect = self.g.nodes[:, None, None] * (BT_MAT @ C)
        np.testing.assert_allclose(Y, expect, atol=1e-14)

    def test_linear_rhs_free(self):
        H = self.g.nodes[:, None, None] * np.eye(2)
        Y = apply_S(H, self.hom0)
        expect = (self.g.nodes**2 / 2)[:, None, None] * BT_MAT
        np.testing.assert_allclose(Y, expect, atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        Q = smooth_potential(self.g)
        hom = fundamental_solution_zero(Q)
        f = rng.standard_normal((self.g.size, 2, 2)) + 1j * rng.standard_normal(
            (self.g.size, 2, 2)
        )
        h = rng.standard_normal((self.g.size, 2, 2))
        a, c = 0.7 - 0.2j, 1.9
        lhs = apply_S(a * f + c * h, hom)
        rhs = a * apply_S(f, hom) + c * apply_S(h, hom)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_solves_nonhomogeneous_system(self):
        # residual check B Y' + Q Y = H for a smooth rhs and general Q
        g = Grid(1.0, 1000)
        Q = smooth_potential(g)
        hom = fundamental_solution_zero(Q)
        x = g.nodes
        H = np.empty((g.size, 2, 2), dtype=complex)
        H[:, 0, 0] = np.sin(2 * x)
        H[:, 0, 1] = np.cos(x)
        H[:, 1, 0] = x**2
        H[:, 1, 1] = np.exp(-x)
        Y = apply_S(H, hom)
        resid = apply_A(g, Y, Q) - H
        assert np.max(np.abs(resid[1:-1])) < 1e-8
        np.testing.assert_allclose(Y[0], 0.0, atol=1e-15)

    def test_integration_by_parts_identity(self):
        # S[h A_Q[H]] = h H - S[h' B H] for h(x) = x^2 (h(0) = 0)
        g = Grid(1.0, 1000)
        Q = smooth_potential(g)
        hom = fundamental_solution_zero(Q)
        x = g.nodes
        H = np.empty((g.size, 2, 2), dtype=complex)
        H[:, 0, 0] = np.cos(3 * x)
        H[:, 0, 1] = 0.5 * x
        H[:, 1, 0] = np.sin(x) + 0.2
        H[:, 1, 1] = np.exp(x / 2)
        h = x**2
        hprime = 2 * x
        lhs = apply_S(h[:, None, None] * apply_A(g, H, Q), hom)
        rhs = h[:, None, None] * H - apply_S(hprime[:, None, None] * (B_MAT @ H), hom)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            apply_S(np.zeros((7, 2, 2)), self.hom0)


class TestDiracResidual:
    def test_free_solution_is_exact(self):
        g = Grid(1.0, 2000)
        Q = Potential.zero(g)
        Y = free_solution(5.0, g.nodes)
        assert dirac_residual(Y, Q, 5.0) <= 1e-9

    def test_constant_is_not_a_solution(self):
        g = Grid(1.0, 100)
        Q = Potential.zero(g)
        Y = np.broadcast_to(np.eye(2), (g.size, 2, 2)).astype(complex)
        assert dirac_residual(Y, Q, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_vector_samples(self):
        g = Grid(1.0, 500)
        Q = Potential.zero(g)
        lam = 3.0
        Y = np.stack([np.cos(lam * g.nodes), np.sin(lam * g.nodes)], axis=1)
        assert dirac_residual(Y, Q, lam) < 1e-9


def svd_norm(a):
    """Test oracle: LAPACK's SVD through numpy."""
    return np.linalg.matrix_norm(a, ord=2)


def q_form(p, q):
    out = np.empty(np.shape(p) + (2, 2), dtype=complex)
    out[..., 0, 0] = p
    out[..., 0, 1] = q
    out[..., 1, 0] = q
    out[..., 1, 1] = -p
    return out


class TestMatrixNorm:
    """The closed-form 2x2 spectral norm against the SVD, 2e-15 relative."""

    RTOL = 2e-15

    def setup_method(self):
        self.rng = np.random.default_rng(20)

    def complex_batch(self, *shape):
        rng = self.rng
        return rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))

    def assert_matches_svd(self, a):
        ref = svd_norm(a)
        got = matrix_norm(a)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= self.RTOL * ref)

    def test_random_complex(self):
        self.assert_matches_svd(self.complex_batch(5000))

    def test_q_form_equal_singular_values(self):
        # p, q sharing a phase make Q a multiple of a real symmetric matrix
        rng = self.rng
        phase = np.exp(2j * np.pi * rng.random(5000))
        a = q_form(phase * rng.standard_normal(5000), phase * rng.standard_normal(5000))
        s = np.linalg.svd(a, compute_uv=False)
        assert np.all(s[:, 1] >= (1 - 1e-14) * s[:, 0])
        self.assert_matches_svd(a)

    def test_q_form_complex(self):
        p, q = self.complex_batch(5000)[:, 0].T
        self.assert_matches_svd(q_form(p, q))

    def test_rank_one(self):
        u = self.complex_batch(5000)[..., 0]
        v = self.complex_batch(5000)[..., 1]
        self.assert_matches_svd(u[:, :, None] * v[:, None, :])

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_scales(self, scale):
        self.assert_matches_svd(scale * self.complex_batch(5000))

    def test_subnormal_entries(self):
        rng = self.rng
        mod = 2e-308 * rng.uniform(0.5, 1.0, (5000, 2, 2))
        a = mod * np.exp(2j * np.pi * rng.random((5000, 2, 2)))
        tiny = np.finfo(float).tiny
        assert np.all(np.abs(a.real) < tiny) and np.all(np.abs(a.imag) < tiny)
        self.assert_matches_svd(a)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_tiny_entries_down_to_the_smallest_subnormal(self, dtype):
        # below 1/DBL_MAX (5.56e-309) the scale has no finite reciprocal;
        # subnormal results round to multiples of 2^-1074
        rng = self.rng
        mod = 10.0 ** rng.uniform(-323.3, -307.0, (5000, 2, 2))
        mod[:3] = 0.0
        mod[0, 0, 0], mod[1, 1, 0], mod[2, 0, 1] = 3e-309, 1e-310, 5e-324
        a = mod.astype(dtype)
        if dtype is complex:
            phase = np.exp(2j * np.pi * rng.random(mod.shape))
            phase[:3] = 1.0
            a = mod * phase
        ref = svd_norm(a)
        got = matrix_norm(a)
        np.testing.assert_array_equal(got[:3], [3e-309, 1e-310, 5e-324])
        assert np.all(np.abs(got - ref) <= self.RTOL * ref + 4 * 2.0**-1074)

    def test_leading_shape(self):
        self.assert_matches_svd(self.complex_batch(7, 11))

    def test_zero_matrix_exact(self):
        assert matrix_norm(np.zeros((2, 2), dtype=complex)) == 0.0
        np.testing.assert_array_equal(matrix_norm(np.zeros((3, 2, 2))), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_raises(self, bad):
        a = self.complex_batch(4)
        a[2, 1, 0] = bad
        with pytest.raises(ValueError):
            matrix_norm(a)


class TestApplyA:
    """apply_A writes B Y' + Q Y out entry by entry; the stacked matmul is
    the reference.  For vector samples the arithmetic is the same, so the
    results are equal; the stacked complex matmul of 2x2 matrices rounds in
    its own order, so matrix samples agree to a few ulps."""

    def setup_method(self):
        self.g = Grid(1.0, 300)
        self.Q = smooth_potential(self.g)
        x = self.g.nodes
        self.Y = np.stack(
            [np.exp(1j * x) * (1 + x), np.sin(3 * x) + 0.5j * x**2], axis=1
        )

    def test_vector_samples_match_matmul(self):
        dY = differentiate(self.g, self.Y)
        ref = (B_MAT @ dY[..., None])[..., 0] + (self.Q.matrices @ self.Y[..., None])[..., 0]
        np.testing.assert_array_equal(apply_A(self.g, self.Y, self.Q), ref)

    def test_matrix_samples_match_matmul(self):
        Y = np.stack([self.Y, self.Y[:, ::-1] * 2j], axis=2)
        dY = differentiate(self.g, Y)
        ref = B_MAT @ dY + self.Q.matrices @ Y
        atol = 4 * np.finfo(float).eps * np.max(np.abs(ref))
        np.testing.assert_allclose(apply_A(self.g, Y, self.Q), ref, rtol=0, atol=atol)
