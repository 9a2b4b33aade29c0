import numpy as np
import pytest

from diracnsbf.grid import (
    Grid,
    GridMismatchError,
    cubic_interp,
    differentiate,
    indefinite_integral,
    scale_by_nodes,
)

from formal_powers import indefinite_integral_weighted


def mat_const(grid, m):
    return np.broadcast_to(np.asarray(m, dtype=complex), (grid.size, 2, 2)).copy()


class TestGrid:
    def test_rounds_up_to_block_multiple(self):
        assert Grid(1.0, 101).M == 105
        assert Grid(1.0, 100).M == 100

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Grid(1.0, 3)
        assert Grid(1.0, 10).M == 10

    def test_nodes_endpoints(self):
        g = Grid(2.5, 40)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 2.5
        assert np.all(np.diff(g.nodes) > 0)

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            Grid(0.0, 100)
        with pytest.raises(ValueError):
            Grid(-1.0, 100)


class TestIndefiniteIntegral:
    def test_identity_integrand(self):
        g = Grid(1.0, 50)
        f = mat_const(g, np.eye(2))
        F = indefinite_integral(g, f)
        expect = g.nodes[:, None, None] * np.eye(2)
        np.testing.assert_allclose(F, expect, atol=1e-15)

    def test_polynomial_exactness(self):
        # exact through degree 5 at every node
        g = Grid(1.0, 50)
        for deg in range(6):
            f = g.nodes**deg
            F = indefinite_integral(g, f)
            np.testing.assert_allclose(
                F, g.nodes ** (deg + 1) / (deg + 1), atol=5e-16 * (deg + 1), rtol=1e-14
            )

    def test_t_times_identity(self):
        g = Grid(1.0, 20)
        f = g.nodes[:, None, None] * np.eye(2)
        F = indefinite_integral(g, f)
        expect = (g.nodes**2 / 2)[:, None, None] * np.eye(2)
        np.testing.assert_allclose(F, expect, atol=1e-15)

    def test_cosine(self):
        g = Grid(1.0, 100)
        f = np.cos(g.nodes)[:, None, None] * np.eye(2)
        F = indefinite_integral(g, f)
        expect = np.sin(g.nodes)[:, None, None] * np.eye(2)
        assert np.max(np.abs(F - expect)) <= 1e-10

    def test_starts_at_zero(self):
        g = Grid(3.0, 35)
        F = indefinite_integral(g, np.exp(g.nodes))
        assert F[0] == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        g = Grid(1.0, 40)
        f = rng.standard_normal((g.size, 2, 2)) + 1j * rng.standard_normal((g.size, 2, 2))
        h = rng.standard_normal((g.size, 2, 2))
        a, b = 1.7, -0.3 + 2.2j
        lhs = indefinite_integral(g, a * f + b * h)
        rhs = a * indefinite_integral(g, f) + b * indefinite_integral(g, h)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_convergence_order(self):
        # log-log slope over M in {50, 100, 200, 400} on a smooth integrand
        errs = []
        for M in (50, 100, 200, 400):
            g = Grid(1.0, M)
            F = indefinite_integral(g, np.exp(np.sin(3 * g.nodes)))
            gfine = Grid(1.0, 2000)
            ref = indefinite_integral(gfine, np.exp(np.sin(3 * gfine.nodes)))
            errs.append(np.max(np.abs(F - ref[:: 2000 // M])))
        slopes = np.diff(np.log(errs)) / np.log(0.5)
        assert np.min(slopes) >= 5.7

    def test_grid_mismatch(self):
        g = Grid(1.0, 20)
        with pytest.raises(GridMismatchError):
            indefinite_integral(g, np.zeros(7))


class TestWeightedIndefiniteIntegral:
    def test_polynomial_factor_exact_any_weight(self):
        # the weight t^k is carried exactly; only the sampled factor is
        # interpolated, so polynomial factors up to degree 5 are exact
        g = Grid(1.0, 50)
        x = g.nodes
        for k in (1, 3, 8, 20, 63):
            for deg in (0, 2, 5):
                F = indefinite_integral_weighted(g, k, x**deg)
                exact = x ** (k + deg + 1) / (k + deg + 1)
                np.testing.assert_allclose(F, exact, atol=2e-14, rtol=1e-13)

    def test_relative_accuracy_down_to_first_node(self):
        import mpmath as mp

        mp.mp.dps = 40
        g = Grid(1.0, 2000)
        F = indefinite_integral_weighted(g, 8, np.exp(g.nodes))
        for i in (1, 5, 400, 2000):
            ref = float(mp.quad(lambda t: t**8 * mp.exp(t), [0, mp.mpf(g.nodes[i])]))
            assert abs(F[i] - ref) < 1e-12 * abs(ref)

    def test_zero_weight_delegates(self):
        g = Grid(1.0, 50)
        f = np.sin(g.nodes)
        np.testing.assert_allclose(
            indefinite_integral_weighted(g, 0, f), indefinite_integral(g, f), atol=0
        )

    def test_rejects_bad_exponent(self):
        g = Grid(1.0, 50)
        with pytest.raises(ValueError):
            indefinite_integral_weighted(g, -1, g.nodes)

    def test_matrix_values(self):
        g = Grid(1.0, 50)
        f = g.nodes[:, None, None] ** 2 * np.eye(2)
        F = indefinite_integral_weighted(g, 3, f)
        expect = (g.nodes**6 / 6)[:, None, None] * np.eye(2)
        np.testing.assert_allclose(F, expect, atol=1e-14)


class TestDifferentiate:
    def test_polynomial(self):
        g = Grid(1.0, 30)
        d = differentiate(g, g.nodes**4)
        np.testing.assert_allclose(d, 4 * g.nodes**3, atol=1e-12)

    def test_trig(self):
        g = Grid(1.0, 200)
        d = differentiate(g, np.sin(5 * g.nodes))
        assert np.max(np.abs(d - 5 * np.cos(5 * g.nodes))) < 1e-8

    def test_matrix_valued(self):
        g = Grid(1.0, 50)
        f = np.zeros((g.size, 2, 2), dtype=complex)
        f[:, 0, 1] = np.exp(2j * g.nodes)
        d = differentiate(g, f)
        np.testing.assert_allclose(
            d[:, 0, 1], 2j * np.exp(2j * g.nodes), atol=1e-9
        )

    @pytest.mark.parametrize("shape", [(), (2,), (2, 2)])
    def test_real_samples_round_as_complex_ones(self, shape):
        # the edge stencils and the 1/h scaling must round alike for both,
        # so that a float64 residual is the real part of the complex one
        g = Grid(1.7, 2000)
        f = np.random.default_rng(3).standard_normal((g.size,) + shape) * 1e3
        d = differentiate(g, f)
        dc = differentiate(g, f.astype(complex))
        assert d.dtype == np.float64
        assert not dc.imag.any()
        np.testing.assert_array_equal(d.view(np.uint64), dc.real.copy().view(np.uint64))


class TestPointwiseAlgebra:
    def test_scale_by_nodes(self):
        g = Grid(1.0, 20)
        f = mat_const(g, np.eye(2))
        out = scale_by_nodes(g.nodes, f)
        np.testing.assert_allclose(out[:, 0, 0], g.nodes, atol=0)

    def test_mismatch_raises(self):
        g = Grid(1.0, 20)
        f = mat_const(g, np.eye(2))
        with pytest.raises(GridMismatchError):
            scale_by_nodes(np.zeros(7), f)


class TestCubicInterp:
    def test_reproduces_nodes(self):
        g = Grid(1.0, 25)
        vals = np.sin(g.nodes)
        out = cubic_interp(g, vals, g.nodes[7])
        assert abs(out[0] - vals[7]) < 1e-14

    def test_cubic_exact(self):
        g = Grid(1.0, 25)
        vals = g.nodes**3 - 2 * g.nodes
        x = np.array([0.013, 0.5071, 0.999])
        np.testing.assert_allclose(cubic_interp(g, vals, x), x**3 - 2 * x, atol=1e-14)

    def test_smooth_accuracy(self):
        g = Grid(1.0, 200)
        vals = np.exp(g.nodes)
        x = np.linspace(0, 1, 313)
        assert np.max(np.abs(cubic_interp(g, vals, x) - np.exp(x))) < 1e-8

    def test_matrix_values(self):
        g = Grid(1.0, 25)
        vals = np.zeros((g.size, 2, 2))
        vals[:, 1, 0] = g.nodes**2
        out = cubic_interp(g, vals, 0.73)
        assert abs(out[0, 1, 0] - 0.73**2) < 1e-14
