import numpy as np
import pytest
from scipy import optimize

from diracnsbf.dirac import Potential, fundamental_solution_zero
from diracnsbf.gauge import diagonal_to_canonical, rotate_boundary_blocks, rotation
from diracnsbf.grid import Grid
from diracnsbf.kernel import build_coefficients
from diracnsbf.solution import build_evaluator
from diracnsbf.spectral import (
    BoundaryCondition,
    ScanOptions,
    char_function,
    refine_root,
    scan_eigenvalues,
)

from oracles import airy_spectrum, const_q_solution


def make_ev(p_fn, q_fn, M=500, N=12, b=1.0):
    g = Grid(b, M)
    Q = Potential.from_functions(g, p_fn, q_fn)
    hom = fundamental_solution_zero(Q)
    return build_evaluator(build_coefficients(Q, hom, N))


@pytest.fixture(scope="module")
def free_ev():
    return make_ev(lambda x: 0 * x, lambda x: 0 * x, M=200, N=4)


@pytest.fixture(scope="module")
def const_ev():
    return make_ev(lambda x: 0 * x, lambda x: 1 + 0 * x, M=1000, N=16)


class TestCharFunction:
    def test_trivial_no_eigenvalues(self, free_ev):
        bc = BoundaryCondition(left=np.eye(2), right=np.zeros((2, 2)))
        for lam in (0.0, 2.5, -11.0):
            assert char_function(free_ev, bc, lam)[0] == pytest.approx(1.0, abs=1e-14)
        assert char_function(free_ev, bc, 1.0)[1] == pytest.approx(0.0, abs=1e-12)

    def test_free_dirichlet_is_minus_sine(self, free_ev):
        bc = BoundaryCondition.dirichlet()
        for lam in (0.3, 2.0, -7.7, 19.0):
            delta, slope = char_function(free_ev, bc, lam)
            assert delta == pytest.approx(-np.sin(lam), abs=1e-12)
            assert slope == pytest.approx(-np.cos(lam), abs=1e-11)

    def test_batch_matches_scalar(self, const_ev):
        bc = BoundaryCondition.dirichlet()
        lams = np.linspace(-5, 5, 23)
        batch = char_function(const_ev, bc, lams)
        single = np.array([char_function(const_ev, bc, l) for l in lams])
        np.testing.assert_allclose(batch, single.T, atol=1e-13)

    def test_derivative_against_finite_differences(self, const_ev):
        bc = BoundaryCondition.dirichlet()
        rng = np.random.default_rng(1)
        for lam in rng.uniform(-30, 30, 6):
            d = char_function(const_ev, bc, lam)[1]
            h = 1e-5
            fd = (
                char_function(const_ev, bc, lam + h)[0]
                - char_function(const_ev, bc, lam - h)[0]
            ) / (2 * h)
            assert abs(d - fd) < 1e-6

    def test_constant_potential_against_oracle(self, const_ev):
        bc = BoundaryCondition.dirichlet()
        for lam in (0.7, 5.0, -13.0):
            ref = const_q_solution(0.0, 1.0, lam, 1.0)
            M = np.array([[1.0, 0.0], [ref[0, 0], ref[0, 1]]])
            assert abs(char_function(const_ev, bc, lam)[0] - np.linalg.det(M)) < 1e-8


class TestRefineRoot:
    def test_known_root(self, free_ev):
        bc = BoundaryCondition.dirichlet()
        rec = refine_root(free_ev, bc, (3.0, 3.3))
        assert abs(rec.lam - np.pi) < 1e-12
        assert rec.converged

    def test_start_exactly_at_root(self, free_ev):
        bc = BoundaryCondition.dirichlet()
        rec = refine_root(free_ev, bc, (np.pi, 3.3))
        assert rec.iterations == 0
        assert rec.lam == pytest.approx(np.pi, abs=1e-15)

    def test_flat_region_fails_instead_of_fabricating(self, free_ev):
        # periodic-type blocks give Delta = 2(1 - cos lambda): flat near
        # lambda = pi with no root anywhere close
        bc = BoundaryCondition(left=np.eye(2), right=-np.eye(2))
        rec = refine_root(free_ev, bc, np.pi + 0.05, max_iter=40)
        assert not rec.converged

    def test_double_root_from_nearby_start(self, free_ev):
        bc = BoundaryCondition(left=np.eye(2), right=-np.eye(2))
        rec = refine_root(free_ev, bc, 2 * np.pi + 0.08, max_iter=120)
        if rec.converged:
            assert abs(rec.lam - 2 * np.pi) < 1e-5

    def test_rejects_bad_bracket(self, free_ev):
        bc = BoundaryCondition.dirichlet()
        with pytest.raises(ValueError):
            refine_root(free_ev, bc, (3.3, 3.5))


class TestScan:
    def test_free_dirichlet_spectrum(self, free_ev):
        bc = BoundaryCondition.dirichlet()
        recs = scan_eigenvalues(free_ev, bc, -33.0, 33.0)
        assert len(recs) == 21
        for rec in recs:
            assert abs(rec.lam - rec.index * np.pi) < 1e-10
        assert [r.index for r in recs] == list(range(-10, 11))

    def test_indexing_without_nonnegative(self, free_ev):
        bc = BoundaryCondition.dirichlet()
        recs = scan_eigenvalues(free_ev, bc, -10.0, -1.0)
        assert [r.index for r in recs] == [-3, -2, -1]
        assert recs[-1].lam == pytest.approx(-np.pi, abs=1e-10)

    def test_constant_potential_vs_oracle_roots(self, const_ev):
        bc = BoundaryCondition.dirichlet()
        recs = scan_eigenvalues(const_ev, bc, -20.0, 20.0)

        def oracle_char(lam):
            return const_q_solution(0.0, 1.0, lam, 1.0)[0, 1].real

        grid = np.linspace(-20, 20, 801)
        vals = [oracle_char(l) for l in grid]
        roots = []
        for i in range(len(grid) - 1):
            if np.sign(vals[i]) != np.sign(vals[i + 1]):
                r = optimize.brentq(oracle_char, grid[i], grid[i + 1], xtol=1e-13)
                if not roots or abs(r - roots[-1]) > 1e-9:
                    roots.append(r)
        assert len(recs) == len(roots)
        for rec, ref in zip(recs, roots):
            assert abs(rec.lam - ref) < 1e-8

    def test_count_stable_under_refinement(self):
        bc = BoundaryCondition.dirichlet()
        ev1 = make_ev(lambda x: 0.3 * x, lambda x: np.cos(x), M=500, N=10)
        ev2 = make_ev(lambda x: 0.3 * x, lambda x: np.cos(x), M=1000, N=18)
        r1 = scan_eigenvalues(ev1, bc, -25.0, 25.0)
        r2 = scan_eigenvalues(ev2, bc, -25.0, 25.0)
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            assert abs(a.lam - b.lam) < 1e-7

    def test_records_sorted_and_tolerances(self, const_ev):
        bc = BoundaryCondition.dirichlet()
        recs = scan_eigenvalues(const_ev, bc, -10.0, 10.0)
        lams = [r.lam for r in recs]
        assert lams == sorted(lams)
        assert all(np.isfinite(r.residual) for r in recs)
        assert all(r.converged for r in recs)

    def test_lockstep_scan_matches_single_refinement(self, const_ev):
        # the scan refines every bracket of its grid in lockstep; each
        # record must equal refine_root run on its bracket alone
        bc = BoundaryCondition.dirichlet()
        lo, hi, step = -29.9, 30.0, 0.25  # no grid node on the root 0
        recs = scan_eigenvalues(const_ev, bc, lo, hi, ScanOptions(step=step))
        grid = np.linspace(lo, hi, int(np.ceil((hi - lo) / step)) + 1)
        vals = char_function(const_ev, bc, grid)[0].real
        brackets = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
        alone = [refine_root(const_ev, bc, (grid[i], grid[i + 1])) for i in brackets]
        assert len(recs) == len(alone) == 19
        for rec, ref in zip(recs, alone):
            assert ref.converged and rec.converged
            assert abs(rec.lam - ref.lam) <= 1e-12 * max(1.0, abs(ref.lam))

    def test_unconverged_bracket_warns_and_is_kept(self, free_ev):
        bc = BoundaryCondition.dirichlet()
        with pytest.warns(RuntimeWarning, match="did not converge"):
            recs = scan_eigenvalues(free_ev, bc, -33.0, 33.0, ScanOptions(max_iter=1))
        assert [r.index for r in recs] == list(range(-10, 11))
        assert not all(r.converged for r in recs)

    def test_lambda_dependent_blocks_secant_path(self, free_ev):
        # y1(0) = 0, y1(b) + lambda y2(b) = 0: Delta = -sin l + l cos l;
        # lambda-dependent blocks give no slope -> false-position steps
        bc = BoundaryCondition(
            left=lambda lam: np.array([[1.0, 0.0], [0.0, 0.0]]),
            right=lambda lam: np.array([[0.0, 0.0], [1.0, lam]]),
        )
        recs = scan_eigenvalues(free_ev, bc, 1.0, 12.0)

        def exact(lam):
            return -np.sin(lam) + lam * np.cos(lam)

        lams = np.array([[2.0, 5.0], [-3.0, 9.5]])
        delta, slope = char_function(free_ev, bc, lams)
        assert slope is None
        np.testing.assert_allclose(delta, exact(lams), atol=1e-11)

        # roots of tan(lam) = lam inside (1, 12)
        refs = [
            optimize.brentq(exact, a, b, xtol=1e-13)
            for a, b in ((4.3, 4.7), (7.5, 7.9), (10.7, 11.1))
        ]
        assert len(recs) == len(refs)
        for rec, ref in zip(recs, refs):
            assert abs(rec.lam - ref) < 1e-9

    def test_self_adjoint_violation_diagnosed(self):
        ev = make_ev(lambda x: 1j * x, lambda x: 0 * x, M=200, N=8)
        bc = BoundaryCondition(
            left=np.array([[1.0, 0.0], [0.0, 0.0]]),
            right=np.array([[0.0, 0.0], [1.0, 0.0]]),
            self_adjoint=True,
        )
        with pytest.raises(ArithmeticError):
            scan_eigenvalues(ev, bc, -5.0, 5.0)

    def test_empty_window_warns(self, free_ev):
        bc = BoundaryCondition.dirichlet()
        with pytest.warns(UserWarning):
            recs = scan_eigenvalues(free_ev, bc, 0.5, 2.5)
        assert recs == []


class TestGauge:
    def test_rotation_matrix(self):
        R = rotation(0.3)
        np.testing.assert_allclose(R @ R.T, np.eye(2), atol=1e-15)
        assert R[0, 0] == pytest.approx(np.cos(0.3))

    def test_consistent_angle_has_tiny_defect(self):
        g = Grid(1.0, 200)
        _, defect = diagonal_to_canonical(
            g, lambda x: -x, lambda x: 1.0 + 0 * x, lambda x: x * (x - 2) / 4
        )
        assert defect < 1e-8

    def test_wrong_angle_flagged(self):
        g = Grid(1.0, 200)
        _, defect = diagonal_to_canonical(
            g, lambda x: -x, lambda x: 1.0 + 0 * x, lambda x: x * x
        )
        assert defect > 1e-2

    def test_benchmark_spectrum_matches_original_problem(self):
        # diagonal system B Z' + diag(-x, 1) Z = lam Z, z1(0) = z1(1) = 0,
        # transformed to canonical form; eigenvalues must be invariant
        g = Grid(1.0, 1000)
        Q, defect = diagonal_to_canonical(
            g, lambda x: -x, lambda x: 1.0 + 0 * x, lambda x: x * (x - 2) / 4
        )
        assert defect < 1e-8
        hom = fundamental_solution_zero(Q)
        ev = build_evaluator(build_coefficients(Q, hom, 14))
        left, right = rotate_boundary_blocks(
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [1.0, 0.0]]),
            0.0,
            -0.25,
        )
        bc = BoundaryCondition(left=left, right=right, self_adjoint=True)
        recs = scan_eigenvalues(ev, bc, -12.0, 12.0)
        refs = airy_spectrum(-12.0, 12.0)
        assert len(recs) == len(refs)
        for rec, ref in zip(recs, refs):
            assert abs(rec.lam - ref) < 1e-7
