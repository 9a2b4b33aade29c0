"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (visible with pytest -s) after its
assertions; a failing criterion fails the corresponding test.  Criteria
with stated runtime budgets time their own builds.
"""

import time

import numpy as np
import pytest

from diracnsbf.dirac import Potential, free_solution, fundamental_solution_zero
from diracnsbf.gauge import diagonal_to_canonical, rotate_boundary_blocks
from diracnsbf.grid import Grid
from diracnsbf.kernel import build_coefficients, goursat_residuals
from diracnsbf.solution import evaluate_U
from diracnsbf.spectral import BoundaryCondition, scan_eigenvalues
from diracnsbf.zs import ZsPotential, evaluate_Z

from formal_powers import (
    build_formal_powers,
    build_particular_solution,
    kernel_coeffs_via_mapping,
    legendre_monomial_coeffs,
)
from oracles import (
    airy_spectrum,
    central_dlambda,
    const_q_solution,
    zs_coefficients,
    zs_const_solution,
    zs_ode_residual,
    zs_potential,
)

M_STD = 2000


def report(num, text):
    print("ACCEPTANCE criterion %d: PASS  %s" % (num, text))


@pytest.fixture(scope="module")
def trig_problem():
    g = Grid(1.0, M_STD)
    Q = Potential.from_functions(
        g, lambda x: np.sin(np.pi * x), lambda x: np.cos(np.pi * x)
    )
    hom = fundamental_solution_zero(Q)
    fam16 = build_coefficients(Q, hom, 16)
    return g, Q, hom, fam16


def test_criterion_01_benchmark_eigenvalue_regression():
    # 240 eigenvalues, indices -105..134, N=16, M=2000; ground truth from
    # the independent closed-form (Airy) shooting of the original
    # diagonal-potential problem, bisection-refined to 1e-13
    t0 = time.perf_counter()
    g = Grid(1.0, M_STD)
    Q, defect = diagonal_to_canonical(
        g, lambda x: -x, lambda x: 1.0 + 0 * x, lambda x: x * (x - 2) / 4
    )
    assert defect < 1e-8
    hom = fundamental_solution_zero(Q)
    ev = build_coefficients(Q, hom, 16)
    left, right = rotate_boundary_blocks(
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        0.0,
        -0.25,
    )
    bc = BoundaryCondition(left=left, right=right)
    eigs = scan_eigenvalues(ev, bc, -331.0, 423.0)
    refs = airy_spectrum(-331.0, 423.0, scan_step=0.1)
    elapsed = time.perf_counter() - t0
    assert eigs.lam.size == 240
    assert eigs.index.tolist() == list(range(-105, 135))
    assert len(refs) == 240
    errs = np.abs(eigs.lam - refs)
    assert errs.max() <= 1e-6
    assert errs[np.abs(eigs.index) >= 50].max() <= 1e-10
    assert elapsed <= 60.0
    report(
        1,
        "240 eigenvalues (indices -105..134), max err %.2e, "
        "high-index err %.2e, %.1fs"
        % (errs.max(), errs[np.abs(eigs.index) >= 50].max(), elapsed),
    )


@pytest.fixture(scope="module")
def const_sweep():
    t0 = time.perf_counter()
    g = Grid(1.0, M_STD)
    Q = Potential.constant(g, 0.0, 1.0)
    hom = fundamental_solution_zero(Q)
    ev = build_coefficients(Q, hom, 20)
    per_lam = {}
    for lam in range(-100, 101):
        U = evaluate_U(ev, float(lam), g.nodes)
        ref = const_q_solution(0.0, 1.0, float(lam), g.nodes)
        per_lam[lam] = float(np.max(np.abs(U - ref)))
    return per_lam, time.perf_counter() - t0


def test_criterion_02_constant_potential_oracle(const_sweep):
    per_lam, elapsed = const_sweep
    worst = max(per_lam.values())
    assert worst <= 1e-8
    assert elapsed <= 10.0
    report(2, "sup error %.2e over 201 lambdas x all nodes, %.1fs" % (worst, elapsed))


def test_criterion_03_uniformity_in_lambda(const_sweep):
    per_lam, _ = const_sweep
    small = max(v for k, v in per_lam.items() if abs(k) <= 10)
    large = max(v for k, v in per_lam.items() if abs(k) >= 90)
    ratio = max(small, large) / min(small, large)
    assert ratio < 10.0
    report(3, "band error ratio %.2f (|l|<=10: %.2e, |l|>=90: %.2e)" % (ratio, small, large))


# Double-precision floor of the recursion-vs-mapping comparison, per
# order n = 0..8 in grid L2 at M = 2000.  The two routes agree to a flat
# per-node difference that is potential-independent (measured identical
# for the constant, polynomial and trigonometric cases) and M-invariant
# per node, i.e. accumulated rounding of the iterated quadratures plus
# the monomial-assembly cancellation, not a convergent error.  Values are
# 4x the measured profile; any structural defect (sign slip, wrong
# recursion term) overshoots them by several orders.
_MAPPING_FLOOR = np.array(
    [1.5e-12, 1.0e-11, 4.6e-11, 2.0e-10, 4.5e-10, 7.5e-10, 1.2e-9, 1.9e-9, 2.8e-9]
)


def test_criterion_04_recursion_vs_mapping():
    # three smooth potentials; agreement per order n = 0..8 relative to
    # ||C_n|| where that sits above the double-precision floor of the
    # comparison, and to the family scale unconditionally
    t0 = time.perf_counter()
    table = legendre_monomial_coeffs(8)
    worst_ratio = 0.0
    for name, pf, qf in (
        ("constant", lambda x: 0 * x, lambda x: 1 + 0 * x),
        ("polynomial", lambda x: x, lambda x: x),
        ("trigonometric", lambda x: np.sin(np.pi * x), lambda x: np.cos(np.pi * x)),
    ):
        g = Grid(1.0, M_STD)
        Q = Potential.from_functions(g, pf, qf)
        hom = fundamental_solution_zero(Q)
        fam = build_coefficients(Q, hom, 8)
        ps = build_particular_solution(Q, hom)
        fp = build_formal_powers(ps, Q, 8)
        family = max(np.sqrt(np.sum(np.abs(fam.coeff(m)) ** 2)) for m in range(9))
        for n in range(9):
            ref = fam.coeff(n)
            alt = kernel_coeffs_via_mapping(fp, ps, n, table)
            num = np.sqrt(np.sum(np.abs(alt - ref) ** 2))
            den = np.sqrt(np.sum(np.abs(ref) ** 2))
            gate = max(1e-8 * den, _MAPPING_FLOOR[n])
            assert num <= gate, (name, n, num, den)
            assert num <= 1e-8 * family, (name, n)
            worst_ratio = max(worst_ratio, num / gate)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 20.0
    report(4, "three potentials, n = 0..8, worst margin ratio %.2f, %.1fs" % (worst_ratio, elapsed))


def test_criterion_05_free_potential_exactness():
    g = Grid(1.0, M_STD)
    Q = Potential.zero(g)
    hom = fundamental_solution_zero(Q)
    fam = build_coefficients(Q, hom, 16)
    assert np.max(np.abs(fam.K)) <= 1e-13
    ev = fam
    worst_u = 0.0
    for lam in (0.0, 1.0, 17.3, -40.0):
        U = evaluate_U(ev, lam, g.nodes)
        worst_u = max(worst_u, float(np.max(np.abs(U - free_solution(lam, g.nodes)))))
    assert worst_u <= 1e-13
    bc = BoundaryCondition.dirichlet()
    eigs = scan_eigenvalues(ev, bc, -20.5 * np.pi, 20.5 * np.pi)
    assert eigs.lam.size == 41
    worst_root = np.max(np.abs(eigs.lam - eigs.index * np.pi))
    assert worst_root <= 1e-10
    report(
        5,
        "coefficients %.1e, series error %.1e, 41 Dirichlet roots within %.1e"
        % (np.max(np.abs(fam.K)), worst_u, worst_root),
    )


def test_criterion_06_lambda_zero_closure(trig_problem):
    worst = 0.0
    cases = [
        ("trigonometric", trig_problem[3]),
    ]
    g = Grid(1.0, M_STD)
    for name, pf, qf in (
        ("constant", lambda x: 0 * x, lambda x: 1 + 0 * x),
        ("polynomial", lambda x: x, lambda x: x),
    ):
        Q = Potential.from_functions(g, pf, qf)
        hom = fundamental_solution_zero(Q)
        cases.append((name, build_coefficients(Q, hom, 12)))
    Qb, _ = diagonal_to_canonical(
        g, lambda x: -x, lambda x: 1.0 + 0 * x, lambda x: x * (x - 2) / 4
    )
    cases.append(
        ("benchmark", build_coefficients(Qb, fundamental_solution_zero(Qb), 12))
    )
    for name, fam in cases:
        ev = fam
        U0 = evaluate_U(ev, 0.0, g.nodes)
        U_ref = fundamental_solution_zero(fam.potential).U
        gap = float(np.max(np.abs(U0 - U_ref)))
        assert gap <= 1e-12, name
        worst = max(worst, gap)
    report(6, "identity U^N(0, x) = U(0, x) within %.1e on %d potentials" % (worst, len(cases)))


def test_criterion_07_goursat_residual_decay(trig_problem):
    g, Q, hom, fam16 = trig_problem
    res4 = goursat_residuals(build_coefficients(Q, hom, 4))
    res16 = goursat_residuals(fam16)
    assert res16.sup_Q <= 1e-3 * res4.sup_Q
    assert res16.sup_0 <= 1e-3 * res4.sup_0
    report(
        7,
        "sup delta_Q %.2e -> %.2e, sup delta_0 %.2e -> %.2e (N=4 -> 16)"
        % (res4.sup_Q, res16.sup_Q, res4.sup_0, res16.sup_0),
    )


def test_criterion_08_lambda_derivative(trig_problem):
    _, _, _, fam16 = trig_problem
    ev = fam16
    rng = np.random.default_rng(2026)
    pts = [(float(rng.uniform(-20, 20)), float(rng.uniform(0.05, 1.0))) for _ in range(19)]
    pts.append((0.0, 0.8))
    worst = 0.0
    for lam, x in pts:
        dU = evaluate_U(ev, lam, x, derivative=True)[1]
        fd = central_dlambda(lambda t: evaluate_U(ev, t, x), lam, h=1e-5)
        worst = max(worst, float(np.max(np.abs(dU - fd))))
    assert worst <= 1e-6
    report(8, "max |dU - central difference| = %.2e over 20 points incl lambda=0" % worst)


def test_criterion_09_zs_akns_consistency():
    g = Grid(1.0, M_STD)
    zev_const = zs_coefficients(ZsPotential(g, np.full(g.size, 0.5)), 16)
    worst_resid = 0.0
    for lam in (0.7, 3.0):
        worst_resid = max(worst_resid, zs_ode_residual(zev_const, lam))
    zev_smooth = zs_coefficients(
        zs_potential(g, lambda x: (0.3 + 0.4j) * np.sin(np.pi * x)), 16
    )
    for lam in (0.7, 3.0, 10.0):
        worst_resid = max(worst_resid, zs_ode_residual(zev_smooth, lam))
    assert worst_resid <= 1e-6
    oracle_gap = float(
        np.max(np.abs(evaluate_Z(zev_const, 3.0, 1.0) - zs_const_solution(0.5, 3.0, 1.0)))
    )
    assert oracle_gap <= 1e-8
    report(
        9,
        "ZS ODE residual %.2e (both potentials), constant-nu oracle gap %.2e"
        % (worst_resid, oracle_gap),
    )


def test_criterion_10_coefficient_decay(trig_problem):
    _, _, _, fam16 = trig_problem
    peak4 = float(np.max(np.abs(fam16.coeff(4))))
    peak16 = float(np.max(np.abs(fam16.coeff(16))))
    assert peak16 <= 1e-3 * peak4
    report(10, "max|C_16| / max|C_4| = %.2e" % (peak16 / peak4))
