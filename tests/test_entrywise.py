"""The coefficient build, written entry by entry on contiguous vectors,
against its stacked (n, 2, 2) form (tests/oracles.py), bit for bit; so are
the automatic truncation, which adds each order's residual once, against
its per-probe form, and the 2x2 norm against its reduction-scale form.

Every quantity is compared as the uint64 bit patterns of its floats, so a
zero of the other sign counts as a difference too.
"""

import numpy as np
import pytest

from diracnsbf import dirac, kernel
from diracnsbf.dirac import HomogeneousSolution, Potential, fundamental_solution_zero
from diracnsbf.gauge import diagonal_to_canonical
from diracnsbf.grid import Grid
from diracnsbf.kernel import auto_truncation, build_coefficients, goursat_residuals

import oracles

# M = 2000 puts nodes below the guard fraction (x < 1e-3), and N = 24
# reaches the sanitized orders (n >= 4) up to their cap
M, N = 2000, 24

# p and q of each problem; "gauge" is built from its diagonal form
POTENTIALS = {
    "trig": (lambda x: np.sin(np.pi * x), lambda x: np.cos(np.pi * x)),
    "complex-sin": (lambda x: np.sin(3 * x) + 0.5j * x, lambda x: 1 + x),
    "complex-exp": (lambda x: np.exp(1j * x), lambda x: 0.5 + 0 * x),
    # the solve-sweep problem
    "constant": (lambda x: 0.3 + 0 * x, lambda x: 1.0 + 0 * x),
    # every entry is a zero, so only the signs of the zeros can differ
    "zero": (lambda x: 0 * x, lambda x: 0 * x),
}


def bits(a):
    """The bit patterns of a float64 or complex128 array, as uint64."""
    a = np.ascontiguousarray(a)
    return (a.view(np.float64) if np.iscomplexobj(a) else a).view(np.uint64)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(bits(got), bits(want))


@pytest.fixture(scope="module", params=[*POTENTIALS, "gauge"])
def problem(request):
    g = Grid(1.0, M)
    if request.param == "gauge":
        Q, _ = diagonal_to_canonical(
            g, lambda x: -x, lambda x: 1.0 + 0 * x, lambda x: x * (x - 2) / 4
        )
    else:
        Q = Potential.from_functions(g, *POTENTIALS[request.param])
    assert Q.p.dtype == (np.complex128 if "complex" in request.param else np.float64)
    return Q, fundamental_solution_zero(Q)


def test_step_maps(problem):
    Q, _ = problem
    g, substeps = Q.grid, dirac._SUBSTEPS
    p, q = Q.values_at(np.linspace(0.0, g.b, 2 * g.M * substeps + 1))
    D = dirac._rk4_step_maps(p, q, g.h / substeps)
    assert_same_bits(D.transpose(2, 0, 1), oracles.stacked_step_maps(Q, substeps))


def test_propagator(problem):
    Q, hom = problem
    U, Uinv = oracles.stacked_propagator(Q, dirac._SUBSTEPS)
    assert_same_bits(hom.U, U)
    assert_same_bits(hom.Uinv, Uinv)
    ref = HomogeneousSolution(grid=Q.grid, U=U, Uinv=Uinv)
    assert_same_bits(hom.det_defect, ref.det_defect)


def test_apply_S_node_major_input(problem):
    # the recursion passes H as a view of entry-major memory; any layout
    # gives the same bits
    Q, hom = problem
    rng = np.random.default_rng(7)
    H = rng.standard_normal((Q.grid.size, 2, 2))
    if np.iscomplexobj(hom.U):
        H = H + 1j * rng.standard_normal(H.shape)
    assert_same_bits(dirac.apply_S(H, hom), oracles.stacked_apply_S(H, hom))


def test_coefficients_and_residuals(problem):
    Q, hom = problem
    fam = build_coefficients(Q, hom, N)
    ref = kernel._finalize(Q, oracles.stacked_recurse(Q, hom, N))
    assert_same_bits(fam.K, ref.K)
    res, res_ref = goursat_residuals(fam), goursat_residuals(ref)
    for name in ("sup_Q", "sup_0", "sup_Q_outer", "sup_0_outer"):
        assert_same_bits(getattr(res, name), getattr(res_ref, name))


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_auto_truncation(problem, monkeypatch, tol):
    Q, hom = problem
    fam, report = auto_truncation(Q, hom, tol)
    monkeypatch.setattr(kernel, "_recurse", oracles.stacked_recurse)
    fam_ref, report_ref = auto_truncation(Q, hom, tol)
    assert (report.converged, report.N) == (report_ref.converged, report_ref.N)
    assert_same_bits(np.array(report.probes), np.array(report_ref.probes))
    assert_same_bits(fam.K, fam_ref.K)


@pytest.mark.parametrize("tol, N_max", [(1e-8, 128), (1e-12, 128), (1e-14, 24), (1e-30, 12)])
def test_auto_truncation_matches_per_probe_form(problem, tol, N_max):
    Q, hom = problem
    fam, report = auto_truncation(Q, hom, tol, N_max)
    fam_ref, report_ref = oracles.per_probe_auto_truncation(Q, hom, tol, N_max)
    if tol == 1e-30:  # only the zero potential meets it
        assert report.converged == (not np.any(Q.matrices))
    assert (report.converged, report.N, fam.N) == (
        report_ref.converged,
        report_ref.N,
        fam_ref.N,
    )
    assert_same_bits(np.array(report.probes), np.array(report_ref.probes))
    assert_same_bits(fam.K, fam_ref.K)


def norm_batches():
    rng = np.random.default_rng(15)
    real = rng.standard_normal((3001, 2, 2))
    cplx = real + 1j * rng.standard_normal(real.shape)
    signed = np.where(rng.random(real.shape) < 0.3, -0.0, real)
    return {
        "real": real,
        "complex": cplx,
        "zero": np.zeros((5, 2, 2)),
        "complex-zero": np.zeros((5, 2, 2), dtype=complex),
        "-0": np.full((5, 2, 2), -0.0),
        "complex-0": np.full((5, 2, 2), complex(-0.0, -0.0)),
        "signed-zeros": signed,
        "complex-signed-zeros": signed + 1j * signed[::-1],
        "1e300": 1e300 * cplx,
        "1e-300": 1e-300 * cplx,
        "real-1e300": 1e300 * real,
        "real-1e-300": 1e-300 * real,
        "leading-shape": cplx[:77].reshape(7, 11, 2, 2),
    }


@pytest.mark.parametrize("name", list(norm_batches()))
def test_matrix_norm_matches_reduction_form(name):
    a = norm_batches()[name]
    assert_same_bits(dirac.matrix_norm(a), oracles.reduction_matrix_norm(a))


def test_matrix_norm_lift_leaves_other_matrices_alone():
    # one matrix below 1/DBL_MAX sends the batch through the lift; every
    # other matrix keeps the bits of the reduction form
    a = norm_batches()["complex"].copy()
    a[17] = [[3e-309, 0.0], [0.0, 5e-324]]
    got = dirac.matrix_norm(a)
    assert got[17] == 3e-309
    keep = np.arange(len(a)) != 17
    assert_same_bits(got[keep], oracles.reduction_matrix_norm(a[keep]))
