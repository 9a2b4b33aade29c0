"""Independent checks of the CLI's output files.

Nothing here imports `diracnsbf`.  Each check reads one round's output
files and compares them with a reference built on different mathematics,
using scipy:

* gauge-spectrum: the diagonal-potential problem reduces to an Airy
  equation, so its eigenvalues are roots of a closed-form shooting
  function, found by a sign scan plus `brentq`;
* solve-sweep: for constant p, q the fundamental matrix is the exponential
  exp(x(-lambda B + B Q)) of a trace-free 2x2 matrix, in closed form;
* kernel-fine: U(lambda, b) is rebuilt from the coefficient CSV with
  `scipy.special.spherical_jn` and compared with a DOP853 integration of
  U' = B(Q - lambda) U; I + 2 C_0(b) is compared with U(0, b).

Every eigenvalue, lambda or check point is one operation; a check returns
(attempted, failed, worst error) for one round.  A malformed file raises
`CheckError`.
"""

import numpy as np
from scipy import integrate, optimize, special

B = np.array([[0.0, 1.0], [-1.0, 0.0]])
I2 = np.eye(2)


class CheckError(Exception):
    pass


def _read_csv(path, header, columns):
    try:
        with open(path) as fh:
            if fh.readline().strip() != header:
                raise CheckError("%s: header is not %r" % (path, header))
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckError("%s: %s" % (path, exc))
    if rows.shape[1] != columns:
        raise CheckError("%s: %d columns, expected %d" % (path, rows.shape[1], columns))
    return rows


# -- gauge-spectrum ---------------------------------------------------------

GAUGE_WINDOW = (-331.0, 423.0)
GAUGE_INDICES = (-105, 134)
GAUGE_TOL = 1e-6  # every eigenvalue
GAUGE_TOL_HIGH = 1e-10  # |index| >= GAUGE_HIGH_INDEX
GAUGE_HIGH_INDEX = 50


def _airy_shoot(lam):
    """z1(1) for z1(0) = 0, z1'(0) = 1 of z1'' = (1 - lam)(lam + x) z1, up
    to a nonzero factor; at lam = 1 the elimination degenerates."""
    s = np.cbrt(1.0 - lam)
    ai0, _, bi0, _ = special.airy(s * lam)
    ai1, _, bi1, _ = special.airy(s * (1.0 + lam))
    return (ai0 * bi1 - bi0 * ai1) / s


def gauge_reference():
    """Eigenvalues of B Z' + diag(-x, 1) Z = lambda Z, z1(0) = z1(1) = 0 in
    the gauge window, keyed by index (0 = smallest nonnegative)."""
    lo, hi = GAUGE_WINDOW
    grid = np.arange(lo, hi + 0.05, 0.05)
    grid = grid[np.abs(grid - 1.0) > 1e-6]
    vals = _airy_shoot(grid)
    roots = [
        optimize.brentq(_airy_shoot, a, b, xtol=1e-13, rtol=8.9e-16)
        for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:])
        if np.sign(fa) != np.sign(fb)
    ]
    # lam = 1 is an eigenvalue of the first-order system, (0, 1)^T
    roots = np.array(sorted(roots + [1.0]))
    anchor = int(np.argmax(roots >= 0.0))
    ref = {k - anchor: lam for k, lam in enumerate(roots) if lo <= lam <= hi}
    if sorted(ref) != list(range(GAUGE_INDICES[0], GAUGE_INDICES[1] + 1)):
        raise CheckError("Airy reference found indices %d..%d (%d roots)" % (min(ref), max(ref), len(ref)))
    return ref


def check_spectrum(directory, ref):
    rows = _read_csv(directory / "bench_eigs.csv", "index,lambda,residual,iterations", 4)
    got = {}
    for index, lam, _, _ in rows:
        got.setdefault(int(index), []).append(lam)
    attempted = failed = 0
    worst = 0.0
    for index in sorted(set(ref) | set(got)):
        lams = got.get(index, [])
        attempted += max(1, len(lams))
        if index not in ref or len(lams) != 1:
            failed += max(1, len(lams))  # missing, extra or duplicate
            continue
        err = abs(lams[0] - ref[index])
        worst = max(worst, err)
        if err > (GAUGE_TOL_HIGH if abs(index) >= GAUGE_HIGH_INDEX else GAUGE_TOL):
            failed += 1
    return attempted, failed, worst


# -- solve-sweep ------------------------------------------------------------

SOLVE_TOL = 1e-8
SOLVE_C = np.array([1.0, 0.0])
SOLVE_NODES = np.linspace(0.0, 1.0, 2001)


def _sinhc(w):
    small = np.abs(w) < 1e-4
    safe = np.where(small, 1.0, w)
    return np.where(small, 1.0 + w**2 / 6.0 + w**4 / 120.0, np.sinh(safe) / safe)


def constant_solution(p, q, lam, x):
    """exp(x C) c for C = -lam B + B Q, trace-free: cosh(mu x) I + x sinhc(mu x) C."""
    Q = np.array([[p, q], [q, -p]])
    C = -lam * B + B @ Q
    mu = np.sqrt(-(C[0, 0] * C[1, 1] - C[0, 1] * C[1, 0]) + 0j)
    w = mu * x
    E = np.cosh(w)[:, None, None] * I2 + (x * _sinhc(w))[:, None, None] * C
    return E @ SOLVE_C


def check_solutions(directory, lambdas, p, q):
    failed, worst = 0, 0.0
    for k, lam in enumerate(lambdas):
        path = directory / ("bench_solution_%03d.csv" % k)
        try:
            rows = _read_csv(path, "x,re_y1,im_y1,re_y2,im_y2,residual", 6)
        except CheckError:
            failed += 1
            continue
        x = rows[:, 0]
        if len(x) != len(SOLVE_NODES) or np.max(np.abs(x - SOLVE_NODES)) > 1e-12:
            failed += 1
            continue
        Y = np.stack([rows[:, 1] + 1j * rows[:, 2], rows[:, 3] + 1j * rows[:, 4]], axis=1)
        err = float(np.max(np.abs(Y - constant_solution(p, q, lam, x))))
        worst = max(worst, err)
        failed += not err <= SOLVE_TOL
    return len(lambdas), failed, worst


# -- kernel-fine ------------------------------------------------------------

KERNEL_N = 64
KERNEL_NODES = 10001
KERNEL_LAMBDAS = (0.0, 3.0, 25.0, 150.0, 400.0)
KERNEL_TOL = 1e-10


def integrate_U(lam, b=1.0):
    """U(lam, b) for p = sin(pi x), q = cos(pi x) by DOP853 at rtol 1e-13."""

    def rhs(x, u):
        p, q = np.sin(np.pi * x), np.cos(np.pi * x)
        A = B @ np.array([[p - lam, q], [q, -p - lam]])
        return (A @ u.reshape(2, 2)).ravel()

    sol = integrate.solve_ivp(rhs, (0.0, b), I2.ravel(), method="DOP853", rtol=1e-13, atol=1e-15)
    if not sol.success:
        raise CheckError("DOP853 failed at lambda=%g: %s" % (lam, sol.message))
    return sol.y[:, -1].reshape(2, 2)


def kernel_reference():
    return {lam: integrate_U(lam) for lam in KERNEL_LAMBDAS}


def series_U(C, lam, b=1.0):
    """U0(lam, b) + sum_n Kt_n(b) j_n(lam b) from C_0(b)..C_N(b), with the
    folded coefficients Kt_n = 2 (-1)^(n/2) C_n (n even) and
    2 (-1)^((n+1)/2) C_n B (n odd)."""
    z = lam * b
    U = np.cos(z) * I2 - np.sin(z) * B
    for n, Cn in enumerate(C):
        Kt = 2.0 * (-1.0) ** (n // 2) * Cn if n % 2 == 0 else 2.0 * (-1.0) ** ((n + 1) // 2) * Cn @ B
        U = U + Kt * special.spherical_jn(n, z)
    return U


def check_coefficients(directory, ref):
    rows = _read_csv(
        directory / "bench_coeffs.csv", "n,x,re11,im11,re12,im12,re21,im21,re22,im22", 10
    )
    orders = np.arange(-1, KERNEL_N + 1)
    if rows.shape[0] != len(orders) * KERNEL_NODES or np.any(
        rows[:, 0] != np.repeat(orders, KERNEL_NODES)
    ):
        raise CheckError("coefficient file does not hold orders -1..%d on %d nodes" % (KERNEL_N, KERNEL_NODES))
    at_b = rows[KERNEL_NODES - 1 :: KERNEL_NODES]  # the x = b row of each order
    if np.any(np.abs(at_b[:, 1] - 1.0) > 1e-12):
        raise CheckError("last node of an order is not x = b")
    C = (at_b[:, 2::2] + 1j * at_b[:, 3::2]).reshape(-1, 2, 2)[1:]  # drop order -1
    errors = [float(np.max(np.abs(series_U(C, lam) - U))) for lam, U in ref.items()]
    errors.append(float(np.max(np.abs(I2 + 2.0 * C[0] - ref[0.0]))))
    failed = sum(not e <= KERNEL_TOL for e in errors)
    return len(errors), failed, max(errors)


def round_check(name, inputs):
    """The check of one round's output directory for a workload, and the
    number of operations a round holds."""
    if name == "gauge-spectrum":
        ref = gauge_reference()
        return (lambda d: check_spectrum(d, ref)), len(ref)
    if name == "kernel-fine":
        ref = kernel_reference()
        return (lambda d: check_coefficients(d, ref)), len(ref) + 1
    lams = inputs["lambdas"]
    return (lambda d: check_solutions(d, lams, inputs["p"], inputs["q"])), len(lams)
