"""Batch command-line front end.

Commands
--------
kernel    build the kernel coefficients, dump them as CSV, report the
          truncation residuals
solve     evaluate initial-value solutions for a list of spectral
          parameters, one CSV per lambda
spectrum  scan a real window for eigenvalues, write index/lambda CSV
validate  run the built-in consistency suite, nonzero exit on failure

Problems are described by a flat key=value config file (plus --set
overrides).  Recognized keys:

    b, M, N, tol, p_expr, q_expr, nu_expr, potential_file, gauge_phi,
    bc_left, bc_right, lambda_min, lambda_max, scan_step, out

Exactly one potential source must be present: p_expr+q_expr (expressions
in x), potential_file (CSV, either x,p_re,p_im,q_re,q_im or x,nu_re,nu_im
with nodes matching the active grid), or nu_expr (a ZS potential routed
through the canonical form).  With gauge_phi set, p_expr and q_expr are
reinterpreted as the diagonal entries m1, m2 of a system B Z' +
diag(m1, m2) Z = lambda Z, which is rotated to canonical form by the
angle expression gauge_phi; boundary blocks are rotated along.  A
potential that is not finite at some node (an expression, or a file cell
that is nan or not a number) is a config error naming the first such
node.  N is an integer or "auto" (tol-driven).  Every CSV value is written as exactly
Python's "%.17g" by the vectorized writer `csvfmt.format_tables`, which
formats each distinct column of a file once: a constant column (the order;
the imaginary parts of a real potential's kernel, which is built in float64,
so each reads 0 and never -0) as one text, a column equal to the previous
table's (the nodes) from kept cells.  Only non-finite, out-of-range and
near-tie values take a per-value "%".  Comma delimiters and LF line
endings; identical configs yield byte-identical files.
"""

import argparse
import ctypes
import functools
import hashlib
import os
import signal
import sys
import tempfile
import time
import traceback

import numpy as np

from . import dirac
from .csvfmt import format_tables
from .dirac import (
    Potential,
    dirac_residual_nodes,
    free_solution,
    fundamental_solution_zero,
)
from .exprparse import ParseError, evaluate, evaluate_on_grid, parse
from .gauge import diagonal_to_canonical, rotate_boundary_blocks
from .grid import Grid, indefinite_integral
from .kernel import (
    DEFAULT_TRUNCATION,
    KernelCoefficients,
    auto_truncation,
    build_coefficients,
    goursat_residuals,
)
from .solution import evaluate_U, solve_ivp
from .spectral import BoundaryCondition, scan_eigenvalues
from .zs import ZsPotential, zs_to_dirac

_KEYS = {
    "b",
    "M",
    "N",
    "tol",
    "p_expr",
    "q_expr",
    "nu_expr",
    "potential_file",
    "gauge_phi",
    "bc_left",
    "bc_right",
    "lambda_min",
    "lambda_max",
    "scan_step",
    "out",
}


@functools.cache
def _source_digest():
    """SHA-256 of every module of the package, by name and source in sorted
    order, read once per process: a code change rebuilds, never stale cache."""
    digest = hashlib.sha256()
    package = os.path.dirname(__file__)
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


class ConfigError(Exception):
    pass


def _key_value(item, where):
    """(key, value) of one key=value item; where prefixes the messages."""
    if "=" not in item:
        raise ConfigError("%s: expected key=value, got %r" % (where, item))
    key, value = (s.strip() for s in item.split("=", 1))
    if key not in _KEYS:
        raise ConfigError(
            "%s: unknown key %r (known: %s)" % (where, key, ", ".join(sorted(_KEYS)))
        )
    return key, value


def load_config(path):
    cfg = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    key, value = _key_value(line, "%s:%d" % (path, lineno))
                    cfg[key] = value
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    return cfg


def apply_overrides(cfg, sets):
    cfg.update(_key_value(item, "--set") for item in sets or [])
    return cfg


def _get_float(cfg, key, default=None, positive=False):
    if key not in cfg:
        if default is None:
            raise ConfigError("missing required key %r" % key)
        return default
    try:
        value = float(cfg[key])
    except ValueError:
        raise ConfigError("key %r must be a number, got %r" % (key, cfg[key]))
    if not np.isfinite(value):
        raise ConfigError("key %r must be finite, got %r" % (key, cfg[key]))
    if positive and value <= 0:
        raise ConfigError("%s must be positive, got %r" % (key, cfg[key]))
    return value


def _parse_constants(text, what, count=None):
    """The comma-separated constants of text, empty items skipped, as a
    list of complex; count, when given, is how many there must be."""
    vals = []
    for tok in (t.strip() for t in text.split(",")):
        if tok:
            try:
                vals.append(complex(evaluate(parse(tok))))
            except ValueError as exc:  # a ParseError is a ValueError
                raise ConfigError("bad %s %r: %s" % (what, tok, exc))
    if not vals or count not in (None, len(vals)):
        raise ConfigError(
            "%s needs %s values, got %d" % (what, count or "one or more", len(vals))
        )
    return vals


def _parse_expr(cfg, key, what):
    """The syntax tree of the expression cfg[key]."""
    try:
        return parse(cfg[key])
    except ParseError as exc:
        raise ConfigError("bad %s: %s" % (what, exc))


def _on_grid(tree, grid, key):
    """The expression's values on the nodes, all finite."""
    try:
        return evaluate_on_grid(tree, grid)
    except ArithmeticError as exc:
        raise ConfigError("%s: %s" % (key, exc))


def _read_potential_file(path, grid):
    try:
        with open(path) as fh:
            header = fh.readline().strip().lower().split(",")
            # a cell that is not a number reads as nan, caught below
            rows = np.genfromtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError("cannot read potential file: %s" % exc)
    except ValueError as exc:
        raise ConfigError("bad potential file: %s" % " ".join(str(exc).split()))
    if rows.shape[0] != grid.size:
        raise ConfigError(
            "potential file has %d rows; the active grid needs %d"
            % (rows.shape[0], grid.size)
        )
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigError(
            "potential file has a non-finite or non-numeric cell at node %d (x = %.17g)"
            % (i, grid.nodes[i])
        )
    if np.max(np.abs(rows[:, 0] - grid.nodes)) > 1e-12 * max(1.0, grid.b):
        raise ConfigError("potential file nodes do not match the active grid")
    if header == ["x", "p_re", "p_im", "q_re", "q_im"]:
        p = rows[:, 1] + 1j * rows[:, 2]
        q = rows[:, 3] + 1j * rows[:, 4]
        return Potential(grid, p, q)
    if header == ["x", "nu_re", "nu_im"]:
        return zs_to_dirac(ZsPotential(grid, rows[:, 1] + 1j * rows[:, 2]))
    raise ConfigError(
        "unrecognized potential file header %r" % ",".join(header)
    )


class Problem:
    """Validated config plus lazily built solver objects."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.b = _get_float(cfg, "b", 1.0)
        m = int(_get_float(cfg, "M", 2000.0))
        try:
            self.grid = Grid(self.b, m)
        except ValueError as exc:
            raise ConfigError(str(exc))
        self.tol = _get_float(cfg, "tol", 1e-10, positive=True)
        nspec = cfg.get("N", str(DEFAULT_TRUNCATION)).strip()
        if nspec == "auto":
            self.N = "auto"
        else:
            try:
                self.N = int(nspec)
            except ValueError:
                raise ConfigError("N must be an integer or 'auto', got %r" % nspec)
            if self.N < 0:
                raise ConfigError("N must be >= 0")
        self.out = cfg.get("out", "out")
        self.gauge_defect = None
        self._load_potential()
        self._load_boundary()

    def _load_potential(self):
        cfg = self.cfg
        sources = [
            "p_expr" in cfg or "q_expr" in cfg,
            "potential_file" in cfg,
            "nu_expr" in cfg,
        ]
        if sum(sources) != 1:
            raise ConfigError(
                "exactly one potential source required: p_expr+q_expr, "
                "potential_file, or nu_expr"
            )
        if "gauge_phi" in cfg and not sources[0]:
            raise ConfigError("gauge_phi needs p_expr/q_expr (the diagonal entries)")
        if sources[0]:
            if not ("p_expr" in cfg and "q_expr" in cfg):
                raise ConfigError("both p_expr and q_expr are required")
            p_tree = _parse_expr(cfg, "p_expr", "potential expression")
            q_tree = _parse_expr(cfg, "q_expr", "potential expression")
            p = _on_grid(p_tree, self.grid, "p_expr")
            q = _on_grid(q_tree, self.grid, "q_expr")
            if "gauge_phi" in cfg:
                phi_tree = _parse_expr(cfg, "gauge_phi", "gauge_phi")
                _on_grid(phi_tree, self.grid, "gauge_phi")
                self.potential, self.gauge_defect = diagonal_to_canonical(
                    self.grid,
                    lambda x: evaluate(p_tree, x),
                    lambda x: evaluate(q_tree, x),
                    lambda x: np.real(evaluate(phi_tree, x)),
                )
                self._phi_tree = phi_tree
            else:
                self.potential = Potential(
                    self.grid,
                    p,
                    q,
                    p_fn=lambda x: evaluate(p_tree, x),
                    q_fn=lambda x: evaluate(q_tree, x),
                )
        elif sources[1]:
            self.potential = _read_potential_file(cfg["potential_file"], self.grid)
        else:
            nu_tree = _parse_expr(cfg, "nu_expr", "nu_expr")
            zs = ZsPotential(
                self.grid,
                _on_grid(nu_tree, self.grid, "nu_expr"),
                nu_fn=lambda x: evaluate(nu_tree, x),
            )
            self.potential = zs_to_dirac(zs)

    def _load_boundary(self):
        cfg = self.cfg
        self.bc = None
        if "bc_left" in cfg or "bc_right" in cfg:
            if not ("bc_left" in cfg and "bc_right" in cfg):
                raise ConfigError("both bc_left and bc_right are required")
            left, right = (
                np.reshape(_parse_constants(cfg[key].replace(";", ","), key, 4), (2, 2))
                for key in ("bc_left", "bc_right")
            )
            if not (np.any(left) or np.any(right)):
                raise ConfigError("boundary blocks are both zero")
            if self.gauge_defect is not None:
                phi0 = float(np.real(evaluate(self._phi_tree, 0.0)))
                phib = float(np.real(evaluate(self._phi_tree, self.b)))
                left, right = rotate_boundary_blocks(left, right, phi0, phib)
            self.bc = BoundaryCondition(left=left, right=right)

    # -- coefficient cache ------------------------------------------------

    def _cache_token(self):
        cfg = self.cfg
        parts = [
            "source=%s" % _source_digest(),
            "b=%r" % self.b,
            "M=%d" % self.grid.M,
            "N=%r" % self.N,
        ]
        if self.N == "auto":
            parts.append("tol=%r" % self.tol)
        for key in ("p_expr", "q_expr", "nu_expr", "gauge_phi"):
            if key in cfg:
                parts.append("%s=%s" % (key, cfg[key]))
        if "potential_file" in cfg:
            with open(cfg["potential_file"], "rb") as fh:
                parts.append("file_sha=%s" % hashlib.sha256(fh.read()).hexdigest())
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:24]

    def _cache_path(self):
        base = os.path.dirname(self.out) or "."
        return os.path.join(base, ".nsbf_cache", self._cache_token() + ".npys")

    def _load_cached(self, path):
        """(coefficients, probes) from a cache file, or None when it cannot
        be read: it must hold K with the grid's shape and the potential's
        dtype, then a float64 (k, 3) probe table, and nothing after them."""
        try:
            with open(path, "rb") as fh:
                K = np.lib.format.read_array(fh, allow_pickle=False)
                if not fh.peek(1):
                    raise ValueError("no probes record after K")
                probes = np.lib.format.read_array(fh, allow_pickle=False)
                if fh.read(1):
                    raise ValueError("trailing bytes after the probes record")
            if K.shape[1:] != (self.grid.size, 2, 2) or len(K) < 2 or probes.shape[1:] != (3,):
                raise ValueError("array shapes do not match the grid")
            if (K.dtype, probes.dtype) != (self.potential.p.dtype, np.float64):
                raise ValueError("array dtypes do not match the potential and float64 probes")
        except (OSError, ValueError) as exc:
            print(
                "note: unreadable coefficient cache %s (%s); rebuilding" % (path, exc),
                file=sys.stderr,
            )
            return None
        return KernelCoefficients(potential=self.potential, K=K), probes

    def _store_cached(self, path, coeffs, probes):
        """Write K and the probe table as two raw .npy records to a temporary
        file, then move it in place; a failed write is a note, not an error."""
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                for array in (coeffs.K, probes):
                    np.lib.format.write_array(fh, array, allow_pickle=False)
            os.replace(tmp, path)
        except OSError as exc:
            print(
                "note: cannot write coefficient cache %s (%s); continuing without it"
                % (path, exc),
                file=sys.stderr,
            )
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)

    def _build(self):
        """(coefficients, probes) built afresh; probes holds the (N, sup
        delta_Q, sup delta_0) rows of auto-truncation, none for a fixed N."""
        hom = fundamental_solution_zero(self.potential)
        if self.N != "auto":
            return build_coefficients(self.potential, hom, self.N), np.empty((0, 3))
        return auto_truncation(self.potential, hom, self.tol)

    def coefficients(self):
        """(coefficients, probes), from the on-disk cache when unchanged: a
        cache hit returns what the build it stores returned."""
        t0 = time.perf_counter()
        path = self._cache_path()
        cached = self._load_cached(path) if os.path.exists(path) else None
        coeffs, probes = cached or self._build()
        if cached is None:
            self._store_cached(path, coeffs, probes)
        # the last probe misses tol exactly when auto-truncation did not converge
        if len(probes) and not probes[-1, 1:].max() <= self.tol:
            print(
                "warning: auto truncation missed tol=%g; using N=%d, the order "
                "with the smallest residual" % (self.tol, coeffs.N),
                file=sys.stderr,
            )
        dt = time.perf_counter() - t0
        print("coefficients: " + ("cache hit (%.3fs)" if cached else "built in %.3fs") % dt)
        return coeffs, probes


def _write_csv(path, header, tables):
    """Header plus the rows of 2-D float tables, each value as "%.17g"."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            for text in format_tables(tables):
                fh.write(text)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc))


def cmd_kernel(problem, args):
    coeffs, probes = problem.coefficients()
    grid = problem.grid
    path = problem.out + "_coeffs.csv"

    def tables():
        # row k of K holds order k - 1; one order is cast to complex at a time
        for k, mats in enumerate(coeffs.K):
            # (re, im) pairs of the entries 11, 12, 21, 22, in column order
            entries = np.asarray(mats, dtype=complex).reshape(grid.size, 4).view(float)
            yield np.column_stack((np.full(grid.size, k - 1, dtype=float), grid.nodes, entries))

    _write_csv(path, "n,x,re11,im11,re12,im12,re21,im21,re22,im22", tables())
    print("coefficients written to %s" % path)
    for N, sup_q, sup_0 in probes:
        print("%d,%.17g,%.17g" % (N, sup_q, sup_0))
    res = goursat_residuals(coeffs)
    print("%d,%.17g,%.17g" % (coeffs.N, res.sup_Q_outer, res.sup_0_outer))
    return 0


def _solve_share(problem, coeffs, c, share):
    """Solve and write the (index, lambda) pairs of share in order; the
    first failure as (index, message), or None."""
    for k, lam in share:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                sol = solve_ivp(coeffs, lam, c)
            if not (np.all(np.isfinite(sol.Y)) and np.all(np.isfinite(sol.residual_nodes))):
                raise ConfigError("the solution at lambda = %r overflows double precision" % lam)
            # re_y1, im_y1, re_y2, im_y2 per node; a real Y has +0 im columns
            Y = np.asarray(sol.Y, dtype=complex).view(float)
            table = np.column_stack((problem.grid.nodes, Y, sol.residual_nodes))
            path = "%s_solution_%03d.csv" % (problem.out, k)
            _write_csv(path, "x,re_y1,im_y1,re_y2,im_y2,residual", [table])
        except ConfigError as exc:
            return k, str(exc)


def _in_workers(task, shares):
    """[task(share) for share in shares], for a task that returns None or
    (int, str): shares[0] here, every other one in a forked child that
    reports over a pipe and leaves by os._exit, so that it never returns
    into the caller nor flushes its copy of this process's buffers."""
    children, reports = [], None
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    try:
                        first, code = task(share), 0
                        report = "%d %s" % first if first else ""
                    except Exception:  # its traceback goes to the parent
                        report, code = traceback.format_exc(), 1
                    os.write(w, os.fsencode(report))
                    os._exit(code)
                finally:
                    os._exit(1)
            children.append((pid, os.fdopen(r, "rb")))
            os.close(w)
        results = [task(shares[0])]
        reports = [os.fsdecode(fh.read()) for _, fh in children]
    finally:
        # every child is reaped, and killed first unless it reported
        for pid, fh in children:
            fh.close()
            if reports is None:
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    for code, report in zip(codes, reports):
        if code:  # an exception or a signal, never a silent success
            raise RuntimeError("a worker ended with status %d:\n%s" % (code, report))
        k, _, message = report.partition(" ")
        results.append((int(k), message) if report else None)
    return results


def cmd_solve(problem, args):
    if not args.lambdas:
        raise ConfigError("solve needs --lambdas")
    lams = _parse_constants(args.lambdas, "lambda")
    c = np.array(_parse_constants(args.c, "initial value", 2))
    coeffs, _ = problem.coefficients()
    coeffs.folded  # formed once, before the fork
    t0 = time.perf_counter()
    # a worker per usable CPU; worker w takes indices w, w + W, ..., since
    # the cost grows with |lambda| and the complex lambdas come last
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    W = min(len(lams), len(os.sched_getaffinity(0))) if forks else 1
    shares = [list(enumerate(lams))[w::W] for w in range(W)]
    firsts = _in_workers(functools.partial(_solve_share, problem, coeffs, c), shares)
    if any(firsts):
        # as with one worker: the lowest failing index, and no file above it
        k, message = min(f for f in firsts if f)
        for j in range(k + 1, len(lams)):
            if j < (firsts[j % W] or (len(lams),))[0]:  # written by worker j % W
                os.remove("%s_solution_%03d.csv" % (problem.out, j))
        raise ConfigError(message)
    dt = time.perf_counter() - t0
    print("solve: %d lambda values in %.3fs on %d process%s" % (len(lams), dt, W, "es" * (W > 1)))
    return 0


def cmd_spectrum(problem, args):
    if problem.bc is None:
        raise ConfigError("spectrum needs bc_left and bc_right")
    lam_min = _get_float(problem.cfg, "lambda_min")
    lam_max = _get_float(problem.cfg, "lambda_max")
    if not lam_min < lam_max:
        raise ConfigError("need lambda_min < lambda_max")
    # the default step is scan_eigenvalues' own, pi / (10 b)
    step = _get_float(problem.cfg, "scan_step", np.pi / (10.0 * problem.b), positive=True)
    # numpy cannot form an array of more bytes than an index can count
    points = (lam_max - lam_min) / step
    if not points < np.iinfo(np.intp).max // np.dtype(complex).itemsize:
        raise ConfigError(
            "lambda_min = %r to lambda_max = %r in steps of scan_step = %r is %.3g "
            "scan points, more than an array can hold" % (lam_min, lam_max, step, points)
        )
    coeffs, _ = problem.coefficients()
    t0 = time.perf_counter()
    try:
        eigs = scan_eigenvalues(coeffs, problem.bc, lam_min, lam_max, step=step)
    except ArithmeticError as exc:
        raise ConfigError(str(exc))
    dt = time.perf_counter() - t0
    table = np.column_stack((eigs.index, eigs.lam, eigs.residual, eigs.iterations))
    path = problem.out + "_eigs.csv"
    _write_csv(path, "index,lambda,residual,iterations", [table])
    print("eigenvalues written to %s" % path)
    print(
        "count=%d,max_residual=%.17g,unconverged=%d,wall_time=%.3fs"
        % (
            eigs.lam.size,
            eigs.residual.max(initial=0.0),
            np.count_nonzero(~eigs.converged),
            dt,
        )
    )
    return 0


def _run_checks(problem):
    """The built-in consistency suite; returns a list of result dicts."""
    checks = []

    def record(name, value, threshold):
        checks.append(
            {
                "name": name,
                "value": float(value),
                "threshold": float(threshold),
                "passed": bool(value <= threshold),
            }
        )

    grid = problem.grid
    Q = problem.potential
    # quadrature on a closed form
    F = indefinite_integral(grid, np.cos(grid.nodes))
    record(
        "quadrature_cosine",
        np.max(np.abs(F - np.sin(grid.nodes))),
        1e-10 * max(1.0, grid.b),
    )
    try:
        # unchecked, so that the two checks below judge their own values
        hom = fundamental_solution_zero(Q, check=False)
        record("fundamental_det_one", hom.det_defect, dirac.DET_TOL)
        record(
            "fundamental_ode_residual",
            np.max(dirac_residual_nodes(hom.U, Q, 0.0)[1:-1]),
            dirac.ode_residual_tol(Q),
        )
    except Exception as exc:  # checks must report, not crash
        record("fundamental_solution", float("nan"), 0.0)
        checks[-1]["error"] = str(exc)
        return checks
    N = problem.N if problem.N != "auto" else DEFAULT_TRUNCATION
    N = max(4, min(N, 24))
    coeffs = build_coefficients(Q, hom, N)
    record(
        "lambda0_closure",
        np.max(np.abs(np.eye(2) + 2.0 * coeffs.coeff(0) - hom.U)),
        1e-12,
    )
    Q0 = Potential.zero(grid)
    hom0 = fundamental_solution_zero(Q0)
    coeffs0 = build_coefficients(Q0, hom0, N)
    record("free_coefficients_vanish", np.max(np.abs(coeffs0.K)), 1e-13)
    record(
        "free_solution_exact",
        np.max(np.abs(evaluate_U(coeffs0, 3.3, grid.b) - free_solution(3.3, grid.b))),
        1e-13,
    )
    # derivative against central differences
    worst = 0.0
    for lam, x in ((0.0, grid.b), (2.5, 0.5 * grid.b), (-11.0, grid.b)):
        up, down = evaluate_U(coeffs, lam + 1e-5, x), evaluate_U(coeffs, lam - 1e-5, x)
        fd = (up - down) / 2e-5
        dU = evaluate_U(coeffs, lam, x, derivative=True)[1]
        worst = max(worst, np.max(np.abs(dU - fd)))
    record("derivative_vs_fd", worst, 1e-6)
    return checks


def cmd_validate(problem, args):
    checks = _run_checks(problem)
    ok = all(c["passed"] for c in checks)
    if args.json:
        import json

        print(json.dumps({"passed": ok, "checks": checks}, indent=2))
    else:
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            print(
                "%-26s %s  (%.3e vs %.3e)"
                % (c["name"], status, c["value"], c["threshold"])
            )
        print("validate: %s" % ("all checks passed" if ok else "FAILURES present"))
    return 0 if ok else 1


_COMMANDS = {
    "kernel": cmd_kernel,
    "solve": cmd_solve,
    "spectrum": cmd_spectrum,
    "validate": cmd_validate,
}


@functools.cache
def _pin_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds (mallopt -3 and -1) at the values
    its dynamic scheme reaches once a 32 MiB block is freed, so that a
    command's temporaries reuse heap memory however the process allocated
    before, instead of being mapped or faulted in afresh per call.  True
    when set; another C library is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(-3, 32 << 20) and mallopt(-1, 64 << 20))


def main(argv=None):
    _pin_malloc_thresholds()
    ap = argparse.ArgumentParser(
        prog="diracnsbf",
        description="Dirac-system solver based on Neumann series of Bessel functions",
    )
    ap.add_argument("command", choices=_COMMANDS)
    ap.add_argument("--config", help="flat key=value problem description")
    ap.add_argument(
        "--set",
        dest="sets",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    ap.add_argument("--json", action="store_true", help="validate: machine-readable report")
    ap.add_argument("--lambdas", help="solve: comma-separated spectral parameters")
    ap.add_argument("--c", default="1,0", help="solve: initial value c1,c2")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        apply_overrides(cfg, args.sets)
        if args.command == "validate" and not any(
            k in cfg for k in ("p_expr", "q_expr", "nu_expr", "potential_file")
        ):
            cfg.update(p_expr="sin(pi*x)", q_expr="cos(pi*x)")
        problem = Problem(cfg)
        if problem.gauge_defect is not None and problem.gauge_defect > 1e-6:
            print(
                "warning: gauge angle inconsistent with diagonal entries "
                "(defect %.3e); the transformed system is not trace-free"
                % problem.gauge_defect,
                file=sys.stderr,
            )
        return _COMMANDS[args.command](problem, args)
    except (ConfigError, dirac.ResidualError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
