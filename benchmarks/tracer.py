"""In-memory span tracer for the benchmark's traced run.

The tracer wraps named public functions of the `diracnsbf` package from
outside the package.  Every package module that holds a reference to a
wrapped function gets the wrapper, so calls between modules and calls
within one module are both recorded.  A span is (name, start, end,
parent); spans stay in memory until `dump` writes them at the end.

A name that no longer resolves (after a refactor) is listed in `missing`,
and the metrics built on it report 0; the untraced run never imports this
module.
"""

import json
import sys
import time

import numpy as np


def _orders_built(args, kwargs, result):
    return result.N


def _orders_extended(args, kwargs, result):
    return result.N - args[0].N


def _probes(args, kwargs, result):
    return len(result[1].probes)


def _arg_count(args, kwargs, result):
    return int(np.size(args[0]))


def _points(args, kwargs, result):
    return int(np.size(result))


def _refine(args, kwargs, result):
    return (result.iterations, int(not result.converged))


# Wrapped functions, named relative to the package, with the extractor of
# the count a metric needs from (args, kwargs, result), if any.
# scan_eigenvalues and solve_ivp carry no metric of their own: wrapping them
# keeps their loops out of the CLI's self time.
TARGETS = {
    "cli.main": None,
    "cli.Problem.__init__": None,
    "cli.Problem.coefficients": None,
    "dirac.fundamental_solution_zero": None,
    "dirac.apply_S": None,
    "dirac.dirac_residual": None,
    "dirac.dirac_residual_nodes": None,
    "kernel.build_coefficients": _orders_built,
    "kernel.extend_coefficients": _orders_extended,
    "kernel.auto_truncation": _probes,
    "kernel.goursat_residuals": None,
    "solution.build_evaluator": None,
    "solution.evaluate_U_nodes": None,
    "solution.evaluate_U": None,
    "solution.evaluate_dU_dlambda": None,
    "solution.solve_ivp": None,
    "special.bessel_pair": None,
    "special.bessel_pair_batch": _arg_count,
    "spectral.scan_eigenvalues": None,
    "spectral.char_function_batch": _points,
    "spectral.char_function": None,
    "spectral.char_function_derivative": None,
    "spectral.refine_root": _refine,
}

_BUILD = ("kernel.build_coefficients", "kernel.extend_coefficients")
_RESIDUAL = ("dirac.dirac_residual", "dirac.dirac_residual_nodes")
_DELTA = ("spectral.char_function", "spectral.char_function_derivative")

# (metric, kind, span names, names a counted span must not sit under).
# kind: "time" sums durations, "self" sums durations minus direct children,
# "calls" counts spans, and an integer k sums element k of the extracted
# count (a plain count when k is 0 and the extractor returns a number).
# A span nested in another span of the same names is not counted again.
METRICS = [
    ("cli.problem_s", "time", ("cli.Problem.__init__",), ()),
    ("cli.coefficients_s", "time", ("cli.Problem.coefficients",), ()),
    ("cli.command_self_s", "self", ("cli.main",), ()),
    ("dirac.rk4_s", "time", ("dirac.fundamental_solution_zero",), ()),
    ("dirac.apply_S_calls", "calls", ("dirac.apply_S",), ()),
    ("dirac.apply_S_s", "time", ("dirac.apply_S",), ()),
    ("dirac.residual_s", "time", _RESIDUAL, ()),
    ("kernel.build_s", "time", _BUILD, ()),
    ("kernel.build_self_s", "self", _BUILD, ()),
    ("kernel.orders_built", 0, _BUILD, ()),
    ("kernel.auto_probes", 0, ("kernel.auto_truncation",), ()),
    ("kernel.goursat_s", "time", ("kernel.goursat_residuals",), ()),
    ("solution.fold_s", "time", ("solution.build_evaluator",), ()),
    ("solution.eval_nodes_calls", "calls", ("solution.evaluate_U_nodes",), ()),
    ("solution.eval_nodes_self_s", "self", ("solution.evaluate_U_nodes",), ()),
    ("solution.eval_point_calls", "calls", ("solution.evaluate_U",), ()),
    ("solution.eval_dU_calls", "calls", ("solution.evaluate_dU_dlambda",), ()),
    ("special.bessel_scalar_calls", "calls", ("special.bessel_pair",), ()),
    ("special.bessel_scalar_s", "time", ("special.bessel_pair",), ()),
    ("special.bessel_batch_calls", "calls", ("special.bessel_pair_batch",), ("special.bessel_pair",)),
    ("special.bessel_batch_args", 0, ("special.bessel_pair_batch",), ("special.bessel_pair",)),
    ("special.bessel_batch_s", "time", ("special.bessel_pair_batch",), ("special.bessel_pair",)),
    ("spectral.scan_points", 0, ("spectral.char_function_batch",), ()),
    ("spectral.scan_s", "time", ("spectral.char_function_batch",), ()),
    ("spectral.refine_calls", "calls", ("spectral.refine_root",), ()),
    ("spectral.refine_s", "time", ("spectral.refine_root",), ()),
    ("spectral.newton_iters", 0, ("spectral.refine_root",), ()),
    ("spectral.roots_unconverged", 1, ("spectral.refine_root",), ()),
    ("spectral.char_evals", "calls", _DELTA, ("spectral.char_function_batch",)),
]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index, extracted count]
        self.missing = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, extract):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extract is not None:
                try:
                    span[4] = extract(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # reported as a missing count
            return result

        return traced

    def _resolve(self, name):
        """(owner, attribute, original) for a package-relative name."""
        module, _, rest = name.partition(".")
        owner = sys.modules.get("%s.%s" % (self.package, module))
        *path, attr = rest.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        return (owner, attr, fn) if callable(fn) else None

    def __enter__(self):
        prefix = self.package + "."
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(prefix))
        ]
        for name, extract in TARGETS.items():
            found = self._resolve(name)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(name, fn, extract)
            owners = [owner] if isinstance(owner, type) else modules
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def metrics(self):
        """Per-layer metrics, and the metric names that could not be measured."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        values, unmeasured = {}, []
        for metric, kind, names, not_under in METRICS:
            if any(n in self.missing for n in names):
                unmeasured.append(metric)
            blocked = set(names) | set(not_under)
            total = 0
            for i, (name, start, end, parent, count) in enumerate(spans):
                if name not in names or self._under(parent, blocked):
                    continue
                if kind == "time":
                    total += end - start
                elif kind == "self":
                    total += end - start - child_time[i]
                elif kind == "calls":
                    total += 1
                elif count is None:
                    unmeasured.append(metric)
                else:
                    total += count[kind] if isinstance(count, tuple) else count
            values[metric] = total
        return values, sorted(set(unmeasured))

    def _under(self, parent, names):
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - t0, e - t0, p] for n, s, e, p, _ in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
