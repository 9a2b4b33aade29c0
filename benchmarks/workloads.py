"""Workload definitions: the problem configs and the seed-driven inputs.

Each workload is one CLI command on one config.  The seed only changes
the inputs of `solve-sweep` (its spectral parameters); the other two
workloads run fixed problems whose references are fixed too.
"""

import random

# B Z' + diag(-x, 1) Z = lambda Z, z1(0) = z1(1) = 0, rotated to canonical
# form; the eigenvalue benchmark of the package README.
GAUGE_CONFIG = """\
p_expr     = -x
q_expr     = 1
gauge_phi  = x*(x-2)/4
M          = 2000
N          = 16
bc_left    = 1,0;0,0
bc_right   = 0,0;1,0
lambda_min = -331
lambda_max = 423
"""

KERNEL_CONFIG = """\
p_expr = sin(pi*x)
q_expr = cos(pi*x)
M      = 10000
N      = 64
"""

SOLVE_P, SOLVE_Q = 0.3, 1.0
SOLVE_CONFIG = """\
p_expr = %r
q_expr = %r
M      = 2000
N      = auto
tol    = 1e-12
""" % (SOLVE_P, SOLVE_Q)

SOLVE_REAL = 161  # real lambdas in [-SOLVE_SPAN, SOLVE_SPAN]
SOLVE_COMPLEX = 21  # lambdas with Im = 1 and real part in the same span
SOLVE_SPAN = 400.0


def _stratified(rng, count, span):
    """One uniform draw in each of `count` equal slices of [-span, span].

    The Bessel cost of a lambda grows with |lambda|, so stratifying keeps
    the work of a sweep the same from seed to seed while the values move.
    """
    width = 2.0 * span / count
    return [-span + (k + rng.random()) * width for k in range(count)]


def solve_lambdas(seed):
    """The solve-sweep spectral parameters as the strings passed on the
    command line and as the complex values they denote."""
    rng = random.Random(seed)
    real = ["%.12f" % v for v in _stratified(rng, SOLVE_REAL, SOLVE_SPAN)]
    shifted = ["%.12f" % v for v in _stratified(rng, SOLVE_COMPLEX, SOLVE_SPAN)]
    texts = real + [t + "+1i" for t in shifted]
    values = [complex(float(t)) for t in real] + [complex(float(t), 1.0) for t in shifted]
    return texts, values


def build(name, seed):
    """(command, config text, extra CLI args, inputs the checks need)."""
    if name == "gauge-spectrum":
        return "spectrum", GAUGE_CONFIG, [], {}
    if name == "kernel-fine":
        return "kernel", KERNEL_CONFIG, [], {}
    if name == "solve-sweep":
        texts, values = solve_lambdas(seed)
        # "=" keeps argparse from reading a leading "-" as an option
        inputs = {"lambdas": values, "p": SOLVE_P, "q": SOLVE_Q}
        return "solve", SOLVE_CONFIG, ["--lambdas=" + ",".join(texts)], inputs
    raise KeyError(name)


NAMES = ("gauge-spectrum", "kernel-fine", "solve-sweep")
