import functools
import os
import platform
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import diracnsbf
from diracnsbf import cli
from diracnsbf.cli import main
from diracnsbf.dirac import fundamental_solution_zero


def write_config(tmp_path, text, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_written_as_17g(path, header):
    """The file is its header plus "%.17g" renderings of its own values.

    "%.17g" round-trips through float, so this holds exactly when every
    value was written as "%.17g".
    """
    head, body = path.read_text().split("\n", 1)
    assert head == header
    rows = [line.split(",") for line in body.splitlines()]
    assert rows and all(len(row) == len(header.split(",")) for row in rows)
    expected = "".join(",".join("%.17g" % float(t) for t in row) + "\n" for row in rows)
    assert path.read_bytes() == (header + "\n" + expected).encode()


COEFF_HEADER = "n,x,re11,im11,re12,im12,re21,im21,re22,im22"


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bogus = 3\n")
        code, _, err = run(["validate", "--config", cfg], capsys)
        assert code == 2
        assert "unknown key" in err

    def test_missing_potential_source(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b = 1.0\nM = 100\n")
        code, _, err = run(["kernel", "--config", cfg], capsys)
        assert code == 2
        assert "potential source" in err

    def test_conflicting_sources(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "p_expr = 0\nq_expr = 1\nnu_expr = 0.5\nM = 100\n"
        )
        code, _, err = run(["kernel", "--config", cfg], capsys)
        assert code == 2

    def test_bad_expression_position(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "p_expr = 2**x\nq_expr = 0\nM = 100\n")
        code, _, err = run(["kernel", "--config", cfg], capsys)
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize(
        "source, cell, node",
        [
            ("p_expr = 1/x\nq_expr = 0", None, 0),
            ("nu_expr = 1/x", None, 0),
            ("p_expr = 1/x\nq_expr = 1\ngauge_phi = x", None, 0),
            ("p_expr = -x\nq_expr = 1\ngauge_phi = 1/x", None, 0),
            ("potential_file = %s", "nan", 7),
            ("potential_file = %s", "abc", 7),
        ],
        ids=["p_expr", "nu_expr", "gauge-p_expr", "gauge_phi", "file-nan", "file-text"],
    )
    def test_non_finite_potential_names_the_node(self, tmp_path, capsys, source, cell, node):
        nodes = np.linspace(0.0, 1.0, 101)  # the grid of M = 100
        if cell is not None:
            rows = ["%.17g,0,0,1,0" % x for x in nodes]
            rows[node] = "%.17g,0,0,%s,0" % (nodes[node], cell)
            pfile = tmp_path / "pot.csv"
            pfile.write_text("x,p_re,p_im,q_re,q_im\n" + "\n".join(rows) + "\n")
            source %= pfile
        cfg = write_config(tmp_path, source + "\nM = 100\nN = 4\nout = %s\n" % (tmp_path / "n"))
        code, _, err = run(["kernel", "--config", cfg], capsys)
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "node %d (x = %.17g)" % (node, nodes[node]) in err

    def test_rough_potential_file_is_a_config_error(self, tmp_path, capsys):
        # q at 7 digits is too rough for the propagator's ODE-residual check
        nodes = np.linspace(0.0, 1.0, 1001)  # the grid of M = 1000
        rows = ["%.17g,%.17g,0,%.6e,0" % (x, np.sin(3 * x), np.exp(-x)) for x in nodes]
        pfile = tmp_path / "pot.csv"
        pfile.write_text("x,p_re,p_im,q_re,q_im\n" + "\n".join(rows) + "\n")
        cfg = write_config(
            tmp_path,
            "potential_file = %s\nM = 1000\nN = 10\nout = %s\n" % (pfile, tmp_path / "r"),
        )
        code, _, err = run(["kernel", "--config", cfg], capsys)
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: ODE residual") and "refine the grid" in err

    def test_propagator_overflow_is_one_config_error(self, tmp_path, capsys):
        # U(0, x) ~ e^(3000 x) leaves double precision: no overflow warnings
        # from the prefix scan or the determinant, one error naming the x
        out = tmp_path / "big"
        argv = ["kernel", "--set", "p_expr=3000", "--set", "q_expr=1", "--set", "M=100"]
        code, _, err = run(argv + ["--set", "out=%s" % out], capsys)
        assert code == 2
        assert err.count("\n") == 1 and "Warning" not in err
        assert err.startswith("config error: det of the propagator U(0, x) drifts from 1 by ")
        assert re.search(r"; U\(0, x\) is not finite at x = 0\.\d+\n\Z", err)

    def test_unwritable_output_is_a_config_error(self, tmp_path, capsys):
        # out names a path under a regular file; the cache under it cannot
        # be written either, which costs one note
        (tmp_path / "plain").write_text("a file\n")
        out = tmp_path / "plain" / "r"
        cfg = write_config(tmp_path, "p_expr = 0\nq_expr = 1\nM = 100\nN = 4\nout = %s\n" % out)
        code, _, err = run(["kernel", "--config", cfg], capsys)
        assert code == 2
        assert "Traceback" not in err
        note, error = err.splitlines()
        assert note.startswith("note: cannot write coefficient cache ")
        assert error.startswith("config error: cannot write %s_coeffs.csv: " % out)

    @pytest.mark.parametrize("N", ["6", "auto"])
    def test_non_finite_coefficients_are_a_config_error(self, tmp_path, capsys, monkeypatch, N):
        def poisoned(H, hom):
            S = cli.dirac.apply_S(H, hom).copy()
            S[len(S) // 2, 0, 1] = np.nan
            return S

        monkeypatch.setattr(diracnsbf.kernel, "apply_S", poisoned)
        cfg = write_config(
            tmp_path,
            "p_expr = sin(pi*x)\nq_expr = 1\nM = 200\nN = %s\nout = %s\n"
            % (N, tmp_path / "f"),
        )
        code, _, err = run(["kernel", "--config", cfg], capsys)
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "non-finite kernel coefficients at N=%d, M=200" % (6 if N == "6" else 2) in err

    @pytest.mark.parametrize(
        "source, notes",
        [
            ("p_expr = 1/(x-0.00005)\nq_expr = 1", []),
            (
                "p_expr = -x\nq_expr = 1\ngauge_phi = 1/(x-0.00005)",
                ["warning: gauge angle inconsistent with diagonal entries"],
            ),
        ],
        ids=["p_expr", "gauge_phi"],
    )
    def test_pole_between_nodes_is_a_config_error(self, tmp_path, capsys, source, notes):
        # x = 5e-5 is no node of M = 2000 (h = 5e-4) but a point of the
        # propagator's refined grid, where p or q is not finite
        cfg = write_config(tmp_path, source + "\nM = 2000\nN = 8\nout = %s\n" % (tmp_path / "p"))
        code, _, err = run(["kernel", "--config", cfg], capsys)
        assert code == 2
        *lines, last = err.splitlines()
        assert len(lines) == len(notes) and all(map(str.startswith, lines, notes))
        assert last == "config error: the potential is not finite at x = %.17g" % 5e-5
        assert not (tmp_path / "p_coeffs.csv").exists()

    @pytest.mark.parametrize(
        "command, setting",
        [
            ("kernel", "M=nan"),
            ("kernel", "M=inf"),
            ("spectrum", "lambda_max=inf"),
            ("spectrum", "scan_step=nan"),
            ("kernel", "tol=0"),
            ("kernel", "tol=-1"),
            ("kernel", "tol=nan"),
        ],
    )
    def test_non_finite_or_non_positive_numbers(self, tmp_path, capsys, command, setting):
        cfg = write_config(
            tmp_path,
            "p_expr = 0\nq_expr = 1\nM = 100\nN = auto\n"
            "bc_left = 1,0;0,0\nbc_right = 0,0;1,0\n"
            "lambda_min = -5\nlambda_max = 5\nout = %s\n" % (tmp_path / "n"),
        )
        code, _, err = run([command, "--config", cfg, "--set", setting], capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert setting.split("=")[0] in err
        assert not (tmp_path / "n_coeffs.csv").exists()
        assert not (tmp_path / "n_eigs.csv").exists()

    def test_set_overrides(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p_expr = 0\nq_expr = 0\nM = 50\nN = 4\nout = %s\n" % (tmp_path / "a"),
        )
        code, out, _ = run(
            ["kernel", "--config", cfg, "--set", "N=2"], capsys
        )
        assert code == 0
        data = np.loadtxt(
            str(tmp_path / "a_coeffs.csv"), delimiter=",", skiprows=1, ndmin=2
        )
        assert int(data[:, 0].max()) == 2


BASE_CONFIG = "p_expr = 0\nq_expr = 1\nM = 100\nN = 4\n"
BLOCKS = ["--set", "bc_left=1,0;0,0", "--set", "bc_right=0,0;1,0"]
KNOWN_KEYS = (
    "(known: M, N, b, bc_left, bc_right, gauge_phi, lambda_max, lambda_min, nu_expr, "
    "out, p_expr, potential_file, q_expr, scan_step, tol)"
)


class TestConfigMessages:
    """Each bad input of the config layer exits 2 with one exact stderr line,
    before any build or output."""

    @pytest.mark.parametrize(
        "command, text, extra, message",
        [
            ("kernel", "p_expr 0\n", [], "{cfg}:1: expected key=value, got 'p_expr 0'"),
            ("kernel", "bogus = 3\n", [], "{cfg}:1: unknown key 'bogus' " + KNOWN_KEYS),
            ("kernel", BASE_CONFIG, ["--set", "N"], "--set: expected key=value, got 'N'"),
            ("kernel", BASE_CONFIG, ["--set", "bogus=1"], "--set: unknown key 'bogus' " + KNOWN_KEYS),
            ("kernel", BASE_CONFIG, ["--set", "M=abc"], "key 'M' must be a number, got 'abc'"),
            ("kernel", BASE_CONFIG, ["--set", "b=inf"], "key 'b' must be finite, got 'inf'"),
            ("kernel", BASE_CONFIG, ["--set", "N=2.5"], "N must be an integer or 'auto', got '2.5'"),
            ("kernel", BASE_CONFIG, ["--set", "N=-1"], "N must be >= 0"),
            ("kernel", BASE_CONFIG, ["--set", "tol=0"], "tol must be positive, got '0'"),
            (
                "kernel",
                BASE_CONFIG,
                ["--set", "bc_left=1,0;0", "--set", "bc_right=0,0;1,0"],
                "bc_left needs 4 values, got 3",
            ),
            (
                "kernel",
                BASE_CONFIG,
                ["--set", "bc_left=1,0;0,2x", "--set", "bc_right=0,0;1,0"],
                "bad bc_left '2x': unexpected token 'x' (at position 1)",
            ),
            ("kernel", BASE_CONFIG, BLOCKS[:2], "both bc_left and bc_right are required"),
            ("solve", BASE_CONFIG, ["--lambdas", "1", "--c", "1"], "initial value needs 2 values, got 1"),
            (
                "solve",
                BASE_CONFIG,
                ["--lambdas", "1", "--c", "1,x"],
                "bad initial value 'x': expression depends on x but no x was supplied",
            ),
            ("solve", BASE_CONFIG, [], "solve needs --lambdas"),
            ("solve", BASE_CONFIG, ["--lambdas="], "solve needs --lambdas"),
            ("solve", BASE_CONFIG, ["--lambdas", ", ,"], "lambda needs one or more values, got 0"),
            (
                "solve",
                BASE_CONFIG,
                ["--lambdas", "1, 2x"],
                "bad lambda '2x': unexpected token 'x' (at position 1)",
            ),
            (
                "kernel",
                BASE_CONFIG,
                ["--set", "p_expr=2**x"],
                "bad potential expression: unexpected token '*' (at position 2)",
            ),
            (
                "kernel",
                BASE_CONFIG,
                ["--set", "q_expr=sin("],
                "bad potential expression: unexpected token 'end of input' (at position 4)",
            ),
            (
                "kernel",
                BASE_CONFIG,
                ["--set", "gauge_phi=x)"],
                "bad gauge_phi: unexpected token ')' (at position 1)",
            ),
            (
                "kernel",
                "nu_expr = 2x\nM = 100\n",
                [],
                "bad nu_expr: unexpected token 'x' (at position 1)",
            ),
            (
                "kernel",
                BASE_CONFIG,
                ["--set", "nu_expr=0.5"],
                "exactly one potential source required: p_expr+q_expr, potential_file, "
                "or nu_expr",
            ),
            (
                "spectrum",
                BASE_CONFIG,
                BLOCKS + ["--set", "lambda_min=5", "--set", "lambda_max=5"],
                "need lambda_min < lambda_max",
            ),
            (
                "spectrum",
                BASE_CONFIG,
                BLOCKS + ["--set", "lambda_min=-5", "--set", "lambda_max=5", "--set", "scan_step=0"],
                "scan_step must be positive, got '0'",
            ),
        ],
        ids=[
            "file-missing-eq",
            "file-unknown-key",
            "set-missing-eq",
            "set-unknown-key",
            "bad-number",
            "non-finite-number",
            "N-not-integer",
            "N-negative",
            "tol",
            "block-count",
            "block-entry",
            "lone-bc_left",
            "initial-value-count",
            "initial-value-entry",
            "no-lambdas",
            "empty-lambdas",
            "blank-lambdas",
            "bad-lambda",
            "bad-p_expr",
            "bad-q_expr",
            "bad-gauge_phi",
            "bad-nu_expr",
            "conflicting-sources",
            "lambda-order",
            "scan_step",
        ],
    )
    def test_message(self, tmp_path, capsys, command, text, extra, message):
        cfg = write_config(tmp_path, text + "out = %s\n" % (tmp_path / "m"))
        code, out, err = run([command, "--config", cfg] + extra, capsys)
        assert code == 2
        assert out == ""
        assert err == "config error: %s\n" % message.format(cfg=cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.cfg"]


class TestKernelCommand:
    def test_zero_potential_zero_coefficients(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p_expr = 0\nq_expr = 0\nM = 50\nN = 4\nout = %s\n" % (tmp_path / "z"),
        )
        code, out, _ = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        data = np.loadtxt(
            str(tmp_path / "z_coeffs.csv"), delimiter=",", skiprows=1, ndmin=2
        )
        assert np.max(np.abs(data[:, 2:])) == 0.0
        # summary line N,sup_deltaQ,sup_delta0
        last = [l for l in out.splitlines() if l.startswith("4,")]
        assert last and float(last[0].split(",")[1]) == 0.0

    def test_constant_q_k0_column(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p_expr = 0\nq_expr = 1\nM = 200\nN = 4\nout = %s\n" % (tmp_path / "c"),
        )
        code, _, _ = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        data = np.loadtxt(
            str(tmp_path / "c_coeffs.csv"), delimiter=",", skiprows=1, ndmin=2
        )
        rows_k0 = data[data[:, 0] == 0]
        x = rows_k0[:, 1]
        np.testing.assert_allclose(
            rows_k0[:, 2], (np.exp(x) - 1) / 2, atol=1e-10
        )
        np.testing.assert_allclose(
            rows_k0[:, 8], (np.exp(-x) - 1) / 2, atol=1e-10
        )

    def test_oracle_option_is_gone(self, tmp_path, capsys):
        # the formal-powers route is a test oracle, not a kernel option
        cfg = write_config(tmp_path, "p_expr = 0\nq_expr = 1\nM = 50\nN = 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--config", cfg, "--oracle", "mapping"])
        assert exc.value.code == 2
        assert "--oracle" in capsys.readouterr().err

    def test_determinism(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p_expr = x\nq_expr = x\nM = 100\nN = 6\nout = %s\n" % (tmp_path / "d"),
        )
        run(["kernel", "--config", cfg], capsys)
        first = (tmp_path / "d_coeffs.csv").read_bytes()
        (tmp_path / "d_coeffs.csv").unlink()
        run(["kernel", "--config", cfg], capsys)
        assert (tmp_path / "d_coeffs.csv").read_bytes() == first

    def test_auto_truncation_probe_lines(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p_expr = sin(pi*x)\nq_expr = cos(pi*x)\nM = 500\nN = auto\n"
            "tol = 1e-6\nout = %s\n" % (tmp_path / "t"),
        )
        code, out, _ = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        probe_lines = [
            l for l in out.splitlines() if l and l.split(",")[0].isdigit()
        ]
        assert len(probe_lines) >= 2

    def test_auto_closing_line_repeats_the_chosen_probe(self, tmp_path, capsys):
        # the solve-sweep problem chooses the probed order 12; the closing
        # goursat_residuals line sums the orders as the probes do
        cfg = write_config(
            tmp_path,
            "p_expr = 0.3\nq_expr = 1.0\nM = 2000\nN = auto\n"
            "tol = 1e-12\nout = %s\n" % (tmp_path / "a"),
        )
        code, out, _ = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l and l.split(",")[0].isdigit()]
        assert [l.split(",")[0] for l in lines] == ["2", "4", "8", "12", "12"]
        assert lines[-1] == lines[-2]


class TestSolveCommand:
    def test_free_cosine_column(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p_expr = 0\nq_expr = 0\nM = 100\nN = 2\nout = %s\n" % (tmp_path / "s"),
        )
        code, _, _ = run(
            ["solve", "--config", cfg, "--lambdas", "2", "--c", "1,0"], capsys
        )
        assert code == 0
        data = np.loadtxt(
            str(tmp_path / "s_solution_000.csv"), delimiter=",", skiprows=1, ndmin=2
        )
        np.testing.assert_allclose(data[:, 1], np.cos(2 * data[:, 0]), atol=1e-12)
        np.testing.assert_allclose(data[:, 3], np.sin(2 * data[:, 0]), atol=1e-12)

    def test_residual_column(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p_expr = 0\nq_expr = 1\nM = 1000\nN = 16\nout = %s\n" % (tmp_path / "r"),
        )
        code, _, _ = run(
            ["solve", "--config", cfg, "--lambdas", "10"], capsys
        )
        assert code == 0
        data = np.loadtxt(
            str(tmp_path / "r_solution_000.csv"), delimiter=",", skiprows=1, ndmin=2
        )
        assert np.max(data[1:-1, 5]) < 1e-7

    def test_many_lambdas_shared_build(self, tmp_path, capsys):
        # one coefficient build shared across the whole lambda list
        cfg = write_config(
            tmp_path,
            "p_expr = 0\nq_expr = 1\nM = 50\nN = 6\nout = %s\n" % (tmp_path / "many"),
        )
        lams = ",".join(str(0.01 * k) for k in range(1000))
        code, out, _ = run(["solve", "--config", cfg, "--lambdas", lams], capsys)
        assert code == 0
        assert "solve: 1000 lambda values" in out
        assert out.count("built in") == 1
        assert (tmp_path / "many_solution_999.csv").exists()

    def test_overflowing_solution_is_an_error(self, tmp_path, capsys):
        # |Y| ~ e^(800 x) does not fit in a double: no file of nan rows
        cfg = write_config(
            tmp_path,
            "p_expr = 0.3\nq_expr = 1\nM = 200\nN = 8\nout = %s\n" % (tmp_path / "o"),
        )
        code, _, err = run(["solve", "--config", cfg, "--lambdas=1+800i"], capsys)
        assert code == 2
        assert err.count("\n") == 1
        assert "overflows" in err and "(1+800j)" in err
        assert not (tmp_path / "o_solution_000.csv").exists()

    def test_cache_reuse_between_commands(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p_expr = 0\nq_expr = 1\nM = 500\nN = 10\nout = %s\n" % (tmp_path / "h"),
        )
        code, out1, _ = run(["solve", "--config", cfg, "--lambdas", "1"], capsys)
        assert code == 0
        assert "built in" in out1
        code, out2, _ = run(["solve", "--config", cfg, "--lambdas", "2"], capsys)
        assert code == 0
        assert "cache hit" in out2

    def test_needs_lambdas(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "p_expr = 0\nq_expr = 0\nM = 50\nout = %s\n" % (tmp_path / "n")
        )
        code, _, err = run(["solve", "--config", cfg], capsys)
        assert code == 2
        assert "lambdas" in err


def usable_cpus(monkeypatch, n):
    """Make solve see n usable CPUs, and so run n workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    # every worker was reaped: no child runs and no zombie waits
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")), reason="one process only"
)
class TestSolveWorkers:
    OVERFLOW = "p_expr = 0.3\nq_expr = 1\nM = 200\nN = 8\nout = %s\n"

    def test_files_do_not_depend_on_worker_count(self, tmp_path, capsys, monkeypatch):
        lams = "--lambdas=-7.25,0,3,12.5,-40,3+1i,-2-0.5i,25+1i"
        files = {}
        for n in (1, 2, 3):
            usable_cpus(monkeypatch, n)
            out = tmp_path / ("w%d" % n) / "s"
            cfg = write_config(
                tmp_path, "p_expr = sin(pi*x)\nq_expr = x\nM = 300\nN = 10\nout = %s\n" % out
            )
            code, stdout, _ = run(["solve", "--config", cfg, lams, "--c=0.5,2-1i"], capsys)
            assert code == 0
            assert "solve: 8 lambda values in " in stdout
            assert stdout.rstrip().endswith("on %d process%s" % (n, "es" * (n > 1)))
            files[n] = {p.name: p.read_bytes() for p in out.parent.glob("s_solution_*.csv")}
            assert_no_child_left()
        assert sorted(files[1]) == ["s_solution_%03d.csv" % k for k in range(8)]
        assert files[2] == files[1] and files[3] == files[1]

    @pytest.mark.parametrize("n", [2, 3])
    def test_overflow_outcome_does_not_depend_on_worker_count(
        self, tmp_path, capsys, monkeypatch, n
    ):
        usable_cpus(monkeypatch, n)
        cfg = write_config(tmp_path, self.OVERFLOW % (tmp_path / "o"))
        code, _, err = run(["solve", "--config", cfg, "--lambdas=1,1+800i,2,3"], capsys)
        assert code == 2
        assert err.count("\n") == 1
        assert "overflows" in err and "(1+800j)" in err
        assert [p.name for p in tmp_path.glob("o_solution_*")] == ["o_solution_000.csv"]
        assert_no_child_left()

    @pytest.mark.parametrize("n", [2, 3])
    def test_unwritable_output_names_the_first_file(self, tmp_path, capsys, monkeypatch, n):
        usable_cpus(monkeypatch, n)
        (tmp_path / "plain").write_text("a file\n")
        out = tmp_path / "plain" / "u"
        cfg = write_config(tmp_path, "p_expr = 0\nq_expr = 1\nM = 100\nN = 4\nout = %s\n" % out)
        code, _, err = run(["solve", "--config", cfg, "--lambdas=1,2,3,4"], capsys)
        assert code == 2
        assert err.splitlines()[-1].startswith("config error: cannot write %s_solution_000.csv: " % out)
        assert_no_child_left()

    @pytest.mark.parametrize("lam, raises", [(1.0, ValueError), (4.0, RuntimeError)])
    def test_other_failures_are_errors(self, tmp_path, capsys, monkeypatch, lam, raises):
        # lambda = 1 is solved here, lambda = 4 in the second worker
        usable_cpus(monkeypatch, 2)
        solve_ivp = cli.solve_ivp

        def broken(coeffs, value, c):
            if value == lam:
                raise ValueError("broken solver")
            return solve_ivp(coeffs, value, c)

        monkeypatch.setattr(cli, "solve_ivp", broken)
        cfg = write_config(tmp_path, "p_expr = 0\nq_expr = 1\nM = 100\nN = 4\nout = %s\n" % (tmp_path / "e"))
        with pytest.raises(raises, match="broken solver"):
            main(["solve", "--config", cfg, "--lambdas=1,2,3,4"])
        assert_no_child_left()

    def test_piped_stdout_is_written_once(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("p_expr = 0\nq_expr = 1\nM = 100\nN = 4\nout = %s\n" % (tmp_path / "p"))
        code = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1, 2}
from diracnsbf.cli import main
sys.exit(main(["solve", "--config", sys.argv[1], "--lambdas=1,2,3,4,5"]))
"""
        package_dir = os.path.dirname(os.path.abspath(diracnsbf.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package_dir))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(cfg)], stdout=subprocess.PIPE, text=True, env=env
        )
        assert proc.returncode == 0
        assert proc.stdout.count("coefficients:") == 1
        assert proc.stdout.count("solve:") == 1
        assert "on 3 processes" in proc.stdout


class TestCoefficientCache:
    def test_truncated_cache_is_rebuilt(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p_expr = 0\nq_expr = 1\nM = 500\nN = 10\nout = %s\n" % (tmp_path / "t"),
        )
        code, _, _ = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        (cache,) = (tmp_path / ".nsbf_cache").glob("*.npys")
        first = (tmp_path / "t_coeffs.csv").read_bytes()
        cache.write_bytes(cache.read_bytes()[: cache.stat().st_size // 2])
        code, out, err = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        assert "built in" in out
        assert err.count("\n") == 1 and "unreadable coefficient cache" in err
        assert "Traceback" not in err
        assert (tmp_path / "t_coeffs.csv").read_bytes() == first
        # the rebuilt file is whole again, and no temporary file is left
        assert [p.name for p in (tmp_path / ".nsbf_cache").iterdir()] == [cache.name]
        code, out, err = run(["kernel", "--config", cfg], capsys)
        assert "cache hit" in out and err == ""

    @staticmethod
    def rebuilt_after_edit(tmp_path, capsys, edit, note):
        """Build, let edit() change the records of the cache file (K, probes,
        and bytes to append under "trailing"), and check that the next run
        rebuilds the same CSV after one stderr note."""
        cfg = write_config(
            tmp_path,
            "p_expr = 0.3\nq_expr = 1\nM = 200\nN = 6\nout = %s\n" % (tmp_path / "d"),
        )
        code, _, _ = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        (cache,) = (tmp_path / ".nsbf_cache").glob("*.npys")
        first = (tmp_path / "d_coeffs.csv").read_bytes()
        with open(cache, "rb") as fh:
            arrays = {k: np.lib.format.read_array(fh) for k in ("K", "probes")}
            assert fh.read() == b""
        edit(arrays)
        trailing = arrays.pop("trailing", b"")
        with open(cache, "wb") as fh:
            for array in arrays.values():
                np.lib.format.write_array(fh, array)
            fh.write(trailing)
        code, out, err = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        assert "built in" in out
        assert err.count("\n") == 1 and note in err
        assert (tmp_path / "d_coeffs.csv").read_bytes() == first
        code, out, err = run(["kernel", "--config", cfg], capsys)
        assert "cache hit" in out and err == ""

    def test_cache_of_another_dtype_is_rebuilt(self, tmp_path, capsys):
        # a complex cache file for a real potential (as written before real
        # potentials were built in float64) is stale, not served
        def edit(arrays):
            # nothing derivable is stored: N is len(K) - 2, U(0, x) is rebuilt
            assert sorted(arrays) == ["K", "probes"]
            assert arrays["K"].dtype == np.float64
            arrays["K"] = arrays["K"].astype(complex)

        self.rebuilt_after_edit(tmp_path, capsys, edit, "dtypes do not match the potential")

    def test_cache_without_probe_table_is_rebuilt(self, tmp_path, capsys):
        # a hit returns the probe table with the coefficients; a file
        # without one cannot stand in for a build
        def edit(arrays):
            del arrays["probes"]

        self.rebuilt_after_edit(tmp_path, capsys, edit, "probes")

    def test_cache_with_a_malformed_probe_table_is_rebuilt(self, tmp_path, capsys):
        def edit(arrays):
            assert arrays["probes"].shape == (0, 3)
            arrays["probes"] = np.zeros((2, 2))

        self.rebuilt_after_edit(tmp_path, capsys, edit, "shapes do not match")

    def test_cache_with_a_complex_probe_table_is_rebuilt(self, tmp_path, capsys):
        # the probe table is float64 as auto_truncation returns it
        def edit(arrays):
            assert arrays["probes"].dtype == np.float64
            arrays["probes"] = arrays["probes"].astype(complex)

        self.rebuilt_after_edit(tmp_path, capsys, edit, "float64 probes")

    def test_cache_with_trailing_bytes_is_rebuilt(self, tmp_path, capsys):
        # a file that holds more than the two records was not written whole
        # by this program
        def edit(arrays):
            arrays["trailing"] = b"\0" * 8

        self.rebuilt_after_edit(tmp_path, capsys, edit, "trailing bytes")

    def test_unwritable_cache_is_a_note(self, tmp_path, capsys):
        # a regular file where the cache directory goes (tests run as root,
        # so permission bits would not stop the write)
        (tmp_path / ".nsbf_cache").write_text("not a directory\n")
        cfg = write_config(
            tmp_path,
            "p_expr = 0\nq_expr = 1\nM = 100\nN = 4\nout = %s\n" % (tmp_path / "u"),
        )
        code, out, err = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        assert "built in" in out and "coefficients written to" in out
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("note: cannot write coefficient cache ")
        assert err.endswith("; continuing without it\n")
        assert (tmp_path / "u_coeffs.csv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".nsbf_cache",
            "problem.cfg",
            "u_coeffs.csv",
        ]

    @pytest.mark.parametrize("tol", ["1e-8", "1e-30"])
    def test_kernel_output_is_the_same_warm_or_cold(self, tmp_path, capsys, tol):
        # the probe lines and the unconverged warning (tol = 1e-30 walks to
        # N = 128 and keeps N = 19) come from what the cache returns, not
        # from a fresh build
        cfg = write_config(
            tmp_path,
            "p_expr = 0.3\nq_expr = 1\nM = 200\nN = auto\ntol = %s\nout = %s\n"
            % (tol, tmp_path / "w"),
        )
        code, cold, cold_err = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        code, warm, warm_err = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        assert "built in" in cold.splitlines()[0]
        assert "cache hit" in warm.splitlines()[0]
        assert warm.splitlines()[1:] == cold.splitlines()[1:]
        assert warm_err == cold_err
        warning = (
            "warning: auto truncation missed tol=1e-30; using N=19, "
            "the order with the smallest residual"
        )
        assert (warning in cold_err) == (tol == "1e-30")

    def test_cache_token_tracks_build_constants(self, tmp_path, monkeypatch):
        # the build constants and the version reach the token through the
        # source digest: an edit to any of them in a copy of the package
        # changes the digest, and the digest is part of the token
        for module, name in (
            ("dirac.py", "_SUBSTEPS"),
            ("kernel.py", "_GUARD_FRACTION"),
            ("kernel.py", "_SANITIZE_FROM"),
            ("kernel.py", "_SANITIZE_CELLS"),
            ("kernel.py", "_SANITIZE_CAP"),
            ("__init__.py", "__version__"),
        ):

            def edit(copy):
                text = (copy / module).read_text()
                edited, count = re.subn(r"^%s = .*$" % name, "%s = 0" % name, text, flags=re.M)
                assert count == 1 and edited != text, name
                (copy / module).write_text(edited)

            with monkeypatch.context() as m:
                assert self.digest_changes(tmp_path, m, edit), name
        problem = cli.Problem({"p_expr": "0", "q_expr": "1", "M": "100"})
        base = problem._cache_token()
        monkeypatch.setattr(cli, "_source_digest", lambda: "other")
        assert problem._cache_token() != base

    @staticmethod
    def digest_changes(tmp_path, monkeypatch, edit):
        """Whether the source digest of a copy of the package changes when
        edit(copy directory) runs."""
        package = os.path.dirname(cli.__file__)
        for name in os.listdir(package):
            if name.endswith(".py"):
                shutil.copy(os.path.join(package, name), tmp_path / name)
        monkeypatch.setattr(cli, "__file__", str(tmp_path / "cli.py"))
        before = cli._source_digest.__wrapped__()
        edit(tmp_path)
        return cli._source_digest.__wrapped__() != before

    def test_source_digest_tracks_cli(self, tmp_path, monkeypatch):
        # cli samples the config's potential, so an edit to it must rebuild
        def edit(copy):
            with open(copy / "cli.py", "a") as fh:
                fh.write("# an edit\n")

        assert self.digest_changes(tmp_path, monkeypatch, edit)

    def test_source_digest_tracks_new_modules(self, tmp_path, monkeypatch):
        # every module of the package counts, also one added to it
        def edit(copy):
            (copy / "extra.py").write_text("X = 1\n")

        assert self.digest_changes(tmp_path, monkeypatch, edit)


class TestBuildDtype:
    """The coefficient build takes its dtype from the potential's samples."""

    @pytest.mark.parametrize(
        "cfg, dtype",
        [
            ({"p_expr": "sin(3*x)", "q_expr": "1 + x"}, np.float64),
            ({"p_expr": "-x", "q_expr": "1", "gauge_phi": "x*(x-2)/4"}, np.float64),
            ({"p_expr": "sin(3*x) + 0.5i*x", "q_expr": "1 + x"}, np.complex128),
            ({"p_expr": "sin(3*x)", "q_expr": "1 + 1e-300i"}, np.complex128),
            # p = Im nu and q = -Re nu are real for every nu
            ({"nu_expr": "(1 + x) * exp(2i*x)"}, np.float64),
        ],
    )
    def test_dtype_follows_the_samples(self, tmp_path, cfg, dtype):
        problem = cli.Problem(dict(cfg, M="100", N="6", out=str(tmp_path / "c")))
        coeffs, _ = problem.coefficients()
        hom = fundamental_solution_zero(problem.potential)
        assert problem.potential.p.dtype == dtype
        for a in (coeffs.K, hom.U, hom.entries[1]):
            assert a.dtype == dtype
        # served from the cache with the same dtype
        assert cli.Problem(problem.cfg).coefficients()[0].K.dtype == dtype


FREE_DIRICHLET = (
    "p_expr = 0\nq_expr = 0\nM = 200\nN = 4\n"
    "bc_left = 1,0;0,0\nbc_right = 0,0;1,0\n"
    "lambda_min = -33\nlambda_max = 33\nout = %s\n"
)


class TestSpectrumCommand:
    def test_free_dirichlet(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FREE_DIRICHLET % (tmp_path / "e"))
        code, out, _ = run(["spectrum", "--config", cfg], capsys)
        assert code == 0
        data = np.loadtxt(
            str(tmp_path / "e_eigs.csv"), delimiter=",", skiprows=1, ndmin=2
        )
        assert data.shape[0] == 21
        np.testing.assert_allclose(data[:, 1], data[:, 0] * np.pi, atol=1e-10)
        assert "count=21" in out

    def test_unconverged_roots_in_summary(self, tmp_path, capsys, monkeypatch):
        # one Newton round leaves bracketed roots unconverged; they are kept
        monkeypatch.setattr(
            cli, "scan_eigenvalues", functools.partial(cli.scan_eigenvalues, max_iter=1)
        )
        cfg = write_config(tmp_path, FREE_DIRICHLET % (tmp_path / "u"))
        with pytest.warns(RuntimeWarning, match="did not converge") as caught:
            code, out, _ = run(["spectrum", "--config", cfg], capsys)
        assert code == 0
        assert "count=21" in out
        warned = int(re.match(r"(\d+) bracketed", str(caught[0].message)).group(1))
        unconverged = int(re.search(r",unconverged=(\d+),", out).group(1))
        assert unconverged == warned > 0

    def test_missing_bc(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p_expr = 0\nq_expr = 0\nM = 50\nlambda_min = 0\nlambda_max = 5\n"
            "out = %s\n" % (tmp_path / "x"),
        )
        code, _, err = run(["spectrum", "--config", cfg], capsys)
        assert code == 2
        assert "bc_left" in err

    def test_complex_delta_is_a_config_error(self, tmp_path, capsys):
        # Delta(0) = -0.479i: a complex Delta has no real sign changes to scan
        cfg = write_config(
            tmp_path,
            "p_expr = 1i*x\nq_expr = 0\nM = 200\nN = 8\n"
            "bc_left = 1,0;0,0\nbc_right = 0,0;1,0\n"
            "lambda_min = -5\nlambda_max = 5\nout = %s\n" % (tmp_path / "c"),
        )
        code, _, err = run(["spectrum", "--config", cfg], capsys)
        assert code == 2
        assert err.startswith("config error: Delta is complex on the real axis")
        assert not (tmp_path / "c_eigs.csv").exists()

    @pytest.mark.parametrize(
        "settings",
        [
            ["lambda_min=-1e308", "lambda_max=1e308"],
            ["lambda_min=-1", "lambda_max=1", "scan_step=1e-300"],
        ],
        ids=["infinite-span", "tiny-step"],
    )
    def test_unformable_scan_grid_is_a_config_error(self, tmp_path, capsys, settings):
        # both grids are refused from their point count, before the build
        cfg = write_config(tmp_path, FREE_DIRICHLET % (tmp_path / "e"))
        argv = ["spectrum", "--config", cfg]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: lambda_min = ") and err.count("\n") == 1
        assert all(key in err for key in ("lambda_min", "lambda_max", "scan_step"))
        assert err.endswith(" scan points, more than an array can hold\n")

    def test_gauge_spectrum_matches_plain(self, tmp_path, capsys):
        # diag(-x, 1) benchmark via the gauge route, few eigenvalues
        cfg = write_config(
            tmp_path,
            "p_expr = -x\nq_expr = 1\ngauge_phi = x*(x-2)/4\n"
            "M = 500\nN = 12\nbc_left = 1,0;0,0\nbc_right = 0,0;1,0\n"
            "lambda_min = -5\nlambda_max = 8\nout = %s\n" % (tmp_path / "g"),
        )
        code, _, _ = run(["spectrum", "--config", cfg], capsys)
        assert code == 0
        data = np.loadtxt(
            str(tmp_path / "g_eigs.csv"), delimiter=",", skiprows=1, ndmin=2
        )
        # reference values from the closed-form reduction of the original
        # problem (independently computed): -2.97719, 1.0, 3.478833, 6.578592
        np.testing.assert_allclose(
            data[:, 1],
            [-2.977189710951, 1.0, 3.478833069692, 6.578592238156],
            atol=1e-6,
        )


class TestCsvOutput:
    def test_kernel_file_written_as_17g(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p_expr = sin(3*x)\nq_expr = 1 + x\nM = 200\nN = 6\nout = %s\n"
            % (tmp_path / "k"),
        )
        code, _, _ = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        assert_written_as_17g(tmp_path / "k_coeffs.csv", COEFF_HEADER)

    def test_solve_files_real_and_complex_lambdas(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p_expr = 0.3\nq_expr = 1\nM = 200\nN = 8\nout = %s\n" % (tmp_path / "s"),
        )
        code, _, _ = run(
            ["solve", "--config", cfg, "--lambdas=-7.25,0,3+1i,40"], capsys
        )
        assert code == 0
        for k in range(4):
            assert_written_as_17g(
                tmp_path / ("s_solution_%03d.csv" % k), "x,re_y1,im_y1,re_y2,im_y2,residual"
            )

    @staticmethod
    def read_values(path):
        body = path.read_text().split("\n", 1)[1]
        return np.array([[float(t) for t in line.split(",")] for line in body.splitlines()])

    @staticmethod
    def assert_bits_equal(actual, expected):
        actual, expected = np.broadcast_arrays(actual, np.asarray(expected, dtype=float))
        np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("p_expr", ["sin(3*x)", "sin(3*x) + 0.5i*x"])
    def test_kernel_file_holds_the_coefficients(self, tmp_path, capsys, p_expr):
        # "%.17g" text of the wrong values (a column reused from another
        # table) would pass assert_written_as_17g; each value must be its own
        cfg = write_config(
            tmp_path,
            "p_expr = %s\nq_expr = 1 + x\nM = 200\nN = 6\nout = %s\n"
            % (p_expr, tmp_path / "k"),
        )
        code, _, _ = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        problem = cli.Problem(cli.load_config(cfg))
        coeffs, _ = problem.coefficients()
        size = problem.grid.size
        data = self.read_values(tmp_path / "k_coeffs.csv")
        orders = range(-1, coeffs.N + 1)
        assert data.shape == (len(orders) * size, 10)
        for n, rows in zip(orders, data.reshape(-1, size, 10)):
            self.assert_bits_equal(rows[:, 0], n)
            self.assert_bits_equal(rows[:, 1], problem.grid.nodes)
            # re11, im11, re12, im12, re21, im21, re22, im22, as the writer
            # formats them: a real kernel has +0 imaginary parts
            entries = np.asarray(coeffs.coeff(n), complex).reshape(size, 4).view(float)
            self.assert_bits_equal(rows[:, 2:], entries)
        if "0.5i" not in p_expr:
            assert coeffs.K.dtype == np.float64
            lines = (tmp_path / "k_coeffs.csv").read_text().splitlines()[1:]
            assert not any("-0" in line.split(",")[3::2] for line in lines)

    def test_solve_files_hold_the_solutions(self, tmp_path, capsys, complex_path):
        from diracnsbf.solution import solve_ivp

        for p_expr, out in (("0.3", "s"), ("sin(3*x) + 0.5i*x", "c")):
            cfg = write_config(
                tmp_path,
                "p_expr = %s\nq_expr = 1\nM = 200\nN = 6\nout = %s\n"
                % (p_expr, tmp_path / out),
            )
            code, _, _ = run(["solve", "--config", cfg, "--lambdas=-7.25,3+1i"], capsys)
            assert code == 0
            problem = cli.Problem(cli.load_config(cfg))
            ev, _ = problem.coefficients()
            for k, lam in enumerate([-7.25, 3 + 1j]):
                sol = solve_ivp(ev, complex(lam), [1, 0])
                # the file holds the all-complex evaluation, imaginary parts
                # included: a float64 Y is written with +0 im columns
                ref = complex_path.run(solve_ivp, ev, complex(lam), [1, 0])
                data = self.read_values(tmp_path / ("%s_solution_%03d.csv" % (out, k)))
                self.assert_bits_equal(data[:, 0], problem.grid.nodes)
                self.assert_bits_equal(data[:, 1:5], np.asarray(sol.Y, complex).view(float))
                self.assert_bits_equal(data[:, 1:5], ref.Y.view(float))
                self.assert_bits_equal(data[:, 5], sol.residual_nodes)
                self.assert_bits_equal(data[:, 5], ref.residual_nodes)

    def test_spectrum_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FREE_DIRICHLET % (tmp_path / "e"))
        code, _, _ = run(["spectrum", "--config", cfg], capsys)
        assert code == 0
        assert_written_as_17g(tmp_path / "e_eigs.csv", "index,lambda,residual,iterations")


class TestValidateCommand:
    def test_default_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "M = 500\nN = 12\nout = %s\n" % (tmp_path / "v")
        )
        code, out, _ = run(["validate", "--config", cfg], capsys)
        assert code == 0
        assert "all checks passed" in out

    def test_tiny_grid_fails(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "M = 20\nN = 8\nout = %s\n" % (tmp_path / "w")
        )
        code, out, _ = run(["validate", "--config", cfg], capsys)
        assert code == 1

    def test_json_report(self, tmp_path, capsys):
        import json

        cfg = write_config(
            tmp_path, "M = 500\nN = 8\nout = %s\n" % (tmp_path / "j")
        )
        code, out, _ = run(["validate", "--config", cfg, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert [c["name"] for c in report["checks"]] == [
            "quadrature_cosine",
            "fundamental_det_one",
            "fundamental_ode_residual",
            "lambda0_closure",
            "free_coefficients_vanish",
            "free_solution_exact",
            "derivative_vs_fd",
        ]


    def test_propagator_drift_fails_its_own_checks(self, tmp_path, capsys, monkeypatch):
        import json

        # a det drift of 1e-8 in U(0, x) of the checked potential; the Q = 0
        # propagator of the free checks stays exact
        rk4_step_maps = cli.dirac._rk4_step_maps

        def poisoned(p, q, h):
            D = rk4_step_maps(p, q, h)
            if np.any(q):
                D[0, 0, 0] += 1e-8
            return D

        monkeypatch.setattr(cli.dirac, "_rk4_step_maps", poisoned)
        cfg = write_config(tmp_path, "M = 500\nN = 8\nout = %s\n" % (tmp_path / "d"))
        code, out, _ = run(["validate", "--config", cfg, "--json"], capsys)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert list(checks) == [
            "quadrature_cosine",
            "fundamental_det_one",
            "fundamental_ode_residual",
            "lambda0_closure",
            "free_coefficients_vanish",
            "free_solution_exact",
            "derivative_vs_fd",
        ]
        failed = [name for name, c in checks.items() if not c["passed"]]
        assert failed == ["fundamental_det_one", "fundamental_ode_residual"]
        assert 5e-9 < checks["fundamental_det_one"]["value"] < 2e-8

    def test_propagator_overflow_fails_without_warnings(self, tmp_path, capsys):
        import json

        argv = ["validate", "--set", "p_expr=3000", "--set", "q_expr=1", "--set", "M=100"]
        code, out, err = run(argv + ["--set", "out=%s" % (tmp_path / "v")], capsys)
        assert code == 1 and err == ""
        assert "fundamental_solution       FAIL" in out
        code, out, err = run(argv + ["--set", "out=%s" % (tmp_path / "v"), "--json"], capsys)
        assert code == 1 and err == ""
        last = json.loads(out)["checks"][-1]
        assert last["name"] == "fundamental_solution" and not last["passed"]
        assert "; U(0, x) is not finite at x = " in last["error"]


class TestZsIngestion:
    def test_nu_expression(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "nu_expr = 0.5\nM = 200\nN = 8\nout = %s\n" % (tmp_path / "zs"),
        )
        code, _, _ = run(["kernel", "--config", cfg], capsys)
        assert code == 0

    def test_nu_csv_roundtrip(self, tmp_path, capsys):
        g_nodes = np.linspace(0, 1, 101)
        lines = ["x,nu_re,nu_im"]
        for x in g_nodes:
            lines.append("%.17g,%.17g,%.17g" % (x, 0.3 * np.sin(np.pi * x), 0.4))
        pfile = tmp_path / "nu.csv"
        pfile.write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path,
            "potential_file = %s\nM = 100\nN = 6\nout = %s\n"
            % (pfile, tmp_path / "zf"),
        )
        code, _, _ = run(["kernel", "--config", cfg], capsys)
        assert code == 0

    def test_dirac_csv_happy_path(self, tmp_path, capsys):
        nodes = np.linspace(0, 1, 101)
        lines = ["x,p_re,p_im,q_re,q_im"]
        for x in nodes:
            lines.append("%.17g,0,0,1,0" % x)
        pfile = tmp_path / "pot.csv"
        pfile.write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path,
            "potential_file = %s\nM = 100\nN = 4\nout = %s\n"
            % (pfile, tmp_path / "pf"),
        )
        code, _, _ = run(["kernel", "--config", cfg], capsys)
        assert code == 0
        data = np.loadtxt(
            str(tmp_path / "pf_coeffs.csv"), delimiter=",", skiprows=1, ndmin=2
        )
        rows_k0 = data[data[:, 0] == 0]
        np.testing.assert_allclose(
            rows_k0[:, 2], (np.exp(rows_k0[:, 1]) - 1) / 2, atol=1e-9
        )

    def test_dirac_csv_node_mismatch(self, tmp_path, capsys):
        lines = ["x,p_re,p_im,q_re,q_im"]
        for x in np.linspace(0, 1, 51):
            lines.append("%.17g,0,0,1,0" % (x + 0.001))
        pfile = tmp_path / "pot.csv"
        pfile.write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path,
            "potential_file = %s\nM = 50\nout = %s\n" % (pfile, tmp_path / "pm"),
        )
        code, _, err = run(["kernel", "--config", cfg], capsys)
        assert code == 2
        assert "do not match" in err

    def test_dirac_csv_short_row(self, tmp_path, capsys):
        lines = ["x,p_re,p_im,q_re,q_im"] + ["%.17g,0,0,1,0" % x for x in np.linspace(0, 1, 51)]
        lines[8] = lines[8].rsplit(",", 2)[0]
        pfile = tmp_path / "pot.csv"
        pfile.write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path,
            "potential_file = %s\nM = 50\nout = %s\n" % (pfile, tmp_path / "ps"),
        )
        code, _, err = run(["kernel", "--config", cfg], capsys)
        assert code == 2
        assert err.count("\n") == 1 and "bad potential file" in err


def test_entry_point_smoke(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("p_expr = 0\nq_expr = 0\nM = 50\nN = 2\nout = %s\n" % (tmp_path / "ep"))
    # the child runs from tmp_path, so the package path must be absolute
    package_dir = os.path.dirname(os.path.abspath(diracnsbf.__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package_dir))
    proc = subprocess.run(
        [sys.executable, "-m", "diracnsbf", "kernel", "--config", str(cfg)],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_runtime_imports_numpy_only(tmp_path):
    """The commands run with scipy, mpmath and hypothesis refused by an
    import hook: the runtime is numpy-only, whatever the tests install."""
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        "p_expr = sin(pi*x)\nq_expr = cos(pi*x)\nM = 100\nN = 8\n"
        "bc_left = 1,0;0,0\nbc_right = 0,0;1,0\nlambda_min = -10\nlambda_max = 10\n"
        "out = %s\n" % (tmp_path / "np")
    )
    code = """
import importlib.abc, sys

REFUSED = {"scipy", "mpmath", "hypothesis"}


class Refuse(importlib.abc.MetaPathFinder):
    # every attempt counts, also one whose ImportError the caller catches
    attempted = []

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in REFUSED:
            self.attempted.append(name)
            raise ImportError("refused: " + name)


sys.meta_path.insert(0, Refuse())
from diracnsbf.cli import main

commands = (["kernel"], ["solve", "--lambdas=-2,1+1i"], ["spectrum"], ["validate"])
codes = [main(argv + ["--config", sys.argv[1]]) for argv in commands]
loaded = sorted(m for m in sys.modules if m.partition(".")[0] in REFUSED)
print("exit codes", codes, "attempted", Refuse.attempted, "loaded", loaded)
"""
    package_dir = os.path.dirname(os.path.abspath(diracnsbf.__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package_dir))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(cfg)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit codes [0, 0, 0, 0] attempted [] loaded []"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_main_keeps_freed_memory_for_the_next_command(tmp_path):
    """After main, temporaries below 32 MiB reuse freed heap memory: the
    dynamic thresholds would be set by a freed 1 MiB array and trim the
    heap top after each group of 0.96 MB arrays, faulting it in again."""
    cfg = tmp_path / "p.cfg"
    cfg.write_text("p_expr = 0\nq_expr = 0\nM = 50\nN = 2\nout = %s\n" % (tmp_path / "m"))
    code = """
import resource, sys
import numpy as np
from diracnsbf.cli import main
assert main(["kernel", "--config", sys.argv[1]]) == 0
np.ones(1 << 17)
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(120_000) for _ in range(4)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(max(faults[1:]))
"""
    package_dir = os.path.dirname(os.path.abspath(diracnsbf.__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package_dir))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(cfg)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 50
