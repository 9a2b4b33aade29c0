import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from diracnsbf.special import _UPWARD_IM_CAP, bessel_pair_batch, legendre_seq

from formal_powers import LEGENDRE_DEGREE_CAP, legendre_monomial_coeffs


def legendre_eval(n, s):
    """P_n(s) by the three-term recurrence, s in [-1, 1] (scalar or array)."""
    if n < 0:
        raise ValueError("Legendre degree must be >= 0")
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(s) > 1.0 + 1e-12):
        raise ValueError("Legendre argument outside [-1, 1]")
    out = legendre_seq(s, n)[n]
    if out.ndim == 0:
        return float(out)
    return out


def jn_seq(z, n_max):
    """j_0(z)..j_{n_max}(z) at one argument, from the batch engine."""
    return bessel_pair_batch(np.array([z], dtype=complex), n_max)[0][:, 0]


def over_arg(z, n_max):
    """j_n(z)/z for n = 0..n_max at one argument, from the batch engine."""
    return bessel_pair_batch(np.array([z], dtype=complex), n_max)[1][:, 0]


# Closed forms used as oracles for the low orders.
def j0_exact(z):
    return np.sin(z) / z


def j1_exact(z):
    return np.sin(z) / z**2 - np.cos(z) / z


def j2_exact(z):
    return (3 / z**3 - 1 / z) * np.sin(z) - 3 / z**2 * np.cos(z)


class TestSphericalBesselSeq:
    def test_zero_argument_limits(self):
        np.testing.assert_allclose(jn_seq(0.0, 3), [1.0, 0.0, 0.0, 0.0], atol=0)

    def test_j0_at_2(self):
        # oracle: sin(2)/2 = 0.45464871341284085
        assert abs(jn_seq(2.0, 0)[0] - 0.45464871341284085) < 1e-13

    def test_j2_at_1(self):
        # oracle: (3 - 1) sin 1 - 3 cos 1 = 0.062035052011373861
        v = jn_seq(1.0, 2)
        assert abs(v[2] - j2_exact(1.0)) < 1e-13
        assert abs(v[2] - 0.06203505201137386) < 1e-12

    def test_j0_imaginary_argument(self):
        # oracle: sin(i)/i = sinh(1) = 1.1752011936438014
        assert abs(jn_seq(1j, 0)[0] - 1.1752011936438014) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            bessel_pair_batch(np.array([np.nan]), 2)
        with pytest.raises(ValueError):
            bessel_pair_batch(np.array([1.0, complex(np.inf, 0.0)]), 2)
        with pytest.raises(ValueError):
            bessel_pair_batch(np.array([1.0]), -1)

    @pytest.mark.parametrize("z", [0.3, 2.0, 17.5, 250.0, 1000.0])
    def test_against_scipy_real(self, z):
        n = np.arange(61)
        v = jn_seq(z, 60)
        ref = sp.spherical_jn(n, z)
        scale = np.maximum(np.abs(ref), 1e-300)
        err = np.abs(v - ref) / np.maximum(scale, 1e-12 * np.max(scale))
        assert np.max(err) < 1e-12

    @pytest.mark.parametrize("z", [1.0 + 1.0j, 5.0 - 2.0j, 40.0 + 3.0j, 0.01 + 0.02j])
    def test_against_scipy_complex(self, z):
        n = np.arange(31)
        v = jn_seq(z, 30)
        ref = sp.spherical_jn(n, z)
        assert np.max(np.abs(v - ref) / np.maximum(np.abs(ref), 1e-280)) < 1e-11

    @pytest.mark.parametrize("n_max", [1, 3, 9, 17])
    @pytest.mark.parametrize("z", [423.0, -399.0, 999.5, 423.0 + 1.0j, 999.0 + 1.0j])
    def test_large_argument_low_order(self, z, n_max):
        # few orders far below |z|: the eigenvalue scan's regime; the error
        # is measured against the amplitude of the sequence
        ref = sp.spherical_jn(np.arange(n_max + 1), z)
        err = np.max(np.abs(jn_seq(z, n_max) - ref)) / np.max(np.abs(ref))
        assert err < 1e-12

    def test_near_sin_zero_normalization(self):
        # j0(z) nearly vanishes at z = k pi; values must stay accurate.
        for k in (1, 5, 31):
            z = k * np.pi * (1 + 1e-13)
            ref = sp.spherical_jn(np.arange(13), z)
            assert np.max(np.abs(jn_seq(z, 12) - ref)) < 1e-13

    def test_recurrence_residual_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = complex(rng.uniform(-30, 30), rng.uniform(-3, 3))
            if abs(z) < 1e-3:
                continue
            v = jn_seq(z, 24)
            for n in range(1, 24):
                resid = abs(v[n - 1] + v[n + 1] - (2 * n + 1) / z * v[n])
                assert resid <= 1e-12 * max(1.0, abs(v[n]))

    def test_j0_times_z_is_sin(self):
        for z in (0.5, 3.3, 20.0, 2.0 + 1.0j):
            v = jn_seq(z, 0)[0]
            assert abs(v * z - np.sin(z)) <= 1e-13 * abs(np.sin(z))

    def test_upward_recurrence_cross_check(self):
        # Upward recurrence from the generated j0, j1 reproduces the
        # sequence in the oscillatory regime n <= |z|.
        rng = np.random.default_rng(11)
        for _ in range(12):
            z = complex(rng.uniform(0.5, 50.0), 0.0)
            nmax = int(abs(z))
            if nmax < 2:
                continue
            v = jn_seq(z, nmax)
            up = np.empty_like(v)
            up[0], up[1] = v[0], v[1]
            for n in range(1, nmax):
                up[n + 1] = (2 * n + 1) / z * up[n] - up[n - 1]
            assert np.max(np.abs(up - v) / np.max(np.abs(v))) < 1e-10

    def test_normalization_partial_sums(self):
        # sum_n (2n+1) j_n(x)^2 = 1 for real x: partial sums are monotone
        # nondecreasing and bounded by 1 + tol.
        for x in (0.7, 4.0, 12.5):
            v = jn_seq(x, 40).real
            weights = 2 * np.arange(41) + 1
            partial = np.cumsum(weights * v**2)
            assert np.all(np.diff(partial) >= -1e-15)
            assert partial[-1] <= 1 + 1e-12

    def test_high_order_small_argument(self):
        # deep in the decay regime the values underflow cleanly to zero
        v = jn_seq(1e-3, 256)
        assert v[256] == 0.0
        assert abs(v[0] - j0_exact(1e-3)) < 1e-15

    @pytest.mark.parametrize("z", [7.0, 300.0, 995.0])
    def test_order_cap_against_scipy(self, z):
        # the full contract envelope: n_max = 256, |z| up to 1e3, with
        # 12 significant digits everywhere above the underflow regime
        n = np.arange(257)
        v = jn_seq(z, 256)
        ref = sp.spherical_jn(n, z)
        meaningful = np.abs(ref) > 1e-290
        err = np.abs(v[meaningful] - ref[meaningful]) / np.abs(ref[meaningful])
        assert np.max(err) < 1e-12


def _route_sample():
    """Arguments on every side of the routing boundaries, |z| up to 3e4."""
    rng = np.random.default_rng(20261018)
    cap = _UPWARD_IM_CAP
    sign = lambda k: rng.choice([-1.0, 1.0], k)
    im = cap * np.concatenate([rng.uniform(0.5, 1.0, 60), rng.uniform(1.0, 2.5, 60)])
    mod = im + rng.uniform(0.0, 3e3, 120)
    mod[::3] = im[::3] + rng.uniform(0.0, 30.0, 40)
    cpx = np.sqrt(mod**2 - im**2) * sign(120) + 1j * im * sign(120)
    pure_im = 1j * rng.uniform(0.5, 2.5 * cap, 40) * sign(40)
    real = np.concatenate([rng.uniform(0.5, 100.0, 40), np.geomspace(100.0, 3e4, 40)])
    im_one = np.geomspace(4.0, 3e4, 60) + 1.0j
    return np.concatenate([cpx, pure_im, real * sign(80), im_one])


class TestRouteAccuracy:
    @pytest.mark.parametrize("n_max", [1, 3, 13, 17, 33, 65])
    def test_against_scipy_across_routes(self, n_max):
        # error relative to the amplitude of each argument's sequence; real
        # arguments are checked against scipy's real routine.  At
        # n_max = 65 and |z| in the thousands the complex scipy reference
        # itself limits the comparison to about 6e-13.
        z = _route_sample()
        n = np.arange(n_max + 1)[:, None]
        ref = np.where(z.imag == 0, sp.spherical_jn(n, z.real), sp.spherical_jn(n, z))
        jn = bessel_pair_batch(z, n_max)[0]
        err = np.max(np.abs(jn - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert np.max(err) < (1e-12 if n_max <= 33 else 6.8e-13)


class TestOverArg:
    def test_zero_argument(self):
        vals = over_arg(0.0, 2)
        assert vals[1] == pytest.approx(1 / 3, abs=1e-15)
        assert vals[2] == 0.0

    def test_at_2(self):
        vals = over_arg(2.0, 1)
        assert abs(vals[1] - j1_exact(2.0) / 2.0) < 1e-13
        assert abs(vals[1] - 0.21769888748999582) < 1e-12

    def test_tiny_argument(self):
        vals = over_arg(1e-9, 1)
        assert abs(vals[1] - 1 / 3) < 1e-12

    def test_matches_division_above_cutoff(self):
        z = np.array([0.6, 3.0, 25.0, 1.0 + 2.0j])
        jn, jz = bessel_pair_batch(z, 10)
        np.testing.assert_allclose(jz[1:], jn[1:] / z, rtol=1e-12)

    def test_branches_agree_near_cutoff(self):
        # series branch (|z| < 0.5) against the recurrences just above
        for z in (0.499, 0.501, 0.3, 0.49 + 0.05j):
            vals = over_arg(z, 8)
            ref = sp.spherical_jn(np.arange(1, 9), z) / z
            np.testing.assert_allclose(vals[1:], ref, rtol=1e-12, atol=1e-300)


class TestBesselPair:
    def test_real_arguments_give_float64(self):
        # float64 in, float64 out, bit for bit the real part of the values
        # the same arguments get as complex ones
        z = np.r_[0.0, 1e-7, -0.3, 0.45, np.linspace(-3e4, 3e4, 2001), 423.0]
        for n_max in (1, 17, 65):
            real = bessel_pair_batch(z, n_max)
            cplx = bessel_pair_batch(z.astype(complex), n_max)
            for r, c in zip(real, cplx):
                assert r.dtype == np.float64 and c.dtype == np.complex128
                assert not c.imag.any()
                np.testing.assert_array_equal(r.view(np.uint64), c.real.copy().view(np.uint64))
        assert bessel_pair_batch(np.array([2.0 + 1j]), 3)[0].dtype == np.complex128

    def test_pair_consistency(self):
        z = np.array([0.0, 1e-5, 0.2, 0.8, 10.0, 3.0 - 1.0j])
        jn, jz = bessel_pair_batch(z, 12)
        for i, zi in enumerate(z):
            ref = sp.spherical_jn(np.arange(13), zi)
            np.testing.assert_allclose(jn[:, i], ref, rtol=1e-11, atol=1e-300)
            if zi != 0:
                np.testing.assert_allclose(jz[1:, i], jn[1:, i] / zi, rtol=1e-11, atol=1e-300)

    def test_batch_matches_scalar(self):
        # a mixed batch (series, upward-only and Miller arguments) gives
        # each argument the values it gets on its own
        z = np.array([0.0, 1e-6, 0.3, 0.7, 5.0, 80.0, 2.0 + 0.5j, 600.0 + 1.0j])
        jn_b, jz_b = bessel_pair_batch(z, 9)
        for i, zi in enumerate(z):
            np.testing.assert_allclose(jn_b[:, i], jn_seq(zi, 9), rtol=1e-13, atol=1e-300)
            np.testing.assert_allclose(jz_b[:, i], over_arg(zi, 9), rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("n_max", [1, 13, 17, 65])
    def test_batch_equals_single_calls_bitwise(self, n_max):
        # every route in one batch: z = 0 and series; real upward and real
        # Miller; complex under and above the cap; pure imaginary
        cap = _UPWARD_IM_CAP
        z = np.array(
            [0.0, 1e-7, -0.3, 0.2 + 0.3j, 0.45j]
            + [0.7, -2.5, 3.9, 5.0, -12.0, 20.0, 80.0, -423.0, 3e4]
            + [7.0 + 3.0j, -40.0 + 0.99 * cap * 1j, 390.0 + 1.0j, 3e4 - 1.0j]
            + [1.0 - 1.0j, 25.0 + 1.01 * cap * 1j, -60.0 - 2.5 * cap * 1j, 600.0 + 100.0j]
            + [2.0j, -0.5 * cap * 1j, 1.5 * cap * 1j, -300.0j]
        )
        bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
        jn_b, jz_b = bessel_pair_batch(z, n_max)
        for i in range(len(z)):
            jn_1, jz_1 = bessel_pair_batch(z[i : i + 1], n_max)
            np.testing.assert_array_equal(bits(jn_b[:, i]), bits(jn_1[:, 0]))
            np.testing.assert_array_equal(bits(jz_b[:, i]), bits(jz_1[:, 0]))
        # past 256 KiB of arguments numpy may reuse a temporary as an output
        # with the operands swapped; the values must not notice
        big = np.r_[z, np.linspace(-400.0, 400.0, 16385) + 1.0j]
        jn_big, jz_big = bessel_pair_batch(big, n_max)
        for s in range(0, len(big), 2001):
            jn_1, jz_1 = bessel_pair_batch(big[s : s + 2001], n_max)
            np.testing.assert_array_equal(bits(jn_big[:, s : s + 2001]), bits(jn_1))
            np.testing.assert_array_equal(bits(jz_big[:, s : s + 2001]), bits(jz_1))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.complex_numbers(
            min_magnitude=1e-8, max_magnitude=60.0, allow_nan=False, allow_infinity=False
        )
    )
    def test_recurrence_property(self, z):
        jn = jn_seq(z, 16)
        for n in range(1, 16):
            resid = abs(jn[n - 1] + jn[n + 1] - (2 * n + 1) / z * jn[n])
            assert resid <= 1e-12 * max(1.0, abs(jn[n]))


class TestLegendre:
    def test_p0_constant(self):
        assert legendre_eval(0, 0.3) == 1.0

    def test_pn_at_one(self):
        for n in (0, 1, 5, 17, 40):
            assert legendre_eval(n, 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_p2_at_half(self):
        # oracle: (3 s^2 - 1)/2 at s = 0.5
        assert legendre_eval(2, 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            legendre_eval(3, 1.5)
        with pytest.raises(ValueError):
            legendre_eval(-1, 0.0)

    def test_against_scipy(self):
        s = np.linspace(-1, 1, 41)
        for n in range(12):
            np.testing.assert_allclose(
                legendre_eval(n, s), sp.eval_legendre(n, s), atol=1e-13
            )

    def test_seq_shape(self):
        s = np.linspace(-1, 1, 7)
        out = legendre_seq(s, 5)
        assert out.shape == (6, 7)
        np.testing.assert_allclose(out[1], s, atol=0)


class TestMonomialTable:
    def test_low_rows(self):
        t = legendre_monomial_coeffs(3)
        np.testing.assert_allclose(t.row(1), [0.0, 1.0, 0.0, 0.0], atol=0)
        np.testing.assert_allclose(t.row(2), [-0.5, 0.0, 1.5, 0.0], atol=0)
        np.testing.assert_allclose(t.row(3), [0.0, -1.5, 0.0, 2.5], atol=0)

    def test_row_sums_are_one(self):
        # exact in rational arithmetic; the float emission rounds at eps
        # times the largest coefficient in the row
        t = legendre_monomial_coeffs(30)
        for n in range(31):
            tol = 1e-13 * max(1.0, np.max(np.abs(t.row(n))))
            assert abs(t.row(n).sum() - 1.0) <= tol

    def test_pn_at_minus_one(self):
        t = legendre_monomial_coeffs(25)
        signs = (-1.0) ** np.arange(26)
        vals = [np.polyval(t.row(n)[::-1], -1.0) for n in range(26)]
        np.testing.assert_allclose(vals, signs, atol=1e-13)

    def test_upper_triangle_zero(self):
        t = legendre_monomial_coeffs(10)
        for n in range(11):
            assert np.all(t.row(n)[n + 1 :] == 0.0)

    def test_matches_eval(self):
        # table polynomial against the recurrence for n <= 20
        t = legendre_monomial_coeffs(20)
        s = np.linspace(-1, 1, 17)
        for n in range(21):
            poly = np.polyval(t.row(n)[: n + 1][::-1], s)
            np.testing.assert_allclose(poly, legendre_eval(n, s), atol=1e-10)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            legendre_monomial_coeffs(LEGENDRE_DEGREE_CAP + 1)
        with pytest.raises(ValueError):
            legendre_monomial_coeffs(-1)
