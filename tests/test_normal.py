import statistics

import numpy as np
import pytest
import scipy.special

from densfda.normal import ndtr, ndtri

U = 2.0**-53  # unit roundoff of binary64

# ndtri against SciPy: SciPy's Cephes ndtri documents a peak relative error
# of 7.2e-16; AS241 approximates the quantile to about 1e-16, and our
# evaluation rounds at most 30 times (two Horner sums of degree 7 over
# nonnegative terms, 14 roundings each, then q·N/D), each by at most U
NDTRI_RTOL = 7.2e-16 + 1e-16 + 30 * U


def _ndtr_rtol(x):
    """Relative bound of ndtr against SciPy at x, derived below.

    SciPy's Cephes erfc forms exp(−t²), t = x/√2, from the rounded t², whose
    absolute error t²·U moves the result by the relative t²·U; the C
    library's erfc splits t² and is within one ulp (2U).  For |t| < 1 Cephes
    returns ½ + ½·erf(t), whose cancellation magnifies erf's documented
    3.7e-16 by up to erf(1)/erfc(1) = 5.36, that is 18U.  With the C
    library's 2U and two roundings of the halving and the sum that is 22U;
    the constant is 24U.
    """
    t = x * np.sqrt(0.5)
    return (t * t + 24.0) * U


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def probabilities():
    """p in (0, 1): a grid, uniform draws, and log-uniform draws into both
    tails, the lower one down to 1e-300 (AS241's far branch is p < 1.4e-11)."""
    gen = np.random.default_rng(11)
    p = np.concatenate([
        np.linspace(0.0, 1.0, 20_001)[1:-1],
        gen.random(20_000),
        10.0 ** gen.uniform(-300.0, 0.0, 20_000),
        1.0 - 10.0 ** gen.uniform(-16.0, 0.0, 5_000),
        [1e-300, 5e-324, 2.2250738585072014e-308, np.nextafter(1.0, 0.0), np.nextafter(0.5, 0.0),
         0.075, 0.925, np.exp(-25.0)],
    ])
    return p[(p > 0.0) & (p < 1.0)]


class TestNdtri:
    def test_equals_the_standard_library_bit_for_bit(self, probabilities):
        inv_cdf = statistics.NormalDist().inv_cdf
        want = np.array([inv_cdf(p) for p in probabilities.tolist()])
        assert np.array_equal(_bits(ndtri(probabilities)), _bits(want))

    def test_keeps_the_shape(self, probabilities):
        p = probabilities[:24].reshape(2, 3, 4)
        got = ndtri(p)
        assert got.shape == (2, 3, 4)
        assert np.array_equal(_bits(got), _bits(ndtri(p.ravel())).reshape(2, 3, 4))
        assert ndtri(0.975).shape == ()
        assert ndtri(np.empty((0, 3))).shape == (0, 3)

    def test_agrees_with_scipy(self, probabilities):
        want = scipy.special.ndtri(probabilities)
        assert np.all(np.abs(ndtri(probabilities) - want) <= NDTRI_RTOL * np.abs(want))

    @pytest.mark.filterwarnings("error")
    def test_ends_and_invalid_inputs(self):
        p = np.array([0.0, -0.0, 1.0, np.nan, -0.1, 1.1, -np.inf, np.inf, -1e300, 1e300, 0.5])
        got = ndtri(p)
        np.testing.assert_array_equal(got[:3], [-np.inf, -np.inf, np.inf])
        assert np.isnan(got[3:-1]).all()
        assert got[-1] == 0.0
        np.testing.assert_array_equal(scipy.special.ndtri(p[:3]), got[:3])


class TestNdtr:
    def test_agrees_with_scipy(self, rng):
        # down to x = −37, where Φ(x) ≈ 5.7e-300 is still a normal float
        x = np.concatenate([np.linspace(-37.0, 38.0, 150_001), rng.uniform(-37.0, 38.0, 50_000)])
        want = scipy.special.ndtr(x)
        assert np.all(np.abs(ndtr(x) - want) <= _ndtr_rtol(x) * want)

    @pytest.mark.filterwarnings("error")
    def test_ends_and_invalid_inputs(self):
        got = ndtr(np.array([-np.inf, np.inf, np.nan, -1e308, 1e308, 0.0]))
        np.testing.assert_array_equal(got[:2], [0.0, 1.0])
        assert np.isnan(got[2])
        np.testing.assert_array_equal(got[3:], [0.0, 1.0, 0.5])
        assert ndtr(1.0).shape == ()
