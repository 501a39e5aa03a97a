"""The standard normal CDF and its inverse on NumPy arrays, without SciPy.

:func:`ndtr` is Φ(x) = ½·erfc(−x/√2), through :func:`math.erfc` one
element at a time: NumPy has no erfc, and every caller passes a few
points, the 2n support ends of the simulated normals or the boundary
nodes of a kernel estimate.  In the lower tail the rounding of x/√2 sets
its relative error, up to about 1.5·x²·2⁻⁵³ (1.8e-13 at x = −37); SciPy's
has the same term.

:func:`ndtri` is Φ⁻¹(p) by Wichura's algorithm AS241 (PPND16, *Applied
Statistics* 37(3), 1988), vectorised: the coefficients, the branches and
the order of every operation are those of the standard library's
:meth:`statistics.NormalDist.inv_cdf`, whose logarithm is also taken
through :mod:`math` (NumPy's can differ in the last bit), so the two
agree bit for bit on (0, 1).  Each branch runs only on its own elements.
``ndtri(0)`` is −inf, ``ndtri(1)`` is +inf, and NaN or a ``p`` outside
[0, 1] gives NaN; neither function warns or raises on any float input.
"""

from __future__ import annotations

import math

import numpy as np

# AS241's rational approximations, each (numerator, denominator) with the
# highest power first: in q = p − ½ for |q| ≤ 0.425, with r = 0.180625 − q²;
# in the tails in r = √(−log min(p, 1 − p)), shifted by 1.6 up to r = 5 and
# by 5 beyond
_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0),
)
_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _horner(coefs, r: np.ndarray) -> np.ndarray:
    """(((c₀·r + c₁)·r + c₂)·r + …) + c₇, in place on one new array."""
    acc = coefs[0] * r
    for c in coefs[1:-1]:
        acc += c
        acc *= r
    acc += coefs[-1]
    return acc


def _elementwise(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` applied to each element of the float array ``a``, in its shape."""
    return np.fromiter(map(fn, a.ravel().tolist()), float, count=a.size).reshape(a.shape)


def ndtr(x) -> np.ndarray:
    """Standard normal CDF Φ(x), elementwise; Φ(±inf) is 1 or 0, Φ(NaN) NaN."""
    x = np.asarray(x, dtype=float)
    return 0.5 * _elementwise(math.erfc, x * -math.sqrt(0.5))


def ndtri(p) -> np.ndarray:
    """Standard normal quantile Φ⁻¹(p), elementwise, by AS241."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    x = np.full(p.shape, np.nan)
    x[p == 0.0] = -np.inf
    x[p == 1.0] = np.inf
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    num = _horner(_CENTRAL[0], r)
    num *= qc
    num /= _horner(_CENTRAL[1], r)
    x[central] = num
    tail = ~central & (p > 0.0) & (p < 1.0)
    pt = p[tail]
    # min(p, 1 − p) is the standard library's "p if q <= 0 else 1 − p"
    r = np.sqrt(-_elementwise(math.log, np.minimum(pt, 1.0 - pt)))
    near, far = r - 1.6, r > 5.0
    t = _horner(_NEAR[0], near) / _horner(_NEAR[1], near)
    t[far] = _horner(_FAR[0], r[far] - 5.0) / _horner(_FAR[1], r[far] - 5.0)
    x[tail] = np.where(pt < 0.5, -t, t)
    return x
