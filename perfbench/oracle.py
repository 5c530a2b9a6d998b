"""Independent references for the benchmark's correctness checks, built on
``scipy.special.spherical_jn``/``spherical_yn`` rather than on ``dieres``.

Imported only after the timed part of a run, so scipy never counts towards
the measured memory.
"""

import math

import numpy as np
from scipy.special import spherical_jn, spherical_yn


def _j(n, z):
    return complex(spherical_jn(n, complex(z)))


def _h(n, z):
    z = complex(z)
    return complex(spherical_jn(n, z) + 1j * spherical_yn(n, z))


def _riccati(f, n, z):
    # f_n(z) + z f_n'(z) = z f_{n-1}(z) - n f_n(z)
    return z * f(n - 1, z) - n * f(n, z)


def _sqrt(z):
    return complex(np.sqrt(complex(z)))


def denominators(n, delta, tau, omega):
    """(D_TE, D_TM, scale_TE, scale_TM); a scale is the sum of the magnitudes
    of the two products that cancel in the denominator."""
    x = delta * omega
    y = x * _sqrt(1 + tau)
    h, bigh = _h(n, x), _riccati(_h, n, x)
    j, bigj = _j(n, y), _riccati(_j, n, y)
    te = (h * bigj, j * bigh)
    tm = (h * bigj / (1 + tau), j * bigh)
    return (te[0] - te[1], tm[0] - tm[1],
            abs(te[0]) + abs(te[1]), abs(tm[0]) + abs(tm[1]))


def radial_factors(n, delta, tau, omega):
    """TE and TM radial Mie factors num/den with their condition estimates
    (sum of cancelling magnitudes over the result, for numerator and
    denominator together)."""
    x = delta * omega
    y = x * _sqrt(1 + tau)
    jx, bigjx = _j(n, x), _riccati(_j, n, x)
    jy, bigjy = _j(n, y), _riccati(_j, n, y)
    hx, bighx = _h(n, x), _riccati(_h, n, x)
    out = []
    for num_terms, den_terms in (
        ((-jy * bigjx, bigjy * jx), (hx * bigjy, -jy * bighx)),
        ((bigjy * jx / (1 + tau), -jy * bigjx), (hx * bigjy / (1 + tau), -jy * bighx)),
    ):
        num, den = sum(num_terms), sum(den_terms)
        cond = (sum(map(abs, num_terms)) / max(abs(num), 1e-300)
                + sum(map(abs, den_terms)) / max(abs(den), 1e-300))
        out.append((num / den, cond))
    return out


def scatter_fn(omega, delta, tau):
    """(8 pi^2/3)(2 j_1 - J_1)/(J_1 + j_1) at the interior argument, with the
    condition of its denominator."""
    t = delta * omega * _sqrt(1 + tau)
    big, small = _riccati(_j, 1, t), _j(1, t)
    den = big + small
    value = 8 * math.pi ** 2 / 3 * (2 * small - big) / den
    return value, (abs(big) + abs(small)) / max(abs(den), 1e-300)
