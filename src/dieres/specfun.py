"""Complex-argument spherical Bessel/Hankel functions, Riccati combinations,
real Bessel zeros, and scalar/vector spherical harmonics.

All evaluators are elementwise over numpy arrays (scalars in, scalars out).
Every radial function of order n reads f_{n-1} and f_n from one pass per
argument, chosen element by element:

- j_n for |z| <= 1: the ascending power series;
- j_n for n <= 2 and |z| > 1, or for |Re z| >= n and |Im z| <= 0.1 |Re z|,
  and y_n and h_n^(1) everywhere: upward recurrence from the closed forms of
  f_0 and f_1 (one loop shared by the three kinds; growth in the order keeps
  it stable for y and h, and for j only while the argument is near the real
  axis and past the order);
- j_n otherwise: one normalized downward (Miller) recurrence that yields
  j_{n-1} and j_n together.

See Wiscombe, Appl. Opt. 19, 1505 (1980) for the recurrence choices.
"""

import math
import threading

import numpy as np

MAX_ORDER = 64
# e^{|Im z|} factors in sin/cos/exp overflow doubles past this.
_IM_OVERFLOW = 700.0
# Riccati combination F_0 = z f_{-1} of each kind: j_{-1} = cos z / z,
# y_{-1} = sin z / z, h_{-1}^(1) = e^{iz} / z.
_RICCATI_0 = {"j": np.cos, "y": np.sin, "h": lambda z: np.exp(1j * z)}


def _flatten(z):
    arr = np.asarray(z, dtype=np.complex128)
    return arr.ravel(), arr.shape, arr.ndim == 0


def _restore(flat, shape, scalar):
    if scalar:
        return complex(flat[0])
    return flat.reshape(shape)


def _check_args(n, z):
    if n < 0:
        raise ValueError("order n must be >= 0")
    if n > MAX_ORDER:
        raise ValueError(f"order n={n} exceeds supported maximum {MAX_ORDER}")
    if (np.abs(z.imag) > _IM_OVERFLOW).any():
        raise OverflowError("spherical Bessel argument overflows double range")


def _jn_series(n, z):
    # ascending series j_n(z) = z^n/(2n+1)!! * sum_k (-z^2/2)^k / (k! (2n+3)...(2n+2k+1))
    term = np.ones_like(z)
    acc = np.ones_like(z)
    z2 = -0.5 * z * z
    for k in range(1, 40):
        term = term * z2 / (k * (2 * n + 2 * k + 1))
        acc = acc + term
        if np.max(np.abs(term)) < 1e-18 * max(np.max(np.abs(acc)), 1e-300):
            break
    return acc * z ** n / _double_factorial(2 * n + 1)


def _double_factorial(k):
    if k <= 0:
        return 1.0
    return float(math.prod(range(k, 0, -2)))


def _series(n, z):
    return _jn_series(n - 1, z), _jn_series(n, z)


def _closed(kind, z):
    """f_0 and f_1 in closed form (z nonzero)."""
    if kind == "h":
        e = np.exp(1j * z)
        return -1j * e / z, -e * (z + 1j) / z ** 2
    s, c = np.sin(z), np.cos(z)
    if kind == "j":
        return s / z, s / z ** 2 - c / z
    return -c / z, -c / z ** 2 - s / z


def _upward(n, z, kind="j"):
    fm, f = _closed(kind, z)
    for k in range(1, n):
        fm, f = f, (2 * k + 1) / z * f - fm
    return fm, f


def _jn_miller(n, z):
    # downward recurrence from a padded start order, normalized against the
    # larger of j_0/j_1 to dodge zeros of the reference.  With |z| > 1 a step
    # grows the larger of the two iterates by less than 2k + 2, and this
    # regime has |Re z| < max(n, 10 |Im z|) <= 7000, so k < 7200: eight steps
    # from below 1e250 stay below 1e284 and the rescaling test runs every
    # eighth step.
    start = n + 30 + int(np.max(np.abs(z)))
    f_hi = np.zeros_like(z)
    f_lo = np.full_like(z, 1e-280)
    kept = {}
    for k in range(start, 0, -1):
        f_hi, f_lo = f_lo, (2 * k + 1) / z * f_lo - f_hi
        if k - 1 in (n, n - 1, 1, 0):
            kept[k - 1] = f_lo.copy()
        if k % 8 == 0:
            big = np.maximum(np.abs(f_lo), np.abs(f_hi)) > 1e250
            if big.any():
                for arr in (f_lo, f_hi, *kept.values()):
                    arr[big] *= 1e-250
    j0, j1 = _closed("j", z)
    use0 = np.abs(j0) >= np.abs(j1)
    scale = np.where(use0, j0, j1) / np.where(use0, kept[0], kept[1])
    return kept[n - 1] * scale, kept[n] * scale


def _pass(n, z, kind):
    """(f_{n-1}, f_n), n >= 1, of the flat array z from one pass per element."""
    if kind not in _RICCATI_0:
        raise ValueError(f"unknown kind {kind!r}")
    if kind != "j":
        if (z == 0).any():
            raise ZeroDivisionError(f"{'y_n' if kind == 'y' else 'h_n^(1)'} has a pole at z = 0")
        return _upward(n, z, kind)
    small = np.abs(z) <= 1.0
    if n <= 2:
        upward = ~small
    else:
        re = np.abs(z.real)
        upward = (re >= n) & (np.abs(z.imag) <= 0.1 * re)
    prev, f = np.empty_like(z), np.empty_like(z)
    for mask, method in ((upward, _upward), (small, _series), (~(small | upward), _jn_miller)):
        if mask.any():
            if mask.all():
                return method(n, z)
            prev[mask], f[mask] = method(n, z[mask])
    return prev, f


def _one_pass(n, z, kind):
    """Flat z, (f_{n-1}, f_n) of one pass (f_0 first for n = 0) and the
    function that gives a result z's shape."""
    flat, shape, scalar = _flatten(z)
    _check_args(n, flat)
    return flat, _pass(max(n, 1), flat, kind), lambda a: _restore(a, shape, scalar)


def _value(n, z, kind):
    _, (prev, f), restore = _one_pass(n, z, kind)
    return restore(f if n else prev)


def sph_bessel_j(n: int, z) -> complex:
    """Spherical Bessel function of the first kind j_n(z), complex z allowed."""
    return _value(n, z, "j")


def sph_bessel_y(n: int, z) -> complex:
    """Spherical Bessel function of the second kind y_n(z); z must be nonzero."""
    return _value(n, z, "y")


def sph_hankel1(n: int, z) -> complex:
    """Spherical Hankel function of the first kind h_n^(1)(z); z nonzero.

    Computed by upward recurrence from the closed forms of h_0, h_1 so that
    j + iy cancellation is avoided for Im z > 0.
    """
    return _value(n, z, "h")


def radial_pair(n: int, z, kind: str = "j"):
    """f_n(z) and its Riccati combination F_n(z) = f_n(z) + z f_n'(z)
    = z f_{n-1}(z) - n f_n(z), both from one recurrence pass, for f = j
    (kind "j"), y ("y") or h^(1) ("h")."""
    flat, (prev, f), restore = _one_pass(n, z, kind)
    if n == 0:
        return restore(prev), restore(_RICCATI_0[kind](flat))
    return restore(f), restore(flat * prev - n * f)


def _derivative(n, z, kind):
    # f_n' = f_{n-1} - (n+1)/z f_n from the pass of radial_pair, f_0' = -f_1
    flat, (prev, f), restore = _one_pass(n, z, kind)
    if n == 0:
        return restore(-f)
    out = np.zeros_like(flat)
    zero = flat == 0
    if n == 1:
        out[zero] = 1.0 / 3.0
    nz = ~zero
    out[nz] = prev[nz] - (n + 1) / flat[nz] * f[nz]
    return restore(out)


def sph_bessel_jp(n: int, z) -> complex:
    """Derivative j_n'(z) via the recurrence j_n' = j_{n-1} - (n+1)/z j_n."""
    return _derivative(n, z, "j")


def sph_bessel_yp(n: int, z) -> complex:
    """Derivative y_n'(z) via the same recurrence."""
    return _derivative(n, z, "y")


def riccati_J(n: int, z) -> complex:
    """Trace combination j_n(z) + z j_n'(z), reduced to z j_{n-1}(z) - n j_n(z)."""
    return radial_pair(n, z, "j")[1]


def riccati_H(n: int, z) -> complex:
    """Trace combination h_n^(1)(z) + z (h_n^(1))'(z) = z h_{n-1}^(1)(z) - n h_n^(1)(z)."""
    return radial_pair(n, z, "h")[1]


def small_arg_leading(n: int, t, kind: str) -> complex:
    """Two-term small-argument expansion of j, h, J (Riccati-j) or H (Riccati-h).

    Returns the literal leading term times (1 + correction * t^2); for the
    Hankel kinds this is the singular part only, so the relative error of the
    true function against it carries an extra O(t^(2n+1)) cross term.
    """
    t = np.asarray(t, dtype=complex)
    if kind == "j":
        res = t ** n / _double_factorial(2 * n + 1) * (1 - t * t / (2 * (2 * n + 3)))
    elif kind == "h":
        res = -1j * _double_factorial(2 * n - 1) / t ** (n + 1) * (1 + t * t / (2 * (2 * n - 1)))
    elif kind == "J":
        res = t ** n / _double_factorial(2 * n + 1) * ((n + 1) - (n + 3) * t * t / (2 * (2 * n + 3)))
    elif kind == "H":
        res = -1j * _double_factorial(2 * n - 1) / t ** (n + 1) * (-n - (n - 2) * t * t / (2 * (2 * n - 1)))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return complex(res) if res.ndim == 0 else res


class _BesselZeroTable:
    """Positive zeros of j_n, built row by row from the interlacing brackets
    k_{n-1,s} < k_{n,s} < k_{n-1,s+1}.  Thread-safe; rows grow on demand."""

    def __init__(self):
        self._rows = {}
        self._lock = threading.RLock()

    def zero(self, n, s):
        if n < 0 or s < 1:
            raise ValueError("need n >= 0 and s >= 1")
        with self._lock:
            row = self._rows.setdefault(n, [])
            while len(row) < s:
                row.append(self._next_zero(n, len(row) + 1))
            return row[s - 1]

    def _next_zero(self, n, s):
        if n == 0:
            return s * math.pi
        lo = self.zero(n - 1, s)
        hi = self.zero(n - 1, s + 1)
        return _refine_zero(n, lo, hi)


def _jn_real(n, x):
    return sph_bessel_j(n, complex(x)).real


def _refine_zero(n, lo, hi):
    flo = _jn_real(n, lo)
    fhi = _jn_real(n, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise RuntimeError("bracket does not straddle a zero of j_n")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = _jn_real(n, mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-14 * mid:
            break
    root = 0.5 * (lo + hi)
    # one Newton polish; the derivative never vanishes at a simple zero
    for _ in range(2):
        d = sph_bessel_jp(n, complex(root)).real
        root -= _jn_real(n, root) / d
    return root


_ZERO_TABLE = _BesselZeroTable()


def bessel_zero(n: int, s: int) -> float:
    """s-th positive zero k_{n,s} of the spherical Bessel function j_n."""
    return _ZERO_TABLE.zero(n, s)


# ---------------------------------------------------------------------------
# spherical harmonics
# ---------------------------------------------------------------------------

def angles_to_unit(theta, phi):
    """Unit vector (sin t cos p, sin t sin p, cos t) for polar/azimuthal angles."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=-1,
    )


def _direction_frame(x):
    """cos(theta), sin(theta), phi and the local (theta-hat, phi-hat) frame."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValueError("directions must have a trailing axis of length 3")
    r = np.sqrt(np.sum(x * x, axis=-1))
    if np.any(r == 0):
        raise ValueError("zero vector is not a direction")
    xh = x / r[..., None]
    sin_t = np.hypot(xh[..., 0], xh[..., 1])
    cos_t = xh[..., 2]
    phi = np.arctan2(xh[..., 1], xh[..., 0])
    cp, sp = np.cos(phi), np.sin(phi)
    theta_hat = np.stack([cos_t * cp, cos_t * sp, -sin_t], axis=-1)
    phi_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return xh, cos_t, sin_t, phi, theta_hat, phi_hat


def _scaled_alp(n, m, cos_t):
    """Orthonormalized associated Legendre N_n^m divided by sin(theta)^m.

    The sin powers are kept out of the recurrence so that polar evaluations
    stay finite; Condon-Shortley phase is carried by the diagonal ladder.
    """
    q = np.full_like(cos_t, 1.0 / math.sqrt(4 * math.pi), dtype=float)
    for k in range(1, m + 1):
        q = -math.sqrt((2 * k + 1) / (2.0 * k)) * q
    if n == m:
        return q
    q_prev, q = q, math.sqrt(2 * m + 3) * cos_t * q
    for k in range(m + 2, n + 1):
        a = math.sqrt((4 * k * k - 1.0) / (k * k - m * m))
        b = math.sqrt((2 * k + 1.0) * ((k - 1) ** 2 - m * m) / ((2 * k - 3.0) * (k * k - m * m)))
        q_prev, q = q, a * cos_t * q - b * q_prev
    return q


def _harmonic_nonneg(n, m, cos_t, sin_t, phi):
    q = _scaled_alp(n, m, cos_t)
    return q * sin_t ** m * np.exp(1j * m * phi)


def sph_harmonic(n: int, m: int, x) -> complex:
    """Orthonormal spherical harmonic Y_n^m evaluated at unit direction(s) x.

    x is a Cartesian (..., 3) array (use angles_to_unit for the angle form).
    """
    if abs(m) > n:
        raise ValueError(f"|m| = {abs(m)} exceeds degree n = {n}")
    _, cos_t, sin_t, phi, _, _ = _direction_frame(x)
    y = _harmonic_nonneg(n, abs(m), cos_t, sin_t, phi)
    if m < 0:
        y = (-1) ** (abs(m) % 2) * np.conj(y)
    return complex(y) if np.ndim(y) == 0 else y


def vsh_UV(n: int, m: int, x):
    """Vector spherical harmonics U_n^m = grad_S Y_n^m / sqrt(n(n+1)) and
    V_n^m = x-hat cross U_n^m, evaluated at unit direction(s) x.

    The polar-angle derivative is taken through the m+-1 ladder identity and
    the azimuthal term through the sin-scaled Legendre functions, so the
    evaluation is finite at the poles (no NaN).
    """
    if n < 1:
        raise ValueError("vector harmonics need n >= 1")
    if abs(m) > n:
        raise ValueError(f"|m| = {abs(m)} exceeds degree n = {n}")
    xh, cos_t, sin_t, phi, theta_hat, phi_hat = _direction_frame(x)
    ma = abs(m)
    eip = np.exp(1j * phi)

    y_up = _harmonic_nonneg(n, ma + 1, cos_t, sin_t, phi) if ma + 1 <= n else 0.0
    if ma >= 1:
        y_dn = _harmonic_nonneg(n, ma - 1, cos_t, sin_t, phi)
    else:
        # Y_n^{-1} = -conj(Y_n^1)
        y_dn = -np.conj(_harmonic_nonneg(n, 1, cos_t, sin_t, phi))
    d_theta = 0.5 * (
        math.sqrt((n - ma) * (n + ma + 1)) * y_up / eip
        - math.sqrt((n + ma) * (n - ma + 1)) * y_dn * eip
    )
    if ma >= 1:
        q = _scaled_alp(n, ma, cos_t)
        az = 1j * ma * q * sin_t ** (ma - 1) * np.exp(1j * ma * phi)
    else:
        az = np.zeros_like(cos_t, dtype=complex)
    if m < 0:
        sign = (-1) ** (ma % 2)
        d_theta = sign * np.conj(d_theta)
        az = sign * np.conj(az)

    scale = 1.0 / math.sqrt(n * (n + 1))
    u = scale * (np.asarray(d_theta)[..., None] * theta_hat + np.asarray(az)[..., None] * phi_hat)
    v = np.cross(xh, u)
    return u, v


def vsh_table(n_max: int, x):
    """All (U_n^m, V_n^m) for 1 <= n <= n_max, |m| <= n at direction(s) x.

    One ladder pass per azimuthal order; much cheaper than repeated vsh_UV
    calls when a whole partial-wave table is needed.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if n_max > MAX_ORDER:
        raise ValueError(f"n_max exceeds supported maximum {MAX_ORDER}")
    xh, cos_t, sin_t, phi, theta_hat, phi_hat = _direction_frame(x)
    eip = np.exp(1j * phi)

    q = {}
    diag = np.full_like(cos_t, 1.0 / math.sqrt(4 * math.pi), dtype=float)
    for m in range(0, n_max + 1):
        if m > 0:
            diag = -math.sqrt((2 * m + 1) / (2.0 * m)) * diag
        q[(m, m)] = diag
        if m + 1 <= n_max:
            q[(m + 1, m)] = math.sqrt(2 * m + 3) * cos_t * q[(m, m)]
        for n in range(m + 2, n_max + 1):
            a = math.sqrt((4 * n * n - 1.0) / (n * n - m * m))
            b = math.sqrt((2 * n + 1.0) * ((n - 1) ** 2 - m * m) / ((2 * n - 3.0) * (n * n - m * m)))
            q[(n, m)] = a * cos_t * q[(n - 1, m)] - b * q[(n - 2, m)]

    y = {nm: q[nm] * sin_t ** nm[1] * np.exp(1j * nm[1] * phi) for nm in q}
    out = {}
    for n in range(1, n_max + 1):
        scale = 1.0 / math.sqrt(n * (n + 1))
        for m in range(0, n + 1):
            y_up = y[(n, m + 1)] if m + 1 <= n else 0.0
            y_dn = y[(n, m - 1)] if m >= 1 else -np.conj(y[(n, 1)])
            d_theta = 0.5 * (
                math.sqrt((n - m) * (n + m + 1)) * y_up / eip
                - math.sqrt((n + m) * (n - m + 1)) * y_dn * eip
            )
            if m >= 1:
                az = 1j * m * q[(n, m)] * sin_t ** (m - 1) * np.exp(1j * m * phi)
            else:
                az = np.zeros_like(cos_t, dtype=complex)
            for sign in ((1,) if m == 0 else (1, -1)):
                dt, a = d_theta, az
                if sign < 0:
                    parity = (-1) ** (m % 2)
                    dt = parity * np.conj(d_theta)
                    a = parity * np.conj(az)
                u = scale * (np.asarray(dt)[..., None] * theta_hat + np.asarray(a)[..., None] * phi_hat)
                out[(n, sign * m)] = (u, np.cross(xh, u))
    return out


def solid_harmonic_gradient_deg1(m: int):
    """Constant gradient of the degree-1 solid harmonic |x| Y_1^m."""
    c = 0.5 * math.sqrt(3 / (2 * math.pi))
    if m == -1:
        return np.array([c, -1j * c, 0])
    if m == 0:
        return np.array([0, 0, math.sqrt(2) * c], dtype=complex)
    if m == 1:
        return np.array([-c, -1j * c, 0])
    raise ValueError("degree-1 gradient needs m in {-1, 0, 1}")
