"""Complex-argument spherical Bessel/Hankel functions, Riccati combinations,
real Bessel zeros, and scalar/vector spherical harmonics.

Radial functions come in tables.  radial_table(n_max, z, kind) returns f_0..f_N
and the Riccati combinations F_0..F_N of one kind (j, y or h^(1)) from one pass
per argument; radial_pair and the value and derivative functions index the
rows of that pass.  The pass is chosen element by element from the top order
N (at least 1):

- j for |z| <= 1: the ascending power series at the top two orders, then
  downward recurrence with z^n/(2n+1)!! scaled out (stable for j, with no
  division by z and no underflow but that of z^n/(2n+1)!! itself);
- j for N <= 2 and |z| > 1, or for |Re z| >= N with |Im z| at most
  0.1 |Re z| and at most 2 + 0.1 (|Re z| - N), and y and h^(1) elsewhere:
  upward recurrence from the closed forms of f_0 and f_1 (one loop shared by
  the three kinds; growth in the order keeps it stable for y and h, and for j
  only while the argument is near the real axis and past the order);
- j otherwise: one normalized downward (Miller) recurrence;
- y for |Im z| > 2, and h^(1) for Im z < -2, where the upward loop would pick
  up the other Hankel solution: reflected from j and h^(1) at z or conj z,
  whichever lies in the upper half plane, y = -i (h^(1) - j) and
  h^(1)(z) = 2 j(z) - conj h^(1)(conj z) (compare Amos, ACM TOMS 12, 265
  (1986)).

Element types: a 0-d argument (a Python number, a numpy scalar or a 0-d array)
takes one dispatch, _rows, as a Python complex: plain branches check it and
choose its pass, run with cmath; the Mie denominators and factor table read its
rows.  An array of any shape runs the same passes on arrays of that shape,
never flattened, boolean masks of the same flags (C order, like its ravel)
splitting the elements.  The two agree to rounding.  On both, y and h^(1) past
the double range (high orders at small arguments) raise OverflowError.

See Wiscombe, Appl. Opt. 19, 1505 (1980) for the recurrence choices.
"""

import cmath
import functools
import math
import operator
from typing import NamedTuple

import numpy as np

MAX_ORDER = 64
# e^{|Im z|} factors in sin/cos/exp overflow doubles past this.
_IM_OVERFLOW = 700.0
# |Im z| past which y, and h^(1) below the axis, are reflected and upward j
# needs distance past the order: upward errors grow like e^{2 |Im z|} eps there.
# Resonant and lossy arguments stay well inside.
_OFF_AXIS = 2.0
# for |z| <= 1 term k of the series is at most 1/(2k+1)! and the sum is above
# 0.8, so the terms past the tenth add less than 1e-22 of it
_SERIES_TERMS = 10
_KINDS = ("j", "y", "h")


def _select(flags, a, b):
    """a where flags hold, else b."""
    if isinstance(flags, bool):
        return a if flags else b
    return np.where(flags, a, b)


def _complex(re, im):
    """The complex array re + i im of real arrays of one shape, bit for bit (re + 1j * im loses signed
    zeros and makes inf parts NaN)."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _product(a, b):
    """a * b of complex arrays (or an array and a number), a real operand taken as x + 0j, as CPython's
    and numpy's scalar complex products round it (numpy's array product may fuse a multiply-add)."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return _complex(ar * br - ai * bi, ar * bi + ai * br)


def _quotient(a, b, scaled=False):
    """a / b of complex arrays (a may be a number) as CPython's complex division rounds it (Smith's method,
    branching on |Re b| >= |Im b|; CPython 3.11 Objects/complexobject.c), or with scaled as numpy's
    scalar division does: times the reciprocal of the denominator."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    wide = np.abs(br) >= np.abs(bi)
    ratio = np.where(wide, bi / br, br / bi)
    denom = np.where(wide, br + bi * ratio, br * ratio + bi)
    re, im = np.where(wide, ar + ai * ratio, ar * ratio + ai), np.where(wide, ai - ar * ratio, ai * ratio - ar)
    return _complex(re * (1.0 / denom), im * (1.0 / denom)) if scaled else _complex(re / denom, im / denom)


def _finite(name, value):
    """A real or complex scalar value, checked to be finite; name names it in the error."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} = {value} is not finite")
    return value


def _check(n, z, kind):
    """The argument checks of a pass of order n on the Python complex z."""
    if n < 0:
        raise ValueError("order n must be >= 0")
    if n > MAX_ORDER:
        raise ValueError(f"order n={n} exceeds supported maximum {MAX_ORDER}")
    if not cmath.isfinite(z):  # written out: a scalar pass runs this on every call
        raise ValueError(f"argument z = {z} is not finite")
    if abs(z.imag) > _IM_OVERFLOW:
        raise OverflowError("spherical Bessel argument overflows double range")
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if z == 0 and kind != "j":
        raise ZeroDivisionError(f"{'y_n' if kind == 'y' else 'h_n^(1)'} has a pole at z = 0")


def _probe(z):
    """The element of the array z that _check (or _finite) reads for all of
    them: the first to fail the earliest check that any element fails, else 1j."""
    fails = [f for f in (~np.isfinite(z), np.abs(z.imag) > _IM_OVERFLOW, z == 0) if f.any()]
    return complex(z[fails[0]][0]) if fails else 1j


def _overflow(kind, n):
    return OverflowError(f"{'y' if kind == 'y' else 'h^(1)'}_{max(n, 1)}(z) overflows the double range")


def _series_sum(n, z):
    # the sum of the ascending series j_n(z) = z^n/(2n+1)!! * sum_k (-z^2/2)^k / (k! (2n+3)...(2n+2k+1))
    term = acc = 1
    z2 = -0.5 * z * z
    for k in range(1, _SERIES_TERMS + 1):
        term = term * z2 / (k * (2 * n + 2 * k + 1))
        acc = acc + term
    return acc


def _series(top, z, kind):
    # j_n = z^n/(2n+1)!! s_n, with the sums s_n of the series at the top two
    # orders and below them j's downward recurrence, which with z^n/(2n+1)!!
    # scaled out reads s_{n-1} = s_n - z^2 s_{n+1} / ((2n+1)(2n+3))
    sums = [_series_sum(top, z), _series_sum(top - 1, z)]
    zz = z * z
    for n in range(top - 1, 0, -1):
        sums.append(sums[-1] - zz * sums[-2] / ((2 * n + 1) * (2 * n + 3)))
    rows, lead = [], 1
    for n, s in enumerate(reversed(sums)):
        rows.append(s * lead)
        lead = lead * z / (2 * n + 3)
    return rows


def _riccati(k, z, rows, kind):
    """F_k = z f_{k-1} - k f_k from the rows of the pass at z, and F_0 = z f_{-1}:
    j_{-1} = cos z / z, y_{-1} = sin z / z, h_{-1}^(1) = e^{iz} / z."""
    if k:
        return z * rows[k - 1] - k * rows[k]
    xp = cmath if isinstance(z, complex) else np
    if kind == "h":
        return xp.exp(1j * z)
    return xp.cos(z) if kind == "j" else xp.sin(z)


def _upward(top, z, kind):
    """f_0..f_top by upward recurrence from the closed forms of f_0 and f_1 (z nonzero)."""
    xp = cmath if isinstance(z, complex) else np
    if kind == "h":
        e = xp.exp(1j * z)
        rows = [-1j * e / z, -e * (z + 1j) / z ** 2]
    else:
        s, c = xp.sin(z), xp.cos(z)
        rows = [s / z, s / z ** 2 - c / z] if kind == "j" else [-c / z, -c / z ** 2 - s / z]
    for k in range(1, top):
        rows.append((2 * k + 1) / z * rows[-1] - rows[-2])
    return rows


def _miller(top, z, kind):
    # downward recurrence, normalized against the larger of j_0/j_1 to dodge zeros of the
    # reference.  Each element enters at its own order top + 30 + |z| with f = 1e-280, its
    # iterates 0 before, so an array element gets the rows of its one-element pass.  Public
    # entries pass only n <= MAX_ORDER and |Im z| <= 700, and _upward_j leaves only
    # |Re z| < N + 10 |Im z| <= 7064 here, where the iterates stay below 1e-24: no rescaling.
    start = top + 30 + (int(abs(z)) if isinstance(z, complex) else np.abs(z).astype(int))
    starts = [0] + ([start] if isinstance(z, complex) else np.unique(start).tolist())  # ascending, 0 never reached
    f_hi = f_lo = zero = 0 * z
    seed = 1e-280 + zero
    kept = []  # f_top down to f_0
    entry = starts.pop()
    for k in range(entry, 0, -1):
        if k == entry:
            enter = start == entry
            f_hi, f_lo = _select(enter, zero, f_hi), _select(enter, seed, f_lo)
            entry = starts.pop()
        f_hi, f_lo = f_lo, (2 * k + 1) / z * f_lo - f_hi
        if k <= top + 1:
            kept.append(f_lo)
    j0, j1 = _upward(1, z, "j")
    use0 = abs(j0) >= abs(j1)
    j_ref, f_ref = _select(use0, j0, j1), _select(use0, kept[-1], kept[-2])
    # f / f_ref first: far off the axis the iterates barely grow and j_ref / f_ref alone can overflow
    return [f / f_ref * j_ref for f in kept[::-1]]


def _reflected(top, z, kind):
    # y and h^(1) from j and h^(1) at w = z or conj z, whichever lies in the
    # upper half plane: y(w) = -i (h(w) - j(w)), h^(2)(w) = 2 j(w) - h(w),
    # y(conj w) = conj y(w) and h^(1)(conj w) = conj h^(2)(w)
    lower = z.imag < 0
    w = _select(lower, z.conjugate(), z)
    j_rows = (_rows if isinstance(w, complex) else _masked_pass)(top, w, "j")
    rows = [-1j * (h - j) if kind == "y" else 2 * j - h for j, h in zip(j_rows, _upward(top, w, "h"))]
    return [_select(lower, f.conjugate(), f) for f in rows]


def _series_j(z):
    return abs(z) <= 1.0


def _upward_j(top, z):
    # upward j keeps its accuracy up to order 2, and near the real axis past the order
    if top <= 2:
        return True
    re, im = abs(z.real), abs(z.imag)
    return (re >= top) & (im <= 0.1 * re) & (im <= _OFF_AXIS + 0.1 * (re - top))


def _off_axis(z, kind):
    # y off the axis, h^(1) below it
    return (abs(z.imag) if kind == "y" else -z.imag) > _OFF_AXIS


def _rows(n, z, kind):
    """The 0-d dispatch: the checks, then the rows f_0..f_top, top = max(n, 1),
    of the pass of the Python complex z, chosen by plain branches on the flags
    _masked_pass reads.  y and h^(1) grow with the order below |z| ~ n, and
    past the double range the recurrence yields inf, then nan: the top row tells."""
    _check(n, z, kind)
    top = n or 1  # max(n, 1): _check let only n >= 0 through
    if kind == "j":
        return (_series if _series_j(z) else _upward if _upward_j(top, z) else _miller)(top, z, kind)
    rows = (_reflected if _off_axis(z, kind) else _upward)(top, z, kind)
    if not cmath.isfinite(rows[-1]):
        raise _overflow(kind, n)
    return rows


def _masked_pass(top, z, kind):
    """f_0..f_top of the array z, rows of its shape, from one pass per element:
    the first whose flag it meets, boolean masks splitting the elements."""
    choices = (((_series_j(z), _series), (_upward_j(top, z), _upward), (True, _miller)) if kind == "j"
               else ((_off_axis(z, kind), _reflected), (True, _upward)))
    rows, rest = None, np.ones(z.shape, dtype=bool)
    for flag, method in choices:
        mask = rest & flag
        if mask.all():
            return method(top, z, kind)
        if mask.any():
            part = method(top, z[mask], kind)
            rows = rows or [np.empty_like(z) for _ in part]
            for row, value in zip(rows, part):
                row[mask] = value
            rest &= ~mask
    return rows


def _one_pass(n, z, kind):
    """z and the rows of its pass: a 0-d z (a Python number, a numpy scalar
    or a 0-d array) as a Python complex with the rows of _rows, else z as a
    complex array with rows of its shape, checked alike."""
    # numpy scalars subclass complex or float: only a Python complex skips the conversion
    if type(z) is not complex and (isinstance(z, (float, int)) or np.ndim(z) == 0):
        z = complex(z)
    if type(z) is complex:
        return z, _rows(n, z, kind)
    z = np.asarray(z, dtype=np.complex128)
    _check(n, _probe(z), kind)
    if kind == "j":
        return z, _masked_pass(max(n, 1), z, kind)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _masked_pass(max(n, 1), z, kind)
    if not np.isfinite(rows[-1]).all():
        raise _overflow(kind, n)
    return z, rows


def sph_bessel_j(n: int, z) -> complex:
    """Spherical Bessel function of the first kind j_n(z), complex z allowed."""
    return _one_pass(n, z, "j")[1][n]


def sph_bessel_y(n: int, z) -> complex:
    """Spherical Bessel function of the second kind y_n(z); z must be nonzero."""
    return _one_pass(n, z, "y")[1][n]


def sph_hankel1(n: int, z) -> complex:
    """Spherical Hankel function of the first kind h_n^(1)(z); z nonzero.

    Computed by upward recurrence from the closed forms of h_0, h_1 (reflected
    from the upper half plane for Im z < -2), so that j + iy cancellation is
    avoided.
    """
    return _one_pass(n, z, "h")[1][n]


def radial_table(n_max: int, z, kind: str = "j"):
    """f_0(z)..f_N(z) and their Riccati combinations F_0..F_N, N = n_max,
    from one recurrence pass per argument, for f = j (kind "j"), y ("y") or
    h^(1) ("h").  F_n = f_n + z f_n' = z f_{n-1} - n f_n, and F_0 = z f_{-1}.

    Both are arrays of shape (N + 1,) + shape of z, order first.
    """
    z, rows = _one_pass(n_max, z, kind)
    return np.array(rows[:n_max + 1]), np.array([_riccati(k, z, rows, kind) for k in range(n_max + 1)])


def radial_pair(n: int, z, kind: str = "j"):
    """f_n(z) and its Riccati combination F_n(z) = f_n(z) + z f_n'(z)
    = z f_{n-1}(z) - n f_n(z): row n of radial_table(n, z, kind), read from
    the rows of the same pass."""
    z, rows = _one_pass(n, z, kind)
    return rows[n], _riccati(n, z, rows, kind)


def _derivative(n, z, kind):
    # f_n' = f_{n-1} - (n+1)/z f_n from the pass of radial_pair, f_0' = -f_1,
    # and j_n'(0) = 1/3 for n = 1, else 0
    z, rows = _one_pass(n, z, kind)
    if n == 0:
        return -rows[1]
    prev, f = rows[n - 1], rows[n]
    at_zero = 1.0 / 3.0 if n == 1 else 0.0
    if isinstance(z, complex):
        return complex(at_zero) if z == 0 else prev - (n + 1) / z * f
    out = np.full_like(z, at_zero)
    nz = z != 0
    out[nz] = prev[nz] - (n + 1) / z[nz] * f[nz]
    return out


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
    """Two-term small-argument expansion of j, h, J = (t j)' or H = (t h)', one (a, b) pair per kind:
    j_n ~ t^n/(2n+1)!! (1 - t^2/(2(2n+3))), J_n ~ t^n/(2n+1)!! ((n+1) - (n+3) t^2/(2(2n+3))),
    h_n ~ -i (2n-1)!! t^-(n+1) (1 + t^2/(2(2n-1))), H_n ~ -i (2n-1)!! t^-(n+1) (-n + (2-n) t^2/(2(2n-1))).
    For h and H this is the singular part only, so the relative error of the true function against it
    carries an extra O(t^(2n+1)) cross term.
    """
    coefficients = {"j": (1, 1), "J": (n + 1, n + 3), "h": (1, 1), "H": (-n, 2 - n)}
    if kind not in coefficients:
        raise ValueError(f"unknown kind {kind!r}")
    if operator.index(n) < 0:
        raise ValueError("order n must be >= 0")
    a, b = coefficients[kind]
    t = np.asarray(t, dtype=complex)
    _finite("t", _probe(t))
    if kind in ("j", "J"):
        res = t ** n / float(math.prod(range(2 * n + 1, 0, -2))) * (a - b * t * t / (2 * (2 * n + 3)))
    else:
        res = -1j * float(math.prod(range(2 * n - 1, 0, -2))) / t ** (n + 1) * (a + b * t * t / (2 * (2 * n - 1)))
    return complex(res) if res.ndim == 0 else res


@functools.lru_cache(maxsize=None)
def _zero(n, s):
    """k_{n,s}, refined inside the interlacing brackets k_{n-1,s} < k_{n,s} < k_{n-1,s+1}."""
    return s * math.pi if n == 0 else _refine_zero(n, _zero(n - 1, s), _zero(n - 1, s + 1))


def _jn_real(n, x):
    return sph_bessel_j(n, complex(x)).real


def _refine_zero(n, lo, hi):
    flo = _jn_real(n, lo)
    fhi = _jn_real(n, hi)
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


def bessel_zero(n: int, s: int) -> float:
    """s-th positive zero k_{n,s} of the spherical Bessel function j_n."""
    n, s = operator.index(n), operator.index(s)
    if n < 0 or s < 1:
        raise ValueError("need n >= 0 and s >= 1")
    return _zero(n, s)


# ---------------------------------------------------------------------------
# spherical harmonics
# ---------------------------------------------------------------------------

def angles_to_unit(theta, phi):
    """Unit vector (sin t cos p, sin t sin p, cos t) for polar/azimuthal angles, broadcast against
    each other: theta[:, None] and phi[None, :] give the theta-major product grid."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    for name, angle in (("theta", theta), ("phi", phi)):
        _finite(name, _probe(angle))
    theta, phi = np.broadcast_arrays(theta, phi)
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)


def _radius_split(x, noun="point"):
    """x, (..., 3), as (P, 3) points checked finite (noun names them in errors), and their lengths."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise ValueError(f"{noun}s must have a trailing axis of length 3")
    x = x.reshape(-1, 3)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"{noun} {x[~finite][0]} is not finite")
    return x, np.linalg.norm(x, axis=-1)


def _check_order(n, m):
    if abs(m) > n:
        raise ValueError(f"|m| = {abs(m)} exceeds degree n = {n}")


def _direction_frame(x):
    """cos(theta), sin(theta), phi and the local (theta-hat, phi-hat) frame of
    the directions x, flattened to P directions so that a single direction
    takes the same array path as a batch."""
    x, r = _radius_split(x, "direction")
    if np.any(r == 0):
        raise ValueError("zero vector is not a direction")
    xh = x / r[..., None]
    sin_t = np.hypot(xh[..., 0], xh[..., 1])
    cos_t = xh[..., 2]
    phi = np.arctan2(xh[..., 1], xh[..., 0])
    cp, sp = np.cos(phi), np.sin(phi)
    theta_hat = np.stack([cos_t * cp, cos_t * sp, -sin_t], axis=-1)
    phi_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return cos_t, sin_t, phi, theta_hat, phi_hat


@functools.lru_cache(maxsize=None)
def _degree(n_max):
    """The degree n of every entry k = n(n+1) + m of a stack up to n_max, read-only."""
    n = np.repeat(np.arange(n_max + 1), 2 * np.arange(n_max + 1) + 1)
    n.flags.writeable = False
    return n


def _top(stack):
    """The highest degree n of a stack at k = n(n+1) + m."""
    return math.isqrt(len(stack) - 1)


def _keys(n_max):
    """The keys (n, m), 1 <= n <= n_max, |m| <= n, in the order of the stack entries k = n(n+1) + m."""
    return ((n, m) for n in range(1, n_max + 1) for m in range(-n, n + 1))


class HarmonicTable(NamedTuple):
    """Y_n^m and its surface gradient for 0 <= n <= n_max, |m| <= n, stacked
    along the first axis at k = n(n+1) + m, with the local frame.

    d_theta and d_phi are the theta-hat and phi-hat components of
    grad_S Y_n^m = sqrt(n(n+1)) U_n^m (zero for n = 0).
    """

    y: np.ndarray
    d_theta: np.ndarray
    d_phi: np.ndarray
    theta_hat: np.ndarray
    phi_hat: np.ndarray

    @property
    def degree(self):
        """The degree n of every entry k, read-only."""
        return _degree(_top(self.y))

    def vectors(self, k):
        """Cartesian U_n^m and V_n^m = x-hat cross U_n^m of the entries k >= 1
        (an index or a slice).  x-hat cross theta-hat = phi-hat and x-hat cross
        phi-hat = -theta-hat, so V needs no cross product."""
        n = self.degree[k]
        scale = 1.0 / np.sqrt(n * (n + 1))
        scale = np.reshape(scale, np.shape(scale) + (1,) * self.theta_hat.ndim)
        dt, dp = self.d_theta[k][..., None], self.d_phi[k][..., None]
        return (scale * (dt * self.theta_hat + dp * self.phi_hat),
                scale * (dt * self.phi_hat - dp * self.theta_hat))


@functools.lru_cache(maxsize=None)
def _ladder_columns(n):
    """Factors of degree n >= 1 as columns over the orders m: a of
    cos(theta) q_{n-1}^m (m <= n - 1), b of q_{n-2}^m (m <= n - 2) and the
    diagonal factor of q_{n-1}^{n-1} in the recurrence, the m+-1 ladder
    identity (m <= n), and i m and the parity (-1)^m (1 <= m <= n)."""
    m = np.arange(n + 1)[:, None]
    low = m[:n - 1]
    a = np.append(np.sqrt((4 * n * n - 1.0) / (n * n - low * low)), [[math.sqrt(2 * n + 1)]], axis=0)
    b = np.sqrt((2 * n + 1.0) * ((n - 1) ** 2 - low * low) / ((2 * n - 3.0) * (n * n - low * low)))
    return (a, b, -math.sqrt((2 * n + 1) / (2.0 * n)), np.sqrt((n - m) * (n + m + 1)),
            np.sqrt((n + m) * (n - m + 1)), 1j * m[1:], (-1) ** m[1:])


def _check_n_max(n_max):
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    if n_max > MAX_ORDER:
        raise ValueError(f"n_max exceeds supported maximum {MAX_ORDER}")


def _legendre_rows(n_max, cos_t):
    """The real Legendre ladder, degree by degree: for n = 0..n_max the rows
    q_n^m, m = 0..n, of shape (n + 1, P).

    q_n^m are the orthonormalized associated Legendre functions divided by
    sin(theta)^m, so polar evaluations stay finite, with the Condon-Shortley
    phase carried by the diagonal: Y_n^m = q_n^m sin(theta)^m e^{i m phi}.
    The recurrence runs over all orders at once (Holmes & Featherstone,
    J. Geodesy 76, 279 (2002)).
    """
    q = np.full_like(cos_t, 1.0 / math.sqrt(4 * math.pi), dtype=float)[None]
    q_prev = q[:0]
    for n in range(n_max + 1):
        if n > 0:
            a, b, diagonal = _ladder_columns(n)[:3]
            q_next = np.empty((n + 1, len(cos_t)))
            np.multiply(a * cos_t, q, out=q_next[:n])
            q_next[:n - 1] -= b * q_prev[:n - 1]
            np.multiply(diagonal, q[n - 1:], out=q_next[n:])
            q_prev, q = q, q_next
        yield q


def harmonic_table(n_max: int, x) -> HarmonicTable:
    """Y_n^m and grad_S Y_n^m for all 0 <= n <= n_max, |m| <= n at unit
    direction(s) x, built from the rows of _legendre_rows.

    The polar derivative comes from the m+-1 ladder identity and the
    azimuthal one from the sin-scaled rows (no NaN at the poles); orders
    -1..-n follow from Y_n^{-m} = (-1)^m conj(Y_n^m).
    """
    _check_n_max(n_max)
    cos_t, sin_t, phi, theta_hat, phi_hat = _direction_frame(x)
    # one power per order: numpy squares sin_t ** 2, where an array of exponents would call pow
    sin_pow = np.stack([sin_t ** m for m in range(n_max + 1)])
    phase = np.exp(1j * np.arange(n_max + 1)[:, None] * phi)
    size = (n_max + 1) ** 2
    # one spare row: the Y part of the row after degree n's block still holds
    # Y_n^{n+1} = 0 while degree n is built
    stacks = np.zeros((3, size + 1, len(cos_t)), dtype=complex)
    for n, q in enumerate(_legendre_rows(n_max, cos_t)):
        y, d_theta, d_phi = block = stacks[:, n * n:(n + 1) ** 2]
        np.multiply(q * sin_pow[:n + 1], phase[:n + 1], out=y[n:])
        if n > 0:
            up, down, i_m, parity = _ladder_columns(n)[3:]
            # the orders m +- 1 of the ladder identity for m = 0..n are rows
            # of the stack once it holds Y_n^{-1} = -conj(Y_n^1)
            np.negative(np.conj(y[n + 1]), out=y[n - 1])
            upper = stacks[0, n * n + n + 1:(n + 1) ** 2 + 1]
            d_theta[n:] = 0.5 * (up * upper / phase[1] - down * y[n - 1:2 * n] * phase[1])
            d_phi[n + 1:] = i_m * q[1:] * sin_pow[:n] * phase[1:n + 1]
            negative = block[:, n - 1::-1]
            np.conjugate(block[:, n + 1:], out=negative)
            np.multiply(parity, negative, out=negative)
    shape = np.shape(x)[:-1]
    y, d_theta, d_phi = (part[:size].reshape((size,) + shape) for part in stacks)
    return HarmonicTable(y, d_theta, d_phi, theta_hat.reshape(shape + (3,)), phi_hat.reshape(shape + (3,)))


def sph_harmonic(n: int, m: int, x) -> complex:
    """Orthonormal spherical harmonic Y_n^m evaluated at unit direction(s) x.

    x is a Cartesian (..., 3) array (use angles_to_unit for the angle form).
    """
    _check_order(n, m)
    y = harmonic_table(n, x).y[n * (n + 1) + m]
    return complex(y) if y.ndim == 0 else y.copy()


def vsh_UV(n: int, m: int, x):
    """Vector spherical harmonics U_n^m = grad_S Y_n^m / sqrt(n(n+1)) and
    V_n^m = x-hat cross U_n^m, evaluated at unit direction(s) x."""
    if n < 1:
        raise ValueError("vector harmonics need n >= 1")
    _check_order(n, m)
    return harmonic_table(n, x).vectors(n * (n + 1) + m)


def vsh_table(n_max: int, x):
    """All (U_n^m, V_n^m) for 1 <= n <= n_max, |m| <= n at direction(s) x,
    keyed by (n, m): views into the stacked vectors of one harmonic table."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    u, v = harmonic_table(n_max, x).vectors(slice(1, None))
    return {nm: (u[k], v[k]) for k, nm in enumerate(_keys(n_max))}


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
