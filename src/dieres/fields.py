"""Multipole field evaluators: entire and radiating TE/TM fields, exterior
harmonic (Debye) fields, far-field patterns, the incident plane wave and its
partial-wave expansion."""

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .specfun import (_check_n_max, _check_order, _direction_frame, _finite, _legendre_rows, _radius_split, _top,
                      harmonic_table, radial_table, solid_harmonic_gradient_deg1)


@dataclass(frozen=True)
class IncidentWave:
    """Unit plane wave E0 exp(i w d.x) with transverse real polarization, d and E0 kept as read-only copies.
    Waves compare and hash by value: by omega and d and E0 as tuples, never as arrays."""

    direction: np.ndarray = field(compare=False)
    polarization: np.ndarray = field(compare=False)
    omega: complex
    _vectors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        d, e0 = (np.array(v, dtype=float) for v in (self.direction, self.polarization))
        if d.shape != (3,) or e0.shape != (3,):
            raise ValueError(f"direction and polarization must be 3-vectors, not of shapes {d.shape} and {e0.shape}")
        size_d, size_e0 = _finite("|direction|", np.linalg.norm(d)), _finite("|polarization|", np.linalg.norm(e0))
        if abs(size_d - 1) > 1e-12 or abs(size_e0 - 1) > 1e-12:
            raise ValueError("incident direction and polarization must be unit vectors")
        if abs(np.dot(d, e0)) > 1e-12:
            raise ValueError("polarization must be orthogonal to the propagation direction")
        d.flags.writeable = e0.flags.writeable = False
        for name, value in (("direction", d), ("polarization", e0), ("omega", _finite("omega", complex(self.omega))),
                            ("_vectors", (tuple(d.tolist()), tuple(e0.tolist())))):
            object.__setattr__(self, name, value)


@functools.lru_cache(maxsize=32)
def _incidence(n_max, direction, polarization):
    """The plane-wave expansion of one incidence, d and e0 given as bytes:
    one read-only stack of P_k^TE = 4 pi i^n / sqrt(n(n+1)) conj(V_n^m(d)).e0
    and P_k^TM (U for V) at k = n(n+1) + m, 1 <= n <= n_max, entry 0 set to 0.
    The plane wave is -sum_k (P_k^TE TE_{n,m} + P_k^TM TM_{n,m}) in entire
    multipole fields.  Per entry the bits of np.dot, which the tests pin: a stack of
    (1, 3) @ (3,) products is one BLAS dot each (a (K, 3) @ (3,) product rounds
    differently), and the prefactor multiplies as Python complex does."""
    d, e0 = (np.frombuffer(v, dtype=float) for v in (direction, polarization))
    table = harmonic_table(n_max, d[None])
    u, v = table.vectors(slice(1, None))
    prefs = np.array([4 * math.pi * 1j ** n / math.sqrt(n * (n + 1)) for n in table.degree[1:].tolist()])
    dots = np.matmul(np.conj(np.stack([v, u])), e0)[..., 0]
    proj = np.zeros((2, len(table.y)), dtype=complex)
    proj.real[:, 1:] = prefs.real * dots.real - prefs.imag * dots.imag
    proj.imag[:, 1:] = prefs.real * dots.imag + prefs.imag * dots.real
    proj.flags.writeable = False
    return proj


def plane_wave(w: IncidentWave, x) -> np.ndarray:
    """Incident field E0 exp(i w d.x) at point(s) x."""
    x = np.asarray(x, dtype=float)
    _radius_split(x)
    phase = np.exp(1j * w.omega * (x @ w.direction))
    return np.asarray(phase)[..., None] * w.polarization


def _family_index(family):
    """0 for TE and 1 for TM, the index of the family's Mie denominator and coefficients."""
    if family not in ("TE", "TM"):
        raise ValueError(f"unknown family {family!r}")
    return int(family == "TM")


def _single_field(family, n, m, noun):
    """Stacks (te, tm) of the one TE or TM field of order (n, m); noun names the fields in errors."""
    if n < 1:
        raise ValueError(f"{noun} start at n = 1")
    _check_order(n, m)
    coeffs = np.zeros((2, (n + 1) ** 2), dtype=complex)
    coeffs[_family_index(family), n * (n + 1) + m] = 1.0
    return coeffs


def multipole_field(variant: str, family: str, n: int, m: int, k: complex, x) -> np.ndarray:
    """Entire or radiating electric multipole field of order (n, m).

    TE fields are -sqrt(n(n+1)) f_n(k r) V_n^m; TM fields are their scaled
    curls, evaluated from the Riccati combinations.  The radiating variant
    replaces j_n by the first-kind Hankel function (and J_n by H_n) and is
    singular at the origin.
    """
    return _multipole_sum(variant, *_single_field(family, n, m, "multipole fields"), k, x)


@functools.lru_cache(maxsize=None)
def _row_sources(n_max):
    """The rows (n, mu), 0 <= mu <= n <= n_max, of the real ladder in degree-major
    order, as parts of the harmonic table: the degree n and the order mu of each
    row and, per sign of the order (+, -), per source and per row, the entry k
    of te and tm (len(te) where there is none) and the factor that takes q_n^mu times
    z^mu (orders +m) or conj(z)^mu (orders -m), z = sin(theta) e^{i phi}, to
    that part of entry k.

    With up and down of the ladder identity, the parts of order m >= 0 are
    Y = q z^m, d_theta = (up q^{m+1} z^{m+1} e^{-i phi} - down q^{m-1} z^{m-1} e^{i phi}) / 2
    (sqrt(n(n+1)) q^1 z e^{-i phi} at m = 0) and, from
    m P_n^m / sin(theta) = -(P_{n-1}^{m+1} + (n+m-1)(n+m) P_{n-1}^{m-1}) / 2,
    d_phi = i m q z^{m-1} e^{i phi}, the same two neighbouring orders on the
    rows of degree n - 1.  Y_n^{-m} = (-1)^m conj(Y_n^m) swaps e^{-+i phi}
    and the sign of i.  The sources are d_theta (0, 1), d_phi of degree n + 1
    (2, 3) and Y (4); the even ones are left with e^{-i phi}, the odd with e^{i phi}.
    """
    n, mu = np.tril_indices(n_max + 1)
    sign = np.array([1, -1])[:, None, None]
    step = sign * np.array([-1, 1, -1, 1, 0])[:, None]  # the source's order is mu + step
    n_s, m = n + np.array([0, 0, 1, 1, 0])[:, None], mu + step
    valid = (m >= (sign < 0)) & (m <= n_s) & (n_s >= 1) & (n_s <= n_max)
    n_s, m, t = np.where(valid, n_s, 1), np.where(valid, m, 0), -np.sign(step)  # the row's order is m + t
    theta = 0.5 * t * np.sqrt((n_s - t * m) * (n_s + t * m + 1)) * np.where(m == 0, 2, 1)
    phi = -0.5j * sign * np.sqrt((2 * n_s + 1) / (2 * n_s - 1) * (n_s - t * m) * (n_s - t * m - 1)) * (m > 0)
    factor = np.concatenate([theta[:, :2], phi[:, 2:4], np.ones_like(theta[:, 4:])], axis=1)
    idx = np.where(valid, n_s * (n_s + 1) + sign * m, (n_max + 1) ** 2)
    return n, mu, idx, np.where(valid, factor * (-1.0) ** (m * (sign < 0)), 0)


# the nine column sums of _field_sum, each of one radial factor (0, 1, 2 for
# a, b, c) at the degree of its row (0) or the next one (1)
_COLUMN_FACTOR = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2])
_COLUMN_SHIFT = np.array([0, 0, 1, 1, 0, 0, 1, 1, 0])
# the ring contraction of _field_sum takes runs of at least _RING_RUN directions, each of one cos(theta)
# to within _RING_ULPS units in the last place of its first direction's
_RING_RUN, _RING_ULPS = 8, 4


def _ring_length(cos_t):
    """The length L of the runs of cos_t, (P,), when it falls into runs of one length L >= _RING_RUN,
    each of one cos(theta) (the iso-latitude rings of a product grid), else 0 (also for P = 0)."""
    if not len(cos_t):
        return 0
    apart = np.abs(cos_t - cos_t[0]) > _RING_ULPS * np.spacing(abs(cos_t[0]))
    run = int(apart.argmax()) or len(cos_t)
    if run < _RING_RUN or len(cos_t) % run:
        return 0
    rings = cos_t.reshape(-1, run)
    return run if np.all(np.abs(rings - rings[:, :1]) <= _RING_ULPS * np.spacing(np.abs(rings[:, :1]))) else 0


# the large temporaries of _field_sum are views of one buffer per thread, kept between calls and grown
# to the largest call up to _KEPT_BYTES; a call that needs more allocates its own.  On far fields on
# product grids at n_max = 12 (608 bytes kept per direction and 7488 per ring; warm loops, 2-core Linux
# VM), each byte kept spared one byte of page faults per call up to 11.9 MB kept (18432 directions), 13.8
# MB were spared at 16.1 MB kept, and 10-15 MB however much more was kept (21, 32 and 46 MB)
_KEPT_BYTES = 16 << 20
_kept = threading.local()


def _kept_arrays(*specs):
    """Uninitialised arrays of the (shape, dtype) specs, each starting on a 64-byte boundary of this
    thread's kept buffer, or fresh arrays where together they exceed _KEPT_BYTES.  The next call on the
    thread overwrites them, so no result may alias them."""
    sizes = [-(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64 for shape, dtype in specs]
    total = sum(sizes)
    if total > _KEPT_BYTES:
        return [np.empty(shape, dtype) for shape, dtype in specs]
    buffer = getattr(_kept, "buffer", None)
    if buffer is None or len(buffer) < total:
        buffer = _kept.buffer = np.empty(total, np.uint8)
    starts = itertools.accumulate(sizes, initial=0)
    return [np.ndarray(shape, dtype, buffer, start) for (shape, dtype), start in zip(specs, starts)]


def _field_sum(te, tm, a, b, c, xh):
    """The field sum_k te_k a_n (d_phi theta-hat - d_theta phi-hat)
    - tm_k (b_n (d_theta theta-hat + d_phi phi-hat) + c_n Y x-hat), which
    every field of this module is, at the directions xh, (..., 3) (unit
    where c is nonzero).  grad_S Y = (d_theta, d_phi); te and tm are stacked
    at k = n(n+1) + m (entry 0 unused).  Each radial factor holds per degree
    one constant, (n_max + 1,), or one row over the P points, (n_max + 1, P).

    The sum runs over the real rows of _legendre_rows, order by order in the
    powers of z = sin(theta) e^{i phi} (see _row_sources): the real and
    imaginary parts of q_n^mu z^mu are the rows of real products with a
    table of the coefficients, whose nine column sums e^{-+i phi} and the
    frame turn into the field.  The radial factors weight the table's rows
    where they are constant, and each degree's product where they vary over
    the points.

    Constant factors on directions in iso-latitude rings (_ring_length), as
    the theta-major nodes of a product grid, run the ladder once per ring and
    contract the degrees before the directions (Driscoll & Healy, Adv. Appl.
    Math. 15, 202 (1994)).
    """
    n_max = _top(te)
    _check_n_max(n_max)
    cos_t, sin_t, _, theta_hat, phi_hat = _direction_frame(xh)
    degree, order, idx, factor = _row_sources(n_max)
    parts = np.append([te, tm], [[0], [0]], axis=1)[:, idx] * factor  # te, tm x sign x source x row
    # nine columns, each left with e^{-i phi} and e^{i phi}: the d_theta parts of te a (phi-hat), the
    # d_phi parts of te a (theta-hat), the d_theta parts of tm b (theta-hat), the d_phi parts of tm b
    # (phi-hat) and Y of tm c (x-hat); z^mu q meets the orders +m and conj(z)^mu q the orders -m, so
    # the real row takes the sum of the two and the imaginary row i times their difference
    cols = np.concatenate([parts[0, :, :4] * [[-1], [-1], [1], [1]], -parts[1]], axis=1)
    table = np.stack([cols[0] + cols[1], 1j * (cols[0] - cols[1])], axis=1).T
    factors = np.array(np.broadcast_arrays(a, b, c), dtype=complex).reshape(3, n_max + 1, -1)
    factors = np.concatenate([factors, np.zeros_like(factors[:, :1])], axis=1)  # none at degree n_max + 1
    per_point = factors.shape[-1] != 1  # no points (P = 0) take the per-point path
    if not per_point:
        # a constant weights the rows of its degree in the table
        table = table * factors[_COLUMN_FACTOR, degree[:, None] + _COLUMN_SHIFT, 0][:, None]
    table = np.concatenate([table.real, table.imag], axis=-1).reshape(-1, 18)
    e_phi = phi_hat[:, 1] - 1j * phi_hat[:, 0]  # phi-hat = (-sin phi, cos phi, 0)
    z, z_pow = sin_t * e_phi, np.ones_like(e_phi)
    run = 0 if per_point else _ring_length(cos_t)
    rings = len(z) // run if run else 0
    z_parts, q_t, coef, part, ring_sums, pairs, addend = _kept_arrays(
        ((n_max + 1, 2, len(z)), float), ((n_max + 1, rings, 36), float), ((rings, 18, n_max + 1, 2), float),
        ((18, rings, run), float), ((9, rings * run), complex), ((2, 2, len(z)), complex), ((len(z), 3), complex))
    for z_part in z_parts:
        z_part[0], z_part[1] = z_pow.real, z_pow.imag
        z_pow = z_pow * z
    if run:
        # per order mu one product sums the table's rows (n, mu) over n, weighted by q_n^mu of each ring,
        # then per ring one product meets those 2 (n_max + 1) rows with the z parts of its directions
        q_rows = np.zeros((n_max + 1, rings, n_max + 1))  # q_n^mu at (mu, ring, n), 0 where n < mu
        for n, q in enumerate(_legendre_rows(n_max, cos_t[::run])):
            q_rows[:n + 1, :, n] = q
        t_rows = np.zeros((n_max + 1, n_max + 1, 36))  # the real and imaginary rows (n, mu) at (mu, n)
        t_rows[order, degree] = table.reshape(-1, 36)
        np.copyto(coef, np.matmul(q_rows, t_rows, out=q_t).reshape(n_max + 1, rings, 2, 18).transpose(1, 3, 0, 2))
        np.matmul(coef.reshape(rings, 18, -1), z_parts.reshape(-1, rings, run).transpose(1, 0, 2),
                  out=part.transpose(1, 0, 2))
        sums = np.add(part[:9].reshape(9, -1), np.multiply(1j, part[9:].reshape(9, -1), out=ring_sums), out=ring_sums)
    else:
        # one product per group of degrees: each degree where the factors vary over the points (they
        # weight its product), else groups of at most 16 (n_max + 1) rows, a single product up to
        # n_max = 14 and stored rows linear in n_max beyond
        rows = np.empty((min(len(table), (2 if per_point else 16) * (n_max + 1)), len(z)))
        sums, start, used = 0, 0, 0
        for n, q in enumerate(_legendre_rows(n_max, cos_t)):
            np.multiply(q[:, None], z_parts[:n + 1], out=rows[used:used + 2 * n + 2].reshape(n + 1, 2, -1))
            used += 2 * n + 2
            if per_point or n == n_max or used + 2 * n + 4 > len(rows):
                part = table[start:start + used].T @ rows[:used]
                weight = factors[_COLUMN_FACTOR, n + _COLUMN_SHIFT] if per_point else 1
                sums = sums + weight * (part[:9] + 1j * part[9:])
                start, used = start + used, 0
    # theta-hat and phi-hat, left with e^{-i phi} (pairs[0]) and e^{i phi} (pairs[1]); the result is the one
    # array that is not kept
    np.multiply(np.add(sums[2::-2], sums[4:7:2], out=pairs[0]), np.conj(e_phi), out=pairs[0])
    np.multiply(np.add(sums[3::-2], sums[5:8:2], out=pairs[1]), e_phi, out=pairs[1])
    theta, phi = np.add(pairs[0], pairs[1], out=pairs[0])
    field = theta[:, None] * theta_hat
    np.add(field, np.multiply(phi[:, None], phi_hat, out=addend), out=field)
    return np.add(field, np.multiply(sums[8][:, None], np.reshape(xh, (-1, 3)), out=addend), out=field)


def _multipole_sum(variant: str, te, tm, k: complex, x) -> np.ndarray:
    """Sum of te[j] TE_{n,m} + tm[j] TM_{n,m} over multipole fields of one
    variant at the points x, (..., 3), te and tm stacked as in _field_sum:
    its radial factors are f_n, F_n / (i k r) and n(n+1) f_n / (i k r)."""
    if variant not in ("entire", "radiating"):
        raise ValueError(f"unknown variant {variant!r}")
    k = complex(k)
    if k == 0 and tm.any():
        raise ValueError("TM fields need a nonzero wavenumber")
    pts, r = _radius_split(x)
    out = np.zeros((len(pts), 3), dtype=complex)
    origin = r == 0
    if np.any(origin):
        if variant == "radiating":
            raise ValueError("radiating fields are singular at x = 0")
        # entire TE fields and TM fields with n >= 2 vanish at the origin
        out[origin] = (2j / 3) * sum(c * solid_harmonic_gradient_deg1(m) for m, c in zip((-1, 0, 1), tm[1:4]))
    off = ~origin
    if np.any(off):
        ro = r[off]
        f, big = radial_table(_top(te), k * ro, "j" if variant == "entire" else "h")
        degree, ikr = np.arange(len(f))[:, None], 1j * k * ro
        tm_factors = (big / ikr, degree * (degree + 1) * f / ikr) if k else (0, 0)  # no TM term at k = 0
        out[off] = _field_sum(te, tm, f, *tm_factors, pts[off] / ro[:, None])
    return out.reshape(np.shape(x)[:-1] + (3,))


def harmonic_exterior(kind: str, n: int, m: int, x) -> np.ndarray:
    """Exterior harmonic multipole fields built from Debye potentials:
    E^h_{n,m} = -sqrt(n(n+1)) r^-(n+1) V_n^m and its curl
    r^-(n+2) (n(n+1) Y_n^m x-hat - n grad_S Y_n^m)."""
    if kind not in ("Eh", "curlEh"):
        raise ValueError(f"unknown kind {kind!r}")
    curl = kind == "curlEh"
    te, tm = _single_field("TM" if curl else "TE", n, m, "exterior harmonic fields")
    pts, r = _radius_split(x)
    if np.any(r == 0):
        raise ValueError("exterior harmonic fields are singular at x = 0")
    degree = np.arange(n + 1)[:, None]
    rad = r ** -(degree + (2 if curl else 1))
    factors = (0, degree * rad, -degree * (degree + 1) * rad) if curl else (rad, 0, 0)
    return _field_sum(te, tm, *factors, pts / r[:, None]).reshape(np.shape(x)[:-1] + (3,))


def _far_field_sum(te, tm, omega, xhat):
    """The far field lim r e^{-i w r} E(r xhat) of the radiating sum at the direction(s) xhat:
    h_n(w r) -> (-i)^{n+1} e^{i w r} / (w r) gives a_n = b_n = (-i)^{n+1} / w and c_n = 0."""
    phase = (-1j) ** np.arange(1, _top(te) + 2) * (1 / omega)
    return _field_sum(te, tm, phase, phase, 0, xhat).reshape(np.shape(xhat)[:-1] + (3,))


def farfield_pattern(family: str, n: int, m: int, omega: complex, xhat) -> np.ndarray:
    """Far-field pattern of the radiating multipole:
    -sqrt(n(n+1)) w^-1 (-i)^{n+1} V_n^m (TE) or U_n^m (TM)."""
    coeffs = _single_field(family, n, m, "far-field patterns")
    if _finite("omega", omega) == 0:
        raise ValueError("far-field pattern needs a nonzero frequency")
    return _far_field_sum(*coeffs, omega, xhat)


def jacobi_anger_partial(w: IncidentWave, N: int, x) -> np.ndarray:
    """Partial sum (1 <= n <= N) of the plane-wave expansion: entire
    multipole fields with the coefficients -P of _incidence."""
    if N < 1:
        raise ValueError("need at least one expansion order")
    return _multipole_sum("entire", *-_incidence(N, w.direction.tobytes(), w.polarization.tobytes()), w.omega, x)
