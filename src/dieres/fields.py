"""Multipole field evaluators: entire and radiating TE/TM fields, exterior
harmonic (Debye) fields, far-field patterns, the incident plane wave and its
partial-wave expansion."""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import (_check_order, _harmonic_blocks, _radius_split, harmonic_table, radial_table,
                      solid_harmonic_gradient_deg1, vsh_UV)


@dataclass(frozen=True)
class FieldSample:
    """One evaluated field value at a point."""

    point: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        point = np.asarray(self.point, dtype=float)
        value = np.asarray(self.value, dtype=complex)
        if not (np.all(np.isfinite(point)) and np.all(np.isfinite(value.view(float)))):
            raise ValueError("field samples must be finite")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "value", value)


def _finite(name, value):
    """A real or complex scalar value, checked to be finite; name names it in the error."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} = {value} is not finite")
    return value


@dataclass(frozen=True)
class IncidentWave:
    """Unit plane wave E0 exp(i w d.x) with transverse real polarization."""

    direction: np.ndarray
    polarization: np.ndarray
    omega: complex

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        e0 = np.asarray(self.polarization, dtype=float)
        if d.shape != (3,) or e0.shape != (3,):
            raise ValueError(f"direction and polarization must be 3-vectors, not of shapes {d.shape} and {e0.shape}")
        size_d, size_e0 = _finite("|direction|", np.linalg.norm(d)), _finite("|polarization|", np.linalg.norm(e0))
        if abs(size_d - 1) > 1e-12 or abs(size_e0 - 1) > 1e-12:
            raise ValueError("incident direction and polarization must be unit vectors")
        if abs(np.dot(d, e0)) > 1e-12:
            raise ValueError("polarization must be orthogonal to the propagation direction")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "polarization", e0)
        object.__setattr__(self, "omega", _finite("omega", complex(self.omega)))


@functools.lru_cache(maxsize=32)
def _incidence(n_max, direction, polarization):
    """The plane-wave expansion of one incidence, d and e0 given as bytes:
    P_k^TE = 4 pi i^n / sqrt(n(n+1)) conj(V_n^m(d)).e0 and P_k^TM (U for V)
    as tuples over k = n(n+1) + m, 1 <= n <= n_max.  The plane wave is
    -sum_k (P_k^TE TE_{n,m} + P_k^TM TM_{n,m}) in entire multipole fields.
    Per entry np.dot, which the tests pin; stacked products round differently."""
    d, e0 = (np.frombuffer(v, dtype=float) for v in (direction, polarization))
    table = harmonic_table(n_max, d[None])
    u, v = table.vectors(slice(1, None))
    prefs = [4 * math.pi * 1j ** n / math.sqrt(n * (n + 1)) for n in table.degree[1:].tolist()]
    proj_te = tuple(complex(p * np.dot(np.conj(v_k[0]), e0)) for p, v_k in zip(prefs, v))
    proj_tm = tuple(complex(p * np.dot(np.conj(u_k[0]), e0)) for p, u_k in zip(prefs, u))
    return proj_te, proj_tm


def plane_wave(w: IncidentWave, x) -> np.ndarray:
    """Incident field E0 exp(i w d.x) at point(s) x."""
    x = np.asarray(x, dtype=float)
    phase = np.exp(1j * w.omega * (x @ w.direction))
    return np.asarray(phase)[..., None] * w.polarization


def _family_index(family):
    """0 for TE and 1 for TM, the index of the family's Mie denominator and coefficients."""
    if family not in ("TE", "TM"):
        raise ValueError(f"unknown family {family!r}")
    return int(family == "TM")


def multipole_field(variant: str, family: str, n: int, m: int, k: complex, x) -> np.ndarray:
    """Entire or radiating electric multipole field of order (n, m).

    TE fields are -sqrt(n(n+1)) f_n(k r) V_n^m; TM fields are their scaled
    curls, evaluated from the Riccati combinations.  The radiating variant
    replaces j_n by the first-kind Hankel function (and J_n by H_n) and is
    singular at the origin.
    """
    index = _family_index(family)
    if n < 1:
        raise ValueError("multipole fields start at n = 1")
    _check_order(n, m)
    coeffs = np.zeros((2, (n + 1) ** 2), dtype=complex)
    coeffs[index, n * (n + 1) + m] = 1.0
    return _multipole_sum(variant, *coeffs, k, x)


def _multipole_sum(variant: str, te, tm, k: complex, x) -> np.ndarray:
    """Sum of te[j] TE_{n,m} + tm[j] TM_{n,m} over multipole fields of one
    variant at the points x, (..., 3), the coefficients stacked at
    j = n(n+1) + m (entry 0 unused).

    The harmonic table of the directions of x block by block as the ladder
    yields it, and one radial table over all orders.  In the (theta-hat,
    phi-hat, x-hat) frame, with grad_S Y = sqrt(n(n+1)) U = (d_theta, d_phi):
    TE = -f_n (d_theta phi-hat - d_phi theta-hat) and
    TM = -(F_n (d_theta theta-hat + d_phi phi-hat) + n(n+1) f_n Y x-hat) / (i k r).
    """
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
        xh = pts[off] / ro[:, None]
        n_max = math.isqrt(len(te) - 1)
        theta_hat, phi_hat, blocks = _harmonic_blocks(n_max, xh)
        radial, riccati = radial_table(n_max, k * ro, "j" if variant == "entire" else "h")
        comp = np.zeros((3, len(ro)), dtype=complex)  # theta-hat, phi-hat, x-hat
        for n, block in enumerate(blocks):
            rows = slice(n * n, (n + 1) ** 2)
            g, e = te[rows], tm[rows]
            if n == 0 or not (g.any() or e.any()):
                continue
            f, big = radial[n], riccati[n]
            # two-row products: one-row ones (gemv) can stall for milliseconds in threaded BLAS
            (_, e_y), (g_t, e_t), (g_p, e_p) = np.stack([g, e]) @ block
            comp[0] += f * g_p
            comp[1] -= f * g_t
            if e.any():
                comp -= np.stack([big * e_t, big * e_p, n * (n + 1) * f * e_y]) / (1j * k * ro)
        out[off] = comp[0][:, None] * theta_hat + comp[1][:, None] * phi_hat + comp[2][:, None] * xh
    return out.reshape(np.shape(x)[:-1] + (3,))


def harmonic_exterior(kind: str, n: int, m: int, x) -> np.ndarray:
    """Exterior harmonic multipole fields built from Debye potentials:
    E^h_{n,m} = -sqrt(n(n+1)) r^-(n+1) V_n^m and its curl."""
    if kind not in ("Eh", "curlEh"):
        raise ValueError(f"unknown kind {kind!r}")
    if n < 1:
        raise ValueError("exterior harmonic fields start at n = 1")
    _check_order(n, m)
    pts, r = _radius_split(x)
    if np.any(r == 0):
        raise ValueError("exterior harmonic fields are singular at x = 0")
    xh = pts / r[:, None]
    table = harmonic_table(n, xh)
    j = n * (n + 1) + m
    d_t, d_p = table.d_theta[j][:, None], table.d_phi[j][:, None]
    if kind == "Eh":
        out = -(r ** -(n + 1))[:, None] * (d_t * table.phi_hat - d_p * table.theta_hat)
    else:
        rad = (r ** -(n + 2))[:, None]
        out = rad * (n * (n + 1) * table.y[j][:, None] * xh - n * (d_t * table.theta_hat + d_p * table.phi_hat))
    return out.reshape(np.shape(x)[:-1] + (3,))


def farfield_pattern(family: str, n: int, m: int, omega: complex, xhat) -> np.ndarray:
    """Far-field pattern of the radiating multipole:
    -sqrt(n(n+1)) w^-1 e^{-i(n+1)pi/2} V_n^m (TE) or U_n^m (TM)."""
    _family_index(family)
    omega = complex(omega)
    if omega == 0:
        raise ValueError("far-field pattern needs a nonzero frequency")
    u, v = vsh_UV(n, m, xhat)
    return _farfield_coefficient(n, omega) * (v if family == "TE" else u)


def _farfield_coefficient(n, omega):
    """-sqrt(n(n+1)) w^-1 e^{-i(n+1)pi/2}: the far-field factor of order n."""
    return -math.sqrt(n * (n + 1)) / omega * _farfield_phase(n)


@functools.lru_cache(maxsize=None)
def _farfield_phase(n):
    """e^{-i(n+1)pi/2}, the omega-independent part of the far-field factor."""
    return np.exp(-1j * (n + 1) * math.pi / 2)


def jacobi_anger_partial(w: IncidentWave, N: int, x) -> np.ndarray:
    """Partial sum (1 <= n <= N) of the plane-wave expansion: entire
    multipole fields with the coefficients -P of _incidence."""
    if N < 1:
        raise ValueError("need at least one expansion order")
    proj_te, proj_tm = _incidence(N, w.direction.tobytes(), w.polarization.tobytes())
    return _multipole_sum("entire", -np.array((0j, *proj_te)), -np.array((0j, *proj_tm)), w.omega, x)
