"""Multipole field evaluators: entire and radiating TE/TM fields, exterior
harmonic (Debye) fields, far-field patterns, the incident plane wave and its
partial-wave expansion."""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import (
    radial_pair,
    solid_harmonic_gradient_deg1,
    sph_bessel_j,
    sph_hankel1,
    sph_harmonic,
    vsh_UV,
)


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


@dataclass(frozen=True)
class IncidentWave:
    """Unit plane wave E0 exp(i w d.x) with transverse real polarization."""

    direction: np.ndarray
    polarization: np.ndarray
    omega: complex

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        e0 = np.asarray(self.polarization, dtype=float)
        if abs(np.linalg.norm(d) - 1) > 1e-12 or abs(np.linalg.norm(e0) - 1) > 1e-12:
            raise ValueError("incident direction and polarization must be unit vectors")
        if abs(np.dot(d, e0)) > 1e-12:
            raise ValueError("polarization must be orthogonal to the propagation direction")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "polarization", e0)
        object.__setattr__(self, "omega", complex(self.omega))


def plane_wave(w: IncidentWave, x) -> np.ndarray:
    """Incident field E0 exp(i w d.x) at point(s) x."""
    x = np.asarray(x, dtype=float)
    phase = np.exp(1j * w.omega * (x @ w.direction))
    return np.asarray(phase)[..., None] * w.polarization


def _radius_split(x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(x, axis=-1)
    return x, r


def multipole_field(variant: str, family: str, n: int, m: int, k: complex, x) -> np.ndarray:
    """Entire or radiating electric multipole field of order (n, m).

    TE fields are -sqrt(n(n+1)) f_n(k r) V_n^m; TM fields are their scaled
    curls, evaluated from the Riccati combinations.  The radiating variant
    replaces j_n by the first-kind Hankel function (and J_n by H_n) and is
    singular at the origin.
    """
    if variant not in ("entire", "radiating"):
        raise ValueError(f"unknown variant {variant!r}")
    if family not in ("TE", "TM"):
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("multipole fields start at n = 1")
    k = complex(k)
    if family == "TM" and k == 0:
        raise ValueError("TM fields need a nonzero wavenumber")
    single = np.asarray(x).ndim == 1
    pts, r = _radius_split(x)
    out = np.zeros((len(pts), 3), dtype=complex)
    origin = r == 0
    if np.any(origin):
        if variant == "radiating":
            raise ValueError("radiating fields are singular at x = 0")
        if family == "TM" and n == 1:
            out[origin] = (2j / 3) * solid_harmonic_gradient_deg1(m)
        # entire TE fields and TM fields with n >= 2 vanish at the origin
    off = ~origin
    if np.any(off):
        po = pts[off]
        ro = r[off]
        xh = po / ro[:, None]
        scale = math.sqrt(n * (n + 1))
        if family == "TE":
            f = sph_bessel_j(n, k * ro) if variant == "entire" else sph_hankel1(n, k * ro)
            _, v = vsh_UV(n, m, xh)
            out[off] = -scale * np.asarray(f)[:, None] * v
        else:
            f, big = radial_pair(n, k * ro, "j" if variant == "entire" else "h")
            u, _ = vsh_UV(n, m, xh)
            y = sph_harmonic(n, m, xh)
            pref = 1.0 / (1j * k * ro)
            out[off] = (
                -scale * (pref * np.asarray(big))[:, None] * u
                - n * (n + 1) * (pref * np.asarray(f) * y)[:, None] * xh
            )
    return out[0] if single else out


def harmonic_exterior(kind: str, n: int, m: int, x) -> np.ndarray:
    """Exterior harmonic multipole fields built from Debye potentials:
    E^h_{n,m} = -sqrt(n(n+1)) r^-(n+1) V_n^m and its curl."""
    if kind not in ("Eh", "curlEh"):
        raise ValueError(f"unknown kind {kind!r}")
    if n < 1:
        raise ValueError("exterior harmonic fields start at n = 1")
    single = np.asarray(x).ndim == 1
    pts, r = _radius_split(x)
    if np.any(r == 0):
        raise ValueError("exterior harmonic fields are singular at x = 0")
    xh = pts / r[:, None]
    scale = math.sqrt(n * (n + 1))
    if kind == "Eh":
        _, v = vsh_UV(n, m, xh)
        out = -scale * (r ** -(n + 1))[:, None] * v
    else:
        u, _ = vsh_UV(n, m, xh)
        y = sph_harmonic(n, m, xh)
        rad = r ** -(n + 2)
        out = (n * (n + 1) * (rad * y))[:, None] * xh - scale * n * rad[:, None] * u
    return out[0] if single else out


def farfield_pattern(family: str, n: int, m: int, omega: complex, xhat) -> np.ndarray:
    """Far-field pattern of the radiating multipole:
    -sqrt(n(n+1)) w^-1 e^{-i(n+1)pi/2} V_n^m (TE) or U_n^m (TM)."""
    if family not in ("TE", "TM"):
        raise ValueError(f"unknown family {family!r}")
    omega = complex(omega)
    if omega == 0:
        raise ValueError("far-field pattern needs a nonzero frequency")
    u, v = vsh_UV(n, m, xhat)
    return _farfield_coefficient(n, omega) * (v if family == "TE" else u)


def _farfield_coefficient(n, omega):
    """-sqrt(n(n+1)) w^-1 e^{-i(n+1)pi/2}: the far-field factor of order n."""
    return -math.sqrt(n * (n + 1)) / omega * np.exp(-1j * (n + 1) * math.pi / 2)


def jacobi_anger_partial(w: IncidentWave, N: int, x) -> np.ndarray:
    """Partial sum (1 <= n <= N) of the plane-wave expansion in entire
    multipole fields with coefficients -4 pi i^n / sqrt(n(n+1)) times the
    conjugated vector harmonics of the incident direction."""
    if N < 1:
        raise ValueError("need at least one expansion order")
    if N > 64:
        raise ValueError("expansion order capped at 64")
    single = np.asarray(x).ndim == 1
    pts, _ = _radius_split(x)
    total = np.zeros((len(pts), 3), dtype=complex)
    d = w.direction
    e0 = w.polarization
    for n in range(1, N + 1):
        coeff = -4 * math.pi * 1j ** n / math.sqrt(n * (n + 1))
        for m in range(-n, n + 1):
            u_d, v_d = vsh_UV(n, m, d)
            a_te = np.dot(np.conj(v_d), e0)
            a_tm = np.dot(np.conj(u_d), e0)
            if a_te != 0:
                total += coeff * a_te * multipole_field("entire", "TE", n, m, w.omega, pts)
            if a_tm != 0:
                total += coeff * a_tm * multipole_field("entire", "TM", n, m, w.omega, pts)
    return total[0] if single else total
