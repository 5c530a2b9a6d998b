"""Multipole field evaluators: entire and radiating TE/TM fields, exterior
harmonic (Debye) fields, far-field patterns, the incident plane wave and its
partial-wave expansion."""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import (_check_order, _harmonic_blocks, _radius_split, harmonic_table, radial_table,
                      solid_harmonic_gradient_deg1)


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


def _field_sum(te, tm, a, b, c, xh):
    """The field sum_k te_k a_n (d_phi theta-hat - d_theta phi-hat)
    - tm_k (b_n (d_theta theta-hat + d_phi phi-hat) + c_n Y x-hat), which
    every field of this module is, at the directions xh, (..., 3) (unit
    where c is nonzero).  grad_S Y = (d_theta, d_phi); te and tm are stacked
    at k = n(n+1) + m (entry 0 unused).  Each radial factor holds per degree
    one constant, (n_max + 1,), or one row over the P points, (n_max + 1, P).
    Each degree is contracted as the ladder yields it, so the table is never
    stored, and its Y part only where c is nonzero.
    """
    theta_hat, phi_hat, blocks = _harmonic_blocks(math.isqrt(len(te) - 1), xh)
    # weighted by (b_n, a_n), the d_theta products of (-tm, -te) are the (theta-hat,
    # phi-hat) terms and the d_phi products of (-tm, te) the (phi-hat, theta-hat) terms
    pairs = np.array([[-tm, -te], [-tm, te]])
    weights = np.array(np.broadcast_arrays(b, a))
    weights = weights.reshape(weights.shape[:2] + (-1,))  # a constant broadcasts over the points
    with_y = np.count_nonzero(c) > 0
    comp, comp_x = np.zeros((2, len(theta_hat)), dtype=complex), 0
    next(blocks)  # degree 0, whose entry is unused
    for n, block in enumerate(blocks, 1):
        rows = slice(n * n, (n + 1) ** 2)
        # two-row products: one-row ones (gemv) can stall for milliseconds in threaded BLAS
        terms = pairs[:, :, rows] @ block[1:]
        terms *= weights[:, n]
        comp += terms[0] + terms[1, ::-1]
        del terms  # not held while the ladder builds the next block
        if with_y:
            comp_x += c[n] * (pairs[0, :, rows] @ block[0])[0]
    out = comp[0][:, None] * theta_hat + comp[1][:, None] * phi_hat
    return out + comp_x[:, None] * xh if with_y else out


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
        f, big = radial_table(math.isqrt(len(te) - 1), k * ro, "j" if variant == "entire" else "h")
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
    phase = (-1j) ** np.arange(1, math.isqrt(len(te)) + 1) * (1 / omega)
    return _field_sum(te, tm, phase, phase, 0, xhat).reshape(np.shape(xhat)[:-1] + (3,))


def farfield_pattern(family: str, n: int, m: int, omega: complex, xhat) -> np.ndarray:
    """Far-field pattern of the radiating multipole:
    -sqrt(n(n+1)) w^-1 (-i)^{n+1} V_n^m (TE) or U_n^m (TM)."""
    coeffs = _single_field(family, n, m, "far-field patterns")
    if omega == 0:
        raise ValueError("far-field pattern needs a nonzero frequency")
    return _far_field_sum(*coeffs, omega, xhat)


def jacobi_anger_partial(w: IncidentWave, N: int, x) -> np.ndarray:
    """Partial sum (1 <= n <= N) of the plane-wave expansion: entire
    multipole fields with the coefficients -P of _incidence."""
    if N < 1:
        raise ValueError("need at least one expansion order")
    proj_te, proj_tm = _incidence(N, w.direction.tobytes(), w.polarization.tobytes())
    return _multipole_sum("entire", -np.array((0j, *proj_te)), -np.array((0j, *proj_tm)), w.omega, x)
