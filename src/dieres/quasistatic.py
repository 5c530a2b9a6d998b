"""Quasi-static eigenstructure of the unit ball and the resonant response
built on it: spectrum and normalized eigenmodes, mode-potential integrals,
the two scattering functions, blow-up coefficient, resonant dipole pair,
resonant approximate moments and orientation-averaged cross sections."""

import cmath
import functools
import heapq
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .fields import IncidentWave, _incidence, _single_field, multipole_field
from .mie import _arguments
from .multipole import _cross, _harmonic_grid, ball_quadrature
from .resonance import ContrastModel, _radius, quasi_static_prediction
from .specfun import (_IM_OVERFLOW, _finite, _radius_split, bessel_zero, radial_pair, radial_table,
                      solid_harmonic_gradient_deg1, sph_bessel_j, sph_harmonic)

_MAX_COUNT = 634  # the largest count of sphere_spectrum


class PoleError(ArithmeticError):
    """Evaluation requested at (or numerically on top of) a pole."""


def _guard_pole(value, pole, what):
    if abs(_finite("omega", value) - _finite("omega0", pole)) <= 1e-12 * max(abs(pole), 1.0):
        raise PoleError(f"{what} has a pole at {pole}")


# ---------------------------------------------------------------------------
# spectrum and eigenmodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenModeLabel:
    """Entire multipole field (kind, n, m) at any wavenumber k, an eigenmode where k is a zero of its family."""

    kind: str  # "TE" or "TM"
    n: int
    m: int
    k: float


@dataclass(frozen=True)
class SphereEigenvalue:
    k: float
    lam: float
    family_n: int
    zero_index_s: int
    multiplicity: int
    labels: Tuple[EigenModeLabel, ...]


def _labels_for(family_n, k):
    if family_n == 0:
        return tuple(EigenModeLabel("TE", 1, m, k) for m in (-1, 0, 1))
    n = family_n
    te = tuple(EigenModeLabel("TE", n + 1, m, k) for m in range(-(n + 1), n + 2))
    tm = tuple(EigenModeLabel("TM", n, m, k) for m in range(-n, n + 1))
    return te + tm


def sphere_spectrum(count: int):
    """The `count` largest quasi-static eigenvalues 1/k_{n,s}^2 of the unit
    ball, sorted descending, with multiplicities and mode labels; count runs
    from 1 to 634, the eigenvalues above 1/k_{64,1}^2, whose merge needs Bessel
    orders up to specfun.MAX_ORDER = 64 only."""
    if operator.index(count) < 1:
        raise ValueError("count must be >= 1")
    if count > _MAX_COUNT:
        raise ValueError(f"count = {count} exceeds the supported maximum {_MAX_COUNT}")
    # merge the rows k_{n,1} < k_{n,2} < ...: they start in order in n, so row n + 1 joins when row n does
    heap, out = [(bessel_zero(0, 1), 0, 1)], []
    while len(out) < count:
        k, n, s = heapq.heappop(heap)
        heapq.heappush(heap, (bessel_zero(n, s + 1), n, s + 1))
        if s == 1:
            heapq.heappush(heap, (bessel_zero(n + 1, 1), n + 1, 1))
        labels = _labels_for(n, k)
        out.append(SphereEigenvalue(k, 1.0 / k ** 2, n, s, len(labels), labels))
    return out


def eigenmode_norm(label: EigenModeLabel) -> float:
    """L2(B(0,1)) norm of the labeled entire multipole field.

    The TE norm squared is n(n+1) L, L = int_0^1 j_n(kr)^2 r^2 dr = (j_n(k)^2 -
    j_{n+1}(k) j_{n-1}(k)) / 2 (Lommel); the TM one is n(n+1) (j_n(k) F_n(k) / k^2 + L),
    by parts with psi = t j_n(t), psi' = F_n (Watson, Bessel Functions (1944), sec. 5.11).
    """
    n, k = label.n, label.k
    _single_field(label.kind, n, label.m, "multipole fields")  # the label checks of eigenmode
    if label.kind == "TM" and k == 0:
        raise ValueError("TM fields need a nonzero wavenumber")
    rows, riccati = radial_table(n + 1, k)
    j_below, j, j_above = rows[n - 1:].tolist()
    lommel = 0.5 * (j ** 2 - j_above * j_below).real
    if label.kind == "TM":
        lommel += (j * riccati[n]).real / k ** 2
    return math.sqrt(n * (n + 1) * lommel)


def eigenmode(label: EigenModeLabel, x, normalized: bool = False):
    """Evaluate the labeled eigenmode inside the closed unit ball."""
    if np.any(_radius_split(x)[1] > 1 + 1e-12):
        raise ValueError("eigenmodes are defined on the unit ball")
    val = multipole_field("entire", label.kind, label.n, label.m, label.k, x)
    norm = eigenmode_norm(label) if normalized else None
    if norm == 0:
        raise ValueError(f"{label} has norm 0 and cannot be normalized")
    return val if norm is None else val / norm


# ---------------------------------------------------------------------------
# mode potentials
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _default_ball_quad():
    return ball_quadrature(24, 32, 64)


def mode_potential_curl_part(j: int, pts) -> np.ndarray:
    """Explicit part pi x j_1(pi|x|) Y_1^j of the ground TE mode potential.

    The gradient completion that makes the potential divergence-free lives in
    H_0^1 and never contributes to the integrals used here.  pts: (..., 3), like the result.
    """
    flat, r = _radius_split(pts)
    vals = np.zeros((len(flat), 3), dtype=complex)
    nz = r > 0
    xh = flat[nz] / r[nz, None]
    y = sph_harmonic(1, j, xh)
    prof = math.pi * np.asarray(sph_bessel_j(1, math.pi * r[nz]))
    vals[nz] = (prof * y)[:, None] * flat[nz]
    return vals.reshape(np.shape(pts)[:-1] + (3,))


def mode_potential_integral(j: int) -> np.ndarray:
    """Ball integral of the ground TE mode potential: (4/pi) grad(|x| Y_1^j),
    in closed form, as a new array on each call.

    Only the explicit part contributes (the H_0^1 gradient part integrates to
    zero); the tests check the closed form by ball quadrature of that part.
    """
    if j not in (-1, 0, 1):
        raise ValueError("ground mode potentials carry m in {-1, 0, 1}")
    return (4 / math.pi) * solid_harmonic_gradient_deg1(j)


def gradient_outer_sum() -> np.ndarray:
    """Sum over m of grad(|x| Y_1^m) (x) conj(grad(|x| Y_1^m)); equals
    3/(4 pi) times the identity."""
    total = np.zeros((3, 3), dtype=complex)
    for j in (-1, 0, 1):
        g = solid_harmonic_gradient_deg1(j)
        total += np.outer(g, np.conj(g))
    return total


# ---------------------------------------------------------------------------
# scattering functions and blow-up coefficient
# ---------------------------------------------------------------------------

def scatter_fn_explicit(omega: complex, delta: float, tau: complex) -> complex:
    """Mie-derived scattering function (8 pi^2/3)(2 j_1 - J_1)/(J_1 + j_1)
    evaluated at the interior argument delta omega sqrt(1 + tau)."""
    small, big = radial_pair(1, _arguments(_radius(delta), tau, omega)[1])
    den = big + small
    if abs(den) < 1e-12 * (abs(big) + abs(small)):
        raise PoleError("scattering function pole: J_1 + j_1 vanishes at this frequency")
    return 8 * math.pi ** 2 / 3 * (2 * small - big) / den


def scatter_fn_general(omega: complex, omega0: complex, c_tau: complex) -> complex:
    """Pole-pencil scattering function -(8/pi^2) w^2 w0 c_tau / (w - w0)."""
    _guard_pole(omega, omega0, "general scattering function")
    return -8 / math.pi ** 2 * omega ** 2 * omega0 * _finite("c_tau", c_tau) / (omega - omega0)


def _complex(re, im):
    """The complex array re + i im, bit for bit (re + 1j * im loses signed zeros, makes inf parts NaN)."""
    return np.stack((re, im), axis=-1).view(complex)[..., 0]


def _product(a, b):
    """a * b of complex arrays, a real operand taken as x + 0j, as CPython's and numpy's scalar
    complex products round it (numpy's array product may fuse a multiply-add)."""
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    return _complex(ar * br - ai * bi, ar * bi + ai * br)


def _quotient(a, b, scaled=False):
    """a / b of complex arrays as CPython's complex division rounds it (Smith's method, branching on
    |Re b| >= |Im b|; CPython 3.11 Objects/complexobject.c), or with scaled as numpy's scalar
    division does: times the reciprocal of the denominator."""
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    wide = np.abs(br) >= np.abs(bi)
    ratio = np.where(wide, bi / br, br / bi)
    denom = np.where(wide, br + bi * ratio, br * ratio + bi)
    re, im = np.where(wide, ar + ai * ratio, ar * ratio + ai), np.where(wide, ai - ar * ratio, ai * ratio - ar)
    return _complex(re * (1.0 / denom), im * (1.0 / denom)) if scaled else _complex(re / denom, im / denom)


def _scatter_grid(omegas, delta, model):
    """scatter_fn_explicit and scatter_fn_general of the contrast model at delta and each Python float of
    omegas, a complex NaN where one has a pole: one array pass, every cell the scalar calls' bits.  s~
    takes the upward rows of j at y in CPython's complex arithmetic, s^ numpy's scalar arithmetic and
    Python's float power (not w * w).  Points where a scalar call takes another pass, may meet a pole or
    fails a check go to the scalar calls in grid order, so the first failing point raises its error."""
    tau, c_tau = model.evaluate(delta), _finite("c_tau", model.c_tau)
    omega0 = _finite("omega0", quasi_static_pole(model))  # scatter_fn_general's checks, once per grid
    om = np.array(omegas, dtype=float)
    with np.errstate(all="ignore"):  # where a part overflows, the point goes to the scalar calls
        y = _product(delta * om, cmath.sqrt(1 + tau))  # mie._arguments
        sin = np.sin(y)
        j0, cos_y = _quotient(np.stack((sin, np.cos(y))), y)
        j1 = _quotient(sin, _product(1, _product(y, y))) - cos_y  # y ** 2 is 1 * (y * y) in CPython
        big = _product(y, j0) - _product(1, j1)  # specfun._riccati
        den = big + j1
        tilde = _quotient(_product(8 * math.pi ** 2 / 3, _product(2, j1) - big), den)
        squares = np.array([math.nan if abs(w) > 1e154 else w ** 2 for w in omegas])  # ** raises past 1e154
        eps = om - omega0
        hat = _quotient(_product(_product(-8 / math.pi ** 2 * squares, omega0), c_tau), eps, scaled=True)
        # to the scalar calls: the series pass (|y| <= 1), failing checks, and twice a pole's bound around it
        rest = ((np.abs(y) <= 1 + 1e-12) | (np.abs(y.imag) > _IM_OVERFLOW) | ~np.isfinite(tilde) | ~np.isfinite(hat)
                | (np.abs(den) < 2e-12 * (np.abs(big) + np.abs(j1))) | (np.abs(eps) <= 2e-12 * max(abs(omega0), 1.0)))
    for i in np.flatnonzero(rest).tolist():
        for out, fn, args in ((tilde, scatter_fn_explicit, (delta, tau)), (hat, scatter_fn_general, (omega0, c_tau))):
            try:
                out[i] = fn(omegas[i], *args)
            except PoleError:
                out[i] = complex(math.nan, math.nan)
    return tilde, hat


def blowup_coefficient(omega: complex, delta: float, omega0: complex, c_m1: float, lambda0: float) -> complex:
    """Two-term pole expansion coefficient
    -w0/(2(w-w0)) + delta w0^2 c_{-1} w^2 lambda0 / (4 (w-w0)^2);
    the contrast enters only through omega0."""
    _guard_pole(omega, omega0, "blow-up coefficient")
    eps = omega - omega0
    # delta = 0 leaves the simple pole alone
    return (-omega0 / (2 * eps) + _finite("delta", delta) * omega0 ** 2 * _finite("c_m1", c_m1) * omega ** 2
            * _finite("lambda0", lambda0) / (4 * eps ** 2))


# ---------------------------------------------------------------------------
# Neumann-Poincare diagonalization on the unit sphere
# ---------------------------------------------------------------------------

def np_eigenvalue(n: int) -> float:
    """Eigenvalue of the adjoint Neumann-Poincare operator on degree-n
    spherical harmonics for the unit sphere: 1/(2(2n+1))."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return 1.0 / (2 * (2 * n + 1))


def half_plus_np_inverse_factor(n: int) -> float:
    """Diagonal factor of (1/2 + K*)^{-1} on degree-n harmonics."""
    return 1.0 / (0.5 + np_eigenvalue(n))


# ---------------------------------------------------------------------------
# resonant dipole pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DipolePair:
    p: np.ndarray
    m: np.ndarray


def quasi_static_pole(model: ContrastModel) -> complex:
    """Ground magnetic resonance k_{0,1} / sqrt(c_tau), the TE n = 1, s = 1 prediction."""
    return quasi_static_prediction("TE", 1, 1, model)


def dipole_approximation(w: IncidentWave, omega: float, delta: float,
                         model: ContrastModel) -> DipolePair:
    """Resonant dipole pair of a high-contrast sphere near the magnetic
    resonance: the frequency-independent electric dipole 2 pi delta^3 E0 from
    the Neumann-Poincare inversion, and the resonant magnetic dipole driven
    by d x E0 through the pole factor.  The analytic remainder of the full
    expansion is not included.
    """
    omega0 = quasi_static_pole(model)
    _guard_pole(omega, omega0, "dipole approximation")
    # (1/2 + K*)^{-1}[nu] = (3/2) nu on degree-1 densities; with
    # int x (x) x = (4 pi/3) I the electric factor collapses to 2 pi.
    p = 2 * math.pi * _radius(delta) ** 3 * w.polarization.astype(complex)
    drive = _cross(w.direction, w.polarization)
    m = (
        model.c_tau * omega ** 2 * delta ** 3
        * (-omega0 / (2 * (omega - omega0)))
        * (16 / math.pi ** 2)
        * (gradient_outer_sum() @ drive)
    )
    return DipolePair(p, m)


def dipole_far_field(pair: DipolePair, omega: float, xhat) -> np.ndarray:
    """Amplitude (w^2/4pi)(xhat x (p x xhat) + m x xhat) of a dipole pair."""
    xhat = np.asarray(xhat, dtype=float)
    p_part = _cross(xhat, _cross(pair.p, xhat))
    m_part = _cross(pair.m, xhat)
    return omega ** 2 / (4 * math.pi) * (p_part + m_part)


# ---------------------------------------------------------------------------
# resonant approximate moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ResonantMoments:
    q0_hat: np.ndarray   # (3,)
    m1_hat: np.ndarray   # (3,)
    m2_hat: np.ndarray   # (3, 3)


def resonant_moments(w: IncidentWave, omega: float, delta: float, model: ContrastModel,
                     n_sh: int = 10, quad=None) -> ResonantMoments:
    """Principal resonant moments near the ground magnetic resonance.

    M1 sums the blow-up coefficient against the mode-potential integrals, M2
    pairs the mode overlaps with the first mode-potential moments, and Q0
    runs the stated chain: Newtonian potential of the projected incident
    field, spherical-harmonic extraction of its normal trace on the sphere,
    Neumann-Poincare inversion, first-moment integration.  For the ball the
    structural factors of M2 and Q0 vanish (parity and tangentiality of the
    TE potentials), so those moments sit at quadrature scale; their pole
    prefactors are still exact.

    The mode overlaps read the plane-wave expansion of the incidence; the
    other quadrature runs on the product grid of `quad` (from ball_quadrature):
    one harmonic table at its polar nodes, sums over phi as products with the
    phase matrix, vector contractions in (theta-hat, phi-hat) components, and
    radial profiles integrated separately.
    """
    if n_sh < 1:
        raise ValueError("the harmonic extraction needs n_sh >= 1")
    if quad is None:
        quad = _default_ball_quad()
    sphere = quad.angular
    if quad.radial_nodes is None or sphere is None or sphere.polar_nodes is None:
        raise ValueError("resonant_moments needs the product structure of a quadrature from ball_quadrature")
    omega0 = quasi_static_pole(model)
    _guard_pole(omega, omega0, "resonant moments")
    eps = omega - omega0
    k0 = bessel_zero(0, 1)
    lam0 = 1.0 / k0 ** 2
    tau = model.evaluate(delta)

    xa, wa = sphere.points, sphere.weights
    r, wr = quad.radial_nodes, quad.radial_weights
    e0, d = w.polarization, w.direction

    trace_inc = (xa @ e0) * np.exp(1j * delta * omega * (xa @ d))      # incident normal trace on S, (n_a,)

    # Y_n^m for n <= n_sh and grad_S Y_n^m = sqrt(n(n+1)) U_n^m at the polar
    # nodes; the degree-1 rows at every node, with V_1^j = (d_theta phi-hat -
    # d_phi theta-hat) / sqrt(2)
    grid = _harmonic_grid(sphere, n_sh)
    table, deg = grid.table, grid.table.degree
    y1, dt1, dp1 = (grid.at_nodes(part, slice(1, 4)) for part in (table.y, table.d_theta, table.d_phi))

    # normalized ground modes: pi * TE_{1,j}(k0, x) = prof(r) V_1^j(xhat), met
    # by the incident wave on |x| = r as sqrt(2) j_1(delta w r) P_{1,j}^TE
    j1 = np.asarray(sph_bessel_j(1, k0 * r)).real
    prof = -math.sqrt(2) * k0 * j1  # (n_r,)
    proj_te = _incidence(1, d.tobytes(), e0.tobytes())[0, 1:]
    overlaps = math.sqrt(2) * proj_te * np.sum(wr * prof * sph_bessel_j(1, delta * omega * r))

    c_m = blowup_coefficient(omega, delta, omega0, model.c_minus1, lam0)

    # second blow-up term (K_B E_j, (T_B|_W)^{-1} P_w incident): the ball
    # potential of a ground mode is lambda0 * mode, and the gradient-sector
    # basis fields meet the tangential modes only through the U/V overlap
    b = grid.analysis(table.y, trace_inc)                              # (K,)
    max_b = np.max(np.abs(b[1:]))
    top_b = np.max(np.abs(b[deg == n_sh]))
    if max_b > 0 and top_b > 1e-8 * max_b:
        warnings.warn("spherical-harmonic truncation under-resolved; raise n_sh")
    rad = np.array([np.sum(wr * prof * r ** p) for p in range(n_sh + 1)])  # radial moments r^p
    n = deg[1:]
    coef = -(2 * n + 1) / (n + 1) * b[1:] / n
    # sqrt(n(n+1)) V_1^j . conj(U_k) = (d_theta^j conj(d_phi^k) - d_phi^j conj(d_theta^k)) / sqrt(2)
    ang = (grid.analysis(table.d_phi, dt1) - grid.analysis(table.d_theta, dp1))[:, 1:] / math.sqrt(2)
    second = lam0 * np.einsum("jk,k->j", ang, np.conj(coef) * rad[n - 1])
    t2_pref = omega ** 2 * omega0 * model.c_tau / tau / (2 * eps)

    m1 = np.zeros(3, dtype=complex)
    m2 = np.zeros((3, 3), dtype=complex)
    phi_rad = float(np.sum(wr * k0 * r ** 2 * j1))
    xx_outer = np.einsum("a,ai,ak->aik", wa, xa, xa)
    for j, ov, sec, y in zip((-1, 0, 1), overlaps, second, y1):
        m1 += (c_m * ov + t2_pref * sec) * mode_potential_integral(j)
        m2 += ov * phi_rad * np.einsum("a,aik->ik", y, xx_outer)
    m2 *= -omega0 / eps

    # Q0: solid-harmonic moments of the projected field sum_j overlaps_j V_1^j
    # give the Newtonian potential on the sphere; its normal trace is
    # inverted degree by degree
    proj_t, proj_p = np.einsum("j,ja->a", overlaps, -dp1), np.einsum("j,ja->a", overlaps, dt1)
    proj = (proj_t[:, None] * grid.theta_hat + proj_p[:, None] * grid.phi_hat).T / math.sqrt(2)  # (3, n_a)
    g = rad[deg] * grid.analysis(table.y, proj)                                                    # (3, K)
    trace = np.einsum("ia,ia->a", grid.synthesis(table.y, g / (2 * deg + 1)), xa.T)
    q0 = np.zeros(3, dtype=complex)
    for y in y1:
        b1 = complex(np.sum(wa * np.conj(y) * trace))
        q0 += half_plus_np_inverse_factor(1) * b1 * np.einsum("a,ai->i", wa * y, xa)
    q0 *= -(delta ** 2 * omega ** 2 * omega0) / (2 * eps)
    return ResonantMoments(q0, m1, m2)


# ---------------------------------------------------------------------------
# orientation-averaged cross sections
# ---------------------------------------------------------------------------

def averaged_cross_sections(omega: float, delta: float, model: ContrastModel):
    """Orientation-averaged scattering and extinction rates of the resonant
    magnetic dipole:

        Qs_m = |c_tau|^2 d^6 |w0|^2 |w|^8 / |w-w0|^2 * (4 pi / 27) |I_phi|^4
        Q'_m = c_tau d^3 (-w0 w^3/(w-w0)) * (16 pi^2 / 9) |I_phi|^2

    with I_phi the ground mode-potential integral (|I_phi|^2 = 12/pi^3)."""
    omega0 = quasi_static_pole(model)
    _guard_pole(omega, omega0, "averaged cross sections")
    _radius(delta)
    i_phi_sq = float(np.sum(np.abs(mode_potential_integral(0)) ** 2))
    qs = (
        abs(model.c_tau) ** 2 * delta ** 6
        * abs(omega0) ** 2 * abs(omega) ** 8 / abs(omega - omega0) ** 2
        * (4 * math.pi / 27) * i_phi_sq ** 2
    )
    qext = (
        model.c_tau * delta ** 3
        * (-omega0 * omega ** 3 / (omega - omega0))
        * (16 * math.pi ** 2 / 9) * i_phi_sq
    )
    return float(qs), complex(qext)


# ---------------------------------------------------------------------------
# trace-matching systems (singularity tests)
# ---------------------------------------------------------------------------

def te_matching_matrix(n: int, k: float) -> np.ndarray:
    """2x2 interior/exterior TE trace-matching system; singular exactly at
    zeros of j_{n-1} since its determinant is n j_n(k) + J_n(k) = k j_{n-1}(k)."""
    j, big = radial_pair(n, k)
    return np.array([[j, -1.0], [big, float(n)]], dtype=complex)


def tm_matching_matrix(n: int, k: float) -> np.ndarray:
    """2x2 TM trace-matching system; singular exactly at zeros of j_n."""
    j, big = radial_pair(n, k)
    return np.array([[j, 0.0], [big / (1j * k), -(2 * n + 1.0)]], dtype=complex)
