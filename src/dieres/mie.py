"""Mie scattering for a single dielectric sphere: coefficient table, scattered
field, far-field amplitude, cross sections and the high-contrast coefficient
asymptotics."""

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fields import IncidentWave, _farfield_coefficient, _multipole_sum
from .specfun import harmonic_table, radial_pair, riccati_H, riccati_J, vsh_table


class ResonanceError(ArithmeticError):
    """A Mie denominator is numerically singular: omega is a scattering
    resonance for the reported (n, family)."""

    def __init__(self, n, family):
        super().__init__(f"scattering resonance hit at n={n}, family={family}")
        self.n = n
        self.family = family


@dataclass(frozen=True)
class ScatterConfig:
    """Sphere of radius delta with contrast tau, probed at frequency omega."""

    delta: float
    tau: complex
    omega: complex
    n_max: int = None

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("radius delta must be positive")
        tau = complex(self.tau)
        if tau.real <= 0 or tau.imag < 0:
            raise ValueError("contrast must satisfy Re tau > 0 and Im tau >= 0")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "omega", complex(self.omega))
        if self.n_max is None:
            object.__setattr__(self, "n_max", default_n_max(self.delta, tau, self.omega))
        elif self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def omega_tau(self) -> complex:
        """Interior wavenumber omega sqrt(1 + tau), principal branch."""
        return self.omega * np.sqrt(complex(1 + self.tau))


def default_n_max(delta, tau, omega) -> int:
    """Truncation adapted to the interior wavenumber, the large one here."""
    interior = abs(delta * omega * np.sqrt(complex(1 + tau)))
    return max(8, math.ceil(interior) + 8)


def _arguments(delta, tau, omega):
    """Exterior and interior arguments delta omega and delta omega sqrt(1 + tau)."""
    return delta * omega, delta * omega * np.sqrt(complex(1 + tau))


def _matching(fx, bigfx, jy, bigjy, tau):
    """TE and TM matching products f_n(x) J_n(y) - j_n(y) F_n(x), the first
    term divided by 1 + tau for TM.  With f = h^(1) they are the Mie
    denominators, with f = j the numerators of the radial factors."""
    return fx * bigjy - jy * bigfx, fx * bigjy / (1 + tau) - jy * bigfx


def mie_denominators(n: int, delta: float, tau: complex, omega: complex):
    """Shared TE/TM denominators D_TE = h_n(dw) J_n(dw_t) - j_n(dw_t) H_n(dw)
    and D_TM with the extra (1+tau)^-1 on the first product.

    These are exactly the resonance functions whose complex zeros are the
    dielectric resonances.  One recurrence pass per argument; j_n(dw), which
    only the numerators need, is not evaluated.
    """
    x, y = _arguments(delta, tau, omega)
    return _matching(*radial_pair(n, x, "h"), *radial_pair(n, y, "j"), tau)


def _radial_factors(n, delta, tau, omega):
    x, y = _arguments(delta, tau, omega)
    hx, bighx = radial_pair(n, x, "h")
    jy, bigjy = radial_pair(n, y, "j")
    den_te, den_tm = _matching(hx, bighx, jy, bigjy, tau)
    num_te, num_tm = _matching(*radial_pair(n, x, "j"), jy, bigjy, tau)
    scale_te = abs(hx * bigjy) + abs(jy * bighx)
    scale_tm = abs(hx * bigjy / (1 + tau)) + abs(jy * bighx)
    return (num_te, den_te, scale_te), (num_tm, den_tm, scale_tm)


@dataclass(frozen=True)
class MieTable:
    """Scattering coefficients gamma (TE) and eta (TM) for one configuration."""

    config: ScatterConfig
    incident: IncidentWave
    gamma: dict = field(default_factory=dict)
    eta: dict = field(default_factory=dict)

    def radial_te(self, n: int) -> complex:
        """m-independent TE radial factor num/den of order n."""
        te, _ = _radial_factors(n, self.config.delta, self.config.tau, self.config.omega)
        return te[0] / te[1]

    def radial_tm(self, n: int) -> complex:
        _, tm = _radial_factors(n, self.config.delta, self.config.tau, self.config.omega)
        return tm[0] / tm[1]


def mie_coefficients(cfg: ScatterConfig, w: IncidentWave) -> MieTable:
    """Coefficient table gamma_{n,m}, eta_{n,m} for 1 <= n <= n_max, |m| <= n.

    Raises ResonanceError when a denominator is degenerate relative to the
    size of its two products (omega numerically a scattering resonance).
    """
    if complex(w.omega) != cfg.omega:
        w = IncidentWave(w.direction, w.polarization, cfg.omega)
    gamma = {}
    eta = {}
    angular = vsh_table(cfg.n_max, w.direction)
    for n in range(1, cfg.n_max + 1):
        (num_te, den_te, scale_te), (num_tm, den_tm, scale_tm) = _radial_factors(
            n, cfg.delta, cfg.tau, cfg.omega
        )
        if abs(den_te) < 1e-14 * scale_te:
            raise ResonanceError(n, "TE")
        if abs(den_tm) < 1e-14 * scale_tm:
            raise ResonanceError(n, "TM")
        ratio_te = num_te / den_te
        ratio_tm = num_tm / den_tm
        pref = 4 * math.pi * 1j ** n / math.sqrt(n * (n + 1))
        for m in range(-n, n + 1):
            u_d, v_d = angular[(n, m)]
            gamma[(n, m)] = pref * np.dot(np.conj(v_d), w.polarization) * ratio_te
            eta[(n, m)] = pref * np.dot(np.conj(u_d), w.polarization) * ratio_tm
    return MieTable(cfg, w, gamma, eta)


def _stacked(t):
    """gamma and eta stacked at k = n(n+1) + m up to the highest order present."""
    n_max = max((n for n, _ in (*t.gamma, *t.eta)), default=0)
    te, tm = np.zeros((2, (n_max + 1) ** 2), dtype=complex)
    for stack, coeffs in ((te, t.gamma), (tm, t.eta)):
        for (n, m), c in coeffs.items():
            stack[n * (n + 1) + m] = c
    return te, tm


def scattered_field(t: MieTable, x) -> np.ndarray:
    """Scattered wave outside the sphere: sum of radiating multipole fields
    weighted by the table coefficients."""
    r = np.linalg.norm(np.atleast_2d(np.asarray(x, dtype=float)), axis=-1)
    if np.any(r <= t.config.delta):
        raise ValueError("scattered field is only represented for |x| > delta")
    return _multipole_sum("radiating", *_stacked(t), t.config.omega, x)


def far_field(t: MieTable, xhat) -> np.ndarray:
    """Scattering amplitude: the tangential far-field pattern of the series,
    sum of c_n (gamma V_n^m + eta U_n^m) taken in the (theta-hat, phi-hat)
    frame, where sqrt(n(n+1)) U_n^m = (d_theta, d_phi) and V_n^m its
    rotation by x-hat."""
    single = np.asarray(xhat).ndim == 1
    te, tm = _stacked(t)
    n_max = math.isqrt(len(te) - 1)
    table = harmonic_table(n_max, np.atleast_2d(np.asarray(xhat, dtype=float)))
    orders = range(1, n_max + 1)
    coeff = np.repeat([_farfield_coefficient(n, t.config.omega) / math.sqrt(n * (n + 1)) for n in orders],
                      [2 * n + 1 for n in orders])
    g, e = coeff * te[1:], coeff * tm[1:]
    # (theta-hat, phi-hat) components from two-row products, as in fields._multipole_sum
    f_t, f_p = np.stack([e, g]) @ table.d_theta[1:] + np.stack([-g, e]) @ table.d_phi[1:]
    out = f_t[:, None] * table.theta_hat + f_p[:, None] * table.phi_hat
    return out[0] if single else out


@dataclass(frozen=True)
class CrossSectionReport:
    Qs: float
    Qext: float
    Qabs: float
    n_max_used: int
    converged: bool


def cross_sections(t: MieTable) -> CrossSectionReport:
    """Scattering/extinction/absorption cross sections of a populated table.

    Qs comes from the closed partial-wave sum (validated elsewhere against
    sphere quadrature of |far field|^2), Qext from the optical theorem.  Only
    defined for real omega, where the incident flux is unit.
    """
    omega = t.config.omega
    if omega.imag != 0:
        raise ValueError("cross sections are defined for real frequencies only")
    w = omega.real
    by_order = {}
    for n, m in set(t.gamma) | set(t.eta):
        term = abs(t.gamma.get((n, m), 0.0)) ** 2 + abs(t.eta.get((n, m), 0.0)) ** 2
        by_order[n] = by_order.get(n, 0.0) + term
    qs = sum(n * (n + 1) * v for n, v in by_order.items()) / w ** 2
    n_max = t.config.n_max
    tail = sum(n * (n + 1) * by_order.get(n, 0.0) for n in range(n_max // 2 + 1, n_max + 1)) / w ** 2
    converged = tail <= 1e-12 * max(qs, 1e-300)
    if not converged:
        warnings.warn("partial-wave sum not converged at n_max; raise the truncation order")
    ff = far_field(t, t.incident.direction)
    qext = 4 * math.pi / w * float(np.imag(np.dot(t.incident.polarization, ff)))
    return CrossSectionReport(float(qs), qext, qext - float(qs), n_max, converged)


class CoefficientAsymptotics(NamedTuple):
    predicted_te: complex
    predicted_tm: complex
    te_is_envelope: bool


def coefficient_asymptotics(n: int, cfg: ScatterConfig) -> CoefficientAsymptotics:
    """Leading small-radius behavior of the radial coefficient factors.

    For n = 1 the TE prediction is the explicit (i/3)(dw)^3 (J_1(y)-2j_1(y)) /
    (J_1(y)+j_1(y)) term; for n >= 2 only an order-of-magnitude envelope is
    returned (flagged).  The TM prediction is J_n(dw)/H_n(dw) at every order.
    """
    if n < 1:
        raise ValueError("asymptotics start at n = 1")
    x = cfg.delta * cfg.omega
    if abs(x) >= 1:
        raise ValueError("asymptotics need |delta omega| < 1")
    y = cfg.delta * cfg.omega_tau
    j_y, bigj_y = radial_pair(n, y)
    predicted_tm = riccati_J(n, x) / riccati_H(n, x)
    if n == 1:
        predicted_te = (1j / 3) * x ** 3 * (bigj_y - 2 * j_y) / (bigj_y + j_y)
        return CoefficientAsymptotics(predicted_te, predicted_tm, False)
    envelope = abs(x) ** (2 * n + 1) / abs(bigj_y / n + j_y)
    return CoefficientAsymptotics(complex(envelope), predicted_tm, True)
