"""Mie scattering for a single dielectric sphere: coefficient table, scattered
field, far-field amplitude, cross sections and the high-contrast coefficient
asymptotics."""

import cmath
import math
import operator
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fields import IncidentWave, _far_field_sum, _finite, _incidence, _multipole_sum, _radius_split
from .specfun import MAX_ORDER, _degree, _keys, _one_pass, _riccati, _rows, _top, radial_pair, riccati_H, riccati_J


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
        object.__setattr__(self, "tau", _checked_sphere(self.delta, self.tau))
        object.__setattr__(self, "omega", _finite("omega", complex(self.omega)))
        if self.omega == 0:
            raise ValueError(f"omega = {self.omega} must be nonzero")
        if self.n_max is None:
            object.__setattr__(self, "n_max", default_n_max(self.delta, self.tau, self.omega))
        elif operator.index(self.n_max) < 1:
            raise ValueError("n_max must be >= 1")
        if self.n_max > MAX_ORDER:
            raise ValueError(f"n_max = {self.n_max} exceeds the supported maximum {MAX_ORDER} "
                             f"(interior size |delta omega sqrt(1 + tau)| = {abs(self.delta * self.omega_tau):.6g})")

    @property
    def omega_tau(self) -> complex:
        """Interior wavenumber omega sqrt(1 + tau), principal branch."""
        return _arguments(1.0, self.tau, self.omega)[1]


def _checked_sphere(delta, tau) -> complex:
    """The contrast tau as a complex, after checking the sphere: delta finite
    and positive, tau finite with Re tau > 0 and Im tau >= 0."""
    if _finite("radius delta", delta) <= 0:
        raise ValueError("radius delta must be positive")
    tau = _finite("contrast tau", complex(tau))
    if tau.real <= 0 or tau.imag < 0:
        raise ValueError("contrast must satisfy Re tau > 0 and Im tau >= 0")
    return tau


def default_n_max(delta, tau, omega) -> int:
    """Truncation adapted to the interior wavenumber, the large one here."""
    return max(8, math.ceil(abs(_arguments(delta, tau, omega)[1])) + 8)


def _arguments(delta, tau, omega):
    """Exterior and interior arguments delta omega and delta omega sqrt(1 + tau)."""
    return delta * omega, delta * omega * cmath.sqrt(1 + tau)


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
    (x, hx), (y, jy) = _one_pass(n, x, "h"), _one_pass(n, y, "j")
    return _matching(hx[n], _riccati(n, x, hx, "h"), jy[n], _riccati(n, y, jy, "j"), tau)


def _factor_row(hx, bighx, jx, bigjx, jy, bigjy, tau):
    """TE and TM (num, den, scale) of one order: the numerator and denominator
    of the radial factor and the size of the two products that cancel in the
    denominator."""
    den_te, den_tm = _matching(hx, bighx, jy, bigjy, tau)
    num_te, num_tm = _matching(jx, bigjx, jy, bigjy, tau)
    scale_te = abs(hx * bigjy) + abs(jy * bighx)
    scale_tm = abs(hx * bigjy / (1 + tau)) + abs(jy * bighx)
    return (num_te, den_te, scale_te), (num_tm, den_tm, scale_tm)


def _factor_table(n_max, delta, tau, omega):
    """_factor_row of every order 0..n_max from the rows f and F of one 0-d
    pass per function: h(dw), j(dw) and j(dw_t).  mie_denominators reads the
    same Python complex rows, so that row n of the table of size n and the
    denominators of order n agree bit for bit."""
    x, y = map(complex, _arguments(delta, tau, omega))
    tables = []
    for z, kind in ((x, "h"), (x, "j"), (y, "j")):
        rows = _rows(n_max, z, kind)
        tables += [rows[:n_max + 1], [_riccati(k, z, rows, kind) for k in range(n_max + 1)]]
    return [_factor_row(*row, tau) for row in zip(*tables)]


class _Coefficients(Mapping):
    """Read-only (n, m) -> coefficient view of a stack at k = n(n+1) + m,
    1 <= n <= N, |m| <= n."""

    def __init__(self, stack):
        self._stack = stack

    def __getitem__(self, key):
        n, m = key
        if not (1 <= n <= _top(self._stack) and abs(m) <= n):
            raise KeyError(key)
        return self._stack[n * (n + 1) + m]

    def __iter__(self):
        return _keys(_top(self._stack))

    def __len__(self):
        return len(self._stack) - 1


def _stacks(*tables):
    """Read-only stacks of (n, m) mappings or of stacks, all up to the
    highest order any of them holds, missing entries 0."""
    if any(len(c) != (_top(c) + 1) ** 2 for c in tables if not isinstance(c, Mapping)):
        raise ValueError("a coefficient stack has length (n_max + 1)^2")
    top = max(max((n for n, _ in c), default=0) if isinstance(c, Mapping) else _top(c) for c in tables)
    out = np.zeros((len(tables), (top + 1) ** 2), dtype=complex)
    for row, c in zip(out, tables):
        if not isinstance(c, Mapping):
            row[:len(c)] = c
            continue
        for (n, m), value in c.items():
            if n < 1 or abs(m) > n:
                raise ValueError(f"no coefficient of order (n, m) = ({n}, {m})")
            row[n * (n + 1) + m] = value
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class MieTable:
    """Scattering coefficients gamma (TE) and eta (TM) for one configuration.

    gamma and eta are given as (n, m) mappings or as stacks at
    k = n(n+1) + m (entry 0 unused).  The table keeps them stacked in te and
    tm, up to the highest order either holds and with missing entries 0;
    gamma and eta become read-only (n, m) views of those stacks.
    """

    config: ScatterConfig
    incident: IncidentWave
    gamma: Mapping = field(default_factory=dict)
    eta: Mapping = field(default_factory=dict)
    te: np.ndarray = field(init=False, repr=False, compare=False)
    tm: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        te, tm = _stacks(self.gamma, self.eta)
        for name, value in (("te", te), ("tm", tm), ("gamma", _Coefficients(te)), ("eta", _Coefficients(tm))):
            object.__setattr__(self, name, value)

    def radial_te(self, n: int) -> complex:
        """m-independent TE radial factor num/den of order n."""
        return self._ratio(n, 0)

    def radial_tm(self, n: int) -> complex:
        return self._ratio(n, 1)

    def _ratio(self, n, family):
        # row n of the table mie_coefficients reads, so the two agree bit for bit
        c = self.config
        num, den, _ = _factor_table(max(n, c.n_max), c.delta, c.tau, c.omega)[n][family]
        return num / den


def mie_coefficients(cfg: ScatterConfig, w: IncidentWave) -> MieTable:
    """Coefficient table gamma_{n,m}, eta_{n,m} for 1 <= n <= n_max, |m| <= n.

    Raises ResonanceError when a denominator is degenerate relative to the
    size of its two products (omega numerically a scattering resonance).
    The angular part comes from the memo of the incidence; per omega only the
    radial factors, their ratios and one product per entry, taken for all
    entries at once, are computed.
    """
    if complex(w.omega) != cfg.omega:
        w = w._at(cfg.omega)
    factors = _factor_table(cfg.n_max, cfg.delta, cfg.tau, cfg.omega)
    ratios = [0j, 0j]  # TE, TM at n = 0, where the stacks hold one entry
    for n in range(1, cfg.n_max + 1):
        (num_te, den_te, scale_te), (num_tm, den_tm, scale_tm) = factors[n]
        if abs(den_te) < 1e-14 * scale_te:
            raise ResonanceError(n, "TE")
        if abs(den_tm) < 1e-14 * scale_tm:
            raise ResonanceError(n, "TM")
        ratios += [num_te / den_te, num_tm / den_tm]
    ratios = np.reshape(ratios, (-1, 2)).T[:, _degree(cfg.n_max)]
    proj = _incidence(cfg.n_max, w.direction.tobytes(), w.polarization.tobytes())
    # the products as Python complex rounds them, with no fused multiply-add
    pr, pi, rr, ri = proj.real, proj.imag, ratios.real, ratios.imag
    stacks = np.empty_like(proj)
    stacks.real, stacks.imag = pr * rr - pi * ri, pr * ri + pi * rr
    return MieTable(cfg, w, *stacks)


def scattered_field(t: MieTable, x) -> np.ndarray:
    """Scattered wave outside the sphere: sum of radiating multipole fields
    weighted by the table coefficients."""
    _, r = _radius_split(x)
    if np.any(r <= t.config.delta):
        raise ValueError("scattered field is only represented for |x| > delta")
    return _multipole_sum("radiating", t.te, t.tm, t.config.omega, x)


def far_field(t: MieTable, xhat) -> np.ndarray:
    """Scattering amplitude at the direction(s) xhat, (..., 3): the far field of scattered_field."""
    return _far_field_sum(t.te, t.tm, t.config.omega, xhat)


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
    sphere quadrature of |far field|^2), Qext from the optical theorem as the
    same kind of sum against the plane-wave expansion P of the incidence,
    w^-2 Re sum n(n+1) (gamma conj P^TE + eta conj P^TM) (Bohren & Huffman,
    Absorption and Scattering of Light by Small Particles (1983), sec. 4.4).
    Only defined for real omega, where the incident flux is unit.
    """
    omega = t.config.omega
    if omega.imag != 0:
        raise ValueError("cross sections are defined for real frequencies only")
    w = omega.real
    top = _top(t.te)
    n = _degree(top)
    weight = n * (n + 1)
    terms = weight * (np.abs(t.te) ** 2 + np.abs(t.tm) ** 2)
    qs = float(terms.sum()) / w ** 2
    n_max = max(t.config.n_max, top)  # a table may hold orders past the configuration's truncation
    tail = float(terms[(n_max // 2 + 1) ** 2:(n_max + 1) ** 2].sum()) / w ** 2
    converged = tail <= 1e-12 * max(qs, 1e-300)
    if not converged:
        warnings.warn("partial-wave sum not converged at n_max; raise the truncation order")
    proj = np.conj(_incidence(top, t.incident.direction.tobytes(), t.incident.polarization.tobytes())[:, 1:])
    qext = float(np.real(np.sum(weight[1:] * (t.te[1:] * proj[0] + t.tm[1:] * proj[1])))) / w ** 2
    return CrossSectionReport(qs, qext, qext - qs, n_max, converged)


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
    x, y = _arguments(cfg.delta, cfg.tau, cfg.omega)
    if abs(x) >= 1:
        raise ValueError("asymptotics need |delta omega| < 1")
    j_y, bigj_y = radial_pair(n, y)
    predicted_tm = riccati_J(n, x) / riccati_H(n, x)
    if n == 1:
        predicted_te = (1j / 3) * x ** 3 * (bigj_y - 2 * j_y) / (bigj_y + j_y)
        return CoefficientAsymptotics(predicted_te, predicted_tm, False)
    envelope = abs(x) ** (2 * n + 1) / abs(bigj_y / n + j_y)
    return CoefficientAsymptotics(complex(envelope), predicted_tm, True)
