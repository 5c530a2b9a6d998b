"""Mie scattering for a single dielectric sphere: coefficient table, scattered
field, far-field amplitude, cross sections and the high-contrast coefficient
asymptotics."""

import cmath
import itertools
import math
import operator
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fields import IncidentWave, _far_field_sum, _incidence, _multipole_sum
from .specfun import (MAX_ORDER, _degree, _finite, _keys, _one_pass, _radius_split, _riccati, _rows, _top, radial_pair,
                      riccati_H, riccati_J)


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


def _matching(orders, x, y, tau, hx, jy, jx=None):
    """Matching products f_k(x) J_k(y) - j_k(y) F_k(x), the first over 1 + tau
    for TM, of the orders k from the rows of the passes h(x), j(y) and j(x),
    F_0 from the closed forms: per order the Mie denominators (D_TE, D_TM),
    f = h^(1), or with jx also the numerators, f = j, as ((N, D, S)_TE,
    (N, D, S)_TM), S the size of the two products that cancel in D."""
    t1, out = 1 + tau, []
    for k in orders:
        bighx = x * hx[k - 1] - k * hx[k] if k else _riccati(0, x, hx, "h")
        bigjy = y * jy[k - 1] - k * jy[k] if k else _riccati(0, y, jy, "j")
        p, q = hx[k] * bigjy, jy[k] * bighx
        pt = p / t1
        if jx is None:
            out.append((p - q, pt - q))
            continue
        bigjx = x * jx[k - 1] - k * jx[k] if k else _riccati(0, x, jx, "j")
        pn, qn, size_q = jx[k] * bigjy, jy[k] * bigjx, abs(q)
        out.append(((pn - qn, p - q, abs(p) + size_q), (pn / t1 - qn, pt - q, abs(pt) + size_q)))
    return out


def mie_denominators(n: int, delta: float, tau: complex, omega: complex):
    """Shared TE/TM denominators D_TE = h_n(dw) J_n(dw_t) - j_n(dw_t) H_n(dw)
    and D_TM with the extra (1+tau)^-1 on the first product.

    These are exactly the resonance functions whose complex zeros are the
    dielectric resonances.  One recurrence pass per argument; j_n(dw), which
    only the numerators need, is not evaluated.
    """
    x, y = _arguments(delta, tau, omega)
    (x, hx), (y, jy) = _one_pass(n, x, "h"), _one_pass(n, y, "j")
    return _matching((n,), x, y, tau, hx, jy)[0]


def _factor_table(n_max, delta, tau, omega):
    """_matching of the orders 0..n_max from one 0-d pass each of h(dw), j(dw) and j(dw_t): the rows and
    products mie_denominators reads, so that the table of size n and the denominators of order n agree."""
    x, y = map(complex, _arguments(delta, tau, omega))
    return _matching(range(n_max + 1), x, y, tau, _rows(n_max, x, "h"), _rows(n_max, y, "j"), _rows(n_max, x, "j"))


def _ratios(n_max, delta, tau, omega):
    """The radial factors num/den of _factor_table at k = 2n + (0 for TE, 1 for TM), 0 at n = 0; ResonanceError
    where a denominator is degenerate relative to the size of its two products (a scattering resonance)."""
    ratios = [0j, 0j]
    for num, den, scale in itertools.chain.from_iterable(_factor_table(n_max, delta, tau, omega)[1:]):
        if abs(den) < 1e-14 * scale:
            raise ResonanceError(len(ratios) // 2, ("TE", "TM")[len(ratios) % 2])
        ratios.append(num / den)
    return ratios


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

    gamma and eta are given as (n, m) mappings or as stacks at k = n(n+1) + m
    (entry 0 unused).  The table copies them into read-only stacks te and tm,
    up to the highest order either holds, missing entries 0; gamma and eta are
    read-only (n, m) views of them.
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
        # the ratios mie_coefficients reads, so the two agree bit for bit and fail at the same resonances
        if n < 1:
            raise ValueError("radial factors start at n = 1")
        c = self.config
        return _ratios(max(n, c.n_max), c.delta, c.tau, c.omega)[2 * n + family]


def mie_coefficients(cfg: ScatterConfig, w: IncidentWave) -> MieTable:
    """Coefficient table gamma_{n,m}, eta_{n,m} for 1 <= n <= n_max, |m| <= n.

    Raises ResonanceError when a denominator is degenerate relative to the
    size of its two products (omega numerically a scattering resonance).
    The frequency is cfg.omega; the table keeps w as given, which supplies
    only the direction and polarization.  The angular part comes from the
    memo of the incidence; per omega only the radial factors, their ratios
    and one product per entry, taken for all entries at once, are computed.
    """
    return MieTable(cfg, w, *_products([_ratios(cfg.n_max, cfg.delta, cfg.tau, cfg.omega)], cfg.n_max, w)[0])


def _products(ratios, n_max, w):
    """The (G, 2, K) stacks of the plane-wave expansion of w up to n_max times the radial factors of
    the G lists of _ratios; the products as Python complex rounds them, with no fused multiply-add."""
    proj = _incidence(n_max, w.direction.tobytes(), w.polarization.tobytes())
    ratios = np.array(ratios).reshape(len(ratios), -1, 2).swapaxes(1, 2)[..., _degree(n_max)]
    pr, pi, rr, ri = proj.real, proj.imag, ratios.real, ratios.imag
    stacks = np.empty(ratios.shape, dtype=complex)  # in C order, so that _reports sums along contiguous rows
    stacks.real, stacks.imag = pr * rr - pi * ri, pr * ri + pi * rr
    return stacks


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
    # a table may hold orders past the configuration's truncation
    return next(_reports(t.te[None], t.tm[None], t.incident, max(t.config.n_max, _top(t.te)), [t.config.omega]))


def _reports(te, tm, w, n_max, omegas):
    """The cross_sections of the rows of the (G, K) stacks te and tm, lit by w, at the frequencies omegas,
    truncated at n_max; every sum runs along a contiguous row, as on one stack, with the same bits."""
    top = _top(te[0])
    weight = _degree(top) * (_degree(top) + 1)
    terms = weight * (np.abs(te) ** 2 + np.abs(tm) ** 2)
    proj = np.conj(_incidence(top, w.direction.tobytes(), w.polarization.tobytes())[:, 1:])
    qexts = np.real(np.sum(weight[1:] * (te[:, 1:] * proj[0] + tm[:, 1:] * proj[1]), axis=-1))
    tails = terms[:, (n_max // 2 + 1) ** 2:(n_max + 1) ** 2].sum(axis=-1)
    for omega, *sums in zip(omegas, terms.sum(axis=-1).tolist(), tails.tolist(), qexts.tolist()):
        if omega.imag != 0:
            raise ValueError("cross sections are defined for real frequencies only")
        qs, tail, qext = (part / omega.real ** 2 for part in sums)
        converged = tail <= 1e-12 * max(qs, 1e-300)
        if not converged:
            warnings.warn("partial-wave sum not converged at n_max; raise the truncation order")
        yield CrossSectionReport(qs, qext, qext - qs, n_max, converged)


def _spectrum(delta, tau, omegas, w):
    """The cross sections of the sphere lit by w at each real frequency of omegas, in grid order: a
    CrossSectionReport, or the ResonanceError or ValueError of the point; a bad sphere raises for all.
    ScatterConfig and _ratios run per omega, the products and sums once per block of points of equal n_max."""
    tau, out, points = _checked_sphere(delta, tau), [None] * len(omegas), []
    for i, omega in enumerate(map(float, omegas)):
        try:
            cfg = ScatterConfig(delta, tau, omega)
            points.append((cfg.n_max, i, _ratios(cfg.n_max, delta, cfg.tau, cfg.omega), omega))
        except (ResonanceError, ValueError) as exc:
            out[i] = exc
    # blocks of at most 64 KiB of coefficients: freeing a larger array raises glibc's mmap threshold for good
    for (n_max, _), run in itertools.groupby(points, lambda p: (p[0], p[1] // max(1, 2048 // (p[0] + 1) ** 2))):
        _, index, ratios, run_omegas = zip(*run)
        stacks = _products(ratios, n_max, w)
        for i, report in zip(index, _reports(stacks[:, 0], stacks[:, 1], w, n_max, run_omegas)):
            out[i] = report
    return out


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
