"""Complex dielectric-resonance search: Muller's method, the TE/TM resonance
functions, quasi-static predictors with first-order corrections, and radius
sweeps with seed chaining."""

import cmath
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import _family_index
from .mie import mie_denominators
from .specfun import _finite, bessel_zero


class MullerNoConvergence(RuntimeError):
    """Muller iteration stopped without converging; carries the best iterate found and the iterations run."""

    def __init__(self, root, residual, iterations):
        super().__init__(f"no convergence after {iterations} iterations (best |f| = {residual:.3e})")
        self.root = root
        self.residual = residual
        self.iterations = iterations


class RegimeError(ValueError):
    """The requested configuration leaves the quasi-static regime."""


@dataclass(frozen=True)
class ContrastModel:
    """Laurent contrast model tau(delta) = c_tau delta^-2 + sum_{i>=-1} c_i delta^i."""

    c_tau: complex
    laurent: Sequence[float] = ()

    def __post_init__(self):
        c = _finite("c_tau", complex(self.c_tau))
        if c.real <= 0 or c.imag < 0:
            raise ValueError("leading coefficient must satisfy Re c_tau > 0, Im c_tau >= 0")
        object.__setattr__(self, "c_tau", c)
        object.__setattr__(self, "laurent", tuple(_finite("Laurent coefficient", float(v)) for v in self.laurent))

    @property
    def c_minus1(self) -> float:
        return self.laurent[0] if self.laurent else 0.0

    def evaluate(self, delta: float) -> complex:
        if _finite("delta", delta) <= 0:
            raise ValueError("contrast model is evaluated at delta > 0")
        tau = self.c_tau / delta ** 2
        for i, c in enumerate(self.laurent, start=-1):
            tau += c * delta ** i
        return tau


@dataclass(frozen=True)
class ResonanceRoot:
    omega: complex
    family: str
    order_n: int
    zero_index_s: int
    residual: float
    iterations: int
    seed: complex


def muller_root(f, z0: complex, z1: complex, z2: complex, tol: float = 1e-12,
                max_iter: int = 50):
    """Three-point Muller iteration for a complex root of an analytic f.

    Stops when |f(z)| <= tol or the step shrinks below tol relative to |z|;
    a degenerate parabola falls back to a secant step.  Returns the best
    iterate as (root, residual, iterations), else raises MullerNoConvergence
    with it and the iterations run (fewer than max_iter when no step is left).
    """
    if _finite("tol", tol) <= 0:
        raise ValueError("tol must be positive")
    if operator.index(max_iter) < 1:
        raise ValueError("max_iter must be >= 1")
    x0, x1, x2 = complex(z0), complex(z1), complex(z2)
    if len({x0, x1, x2}) < 3:
        raise ValueError("Muller needs three distinct starting points")
    f0, f1, f2 = f(x0), f(x1), f(x2)
    best, f_best = min((x0, f0), (x1, f1), (x2, f2), key=lambda p: abs(p[1]))
    best_abs = abs(f_best)
    for it in range(1, max_iter + 1):
        q = (x2 - x1) / (x1 - x0)
        qqf0, q1 = q * q * f0, 1 + q
        a = q * f2 - q * q1 * f1 + qqf0
        c = q1 * f2
        b = (2 * q + 1) * f2 - q1 ** 2 * f1 + qqf0
        if abs(a) < 1e-30 * max(abs(b), 1.0):
            # flat parabola: secant step
            if f2 == f1:
                break
            step = -f2 * (x2 - x1) / (f2 - f1)
        else:
            disc = cmath.sqrt(b * b - 4 * a * c)
            den = b + disc if abs(b + disc) >= abs(b - disc) else b - disc
            if den == 0:
                break
            step = -(x2 - x1) * 2 * c / den
        x0, x1, x2 = x1, x2, x2 + step
        f0, f1, f2 = f1, f2, f(x2)
        r = abs(f2)
        if r < best_abs:
            best, best_abs = x2, r
        if r <= tol or abs(step) <= tol * max(abs(x2), 1e-300):
            return best, best_abs, it
    if best_abs <= tol:
        return best, best_abs, it
    raise MullerNoConvergence(best, best_abs, it)


def _denominator(family, n, delta, tau):
    """The TE or TM Mie denominator as a function of omega != 0, the family resolved once."""
    index = _family_index(family)
    def f(omega):
        if omega == 0:
            raise ValueError("resonance function is evaluated away from omega = 0")
        return mie_denominators(n, delta, tau, omega)[index]
    return f


def resonance_function(family: str, n: int, delta: float, tau: complex, omega: complex) -> complex:
    """TE/TM Mie denominator whose complex zeros are the dielectric
    resonances; shares its implementation with the coefficient table."""
    return _denominator(family, n, delta, tau)(omega)


def quasi_static_prediction(family: str, n: int, s: int, model: ContrastModel,
                            delta: float = 0.0, finite_tau: bool = False) -> complex:
    """Quasi-static resonance predictor k / sqrt(c_tau) with k the s-th zero
    of j_{n-1} (TE) or j_n (TM); with finite_tau the 1/(delta sqrt(lambda
    tau(delta))) variant is returned instead."""
    if n < 1:
        raise ValueError("mode order n must be >= 1")
    k = bessel_zero(n - 1 + _family_index(family), s)
    if finite_tau:
        if delta <= 0:
            raise ValueError("finite-tau prediction needs delta > 0")
        lam = 1.0 / k ** 2
        return 1.0 / (delta * np.sqrt(complex(lam * model.evaluate(delta))))
    return k / np.sqrt(complex(model.c_tau))


def first_order_correction(omega_i: complex, model: ContrastModel, delta: float) -> complex:
    """First-order radius correction w_i (1 - delta c_{-1} / (2 c_tau));
    the residual error is quadratic in delta."""
    _finite("omega_i", omega_i)
    return omega_i - _finite("delta", delta) * omega_i * model.c_minus1 / (2 * model.c_tau)


def _corrected_prediction(family, n, s, model, delta):
    """The quasi-static prediction with its first-order radius correction."""
    return first_order_correction(quasi_static_prediction(family, n, s, model, delta), model, delta)


def _radius(delta):
    """The sphere radius delta, checked to be finite and positive."""
    if _finite("delta", delta) <= 0:
        raise ValueError("delta must be positive")
    return delta


def find_resonance(family: str, n: int, s: int, delta: float, model: ContrastModel,
                   tol: float = 1e-12, max_iter: int = 50, seed: complex = None) -> ResonanceRoot:
    """Muller-polished dielectric resonance seeded at the corrected
    quasi-static prediction, reported in the fourth quadrant."""
    _radius(delta)
    prediction = quasi_static_prediction(family, n, s, model, delta)
    if seed is None:
        seed = first_order_correction(prediction, model, delta)
    if abs(delta * seed) >= np.pi:
        raise RegimeError(
            f"|delta * seed| = {abs(delta * seed):.3f} leaves the quasi-static regime"
        )
    tau = model.evaluate(delta)
    f = _denominator(family, n, delta, tau)
    root, residual, iterations = muller_root(
        f, seed * (1 - 1e-3), seed * (1 + 1e-3), seed * (1 + 1e-3j), tol=tol, max_iter=max_iter
    )
    if root.real < 0:
        # mirrored partner of a physical root; reflect across the imaginary axis
        root = -root.conjugate()
        residual = abs(f(root))
    return ResonanceRoot(root, family, n, s, residual, iterations, complex(seed))


def cluster_resonances(family: str, n: int, s: int, delta: float, model: ContrastModel,
                       n_starts: int = 3, tol: float = 1e-12) -> list:
    """Search from several perturbed seeds and cluster the converged roots
    within 1e-8; resolves multiplicity splits without deflation.  For the
    sphere the TE/TM families already separate degeneracies, so this
    normally returns a single representative."""
    prediction = _corrected_prediction(family, n, s, model, delta)
    roots = []
    for k in range(n_starts):
        angle = 2 * np.pi * k / max(n_starts, 1)
        seed = prediction * (1 + 3e-3 * complex(np.cos(angle), np.sin(angle)))
        try:
            found = find_resonance(family, n, s, delta, model, tol=tol, seed=seed)
        except MullerNoConvergence:
            continue
        if not any(abs(found.omega - r.omega) <= 1e-8 for r in roots):
            roots.append(found)
    return roots


@dataclass(frozen=True)
class SweepPoint:
    delta: float
    root: ResonanceRoot
    prediction: complex
    error: str = None


def sweep_resonance(family: str, n: int, s: int, deltas, model: ContrastModel,
                    tol: float = 1e-12) -> list:
    """Radius sweep with seed chaining: each point is seeded at the previous
    root when available.  Convergence failures are reported per point and the
    sweep continues."""
    deltas = [_finite("delta", float(d)) for d in deltas]
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly increasing")
    points = []
    prev_root = None
    for delta in deltas:
        prediction = _corrected_prediction(family, n, s, model, delta)
        seed = prev_root if prev_root is not None else prediction
        try:
            root = find_resonance(family, n, s, delta, model, tol=tol, seed=seed)
            prev_root = root.omega
            points.append(SweepPoint(delta, root, prediction))
        except (MullerNoConvergence, RegimeError) as exc:
            points.append(SweepPoint(delta, None, prediction, error=str(exc)))
    return points
