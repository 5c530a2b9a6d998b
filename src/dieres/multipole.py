"""Cartesian electric/magnetic multipole moments of divergence-free fields on
the unit ball, the product quadratures used to integrate them, harmonic
analysis and synthesis on their product grid, and the moment-based assembler
for the scattering amplitude."""

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .specfun import HarmonicTable, harmonic_table


@dataclass(frozen=True)
class SphereQuadrature:
    """Product Gauss(cos theta) x trapezoid(phi) rule on the unit sphere.

    Node i * n_phi + j sits at the polar node cos theta_i and the azimuth
    2 pi j / n_phi, with weight polar_weights[i] * 2 pi / n_phi.  Hand-built
    rules may leave the factors out (None)."""

    points: np.ndarray   # (N, 3) unit vectors
    weights: np.ndarray  # (N,), sums to 4 pi
    degree: int
    polar_nodes: np.ndarray = field(repr=False, default=None)    # (n_theta,) Gauss nodes in cos theta
    polar_weights: np.ndarray = field(repr=False, default=None)  # (n_theta,) their Gauss weights
    n_phi: int = field(repr=False, default=None)


@dataclass(frozen=True)
class BallQuadrature:
    """Tensor rule on the unit ball: Gauss-Legendre radii (r^2 folded into the
    weights) times a product sphere rule."""

    points: np.ndarray   # (N, 3)
    weights: np.ndarray  # (N,), sums to 4 pi / 3
    degree: int
    radial_nodes: np.ndarray = field(repr=False, default=None)
    radial_weights: np.ndarray = field(repr=False, default=None)  # r^2 folded in
    angular: SphereQuadrature = field(repr=False, default=None)


def sphere_quadrature(n_theta: int = 64, n_phi: int = 128) -> SphereQuadrature:
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    phi = 2 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2 * math.pi / n_phi
    cos_t = np.repeat(u, n_phi)
    sin_t = np.sqrt(1 - cos_t ** 2)
    pp = np.tile(phi, n_theta)
    pts = np.stack([sin_t * np.cos(pp), sin_t * np.sin(pp), cos_t], axis=-1)
    w = np.repeat(wu, n_phi) * wphi
    degree = min(2 * n_theta - 1, n_phi - 1)
    return SphereQuadrature(pts, w, degree, polar_nodes=u, polar_weights=wu, n_phi=n_phi)


class _HarmonicGrid(NamedTuple):
    """Harmonic table of degree <= n_max on the product grid of a sphere rule.

    On the grid every entry factors as B_k(theta_i, phi_j) = B_k(theta_i, 0)
    e^{i m phi_j} for B = Y, d_theta or d_phi of order m, so the Legendre
    ladder runs only at the polar nodes and the sums over phi are products
    with the phase matrix (Driscoll & Healy, Adv. Appl. Math. 15, 202 (1994)).
    Analysis and synthesis regroup the direct sums over the nodes exactly.
    """

    table: HarmonicTable   # at the polar nodes, phi = 0: parts (K, n_theta)
    phases: np.ndarray     # (2 n_max + 1, n_phi): e^{i m phi_j}, m = -n_max..n_max
    weights: np.ndarray    # (n_theta,): the weight of every node of polar row i
    theta_hat: np.ndarray  # (n_theta * n_phi, 3): the local frame at every node
    phi_hat: np.ndarray

    @property
    def column(self):
        """The row n_max + m of the phase matrix of every entry k."""
        n, n_max = self.table.degree, (len(self.phases) - 1) // 2
        return np.arange(len(n)) - n * (n + 1) + n_max

    def at_nodes(self, part, k):
        """Entries k (an index or a slice) of part at every node, (..., n_a)."""
        values = part[k][..., :, None] * self.phases[self.column[k]][..., None, :]
        return values.reshape(values.shape[:-2] + (-1,))

    def analysis(self, part, f):
        """sum_a w_a conj(B_k(a)) f(a) over the nodes a for B = part:
        f (..., n_a) -> (..., K)."""
        f = np.asarray(f)
        f = f.reshape(f.shape[:-1] + (len(self.weights), -1))
        by_order = f @ np.conj(self.phases).T  # (..., n_theta, 2 n_max + 1)
        return np.einsum("ki,i,...ik->...k", np.conj(part), self.weights, by_order[..., self.column])

    def synthesis(self, part, c):
        """sum_k c_k B_k(a) at every node a for B = part: c (..., K) -> (..., n_a)."""
        one_hot = self.column[:, None] == np.arange(len(self.phases))
        by_order = (np.asarray(c)[..., None, :] * part.T) @ one_hot  # (..., n_theta, 2 n_max + 1)
        values = by_order @ self.phases
        return values.reshape(values.shape[:-2] + (-1,))


def _harmonic_grid(sphere: SphereQuadrature, n_max: int) -> _HarmonicGrid:
    """_HarmonicGrid of degree <= n_max on the nodes of a rule from
    sphere_quadrature, memoized per polar rule, n_phi and n_max; its arrays
    are read-only."""
    polar = (np.asarray(part, dtype=float).tobytes() for part in (sphere.polar_nodes, sphere.polar_weights))
    return _grid_of(*polar, sphere.n_phi, n_max)


@functools.lru_cache(maxsize=16)
def _grid_of(nodes, polar_weights, n_phi, n_max):
    cos_t, polar_weights = np.frombuffer(nodes), np.frombuffer(polar_weights)
    sin_t = np.sqrt(1 - cos_t ** 2)
    phi = 2 * math.pi * np.arange(n_phi) / n_phi
    table = harmonic_table(n_max, np.stack([sin_t, np.zeros_like(sin_t), cos_t], axis=-1))
    phases = np.exp(1j * np.arange(-n_max, n_max + 1)[:, None] * phi)
    cos_p, sin_p, ones_t, ones_p = np.cos(phi), np.sin(phi), np.ones_like(cos_t), np.ones_like(phi)
    theta_hat = np.stack([np.outer(cos_t, cos_p), np.outer(cos_t, sin_p), np.outer(-sin_t, ones_p)], axis=-1)
    phi_hat = np.stack([np.outer(ones_t, -sin_p), np.outer(ones_t, cos_p), np.zeros(theta_hat.shape[:2])], axis=-1)
    grid = _HarmonicGrid(table, phases, polar_weights * (2 * math.pi / n_phi),
                         theta_hat.reshape(-1, 3), phi_hat.reshape(-1, 3))
    for part in (*table, *grid[1:]):
        part.flags.writeable = False
    return grid


def ball_quadrature(n_r: int = 32, n_theta: int = 64, n_phi: int = 128) -> BallQuadrature:
    x, wx = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (x + 1)
    wr = 0.5 * wx * r ** 2
    ang = sphere_quadrature(n_theta, n_phi)
    pts = (r[:, None, None] * ang.points[None, :, :]).reshape(-1, 3)
    w = (wr[:, None] * ang.weights[None, :]).ravel()
    degree = min(2 * n_r - 1 - 2, ang.degree)
    return BallQuadrature(pts, w, degree, radial_nodes=r, radial_weights=wr, angular=ang)


@dataclass
class DecomposedField:
    """Caller-supplied Helmholtz decomposition of a divergence-free field:
    the curl potential phi (with vanishing tangential trace on the boundary)
    and the gradient part grad p.  Either sampler may be None for zero."""

    curl_potential: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_potential_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    poly_degree: Optional[int] = None

    def curl_part(self, pts):
        return _sample(self.curl_potential, pts)

    def grad_part(self, pts):
        return _sample(self.grad_potential_gradient, pts)

    def boundary_tangential_residual(self, sphere_quad: SphereQuadrature) -> float:
        """Max |nu x phi| over boundary sample points (membership check)."""
        vals = self.curl_part(sphere_quad.points)
        return float(np.max(np.abs(np.cross(sphere_quad.points, vals))))


def _sample(sampler, pts):
    """The sampler's complex (N, 3) values at pts, zeros where it is None."""
    return np.zeros((len(pts), 3), dtype=complex) if sampler is None else np.asarray(sampler(pts), dtype=complex)


@dataclass(frozen=True)
class MomentTensor:
    kind: str      # "magnetic" or "electric"
    order_l: int
    entries: np.ndarray  # rank l (magnetic) or l+1 (electric)


# one rule per kind: orders up to top; order l takes l - shift copies of y and,
# with shift 1, the factor l, and order 0 of that kind is identically zero; part
# names the DecomposedField sampler it integrates
_MomentRule = NamedTuple("_MomentRule", [("kind", str), ("top", int), ("shift", int), ("part", str)])
_RULES = (_MomentRule("electric", 2, 0, "grad_part"), _MomentRule("magnetic", 4, 1, "curl_part"))


def _moment(magnetic: bool, l: int, f: DecomposedField, q: BallQuadrature) -> MomentTensor:
    kind, top, shift, part = _RULES[magnetic]
    if l < 0:
        raise ValueError("moment order must be >= 0")
    if shift and l == 0:
        return MomentTensor(kind, 0, np.zeros(()))
    if l > top:
        raise ValueError(f"{kind} moments are only needed up to order {top}")
    copies = l - shift
    if f.poly_degree is not None and f.poly_degree + copies > q.degree:
        warnings.warn(f"integrand degree {f.poly_degree + copies} exceeds quadrature exactness {q.degree}",
                      stacklevel=3)
    letters = "abcd"[:copies]
    spec = "p,pi" + "".join(f",p{c}" for c in letters) + "->i" + letters
    entries = np.einsum(spec, q.weights, getattr(f, part)(q.points), *[q.points] * copies)
    return MomentTensor(kind, l, entries * l if shift else entries)


def magnetic_moment(l: int, f: DecomposedField, q: BallQuadrature) -> MomentTensor:
    """Magnetic l-moment: l * \\int_B phi(y) (x) y (x) ... (x) y dy (l-1 copies of y).

    The result is independent of the gauge representative of phi once it is
    contracted into the radiation bracket; order 0 is identically zero.
    """
    return _moment(True, l, f, q)


def electric_moment(l: int, f: DecomposedField, q: BallQuadrature) -> MomentTensor:
    """Electric l-moment: \\int_B grad p(y) (x) y (x) ... (x) y dy (l copies)."""
    return _moment(False, l, f, q)


_TRUNCATIONS = {
    "dipole-pair": [("electric", 0), ("magnetic", 1)],
    "order4": [("electric", 0), ("magnetic", 1), ("electric", 1), ("magnetic", 2)],
    "orderL": None,
}


def amplitude_from_moments(moments, delta: float, tau: complex, omega: complex,
                           xhat, truncation: str = "order4") -> np.ndarray:
    """Scattering amplitude assembled from Cartesian moments:

        (tau w^2 d^3 / 4pi) (I - x(x)x) sum_l (-i d w)^l / l!
            [ M_l(., x..x) cross x + Q_l(., x..x) ]

    The tangential projector guarantees x-hat . result = 0.
    """
    if truncation not in _TRUNCATIONS:
        raise ValueError(f"unknown truncation {truncation!r}")
    xhat = np.asarray(xhat, dtype=float)
    table = {(mt.kind, mt.order_l): mt for mt in moments}
    wanted = _TRUNCATIONS[truncation] or sorted(table, key=lambda km: km[1])
    total = np.zeros(3, dtype=complex)
    for kind, l in wanted:
        if (kind, l) not in table:
            raise KeyError(f"missing {kind} moment of order {l} for truncation {truncation!r}")
        shift = _RULES[kind == "magnetic"].shift
        if shift and l == 0:
            continue
        vec = np.asarray(table[(kind, l)].entries, dtype=complex)
        for _ in range(l - shift):
            vec = vec @ xhat
        if shift:
            vec = np.cross(vec, xhat)
        total = total + (-1j * delta * omega) ** l / math.factorial(l) * vec
    total = total - xhat * np.dot(xhat, total)
    return tau * omega ** 2 * delta ** 3 / (4 * math.pi) * total
