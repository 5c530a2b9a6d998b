import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dieres.multipole import (
    BallQuadrature,
    DecomposedField,
    MomentTensor,
    _cross,
    _harmonic_grid,
    amplitude_from_moments,
    ball_quadrature,
    electric_moment,
    magnetic_moment,
    sphere_quadrature,
)
from dieres.quasistatic import (DipolePair, ResonantMoments, dipole_approximation, dipole_far_field,
                                mode_potential_curl_part)
from dieres.resonance import ContrastModel
from dieres.fields import IncidentWave
from dieres.specfun import harmonic_table


def test_ball_weights_sum_to_volume(ball_quad):
    assert_allclose(np.sum(ball_quad.weights), 4 * math.pi / 3, atol=1e-12)


def test_sphere_weights_sum_to_area(sphere_quad):
    assert_allclose(np.sum(sphere_quad.weights), 4 * math.pi, atol=1e-11)


def test_ball_monomial_exactness(ball_quad):
    pts, w = ball_quad.points, ball_quad.weights
    # int x1^2 = 4pi/15, int x1^2 x3^2 = 4pi/105, odd monomials vanish
    assert_allclose(np.sum(w * pts[:, 0] ** 2), 4 * math.pi / 15, atol=1e-13)
    assert_allclose(np.sum(w * pts[:, 0] ** 2 * pts[:, 2] ** 2), 4 * math.pi / 105, atol=1e-13)
    assert_allclose(np.sum(w * pts[:, 1]), 0.0, atol=1e-14)
    assert_allclose(np.sum(w * pts[:, 0] * pts[:, 1] * pts[:, 2]), 0.0, atol=1e-14)


def _bubble_field(c):
    c = np.asarray(c, dtype=float)
    def curl_pot(pts):
        r2 = np.sum(pts ** 2, axis=-1)
        return (1 - r2)[:, None] * c
    return DecomposedField(curl_potential=curl_pot, poly_degree=3)


def test_magnetic_moment_bubble_potential(ball_quad):
    c = np.array([0.4, -1.1, 0.3])
    m1 = magnetic_moment(1, _bubble_field(c), ball_quad)
    assert m1.kind == "magnetic" and m1.order_l == 1
    assert_allclose(m1.entries, 8 * math.pi / 15 * c, atol=1e-10)
    m2 = magnetic_moment(2, _bubble_field(c), ball_quad)
    assert m2.entries.shape == (3, 3)
    assert np.max(np.abs(m2.entries)) < 1e-14


def test_magnetic_moment_zero_order_is_zero(ball_quad):
    m0 = magnetic_moment(0, _bubble_field([1.0, 0, 0]), ball_quad)
    assert m0.entries.shape == ()
    assert np.all(m0.entries == 0)


def test_magnetic_moment_of_ground_mode_potential(ball_quad):
    f = DecomposedField(curl_potential=lambda pts: mode_potential_curl_part(0, pts))
    m1 = magnetic_moment(1, f, ball_quad)
    from dieres.specfun import solid_harmonic_gradient_deg1

    assert_allclose(m1.entries, 4 / math.pi * solid_harmonic_gradient_deg1(0), atol=1e-10)
    # the potential is tangential on the boundary (membership in the class)
    assert f.boundary_tangential_residual(ball_quad.angular) <= 1e-10


def test_electric_moment_constant_gradient(ball_quad):
    f = DecomposedField(grad_potential_gradient=lambda pts: np.tile([1.0, 0, 0], (len(pts), 1)))
    q0 = electric_moment(0, f, ball_quad)
    assert_allclose(q0.entries, [4 * math.pi / 3, 0, 0], atol=1e-10)


def test_electric_moment_te_mode_zero(ball_quad):
    f = DecomposedField(curl_potential=lambda pts: mode_potential_curl_part(0, pts))
    for l in (0, 1, 2):
        q = electric_moment(l, f, ball_quad)
        assert np.max(np.abs(q.entries)) <= 1e-10


def test_electric_moment_saddle_gradient(ball_quad):
    # grad(x1 x2) = (x2, x1, 0): moment matrix has 4pi/15 in the (1,2)/(2,1) slots
    f = DecomposedField(
        grad_potential_gradient=lambda pts: np.stack(
            [pts[:, 1], pts[:, 0], np.zeros(len(pts))], axis=-1
        )
    )
    q1 = electric_moment(1, f, ball_quad)
    expect = np.zeros((3, 3))
    expect[0, 1] = expect[1, 0] = 4 * math.pi / 15
    assert_allclose(q1.entries, expect, atol=1e-12)


def test_moment_order_caps(ball_quad):
    with pytest.raises(ValueError, match="^magnetic moments are only needed up to order 4$"):
        magnetic_moment(5, _bubble_field([1, 0, 0]), ball_quad)
    with pytest.raises(ValueError, match="^electric moments are only needed up to order 2$"):
        electric_moment(3, _bubble_field([1, 0, 0]), ball_quad)
    for moment in (magnetic_moment, electric_moment):
        with pytest.raises(ValueError, match="^moment order must be >= 0$"):
            moment(-1, _bubble_field([1, 0, 0]), ball_quad)


@pytest.mark.parametrize("kind, l, entries, message", [
    ("Magnetic", 1, np.zeros(3), "moment kind 'Magnetic' is neither 'magnetic' nor 'electric'"),
    ("magnetic", -1, np.zeros(()), "moment order must be >= 0"),
    ("magnetic", 1, np.zeros((3, 3)), r"magnetic moment of order 1 has entries of shape \(3,\), not \(3, 3\)"),
    ("electric", 1, np.zeros(3), r"electric moment of order 1 has entries of shape \(3, 3\), not \(3,\)"),
    ("electric", 0, np.zeros(2), r"electric moment of order 0 has entries of shape \(3,\), not \(2,\)"),
])
def test_moment_tensor_checks_its_kind_and_shape(kind, l, entries, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MomentTensor(kind, l, entries)


@pytest.mark.parametrize("call, message", [
    (lambda: sphere_quadrature(4, 0), "n_phi must be >= 1"),
    (lambda: sphere_quadrature(0, 8), "n_theta must be >= 1"),
    (lambda: ball_quadrature(0, 4, 8), "n_r must be >= 1"),
])
def test_out_of_domain_calls_raise(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_records_that_hold_arrays_compare_by_identity():
    e = np.array([1.0, 0.0, 0.0])
    makers = [
        lambda: MomentTensor("electric", 0, e),
        lambda: sphere_quadrature(4, 8),
        lambda: ball_quadrature(2, 4, 8),
        lambda: DipolePair(e, e),
        lambda: ResonantMoments(e, e, np.eye(3)),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b and not a == b and len({a, b}) == 2
    # an incident wave (and a Mie table through it) keeps comparing by value
    assert IncidentWave(e[[1, 2, 0]], e, 2.0) == IncidentWave(e[[1, 2, 0]], e, 2.0)


def test_sampler_of_the_wrong_shape_is_rejected(ball_quad_small):
    f = DecomposedField(curl_potential=lambda pts: pts[:, :2])
    n = len(ball_quad_small.points)
    with pytest.raises(ValueError, match=rf"^a sampler returned shape \({n}, 2\) at {n} points, not \({n}, 3\)$"):
        magnetic_moment(1, f, ball_quad_small)


def test_field_without_curl_sampler_has_zero_magnetic_moments(ball_quad_small):
    f = DecomposedField(grad_potential_gradient=lambda pts: np.stack([pts[:, 1], pts[:, 0], 1 + pts[:, 2]], axis=-1))
    for l in range(5):
        m = magnetic_moment(l, f, ball_quad_small)
        assert (m.kind, m.order_l, m.entries.shape) == ("magnetic", l, (3,) * l)
        assert not m.entries.any()
    assert electric_moment(0, f, ball_quad_small).entries.any()


def test_quadrature_degree_warning():
    small = ball_quadrature(3, 4, 8)
    f = _bubble_field([1.0, 0, 0])
    f.poly_degree = 30
    with pytest.warns(UserWarning):
        magnetic_moment(2, f, small)


def test_quadrature_convergence(ball_quad):
    coarse = ball_quadrature(16, 32, 64)
    f = _bubble_field([0.2, 0.5, -0.4])
    for l in (1, 2):
        a = magnetic_moment(l, f, coarse).entries
        b = magnetic_moment(l, f, ball_quad).entries
        assert np.max(np.abs(a - b)) <= 1e-10


def _seeded_field(seed):
    """A field whose two samplers are seeded complex combinations of 1, y and y * y."""
    coefficients = np.random.default_rng(seed).normal(size=(2, 7, 6)).view(complex)  # (2, 7, 3)

    def sampler(c):
        return lambda pts: np.concatenate([np.ones((len(pts), 1)), pts, pts ** 2], axis=1) @ c
    return DecomposedField(*map(sampler, coefficients))


def test_every_moment_order_matches_an_einsum_reference():
    q = ball_quadrature(6, 8, 16)
    f = _seeded_field(28)
    radius = np.linalg.norm(q.points, axis=1)
    for moment, samples, top, shift in ((magnetic_moment, f.curl_part(q.points), 4, 1),
                                        (electric_moment, f.grad_part(q.points), 2, 0)):
        for l in range(top + 1):
            got = moment(l, f, q).entries
            if shift and l == 0:
                assert got.shape == () and got == 0
                continue
            copies, factor = l - shift, l if shift else 1
            letters = "abc"[:copies]
            spec = "p,pi" + "".join(f",p{c}" for c in letters) + "->i" + letters
            want = factor * np.einsum(spec, q.weights, samples, *[q.points] * copies)
            scale = factor * np.sum(q.weights * np.linalg.norm(samples, axis=1) * radius ** copies)
            assert got.shape == (3,) * (copies + 1)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (moment.__name__, l)


def test_moments_accept_samplers_that_return_views():
    # a broadcast row and a Fortran-ordered array are not C-contiguous
    q = ball_quadrature(6, 8, 16)
    g = np.array([1 + 2j, -0.5j, 0.3])
    f = DecomposedField(lambda y: np.asfortranarray(np.ones((len(y), 1)) * g), lambda y: np.broadcast_to(g, y.shape))
    for m in (magnetic_moment(1, f, q), electric_moment(0, f, q)):
        assert_allclose(m.entries, 4 * math.pi / 3 * g, rtol=1e-13)


# --- amplitude assembly ---------------------------------------------------------

def _moment_set(ball_quad):
    f = DecomposedField(
        curl_potential=lambda pts: np.stack(
            [1 - np.sum(pts ** 2, axis=-1), pts[:, 0] * 0.5, pts[:, 2] * 0.1], axis=-1
        ),
        grad_potential_gradient=lambda pts: np.stack(
            [pts[:, 1], pts[:, 0], 0.3 * np.ones(len(pts))], axis=-1
        ),
    )
    return [
        electric_moment(0, f, ball_quad),
        magnetic_moment(1, f, ball_quad),
        electric_moment(1, f, ball_quad),
        magnetic_moment(2, f, ball_quad),
    ]


def test_amplitude_tangential_and_zero(ball_quad, rng):
    moments = _moment_set(ball_quad)
    for _ in range(6):
        xh = rng.normal(size=3)
        xh /= np.linalg.norm(xh)
        val = amplitude_from_moments(moments, 0.1, 100.0, 2.0, xh, "order4")
        assert abs(np.dot(xh, val)) <= 1e-12
    zeros = [
        MomentTensor("electric", 0, np.zeros(3)),
        MomentTensor("magnetic", 1, np.zeros(3)),
    ]
    assert np.max(np.abs(amplitude_from_moments(zeros, 0.1, 100.0, 2.0, np.array([0.0, 0, 1.0]), "dipole-pair"))) == 0


def test_order_l_skips_a_magnetic_zero_moment(ball_quad, rng):
    # the magnetic 0-moment is identically zero: orderL takes it and adds nothing
    moments = _moment_set(ball_quad)
    m0 = magnetic_moment(0, _bubble_field([1.0, 0, 0]), ball_quad)
    xh = rng.normal(size=3)
    xh /= np.linalg.norm(xh)
    without = amplitude_from_moments(moments, 0.1, 100.0, 2.0, xh, "orderL")
    assert np.array_equal(amplitude_from_moments([m0, *moments], 0.1, 100.0, 2.0, xh, "orderL"), without)
    assert np.array_equal(amplitude_from_moments(moments, 0.1, 100.0, 2.0, xh, "order4"), without)


def test_cross_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(29)
    real = [*rng.normal(size=(40, 3)), np.array([0.0, -0.0, 1.0]), np.array([-0.0, 2.0, -0.0])]
    complex_ = [*(rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))), np.array([-0.0, 1j, 0.5 - 0.0j])]
    for left in (real, complex_):
        for right in (real, complex_):
            for a, b in zip(left, right[::-1]):
                got, want = _cross(a, b), np.cross(a, b)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_amplitude_matches_a_reference_assembly_bit_for_bit():
    # the reference: the same sum of brackets with np.cross
    q = ball_quadrature(6, 8, 16)
    f = _seeded_field(30)
    moments = [electric_moment(l, f, q) for l in range(3)] + [magnetic_moment(l, f, q) for l in range(1, 5)]
    dipole_pair = [("electric", 0), ("magnetic", 1)]
    truncations = {"dipole-pair": dipole_pair, "order4": dipole_pair + [("electric", 1), ("magnetic", 2)],
                   "orderL": sorted(((m.kind, m.order_l) for m in moments), key=lambda km: km[1])}
    entries = {(m.kind, m.order_l): m.entries for m in moments}
    delta, tau, omega = 0.3, complex(40.0, 2.0), 2.5
    rng = np.random.default_rng(31)
    for xh in [np.array([0.0, 0.0, 1.0]), *rng.normal(size=(7, 3))]:
        xh /= np.linalg.norm(xh)
        for truncation, wanted in truncations.items():
            total = np.zeros(3, dtype=complex)
            for kind, l in wanted:
                vec = entries[(kind, l)]
                for _ in range(l - (kind == "magnetic")):
                    vec = vec @ xh
                if kind == "magnetic":
                    vec = np.cross(vec, xh)
                total = total + (-1j * delta * omega) ** l / math.factorial(l) * vec
            total = total - xh * np.dot(xh, total)
            want = tau * omega ** 2 * delta ** 3 / (4 * math.pi) * total
            got = amplitude_from_moments(moments, delta, tau, omega, xh, truncation)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), truncation


def test_amplitude_missing_moment_error(ball_quad):
    moments = _moment_set(ball_quad)[:2]
    with pytest.raises(KeyError):
        amplitude_from_moments(moments, 0.1, 100.0, 2.0, np.array([0.0, 0, 1.0]), "order4")
    with pytest.raises(ValueError):
        amplitude_from_moments(moments, 0.1, 100.0, 2.0, np.array([0.0, 0, 1.0]), "order9")


@pytest.mark.parametrize("xhat, delta, tau, omega, message", [
    ([0.0, 0.0, 2.0], 0.1, 100.0, 2.0, "direction xhat must be one unit 3-vector"),
    ([[0.0, 0.0, 1.0]], 0.1, 100.0, 2.0, "direction xhat must be one unit 3-vector"),
    ([0.0, 1.0], 0.1, 100.0, 2.0, "direction xhat must be one unit 3-vector"),
    ([math.nan, 0.0, 1.0], 0.1, 100.0, 2.0, r"direction xhat \[nan +0\. +1\.\] is not finite"),
    ([0.0, 0.0, 1.0], math.nan, 100.0, 2.0, "delta = nan is not finite"),
    ([0.0, 0.0, 1.0], 0.1, complex(math.inf, 0), 2.0, r"tau = \(inf\+0j\) is not finite"),
    ([0.0, 0.0, 1.0], 0.1, 100.0, complex(2.0, math.nan), r"omega = \(2\+nanj\) is not finite"),
])
def test_amplitude_rejects_inputs_outside_its_domain(xhat, delta, tau, omega, message):
    moments = [MomentTensor("electric", 0, np.ones(3)), MomentTensor("magnetic", 1, np.ones(3))]
    with pytest.raises(ValueError, match=f"^{message}$"):
        amplitude_from_moments(moments, delta, tau, omega, xhat, "dipole-pair")


def test_dipole_pair_truncation_reproduces_dipole_amplitude(rng):
    # cross-module consistency: converting the resonant dipole pair into
    # moment tensors and assembling the dipole-pair bracket must reproduce
    # the (w^2/4pi)(xhat x (p x xhat) + m x xhat) amplitude identically
    model = ContrastModel(1.0)
    delta, omega = 0.1, 3.3
    tau = model.evaluate(delta)
    w = IncidentWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), omega)
    pair = dipole_approximation(w, omega, delta, model)
    m1 = MomentTensor("magnetic", 1, pair.m / (-1j * tau * delta ** 4 * omega))
    q0 = MomentTensor("electric", 0, pair.p / (tau * delta ** 3))
    for _ in range(8):
        xh = rng.normal(size=3)
        xh /= np.linalg.norm(xh)
        direct = dipole_far_field(pair, omega, xh)
        # orderL takes every moment given, here the same two
        for truncation in ("dipole-pair", "orderL"):
            assembled = amplitude_from_moments([q0, m1], delta, tau, omega, xh, truncation)
            assert_allclose(assembled, direct, atol=1e-10 * max(1.0, np.linalg.norm(direct)))


def test_gauge_invariance(ball_quad, rng):
    # eta = grad((1-|x|^2) x1) is curl-free with vanishing tangential trace;
    # it shifts the raw order-2 tensor only by a multiple of the identity and
    # drops out of every radiation bracket
    base = _bubble_field([0.7, -0.2, 0.4])

    def eta(pts):
        r2 = np.sum(pts ** 2, axis=-1)
        grad = np.zeros((len(pts), 3))
        grad[:, 0] = 1 - r2
        grad -= 2 * pts * pts[:, [0]]
        return grad

    perturbed = DecomposedField(
        curl_potential=lambda pts: base.curl_part(pts) + eta(pts)
    )
    bq = ball_quad
    # the tangential trace of eta vanishes on the boundary
    res = DecomposedField(curl_potential=eta).boundary_tangential_residual(bq.angular)
    assert res <= 1e-12
    m1a = magnetic_moment(1, base, bq).entries
    m1b = magnetic_moment(1, perturbed, bq).entries
    assert_allclose(m1a, m1b, atol=1e-10)
    m2a = magnetic_moment(2, base, bq).entries
    m2b = magnetic_moment(2, perturbed, bq).entries
    for _ in range(6):
        xh = rng.normal(size=3)
        xh /= np.linalg.norm(xh)
        bracket_a = np.cross(m2a @ xh, xh)
        bracket_b = np.cross(m2b @ xh, xh)
        assert_allclose(bracket_a, bracket_b, atol=1e-10)


def test_bracket_order_structure(ball_quad):
    # with the curl sector scaled by delta and the gradient sector by
    # delta^2, the two radiation brackets scale as delta^2 and delta^3
    omega = 2.0
    xh = np.array([0.3, -0.5, 0.81])
    xh /= np.linalg.norm(xh)
    deltas = np.array([0.02, 0.04, 0.08, 0.16])
    b1 = []
    b2 = []
    for delta in deltas:
        f = DecomposedField(
            curl_potential=lambda pts, d=delta: d * np.stack(
                [1 - np.sum(pts ** 2, axis=-1), 0.3 * (1 - np.sum(pts ** 2, axis=-1)), pts[:, 0] * pts[:, 1]],
                axis=-1,
            ),
            grad_potential_gradient=lambda pts, d=delta: d * d * np.stack(
                [pts[:, 1] + 0.2, pts[:, 0], np.ones(len(pts))], axis=-1
            ),
        )
        q0 = electric_moment(0, f, ball_quad).entries
        m1 = magnetic_moment(1, f, ball_quad).entries
        q1 = electric_moment(1, f, ball_quad).entries
        m2 = magnetic_moment(2, f, ball_quad).entries
        first = q0 - 1j * delta * omega * np.cross(m1, xh)
        second = 1j * delta * omega * (q1 @ xh) + delta ** 2 * omega ** 2 / 2 * np.cross(m2 @ xh, xh)
        b1.append(np.linalg.norm(first))
        b2.append(np.linalg.norm(second))
    s1 = np.polyfit(np.log(deltas), np.log(b1), 1)[0]
    s2 = np.polyfit(np.log(deltas), np.log(b2), 1)[0]
    assert abs(s1 - 2) <= 0.1
    assert abs(s2 - 3) <= 0.1


# --- product-grid harmonics ----------------------------------------------------------

def _sphere_rule_reference(n_theta, n_phi):
    # the Gauss(cos theta) x trapezoid(phi) rule written out node by node
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    phi = 2 * math.pi * np.arange(n_phi) / n_phi
    cos_t = np.repeat(u, n_phi)
    sin_t = np.sqrt(1 - cos_t ** 2)
    pp = np.tile(phi, n_theta)
    pts = np.stack([sin_t * np.cos(pp), sin_t * np.sin(pp), cos_t], axis=-1)
    return pts, np.repeat(wu, n_phi) * (2 * math.pi / n_phi)


@pytest.mark.parametrize("n_theta, n_phi", [(8, 16), (24, 48), (32, 64), (11, 23)])
def test_sphere_and_ball_rules_unchanged(n_theta, n_phi):
    pts, w = _sphere_rule_reference(n_theta, n_phi)
    q = sphere_quadrature(n_theta, n_phi)
    assert np.array_equal(q.points, pts) and np.array_equal(q.weights, w)
    assert q.degree == min(2 * n_theta - 1, n_phi - 1)
    # the stored factors rebuild the nodes and the weights bit for bit
    assert q.n_phi == n_phi and len(q.polar_nodes) == len(q.polar_weights) == n_theta
    assert np.array_equal(np.repeat(q.polar_nodes, n_phi), q.points[:, 2])
    assert np.array_equal(np.repeat(q.polar_weights, n_phi) * (2 * math.pi / n_phi), q.weights)
    x, wx = np.polynomial.legendre.leggauss(7)
    r = 0.5 * (x + 1)
    wr = 0.5 * wx * r ** 2
    b = ball_quadrature(7, n_theta, n_phi)
    assert np.array_equal(b.points, (r[:, None, None] * pts[None]).reshape(-1, 3))
    assert np.array_equal(b.weights, (wr[:, None] * w[None]).ravel())
    assert b.degree == min(2 * 7 - 3, q.degree)
    assert np.array_equal(b.angular.points, pts) and np.array_equal(b.angular.polar_nodes, q.polar_nodes)


@pytest.mark.parametrize("n_theta, n_phi, n_max", [(8, 16, 3), (11, 23, 5), (24, 48, 10), (32, 64, 10), (20, 33, 7)])
def test_grid_analysis_and_synthesis_match_direct_sums(n_theta, n_phi, n_max, rng):
    q = sphere_quadrature(n_theta, n_phi)
    grid = _harmonic_grid(q, n_max)
    full = harmonic_table(n_max, q.points)
    f = rng.normal(size=(3, len(q.weights))) + 1j * rng.normal(size=(3, len(q.weights)))
    c = rng.normal(size=(2, (n_max + 1) ** 2)) + 1j * rng.normal(size=(2, (n_max + 1) ** 2))
    for name in ("y", "d_theta", "d_phi"):
        part, direct = getattr(grid.table, name), getattr(full, name)
        analysed = np.einsum("ka,a,ja->jk", np.conj(direct), q.weights, f)
        assert_allclose(grid.analysis(part, f), analysed, rtol=0, atol=1e-13 * np.max(np.abs(analysed)))
        assert_allclose(grid.analysis(part, f[0]), analysed[0], rtol=0, atol=1e-13 * np.max(np.abs(analysed)))
        synthesised = np.einsum("jk,ka->ja", c, direct)
        assert_allclose(grid.synthesis(part, c), synthesised, rtol=0, atol=1e-13 * np.max(np.abs(synthesised)))
        nodes = direct[1:4]
        assert_allclose(grid.at_nodes(part, slice(1, 4)), nodes, rtol=0, atol=1e-13 * np.max(np.abs(nodes)))
    assert_allclose(grid.theta_hat, full.theta_hat, rtol=0, atol=1e-15)
    assert_allclose(grid.phi_hat, full.phi_hat, rtol=0, atol=1e-15)

