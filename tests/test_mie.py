import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dieres.fields import IncidentWave, multipole_field
from dieres.mie import (
    CoefficientAsymptotics,
    MieTable,
    ResonanceError,
    ScatterConfig,
    coefficient_asymptotics,
    cross_sections,
    far_field,
    mie_coefficients,
    mie_denominators,
    _radial_factors,
    scattered_field,
)
from dieres.specfun import riccati_J, sph_bessel_j, vsh_table


def _wave(omega, d=None, e0=None):
    d = np.array([0.0, 0.0, 1.0]) if d is None else np.asarray(d, float)
    if e0 is None:
        e0 = np.array([1.0, 0.0, 0.0])
        if abs(abs(d[2]) - 1) > 1e-9:
            e0 = np.cross(d, [0.0, 0.0, 1.0])
    e0 = np.asarray(e0, float)
    d = d / np.linalg.norm(d)
    e0 = e0 - d * np.dot(d, e0)
    e0 /= np.linalg.norm(e0)
    return IncidentWave(d, e0, omega)


def _muller_oracle(f, z0, tol=1e-14, it=80):
    # independent three-point Muller iteration used only as a test oracle
    xs = [z0 * 0.999, z0 * 1.001, z0 + 0.001j]
    fs = [f(x) for x in xs]
    for _ in range(it):
        (x0, x1, x2), (f0, f1, f2) = xs, fs
        q = (x2 - x1) / (x1 - x0)
        a = q * f2 - q * (1 + q) * f1 + q * q * f0
        b = (2 * q + 1) * f2 - (1 + q) ** 2 * f1 + q * q * f0
        c = (1 + q) * f2
        disc = cmath.sqrt(b * b - 4 * a * c)
        den = b + disc if abs(b + disc) > abs(b - disc) else b - disc
        x3 = x2 - (x2 - x1) * 2 * c / den
        xs = [x1, x2, x3]
        fs = [f1, f2, f(x3)]
        if abs(fs[-1]) < tol:
            break
    return xs[-1]


def test_tau_to_zero_coefficients_vanish():
    cfg = ScatterConfig(0.2, 1e-12, 1.5, n_max=4)
    t = mie_coefficients(cfg, _wave(1.5))
    assert max(abs(v) for v in t.gamma.values()) < 1e-10
    assert max(abs(v) for v in t.eta.values()) < 1e-10


def test_radial_factor_m_independent():
    cfg = ScatterConfig(0.15, 0.15 ** -2, 3.3)
    w = _wave(3.3, d=[0.3, -0.4, 0.87])
    t = mie_coefficients(cfg, w)
    from dieres.specfun import vsh_UV

    for n in (1, 2, 3):
        ratios = []
        for m in range(-n, n + 1):
            _, v = vsh_UV(n, m, w.direction)
            ang = 4 * math.pi * 1j ** n / math.sqrt(n * (n + 1)) * np.dot(np.conj(v), w.polarization)
            if abs(ang) > 1e-6:
                ratios.append(t.gamma[(n, m)] / ang)
        assert len(ratios) >= 2
        for r in ratios[1:]:
            assert_allclose(r, ratios[0], rtol=1e-12)
        assert_allclose(ratios[0], t.radial_te(n), rtol=1e-12)


def test_radial_factors_shared_by_table_and_denominators():
    # a lossy sphere whose high orders take the Miller path on both arguments
    cfg = ScatterConfig(0.2, complex(60, 3), 2.1)
    w = _wave(2.1, d=[0.3, -0.4, 0.87])
    full = mie_coefficients(cfg, w)
    bare = MieTable(cfg, w)
    angular = vsh_table(cfg.n_max, w.direction)
    for n in range(1, cfg.n_max + 1):
        pref = 4 * math.pi * 1j ** n / math.sqrt(n * (n + 1))
        for m in range(-n, n + 1):
            u, v = angular[(n, m)]
            assert full.gamma[(n, m)] == pref * np.dot(np.conj(v), w.polarization) * bare.radial_te(n)
            assert full.eta[(n, m)] == pref * np.dot(np.conj(u), w.polarization) * bare.radial_tm(n)
        (_, den_te, _), (_, den_tm, _) = _radial_factors(n, cfg.delta, cfg.tau, cfg.omega)
        assert mie_denominators(n, cfg.delta, cfg.tau, cfg.omega) == (den_te, den_tm)


def test_near_resonant_magnetic_dipole_dominance():
    cfg = ScatterConfig(0.15, 0.15 ** -2, 3.3)
    t = mie_coefficients(cfg, _wave(3.3))
    g1 = max(abs(t.gamma[(1, m)]) for m in (-1, 0, 1))
    g2 = max(abs(t.gamma[(2, m)]) for m in range(-2, 3))
    assert np.isfinite(g1) and g1 > 20 * g2


def test_resonance_error_at_complex_root():
    delta, tau = 0.15, 0.15 ** -2
    f = lambda w: mie_denominators(1, delta, tau, w)[0]
    root = _muller_oracle(f, math.pi)
    with pytest.raises(ResonanceError):
        mie_coefficients(ScatterConfig(delta, tau, root, n_max=3), _wave(root))


def test_scattered_field_empty_table_and_linearity():
    cfg = ScatterConfig(0.15, 40.0, 2.0, n_max=3)
    w = _wave(2.0)
    empty = MieTable(cfg, w, {}, {})
    x = np.array([0.4, 0.2, 0.3])
    assert np.max(np.abs(scattered_field(empty, x))) == 0.0
    t = mie_coefficients(cfg, w)
    doubled = MieTable(cfg, w, {k: 2 * v for k, v in t.gamma.items()},
                       {k: 2 * v for k, v in t.eta.items()})
    assert_allclose(scattered_field(doubled, x), 2 * scattered_field(t, x), rtol=1e-12)
    with pytest.raises(ValueError):
        scattered_field(t, np.array([0.05, 0.0, 0.0]))


@pytest.mark.parametrize("tau, omega", [(complex(60, 3), 2.1), (40.0, 1.3)])
def test_scattered_field_matches_sum_of_multipole_fields(tau, omega):
    rng = np.random.default_rng(7)
    cfg = ScatterConfig(0.2, tau, omega)
    t = mie_coefficients(cfg, _wave(omega, d=rng.normal(size=3)))
    x = rng.normal(size=(16, 3))
    x *= rng.uniform(0.25, 3.0, size=(16, 1)) / np.linalg.norm(x, axis=1)[:, None]
    ref = sum(g * multipole_field("radiating", "TE", n, m, cfg.omega, x) for (n, m), g in t.gamma.items())
    ref = ref + sum(e * multipole_field("radiating", "TM", n, m, cfg.omega, x) for (n, m), e in t.eta.items())
    assert np.max(np.abs(scattered_field(t, x) - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert_allclose(scattered_field(t, x[3]), scattered_field(t, x)[3], rtol=1e-14)


def test_far_field_tangential_and_axis_zero(rng):
    cfg = ScatterConfig(0.1, 80.0, 1.8, n_max=4)
    t = mie_coefficients(cfg, _wave(1.8))
    for _ in range(8):
        xh = rng.normal(size=3)
        xh /= np.linalg.norm(xh)
        assert abs(np.dot(xh, far_field(t, xh))) < 1e-12
    single = MieTable(cfg, _wave(1.8), {(1, 0): 1.0}, {})
    assert np.max(np.abs(far_field(single, np.array([0.0, 0.0, 1.0])))) < 1e-13


def test_far_field_limit_of_scattered_field():
    cfg = ScatterConfig(0.05, 400.0, 1.0)
    t = mie_coefficients(cfg, _wave(1.0))
    xh = np.array([0.48, -0.6, 0.64])
    xh /= np.linalg.norm(xh)
    pat = far_field(t, xh)
    errs = []
    for R in (1e3, 1e4):
        val = R * np.exp(-1j * 1.0 * R) * scattered_field(t, R * xh)
        errs.append(np.linalg.norm(val - pat))
    assert 8.0 <= errs[0] / errs[1] <= 12.0


def test_qs_closed_form_matches_quadrature(sphere_quad):
    cfg = ScatterConfig(0.05, 400.0, 1.0)
    t = mie_coefficients(cfg, _wave(1.0))
    rep = cross_sections(t)
    ff = far_field(t, sphere_quad.points)
    quad_qs = float(np.sum(sphere_quad.weights * np.sum(np.abs(ff) ** 2, axis=-1)))
    assert_allclose(rep.Qs, quad_qs, rtol=1e-6)


def _non_resonant_sample(rng, n_samples=20):
    out = []
    while len(out) < n_samples:
        delta = rng.uniform(0.05, 0.3)
        tau = rng.uniform(10.0, 500.0)
        omega = rng.uniform(0.5, 4.0)
        cfg = ScatterConfig(delta, tau, omega)
        ok = True
        for n in range(1, cfg.n_max + 1):
            d_te, d_tm = mie_denominators(n, delta, tau, omega)
            scale = max(abs(d_te), abs(d_tm), 1e-30)
            if min(abs(d_te), abs(d_tm)) < 1e-6 * scale:
                ok = False
                break
        if ok:
            out.append(cfg)
    return out


def test_optical_theorem_energy_conservation(rng):
    for cfg in _non_resonant_sample(rng):
        t = mie_coefficients(cfg, _wave(cfg.omega))
        rep = cross_sections(t)
        assert rep.converged
        assert abs(rep.Qabs) <= 1e-8 * max(rep.Qs, 1e-30)


def test_cross_sections_reject_complex_omega():
    cfg = ScatterConfig(0.1, 50.0, 2.0 - 0.1j, n_max=4)
    t = MieTable(cfg, _wave(2.0), {(1, 0): 0.1}, {(1, 0): 0.0})
    with pytest.raises(ValueError):
        cross_sections(t)


def test_all_zero_table_cross_sections():
    cfg = ScatterConfig(0.1, 50.0, 2.0, n_max=2)
    t = MieTable(cfg, _wave(2.0), {}, {})
    rep = cross_sections(t)
    assert rep.Qs == 0.0 and rep.Qext == 0.0


def test_qs_sweep_has_single_sharp_peak():
    delta = 0.15
    omegas = np.linspace(2.9, 3.4, 126)
    qs = []
    for om in omegas:
        t = mie_coefficients(ScatterConfig(delta, delta ** -2, om), _wave(om))
        qs.append(cross_sections(t).Qs)
    qs = np.asarray(qs)
    peak = omegas[np.argmax(qs)]
    assert 3.0 < peak < 3.12
    assert qs.max() > 20 * max(qs[0], qs[-1])
    # single peak: values decrease monotonically away from the maximum
    i = int(np.argmax(qs))
    assert np.all(np.diff(qs[:i]) > 0) and np.all(np.diff(qs[i:]) < 0)


def _rotation(axis, angle):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * K @ K


def test_rotation_equivariance(rng):
    R = _rotation([0.3, 0.9, -0.2], 1.1)
    cfg = ScatterConfig(0.12, 60.0, 2.2, n_max=6)
    d = np.array([0.0, 0.0, 1.0])
    e0 = np.array([1.0, 0.0, 0.0])
    t1 = mie_coefficients(cfg, IncidentWave(d, e0, 2.2))
    t2 = mie_coefficients(cfg, IncidentWave(R @ d, R @ e0, 2.2))
    for _ in range(6):
        xh = rng.normal(size=3)
        xh /= np.linalg.norm(xh)
        f1 = far_field(t1, xh)
        f2 = far_field(t2, R @ xh)
        assert_allclose(R @ f1, f2, atol=1e-10)


def test_coefficient_superexponential_decay():
    cfg = ScatterConfig(0.2, 0.2 ** -2, 2.0, n_max=16)
    t = mie_coefficients(cfg, _wave(2.0))
    mags = [abs(t.radial_te(n)) + abs(t.radial_tm(n)) for n in range(1, cfg.n_max + 1)]
    start = math.ceil(math.e * abs(cfg.delta * cfg.omega_tau) / 2)
    for n in range(start + 1, len(mags)):
        assert mags[n] < 0.5 * mags[n - 1]


def test_asymptotics_te_slope():
    # relative error of the explicit n=1 prediction shrinks like delta^2
    omega = 2.0
    errs = []
    deltas = [0.04, 0.02, 0.01]
    for delta in deltas:
        cfg = ScatterConfig(delta, delta ** -2, omega)
        pred = coefficient_asymptotics(1, cfg).predicted_te
        t = mie_coefficients(cfg, _wave(omega))
        exact = t.radial_te(1)
        errs.append(abs(exact / pred - 1))
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert 1.7 <= slope <= 2.3


def test_asymptotics_tm_value_and_envelope_flag():
    cfg = ScatterConfig(0.05, 0.05 ** -2, 2.0)
    res = coefficient_asymptotics(1, cfg)
    assert isinstance(res, CoefficientAsymptotics)
    x = cfg.delta * cfg.omega
    from dieres.specfun import riccati_H

    assert_allclose(res.predicted_tm, riccati_J(1, x) / riccati_H(1, x), rtol=1e-13)
    assert abs(res.predicted_tm) < 10 * abs(x) ** 3
    assert not res.te_is_envelope
    assert coefficient_asymptotics(2, cfg).te_is_envelope


def test_asymptotics_denominator_degenerates_at_pi():
    # J_1(t) + j_1(t) = t j_0(t) vanishes at t = pi
    t = math.pi
    assert abs(riccati_J(1, t) + sph_bessel_j(1, t)) < 1e-14
