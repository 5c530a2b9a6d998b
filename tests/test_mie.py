import cmath
import math
import warnings

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
    _arguments,
    _factor_table,
    scattered_field,
)
from dieres.multipole import sphere_quadrature
from dieres.specfun import (MAX_ORDER, _series_j, _upward_j, angles_to_unit, radial_table, riccati_J, sph_bessel_j,
                            vsh_table)


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
        (_, den_te, _), (_, den_tm, _) = _factor_table(n, cfg.delta, cfg.tau, cfg.omega)[n]
        assert mie_denominators(n, cfg.delta, cfg.tau, cfg.omega) == (den_te, den_tm)


@pytest.mark.parametrize("tau", [80.0, complex(40, 2.5)])
def test_factor_table_rows_are_the_python_complex_products(tau):
    # every row, n = 0 included, against the products and scales recomputed
    # in Python complex from the rows of radial_table; the grid takes j(dw)
    # and j(dw_t) through the series, upward and Miller passes
    passes = set()
    for n_max, delta, omega in ((1, 0.1, 3.0), (2, 0.1, 3.0), (12, 0.1, 3.0), (12, 1.0, 14.0), (64, 1.0, 30.0)):
        x, y = map(complex, _arguments(delta, tau, omega))
        passes |= {"series" if _series_j(z) else "upward" if _upward_j(n_max, z) else "Miller" for z in (x, y)}
        (hx, bighx), (jx, bigjx), (jy, bigjy) = (
            [rows.tolist() for rows in radial_table(n_max, z, kind)] for z, kind in ((x, "h"), (x, "j"), (y, "j")))
        reference = []
        for n in range(n_max + 1):
            p, q, pn, qn = hx[n] * bigjy[n], jy[n] * bighx[n], jx[n] * bigjy[n], jy[n] * bigjx[n]
            reference.append(((pn - qn, p - q, abs(p) + abs(q)),
                              (pn / (1 + tau) - qn, p / (1 + tau) - q, abs(p / (1 + tau)) + abs(q))))
        assert np.array(_factor_table(n_max, delta, tau, omega)).tobytes() == np.array(reference).tobytes()
    assert passes == {"series", "upward", "Miller"}


def test_table_keeps_read_only_stacks_and_copies_the_others():
    cfg = ScatterConfig(0.2, 40.0, 2.0, n_max=2)
    w = _wave(2.0, d=[0.3, -0.4, 0.87])
    t = mie_coefficients(cfg, w)
    assert not (t.te.flags.writeable or t.tm.flags.writeable)
    te, tm = t.te.copy(), t.tm.copy()
    copied = MieTable(cfg, w, te, tm)
    te[:], tm[:] = 1.0, 2.0
    assert np.array_equal(copied.te, t.te) and np.array_equal(copied.tm, t.tm) and copied == t
    # read-only views of a writable buffer are copied too: overwriting the buffer leaves the table as it was
    buffer = np.stack([t.te, t.tm])
    views = buffer.view()
    views.flags.writeable = False
    viewed = MieTable(cfg, w, *views)
    buffer[:] = 0.0
    assert np.array_equal(viewed.te, t.te) and np.array_equal(viewed.tm, t.tm) and viewed == t
    assert np.array_equal(far_field(viewed, w.direction), far_field(t, w.direction))
    # read-only stacks of two lengths are still brought to one
    short = t.tm[:4]
    padded = MieTable(cfg, w, t.te, short)
    assert len(padded.tm) == 9 and np.array_equal(padded.tm[:4], short) and not padded.tm[4:].any()


def test_wave_keeps_copies_of_its_vectors():
    # a table's wave is its own: rewriting the caller's vectors, to another incidence or to one the wave
    # would reject (the direction along the polarization), moves neither the wave nor the table's observables
    cfg = ScatterConfig(0.2, 40.0, 2.0)
    for rewrite in ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                    [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]):
        d, e0 = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
        w = IncidentWave(d, e0, 2.0)
        t = mie_coefficients(cfg, w)
        before, pattern = cross_sections(t), far_field(t, [0.0, 0.6, 0.8])
        d[:], e0[:] = rewrite
        assert w.direction.tolist() == [0.0, 0.0, 1.0] and w.polarization.tolist() == [1.0, 0.0, 0.0]
        assert not (w.direction.flags.writeable or w.polarization.flags.writeable)
        assert cross_sections(t) == before and np.array_equal(far_field(t, [0.0, 0.6, 0.8]), pattern)


def test_waves_and_their_tables_compare_by_value():
    # two waves made apart from equal vectors, and the tables built from them, are equal
    cfg = ScatterConfig(0.2, 40.0, 2.0, n_max=2)
    first, second = (_wave(2.0, d=[0.3, -0.4, 0.87]) for _ in range(2))
    assert first is not second and first == second and hash(first) == hash(second)
    table = mie_coefficients(cfg, first)
    assert table == mie_coefficients(cfg, second)
    other = _wave(2.5, d=[0.3, -0.4, 0.87])
    assert first != other and table != MieTable(cfg, other, table.te, table.tm)
    assert first != (first.direction, first.polarization, first.omega)


def test_near_resonant_magnetic_dipole_dominance():
    cfg = ScatterConfig(0.15, 0.15 ** -2, 3.3)
    t = mie_coefficients(cfg, _wave(3.3))
    g1 = max(abs(t.gamma[(1, m)]) for m in (-1, 0, 1))
    g2 = max(abs(t.gamma[(2, m)]) for m in range(-2, 3))
    assert np.isfinite(g1) and g1 > 20 * g2


def test_resonance_error_at_complex_root():
    # the TE root near pi and the TM denominator near the first zero of j_1: the table and the radial
    # factors of a hand-built table (which hold no coefficients) fail at the same check
    delta, tau = 0.15, 0.15 ** -2
    for family, guess in (("TE", math.pi), ("TM", 4.49)):
        root = _muller_oracle(lambda w: mie_denominators(1, delta, tau, w)[family == "TM"], guess)
        cfg = ScatterConfig(delta, tau, root, n_max=3)
        hand_built = MieTable(cfg, _wave(root), {}, {})
        for call in (lambda: mie_coefficients(cfg, _wave(root)), lambda: hand_built.radial_te(1),
                     lambda: hand_built.radial_tm(1)):
            with pytest.raises(ResonanceError, match=f"^scattering resonance hit at n=1, family={family}$") as info:
                call()
            assert (info.value.n, info.value.family) == (1, family)


def test_table_keeps_the_wave_it_is_given():
    # the table's frequency is the configuration's; the wave supplies only direction and polarization
    cfg = ScatterConfig(0.15, complex(60, 2), 3.1)
    other, same = _wave(1.7, d=[0.3, -0.4, 0.87]), _wave(3.1, d=[0.3, -0.4, 0.87])
    t, ref = mie_coefficients(cfg, other), mie_coefficients(cfg, same)
    assert t.incident is other
    assert t.te.tobytes() == ref.te.tobytes() and t.tm.tobytes() == ref.tm.tobytes()
    assert cross_sections(t) == cross_sections(ref)


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


def test_config_rejects_orders_past_the_cap():
    # the default truncation on interior size 80 would be 88
    with pytest.raises(ValueError, match=r"n_max = 88 exceeds the supported maximum 64 \(interior size .* = 80\)"):
        ScatterConfig(1.0, 15, 20)
    with pytest.raises(ValueError, match="maximum 64"):
        ScatterConfig(0.1, 15, 2.0, n_max=65)
    assert ScatterConfig(0.1, 15, 2.0, n_max=64).n_max == 64


@pytest.mark.parametrize("seed, oblique, lossy", [(1, False, False), (2, False, True), (3, True, False),
                                                   (4, True, True), (5, True, True)])
def test_extinction_sum_matches_forward_far_field(seed, oblique, lossy):
    # the optical theorem as the forward far field: Qext = Im(a) with
    # a = 4 pi / w e0 . far field in the incident direction.  For small
    # spheres Im(a) is a small part of a, so both forms are held to |a|
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.5, 4.0)
    cfg = ScatterConfig(rng.uniform(0.05, 0.3), complex(rng.uniform(10, 120), rng.uniform(0.5, 5) if lossy else 0),
                        omega)
    w = _random_incidence(omega, rng) if oblique else _wave(omega)
    t = mie_coefficients(cfg, w)
    a = 4 * math.pi / omega * np.dot(w.polarization, far_field(t, w.direction))
    rep = cross_sections(t)
    assert abs(rep.Qext - a.imag) <= 1e-13 * abs(a)
    assert rep.Qabs == rep.Qext - rep.Qs
    if lossy:
        assert rep.Qabs > 1e-6 * rep.Qext
    else:
        assert abs(rep.Qabs) <= 1e-13 * abs(a)


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


def test_cross_sections_judge_the_orders_a_table_holds():
    # all of Qs sits at order 6, past the configuration's n_max = 3: the tail and the
    # reported truncation are those of the table
    t = MieTable(ScatterConfig(0.1, 80.0, 1.8, n_max=3), _wave(1.8), {(6, 0): 0.5}, {})
    with pytest.warns(UserWarning, match="^partial-wave sum not converged at n_max"):
        rep = cross_sections(t)
    assert (rep.n_max_used, rep.converged) == (6, False)
    assert rep.Qs == 42 * 0.25 / 1.8 ** 2


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


# --- the memo of the incidence ------------------------------------------------

def test_coefficients_bit_identical_cold_and_warm():
    # a grid whose default truncation varies with omega, at two incidences
    from dieres.mie import _incidence

    delta, tau = 0.15, complex(60, 2)
    omegas = np.linspace(0.8, 6.0, 9)
    waves = [lambda om: _wave(om, d=[0.3, -0.4, 0.87]), lambda om: _wave(om)]
    assert len({ScatterConfig(delta, tau, om).n_max for om in omegas}) >= 3
    cold = {}
    for om in omegas:
        for i, wave in enumerate(waves):
            _incidence.cache_clear()
            cold[om, i] = mie_coefficients(ScatterConfig(delta, tau, om), wave(om))
    assert _incidence.cache_info().currsize == 1
    for _ in range(2):
        for om in omegas:
            for i, wave in enumerate(waves):
                warm = mie_coefficients(ScatterConfig(delta, tau, om), wave(om))
                assert np.array_equal(warm.te, cold[om, i].te) and np.array_equal(warm.tm, cold[om, i].tm)
                assert cross_sections(warm) == cross_sections(cold[om, i])
    assert _incidence.cache_info().hits > 0


def test_incidence_memo_and_stacks_are_read_only():
    from dieres.mie import _incidence

    cfg = ScatterConfig(0.2, 40.0, 2.0, n_max=4)
    w = _wave(2.0, d=[0.3, -0.4, 0.87])
    t = mie_coefficients(cfg, w)
    proj = _incidence(cfg.n_max, w.direction.tobytes(), w.polarization.tobytes())
    assert proj.shape == (2, 25) and proj.dtype == complex and not proj[:, 0].any()
    for part in (proj, t.te, t.tm):
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 1.0
    with pytest.raises(TypeError):
        t.gamma[(1, 0)] = 1.0


@pytest.mark.parametrize("tau", [60.0, complex(40, 2.5)])
@pytest.mark.parametrize("axial", [True, False])
def test_stacks_are_the_python_complex_products(tau, axial):
    # te and tm bit for bit against a loop of Python complex products of the
    # projections and the ratios, and the cross sections against the formulas
    # that read the projections as tuples
    from dieres.mie import _incidence

    rng = np.random.default_rng(int(axial) + 2 * isinstance(tau, complex))
    for n_max in range(1, 21):
        omega = rng.uniform(0.5, 4.0)
        cfg = ScatterConfig(rng.uniform(0.05, 0.3), tau, omega, n_max=n_max)
        w = _wave(omega) if axial else _random_incidence(omega, rng)
        t = mie_coefficients(cfg, w)
        proj = _incidence(n_max, w.direction.tobytes(), w.polarization.tobytes())
        proj_te, proj_tm = (tuple(part[1:].tolist()) for part in proj)
        ref_te, ref_tm = [0j], [0j]
        for n, (te, tm) in enumerate(_factor_table(n_max, cfg.delta, cfg.tau, cfg.omega)[1:], 1):
            for k in range(n * n - 1, (n + 1) ** 2 - 1):
                ref_te.append(proj_te[k] * (te[0] / te[1]))
                ref_tm.append(proj_tm[k] * (tm[0] / tm[1]))
        assert t.te.tobytes() == np.array(ref_te).tobytes() and t.tm.tobytes() == np.array(ref_tm).tobytes()
        n = np.sqrt(np.arange(len(t.te))).astype(int)
        weight = n * (n + 1)
        terms = weight * (np.abs(t.te) ** 2 + np.abs(t.tm) ** 2)
        qs = float(terms.sum()) / omega ** 2
        qext = float(np.real(np.sum(weight[1:] * (t.te[1:] * np.conj(proj_te) + t.tm[1:] * np.conj(proj_tm)))))
        qext /= omega ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small n_max leaves the partial-wave sum unconverged
            rep = cross_sections(t)
        assert (rep.Qs, rep.Qext, rep.Qabs) == (qs, qext, qext - qs)


def test_dict_built_table_matches_computed_table():
    cfg = ScatterConfig(0.15, complex(44, 1), 2.9)
    w = _wave(2.9, d=[0.3, -0.4, 0.87])
    t = mie_coefficients(cfg, w)
    rebuilt = MieTable(cfg, w, dict(t.gamma), dict(t.eta))
    assert rebuilt == t
    assert np.array_equal(rebuilt.te, t.te) and np.array_equal(rebuilt.tm, t.tm)
    rep = cross_sections(rebuilt)
    assert rep == cross_sections(t)
    # the partial-wave sum against its loop form
    loop = sum(n * (n + 1) * (abs(g) ** 2 + abs(t.eta[(n, m)]) ** 2) for (n, m), g in t.gamma.items())
    assert abs(rep.Qs - loop / cfg.omega.real ** 2) <= 1e-14 * rep.Qs
    assert len(t.gamma) == cfg.n_max * (cfg.n_max + 2)
    assert list(t.gamma)[:4] == [(1, -1), (1, 0), (1, 1), (2, -2)]
    # a partial table stacks up to its highest order; missing entries read 0
    partial = MieTable(cfg, w, {(2, 1): 1.0 + 2.0j}, {})
    assert len(partial.te) == 9 and partial.gamma[(2, 1)] == 1.0 + 2.0j
    assert partial.eta[(1, 0)] == 0 and (3, 0) not in partial.gamma
    with pytest.raises(ValueError):
        MieTable(cfg, w, {(1, 2): 1.0}, {})


# --- far field and scattered field contracted degree by degree ---------------------------

def _random_incidence(omega, rng):
    d = rng.normal(size=3)
    return _wave(omega, d=d, e0=np.cross(d, rng.normal(size=3)))


def _full_table_sum(t, x, variant):
    """Reference: the series contracted against one stored harmonic table of
    every entry, as Cartesian vectors.  variant "far" gives the far-field
    amplitude, "radiating" the scattered field."""
    from dieres.specfun import harmonic_table, radial_table

    x = np.asarray(x, float)
    r = np.linalg.norm(x, axis=-1)
    xh = x / r[:, None]
    n_max = math.isqrt(len(t.te) - 1)
    table = harmonic_table(n_max, xh)
    u, v = table.vectors(slice(1, None))
    n = table.degree[1:]
    root = np.sqrt(n * (n + 1))[:, None, None]
    omega = t.config.omega
    if variant == "far":
        c = (-root[:, 0, 0] / omega * np.exp(-1j * (n + 1) * math.pi / 2))[:, None, None]
        return np.sum(c * (t.te[1:, None, None] * v + t.tm[1:, None, None] * u), axis=0)
    f, big = radial_table(n_max, omega * r, "h")
    te = -f[n][:, :, None] * root * v
    tm = -(big[n][:, :, None] * root * u + (n * (n + 1))[:, None, None] * f[n][:, :, None]
           * table.y[1:, :, None] * xh) / (1j * omega * r[:, None])
    return np.sum(t.te[1:, None, None] * te + t.tm[1:, None, None] * tm, axis=0)


def test_far_field_matches_full_table_contraction(rng):
    cfg = ScatterConfig(0.3, 120.0, 1.0)
    t = mie_coefficients(cfg, _random_incidence(1.0, rng))
    assert cfg.n_max == 12 and np.all(t.te[1:] != 0) and np.all(t.tm[1:] != 0)
    xh = np.concatenate([[[0, 0, 1.0], [0, 0, -1.0]], rng.normal(size=(40, 3))])
    xh /= np.linalg.norm(xh, axis=1, keepdims=True)
    ref = _full_table_sum(t, xh, "far")
    got = far_field(t, xh)
    assert_allclose(got, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))
    assert_allclose(far_field(t, xh[0]), ref[0], rtol=0, atol=1e-14 * np.max(np.abs(ref)))


def test_far_field_at_the_order_cap_matches_full_table_contraction(rng):
    cfg = ScatterConfig(1.0, 3.0, 20.0, n_max=MAX_ORDER)
    t = mie_coefficients(cfg, _random_incidence(20.0, rng))
    xh = np.concatenate([[[0, 0, 1.0], [0, 0, -1.0], [1e-12, 0, 1.0]], rng.normal(size=(40, 3))])
    xh /= np.linalg.norm(xh, axis=1, keepdims=True)
    ref = _full_table_sum(t, xh, "far")
    assert_allclose(far_field(t, xh), ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))
    for i in range(4):
        assert_allclose(far_field(t, xh[i]), ref[i], rtol=0, atol=1e-14 * np.max(np.abs(ref)))


def test_scattered_field_matches_full_table_contraction(rng):
    cfg = ScatterConfig(0.3, complex(120, 2), 1.0)
    t = mie_coefficients(cfg, _random_incidence(1.0, rng))
    x = rng.normal(size=(40, 3))
    x *= rng.uniform(0.5, 4.0, size=(40, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    x = np.concatenate([[[0, 0, 1.5], [0, 0, -0.7]], x])
    ref = _full_table_sum(t, x, "radiating")
    assert_allclose(scattered_field(t, x), ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))


def test_far_field_memory_stays_below_the_table(sphere_quad, rng):
    import tracemalloc

    cfg = ScatterConfig(0.3, 120.0, 1.0)
    t = mie_coefficients(cfg, _random_incidence(1.0, rng))
    assert cfg.n_max == 12 and len(sphere_quad.points) == 8192
    far_field(t, sphere_quad.points[:8])
    tracemalloc.start()
    try:
        far_field(t, sphere_quad.points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the stored (169, 8192) table alone takes 66 MB in its three complex parts, the
    # real and imaginary rows of q_n^m z^m 12 MB
    assert peak <= 21.4e6


@pytest.mark.parametrize("directions, bound", [("cloud", 21.4e6), ("rings", 8.5e6)])
def test_far_field_memory_on_rings_and_clouds(directions, bound, sphere_quad, rng):
    # 8192 directions at n_max = 12: a cloud takes the row sum, whose real rows are 12 MB; the
    # 64 x 128 nodes take the ring contraction, which stores no (182, P) rows
    import tracemalloc

    t = mie_coefficients(ScatterConfig(0.3, 120.0, 1.0), _random_incidence(1.0, rng))
    xh = sphere_quad.points if directions == "rings" else rng.normal(size=(8192, 3))
    far_field(t, xh[:8])
    tracemalloc.start()
    try:
        far_field(t, xh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def _two_tables(seed):
    rng = np.random.default_rng(seed)
    return [mie_coefficients(ScatterConfig(0.3, complex(60.0, 2.0), 1.0), _random_incidence(1.0, rng)) for _ in "ab"]


def test_far_fields_keep_their_bits_after_later_calls(sphere_quad):
    # the temporaries of the field sum are views of a buffer kept between calls: no result is one of them
    from dieres import fields

    tables = _two_tables(31)
    cloud = np.random.default_rng(31).normal(size=(2048, 3))
    ring, scattered = far_field(tables[0], sphere_quad.points), far_field(tables[0], cloud)
    before = ring.tobytes(), scattered.tobytes()
    far_field(tables[1], sphere_quad.points), far_field(tables[1], cloud[::-1])
    fields.farfield_pattern("TM", 12, 3, 1.5, sphere_quadrature(16, 32).points)
    assert (ring.tobytes(), scattered.tobytes()) == before
    assert not np.shares_memory(ring, fields._kept.buffer) and not np.shares_memory(scattered, fields._kept.buffer)


def test_far_fields_in_two_threads_get_the_serial_bits(sphere_quad):
    # each thread keeps its own buffer: two threads at once on the 64 x 128 nodes get what one alone gets
    import sys
    import threading

    tables = _two_tables(32)
    serial = [far_field(t, sphere_quad.points).tobytes() for t in tables]
    start, got = threading.Barrier(2, timeout=10), ([], [])

    def work(i):
        start.wait()
        for _ in range(8):
            got[i].append(far_field(tables[i], sphere_quad.points).tobytes())

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == ([serial[0]] * 8, [serial[1]] * 8)


def test_a_call_above_the_cap_keeps_no_more_than_the_cap(sphere_quad):
    # 262 144 directions on 512 rings need 114 MB of temporaries at n_max = 1, above the cap: none are kept
    from dieres import fields

    far_field(_two_tables(33)[0], sphere_quad.points)
    kept = fields._kept.buffer
    theta, phi = np.linspace(0.1, 3.0, 512), np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
    big = fields.farfield_pattern("TE", 1, 1, 1.0, angles_to_unit(theta[:, None], phi[None, :]).reshape(-1, 3))
    assert big.shape == (262144, 3) and np.all(np.isfinite(big))
    assert fields._kept.buffer is kept and kept.nbytes <= fields._KEPT_BYTES


def test_far_fields_on_rings_take_little_fresh_memory():
    # minor page faults per call of the 64 x 128 far field at n_max = 12, median of 20 after one warm call,
    # in a fresh interpreter, so that the heap the other tests leave cannot move the count; on a 2-core
    # Linux VM this read 368-400, and 1569-1733 when every temporary was allocated afresh per call
    import os
    import pathlib
    import subprocess
    import sys

    import dieres

    script = """
import resource, statistics
import numpy as np
from dieres import IncidentWave, ScatterConfig, far_field, mie_coefficients, sphere_quadrature
wave = IncidentWave(np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.0, 0.0]), 1.0)
table, nodes = mie_coefficients(ScatterConfig(0.3, 120.0, 1.0), wave), sphere_quadrature(64, 128).points
far_field(table, nodes)
faults = []
for _ in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    far_field(table, nodes)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults))
"""
    src = str(pathlib.Path(dieres.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env, capture_output=True, text=True,
                         check=True)
    assert float(out.stdout) <= 900


def test_grid_shaped_inputs_match_the_flattened_call():
    # its own generator, so that the draws do not depend on which tests ran before; each point is moved
    # out by the radius 0.2, since the scattered field is defined outside the sphere only
    rng = np.random.default_rng(721)
    cfg = ScatterConfig(0.2, 60.0, 1.5)
    t = mie_coefficients(cfg, _random_incidence(1.5, rng))
    for shape in [(4, 5, 3), (0, 3), (2, 0, 3)]:  # no directions give no values
        grid = rng.normal(size=shape)
        grid *= 1 + 0.2 / np.linalg.norm(grid, axis=-1, keepdims=True)
        flat = grid.reshape(-1, 3)
        got = far_field(t, grid)
        assert got.shape == shape
        assert np.array_equal(got, far_field(t, flat).reshape(shape))
        got = scattered_field(t, grid)
        assert got.shape == shape
        assert np.array_equal(got, scattered_field(t, flat).reshape(shape))


@pytest.mark.parametrize("shape, n_max, lossy", [((7, 9), 1, False), ((16, 32), 6, True), ((24, 48), 12, True),
                                                  ((33, 65), 20, False), ((64, 128), 12, True)])
def test_far_field_on_rings_matches_the_directions_in_any_order(shape, n_max, lossy, rng):
    # theta-major quadrature nodes take the ring contraction; permuted, the same directions take the rows
    from dieres.fields import _ring_length, farfield_pattern
    from dieres.specfun import _direction_frame

    pts = sphere_quadrature(*shape).points
    perm = rng.permutation(len(pts))
    assert _ring_length(_direction_frame(pts)[0]) == shape[1] and _ring_length(_direction_frame(pts[perm])[0]) == 0
    cfg = ScatterConfig(0.3, complex(60.0, 2.0 if lossy else 0.0), 1.0, n_max=n_max)
    t = mie_coefficients(cfg, _random_incidence(1.0, rng))
    ring, rows = far_field(t, pts)[perm], far_field(t, pts[perm])
    assert_allclose(ring, rows, rtol=0, atol=1e-14 * np.max(np.abs(rows)))
    for family, m in (("TE", -n_max), ("TM", n_max // 2)):
        ring = farfield_pattern(family, n_max, m, 1.5, pts)[perm]
        rows = farfield_pattern(family, n_max, m, 1.5, pts[perm])
        assert_allclose(ring, rows, rtol=0, atol=1e-14 * np.max(np.abs(rows)))


def _off_ring_inputs():
    """Direction sets that do not fall into rings _field_sum contracts: each takes the rows."""
    from dieres.fields import _RING_RUN

    theta, phi = np.arccos(np.polynomial.legendre.leggauss(16)[0]), np.linspace(0, 2 * math.pi, 32, endpoint=False)
    grid = angles_to_unit(theta[:, None], phi[None, :]).reshape(-1, 3)
    moved = grid.copy()
    moved[5 * 32 + 7] = angles_to_unit(math.acos(math.cos(theta[5]) + 1e-9), phi[7])
    short = angles_to_unit(theta[:, None], phi[None, :_RING_RUN - 1]).reshape(-1, 3)
    meridian = [[math.sin(t), 0.0, math.cos(t)] for t in np.linspace(0.0, math.pi, 25)]  # as the CLI's amplitude
    return {"one cos(theta) moved by 1e-9": moved, "unequal runs": np.concatenate([grid, grid[:40]]),
            "runs below the minimum": short, "phi-major": grid.reshape(16, 32, 3).swapaxes(0, 1).reshape(-1, 3),
            "one direction": grid[100], "meridian": np.array(meridian)}


@pytest.mark.parametrize("name", list(_off_ring_inputs()))
def test_directions_off_rings_take_the_rows_bit_for_bit(name, rng, monkeypatch):
    from dieres import fields

    xh = _off_ring_inputs()[name]
    t = mie_coefficients(ScatterConfig(0.3, complex(60.0, 2.0), 1.0, n_max=12), _random_incidence(1.0, rng))
    got = far_field(t, xh), fields.farfield_pattern("TM", 5, 2, 1.5, xh)
    monkeypatch.setattr(fields, "_ring_length", lambda cos_t: 0)
    assert got[0].tobytes() == far_field(t, xh).tobytes()
    assert got[1].tobytes() == fields.farfield_pattern("TM", 5, 2, 1.5, xh).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_raise(bad, rng):
    cfg = ScatterConfig(0.2, 60.0, 1.5)
    t = mie_coefficients(cfg, _random_incidence(1.5, rng))
    x = np.array([[1.0, 0.5, 0.3], [0.2, bad, 1.0]])
    with pytest.raises(ValueError, match="direction .* is not finite"):
        far_field(t, x)
    with pytest.raises(ValueError, match="point .* is not finite"):
        scattered_field(t, x)


@pytest.mark.parametrize("delta, tau, omega, n_max, name", [
    (math.nan, 40.0, 3.0, None, "radius delta"),
    (math.inf, 40.0, 3.0, None, "radius delta"),
    (0.1, complex(math.nan, 0.0), 3.0, None, "contrast tau"),
    (0.1, complex(40.0, math.inf), 3.0, 4, "contrast tau"),
    (0.1, 40.0, math.nan, None, "omega"),
    (0.1, 40.0, math.nan, 4, "omega"),
    (0.1, 40.0, complex(3.0, -math.inf), None, "omega"),
])
def test_scatter_config_names_a_non_finite_parameter(delta, tau, omega, n_max, name):
    with pytest.raises(ValueError, match=f"^{name} = .* is not finite$"):
        ScatterConfig(delta, tau, omega, n_max)


@pytest.mark.parametrize("omega, n_max", [(0.0, None), (0j, 4), (complex(-0.0, 0.0), None)])
def test_scatter_config_rejects_zero_frequency(omega, n_max):
    # every observable of the configuration would divide by omega
    with pytest.raises(ValueError, match=r"^omega = .* must be nonzero$"):
        ScatterConfig(0.1, 40.0, omega, n_max)


@pytest.mark.parametrize("call, message", [
    (lambda: coefficient_asymptotics(0, ScatterConfig(0.1, 100.0, 3.0)), "asymptotics start at n = 1"),
    (lambda: coefficient_asymptotics(1, ScatterConfig(0.5, 100.0, 2.0)), r"asymptotics need \|delta omega\| < 1"),
    (lambda: MieTable(ScatterConfig(0.1, 100.0, 3.0), _wave(3.0), np.zeros(5), {}),
     r"a coefficient stack has length \(n_max \+ 1\)\^2"),
    (lambda: MieTable(ScatterConfig(0.1, 100.0, 3.0), _wave(3.0)).radial_te(0), "radial factors start at n = 1"),
])
def test_out_of_domain_calls_raise(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_scatter_config_takes_an_integer_n_max():
    assert ScatterConfig(0.1, 40.0, 3.0, np.int64(4)).n_max == 4
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        ScatterConfig(0.1, 40.0, 3.0, 3.5)
