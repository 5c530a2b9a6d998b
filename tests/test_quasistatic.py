import cmath
import itertools
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dieres import quasistatic
from dieres.fields import IncidentWave, harmonic_exterior
from dieres.mie import MieTable, ScatterConfig, far_field, mie_coefficients
from dieres.multipole import BallQuadrature, ball_quadrature, sphere_quadrature
from dieres.quasistatic import (
    DipolePair,
    EigenModeLabel,
    PoleError,
    averaged_cross_sections,
    blowup_coefficient,
    dipole_approximation,
    dipole_far_field,
    eigenmode,
    eigenmode_norm,
    gradient_outer_sum,
    half_plus_np_inverse_factor,
    mode_potential_curl_part,
    mode_potential_integral,
    np_eigenvalue,
    quasi_static_pole,
    resonant_moments,
    scatter_fn_explicit,
    scatter_fn_general,
    sphere_spectrum,
    te_matching_matrix,
    tm_matching_matrix,
)
from dieres.resonance import ContrastModel
from dieres.specfun import (
    MAX_ORDER,
    bessel_zero,
    harmonic_table,
    radial_pair,
    riccati_J,
    solid_harmonic_gradient_deg1,
    sph_bessel_j,
    sph_harmonic,
)

UNIT = ContrastModel(1.0)


def _wave(omega, d=(0.0, 0.0, 1.0), e0=(1.0, 0.0, 0.0)):
    return IncidentWave(np.array(d, dtype=float), np.array(e0, dtype=float), omega)


# --- spectrum ------------------------------------------------------------------

def test_spectrum_ground_state():
    top = sphere_spectrum(1)[0]
    assert_allclose(top.lam, 1 / math.pi ** 2, atol=1e-12, rtol=0)
    assert top.multiplicity == 3
    assert {(l.kind, l.n) for l in top.labels} == {("TE", 1)}
    assert all(abs(l.k - math.pi) < 1e-12 for l in top.labels)


def test_spectrum_second_entry():
    second = sphere_spectrum(2)[1]
    assert_allclose(second.k, 4.493409457909064, atol=1e-10, rtol=0)
    assert_allclose(second.lam, 1 / 4.493409457909064 ** 2, rtol=1e-12)
    assert second.multiplicity == 8
    kinds = sorted({(l.kind, l.n) for l in second.labels})
    assert kinds == [("TE", 2), ("TM", 1)]


def test_spectrum_strictly_decreasing_no_duplicates():
    eigs = sphere_spectrum(25)
    lams = [e.lam for e in eigs]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    assert len({round(e.k, 10) for e in eigs}) == len(eigs)


def test_spectrum_count_is_an_integer():
    assert sphere_spectrum(np.int64(3)) == sphere_spectrum(3)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        sphere_spectrum(2.5)


def test_spectrum_count_stops_where_the_bessel_orders_do():
    # 634 zeros lie below k_{64,1}; the 635th is that zero, whose successor in
    # the merge would be k_{65,1}, past the orders specfun supports
    k_top = bessel_zero(MAX_ORDER, 1)
    below = sum(next(s for s in itertools.count(1) if bessel_zero(n, s) > k_top) - 1 for n in range(MAX_ORDER))
    assert below == 634 and sphere_spectrum(634)[-1].k < k_top
    with pytest.raises(ValueError, match="^count = 635 exceeds the supported maximum 634$"):
        sphere_spectrum(635)


@pytest.mark.parametrize("call, message", [
    (lambda: sphere_spectrum(0), "count must be >= 1"),
    (lambda: mode_potential_integral(2), r"ground mode potentials carry m in \{-1, 0, 1\}"),
    (lambda: np_eigenvalue(-1), "degree must be >= 0"),
    (lambda: resonant_moments(_wave(3.2), 3.2, 0.1, UNIT, n_sh=0), "the harmonic extraction needs n_sh >= 1"),
    (lambda: eigenmode_norm(EigenModeLabel("Tm", 1, 0, 3.0)), "unknown family 'Tm'"),
    (lambda: eigenmode_norm(EigenModeLabel("TE", 1, 2, 3.0)), r"\|m\| = 2 exceeds degree n = 1"),
    (lambda: eigenmode_norm(EigenModeLabel("TE", 0, 0, 3.0)), "multipole fields start at n = 1"),
    (lambda: eigenmode_norm(EigenModeLabel("TM", 1, 0, 0.0)), "TM fields need a nonzero wavenumber"),
    (lambda: eigenmode(EigenModeLabel("TE", 1, 0, 0.0), [0.1, 0.2, 0.3], normalized=True),
     r"EigenModeLabel\(kind='TE', n=1, m=0, k=0\.0\) has norm 0 and cannot be normalized"),
])
def test_out_of_domain_calls_raise(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("label", [EigenModeLabel("Tm", 1, 0, 3.0), EigenModeLabel("TE", 1, -2, 3.0),
                                   EigenModeLabel("TM", 0, 0, 3.0), EigenModeLabel("TM", 2, 1, 0.0)])
def test_eigenmode_norm_rejects_the_labels_eigenmode_rejects(label):
    with pytest.raises(ValueError) as field:
        eigenmode(label, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match=f"^{re.escape(str(field.value))}$"):
        eigenmode_norm(label)


def test_te_norm_at_zero_wavenumber_is_zero():
    # the entire TE field vanishes at k = 0: its norm is 0, and only its normalization fails
    label = EigenModeLabel("TE", 2, 1, 0.0)
    assert eigenmode_norm(label) == 0.0
    assert not eigenmode(label, [0.1, 0.2, 0.3]).any()


def test_resonant_moments_warn_when_the_harmonics_are_under_resolved():
    # one degree cannot hold the trace of the incident wave
    with pytest.warns(UserWarning, match="^spherical-harmonic truncation under-resolved; raise n_sh$"):
        resonant_moments(_wave(3.2), 3.2, 0.1, UNIT, n_sh=1)


def test_spectrum_matches_bessel_zero_table():
    for e in sphere_spectrum(12):
        assert_allclose(e.k, bessel_zero(e.family_n, e.zero_index_s), atol=1e-12, rtol=0)
        assert_allclose(e.lam, 1 / e.k ** 2, rtol=1e-14)


def test_spectrum_is_the_sorted_bessel_zeros():
    # brute force over rows 0..24 and zeros 1..10, complete below the smallest zero it leaves out
    zeros = sorted((bessel_zero(n, s), n, s) for n in range(25) for s in range(1, 11))
    assert zeros[59][0] < min(bessel_zero(25, 1), *(bessel_zero(n, 11) for n in range(25)))
    for count in range(1, 61):
        eigs = sphere_spectrum(count)
        assert [(e.k, e.family_n, e.zero_index_s) for e in eigs] == zeros[:count]
        for e in eigs:
            assert e.lam == 1 / e.k ** 2
            assert e.multiplicity == len(e.labels) == (3 if e.family_n == 0 else 4 * e.family_n + 4)
            assert {(l.kind, l.n, l.k) for l in e.labels} == (
                {("TE", 1, e.k)} if e.family_n == 0 else {("TE", e.family_n + 1, e.k), ("TM", e.family_n, e.k)})


# --- eigenmodes ------------------------------------------------------------------

def test_ground_mode_lommel_norm(ball_quad):
    label = EigenModeLabel("TE", 1, 0, math.pi)
    vals = eigenmode(label, ball_quad.points)
    norm_sq = np.sum(ball_quad.weights * np.sum(np.abs(vals) ** 2, axis=-1))
    assert_allclose(norm_sq, 1 / math.pi ** 2, atol=1e-8, rtol=0)
    assert_allclose(eigenmode_norm(label), 1 / math.pi, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_tm_norm_matches_radial_quadrature(n):
    # the closed form against 48-node Gauss quadrature of the two TM radial
    # profiles, at a zero of j_n (an eigenmode) and off the zeros, where the
    # boundary term j_n(k) F_n(k) / k^2 does not vanish
    x, w = np.polynomial.legendre.leggauss(48)
    r, w = 0.5 * (x + 1), 0.5 * w
    for k in (bessel_zero(n, 1), bessel_zero(n, 1) + 1.3, 2.0):
        j, big = (a.real for a in radial_pair(n, k * r))
        quadrature = n * (n + 1) / k ** 2 * np.sum(w * (big ** 2 + n * (n + 1) * j ** 2))
        assert_allclose(eigenmode_norm(EigenModeLabel("TM", n, 0, k)) ** 2, quadrature, rtol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_te_norm_matches_radial_quadrature(n):
    # the closed form n(n+1) L against 48-node Gauss quadrature of the TE
    # radial profile, at a zero of j_{n-1} (an eigenmode) and off the zeros:
    # a label takes any k
    x, w = np.polynomial.legendre.leggauss(48)
    r, w = 0.5 * (x + 1), 0.5 * w
    for k in (bessel_zero(n - 1, 1), bessel_zero(n - 1, 1) + 1.3, 2.0):
        j = radial_pair(n, k * r)[0].real
        quadrature = n * (n + 1) * np.sum(w * j ** 2 * r ** 2)
        assert_allclose(eigenmode_norm(EigenModeLabel("TE", n, 0, k)) ** 2, quadrature, rtol=1e-13)


def test_normalized_mode_unit_norm(ball_quad):
    for label in [EigenModeLabel("TE", 2, 1, bessel_zero(1, 1)),
                  EigenModeLabel("TM", 1, 0, bessel_zero(1, 1))]:
        vals = eigenmode(label, ball_quad.points, normalized=True)
        norm_sq = np.sum(ball_quad.weights * np.sum(np.abs(vals) ** 2, axis=-1))
        assert_allclose(norm_sq, 1.0, atol=1e-8)


def test_te_mode_tangential_on_boundary(sphere_quad_small):
    vals = eigenmode(EigenModeLabel("TE", 1, 0, math.pi), sphere_quad_small.points)
    radial = np.einsum("pi,pi->p", sphere_quad_small.points, vals)
    assert np.max(np.abs(radial)) <= 1e-12


def test_eigenmode_domain_error():
    with pytest.raises(ValueError):
        eigenmode(EigenModeLabel("TE", 1, 0, math.pi), np.array([1.2, 0.0, 0.0]))


def test_ball_potential_identity_on_ground_mode(ball_quad_small):
    # Newtonian potential of the normalized ground mode, evaluated outside the
    # ball by direct quadrature, equals lambda_0 times the exterior harmonic
    # field; this is the diagonalization used by the resonant moments
    lam0 = 1 / math.pi ** 2
    pts, wts = ball_quad_small.points, ball_quad_small.weights
    mode = math.pi * eigenmode(EigenModeLabel("TE", 1, 0, math.pi), pts)
    for R in (1.5, 2.5):
        x = np.array([0.6, 0.48, 0.64]) / 1.0
        x = x / np.linalg.norm(x) * R
        dist = np.linalg.norm(x[None, :] - pts, axis=1)
        pot = np.einsum("p,pi->i", wts / (4 * math.pi * dist), mode)
        expect = lam0 * math.pi * harmonic_exterior("Eh", 1, 0, x) / math.pi
        assert_allclose(pot, expect, atol=2e-6)


# --- mode potential integrals ------------------------------------------------------

def test_mode_potential_integral_j0():
    val = mode_potential_integral(0)
    expect = (4 / math.pi) * solid_harmonic_gradient_deg1(0)
    assert_allclose(val, expect, atol=1e-12)
    # radial factor oracle: int_0^1 r^3 j_1(pi r) dr = 3/pi^3 by antiderivative
    rs = np.polynomial.legendre.leggauss(60)
    r = 0.5 * (rs[0] + 1)
    w = 0.5 * rs[1]
    radial = np.sum(w * r ** 3 * np.asarray(sph_bessel_j(1, math.pi * r)).real)
    assert_allclose(radial, 3 / math.pi ** 3, atol=1e-14)
    assert_allclose(np.linalg.norm(val), 0.6221085, atol=1e-6)


def test_mode_potential_integral_symmetry():
    mags = [np.linalg.norm(mode_potential_integral(j)) for j in (-1, 0, 1)]
    assert_allclose(mags, [mags[0]] * 3, rtol=1e-13)


def test_gradient_outer_sum_identity():
    assert_allclose(gradient_outer_sum(), 3 / (4 * math.pi) * np.eye(3), atol=1e-13)


def test_mode_potential_quadrature_cross_check(ball_quad):
    for j in (-1, 0, 1):
        vals = mode_potential_curl_part(j, ball_quad.points)
        numeric = np.einsum("p,pi->i", ball_quad.weights, vals)
        assert_allclose(numeric, mode_potential_integral(j), atol=1e-10)


# --- scattering functions ---------------------------------------------------------

def test_scatter_fn_explicit_value_and_reduction():
    delta, tau = 0.15, 0.15 ** -2
    val = scatter_fn_explicit(3.3, delta, tau)
    # derived simplification: (8 pi^2/3)(3 j_1(t) - sin t)/sin t
    t = 3.3 * math.sqrt(1 + delta ** 2)
    simplified = 8 * math.pi ** 2 / 3 * (3 * sph_bessel_j(1, t).real - math.sin(t)) / math.sin(t)
    assert_allclose(val, simplified, rtol=1e-12)
    assert_allclose(val, -138.8227128, atol=1e-6)


def test_scatter_fn_explicit_pole_location():
    delta = 0.15
    pole = math.pi / math.sqrt(1 + delta ** 2)
    assert_allclose(pole, 3.10684, atol=5e-6)
    with pytest.raises(PoleError):
        scatter_fn_explicit(pole, delta, delta ** -2)
    # numerator 3 j_1(pi) - sin(pi) = 3/pi stays away from zero: simple pole
    assert_allclose(3 * sph_bessel_j(1, math.pi).real, 3 / math.pi, rtol=1e-13)


def test_scatter_fn_general_values():
    assert_allclose(scatter_fn_general(3.3, math.pi, 1.0), -175.0623182, atol=1e-6)
    assert scatter_fn_general(0.0, math.pi, 1.0) == 0.0
    with pytest.raises(PoleError):
        scatter_fn_general(math.pi, math.pi, 1.0)


def test_scatter_fn_general_residue():
    # residue at omega0: -(8/pi^2) omega0^3 c_tau = -8 pi for omega0 = pi
    eps = 1e-7
    res = eps * scatter_fn_general(math.pi + eps, math.pi, 1.0)
    assert_allclose(res, -8 * math.pi, rtol=1e-6)


def test_scatter_functions_pole_and_residue_agreement():
    for delta in (0.1, 0.15, 0.2):
        pole_exp = math.pi / math.sqrt(1 + delta ** 2)
        assert abs(pole_exp - math.pi) <= 2 * delta ** 2
        # residues: -8 pi / sqrt(1+d^2) (explicit) vs -8 pi (general)
        eps = 1e-6
        res_exp = eps * scatter_fn_explicit(pole_exp + eps, delta, delta ** -2)
        ratio = res_exp / (-8 * math.pi)
        assert abs(ratio - 1) <= 1.1 * delta ** 2


# --- scatter-functions grids: one array pass, the scalar calls' bits ------------------
# A claim about how CPython and numpy round complex arithmetic; CI runs it on CPython 3.10 to 3.13.
# CPython 3.14 multiplies and divides a float and a complex without making the float complex
# (C99 Annex G), which changes signed zeros; these tests do not cover 3.14.

def _per_point(omegas, delta, model):
    """(s~, s^) of the scalar calls at each point in grid order, a complex NaN on a pole, and the first
    error as (type, message), or None."""
    tau, omega0 = model.evaluate(delta), quasi_static_pole(model)
    cells = []
    try:
        for om in omegas:
            for fn, args in ((scatter_fn_explicit, (delta, tau)), (scatter_fn_general, (omega0, model.c_tau))):
                try:
                    cells.append(fn(om, *args))
                except PoleError:
                    cells.append(complex(math.nan, math.nan))
    except Exception as exc:  # noqa: BLE001 - the grid must raise the same
        return None, (type(exc), str(exc))
    return np.array(cells, dtype=complex).reshape(-1, 2).T, None


def _bits(values):
    return np.array(values, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("seed, c_tau, laurent", [(1, 1.0, ()), (2, 1.7, (0.4, -0.2)), (3, complex(1.2, 0.3), ()),
                                                  (4, complex(0.6, 0.05), (-0.8,))])
def test_scatter_grid_cells_are_the_scalar_calls_bit_for_bit(seed, c_tau, laurent, monkeypatch):
    model = ContrastModel(c_tau, laurent)
    omega0, lossless = quasi_static_pole(model), model.c_tau.imag == 0
    rng = np.random.default_rng(seed)
    handed = []  # the points the grid hands to the scalar calls
    monkeypatch.setattr(quasistatic, "scatter_fn_explicit",
                        lambda om, *args: handed.append(om) or scatter_fn_explicit(om, *args))
    for wide in (True, False, True, False):
        delta = rng.uniform(0.05, 0.3)
        tau = model.evaluate(delta)
        # one that reaches |y| <= 1 (the series pass), and the workload's window around omega_0
        lo, hi = (0.05, 9.0) if wide else (omega0.real * rng.uniform(0.85, 0.95), omega0.real * rng.uniform(1.05, 1.15))
        omegas = np.sort(rng.uniform(lo, hi, 300)).tolist()
        if lossless:  # on omega_0, and on the pole y = pi of s~, where J_1 + j_1 = y j_0 = sin y vanishes
            omegas[100:100] = [omega0.real, math.pi / (delta * math.sqrt(1 + tau.real))]
        (tilde, hat), error = _per_point(omegas, delta, model)
        assert error is None and np.isnan([hat[100], tilde[101]]).all() == lossless
        handed.clear()
        got = quasistatic._scatter_grid(omegas, delta, model)
        assert np.array_equal(_bits(got[0]), _bits(tilde)) and np.array_equal(_bits(got[1]), _bits(hat))
        y = np.abs(delta * np.array(omegas) * np.sqrt(1 + tau))
        series = np.count_nonzero(y <= 1)
        assert series <= len(handed) <= np.count_nonzero(y <= 1 + 1e-9) + 2 * lossless and (series > 0) == wide


@pytest.mark.parametrize("omegas, c_tau", [
    ([1.0, 2.0, math.nan, 3.0], 1.0),
    ([1.0, math.inf], complex(1.0, 0.2)),
    ([1.0, 2e5, 1e5], complex(1.0, 0.5)),  # |Im y| past 700 at 2e5: OverflowError of the radial pass
    ([1.0, 1e200, math.nan], 1.0),  # omega ** 2 overflows in s^ before s~ fails at nan
    ([1.0, math.nan, 1e200], 1.0),
])
def test_scatter_grid_raises_the_first_failing_points_error(omegas, c_tau):
    model = ContrastModel(c_tau, (0.3,))
    _, (kind, message) = _per_point(omegas, 0.1, model)
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        quasistatic._scatter_grid(omegas, 0.1, model)


def test_numpy_sin_and_cos_of_complex_arrays_are_cmaths():
    # the scatter-functions grid takes sin y and cos y from numpy where the scalar pass takes cmath's:
    # the interior arguments of the grids, past them to |Im z| = 700, and signed zeros
    rng = np.random.default_rng(17)
    size = 10.0 ** rng.uniform(-3, 2.8, 4000)
    z = np.concatenate([size * np.exp(1j * rng.uniform(-math.pi, math.pi, 4000)),
                        rng.uniform(-1e4, 1e4, 1000) + 1j * rng.uniform(-700, 700, 1000),
                        rng.uniform(0.5, 40, 1000) + 0j, rng.uniform(-40, -0.5, 1000) - 0j])
    z[-1000:].imag = -0.0
    for numpy_fn, cmath_fn in ((np.sin, cmath.sin), (np.cos, cmath.cos)):
        assert np.array_equal(_bits(numpy_fn(z)), _bits([cmath_fn(w) for w in z.tolist()]))


# --- blow-up coefficient -----------------------------------------------------------

def test_blowup_coefficient_values():
    w0 = math.pi
    assert_allclose(
        blowup_coefficient(3.3, 0.1, w0, 0.0, 1 / w0 ** 2),
        -w0 / (2 * (3.3 - w0)),
        rtol=1e-13,
    )
    # independent arithmetic for the two-term value
    w, d, cm1, lam0 = 3.3, 0.1, 1.0, 1 / math.pi ** 2
    expect = -w0 / (2 * (w - w0)) + d * w0 ** 2 * cm1 * w ** 2 * lam0 / (4 * (w - w0) ** 2)
    assert_allclose(blowup_coefficient(w, d, w0, cm1, lam0), expect, rtol=1e-13)


def test_blowup_simple_pole_scaling():
    w0 = math.pi
    for eps in (1e-2, 1e-3):
        val = blowup_coefficient(w0 * (1 + eps), 0.0, w0, 0.0, 1 / w0 ** 2)
        assert_allclose(abs(val), 1 / (2 * eps), rtol=1e-10)


# --- dipole approximation ----------------------------------------------------------

def test_dipole_electric_part_against_np_oracle(sphere_quad):
    # oracle: solve (1/2 + K*) mu = nu . e by spherical-harmonic truncation on
    # the sphere and integrate y (x) mu; K* acts as 1/(2(2n+1)) per degree
    delta = 0.1
    e = np.array([0.3, -0.5, 0.81])
    e /= np.linalg.norm(e)
    d = np.array([0.81, 0.0, -0.3 / np.linalg.norm([0.3, -0.5, 0.81])])
    xa, wa = sphere_quad.points, sphere_quad.weights
    nu_dot_e = xa @ e
    mu = np.zeros(len(xa), dtype=complex)
    for n in range(0, 6):
        for m in range(-n, n + 1):
            y = sph_harmonic(n, m, xa)
            coef = np.sum(wa * np.conj(y) * nu_dot_e)
            mu += coef * y / (0.5 + np_eigenvalue(n))
    oracle_p = delta ** 3 * np.einsum("a,ai->i", wa * mu, xa)
    dvec = np.cross(e, [0.0, 1.0, 0.0])
    dvec /= np.linalg.norm(dvec)
    pair = dipole_approximation(IncidentWave(dvec, e, 3.3), 3.3, delta, UNIT)
    assert_allclose(pair.p, oracle_p, atol=1e-10)
    assert_allclose(pair.p, 2 * math.pi * delta ** 3 * e, atol=1e-12)
    assert_allclose(np.linalg.norm(pair.p), 6.2832e-3, atol=1e-6)


def test_dipole_magnetic_drive_magnitude():
    pair = dipole_approximation(_wave(3.3), 3.3, 0.1, UNIT)
    drive = np.cross([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    assert_allclose(np.linalg.norm(drive), 1.0)
    # m is proportional to d x E0 through (3/4pi) I
    expect = (
        1.0 * 3.3 ** 2 * 0.1 ** 3 * (-math.pi / (2 * (3.3 - math.pi)))
        * (16 / math.pi ** 2) * (3 / (4 * math.pi))
    )
    assert_allclose(pair.m, expect * np.array(drive), rtol=1e-12)


def test_dipole_p_real_and_frequency_independent():
    p1 = dipole_approximation(_wave(3.2), 3.2, 0.1, UNIT).p
    p2 = dipole_approximation(_wave(3.3), 3.3, 0.1, UNIT).p
    assert_allclose(p1, p2, rtol=0, atol=0)
    assert np.max(np.abs(np.imag(p1))) == 0.0


def test_dipole_magnetic_term_matches_mie_te1_quadratically(rng):
    # pointwise relative difference of the resonant-dipole far field against
    # the Mie TE n=1 far field scales like delta^2 on a window that keeps a
    # fixed distance from the pole pair
    sups = {}
    xh = np.array([0.3, 0.5, 0.81])
    xh /= np.linalg.norm(xh)
    deltas = (0.075, 0.1)
    for delta in deltas:
        rels = []
        for om in np.linspace(3.0, 3.3, 13):
            if abs(om - math.pi) < 0.05:
                continue
            wv = _wave(om)
            pair = dipole_approximation(wv, om, delta, UNIT)
            m_ff = om ** 2 / (4 * math.pi) * np.cross(pair.m, xh)
            cfg = ScatterConfig(delta, delta ** -2, om)
            table = mie_coefficients(cfg, wv)
            te1 = MieTable(cfg, wv, {k: v for k, v in table.gamma.items() if k[0] == 1}, {})
            mie_ff = far_field(te1, xh)
            rels.append(np.linalg.norm(m_ff - mie_ff) / np.linalg.norm(mie_ff))
        sups[delta] = max(rels)
    growth = sups[0.1] / sups[0.075]
    expect = (0.1 / 0.075) ** 2
    assert 0.7 * expect <= growth <= 1.3 * expect
    # frozen from this oracle run: sup/delta^2 = 91.2 (delta=0.075) and 90.4
    # (delta=0.1); the shared constant is the content of the delta^2 law
    for delta in deltas:
        assert sups[delta] <= 95 * delta ** 2


# --- resonant moments ---------------------------------------------------------------

def test_resonant_moments_linear_in_polarization():
    w0 = math.pi
    rm1 = resonant_moments(_wave(w0 + 0.05), w0 + 0.05, 0.1, UNIT)
    rm2 = resonant_moments(
        IncidentWave(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]), w0 + 0.05),
        w0 + 0.05, 0.1, UNIT,
    )
    # rotating the wave moves the moments covariantly; magnitudes match
    assert_allclose(np.linalg.norm(rm1.m1_hat), np.linalg.norm(rm2.m1_hat), rtol=1e-8)


def test_resonant_moments_pole_orders():
    w0 = math.pi
    eps_list = np.array([0.05, 0.02, 0.008])
    m1 = []
    m2 = []
    for eps in eps_list:
        rm = resonant_moments(_wave(w0 + eps), w0 + eps, 0.1, UNIT)
        m1.append(np.linalg.norm(rm.m1_hat))
        m2.append(np.linalg.norm(rm.m2_hat))
    s1 = np.polyfit(np.log(eps_list), np.log(m1), 1)[0]
    s2 = np.polyfit(np.log(eps_list), np.log(m2), 1)[0]
    assert abs(s1 + 1) <= 0.05
    assert abs(s2 + 1) <= 0.05


def test_resonant_moments_degenerate_factors_vanish_for_ball():
    # parity kills int phi (x) y and tangentiality kills the normal trace of
    # the projected Newtonian potential, so M2 and Q0 sit at quadrature zero
    # while M1 stays order one
    w0 = math.pi
    rm = resonant_moments(_wave(w0 + 0.02), w0 + 0.02, 0.1, UNIT)
    scale = np.linalg.norm(rm.m1_hat)
    assert np.linalg.norm(rm.m2_hat) <= 1e-12 * scale
    assert np.linalg.norm(rm.q0_hat) <= 1e-12 * scale


def test_resonant_moments_q0_ratio_bounded_by_delta_squared():
    w0 = math.pi
    for delta in (0.05, 0.1, 0.2):
        rm = resonant_moments(_wave(w0 + 0.02), w0 + 0.02, delta, UNIT)
        ratio = np.linalg.norm(rm.q0_hat) / np.linalg.norm(rm.m1_hat)
        assert ratio <= delta ** 2


def test_resonant_moments_m1_matches_dipole_reduction():
    # near the pole the M1 pathway reproduces the explicit magnetic dipole:
    # m = -i tau delta^4 omega M1
    w0 = math.pi
    delta = 0.1
    om = w0 + 0.01
    wv = _wave(om)
    rm = resonant_moments(wv, om, delta, UNIT)
    tau = UNIT.evaluate(delta)
    m_from_moments = -1j * tau * delta ** 4 * om * rm.m1_hat
    pair = dipole_approximation(wv, om, delta, UNIT)
    assert_allclose(m_from_moments, pair.m, rtol=2e-2, atol=1e-12)
    # the gap closes quadratically with the radius
    rm_small = resonant_moments(wv, om, 0.02, UNIT)
    m_small = -1j * UNIT.evaluate(0.02) * 0.02 ** 4 * om * rm_small.m1_hat
    pair_small = dipole_approximation(wv, om, 0.02, UNIT)
    assert_allclose(m_small, pair_small.m, rtol=1e-3, atol=1e-14)


def _cartesian_moments(w, omega, delta, model, quad, n_sh=10):
    # the resonant moments written with one harmonic table at every node and
    # Cartesian U and V, the direct form the grid path regroups
    omega0 = quasi_static_pole(model)
    eps = omega - omega0
    k0 = bessel_zero(0, 1)
    lam0 = 1.0 / k0 ** 2
    tau = model.evaluate(delta)
    xa, wa = quad.angular.points, quad.angular.weights
    r, wr = quad.radial_nodes, quad.radial_weights
    e0, d = w.polarization, w.direction
    phase = np.exp(1j * delta * omega * np.outer(r, xa @ d))
    trace_inc = (xa @ e0) * np.exp(1j * delta * omega * (xa @ d))
    table = harmonic_table(n_sh, xa)
    harm, deg = table.y, table.degree
    uvecs = table.vectors(slice(1, None))[0]
    v1, y1 = table.vectors(slice(1, 4))[1], harm[1:4]
    prof = -math.sqrt(2) * k0 * np.asarray(sph_bessel_j(1, k0 * r)).real
    radial = np.einsum("r,ra->a", wr * prof, phase)
    overlaps = np.einsum("a,jai,i->j", wa * radial, np.conj(v1), e0)
    c_m = blowup_coefficient(omega, delta, omega0, model.c_minus1, lam0)
    b = np.einsum("ka,a->k", np.conj(harm), wa * trace_inc)
    rad = np.array([np.sum(wr * prof * r ** p) for p in range(n_sh + 1)])
    n = deg[1:]
    coef = -(2 * n + 1) / (n + 1) * b[1:] / n
    ang = np.sqrt(n * (n + 1)) * np.einsum("a,jai,kai->jk", wa, v1, np.conj(uvecs))
    second = lam0 * np.einsum("jk,k->j", ang, np.conj(coef) * rad[n - 1])
    t2_pref = omega ** 2 * omega0 * model.c_tau / tau / (2 * eps)
    phi_rad = float(np.sum(wr * k0 * r ** 2 * np.asarray(sph_bessel_j(1, k0 * r)).real))
    m1 = sum((c_m * ov + t2_pref * sec) * mode_potential_integral(j)
             for j, ov, sec in zip((-1, 0, 1), overlaps, second))
    m2 = -omega0 / eps * phi_rad * np.einsum("j,ja,a,ai,ak->ik", overlaps, y1, wa, xa, xa)
    g = rad[deg][:, None] * np.einsum("ka,a,jai,j->ki", np.conj(harm), wa, v1, overlaps)
    trace = np.einsum("ki,ai,ka->a", g / (2 * deg + 1)[:, None], xa, harm)
    b1 = np.einsum("ja,a,a->j", np.conj(y1), wa, trace)
    q0 = half_plus_np_inverse_factor(1) * np.einsum("j,ja,a,ai->i", b1, y1, wa, xa)
    q0 = q0 * -(delta ** 2 * omega ** 2 * omega0) / (2 * eps)
    return m1, m2, q0


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_resonant_moments_match_cartesian_reference(seed):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    e0 = np.cross(d, rng.normal(size=3))
    e0 /= np.linalg.norm(e0)
    model = ContrastModel(1.0) if seed % 2 else ContrastModel(1.3 + 0.08j, (0.4, -0.2))
    omega = (quasi_static_pole(model) + rng.uniform(0.005, 0.05)).real
    delta = rng.uniform(0.05, 0.2)
    quad = ball_quadrature(24, 32, 64) if seed < 3 else ball_quadrature(16, 20, 41)
    rm = resonant_moments(IncidentWave(d, e0, omega), omega, delta, model, quad=quad)
    m1, m2, q0 = _cartesian_moments(IncidentWave(d, e0, omega), omega, delta, model, quad)
    scale = np.linalg.norm(m1)
    assert_allclose(rm.m1_hat, m1, rtol=0, atol=1e-13 * scale)
    assert np.max(np.abs(rm.m2_hat - m2)) <= 1e-12 * scale
    assert np.max(np.abs(rm.q0_hat - q0)) <= 1e-12 * scale


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_resonant_moments_m1_matches_phase_grid_overlaps(seed):
    # the mode overlaps as quadrature of e^{i delta w r x.d} tabulated on the
    # whole ball grid and projected on V_1^j in (theta-hat, phi-hat) components
    from dieres.fields import _incidence
    from dieres.multipole import _harmonic_grid

    rng = np.random.default_rng(seed)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    e0 = np.cross(d, rng.normal(size=3))
    e0 /= np.linalg.norm(e0)
    model = ContrastModel(1.0) if seed % 2 else ContrastModel(1.3 + 0.08j, (0.4, -0.2))
    omega0 = quasi_static_pole(model)
    omega = (omega0 + rng.uniform(0.005, 0.05)).real
    delta = rng.uniform(0.05, 0.2)
    quad = ball_quadrature(24, 32, 64)
    xa, wa = quad.angular.points, quad.angular.weights
    r, wr = quad.radial_nodes, quad.radial_weights
    k0 = bessel_zero(0, 1)
    prof = -math.sqrt(2) * k0 * np.asarray(sph_bessel_j(1, k0 * r)).real
    grid = _harmonic_grid(quad.angular, 1)
    dt1, dp1 = (grid.at_nodes(part, slice(1, 4)) for part in (grid.table.d_theta, grid.table.d_phi))
    e0_t, e0_p = grid.theta_hat @ e0, grid.phi_hat @ e0
    radial = (wr * prof) @ np.exp(1j * delta * omega * np.outer(r, xa @ d))
    ref = np.einsum("a,ja->j", wa * radial, np.conj(dt1) * e0_p - np.conj(dp1) * e0_t) / math.sqrt(2)
    # the overlaps resonant_moments reads: sqrt(2) P_1^TE times one radial sum
    proj_te = _incidence(1, d.tobytes(), e0.tobytes())[0, 1:]
    got = math.sqrt(2) * proj_te * np.sum(wr * prof * sph_bessel_j(1, delta * omega * r))
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # M1 is linear in the overlaps through the blow-up coefficient
    rm = resonant_moments(IncidentWave(d, e0, omega), omega, delta, model, quad=quad)
    c_m = blowup_coefficient(omega, delta, omega0, model.c_minus1, 1 / k0 ** 2)
    m1 = rm.m1_hat + c_m * sum((o_ref - o) * mode_potential_integral(j) for j, o_ref, o in zip((-1, 0, 1), ref, got))
    assert np.linalg.norm(rm.m1_hat - m1) <= 1e-13 * np.linalg.norm(m1)


def test_resonant_moments_need_a_product_quadrature():
    q = ball_quadrature(8, 10, 20)
    for bare in (BallQuadrature(q.points, q.weights, q.degree),
                 BallQuadrature(q.points, q.weights, q.degree, q.radial_nodes, q.radial_weights,
                                type(q.angular)(q.angular.points, q.angular.weights, q.angular.degree))):
        with pytest.raises(ValueError, match="ball_quadrature"):
            resonant_moments(_wave(math.pi + 0.02), math.pi + 0.02, 0.1, UNIT, quad=bare)


# --- orientation averages -----------------------------------------------------------

def test_phi_integral_squared_value():
    val = float(np.sum(np.abs(mode_potential_integral(0)) ** 2))
    assert_allclose(val, 12 / math.pi ** 3, atol=1e-8, rtol=0)
    assert_allclose(val, 0.3870184, atol=5e-8)


def test_averaged_cross_section_ratio_scaling():
    w0 = math.pi
    vals = []
    for eps, delta in [(0.05, 0.1), (0.025, 0.1), (0.05, 0.2)]:
        omega = w0 + eps
        qs, qext = averaged_cross_sections(omega, delta, UNIT)
        # strip the smooth |omega|^5 factor; what remains is delta^3/|eps|
        vals.append((eps, delta, qs / abs(qext) / abs(omega) ** 5))
    assert_allclose(vals[1][2] / vals[0][2], 2.0, rtol=1e-10)
    assert_allclose(vals[2][2] / vals[0][2], 8.0, rtol=1e-10)


def test_extinction_average_against_double_quadrature_oracle():
    # Levi-Civita reduction oracle: integrate the dipole-model extinction
    # over independent (d, E0) orientations on S x S and compare with the
    # closed form; validates int x(x)x = (4pi/3) I and the epsilon-identity
    w0 = math.pi
    omega, delta = w0 + 0.07, 0.12
    qs_closed, qext_closed = averaged_cross_sections(omega, delta, UNIT)
    quad = sphere_quadrature(12, 24)
    phi0 = mode_potential_integral(0)
    a_mat = np.outer(phi0, phi0)
    pref = UNIT.c_tau * omega ** 2 * delta ** 3 * (-w0 / (2 * (omega - w0)))
    total_ext = 0.0
    total_qs = 0.0
    for dvec, wd in zip(quad.points, quad.weights):
        cross = np.cross(dvec[None, :], quad.points)  # d x e for all e
        m_all = pref * (a_mat @ cross.T).T
        ext_vals = omega * np.einsum("ai,ai->a", quad.points, np.cross(m_all, dvec[None, :]))
        total_ext += wd * np.sum(quad.weights * ext_vals)
        qs_vals = abs(omega) ** 4 / (6 * math.pi) * np.einsum("ai,ai->a", m_all, np.conj(m_all))
        total_qs += wd * np.sum(quad.weights * qs_vals.real)
    assert_allclose(total_ext, complex(qext_closed).real, rtol=1e-6)
    assert_allclose(total_qs, qs_closed, rtol=1e-6)


def test_mode_potential_integral_is_a_new_array_on_each_call():
    before = averaged_cross_sections(3.16, 0.1, UNIT)
    expected = mode_potential_integral(0).copy()
    mode_potential_integral(0)[:] = 0
    assert np.array_equal(mode_potential_integral(0), expected)
    assert averaged_cross_sections(3.16, 0.1, UNIT) == before


def test_averaged_cross_sections_pole_error():
    with pytest.raises(PoleError):
        averaged_cross_sections(math.pi, 0.1, UNIT)


# --- matching systems ----------------------------------------------------------------

def test_te_matching_determinant_identity():
    for n in range(1, 6):
        for k in np.linspace(0.4, 14.0, 60):
            det = np.linalg.det(te_matching_matrix(n, k))
            expect = n * sph_bessel_j(n, k) + riccati_J(n, k)
            assert_allclose(det, expect, atol=1e-10 * max(1, abs(expect)))
            assert_allclose(det, k * sph_bessel_j(n - 1, k), atol=1e-10 * max(1, abs(det)))


def test_te_matching_singular_exactly_at_lower_zeros():
    for n in range(1, 6):
        for s in (1, 2):
            k = bessel_zero(n - 1, s)
            assert abs(np.linalg.det(te_matching_matrix(n, k))) < 1e-11
            assert abs(np.linalg.det(te_matching_matrix(n, k + 0.1))) > 1e-3


def test_tm_matching_singular_at_own_zeros():
    for n in range(1, 4):
        k = bessel_zero(n, 1)
        assert abs(np.linalg.det(tm_matching_matrix(n, k))) < 1e-11


# --- misc ------------------------------------------------------------------------------

def test_np_eigenvalue_and_inverse_factor():
    assert np_eigenvalue(1) == pytest.approx(1 / 6)
    assert half_plus_np_inverse_factor(1) == pytest.approx(1.5)


def test_quasi_static_pole_scaling():
    assert_allclose(quasi_static_pole(UNIT), math.pi, rtol=1e-13)
    assert_allclose(quasi_static_pole(ContrastModel(4.0)), math.pi / 2, rtol=1e-13)


def test_dipole_far_field_helper():
    pair = DipolePair(np.array([1.0, 0, 0], dtype=complex), np.array([0, 1.0, 0], dtype=complex))
    xh = np.array([0.0, 0.0, 1.0])
    val = dipole_far_field(pair, 2.0, xh)
    expect = 4 / (4 * math.pi) * (np.array([1.0, 0, 0]) + np.cross([0, 1.0, 0], xh))
    assert_allclose(val, expect, rtol=1e-13)
    # directions stacked as (..., 3): every row the bits of its own call
    rng = np.random.default_rng(33)
    pair = DipolePair(*(rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))))
    dirs = rng.normal(size=(2, 3, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    for batch in (dirs, dirs[0], dirs[0, :2]):
        got = dipole_far_field(pair, 2.0, batch)
        want = [dipole_far_field(pair, 2.0, x) for x in batch.reshape(-1, 3)]
        assert got.shape == batch.shape and got.tobytes() == np.array(want).tobytes()


def test_resonant_moments_repeat_bit_identically_on_the_memoized_grid():
    from dieres.multipole import _harmonic_grid

    w0 = quasi_static_pole(UNIT)
    calls = [resonant_moments(_wave(w0 + 0.05), w0 + 0.05, 0.1, UNIT) for _ in range(2)]
    for name in ("q0_hat", "m1_hat", "m2_hat"):
        a, b = (getattr(rm, name) for rm in calls)
        assert np.array_equal(a.view(float), b.view(float))
    sphere = ball_quadrature(24, 32, 64).angular
    grid = _harmonic_grid(sphere, 10)
    assert _harmonic_grid(sphere, 10) is grid
    for part in (*grid.table, *grid[1:]):
        assert not part.flags.writeable


def test_mode_potential_curl_part_keeps_the_shape_of_its_points():
    grid = np.random.default_rng(3).uniform(-0.5, 0.5, (4, 5, 3))
    vals = mode_potential_curl_part(0, grid)
    assert vals.shape == (4, 5, 3)
    assert np.array_equal(vals.reshape(-1, 3), mode_potential_curl_part(0, grid.reshape(-1, 3)))
    assert np.array_equal(mode_potential_curl_part(1, grid[0, 0]), mode_potential_curl_part(1, grid[:1, 0])[0])


@pytest.mark.parametrize("point", [[math.nan, 0.0, 0.1], [0.0, math.inf, 0.0]])
def test_mode_potential_curl_part_rejects_a_non_finite_point(point):
    with pytest.raises(ValueError, match="point .* is not finite"):
        mode_potential_curl_part(0, [[0.1, 0.2, 0.3], point])
