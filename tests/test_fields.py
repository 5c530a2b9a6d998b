import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dieres.fields import (
    IncidentWave,
    farfield_pattern,
    harmonic_exterior,
    jacobi_anger_partial,
    multipole_field,
    plane_wave,
)
from dieres.specfun import angles_to_unit, vsh_UV


def _fd_curl(f, x, h=1e-5):
    curl = np.zeros(3, dtype=complex)
    grad = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2 * h)
    curl[0] = grad[1][2] - grad[2][1]
    curl[1] = grad[2][0] - grad[0][2]
    curl[2] = grad[0][1] - grad[1][0]
    return curl


def _fd_div(f, x, h=1e-5):
    total = 0.0
    for i in range(3):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        total += (f(xp)[i] - f(xm)[i]) / (2 * h)
    return total


def test_te_axis_zero():
    for r in [0.2, 1.0, 3.7]:
        val = multipole_field("entire", "TE", 1, 0, math.pi, np.array([0.0, 0.0, r]))
        assert np.max(np.abs(val)) < 1e-13


def test_te_vanishes_at_origin():
    for m in (-1, 0, 1):
        val = multipole_field("entire", "TE", 1, m, 2.0 + 0.1j, np.zeros(3))
        assert np.max(np.abs(val)) == 0.0


def test_tm_origin_value_matches_limit():
    # entire TM n=1 fields have the finite origin value (2i/3) grad(|x| Y_1^m)
    for m in (-1, 0, 1):
        at0 = multipole_field("entire", "TM", 1, m, 1.7, np.zeros(3))
        near = multipole_field("entire", "TM", 1, m, 1.7, np.array([1e-8, -1e-8, 1e-8]))
        assert_allclose(at0, near, atol=1e-8)
        assert np.linalg.norm(at0) > 0.1


def test_curl_relation_te_tm():
    # curl(TE) + i k TM = 0, via central finite differences
    k = 2.0
    x = np.array([0.3, 0.2, 0.1])
    curl = _fd_curl(lambda p: multipole_field("entire", "TE", 1, 0, k, p), x)
    tm = multipole_field("entire", "TM", 1, 0, k, x)
    assert np.max(np.abs(curl + 1j * k * tm)) <= 1e-6


def test_radiating_rejects_origin():
    with pytest.raises(ValueError):
        multipole_field("radiating", "TE", 1, 0, 1.0, np.zeros(3))


@pytest.mark.parametrize("variant,family,n,m", [
    ("entire", "TE", 1, 0), ("entire", "TM", 2, 1),
    ("radiating", "TE", 1, -1), ("radiating", "TM", 3, 2),
])
def test_divergence_free(variant, family, n, m, rng):
    k = 1.3 if variant == "entire" else 1.3 - 0.2j
    for _ in range(20):
        x = rng.uniform(0.4, 1.5, size=3) * rng.choice([-1, 1], size=3)
        div = _fd_div(lambda p: multipole_field(variant, family, n, m, k, p), x)
        scale = max(np.max(np.abs(multipole_field(variant, family, n, m, k, x))), 1.0)
        assert abs(div) <= 1e-6 * scale


@pytest.mark.parametrize("family,n,m", [("TE", 1, 0), ("TM", 2, 1)])
def test_radiating_vector_helmholtz(family, n, m, rng):
    omega = 1.7
    f = lambda p: multipole_field("radiating", family, n, m, omega, p)
    for _ in range(5):
        x = rng.uniform(0.5, 1.2, size=3)
        curlcurl = _fd_curl(lambda p: _fd_curl(f, p), x, h=1e-4)
        resid = curlcurl - omega ** 2 * f(x)
        assert np.max(np.abs(resid)) <= 1e-4 * max(np.max(np.abs(f(x))), 1.0)


# --- exterior harmonic fields -------------------------------------------------

def test_eh_scaling_in_radius():
    xh = angles_to_unit(1.0, 0.4)
    v10 = np.linalg.norm(harmonic_exterior("Eh", 1, 0, 10 * xh)) * 10 ** 2
    v100 = np.linalg.norm(harmonic_exterior("Eh", 1, 0, 100 * xh)) * 100 ** 2
    assert_allclose(v10, v100, rtol=1e-12)


def test_eh_hand_value_at_equator():
    val = harmonic_exterior("Eh", 1, 0, np.array([2.0, 0.0, 0.0]))
    expect = 0.25 * math.sqrt(3 / (4 * math.pi))
    assert_allclose(val, [0, expect, 0], atol=1e-14)


def test_eh_harmonic_and_divergence_free():
    x = np.array([1.1, 0.4, -0.3])
    for kind, n, m in [("Eh", 1, 0), ("Eh", 2, 1), ("curlEh", 1, 0), ("curlEh", 3, -2)]:
        f = lambda p: harmonic_exterior(kind, n, m, p)
        assert abs(_fd_div(f, x)) <= 1e-5
        lap = np.zeros(3, dtype=complex)
        h = 1e-4
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            lap += (f(xp) - 2 * f(x) + f(xm)) / h ** 2
        assert np.max(np.abs(lap)) <= 1e-5 * max(np.linalg.norm(f(x)), 1.0)


@pytest.mark.parametrize("kind,n,slope", [("Eh", 1, -2), ("Eh", 3, -4), ("curlEh", 1, -3), ("curlEh", 2, -4)])
def test_exterior_decay_slopes(kind, n, slope):
    xh = angles_to_unit(0.8, 2.0)
    rs = np.geomspace(5, 500, 7)
    mags = [np.linalg.norm(harmonic_exterior(kind, n, 1, r * xh)) for r in rs]
    fit = np.polyfit(np.log(rs), np.log(mags), 1)[0]
    assert abs(fit - slope) <= 0.01 * abs(slope)


# --- far-field patterns -------------------------------------------------------

def test_farfield_axis_zero_and_tangential(rng):
    assert np.max(np.abs(farfield_pattern("TE", 1, 0, 2.0, np.array([0.0, 0.0, 1.0])))) < 1e-14
    for _ in range(10):
        xh = rng.normal(size=3)
        xh /= np.linalg.norm(xh)
        for fam, n, m in [("TE", 1, 0), ("TM", 2, 1)]:
            val = farfield_pattern(fam, n, m, 1.5, xh)
            assert abs(np.dot(xh, val)) <= 1e-12


@pytest.mark.parametrize("family", ["TE", "TM"])
def test_farfield_numeric_limit(family):
    # |x| e^{-iw|x|} E_rad(x) -> pattern(xhat) with O(1/R) error
    omega = 2.0
    xh = angles_to_unit(1.1, 0.7)
    pat = farfield_pattern(family, 1, 0, omega, xh)
    errs = []
    for R in (1e3, 1e4):
        field = multipole_field("radiating", family, 1, 0, omega, R * xh)
        errs.append(np.linalg.norm(R * np.exp(-1j * omega * R) * field - pat))
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 12.0


# --- plane wave and partial-wave expansion ------------------------------------

def _wave():
    return IncidentWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 1.0)


def test_plane_wave_unimodular(rng):
    w = _wave()
    for _ in range(5):
        x = rng.normal(size=3)
        val = plane_wave(w, x)
        assert_allclose(np.dot(val, np.conj(val)), 1.0, rtol=1e-13)


def test_incident_wave_validation():
    with pytest.raises(ValueError):
        IncidentWave(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        IncidentWave(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]), 1.0)


@pytest.mark.parametrize("direction, polarization", [
    ([0.0, 1.0], [1.0, 0.0]),
    ([[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]]),
])
def test_incident_wave_needs_3_vectors(direction, polarization):
    with pytest.raises(ValueError, match="direction and polarization must be 3-vectors"):
        IncidentWave(np.array(direction), np.array(polarization), 1.0)


def test_jacobi_anger_at_origin_reproduces_polarization():
    w = _wave()
    val = jacobi_anger_partial(w, 2, np.zeros(3))
    assert_allclose(val, w.polarization, atol=1e-12)


def test_jacobi_anger_converges_to_plane_wave(rng):
    w = _wave()
    x = np.array([0.3, -0.5, 0.81])
    x /= np.linalg.norm(x)  # |w||x| = 1
    exact = plane_wave(w, x)
    err = np.linalg.norm(jacobi_anger_partial(w, 12, x) - exact)
    assert err <= 1e-10
    # oblique incidence as well
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    e0 = np.cross(d, [0.0, 0.0, 1.0])
    e0 /= np.linalg.norm(e0)
    w2 = IncidentWave(d, e0, 1.0)
    err2 = np.linalg.norm(jacobi_anger_partial(w2, 12, x) - plane_wave(w2, x))
    assert err2 <= 1e-10


@pytest.mark.parametrize("N", [1, 4, 9])
def test_jacobi_anger_matches_sum_of_multipole_fields(N):
    rng = np.random.default_rng(N)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    e0 = np.cross(d, rng.normal(size=3))
    e0 /= np.linalg.norm(e0)
    w = IncidentWave(d, e0, 1.7)
    x = np.vstack([np.zeros(3), rng.normal(size=(20, 3))])
    ref = np.zeros((len(x), 3), dtype=complex)
    for n in range(1, N + 1):
        coeff = -4 * math.pi * 1j ** n / math.sqrt(n * (n + 1))
        for m in range(-n, n + 1):
            u, v = vsh_UV(n, m, d)
            ref += coeff * np.dot(np.conj(v), e0) * multipole_field("entire", "TE", n, m, w.omega, x)
            ref += coeff * np.dot(np.conj(u), e0) * multipole_field("entire", "TM", n, m, w.omega, x)
    assert np.max(np.abs(jacobi_anger_partial(w, N, x) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_jacobi_anger_order_cap():
    with pytest.raises(ValueError):
        jacobi_anger_partial(_wave(), 65, np.array([0.1, 0.2, 0.3]))


def test_field_sample_validation():
    from dieres.fields import FieldSample

    s = FieldSample(np.array([0.1, 0.2, 0.3]), np.array([1 + 1j, 0.0, 0.5]))
    assert s.value.dtype == complex
    with pytest.raises(ValueError):
        FieldSample(np.array([0.1, np.inf, 0.3]), np.array([1.0, 0, 0]))
    with pytest.raises(ValueError):
        FieldSample(np.array([0.1, 0.2, 0.3]), np.array([np.nan, 0, 0]))


def _reference_jacobi_anger(w, N, x):
    # the expansion contracted against one stored harmonic table of every entry
    from dieres.specfun import harmonic_table, radial_table

    r = np.linalg.norm(x, axis=-1)
    xh = x / r[:, None]
    u_d, v_d = harmonic_table(N, w.direction).vectors(slice(1, None))
    table = harmonic_table(N, xh)
    u, v = table.vectors(slice(1, None))
    n = table.degree[1:]
    pref = -4 * math.pi * 1j ** n / np.sqrt(n * (n + 1))
    te, tm = pref * (np.conj(v_d) @ w.polarization), pref * (np.conj(u_d) @ w.polarization)
    f, big = radial_table(N, w.omega * r, "j")
    root = np.sqrt(n * (n + 1))[:, None, None]
    te_fields = -f[n][:, :, None] * root * v
    tm_fields = -(big[n][:, :, None] * root * u + (n * (n + 1))[:, None, None] * f[n][:, :, None]
                  * table.y[1:, :, None] * xh) / (1j * w.omega * r[:, None])
    return np.sum(te[:, None, None] * te_fields + tm[:, None, None] * tm_fields, axis=0)


def test_jacobi_anger_matches_full_table_contraction(rng):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    e0 = np.cross(d, rng.normal(size=3))
    w = IncidentWave(d, e0 / np.linalg.norm(e0), 1.7)
    x = rng.normal(size=(30, 3))
    x = np.concatenate([[[0, 0, 0.8], [0, 0, -1.3]], x])
    ref = _reference_jacobi_anger(w, 8, x)
    assert_allclose(jacobi_anger_partial(w, 8, x), ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))


def test_jacobi_anger_coefficients_match_frame_components(rng):
    # the coefficients -4 pi i^n / (n(n+1)) (conj(d_theta, d_phi) against the
    # frame components of e0) from a harmonic table of the incident direction
    from dieres.fields import _multipole_sum
    from dieres.specfun import harmonic_table

    for _ in range(3):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        e0 = np.cross(d, rng.normal(size=3))
        w = IncidentWave(d, e0 / np.linalg.norm(e0), rng.uniform(0.5, 3.0))
        table = harmonic_table(8, w.direction)
        e_t, e_p = table.theta_hat @ w.polarization, table.phi_hat @ w.polarization
        d_t, d_p = np.conj(table.d_theta), np.conj(table.d_phi)
        coeff = np.array([0.0] + [-4 * math.pi * 1j ** n / (n * (n + 1)) for n in table.degree[1:]])
        x = np.concatenate([[[0, 0, 0], [0, 0, 0.8]], rng.normal(size=(30, 3))])
        ref = _multipole_sum("entire", coeff * (d_t * e_p - d_p * e_t), coeff * (d_t * e_t + d_p * e_p), w.omega, x)
        assert_allclose(jacobi_anger_partial(w, 8, x), ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))


def test_grid_shaped_points_match_the_flattened_call(rng):
    grid = rng.normal(size=(4, 5, 3))
    flat = grid.reshape(-1, 3)
    w = IncidentWave(np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0]), 1.3)
    for f in (lambda x: multipole_field("radiating", "TM", 3, -2, 1.3, x),
              lambda x: multipole_field("entire", "TE", 2, 1, 1.3, x),
              lambda x: jacobi_anger_partial(w, 4, x),
              lambda x: harmonic_exterior("curlEh", 2, 1, x)):
        got = f(grid)
        assert got.shape == (4, 5, 3)
        assert np.array_equal(got, f(flat).reshape(4, 5, 3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_points_raise(bad):
    x = np.array([[1.0, 0.5, 0.3], [0.2, 0.1, bad]])
    w = IncidentWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 1.3)
    for f in (lambda: multipole_field("radiating", "TE", 1, 0, 1.3, x),
              lambda: jacobi_anger_partial(w, 3, x),
              lambda: harmonic_exterior("Eh", 1, 0, x)):
        with pytest.raises(ValueError, match="point .* is not finite"):
            f()


@pytest.mark.parametrize("direction, polarization, omega, name", [
    ([math.nan, 0.0, 1.0], [1.0, 0.0, 0.0], 1.0, "|direction|"),
    ([0.0, 0.0, -math.inf], [1.0, 0.0, 0.0], 1.0, "|direction|"),
    ([0.0, 0.0, 1.0], [1.0, math.nan, 0.0], 1.0, "|polarization|"),
    ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], math.nan, "omega"),
    ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], complex(1.0, math.inf), "omega"),
])
def test_incident_wave_names_a_non_finite_parameter(direction, polarization, omega, name):
    with pytest.raises(ValueError, match=re.escape(name) + " = .* is not finite"):
        IncidentWave(np.array(direction), np.array(polarization), omega)


_X = np.array([0.3, -0.4, 0.5])


@pytest.mark.parametrize("call, message", [
    (lambda: multipole_field("entire", "TX", 1, 0, 1.0, _X), "unknown family 'TX'"),
    (lambda: multipole_field("entire", "TE", 0, 0, 1.0, _X), "multipole fields start at n = 1"),
    (lambda: multipole_field("radiating", "TM", 2, -3, 1.0, _X), "|m| = 3 exceeds degree n = 2"),
    (lambda: multipole_field("outgoing", "TE", 1, 0, 1.0, _X), "unknown variant 'outgoing'"),
    (lambda: multipole_field("entire", "TM", 1, 0, 0.0, _X), "TM fields need a nonzero wavenumber"),
    (lambda: harmonic_exterior("E", 1, 0, _X), "unknown kind 'E'"),
    (lambda: harmonic_exterior("Eh", 0, 0, _X), "exterior harmonic fields start at n = 1"),
    (lambda: harmonic_exterior("curlEh", 1, 2, _X), "|m| = 2 exceeds degree n = 1"),
    (lambda: harmonic_exterior("Eh", 1, 0, [_X, [0.0, 0.0, 0.0]]), "exterior harmonic fields are singular at x = 0"),
    (lambda: farfield_pattern("TX", 1, 0, 1.0, _X), "unknown family 'TX'"),
    (lambda: farfield_pattern("TE", 0, 0, 1.0, _X), "far-field patterns start at n = 1"),
    (lambda: farfield_pattern("TM", 1, -2, 1.0, _X), "|m| = 2 exceeds degree n = 1"),
    (lambda: farfield_pattern("TE", 1, 0, 0.0, _X), "far-field pattern needs a nonzero frequency"),
    (lambda: jacobi_anger_partial(_wave(), 0, _X), "need at least one expansion order"),
])
def test_field_evaluators_name_a_bad_argument(call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as caught:
        call()
    assert caught.type is ValueError
